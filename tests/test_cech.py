import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from serrekit import serre
from serrekit.algebra import LocElem, Poly, parse_poly, qdiv, transport
from serrekit.cech import (CechCochain, _solve_ansatz, _solve_exact,
                           coboundary_solve, cohomology_dim, differential,
                           is_cocycle)
from serrekit.cli import load_bundle
from serrekit.cover import AmbientSpec, Cover, LineBundleData, section_unit
from serrekit.errors import (Inconclusive, NotACocycle, Obstructed,
                             PreconditionViolated, ShapeViolation)



def _with_units(ambient, units):
    """A cover of `ambient` with the section units `units` fixed."""
    cover = Cover(ambient)
    cover.fix_units(units)
    return cover

def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


def P(n):
    return AmbientSpec(n)


def elem(cover, key, text, den=None):
    ctx = cover.ctx(key)
    return LocElem(ctx, _poly(ctx, text), den or {})


def rank(rows, ncols):
    mat = [list(r) for r in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def oracle_dim(n, m, q):
    """Independent count: per Laurent multidegree of total degree m, build the
    simplicial complex of valid chart subsets and take exact ranks.  All
    multidegrees carrying cohomology lie inside the enumerated box."""
    charts = tuple(range(n + 1))
    bound = abs(m) + n + 1
    total = 0
    for alpha in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        if sum(alpha) != m:
            continue
        def valid(K):
            return all(alpha[k] >= 0 for k in charts if k not in K)
        level = [
            [K for K in itertools.combinations(charts, p + 1) if valid(K)]
            for p in range(n + 1)
        ]

        def dmat(p):
            # map C^p -> C^(p+1), entries over Fraction
            src = {K: i for i, K in enumerate(level[p])}
            rows = []
            for K in level[p + 1]:
                row = [Fraction(0)] * len(level[p])
                for pos in range(p + 2):
                    face = K[:pos] + K[pos + 1:]
                    if face in src:
                        row[src[face]] += Fraction(-1 if pos % 2 else 1)
                rows.append(row)
            return rows, len(level[p])

        dim_cq = len(level[q])
        if dim_cq == 0:
            continue
        rk_out = rank(*dmat(q)) if q < n else 0
        rk_in = rank(*dmat(q - 1)) if q >= 1 else 0
        total += dim_cq - rk_out - rk_in
    return total


def test_cohomology_dims_match_rank_oracle():
    for n in (1, 2, 3):
        for m in range(-5, 5):
            for q in range(n + 1):
                assert cohomology_dim(P(n), m, q) == oracle_dim(n, m, q), (n, m, q)


def test_cohomology_dim_spot_values():
    assert cohomology_dim(P(2), 2, 0) == 6
    assert cohomology_dim(P(2), -3, 2) == 1
    assert cohomology_dim(P(1), -2, 1) == 1
    assert cohomology_dim(P(3), -4, 3) == 1
    assert cohomology_dim(P(2), -1, 1) == 0
    assert cohomology_dim(P(1), -1, 0) == 0
    assert cohomology_dim(P(2), 5, 3) == 0


def test_differential_degree_zero_untwisted():
    cover = Cover(P(1))
    lb = LineBundleData(P(1), 0)
    y = CechCochain(cover, lb, 0, 1, {(0,): (elem(cover, (0,), "1"),)})
    dy = differential(y)
    assert dy.get((0, 1))[0] == elem(cover, (0, 1), "-1")


def test_differential_degree_zero_twist_one():
    cover = Cover(P(1))
    lb = LineBundleData(P(1), 1)
    y = CechCochain(cover, lb, 0, 1, {(0,): (elem(cover, (0,), "1"),)})
    dy = differential(y)
    # y_1 - h_01 y_0 = -x1/x0 on the overlap
    assert dy.get((0, 1))[0] == elem(cover, (0, 1), "-x1")


def test_differential_degree_one_all_ones():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 0)
    ones = {k: (elem(cover, k, "1"),)
            for k in itertools.combinations(cover.charts, 2)}
    x = CechCochain(cover, lb, 1, 1, ones)
    dx = differential(x)
    # x_12 - x_02 + x_01 = 1
    assert dx.get((0, 1, 2))[0] == elem(cover, (0, 1, 2), "1")


def test_differential_is_kept_on_the_cochain():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 0)
    y = CechCochain(cover, lb, 0, 1, {(0,): (elem(cover, (0,), "x1"),)})
    dy = differential(y)
    assert differential(y) is dy
    assert differential(dy) is differential(dy)
    assert is_cocycle(dy)


def _random_elem(rng, ctx):
    num = Poly.zero(ctx.nvars)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(ctx.nvars))
        num = num + Poly.monomial(ctx.nvars, exps, rng.randint(-3, 3))
    den = {}
    for key in ctx.unit_keys():
        if key.startswith("c") and rng.random() < 0.5:
            den[key] = rng.randint(1, 2)
    return LocElem(ctx, num, den)


def test_differential_squares_to_zero():
    rng = random.Random(401)
    ambient = P(2)
    cover = Cover(ambient)
    for twist in (0, 1, -2):
        lb = LineBundleData(ambient, twist)
        data = {(i,): (_random_elem(rng, cover.ctx((i,))),
                       _random_elem(rng, cover.ctx((i,))))
                for i in cover.charts}
        y = CechCochain(cover, lb, 0, 2, data)
        assert differential(differential(y)).is_zero()


def _differential_reference(c):
    """The differential summed one face at a time: each moved face value
    (times the twist on the last face) normalized, scaled by its sign and
    added to a normalized accumulator."""
    cover, lb, p = c.cover, c.lb, c.degree
    out = {}
    for key in itertools.combinations(cover.charts, p + 2):
        ctx = cover.ctx(key)
        acc = [LocElem.zero(ctx) for _ in range(c.width)]
        for m in range(p + 2):
            vals = c.get(key[:m] + key[m + 1:])
            moved = [transport(v, ctx) for v in vals]
            if m == p + 1:
                twist = lb.h(key[-2], key[-1], ctx)
                moved = [v * twist for v in moved]
            for w in range(c.width):
                acc[w] = acc[w] + moved[w].scale(-1 if m % 2 else 1)
        out[key] = tuple(acc)
    return out


def test_differential_matches_one_face_at_a_time_reference():
    """Values agree on every cover; (num, den) agree where the unit
    polynomials are pairwise coprime: no section unit, or the non-monomial
    x0 + x1 and x1 + x2 that `two_points_unit` registers on P^2 (here on
    P^3).  Monomial section units share factors with coordinate units, so
    there only the values must agree."""
    rng = random.Random(2102)
    ambient = P(3)
    bare = Cover(ambient)
    kinds = {"no unit": (), "monomial unit": ((1, "x2"), (3, "3*x0^2")),
             "non-monomial unit": ((0, "1 + x1"), (2, "x1 + 1"))}
    nonzero = {kind: 0 for kind in kinds}
    for kind, units in kinds.items():
        cover = _with_units(ambient, [
            section_unit(ambient, chart, _poly(bare.chart_ctx(chart), text))
            for chart, text in units])
        for _ in range(12):
            lb = LineBundleData(ambient, rng.randint(-1, 2))
            degree = rng.randint(0, 2)
            width = rng.randint(1, 2)
            data = {key: tuple(_unit_elem(rng, cover.ctx(key))
                               for _ in range(width))
                    for key in itertools.combinations(cover.charts,
                                                      degree + 1)
                    if rng.random() < 0.6}
            c = CechCochain(cover, lb, degree, width, data)
            want = _differential_reference(c)
            got = differential(c)
            for key, vals in want.items():
                for x, y in zip(got.get(key), vals):
                    assert x == y
                    if kind != "monomial unit":
                        assert (x.num, x.den) == (y.num, y.den)
                    nonzero[kind] += not y.is_zero()
    assert min(nonzero.values()) > 40, nonzero


def test_coboundary_solve_roundtrip_degree_one():
    rng = random.Random(402)
    ambient = P(2)
    cover = Cover(ambient)
    for twist in (0, 2, -1):
        lb = LineBundleData(ambient, twist)
        data = {(i,): (_random_elem(rng, cover.ctx((i,))),)
                for i in cover.charts}
        y = CechCochain(cover, lb, 0, 1, data)
        c = differential(y)
        xi = coboundary_solve(c)
        assert differential(xi) == c


def test_coboundary_solve_roundtrip_degree_two():
    rng = random.Random(403)
    ambient = P(3)
    cover = Cover(ambient)
    lb = LineBundleData(ambient, 1)
    data = {k: (_random_elem(rng, cover.ctx(k)),)
            for k in itertools.combinations(cover.charts, 2)}
    x = CechCochain(cover, lb, 1, 1, data)
    c = differential(x)
    xi = coboundary_solve(c)
    assert xi.degree == 1
    assert differential(xi) == c


def test_coboundary_solve_zero_quick_path():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 0)
    c = CechCochain(cover, lb, 1, 2, {})
    xi = coboundary_solve(c)
    assert xi.is_zero() and xi.degree == 0


def test_coboundary_solve_rejects_degree_zero():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 0)
    y = CechCochain(cover, lb, 0, 1, {(0,): (elem(cover, (0,), "1"),)})
    with pytest.raises(PreconditionViolated):
        coboundary_solve(y)


def test_coboundary_solve_rejects_non_cocycle():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 0)
    c = CechCochain(cover, lb, 1, 1, {(0, 1): (elem(cover, (0, 1), "1"),)})
    with pytest.raises(NotACocycle):
        coboundary_solve(c)


def test_obstructed_class_on_plane():
    # top-degree value whose section form is the generator of the only
    # nonvanishing cohomology of O(-3) on the plane
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 3)
    v = elem(cover, (0, 1, 2), "x2^2", {"c1": 1})
    c = CechCochain(cover, lb, 2, 1, {(0, 1, 2): (v,)})
    with pytest.raises(Obstructed) as exc:
        coboundary_solve(c)
    assert exc.value.multidegree == (-1, -1, -1)
    assert exc.value.component == 1
    assert "0,1,2" in exc.value.witness["sections"]


def test_obstruction_vanishes_when_positivity_allows():
    # same shape but a representable multidegree: x2^3/x1 has section degree
    # (-1, 0, 0) after untwisting, solvable by a 1-cochain
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 3)
    v = elem(cover, (0, 1, 2), "x2^3", {"c1": 1})
    c = CechCochain(cover, lb, 2, 1, {(0, 1, 2): (v,)})
    xi = coboundary_solve(c)
    assert differential(xi) == c


def test_ansatz_solves_section_unit_denominator():
    ambient = P(2)
    ctx0 = Cover(ambient).chart_ctx(0)
    cover = _with_units(
        ambient, [section_unit(ambient, 0, _poly(ctx0, "1 + x1"))])
    lb = LineBundleData(ambient, 0)
    y0 = LocElem(cover.ctx((0,)), Poly.const(2, 1), {"s0": 1})
    y = CechCochain(cover, lb, 0, 1, {(0,): (y0,)})
    c = differential(y)
    xi = coboundary_solve(c, max_degree=1)
    assert differential(xi) == c


def test_ansatz_failure_is_inconclusive():
    ambient = P(2)
    ctx0 = Cover(ambient).chart_ctx(0)
    cover = _with_units(
        ambient, [section_unit(ambient, 0, _poly(ctx0, "1 + x1"))])
    lb = LineBundleData(ambient, 3)
    ctx = cover.ctx((0, 1, 2))
    v = LocElem(ctx, _poly(ctx, "x2^2"), {"c1": 1, "s0": 1})
    c = CechCochain(cover, lb, 2, 1, {(0, 1, 2): (v,)})
    with pytest.raises(Inconclusive):
        coboundary_solve(c, max_degree=1)


def test_cochain_algebra_and_shape_checks():
    cover = Cover(P(1))
    lb = LineBundleData(P(1), 0)
    with pytest.raises(ShapeViolation):
        CechCochain(cover, lb, 0, 1, {(1, 0): (elem(cover, (0, 1), "1"),)})
    with pytest.raises(ShapeViolation):
        CechCochain(cover, lb, 0, 2, {(0,): (elem(cover, (0,), "1"),)})


def test_is_cocycle_detects_coboundaries():
    cover = Cover(P(2))
    lb = LineBundleData(P(2), 2)
    y = CechCochain(cover, lb, 0, 1,
                    {(i,): (elem(cover, (i,), "1"),) for i in cover.charts})
    assert is_cocycle(differential(y))


def _dense_solve_exact(rows, ncols):
    """Reference: the dense Gauss-Jordan solver the sparse one replaced."""
    mat = [[row.get(j, Fraction(0)) for j in range(ncols)] + [rhs]
           for row, rhs in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = mat[i][ncols]
    return sol


def _fraction_solve_exact(rows, ncols):
    """Reference: the sparse solver over the rationals that the integer one
    replaced, which scales each pivot row to a leading 1; the same pivot
    rule, so the same reduced row echelon form."""
    live = []
    holders = {}
    for i, (coeffs, rhs) in enumerate(rows):
        row = {j: a for j, a in coeffs.items() if a}
        if rhs:
            row[-1] = rhs
        for j in row:
            holders.setdefault(j, set()).add(i)
        live.append(row)
    used = set()
    pivots = []
    for col in range(ncols):
        cands = holders.get(col, ())
        piv = min((i for i in cands if i not in used),
                  key=lambda i: (len(live[i]), i), default=None)
        if piv is None:
            continue
        prow = live[piv]
        inv = qdiv(1, prow[col])
        for j in prow:
            prow[j] *= inv
        for i in list(cands):
            if i == piv:
                continue
            row = live[i]
            f = row[col]
            for j, a in prow.items():
                v = row.get(j, 0) - f * a
                if v:
                    if j not in row:
                        holders.setdefault(j, set()).add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
        used.add(piv)
        pivots.append((col, piv))
    if holders.get(-1, set()) - used:
        return None
    sol = [0] * ncols
    for col, i in pivots:
        sol[col] = live[i].get(-1, 0)
    return sol


def _assert_stored(sol):
    """Every entry an int, or a Fraction with denominator > 1."""
    assert all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in sol), sol


def _random_system(rng):
    """A sparse Fraction system with empty rows, unused columns, explicit
    zero entries, zero right-hand sides and dependent rows; the right-hand
    side is either free (often inconsistent) or A x for a random x."""
    ncols = rng.choice([0, 1, 2, 3, 5, 8, 12])
    nrows = rng.randint(0, 14)
    density = rng.choice([0.1, 0.25, 0.5])
    used_cols = [j for j in range(ncols) if rng.random() < 0.8]

    def value():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]),
                        rng.choice([1, 1, 2, 3]))

    coeffs = []
    for _ in range(nrows):
        row = {j: value() for j in used_cols if rng.random() < density}
        if row and rng.random() < 0.1:
            row[rng.choice(list(row))] = Fraction(0)
        if coeffs and rng.random() < 0.2:
            other = rng.choice(coeffs)
            f = value()
            for j, a in other.items():
                row[j] = row.get(j, Fraction(0)) + f * a
        coeffs.append(row)
    if rng.random() < 0.5:
        x = [value() if rng.random() < 0.7 else Fraction(0)
             for _ in range(ncols)]
        rhs = [sum((a * x[j] for j, a in row.items()), Fraction(0))
               for row in coeffs]
    else:
        rhs = [value() if rng.random() < 0.6 else Fraction(0)
               for _ in coeffs]
    return list(zip(coeffs, rhs)), ncols


def test_sparse_solver_matches_dense_reference():
    rng = random.Random(20061017)
    outcomes = {"solved": 0, "inconsistent": 0}
    for _ in range(3000):
        rows, ncols = _random_system(rng)
        expected = _dense_solve_exact(rows, ncols)
        assert _fraction_solve_exact(rows, ncols) == expected, (rows, ncols)
        got = _solve_exact(rows, ncols)
        assert got == expected, (rows, ncols)
        outcomes["solved" if got is not None else "inconsistent"] += 1
        if got is not None:
            _assert_stored(got)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert _solve_exact(shuffled, ncols) == expected, (rows, ncols)
    assert min(outcomes.values()) > 300, outcomes


def test_integer_solver_matches_references_on_large_entries():
    """Integer systems with entries up to 10^12 and almost no unit pivot,
    and their Fraction scalings: rows are cross-multiplied by non-unit
    pivots and divided by their content, and the solution, read off as
    rhs / pivot, matches both references in stored form."""
    rng = random.Random(3802)
    outcomes = Counter()
    for _ in range(300):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 9)

        def value():
            size = 10 ** rng.randint(1, 12)
            return rng.choice([-1, 1]) * rng.randint(2, size)

        coeffs = [{j: value() for j in range(ncols) if rng.random() < 0.6}
                  for _ in range(nrows)]
        if rng.random() < 0.5:
            x = [Fraction(value(), rng.randint(1, 50)) for _ in range(ncols)]
            rhs = [sum((a * x[j] for j, a in row.items()), Fraction(0))
                   for row in coeffs]
        else:
            rhs = [value() for _ in coeffs]
        rows = list(zip(coeffs, rhs))
        scaled = []  # each row divided by its own integer
        for row, b in rows:
            d = rng.randint(1, 30)
            scaled.append(({j: Fraction(a, d) for j, a in row.items()},
                           Fraction(b, d)))
        expected = _dense_solve_exact(rows, ncols)
        for system in (rows, scaled):
            assert _fraction_solve_exact(system, ncols) == expected
            got = _solve_exact(system, ncols)
            assert got == expected, (system, ncols)
            if got is not None:
                _assert_stored(got)
        outcomes["solved" if expected is not None else "inconsistent"] += 1
        outcomes["fractional"] += expected is not None and any(
            type(x) is Fraction and x.denominator > 1 for x in expected)
    assert min(outcomes.values()) > 60, outcomes


def test_sparse_solver_edge_cases():
    assert _solve_exact([], 0) == []
    assert _solve_exact([({}, Fraction(0))], 0) == []
    assert _solve_exact([({}, Fraction(2))], 0) is None
    assert _solve_exact([({}, Fraction(0))], 3) == [Fraction(0)] * 3
    assert _solve_exact([({0: Fraction(0)}, Fraction(1))], 1) is None
    # x0 + x2 = 1, x2 = 3, column 1 free: the free variable is 0
    rows = [({0: Fraction(1), 2: Fraction(1)}, Fraction(1)),
            ({2: Fraction(1)}, Fraction(3))]
    assert _solve_exact(rows, 3) == [Fraction(-2), Fraction(0), Fraction(3)]


# -- the per-face ansatz assembly against the per-monomial one ----------------

def _solve_ansatz_reference(c, max_degree):
    """The ansatz system assembled with one transport per basis monomial, as
    `_solve_ansatz` built it before the per-face assembly."""
    cover, lb = c.cover, c.lb
    p = c.degree
    den_bound = max((e for vals in c.data.values() for v in vals
                     for e in v.den.values()), default=0) + abs(lb.twist)
    unknown_keys = list(itertools.combinations(cover.charts, p))
    columns = []
    basis = {}
    for J in unknown_keys:
        ctx = cover.ctx(J)
        den = {k: den_bound for k in ctx.unit_keys()} if den_bound else {}
        monos = [e for deg in range(max_degree + 1)
                 for e in itertools.combinations_with_replacement(
                     range(ctx.nvars), deg)]
        for e in monos:
            exps = [0] * ctx.nvars
            for i in e:
                exps[i] += 1
            exps = tuple(exps)
            base = LocElem(ctx, Poly.monomial(ctx.nvars, exps), dict(den),
                           normalize=False)
            basis[(J, exps)] = base
            for w in range(c.width):
                columns.append((J, w, exps))
    col_index = {col: i for i, col in enumerate(columns)}
    rows = []
    for key in itertools.combinations(cover.charts, p + 1):
        ctx = cover.ctx(key)
        target = c.get(key)
        contribs = {}
        for m in range(p + 1):
            face = key[:m] + key[m + 1:]
            sign = -1 if m % 2 else 1
            for (J, exps), base in basis.items():
                if J != face:
                    continue
                moved = transport(base, ctx)
                if m == p:
                    moved = moved * lb.h(key[-2], key[-1], ctx)
                moved = moved.scale(sign)
                for w in range(c.width):
                    contribs.setdefault(w, {})[(J, w, exps)] = moved
        for w in range(c.width):
            terms = contribs.get(w, {})
            everything = list(terms.values()) + [target[w]]
            common = {}
            for e in everything:
                for k, a in e.den.items():
                    common[k] = max(common.get(k, 0), a)
            poly_cols = {col: e.num_over(common) for col, e in terms.items()}
            rhs_poly = target[w].num_over(common)
            monos = set(rhs_poly.terms)
            for q in poly_cols.values():
                monos.update(q.terms)
            for mono in sorted(monos):
                coeffs = {}
                for col, q in poly_cols.items():
                    a = q.terms.get(mono)
                    if a:
                        coeffs[col_index[col]] = a
                rows.append((coeffs, rhs_poly.terms.get(mono, 0)))
    sol = _solve_exact(rows, len(columns))
    if sol is None:
        raise Inconclusive("reference ansatz found no solution")
    out = {}
    for i, (J, w, exps) in enumerate(columns):
        if not sol[i]:
            continue
        ctx = cover.ctx(J)
        vals = out.setdefault(J, [LocElem.zero(ctx)] * c.width)
        vals[w] = vals[w] + basis[(J, exps)].scale(sol[i])
    return {J: tuple(v) for J, v in out.items()}


def _ansatz_outcome(solve, c, max_degree):
    """Every solution value by its repr, or "Inconclusive"."""
    try:
        data = solve(c, max_degree)
    except Inconclusive:
        return "Inconclusive"
    return {J: [repr(v) for v in vals] for J, vals in data.items()}


def _assert_same_ansatz(c, max_degree):
    got = _ansatz_outcome(_solve_ansatz, c, max_degree)
    assert got == _ansatz_outcome(_solve_ansatz_reference, c, max_degree)
    return got


REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
INPUTS = REFS.parent / "inputs"


def _ref_bundle(name):
    return load_bundle(json.loads((REFS / f"{name}.json").read_text("utf-8")))


@pytest.mark.parametrize("ref, max_degree", [("two_points_unit.gf5", 5),
                                             ("two_points_unit.gf6", 6)])
def test_ansatz_assembly_matches_reference_on_obstructions(ref, max_degree):
    assert _assert_same_ansatz(_ref_bundle(ref).obstruction,
                               max_degree) != "Inconclusive"


def test_ansatz_assembly_matches_reference_when_inconclusive(monkeypatch):
    # the obstruction that the skew_unit build at --max-degree 4 fails on
    seen = []

    def capture(c, max_degree):
        seen.append(c)
        raise Inconclusive("captured")
    monkeypatch.setattr(serre, "coboundary_solve", capture)
    doc = json.loads((INPUTS / "skew_unit.json").read_text("utf-8"))
    with pytest.raises(Inconclusive):
        serre.build_bundle(doc, lift_order="gf", max_degree=4)
    assert _assert_same_ansatz(seen[0], 4) == "Inconclusive"


def test_ansatz_assembly_matches_reference_on_compare_xi():
    iso = serre.compare_bundles(_ref_bundle("two_points_unit"),
                                _ref_bundle("two_points_unit.gf5"))
    assert _assert_same_ansatz(iso.xi, 8) != "Inconclusive"


def _unit_elem(rng, ctx):
    """A random element with a term of degree <= 1 over units of `ctx`,
    section units likelier than coordinate units."""
    exps = [0] * ctx.nvars
    if rng.random() < 0.5:
        exps[rng.randrange(ctx.nvars)] = 1
    den = {key: 1 for key in ctx.unit_keys()
           if rng.random() < (0.6 if key.startswith("s") else 0.2)}
    return LocElem(ctx, Poly.monomial(ctx.nvars, exps, rng.randint(1, 3)),
                   den)


def _section_unit_text(rng, ctx, shares):
    """A chart polynomial for a section unit: c + x_k, or with `shares` one
    that shares a factor with a coordinate, where greedy section-unit
    cancellation could depend on the order of summation."""
    x = ctx.var_names()
    k, l = rng.randrange(ctx.nvars), rng.randrange(ctx.nvars)
    c = rng.choice((1, 2, -3))
    if not shares:
        return f"{c} + {x[k]}"
    return rng.choice((x[k], f"{x[k]}^2", f"{x[k]}*{x[l]}",
                       f"{x[k]}*({c} + {x[l]})"))


def test_ansatz_assembly_matches_reference_on_random_coboundaries():
    rng = random.Random(1017)
    outcomes = {}  # (units share a coordinate factor, inconclusive) -> count
    for trial in range(70):
        shares = trial >= 40
        n = 2 + trial % 2
        ambient = P(n)
        bare = Cover(ambient)
        units = []
        for chart in rng.sample(range(n + 1), rng.randint(1, 2)):
            ctx = bare.chart_ctx(chart)
            units.append(section_unit(ambient, chart, _poly(ctx, 
                _section_unit_text(rng, ctx, shares))))
        cover = _with_units(ambient, units)
        lb = LineBundleData(ambient, rng.randint(0, 1))
        degree = rng.randint(0, 1)
        width = rng.randint(1, 2)
        data = {key: tuple(_unit_elem(rng, cover.ctx(key))
                           for _ in range(width))
                for key in itertools.combinations(cover.charts, degree + 1)
                if rng.random() < 0.6}
        c = differential(CechCochain(cover, lb, degree, width, data))
        got = _assert_same_ansatz(c, rng.randint(0, 3))
        key = (shares, got == "Inconclusive")
        outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("name", sorted(
    p.stem for p in REFS.glob("*.json")
    if "error" not in json.loads(p.read_text("utf-8"))))
def test_differential_squares_to_zero_on_every_ref_cover(name):
    """d(d c) = 0 for seeded random degree-0 and degree-1 cochains on the
    cover of every bundle reference, section units included: the lemma by
    which `run_all` reads `obstruction_cocycle` off d xi = obs."""
    bundle = _ref_bundle(name)
    cover, lb, width = bundle.cover, bundle.raw.lb, bundle.raw.rank - 1
    rng = random.Random(2901)
    for degree in (0, 1):
        data = {key: tuple(_unit_elem(rng, cover.ctx(key))
                           for _ in range(width))
                for key in itertools.combinations(cover.charts, degree + 1)
                if rng.random() < 0.7}
        c = CechCochain(cover, lb, degree, width, data)
        assert not differential(c).is_zero()
        assert differential(differential(c)).is_zero()
