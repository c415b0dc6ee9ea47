"""End-to-end acceptance suite.

One test per acceptance criterion, in order.  Each prints a single
pass/fail line (run with -s to see them on success) and enforces its own
wall-clock budget.  Every assertion is exact — rational arithmetic
throughout, tolerance zero.
"""

import functools
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from serrekit.algebra import LocElem, MatrixL, Poly, parse_poly
from serrekit.cech import (CechCochain, coboundary_solve, cohomology_dim,
                           differential)
from serrekit.cli import load_bundle, main
from serrekit.cover import AmbientSpec, Cover, LineBundleData
from serrekit.errors import Obstructed
from serrekit.ideals import koszul_divide, lift_pair
from serrekit.serre import build_bundle, compare_bundles


def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


CI_LINE = {
    "ambient": {"kind": "projective", "dim": 3},
    "line_bundle": {"twist": 2},
    "rank": 2,
    "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
    "sections": {"2": ["1"], "3": ["1"]},
}

POINT = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 1},
    "rank": 2,
    "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
    "sections": {"2": ["1"]},
}

SKEW_LINES = {
    "ambient": {"kind": "projective", "dim": 3},
    "line_bundle": {"twist": 2},
    "rank": 2,
    "subscheme": {"mode": "charts", "pairs": {
        "0": ["x2", "x3"], "1": ["x2", "x3"],
        "2": ["x0", "x1"], "3": ["x0", "x1"],
    }},
    "sections": {"0": ["1"], "1": ["1"], "2": ["1"], "3": ["1"]},
}

TWO_POINTS = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 1},
    "rank": 3,
    "subscheme": {"mode": "charts", "pairs": {
        "0": ["x1", "x2"], "1": ["x0", "x2"],
    }},
    "sections": {"0": ["1", "0"], "1": ["0", "1"]},
}


def criterion(num, label, budget):
    """Wrap a test so it reports one verdict line and a time budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL  {label}")
                raise
            elapsed = time.monotonic() - start
            if elapsed >= budget:
                print(f"criterion {num}: FAIL  {label} "
                      f"(budget {budget}s, took {elapsed:.2f}s)")
                raise AssertionError(f"criterion {num} over time budget")
            print(f"criterion {num}: PASS  {label} ({elapsed:.2f}s)")
        return wrapper
    return deco


def write_doc(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def elem_doc(e):
    return {"num": e.ctx.format(e.num), "den": {k: e.den[k] for k in sorted(e.den)}}


def mat_doc(A):
    rows, cols = A.shape
    return [[elem_doc(A[i, j]) for j in range(cols)] for i in range(rows)]


def rand_elem(ctx, rng, deg=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5))
    num = Poly(ctx.nvars, terms)
    den = {}
    keys = ctx.unit_keys()
    if keys and rng.random() < 0.5:
        den[rng.choice(keys)] = rng.randint(1, 2)
    return LocElem(ctx, num, den)


@criterion(1, "split oracle: line in P3 against hand-built diagonal "
              "transitions", 10)
def test_criterion_1(tmp_path, capsys):
    src = write_doc(tmp_path, CI_LINE, "line.json")
    out_a = tmp_path / "a.json"
    assert main(["build", str(src), "-o", str(out_a)]) == 0
    bundle = load_bundle(json.loads(out_a.read_text(encoding="utf-8")))
    cover, lb = bundle.cover, bundle.raw.lb
    # The comparand realizes the direct sum of two twist-1 bundles: diagonal
    # monomial transitions conjugated by constant-determinant chart frames
    # that carry the split model's generating section onto (f, g).
    ratio = LineBundleData(cover.ambient, 1)

    def chart_mat(i, rows):
        ctx = cover.chart_ctx(i)
        return MatrixL(ctx, [[LocElem(ctx, _poly(ctx, t)) for t in row]
                             for row in rows])

    C = {0: chart_mat(0, [["1", "0"], ["x1", "-1"]]),
         1: chart_mat(1, [["0", "1"], ["1", "-x0"]]),
         2: chart_mat(2, [["1", "0"], ["0", "-1"]]),
         3: chart_mat(3, [["1", "0"], ["0", "-1"]])}
    Cinv = {0: chart_mat(0, [["1", "0"], ["x1", "-1"]]),
            1: chart_mat(1, [["x0", "1"], ["1", "0"]]),
            2: chart_mat(2, [["1", "0"], ["0", "-1"]]),
            3: chart_mat(3, [["1", "0"], ["0", "-1"]])}
    for i in cover.charts:
        assert C[i] @ Cinv[i] == MatrixL.identity(cover.chart_ctx(i), 2)

    doc_hand = json.loads(out_a.read_text(encoding="utf-8"))
    for (i, j) in bundle.transitions.pairs:
        ctx = cover.ctx((i, j))
        Zh = (C[i].transport_to(ctx) @ Cinv[j].transport_to(ctx)
              ).scalar_mul(ratio.h(i, j, ctx))
        fr_i, fr_j = bundle.frames[i], bundle.frames[j]
        from serrekit.algebra import transport
        got = Zh.matvec((transport(fr_j.f, ctx), transport(fr_j.g, ctx)))
        assert got == (transport(fr_i.f, ctx), transport(fr_i.g, ctx))
        assert Zh.det() == lb.h(i, j, ctx)
        doc_hand["overlaps"][f"{i},{j}"]["raw"] = mat_doc(Zh)
        doc_hand["overlaps"][f"{i},{j}"]["corrected"] = mat_doc(Zh)
    doc_hand["obstruction"] = []
    doc_hand["correction"] = []
    out_b = tmp_path / "b.json"
    out_b.write_text(json.dumps(doc_hand), encoding="utf-8")

    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    capsys.readouterr()
    iso = compare_bundles(bundle, load_bundle(doc_hand))
    for i in cover.charts:
        ctx = cover.chart_ctx(i)
        assert iso.N[i].det() == LocElem.one(ctx)


@criterion(2, "off-locus machinery: single point in P2", 10)
def test_criterion_2(tmp_path, capsys):
    src = write_doc(tmp_path, POINT, "point.json")
    out = tmp_path / "bundle.json"
    assert main(["build", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert entries and all(e["passed"] for e in entries)
    bundle = load_bundle(json.loads(out.read_text(encoding="utf-8")))
    assert {i: fr.meets for i, fr in bundle.frames.items()} == {
        0: False, 1: False, 2: True}
    # every overlap avoids the point, so each one went through the
    # certificate-product construction and both canonical-pair directions
    assert all(bundle.raw.empty[p] for p in bundle.transitions.pairs)
    glue_scopes = {e["scope"] for e in entries
                   if e["check"].startswith("glue_")}
    assert any("(0, 1)" in s for s in glue_scopes)
    assert any("(0, 2)" in s for s in glue_scopes)
    assert any("(1, 2)" in s for s in glue_scopes)


@criterion(3, "non-split instance: two skew lines in P3", 60)
def test_criterion_3(tmp_path, capsys):
    src = write_doc(tmp_path, SKEW_LINES, "skew.json")
    out = tmp_path / "bundle.json"
    assert main(["build", str(src), "-o", str(out)]) == 0
    for q in (1, 2):
        capsys.readouterr()
        assert main(["cohomology", "--ambient", "P3", "--twist", "-2",
                     "--degree", str(q)]) == 0
        assert capsys.readouterr().out.strip() == "0"
    bundle = load_bundle(json.loads(out.read_text(encoding="utf-8")))
    Z = bundle.transitions
    triples = list(itertools.combinations(bundle.cover.charts, 3))
    assert len(triples) == 4
    for (i, j, k) in triples:
        ctx = bundle.cover.ctx((i, j, k))
        lhs = Z.get(i, k).transport_to(ctx)
        rhs = Z.get(i, j).transport_to(ctx) @ Z.get(j, k).transport_to(ctx)
        assert lhs == rhs


@criterion(4, "heterogeneous pivots and signs: two points in P2, rank 3", 60)
def test_criterion_4(tmp_path, capsys):
    src = write_doc(tmp_path, TWO_POINTS, "pts.json")
    out = tmp_path / "bundle.json"
    assert main(["build", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert entries and all(e["passed"] for e in entries)
    names = {e["check"] for e in entries}
    assert {"section_relation", "dependency_locus", "glue_row_transform_S",
            "glue_selector_R", "glue_row_transform_Z",
            "glue_row_kills_defect", "defect_shape"} <= names
    bundle = load_bundle(json.loads(out.read_text(encoding="utf-8")))
    assert {bundle.frames[i].t for i in (0, 1)} == {1, 2}
    assert {bundle.frames[i].sign for i in (0, 1)} == {-1, 1}


def _rank(rows, ncols):
    """Row rank by fraction-exact Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank, col = 0, 0
    while rank < len(mat) and col < ncols:
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col] / lead
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def _monomial_cohomology(n, negatives):
    """Exact cohomology of one multidegree component of the cover complex.

    A Laurent monomial is regular on the overlap indexed by J exactly when
    every chart with a negative exponent lies in J; the component is then the
    simplicial cochain complex on those index sets, with no twist left after
    passing to the invariant form.  Dimensions come from plain rank
    computations, not from any closed formula.
    """
    neg = frozenset(negatives)
    basis = {q: [J for J in itertools.combinations(range(n + 1), q + 1)
                 if neg <= set(J)] for q in range(n + 1)}
    ranks = {}
    for q in range(n):
        cols = {J: idx for idx, J in enumerate(basis[q])}
        rows = []
        for K in basis[q + 1]:
            row = [Fraction(0)] * len(cols)
            for pos in range(len(K)):
                J = K[:pos] + K[pos + 1:]
                if J in cols:
                    row[cols[J]] = Fraction(-1 if pos % 2 else 1)
            rows.append(row)
        ranks[q] = _rank(rows, len(cols)) if cols else 0
    dims = []
    for q in range(n + 1):
        dims.append(len(basis[q]) - ranks.get(q, 0) - ranks.get(q - 1, 0))
    return tuple(dims)


@criterion(5, "cohomology dimensions against brute-force Laurent "
              "enumeration with rank-computed components", 30)
def test_criterion_5():
    for n in (1, 2, 3):
        by_pattern = {}
        counts = {(m, q): 0 for m in range(-6, 7) for q in range(n + 2)}
        for alpha in itertools.product(range(-9, 8), repeat=n + 1):
            m = sum(alpha)
            if not -6 <= m <= 6:
                continue
            pattern = frozenset(k for k, a in enumerate(alpha) if a < 0)
            if pattern not in by_pattern:
                by_pattern[pattern] = _monomial_cohomology(n, pattern)
            for q, d in enumerate(by_pattern[pattern]):
                counts[(m, q)] += d
        ambient = AmbientSpec(n)
        for m in range(-6, 7):
            for q in range(n + 2):
                assert cohomology_dim(ambient, m, q) == counts[(m, q)], \
                    (n, m, q)


@criterion(6, "obstruction detection and exact coboundary solving", 10)
def test_criterion_6(tmp_path, capsys):
    # the inverse-cube class: only candidate multidegree for the plane's
    # twist -3 top cohomology
    ambient = AmbientSpec(2)
    cover = Cover(ambient)
    lb = LineBundleData(ambient, 3)
    ctx = cover.ctx((0, 1, 2))
    v = LocElem(ctx, _poly(ctx, "x2^2"), {"c1": 1})
    c = CechCochain(cover, lb, 2, 1, {(0, 1, 2): (v,)})
    with pytest.raises(Obstructed) as exc:
        coboundary_solve(c)
    assert exc.value.multidegree == (-1, -1, -1)
    assert exc.value.component == 1

    rng = random.Random(77)
    for twist in (0, 1, 3, -2):
        lbr = LineBundleData(ambient, twist)
        for _ in range(3):
            data = {}
            for key in itertools.combinations(cover.charts, 2):
                kctx = cover.ctx(key)
                data[key] = (rand_elem(kctx, rng),)
            chi = CechCochain(cover, lbr, 1, 1, data)
            target = differential(chi)
            xi = coboundary_solve(target)
            assert differential(xi) == target

    doc = dict(POINT, line_bundle={"twist": 3})
    src = write_doc(tmp_path, doc, "obstructed.json")
    capsys.readouterr()
    assert main(["build", str(src)]) == 2
    payload = json.loads(capsys.readouterr().out)["error"]
    assert payload["multidegree"] == [-1, -1, -1]
    assert payload["witness"]["sections"]


def _tprime_reference(fr):
    """T' of a frame from its definition: the (r-1) x (r-1) identity whose
    pivot column carries -sign s_m in every row m != t."""
    ctx, t = fr.f.ctx, fr.t
    n = len(fr.s)
    one, zero = LocElem.one(ctx), LocElem.zero(ctx)
    rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
    for m in range(n):
        if m != t - 1:
            rows[m][t - 1] = fr.s[m].scale(-fr.sign)
    return MatrixL(ctx, rows)


@criterion(7, "property suites: frame inverse, differential squares to "
              "zero, lift round-trips, self-compare", 60)
def test_criterion_7():
    bundle = build_bundle(TWO_POINTS)
    rng = random.Random(901)
    charts = bundle.cover.charts
    for trial in range(110):
        fr = bundle.frames[charts[trial % len(charts)]]
        ctx = fr.f.ctx
        u = tuple(rand_elem(ctx, rng) for _ in range(2))
        assert _tprime_reference(fr).matvec(fr.apply(u, ctx,
                                                     inverse=True)) == u

    ambient = AmbientSpec(2)
    cover = Cover(ambient)
    lb = LineBundleData(ambient, 2)
    for degree in (0, 1):
        for trial in range(100):
            data = {}
            for key in itertools.combinations(cover.charts, degree + 1):
                if rng.random() < 0.7:
                    kctx = cover.ctx(key)
                    data[key] = tuple(rand_elem(kctx, rng) for _ in range(2))
            c = CechCochain(cover, lb, degree, 2, data)
            dd = differential(differential(c))
            assert dd.is_zero()

    ctx = cover.chart_ctx(2)
    pairs = [(LocElem(ctx, _poly(ctx, "x0")), LocElem(ctx, _poly(ctx, "x1"))),
             (LocElem(ctx, _poly(ctx, "x0^2 - x1")),
              LocElem(ctx, _poly(ctx, "x0*x1 - 1")))]
    done = 0
    for f, g in pairs:
        for _ in range(55):
            a = rand_elem(ctx, rng)
            b = rand_elem(ctx, rng)
            p = a * f + b * g
            u, v = lift_pair(p, f, g)
            assert u * f + v * g == p
            w = rand_elem(ctx, rng)
            assert koszul_divide(w * g, w * f, f, g) == w
            done += 1
    assert done >= 100

    a = build_bundle(CI_LINE)
    b = build_bundle(CI_LINE)
    iso = compare_bundles(a, b)
    for i in a.cover.charts:
        assert iso.N[i] == MatrixL.identity(a.cover.chart_ctx(i), 2)


@criterion(8, "lift-independence: permuted cofactor order still compares "
              "isomorphic", 30)
def test_criterion_8(tmp_path, capsys):
    src = write_doc(tmp_path, CI_LINE, "line.json")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["build", str(src), "-o", str(out_a)]) == 0
    assert main(["build", str(src), "--lift-order", "gf",
                 "-o", str(out_b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out_a), str(out_b)]) == 0
    capsys.readouterr()
    a = load_bundle(json.loads(out_a.read_text(encoding="utf-8")))
    b = load_bundle(json.loads(out_b.read_text(encoding="utf-8")))
    iso = compare_bundles(a, b)
    for i in a.cover.charts:
        assert iso.N[i].det() == LocElem.one(a.cover.chart_ctx(i))
