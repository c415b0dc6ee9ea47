from __future__ import annotations

import importlib.util
import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from serrekit import cover, ideals, serre
from serrekit.algebra import (Context, LocElem, Poly, SUnit, den_ratio,
                              divide, grevlex_key, lift_poly, parse_poly)
from serrekit.cli import main
from serrekit.errors import (NotCoprime, NotInIdeal, NotRegularPair,
                             PreconditionViolated)
from serrekit.ideals import (buchberger, ideal_equal, in_ideal, invert,
                             is_unit_ideal, koszul_divide, lift_pair,
                             member_with_lift, regular_pair, unit_certificate)


def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


def _ctx(indices, home=None, dim=2, sunits=()):
    indices = tuple(sorted(indices))
    return Context(dim, min(indices) if home is None else home,
                   indices, tuple(sunits))


def _loc(ctx, text, den=None):
    return LocElem(ctx, _poly(ctx, text), den or {})


def _rand_poly(rng, arity, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = [0] * arity
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(arity)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-3, 3))
    return Poly(arity, terms)


# -- polynomial-level Groebner ---------------------------------------------------


def test_buchberger_classic_example():
    # Classic textbook pair; in two variables graded-lex == grevlex, and the
    # reduced monic basis is {x^2, x*y, y^2 - x/2}.
    names = ("x", "y")
    f = parse_poly("x^3 - 2*x*y", names)
    g = parse_poly("x^2*y + x - 2*y^2", names)
    gb = buchberger([f, g], 2)
    lead_monos = {max(b.terms, key=gb.key) for b in gb.basis}
    assert {(2, 0), (1, 1), (0, 2)} <= lead_monos
    expected = {
        parse_poly("x^2", names),
        parse_poly("x*y", names),
        parse_poly("y^2 - 1/2*x", names),
    }
    assert expected <= set(gb.basis)


def test_buchberger_cofactor_rows_are_exact():
    rng = random.Random(3)
    for _ in range(40):
        gens = [_rand_poly(rng, 2) for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens, 2)
        for b, row in zip(gb.basis, gb.cofactors):
            acc = Poly.zero(2)
            for c, g in zip(row, gens):
                acc = acc + c * g
            assert acc == b


def test_reduce_with_cofactors_identity():
    rng = random.Random(17)
    for _ in range(40):
        gens = [_rand_poly(rng, 2) for _ in range(2)]
        gb = buchberger(gens, 2)
        p = _rand_poly(rng, 2)
        cof, rem = gb.reduce(p)
        acc = rem
        for c, g in zip(cof, gens):
            acc = acc + c * g
        assert acc == p


def test_membership_via_reduction():
    names = ("x", "y")
    gens = [parse_poly("x^2 + y", names), parse_poly("x*y - 1", names)]
    gb = buchberger(gens, 2)
    member = gens[0] * parse_poly("y^3 - x", names) + gens[1] * parse_poly("x + 7", names)
    assert gb.reduce(member)[1].is_zero()
    assert not gb.reduce(parse_poly("x", names))[1].is_zero()


def elim_key(nelim):
    """Block order eliminating the LAST `nelim` variables (graded per block)."""
    def key(exps):
        x, t = exps[:-nelim], exps[-nelim:]
        return (sum(t), tuple(-a for a in reversed(t)),
                sum(x), tuple(-a for a in reversed(x)))
    return key


def test_elim_key_is_elimination_order():
    key = elim_key(1)
    # any power of the last variable dominates anything without it
    assert key((0, 0, 1)) > key((5, 5, 0))


# -- localized membership -----------------------------------------------------------


def test_saturated_membership():
    ctx = _ctx((0, 1))  # unit x1 (= x1/x0)
    x1x2 = _loc(ctx, "x1*x2")
    x2 = _loc(ctx, "x2")
    assert in_ideal(x2, [x1x2])
    lift = member_with_lift(x2, [x1x2])
    assert lift is not None and lift[0] * x1x2 == x2
    # without the unit, no saturation happens
    plain = _ctx((0,))
    assert not in_ideal(_loc(plain, "x2"), [_loc(plain, "x1*x2")])


def test_member_with_lift_handles_denominators():
    ctx = _ctx((0, 1, 2))
    f = LocElem(ctx, _poly(ctx, "x1 + x2"), {"c1": 1})
    g = LocElem(ctx, _poly(ctx, "x2^2"), {"c2": 1})
    p = f * _loc(ctx, "x1 - 3") + g * LocElem(ctx, _poly(ctx, "1"), {"c1": 2})
    lift = member_with_lift(p, [f, g])
    assert lift is not None
    assert lift[0] * f + lift[1] * g == p


def test_invert():
    ctx = _ctx((0, 1))
    assert invert(_loc(ctx, "x1")) == LocElem(ctx, Poly.const(2, 1), {"c1": 1})
    assert invert(_loc(ctx, "x1 + 1")) is None
    assert invert(LocElem.zero(ctx)) is None
    e = LocElem(ctx, _poly(ctx, "3*x1^2"), {"c1": 1})  # = 3*x1, a unit
    assert e * invert(e) == LocElem.one(ctx)


def test_unit_certificate():
    ctx = _ctx((0, 1))
    u, v = unit_certificate(_loc(ctx, "x1"), _loc(ctx, "x2"))
    assert u * _loc(ctx, "x1") + v * _loc(ctx, "x2") == LocElem.one(ctx)
    with pytest.raises(NotCoprime):
        unit_certificate(_loc(ctx, "x2"), _loc(ctx, "x2^2"))


def test_lift_pair():
    ctx = _ctx((0,))
    f, g = _loc(ctx, "x1"), _loc(ctx, "x1 + x2")
    p = _loc(ctx, "x1^2 + x1*x2")  # x1*(x1+x2)
    a, b = lift_pair(p, f, g)
    assert a * f + b * g == p
    with pytest.raises(NotInIdeal):
        lift_pair(_loc(ctx, "1"), f, g)


def test_ideal_equal():
    ctx = _ctx((0,))
    a = [_loc(ctx, "x1"), _loc(ctx, "x2")]
    b = [_loc(ctx, "x1 + x2"), _loc(ctx, "x2")]
    assert ideal_equal(a, b)
    assert not ideal_equal(a, [_loc(ctx, "x1")])
    assert is_unit_ideal([_loc(ctx, "x1"), _loc(ctx, "x1 + 1")])


# -- Koszul division ------------------------------------------------------------------


def test_ideal_equal_answer_does_not_depend_on_generator_order():
    s_form = parse_poly("x1^2 + x0*x1", ("x0", "x1", "x2"))
    for ctx in (_ctx((0,)), _ctx((0, 1)),
                Context(2, 0, (0, 1), (SUnit(1, s_form, 2),))):
        f, g = _loc(ctx, "x1^2 - x2"), _loc(ctx, "x1*x2 + x2")
        h = _loc(ctx, "x2 - 1")
        cases = [([f, g], [g, f, f]), ([f, g], [f + h * g, g]),
                 ([f], [f, g]), ([f, h], [h, f - h * g]), ([g, h], [f])]
        answers = []
        for a, b in cases:
            # answered on an equal context with an empty memo
            fresh = Context(ctx.dim, ctx.home, ctx.indices, ctx.sunits)

            def move(gens):
                return [LocElem(fresh, x.num, x.den) for x in gens]
            answers.append(ideal_equal(move(a), move(b)))
            assert ideal_equal(a, b) is answers[-1]
        assert answers == [True, True, False, True, False]
        for (a, b), answer in zip(cases, answers):
            assert ideal_equal(a[::-1], b[::-1]) is answer
            assert ideal_equal(a[1:] + a[:1], b[::-1]) is answer


def test_koszul_divide_monomials():
    ctx = Context(3, 0, (0,))
    names = ctx.var_names()
    f = _loc(ctx, names[0])
    g = _loc(ctx, names[1])
    u = _loc(ctx, f"{names[1]}*{names[2]}")
    v = _loc(ctx, f"{names[0]}*{names[2]}")
    w = koszul_divide(u, v, f, g)
    assert w == _loc(ctx, names[2])


def test_koszul_divide_property():
    rng = random.Random(29)
    ctx = _ctx((0, 2), dim=2)
    f = _loc(ctx, "x1")
    g = _loc(ctx, "x2 + x1^2")
    for _ in range(30):
        w = LocElem(ctx, _rand_poly(rng, 2), {"c2": rng.randint(0, 1)})
        assert koszul_divide(w * g, w * f, f, g) == w


def test_koszul_divide_rejects_bad_input():
    ctx = _ctx((0,))
    f, g = _loc(ctx, "x1"), _loc(ctx, "x2")
    with pytest.raises(PreconditionViolated):
        koszul_divide(_loc(ctx, "1"), _loc(ctx, "1"), f, g)
    # x2*x1^2 == x1*(x1*x2), yet x2 is not divisible by x1*x2: the pair
    # (x1^2, x1*x2) shares a factor and is not regular.
    with pytest.raises(NotRegularPair):
        koszul_divide(_loc(ctx, "x2"), _loc(ctx, "x1"),
                      _loc(ctx, "x1^2"), _loc(ctx, "x1*x2"))


def test_koszul_divide_zero_cases():
    ctx = _ctx((0,))
    f, g = _loc(ctx, "x1"), _loc(ctx, "x2")
    zero = LocElem.zero(ctx)
    assert koszul_divide(zero, zero, f, g).is_zero()
    assert koszul_divide(zero, zero, zero, zero).is_zero()
    with pytest.raises(NotRegularPair):
        koszul_divide(_loc(ctx, "x2"), zero, zero, zero)
    # (f, 0): only u == 0 is consistent, witness from the f side
    w = koszul_divide(zero, f * _loc(ctx, "x2"), f, zero)
    assert w == _loc(ctx, "x2")


# -- regular pairs ----------------------------------------------------------------------


def test_regular_pair_basic():
    ctx = _ctx((0,))
    x1, x2 = _loc(ctx, "x1"), _loc(ctx, "x2")
    assert regular_pair(x1, x2)
    assert regular_pair(x2, x1)
    assert not regular_pair(x1, x1)
    assert not regular_pair(x1, _loc(ctx, "x1*x2"))
    assert not regular_pair(_loc(ctx, "x1*x2"), _loc(ctx, "x1 + x1*x2"))


def test_regular_pair_units_and_zeros():
    ctx = _ctx((0, 1))
    x1 = _loc(ctx, "x1")  # unit here
    assert regular_pair(x1, LocElem.zero(ctx))
    assert regular_pair(_loc(ctx, "1"), _loc(ctx, "x2"))
    assert not regular_pair(LocElem.zero(ctx), LocElem.zero(ctx))
    assert not regular_pair(_loc(ctx, "x2"), LocElem.zero(ctx))
    # comaximal non-units form a regular pair
    plain = _ctx((0,))
    assert regular_pair(_loc(plain, "x1"), _loc(plain, "1 - x1"))


def test_regular_pair_saturation_sensitive():
    # On U_0 cap U_1, x1 is a unit, so (x1*x2, x1*(x1 + x2)) behaves like
    # (x2, x1 + x2): regular.  On U_0 alone it is not regular.
    overlap = _ctx((0, 1))
    plain = _ctx((0,))
    assert regular_pair(_loc(overlap, "x1*x2"), _loc(overlap, "x1^2 + x1*x2"))
    assert not regular_pair(_loc(plain, "x1*x2"), _loc(plain, "x1^2 + x1*x2"))


# `regular_pair` reads the dimension of (f, g) off the saturated basis.  The
# colon-ideal test it replaced is kept here as a reference: (f, g) is regular
# when the saturated ((f) : g) lies in (f), the colon computed by intersecting
# with (g) in an elimination order.

def _T_free_reference(basis):
    """The elements of a k[x, T] basis that do not involve T, in k[x]."""
    return [Poly(b.arity - 1, {e[:-1]: c for e, c in b.terms.items()})
            for b in basis if all(e[-1] == 0 for e in b.terms)]


def _saturation_gens_reference(ctx, p):
    """Polynomial generators of ((p) : u^infinity) in k[x], via T-elimination."""
    if not ctx.unit_keys():
        return [p]
    _, rel = ideals._rabinowitsch(ctx)
    return _T_free_reference(buchberger([lift_poly(p), rel], ctx.nvars + 1,
                                        key=elim_key(1)).basis)


def _colon_principal_reference(gens, q, arity):
    """Generators of (gens) : (q) in k[x], q a nonzero polynomial."""
    t = Poly.variable(arity + 1, arity)
    one = Poly.const(arity + 1, 1)
    aux = [t * lift_poly(g) for g in gens]
    aux.append((one - t) * lift_poly(q))
    out = []
    for inter in _T_free_reference(buchberger(aux, arity + 1,
                                              key=elim_key(1)).basis):
        rem, (quo,) = divide(inter, (q,), (max(q.terms, key=grevlex_key),),
                             grevlex_key)
        assert rem.is_zero(), "intersection element not divisible by q"
        out.append(quo)
    return out


def _regular_pair_reference(f, g):
    ctx = f.ctx
    if f.is_zero() and g.is_zero():
        return False
    if is_unit_ideal([f]) or is_unit_ideal([g]):
        return True
    if f.is_zero() or g.is_zero():
        return False
    sat = _saturation_gens_reference(ctx, f.num)
    colon = _colon_principal_reference(sat, g.num, ctx.nvars)
    return all(in_ideal(LocElem(ctx, c), [f]) for c in colon)


def _random_pair(rng, ctx):
    """A pair on ctx: random elements (numerators of degree <= 2, random
    unit denominators), common-factor multiples f*h, g*h, zeros or units."""
    n, keys = ctx.nvars, ctx.unit_keys()

    def elem(deg=2):
        den = {k: rng.randint(0, 1) for k in keys}
        return LocElem(ctx, _rand_poly(rng, n, deg=deg,
                                       nterms=rng.randint(1, 3)), den)

    def unit():
        num = Poly.const(n, rng.choice([1, -2, Fraction(1, 3)]))
        for k in keys:
            num = num * ctx.unit_poly(k) ** rng.randint(0, 1)
        return LocElem(ctx, num)

    f, g = elem(), elem()
    kind = rng.choice(["random", "random", "factor", "zero", "unit"])
    if kind == "factor":
        h = elem(deg=1)
        f, g = f * h, g * h
    elif kind == "zero":
        f, g = rng.choice([(f, LocElem.zero(ctx)), (LocElem.zero(ctx), g),
                           (LocElem.zero(ctx), LocElem.zero(ctx))])
    elif kind == "unit":
        f, g = rng.choice([(unit(), g), (f, unit()), (unit(), LocElem.zero(ctx))])
    return f, g


_S_P2 = parse_poly("x1^2 + x0*x1", ("x0", "x1", "x2"))
_S_P3 = parse_poly("x1*x2 + x0*x3", ("x0", "x1", "x2", "x3"))
_PAIR_CONTEXTS = {
    "chart": [_ctx((0,)), _ctx((1,), dim=3), _ctx((2,), dim=4)],
    "overlap": [_ctx((0, 1)), _ctx((0, 2), dim=3), _ctx((1, 2, 3), dim=3),
                _ctx((0, 4), dim=4)],
    "sunit": [Context(2, 0, (0, 1), (SUnit(1, _S_P2, 2),)),
              Context(3, 0, (0,), (SUnit(0, _S_P3, 2),)),
              Context(3, 2, (1, 2), (SUnit(1, _S_P3, 2),))],
}


@pytest.mark.parametrize("kind", sorted(_PAIR_CONTEXTS))
def test_regular_pair_matches_colon_reference(kind):
    rng = random.Random(f"regular-pair-{kind}")
    seen = Counter()
    for _ in range(150):
        f, g = _random_pair(rng, rng.choice(_PAIR_CONTEXTS[kind]))
        answer = regular_pair(f, g)
        assert answer is _regular_pair_reference(f, g), (f, g)
        unit = not (f.is_zero() and g.is_zero()) and is_unit_ideal([f, g])
        seen[answer, unit] += 1
    # each outcome is drawn: unit ideal, proper regular, not regular
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 10


def test_regular_pair_matches_sympy_gcd():
    # On a chart with no units, k[x] is a UFD whose units are the nonzero
    # constants: (f, g) is regular iff gcd(f, g) is a nonzero constant.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(101)
    answers = []
    for _ in range(60):
        ctx = rng.choice(_PAIR_CONTEXTS["chart"])
        f, g = _random_pair(rng, ctx)
        syms = sympy.symbols(f"x0:{ctx.nvars}")
        gcd = sympy.gcd(_to_sympy(sympy, f.num, syms),
                        _to_sympy(sympy, g.num, syms))
        answers.append(regular_pair(f, g))
        assert answers[-1] is (not gcd.is_zero and gcd.is_ground), (f, g)
    assert 10 <= sum(answers) <= 50


# -- reference implementations of the Groebner loop ---------------------------
#
# `buchberger` takes each leading exponent once, divides on mutable term dicts
# and keeps its pairs in a heap.  These are the forms it replaced, kept as
# references: leading terms re-taken at every step, Poly-level division and a
# pair list stable-sorted on every iteration.


def _leading_reference(p, key):
    exps = max(p.terms, key=key)
    return exps, p.terms[exps]


def _divide_reference(p, basis, key):
    q = [Poly.zero(p.arity) for _ in basis]
    rem = Poly.zero(p.arity)
    r = p
    while not r.is_zero():
        re, rc = _leading_reference(r, key)
        hit = None
        for i, b in enumerate(basis):
            be, bc = _leading_reference(b, key)
            d = tuple(a - x for a, x in zip(re, be))
            if all(a >= 0 for a in d):
                hit = (i, d, Fraction(rc) / bc)
                break
        if hit is None:
            t = Poly.monomial(p.arity, re, rc)
            rem = rem + t
            r = r - t
        else:
            i, d, c = hit
            t = Poly.monomial(p.arity, d, c)
            q[i] = q[i] + t
            r = r - t * basis[i]
    return rem, q


def _buchberger_reference(gens, arity, key, divided):
    """(basis, cofactor rows), as `buchberger` builds them; each polynomial
    it divides is appended to `divided`, in order."""
    m = len(gens)
    basis = []
    rows = []

    def reduce_tracked(p, prow):
        divided.append(p)
        rem, q = _divide_reference(p, basis, key)
        row = list(prow)
        for qi, brow in zip(q, rows):
            if qi.is_zero():
                continue
            for j in range(m):
                if not brow[j].is_zero():
                    row[j] = row[j] - qi * brow[j]
        return rem, row

    def push(p, row):
        le, lc = _leading_reference(p, key)
        inv = Fraction(1) / lc
        basis.append(p.scale(inv))
        rows.append([r.scale(inv) for r in row])

    pairs = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        row = [Poly.zero(arity) for _ in range(m)]
        row[j] = Poly.const(arity, 1)
        rem, row = reduce_tracked(g, row)
        if rem.is_zero():
            continue
        k = len(basis)
        push(rem, row)
        for i in range(k):
            pairs.append((i, k))

    def lcm_exps(i, j):
        a, _ = _leading_reference(basis[i], key)
        b, _ = _leading_reference(basis[j], key)
        return tuple(max(x, y) for x, y in zip(a, b))

    while pairs:
        pairs.sort(key=lambda ij: key(lcm_exps(*ij)))
        i, j = pairs.pop(0)
        a, _ = _leading_reference(basis[i], key)
        b, _ = _leading_reference(basis[j], key)
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        if all(x + y == l for x, y, l in zip(a, b, lcm)):
            continue
        ta = Poly.monomial(arity, tuple(l - x for l, x in zip(lcm, a)), 1)
        tb = Poly.monomial(arity, tuple(l - x for l, x in zip(lcm, b)), 1)
        s = ta * basis[i] - tb * basis[j]
        srow = [ta * x - tb * y for x, y in zip(rows[i], rows[j])]
        rem, row = reduce_tracked(s, srow)
        if rem.is_zero():
            continue
        k = len(basis)
        push(rem, row)
        for t in range(k):
            pairs.append((t, k))

    return basis, rows


def _reduce_reference(p, basis, rows, m, key):
    """(cofactors over the m generators, remainder), as
    `GroebnerBasis.reduce` computes them."""
    rem, q = _divide_reference(p, basis, key)
    cof = [Poly.zero(p.arity) for _ in range(m)]
    for qi, row in zip(q, rows):
        if qi.is_zero():
            continue
        for j in range(m):
            if not row[j].is_zero():
                cof[j] = cof[j] + qi * row[j]
    return cof, rem


def _rabinowitsch_gens(rng, n):
    """Random generators in k[x] lifted to k[x, T], then 1 - T*u for u a
    random product of variables, perhaps times a binomial: the shape
    `_sat_gb` and `_saturation_gens_reference` hand to `buchberger`."""
    u = Poly.const(n, 1)
    for i in rng.sample(range(n), rng.randint(1, n)):
        u = u * Poly.variable(n, i)
    if rng.random() < 0.4:
        u = u * (Poly.variable(n, rng.randrange(n)) + Poly.const(n, 1))
    t = Poly.variable(n + 1, n)
    rel = Poly.const(n + 1, 1) - t * lift_poly(u)
    gens = [lift_poly(_rand_poly(rng, n, deg=3, nterms=rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))]
    return gens + [rel]


def _random_ideal(rng, shape):
    """(gens, arity) of one of the shapes `buchberger` sees."""
    if shape == "rabinowitsch":
        n = rng.randint(2, 3)
        return _rabinowitsch_gens(rng, n), n + 1
    n = rng.randint(2, 3)
    gens = [_rand_poly(rng, n, deg=3, nterms=rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))]
    return gens, n


@pytest.mark.parametrize("order", ["grevlex", "elim1"])
@pytest.mark.parametrize("shape", ["plain", "rabinowitsch"])
def test_buchberger_matches_reference(order, shape, monkeypatch):
    # Besides basis, rows and reductions, the polynomials divided must come
    # in the same order: pairs with equal lcms leave the queue in the order
    # they were formed, which the outputs alone seldom show.
    divided = []

    def logged(p, *args):
        divided.append(p)
        return divide(p, *args)

    monkeypatch.setattr(ideals, "divide", logged)
    key = grevlex_key if order == "grevlex" else elim_key(1)
    rng = random.Random(f"buchberger-{order}-{shape}")
    for _ in range(40):
        gens, arity = _random_ideal(rng, shape)
        divided.clear()
        gb = buchberger(gens, arity, key=None if order == "grevlex" else key)
        ref_divided = []
        basis, rows = _buchberger_reference(gens, arity, key, ref_divided)
        assert divided == ref_divided
        assert list(gb.basis) == basis
        assert [list(r) for r in gb.cofactors] == rows
        assert list(gb.leads) == [max(b.terms, key=key) for b in basis]
        for _ in range(3):
            p = _rand_poly(rng, arity, deg=4, nterms=4)
            if rng.random() < 0.5:
                p = p + gens[rng.randrange(len(gens))] * _rand_poly(rng, arity)
            assert gb.reduce(p) == _reduce_reference(p, basis, rows,
                                                     len(gens), key)


# -- sympy as an independent oracle ----------------------------------------------
#
# sympy is a test-only dependency; the library itself uses the standard
# library alone.


def _to_sympy(sympy, p, syms):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *syms, domain="QQ")


def _from_sympy(p, arity):
    return Poly(arity, {e: Fraction(int(c.p), int(c.q))
                        for e, c in p.as_dict().items()})


def _monic(p, key=grevlex_key):
    return p.scale(Fraction(1) / p.terms[max(p.terms, key=key)])


def _reduced_basis(basis, key):
    """The reduced Groebner basis spanned by a Groebner basis: keep one
    element per minimal leading monomial, then divide each one's tail by the
    others."""
    leads = [max(b.terms, key=key) for b in basis]
    keep = []
    for i, (b, le) in enumerate(zip(basis, leads)):
        if any(all(x <= y for x, y in zip(lo, le)) and (lo != le or j < i)
               for j, lo in enumerate(leads) if j != i):
            continue
        keep.append(_monic(b, key))
    return {_divide_reference(b, keep[:i] + keep[i + 1:], key)[0]
            for i, b in enumerate(keep)}


def _oracle_ideals():
    """The (gens, arity) inputs checked against sympy's Groebner bases."""
    rng = random.Random(89)
    for _ in range(30):
        gens, arity = _random_ideal(rng, rng.choice(["plain", "rabinowitsch"]))
        if not all(g.is_zero() for g in gens):
            yield gens, arity


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for gens, arity in _oracle_ideals():
        syms = sympy.symbols(f"x0:{arity}")
        ref = sympy.groebner([_to_sympy(sympy, g, syms).as_expr()
                              for g in gens if not g.is_zero()],
                             *syms, order="grevlex", domain="QQ")
        expected = {_monic(_from_sympy(p, arity)) for p in ref.polys}
        assert _reduced_basis(buchberger(gens, arity).basis,
                              grevlex_key) == expected


def test_buchberger_keeps_coefficients_stored():
    # every coefficient of basis and cofactor rows is an int, or a Fraction
    # with denominator > 1
    fractions = 0
    for gens, arity in _oracle_ideals():
        gb = buchberger(gens, arity)
        for p in list(gb.basis) + [c for row in gb.cofactors for c in row]:
            for c in p.terms.values():
                assert c and (type(c) is int or (type(c) is Fraction
                                                 and c.denominator > 1))
                fractions += type(c) is Fraction
    assert fractions > 0


def _units_product(ctx):
    u = Poly.const(ctx.nvars, 1)
    for k in ctx.unit_keys():
        u = u * ctx.unit_poly(k)
    return u


def test_member_with_lift_matches_sympy():
    sympy = pytest.importorskip("sympy")
    s_form = parse_poly("x1^2 + x0*x1", ("x0", "x1", "x2"))
    contexts = [_ctx((0,)), _ctx((0, 1)), _ctx((0, 1, 2)),
                Context(2, 0, (0, 1), (SUnit(1, s_form, 2),))]
    rng = random.Random(97)
    for _ in range(40):
        ctx = rng.choice(contexts)
        n = ctx.nvars
        keys = ctx.unit_keys()

        def elem():
            den = {k: rng.randint(0, 1) for k in keys}
            return LocElem(ctx, _rand_poly(rng, n), den)

        gens = [elem() for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()] or [LocElem.one(ctx)]
        p = elem()
        if rng.random() < 0.5:
            p = gens[0] * elem() + (gens[-1] * elem() if len(gens) > 1
                                    else LocElem.zero(ctx))
        # membership of p's numerator in (nums, 1 - T*u), T a new variable
        syms = sympy.symbols(f"x0:{n + 1}")
        u = _to_sympy(sympy, _units_product(ctx), syms[:n]).as_expr()
        ref = sympy.groebner([_to_sympy(sympy, g.num, syms[:n]).as_expr()
                              for g in gens] + [1 - syms[n] * u],
                             *syms, order="grevlex", domain="QQ")
        member = ref.contains(_to_sympy(sympy, p.num, syms[:n]).as_expr())
        lift = member_with_lift(p, gens)
        assert (lift is not None) == member == in_ideal(p, gens)
        if lift is not None:
            acc = LocElem.zero(ctx)
            for a, g in zip(lift, gens):
                acc = acc + a * g
            assert acc == p


# -- unique answers by exact division --------------------------------------------------
#
# `invert` and `koszul_divide` answer by one exact division (the lemma in the
# `ideals` module docstring).  The saturated-basis paths they replaced are
# kept here as references; each answer is unique and `LocElem`'s normal form
# is canonical on contexts with pairwise coprime units, so the two paths must
# give the same (num, den), not only equal values.


def reference_invert(e):
    """The inverse as a lift of 1 over the saturated basis of (e)."""
    if e.is_zero():
        return None
    lift = member_with_lift(LocElem.one(e.ctx), [e])
    return None if lift is None else lift[0]


def reference_koszul_divide(u, v, f, g):
    """The Koszul witness as a lift of u over (g), or of v over (f) when g
    is zero, each over a saturated basis."""
    ctx = u.ctx
    if u * f != v * g:
        raise PreconditionViolated("koszul_divide: u*f != v*g")
    if g.is_zero() and f.is_zero():
        if u.is_zero() and v.is_zero():
            return LocElem.zero(ctx)
        raise NotRegularPair("(0, 0) admits no Koszul witness")
    lift = member_with_lift(u, [g]) if not g.is_zero() else member_with_lift(
        v, [f])
    if lift is None:
        raise NotRegularPair("not divisible in the localized ring")
    w = lift[0]
    if w * g != u or w * f != v:
        raise NotRegularPair("Koszul witness failed exact verification")
    return w


def _form(e):
    """What a document prints of e, or None."""
    return None if e is None else (repr(e), e.num.terms, e.den)


def _outcome(fn, *args):
    """fn(*args) as its printed form, or the class of the SerreError it
    raised."""
    try:
        return _form(fn(*args))
    except (NotRegularPair, PreconditionViolated) as exc:
        return type(exc)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _corpus():
    spec = importlib.util.spec_from_file_location("corpus",
                                                  PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _argv(corpus, op):
    def ref(name):
        return str(PERFBENCH / "refs" / f"{name}.json")
    if op["op"] == "build":
        inp = corpus.REFERENCES[op["ref"]][0]
        return ["build", str(PERFBENCH / "inputs" / f"{inp}.json"),
                *op["args"]]
    if op["op"] == "verify":
        return ["verify", ref(op["ref"])]
    return ["compare", *map(ref, op["ref"]), *op["args"]]


@pytest.fixture(scope="module")
def corpus_calls():
    """Every context that one pass over the three benchmark workloads
    creates, and the arguments of every `invert`, `koszul_divide` and
    `extend_off_Y`'s `unit_certificate` call of that pass."""
    corpus = _corpus()
    contexts, calls = [], {"invert": [], "koszul_divide": [],
                           "unit_certificate": []}
    init = Context.__init__

    def record(self, *args):
        init(self, *args)
        contexts.append(self)

    def recorded(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Context, "__init__", record)
        m.setattr(serre, "invert", recorded("invert", serre.invert))
        m.setattr(serre, "koszul_divide",
                  recorded("koszul_divide", serre.koszul_divide))
        m.setattr(cover, "unit_certificate",
                  recorded("unit_certificate", cover.unit_certificate))
        for ops in corpus.WORKLOADS.values():
            for op in ops:
                with redirect_stdout(io.StringIO()), \
                        redirect_stderr(io.StringIO()):
                    assert main(_argv(corpus, op)) == op["exit"]
    return list(set(contexts)), calls


def test_invert_and_koszul_divide_match_the_references_on_the_corpus(
        corpus_calls):
    _, calls = corpus_calls
    assert len(calls["invert"]) >= 150 and len(calls["koszul_divide"]) >= 50
    for (e,) in calls["invert"]:
        assert _form(invert(e)) == _form(reference_invert(e)), e
    for args in calls["koszul_divide"]:
        assert (_outcome(koszul_divide, *args)
                == _outcome(reference_koszul_divide, *args)), args


def reference_unit_certificate(f, g):
    """(u, v) as a lift of 1 over the saturated basis of (f, g)."""
    lift = member_with_lift(LocElem.one(f.ctx), [f, g])
    if lift is None:
        raise NotCoprime("1 is not in the localized ideal (f, g)")
    return lift[0], lift[1]


def _certificate(f, g, fn=unit_certificate):
    """fn(f, g) as the printed forms of (u, v), or NotCoprime."""
    try:
        return tuple(map(_form, fn(f, g)))
    except NotCoprime as exc:
        return type(exc)


def test_unit_certificate_matches_the_reference_on_the_corpus(corpus_calls):
    _, calls = corpus_calls
    constant = [(f, g) for f, g in calls["unit_certificate"]
                if f.num.is_constant()]
    # 78 of the pass's 116 calls have a constant first member
    assert len(constant) >= 70 and len(calls["unit_certificate"]) > len(
        constant)
    for f, g in calls["unit_certificate"]:
        assert _certificate(f, g) == _certificate(
            f, g, reference_unit_certificate), (f, g)


# x1*(1 + x1) on chart 0 of P^2: a reducible section unit, so an element such
# as x1 is a unit although no whole unit polynomial divides it
_REDUCIBLE = Context(2, 0, (0,), (SUnit(
    0, parse_poly("x1*x0 + x1^2", ("x0", "x1", "x2")), 2),))


def _unit_part(rng, ctx):
    """A product of random powers of the unit polynomials and, when a
    section unit factors, of its factors x_k, times a nonzero constant."""
    n = ctx.nvars
    num = Poly.const(n, rng.choice([1, -2, Fraction(3, 2)]))
    for k in ctx.unit_keys():
        num = num * ctx.unit_poly(k) ** rng.randint(0, 2)
    if ctx is _REDUCIBLE:
        num = num * Poly.variable(n, 0) ** rng.randint(0, 2)
    return num


def _exact_division_cases(rng, ctx):
    """(e, (u, v, f, g)): a random element e, a unit or a unit times a
    random factor, and a Koszul quadruple that divides or does not."""
    n, keys = ctx.nvars, ctx.unit_keys()

    def elem(num):
        return LocElem(ctx, num, {k: rng.randint(0, 2) for k in keys})
    kind = rng.choice(["unit", "unit", "times", "random"])
    num = _rand_poly(rng, n, nterms=rng.randint(1, 3))
    if kind == "unit":
        num = _unit_part(rng, ctx)
    elif kind == "times":
        num = _unit_part(rng, ctx) * num
    e = elem(num)
    w = elem(_rand_poly(rng, n) * _unit_part(rng, ctx))
    f = elem(_rand_poly(rng, n, deg=1) * _unit_part(rng, ctx))
    g = elem(_rand_poly(rng, n, deg=1) * _unit_part(rng, ctx))
    if rng.random() < 0.7:
        quad = (w * g, w * f, f, g)
    else:   # f == g: u / g exists only when g's non-unit part divides u
        quad = (w, w, g, g)
    return e, quad


def test_exact_division_matches_the_references_on_random_elements(
        corpus_calls):
    contexts, _ = corpus_calls
    contexts = sorted(contexts, key=repr) + [_REDUCIBLE]
    assert any(ctx.sunits for ctx in contexts)
    rng = random.Random(18)
    seen = Counter()
    for ctx in contexts:
        for _ in range(3 if ctx is not _REDUCIBLE else 40):
            e, quad = _exact_division_cases(rng, ctx)
            inv = invert(e)
            assert _form(inv) == _form(reference_invert(e)), e
            if inv is not None:
                assert inv * e == LocElem.one(ctx)
            w = _outcome(koszul_divide, *quad)
            assert w == _outcome(reference_koszul_divide, *quad), quad
            seen[inv is None, w is NotRegularPair] += 1
    assert min(seen.values()) >= 10 and len(seen) == 4


def test_reducible_section_unit_inverts_its_factors():
    """x1 alone is a unit where x1*(1 + x1) is: exact division finds it,
    though no whole unit polynomial divides x1."""
    ctx = _REDUCIBLE
    for text in ("x1", "1 + x1", "2*x1^3 + 2*x1^2"):
        e = _loc(ctx, text)
        inv = invert(e)
        assert inv is not None and inv * e == LocElem.one(ctx)
        assert _form(inv) == _form(reference_invert(e))
    assert invert(_loc(ctx, "x2")) is None
    assert invert(_loc(ctx, "x1*x2")) is None


def test_zero_lifts_and_constant_generators_build_no_basis(monkeypatch):
    built = []
    real = ideals.buchberger

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(ideals, "buchberger", counted)
    for ctx in (_ctx((0,)), _ctx((0, 1)), _REDUCIBLE):
        f, g = _loc(ctx, "x1^2 - x2"), _loc(ctx, "x1*x2 + x2")
        zero = LocElem.zero(ctx)
        lift = member_with_lift(zero, [f, g])
        assert [(a.num, a.den) for a in lift] == [(zero.num, {})] * 2
        three = LocElem(ctx, Poly.const(ctx.nvars, 3), {ctx.unit_keys()[0]: 1}
                        if ctx.unit_keys() else {})
        assert is_unit_ideal([f, three, g])
        assert invert(_loc(ctx, "x1 + 2*x2^2")) is None
    assert not built
    ctx = _ctx((0,))
    assert not is_unit_ideal([_loc(ctx, "x1^2 - x2"), _loc(ctx, "x1*x2")])
    assert built


def test_constant_first_member_certificate_matches_the_reference(
        corpus_calls, monkeypatch):
    """(1/f, 0) for a nonzero constant numerator over random units, against
    any g, on every context of the pass; it builds no basis."""
    contexts, _ = corpus_calls
    rng = random.Random(28)
    cases = []
    for ctx in sorted(contexts, key=repr) + [_REDUCIBLE]:
        keys = ctx.unit_keys()
        for _ in range(2):
            c = Poly.const(ctx.nvars, rng.choice([1, -2, Fraction(3, 2)]))
            f = LocElem(ctx, c, {k: rng.randint(0, 2) for k in keys})
            g = (LocElem.zero(ctx) if rng.random() < 0.3 else LocElem(
                ctx, _rand_poly(rng, ctx.nvars) * _unit_part(rng, ctx),
                {k: rng.randint(0, 2) for k in keys}))
            cases.append((f, g))
    built = []
    real = ideals.buchberger

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(ideals, "buchberger", counted)
    answers = [_certificate(f, g) for f, g in cases]
    assert not built
    for (f, g), answer in zip(cases, answers):
        assert answer == _certificate(f, g, reference_unit_certificate), (f, g)
        u, v = unit_certificate(f, g)
        assert v.is_zero() and u * f == LocElem.one(f.ctx)


def _divides(a, b):
    """Does the polynomial a divide b in k[x]?"""
    rem, _ = divide(b, (a,), (max(a.terms, key=grevlex_key),), grevlex_key)
    return rem.is_zero()


def test_diagonal_lifts_are_the_groebner_lifts():
    """The two diagonal rows of `cover.extend_off_Y`'s A_ij: a multiple c*g
    of g with g's numerator lifts over [f, g] to (0, c) when f's numerator
    does not divide g's, and a multiple c*f of f lifts to (c, 0); when f
    divides g, c*g lifts through f alone.  Random numerators and units over
    contexts with coordinate units, with section units (one reducible)
    and with denominators."""
    rng = random.Random(30)
    contexts = [ctx for kind in sorted(_PAIR_CONTEXTS)
                for ctx in _PAIR_CONTEXTS[kind]] + [_REDUCIBLE]
    seen = Counter()
    for ctx in contexts:
        n, keys = ctx.nvars, ctx.unit_keys()

        def elem(num):
            return LocElem(ctx, num, {k: rng.randint(0, 2) for k in keys})

        def multiple(e):
            """(c, c*e) with c a constant over random units, the product
            written with e's numerator."""
            lam = rng.choice([1, -2, Fraction(3, 2)])
            p = elem(e.num.scale(lam))
            c = LocElem(ctx, Poly.const(n, lam)).times_units(den_ratio(e, p))
            return (c, p) if p.num == e.num.scale(lam) else (None, None)

        for _ in range(60):
            f = elem(_rand_poly(rng, n, nterms=rng.randint(1, 3)))
            g = elem(_rand_poly(rng, n, nterms=rng.randint(1, 3)))
            if rng.random() < 0.3:
                g = elem(f.num * _rand_poly(rng, n, deg=1))
            if f.is_zero() or g.is_zero():
                continue
            zero = LocElem.zero(ctx)
            c, cf = multiple(f)
            if c is not None:
                assert [_form(a) for a in member_with_lift(cf, [f, g])] == [
                    _form(c), _form(zero)], (f, g, cf)
                seen["c*f"] += 1
            c, cg = multiple(g)
            if c is None:
                continue
            lift = member_with_lift(cg, [f, g])
            if _divides(f.num, g.num):
                assert not lift[0].is_zero() and lift[1].is_zero(), (f, g)
                seen["f | g"] += 1
            else:
                assert [_form(a) for a in lift] == [_form(zero), _form(c)], (
                    f, g, cg)
                seen["f !| g"] += 1
    assert min(seen.values()) >= 200 and len(seen) == 3, seen
