from __future__ import annotations

import random
from fractions import Fraction

import pytest

from serrekit.algebra import Context, LocElem, Poly, parse_poly
from serrekit.errors import (NotCoprime, NotInIdeal, NotRegularPair,
                             PreconditionViolated)
from serrekit.ideals import (buchberger, elim_key, ideal_equal, in_ideal,
                             invert, is_unit_ideal, koszul_divide, lift_pair,
                             member_with_lift, regular_pair,
                             unit_certificate)


def _ctx(indices, home=None, dim=2, sunits=()):
    indices = tuple(sorted(indices))
    return Context("projective", dim, min(indices) if home is None else home,
                   indices, tuple(sunits))


def _loc(ctx, text, den=None):
    return LocElem(ctx, ctx.parse(text), den or {})


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
    f = LocElem(ctx, ctx.parse("x1 + x2"), {"c1": 1})
    g = LocElem(ctx, ctx.parse("x2^2"), {"c2": 1})
    p = f * _loc(ctx, "x1 - 3") + g * LocElem(ctx, ctx.parse("1"), {"c1": 2})
    lift = member_with_lift(p, [f, g])
    assert lift is not None
    assert lift[0] * f + lift[1] * g == p


def test_invert():
    ctx = _ctx((0, 1))
    assert invert(_loc(ctx, "x1")) == LocElem(ctx, Poly.const(2, 1), {"c1": 1})
    assert invert(_loc(ctx, "x1 + 1")) is None
    assert invert(LocElem.zero(ctx)) is None
    e = LocElem(ctx, ctx.parse("3*x1^2"), {"c1": 1})  # = 3*x1, a unit
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


def test_koszul_divide_monomials():
    ctx = Context("affine", 3, 0, (0,))
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
