from __future__ import annotations

import gc
import importlib.util
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest

from serrekit.algebra import (
    MAX_POWER, MAX_TERMS, MAX_WORK, Context, at_zero, LocElem, MatrixL, Poly, SUnit, divide,
    dot, format_poly, from_laurent, grevlex_key, homogenize, dehomogenize,
    lift_poly, parse_poly, qdiv, split_last, to_laurent, transport,
)
from serrekit.cli import load_bundle, main
from serrekit.cover import AmbientSpec, LineBundleData
from serrekit.errors import PreconditionViolated
from serrekit.ideals import in_ideal


def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


def _ctx(indices, home=None, dim=3, sunits=()):
    indices = tuple(sorted(indices))
    return Context(dim, min(indices) if home is None else home,
                   indices, tuple(sunits))


def _rand_poly(rng, arity, deg=2, nterms=3):
    terms = {}
    for _ in range(nterms):
        e = [0] * arity
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(arity)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(arity, terms)


def _evaluate(p, point):
    """Value of the polynomial p at a rational point of its arity."""
    assert len(point) == p.arity
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def _eval_loc(e, hom_point):
    """Independent oracle: value of a localized element at a rational point
    of P^n with all homogeneous coordinates nonzero."""
    h = e.ctx.home
    chart = [Fraction(hom_point[k]) / Fraction(hom_point[h])
             for k in e.ctx.axes()]
    den = _evaluate(e.den_poly(), chart)
    assert den != 0
    return _evaluate(e.num, chart) / den


# -- polynomials ---------------------------------------------------------------


def test_poly_basic_identities():
    names = ("x", "y")
    x = parse_poly("x", names)
    y = parse_poly("y", names)
    assert (x + y) + (x - y) == 2 * x
    assert (x + 1 * Poly.const(2, 1)) * (x - Poly.const(2, 1)) == x * x - Poly.const(2, 1)
    assert parse_poly("(x + y)^2", names) == x * x + 2 * x * y + y * y
    assert parse_poly("0", names).is_zero()
    assert parse_poly("3/2*x - x", names) == parse_poly("1/2*x", names)


@pytest.mark.parametrize("text, char", [("x0^\u0662", "\u0662"),
                                        ("\u0663*x1", "\u0663"),
                                        ("x0^\u00b2", "\u00b2")],
                         ids=["arabic-indic-power", "arabic-indic-factor",
                              "superscript"])
def test_parse_poly_reads_ascii_digits_only(text, char):
    """A digit of another script is no integer literal, whatever int()
    would make of it."""
    with pytest.raises(ValueError) as err:
        parse_poly(text, ("x0", "x1"))
    assert str(err.value) == f"unexpected character {char!r} in polynomial"


@pytest.mark.parametrize("value", [0, 1, -2, Fraction(3, 1), Fraction(1, 2)])
def test_trusted_poly_constructors_match_the_checking_one(value):
    def same(p, q):
        assert p.terms == q.terms and repr(p) == repr(q)
        assert [type(c) for c in p.terms.values()] == [
            type(c) for c in q.terms.values()]
    same(Poly.const(3, value), Poly(3, {(0, 0, 0): value}))
    same(Poly.monomial(3, [2, 0, 1], value), Poly(3, {(2, 0, 1): value}))
    same(Poly.monomial(3, (0, 1, 0)), Poly(3, {(0, 1, 0): 1}))
    same(Poly.variable(3, 2), Poly(3, {(0, 0, 1): 1}))
    with pytest.raises(ValueError):
        Poly.monomial(3, (1, 0), value)


@pytest.mark.parametrize("text, ok", [
    ("x0^32", True), ("(x0 + x1)^16", True), ("(x0*x1 + 1)^16", True),
    ("2^32", True), ("x0^33", False), ("2^33", False), ("0^40", False),
    ("(x0*x2 - x1)^17", False), ("(x0*x1 + 1)^17", False),
    ("(x0+x1+x2)^100", False)])
def test_parse_poly_bounds_powers_before_expanding(monkeypatch, text, ok):
    """A power past MAX_POWER in its exponent or its degree is rejected
    before `Poly.__pow__` runs."""
    assert MAX_POWER == 32
    calls = []
    power = Poly.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)
    monkeypatch.setattr(Poly, "__pow__", counted)
    names = ("x0", "x1", "x2")
    if ok:
        assert parse_poly(text, names).total_degree() <= MAX_POWER
        assert len(calls) == 1
    else:
        with pytest.raises(ValueError, match="exceeds the bound 32"):
            parse_poly(text, names)
        assert calls == []


def _sum_of(count):
    return "(" + "+".join(f"x{k}" for k in range(count)) + ")"


@pytest.mark.parametrize("text, ok", [
    (_sum_of(12) + "^8", False),
    (_sum_of(17) + "^32", False),
    ("*".join([_sum_of(4) + "^8"] * 4), False),
    (_sum_of(4) + "^8*" + _sum_of(4) + "^2", True),
    ("(x0*x1 + 1)^16", True),
], ids=["12-variables", "17-variables", "four-factors", "165x10-product",
        "561-monomials"])
def test_parse_poly_bounds_terms_before_expanding(monkeypatch, text, ok):
    """A power whose monomial count C(v + deg·n, v), or a product whose
    term pairs, exceed MAX_TERMS is rejected before `Poly.__mul__` is
    called past the bound; the sizes below it still parse."""
    assert MAX_TERMS == 2000
    pairs = []
    mul = Poly.__mul__

    def counted(self, other):
        if isinstance(other, Poly):
            pairs.append(len(self.terms) * len(other.terms))
        return mul(self, other)
    monkeypatch.setattr(Poly, "__mul__", counted)
    names = tuple(f"x{k}" for k in range(17))
    if ok:
        parse_poly(text, names)
    else:
        with pytest.raises(ValueError, match=f"{MAX_TERMS}"):
            parse_poly(text, names)
        assert max(pairs, default=0) <= MAX_TERMS


@pytest.mark.parametrize("copies", [4, 5])
def test_parse_poly_bounds_total_expansion(monkeypatch, copies):
    """Each copy of (1+x0+x1+x2)^20 counts its C(23, 3) = 1771 monomials
    against MAX_WORK for the whole text: four copies parse, and five are
    refused before the fifth power is expanded."""
    assert MAX_WORK == 4 * MAX_TERMS == 8000
    powers = []
    power = Poly.__pow__

    def counted(self, n):
        powers.append(n)
        return power(self, n)
    monkeypatch.setattr(Poly, "__pow__", counted)
    text = "+".join(["(1+x0+x1+x2)^20"] * copies)
    if copies == 4:
        assert len(parse_poly(text, ("x0", "x1", "x2")).terms) == 1771
    else:
        with pytest.raises(ValueError, match="exceeds the bound 8000"):
            parse_poly(text, ("x0", "x1", "x2"))
    assert len(powers) == 4


def test_parse_poly_leaves_no_reference_cycle():
    """With the cyclic collector off, as `cli.main` runs it, a parse must
    leave nothing that only the collector could free."""
    gc.collect()
    gc.disable()
    try:
        parse_poly("-(x0 + 1/2*x1)^3*x2 - (x1 - 2)", ("x0", "x1", "x2"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_poly_power_is_the_written_out_product():
    x0 = parse_poly("x0", ("x0", "x1"))
    one = Poly.const(2, 1)
    product = one
    for _ in range(13):
        product = product * (x0 + one)
    assert (x0 + one) ** 13 == product
    assert (x0 + one) ** 1 == x0 + one
    assert (x0 + one) ** 0 == one


@pytest.mark.parametrize("n", [1, 2, 3, 13, 64, 1000, 10 ** 9])
def test_poly_power_squares_and_multiplies(monkeypatch, n):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)
    monkeypatch.setattr(Poly, "__mul__", counted)
    x0 = Poly.variable(2, 0)
    assert x0 ** n == Poly.monomial(2, (n, 0))
    assert len(calls) <= 2 * n.bit_length() - 2  # <= 2 log2 n


def test_context_equality_and_hash_follow_the_fields():
    a = Context(2, 0, (0, 1))
    b = Context(2, 0, (0, 1))
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a == a and {a: 1}[b] == 1
    for other in (Context(2, 1, (0, 1)),
                  Context(3, 0, (0, 1)),
                  Context(2, 0, (0, 1, 2)),
                  Context(2, 0, (0, 1),
                          (SUnit(1, parse_poly("x1", ("x0", "x1", "x2")),
                                 1),))):
        assert a != other and not a == other
    assert a != ((2, 0, (0, 1), ()))
    assert (a == "projective") is False


def test_poly_parse_format_roundtrip():
    rng = random.Random(11)
    names = ("x0", "x1", "x2")
    for _ in range(200):
        p = _rand_poly(rng, 3)
        assert parse_poly(format_poly(p, names), names) == p


def test_format_poly_canonical():
    names = ("x0", "x1")
    p = parse_poly("x1 + x0 + x0^2 - 1", names)
    assert format_poly(p, names) == "x0^2 + x0 + x1 - 1"


def test_grevlex_order():
    # degree first, then reversed-negated tie break: x0^2 > x0*x1 > x1^2
    a, b, c = (2, 0), (1, 1), (0, 2)
    assert grevlex_key(a) > grevlex_key(b) > grevlex_key(c)
    # classic grevlex separation: x0*x2 < x1^2 in three variables
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


def _leads(basis):
    return tuple(max(b.terms, key=grevlex_key) for b in basis)


def _quotient(p, q):
    """p / q by `divide`, or None when the remainder is not zero."""
    rem, (quot,) = divide(p, (q,), _leads((q,)), grevlex_key)
    return quot if rem.is_zero() else None


def test_divide_exact():
    names = ("x", "y")
    p = parse_poly("x^2 - y^2", names)
    q = parse_poly("x + y", names)
    assert _quotient(p, q) == parse_poly("x - y", names)
    assert _quotient(p, parse_poly("x", names)) is None
    assert _quotient(Poly.zero(2), q).is_zero()
    x = parse_poly("x", names)
    assert divide(p, (x,), _leads((x,)), grevlex_key) == (
        parse_poly("-y^2", names), [x])


def test_poly_division_property():
    """p == sum q_i b_i + rem with no remainder term divisible by a leading
    term; an exact multiple divides back to its cofactor."""
    rng = random.Random(5)
    for _ in range(150):
        a = _rand_poly(rng, 2)
        b = _rand_poly(rng, 2)
        if b.is_zero():
            continue
        assert _quotient(a * b, b) == a
        basis = [c for c in (b, _rand_poly(rng, 2)) if not c.is_zero()]
        leads = _leads(basis)
        rem, q = divide(a, basis, leads, grevlex_key)
        total = rem
        for qi, c in zip(q, basis):
            total = total + qi * c
        assert total == a
        assert not any(min(map(sub, e, le)) >= 0
                       for e in rem.terms for le in leads)


def test_divide_exact_mode_matches_full_division():
    """Exact mode returns None iff the full remainder is nonzero, and
    otherwise the full division's quotients: on exact products d·q and on
    perturbed ones, in 1-4 variables, with int and Fraction coefficients."""
    rng = random.Random(3407)
    pools = {int: [c for c in _STORED if type(c) is int and c],
             Fraction: [c for c in _STORED if type(c) is Fraction]}
    seen = Counter()
    for _ in range(600):
        arity = rng.randint(1, 4)
        kind = rng.choice((int, Fraction))
        coeffs = pools[kind]

        def draw(deg, nterms):
            terms = {}
            for _ in range(nterms):
                e = [0] * arity
                for _ in range(rng.randint(0, deg)):
                    e[rng.randrange(arity)] += 1
                terms[tuple(e)] = rng.choice(coeffs)
            return Poly(arity, terms)
        basis = [d for d in (draw(2, rng.randint(1, 3))
                             for _ in range(rng.randint(1, 2)))
                 if not d.is_zero()]
        if not basis:
            continue
        p = Poly.zero(arity)
        for d in basis:
            p = p + d * draw(2, rng.randint(1, 3))
        perturbed = rng.random() < 0.5
        if perturbed:
            p = p + draw(3, 1)
        leads = _leads(basis)
        rem, q = divide(p, basis, leads, grevlex_key)
        got = divide(p, basis, leads, grevlex_key, exact=True)
        assert got == (q if rem.is_zero() else None)
        seen[kind, perturbed, rem.is_zero()] += 1
    assert all(seen[k, perturbed, exact] > 10 for k in (int, Fraction)
               for perturbed in (False, True) for exact in (False, True))


def test_homogenize_dehomogenize():
    names = ("x1", "x2", "x3")  # chart 0 of P^3
    p = parse_poly("x1^2 + x2 - 1", names)
    form, deg = homogenize(p, 0, 3)
    assert deg == 2
    assert form == parse_poly("x1^2 + x2*x0 - x0^2", ("x0", "x1", "x2", "x3"))
    assert dehomogenize(form, 0) == p


# -- localized elements ---------------------------------------------------------


def test_locelem_normalization_cancels_units():
    ctx = _ctx((0, 1), dim=2)
    x1 = _poly(ctx, "x1")
    e = LocElem(ctx, x1 * x1, {"c1": 1})
    assert e.den == {} and e.num == x1
    z = LocElem(ctx, Poly.zero(2), {"c1": 3})
    assert z.is_zero() and z.den == {}


def test_locelem_equality_cross_multiplies():
    ctx = _ctx((0, 1, 2), dim=2)
    x1, x2 = _poly(ctx, "x1"), _poly(ctx, "x2")
    a = LocElem(ctx, x1 * x2, {"c1": 1})  # normalizes to x2
    b = LocElem(ctx, x2, {})
    assert a == b
    c = LocElem(ctx, x1 + x2, {"c1": 1, "c2": 1})
    d = LocElem(ctx, x1 + x2, {"c1": 1})
    assert c != d


def test_locelem_arithmetic_matches_evaluation():
    rng = random.Random(23)
    ctx = _ctx((0, 2), dim=3)
    pt = (3, 5, 7, 11)
    for _ in range(100):
        a = LocElem(ctx, _rand_poly(rng, 3), {"c2": rng.randint(0, 2)})
        b = LocElem(ctx, _rand_poly(rng, 3), {"c2": rng.randint(0, 2)})
        assert _eval_loc(a + b, pt) == _eval_loc(a, pt) + _eval_loc(b, pt)
        assert _eval_loc(a * b, pt) == _eval_loc(a, pt) * _eval_loc(b, pt)
        assert _eval_loc(a - b, pt) == _eval_loc(a, pt) - _eval_loc(b, pt)


def test_unit_decomposition_section_unit_first():
    # A non-monomial registered unit must be cancelled before its monomial
    # factors are eaten by coordinate units: x1 first would leave
    # (x1 + 1) / s1 instead of 1 / c1.
    s_form = parse_poly("x1^2 + x0*x1", ("x0", "x1", "x2"))  # x1*(x1+x0)
    ctx = Context(2, 0, (0, 1), (SUnit(1, s_form, 2),))
    e = LocElem(ctx, ctx.unit_poly("s1"), {"c1": 1, "s1": 1})
    assert e.num == Poly.const(2, 1) and e.den == {"c1": 1}


def test_denominator_exponents_are_ints():
    ctx = _ctx((0, 1, 3), dim=3)
    num = _poly(ctx, "x1 + 1")
    for bad in (1.5, "2", True):
        with pytest.raises(ValueError, match="not an int"):
            LocElem(ctx, num, {"c1": bad})
    with pytest.raises(ValueError, match="must be positive"):
        LocElem(ctx, num, {"c1": -1})
    assert LocElem(ctx, num, {"c1": 0, "c3": 2}).den == {"c3": 2}


def test_unknown_unit_key_rejected_with_any_exponent():
    # A key the context has no unit for is an error even when its exponent
    # is 0 and would be dropped; a known key with exponent 0 is still fine.
    ctx = _ctx((0, 1, 3), dim=3)
    num = _poly(ctx, "x1 + 1")
    for den in ({"bogus": 0}, {"bogus": 1}, {"bogus": 0, "axes": 0},
                {"c2": 0}, {"s1": 0}):
        with pytest.raises(KeyError):
            LocElem(ctx, num, den)
    assert LocElem(ctx, num, {"c1": 0}) == LocElem(ctx, num)


def test_unit_poly_answers_only_unit_keys():
    # The memo entries beside the units ("axes", a saturated basis) and a
    # non-canonical spelling of a unit key are no units of the context.
    s_form = parse_poly("x1^2 + x0*x1", ("x0", "x1", "x2"))
    ctx = Context(2, 0, (0, 1), (SUnit(1, s_form, 2),))
    x1 = _poly(ctx, "x1")
    assert in_ideal(LocElem(ctx, x1), [LocElem(ctx, x1)])  # fills the memo
    assert ctx.unit_keys() == ("c1", "s1")
    assert ctx.unit_poly("c1") == x1
    assert ctx.unit_poly("s1") == dehomogenize(s_form, 0)
    for key in ("axes", ("saturation", (x1,)), "c01", "s01", "c0", "c2",
                "s0"):
        with pytest.raises(KeyError):
            ctx.unit_poly(key)
    for key in ("axes", "c01"):
        with pytest.raises(KeyError):
            LocElem(ctx, Poly.const(2, 2), {key: 1})


# -- reference implementations of the fast paths ------------------------------
#
# The kernel divides in place on one term dict, cancels a coordinate unit in
# one step and compares equal denominators by numerators alone.  These are
# the slower forms it replaced, kept as references: Poly-level long division,
# unit-by-unit cancellation, and equality by cross-multiplication.


def _leading_reference(p):
    exps = max(p.terms, key=grevlex_key)
    return exps, p.terms[exps]


def _divide_exact_reference(p, q):
    if p.is_zero():
        return Poly.zero(p.arity)
    qe, qc = _leading_reference(q)
    rem = p
    quot = Poly.zero(p.arity)
    while not rem.is_zero():
        re, rc = _leading_reference(rem)
        d = tuple(a - b for a, b in zip(re, qe))
        if any(x < 0 for x in d):
            return None
        t = Poly.monomial(p.arity, d, Fraction(rc) / qc)
        quot = quot + t
        rem = rem - t * q
    return quot


def _unit_order(key):
    return (0 if key[0] == "s" else 1, int(key[1:]))


def _normalize_reference(ctx, num, den):
    den = {k: e for k, e in den.items() if e}
    if num.is_zero():
        return num, {}
    for key in sorted(den, key=_unit_order):
        u = ctx.unit_poly(key)
        while den[key] > 0:
            q = _divide_exact_reference(num, u)
            if q is None:
                break
            num = q
            den[key] -= 1
        if den[key] == 0:
            del den[key]
    return num, den


def _cross_equal(a, b):
    return a.num * b.den_poly() == b.num * a.den_poly()


def _unit_ctx():
    """P^2 on charts (0, 1, 2), home 0, with a non-monomial section unit on
    chart 1 (x1 (x1 + x0)) and a monomial one on chart 2 (x2)."""
    hom = ("x0", "x1", "x2")
    return Context(2, 0, (0, 1, 2), (
        SUnit(1, parse_poly("x1^2 + x0*x1", hom), 2),
        SUnit(2, parse_poly("x2", hom), 1)))


def _rand_unit_multiple(rng, ctx, keys):
    """A random polynomial times random powers of the given units."""
    num = _rand_poly(rng, ctx.nvars, deg=2, nterms=rng.randint(1, 4))
    for key in keys:
        num = num * ctx.unit_poly(key) ** rng.randint(0, 3)
    return num


def test_divide_exact_matches_reference():
    rng = random.Random(61)
    exact = inexact = 0
    monomial = Counter()  # monomial divisors, by exactness
    for _ in range(600):
        arity = rng.randint(1, 3)
        q = _rand_poly(rng, arity, deg=2, nterms=rng.randint(1, 3))
        if q.is_zero():
            continue
        a = _rand_poly(rng, arity, deg=3, nterms=rng.randint(0, 4))
        p = a * q if rng.random() < 0.5 else a
        got = _quotient(p, q)
        assert got == _divide_exact_reference(p, q)
        if len(q.terms) == 1:
            monomial[got is not None] += 1
        if got is None:
            inexact += 1
        else:
            exact += 1
            assert got * q == p
    assert exact > 200 and inexact > 100
    assert monomial[True] > 50 and monomial[False] > 20


def test_divide_keeps_coefficients_stored():
    """Remainder and quotient coefficients are in stored form, also where a
    subtraction of Fractions leaves an integral value in the remainder."""
    rng = random.Random(1321)
    integral = 0  # int remainder coefficients where p has none
    for _ in range(300):
        arity = rng.randint(2, 3)
        basis = [b for b in (_rand_poly(rng, arity, deg=2,
                                        nterms=rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3)))
                 if not b.is_zero()]
        p = _rand_poly(rng, arity, deg=4, nterms=rng.randint(1, 5))
        if not basis:
            continue
        rem, q = divide(p, basis, _leads(basis), grevlex_key)
        for r in [rem, *q]:
            _assert_stored(r)
        integral += sum(type(c) is int and type(p.terms.get(e)) is not int
                        for e, c in rem.terms.items())
    assert integral > 20


def test_normalization_matches_reference():
    rng = random.Random(67)
    ctx = _unit_ctx()
    keys = ctx.unit_keys()
    assert keys == ("c1", "c2", "s1", "s2")
    cancelled = 0
    for _ in range(400):
        num = _rand_unit_multiple(rng, ctx, keys)
        den = {k: rng.randint(0, 3) for k in rng.sample(keys, rng.randint(0, 4))}
        e = LocElem(ctx, num, den)
        ref_num, ref_den = _normalize_reference(ctx, num, den)
        assert (e.num, e.den) == (ref_num, ref_den)
        cancelled += e.den != {k: a for k, a in den.items() if a}
    # coordinate units alone (the canonical case) on another chart layout
    cctx = _ctx((0, 1, 3), home=1, dim=3)
    for _ in range(200):
        num = _rand_unit_multiple(rng, cctx, cctx.unit_keys())
        den = {k: rng.randint(0, 4) for k in cctx.unit_keys()}
        e = LocElem(cctx, num, den)
        assert (e.num, e.den) == _normalize_reference(cctx, num, den)
    assert cancelled > 100


def _two_unit_ctx():
    """P^2 on charts (0, 1, 2), home 0, with two non-monomial section
    units: x0 + x1 on chart 1 and x2^2 + x0*x1 on chart 2."""
    hom = ("x0", "x1", "x2")
    return Context(2, 0, (0, 1, 2), (
        SUnit(1, parse_poly("x0 + x1", hom), 1),
        SUnit(2, parse_poly("x2^2 + x0*x1", hom), 2)))


@pytest.mark.parametrize("make_ctx", [_unit_ctx, _two_unit_ctx])
def test_quotient_memo_matches_reference(make_ctx):
    """`_normalize` keeps each section-unit division in the context's
    quotient memo.  Numerators drawn from a small pool repeat under
    different denominators, so most divisions after the first read the
    memo; a warm memo, a cold one and the reference agree."""
    rng = random.Random(3801)
    ctx = make_ctx()
    keys = ctx.unit_keys()
    pool = [_rand_unit_multiple(rng, ctx, keys) for _ in range(25)]
    for _ in range(300):
        num = rng.choice(pool)
        den = {k: rng.randint(0, 3) for k in rng.sample(keys, rng.randint(1, 4))}
        expected = _normalize_reference(ctx, num, den)
        for fresh in (ctx, ctx, make_ctx()):
            e = LocElem(fresh, num, den)
            assert (e.num, e.den) == expected
    for key in keys:
        if key[0] == "s" and len(ctx.unit_poly(key).terms) > 1:
            memo = ctx._unit(key)[2]
            assert any(q is None for q in memo.values())
            assert any(q is not None for q in memo.values())


def test_quotient_memo_is_kept_per_unit():
    """On one context, s1 divides a numerator that s2 does not: the memo
    entry for s1 must not answer for s2."""
    ctx = _two_unit_ctx()
    s1, s2 = ctx.unit_poly("s1"), ctx.unit_poly("s2")
    num = s1 * _poly(ctx, "x2 + 3")
    for den in ({"s1": 1}, {"s2": 1}, {"s1": 1, "s2": 1}, {"s2": 2},
                {"s1": 2}):
        e = LocElem(ctx, num, den)
        assert (e.num, e.den) == _normalize_reference(ctx, num, den)
    assert LocElem(ctx, num, {"s2": 1}).den == {"s2": 1}
    assert LocElem(ctx, num * s2, {"s1": 1, "s2": 1}) == LocElem(
        ctx, _poly(ctx, "x2 + 3"))


def test_locelem_equality_matches_cross_multiplication():
    rng = random.Random(73)
    ctx = _unit_ctx()
    keys = ctx.unit_keys()
    same_den = equal = 0
    for _ in range(400):
        den = {k: rng.randint(1, 2) for k in rng.sample(keys, 2)}
        a = LocElem(ctx, _rand_unit_multiple(rng, ctx, keys), den,
                    normalize=False)
        pick = rng.randrange(4)
        if pick == 0:    # same element, scaled representation
            key = rng.choice(keys)
            u = ctx.unit_poly(key)
            b_den = dict(den)
            b_den[key] = b_den.get(key, 0) + 1
            b = LocElem(ctx, a.num * u, b_den, normalize=False)
        elif pick == 1:  # equal den, as the ansatz basis of the Cech solver
            b = LocElem(ctx, a.num * 1, dict(den), normalize=False)
        elif pick == 2:  # equal den, different numerator
            b = LocElem(ctx, _rand_unit_multiple(rng, ctx, keys), dict(den),
                        normalize=False)
        else:            # normalized form of a
            b = LocElem(ctx, a.num, dict(den))
        same_den += a.den == b.den
        equal += _cross_equal(a, b)
        assert (a == b) == _cross_equal(a, b)
        assert (b == a) == _cross_equal(a, b)
    assert same_den > 150 and equal > 150


def test_locelem_equality_with_zero_needs_no_denominator_product(
        monkeypatch):
    """Units are not zero-divisors, so an element equals zero exactly when
    its numerator is zero, whatever the two denominators."""
    rng = random.Random(2103)
    ctx = _unit_ctx()
    pairs = []
    for _ in range(100):
        den = {k: rng.randint(1, 2) for k in rng.sample(ctx.unit_keys(), 2)}
        zero = LocElem(ctx, Poly.zero(ctx.nvars), dict(den), normalize=False)
        e = _rand_entry(rng, ctx)
        want = _cross_equal(zero, e)
        pairs.append((zero, e, want))
    assert {want for _, _, want in pairs} == {True, False}

    def forbidden(self):
        raise AssertionError("den_poly called")
    monkeypatch.setattr(LocElem, "den_poly", forbidden)
    for zero, e, want in pairs:
        assert (zero == e) is want and (e == zero) is want


# -- transport -------------------------------------------------------------------


def test_transport_example_coordinate_flip():
    # On U_0 cap U_1 of P^1: 1/(x1/x0) seen from chart 1 is the polynomial
    # x0/x1.
    c01_home0 = _ctx((0, 1), dim=1)
    c01_home1 = Context(1, 1, (0, 1))
    e = LocElem(c01_home0, Poly.const(1, 1), {"c1": 1})  # (x1/x0)^-1
    t = transport(e, c01_home1)
    assert t == LocElem(c01_home1, _poly(c01_home1, "x0"), {})


def test_transport_evaluation_oracle():
    rng = random.Random(71)
    dim = 3
    pts = [(2, 3, 5, 7), (1, -2, 3, -5), (4, 9, -7, 2)]
    charts = list(range(dim + 1))
    for _ in range(120):
        src_idx = tuple(sorted(rng.sample(charts, rng.randint(1, 3))))
        extra = [k for k in charts if k not in src_idx]
        dst_idx = tuple(sorted(src_idx + tuple(
            rng.sample(extra, rng.randint(0, len(extra))))))
        src = _ctx(src_idx, home=rng.choice(src_idx), dim=dim)
        dst = _ctx(dst_idx, home=rng.choice(dst_idx), dim=dim)
        den = {f"c{k}": rng.randint(0, 2) for k in src_idx if k != src.home}
        e = LocElem(src, _rand_poly(rng, dim), den)
        t = transport(e, dst)
        for pt in pts:
            assert _eval_loc(e, pt) == _eval_loc(t, pt)


def test_transport_roundtrip():
    rng = random.Random(9)
    dim = 2
    a = _ctx((0, 1), home=0, dim=dim)
    b = _ctx((0, 1), home=1, dim=dim)
    for _ in range(80):
        e = LocElem(a, _rand_poly(rng, dim), {"c1": rng.randint(0, 2)})
        assert transport(transport(e, b), a) == e


def test_transport_rejects_non_refining_target():
    # An element of U_0 cap U_2 (pole along x2 = 0) has no restriction to
    # U_0 cap U_1: the target open is not contained in the source open.
    c02 = _ctx((0, 2), dim=2)
    c01 = _ctx((0, 1), dim=2)
    e = LocElem(c02, Poly.const(2, 1), {"c2": 1})
    with pytest.raises(PreconditionViolated):
        transport(e, c01)


def test_transport_section_unit():
    # Section unit of chart 1 (form x0^2 + x1^2), moved from home 0 to home 1.
    form = parse_poly("x0^2 + x1^2", ("x0", "x1", "x2"))
    su = SUnit(1, form, 2)
    a = Context(2, 0, (0, 1), (su,))
    b = Context(2, 1, (0, 1), (su,))
    e = LocElem(a, _poly(a, "x1"), {"s1": 1})  # x1 / (S/x0^2) on chart 0
    t = transport(e, b)
    pt = (3, 4, 5)
    assert _eval_loc(e, pt) == _eval_loc(t, pt)
    assert t.den.get("s1") == 1


# -- Laurent views ----------------------------------------------------------------


def test_laurent_roundtrip():
    rng = random.Random(13)
    ctx = _ctx((0, 2, 3), home=2, dim=3)
    for _ in range(80):
        e = LocElem(ctx, _rand_poly(rng, 3),
                    {"c0": rng.randint(0, 2), "c3": rng.randint(0, 1)})
        lau = to_laurent(e)
        assert lau is not None
        assert all(sum(a) == 0 for a in lau)
        assert from_laurent(lau, ctx) == e


def test_laurent_requires_monomial_sunits():
    form = parse_poly("x0^2 + x1^2", ("x0", "x1", "x2"))
    ctx = Context(2, 0, (0, 1), (SUnit(1, form, 2),))
    e = LocElem(ctx, Poly.const(2, 1), {"s1": 1})
    assert to_laurent(e) is None
    mono = SUnit(1, parse_poly("x1^2", ("x0", "x1", "x2")), 2)
    ctx2 = Context(2, 0, (0, 1), (mono,))
    e2 = LocElem(ctx2, _poly(ctx2, "x2"), {"s1": 1})
    # (x2/x0) / (x1^2/x0^2) = x0*x2/x1^2
    lau = to_laurent(e2)
    assert lau == {(1, -2, 1): Fraction(1)}


# -- homogeneous bookkeeping against the forms it replaced ----------------------
#
# `transport` and `to_laurent` read an element with `_homogeneous_reading`
# and move each numerator term in one pass, `from_laurent` and
# `LineBundleData.h` read degree-0 vectors back with `chart_monomial`, and
# `LocElem.times_units` replaced a helper of the ideals layer.
# Normalization with section units is greedy, so each must hand `LocElem` the
# same (num, den) as these, the separate forms they replaced, kept as
# references.


def _transport_reference(e, dst):
    src = e.ctx
    if src == dst:
        return e
    if src.dim != dst.dim:
        raise PreconditionViolated("transport between different ambients")
    if not set(src.indices) <= set(dst.indices):
        raise PreconditionViolated("target does not refine the source")
    n = src.dim
    h, h2 = src.home, dst.home
    form, deg = homogenize(e.num, h, n)
    gamma = [0] * (n + 1)
    gamma[h] -= deg
    s_exps = {}
    for key, m in e.den.items():
        if key.startswith("c"):
            k = int(key[1:])
            gamma[k] -= m
            gamma[h] += m
        else:
            c = int(key[1:])
            gamma[h] += src.sunit(c).degree * m
            s_exps[c] = s_exps.get(c, 0) + m
    gamma[h2] += deg - sum(src.sunit(c).degree * m for c, m in s_exps.items())
    assert sum(gamma) == 0
    num = dehomogenize(form, h2)
    den = {}
    for k in range(n + 1):
        if k == h2 or gamma[k] == 0:
            continue
        if gamma[k] > 0:
            num = num * Poly.variable(n, dst.axes().index(k)) ** gamma[k]
        else:
            if k not in dst.indices:
                raise PreconditionViolated(f"pole along x{k} = 0")
            den[f"c{k}"] = -gamma[k]
    for c, m in s_exps.items():
        den[f"s{c}"] = den.get(f"s{c}", 0) + m
    return LocElem(dst, num, den)


def _to_laurent_reference(e):
    ctx = e.ctx
    n = ctx.dim
    form, deg = homogenize(e.num, ctx.home, n)
    gamma = [0] * (n + 1)
    gamma[ctx.home] -= deg
    scale = Fraction(1)
    for key, m in e.den.items():
        if key.startswith("c"):
            k = int(key[1:])
            gamma[k] -= m
            gamma[ctx.home] += m
        else:
            u = ctx.sunit(int(key[1:]))
            if len(u.form.terms) != 1:
                return None
            (ue, uc), = u.form.terms.items()
            for k in range(n + 1):
                gamma[k] -= ue[k] * m
            gamma[ctx.home] += u.degree * m
            scale /= uc ** m
    out = {}
    for te, tc in form.terms.items():
        key = tuple(te[k] + gamma[k] for k in range(n + 1))
        v = out.get(key, Fraction(0)) + tc * scale
        if v:
            out[key] = v
        else:
            del out[key]
    return out


def _from_laurent_reference(laurent, ctx):
    n = ctx.dim
    total = LocElem.zero(ctx)
    for alpha, coeff in sorted(laurent.items()):
        if sum(alpha) != 0:
            raise ValueError("Laurent term is not degree zero")
        num = Poly.const(n, coeff)
        den = {}
        for k in range(n + 1):
            if k == ctx.home or alpha[k] == 0:
                continue
            if alpha[k] > 0:
                num = num * Poly.variable(n, ctx.axes().index(k)) ** alpha[k]
            else:
                if k not in ctx.indices:
                    raise PreconditionViolated(f"Laurent term needs 1/x{k}")
                den[f"c{k}"] = -alpha[k]
        total = total + LocElem(ctx, num, den)
    return total


def _h_reference(twist, i, j, ctx):
    if i == j or twist == 0:
        return LocElem.one(ctx)
    delta = [0] * (ctx.dim + 1)
    delta[j] += twist
    delta[i] -= twist
    num = Poly.const(ctx.nvars, 1)
    den = {}
    for k, e in enumerate(delta):
        if k == ctx.home or e == 0:
            continue
        if e > 0:
            num = num * Poly.variable(ctx.nvars, ctx.axes().index(k)) ** e
        else:
            den[f"c{k}"] = -e
    return LocElem(ctx, num, den)


def _times_units_reference(e, exps):
    num = e.num
    den = dict(e.den)
    for k, a in exps.items():
        if a > 0:
            num = num * e.ctx.unit_poly(k) ** a
        elif a < 0:
            den[k] = den.get(k, 0) - a
    return LocElem(e.ctx, num, den)


def _same(a, b):
    return (a.ctx, a.num, a.den) == (b.ctx, b.num, b.den)


def _p3_units(monomial):
    """Section units of P^3 on charts 1 and 3: monomial forms (3 x1^2, x3)
    or non-monomial ones (x1^2 + x0*x2, x3 + x2)."""
    hom = ("x0", "x1", "x2", "x3")
    forms = ("3*x1^2", "x3") if monomial else ("x1^2 + x0*x2", "x3 + x2")
    return (SUnit(1, parse_poly(forms[0], hom), 2),
            SUnit(3, parse_poly(forms[1], hom), 1))


def _rand_elem(rng, ctx):
    """A random element over random powers of the context's units, built
    normalized or as given."""
    keys = ctx.unit_keys()
    num = _rand_unit_multiple(rng, ctx, rng.sample(keys, min(2, len(keys))))
    den = {k: rng.randint(0, 2)
           for k in rng.sample(keys, rng.randint(0, len(keys)))}
    return LocElem(ctx, num, den, normalize=rng.random() < 0.5)


def test_transport_matches_reference():
    rng = random.Random(79)
    moved = {"home kept": 0, "home changed": 0, "monomial unit": 0,
             "non-monomial unit": 0}
    for kind, sunits in (("no unit", ()), ("monomial unit", _p3_units(True)),
                         ("non-monomial unit", _p3_units(False))):
        for _ in range(150):
            src_idx = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
            dst_idx = tuple(sorted(set(src_idx) | set(
                rng.sample(range(4), rng.randint(0, 2)))))
            src = _ctx(src_idx, home=rng.choice(src_idx), sunits=sunits)
            dst = _ctx(dst_idx, home=rng.choice(dst_idx), sunits=sunits)
            e = _rand_elem(rng, src)
            got = transport(e, dst)
            assert _same(got, _transport_reference(e, dst))
            moved["home changed" if src.home != dst.home else "home kept"] += 1
            if any(k[0] == "s" for k in e.den):
                moved[kind] += 1
            # and back onto the source, when that is a restriction
            if dst_idx == src_idx:
                assert _same(transport(got, src),
                             _transport_reference(got, src))
            else:
                with pytest.raises(PreconditionViolated):
                    transport(got, src)
    assert min(moved.values()) > 25
    # a zero numerator over a denominator kept as given, moved to a new
    # home, comes out with no denominator
    src = _ctx((1, 3), home=1, sunits=_p3_units(False))
    dst = _ctx((0, 1, 3), home=3, sunits=_p3_units(False))
    zero = LocElem(src, Poly.zero(3), {"c3": 2, "s1": 1}, normalize=False)
    assert zero.den and transport(zero, dst).den == {}
    assert _same(transport(zero, dst), _transport_reference(zero, dst))
    # one chart: transport only moves an element onto a context with more
    # section units
    su = SUnit(0, parse_poly("x1*x2 + x0^2", ("x0", "x1", "x2")), 2)
    bare = Context(2, 0, (0,))
    unit = Context(2, 0, (0,), (su,))
    for _ in range(50):
        for src, dst in ((bare, unit), (unit, unit)):
            e = _rand_elem(rng, src)
            assert _same(transport(e, dst), _transport_reference(e, dst))


def test_laurent_views_match_reference():
    rng = random.Random(83)
    laurent = 0
    for sunits in (_p3_units(True), _p3_units(False)):
        for _ in range(150):
            idx = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
            ctx = _ctx(idx, home=rng.choice(idx), sunits=sunits)
            e = _rand_elem(rng, ctx)
            lau = to_laurent(e)
            assert lau == _to_laurent_reference(e)
            if lau is None:
                continue
            laurent += 1
            # read back on every context of the cover with the same charts
            for home in idx:
                back = _ctx(idx, home=home, sunits=sunits)
                assert _same(from_laurent(lau, back),
                             _from_laurent_reference(lau, back))
    assert laurent > 150


def test_from_laurent_errors_match_reference():
    ctx = _ctx((0, 2), dim=3)
    pole = {(1, 0, -1, 0): 1, (0, 1, 0, -1): 2}  # 1/x3 outside charts 0, 2
    for bad, exc in ((pole, PreconditionViolated),
                     ({(1, 0, 0, 0): 1}, ValueError)):
        for fn in (from_laurent, _from_laurent_reference):
            with pytest.raises(exc):
                fn(bad, ctx)


def test_line_bundle_h_matches_reference():
    for dim in (2, 3):
        lbs = [LineBundleData(AmbientSpec(dim), d)
               for d in range(-3, 4)]
        for idx in itertools.chain.from_iterable(
                itertools.combinations(range(dim + 1), r)
                for r in range(1, dim + 1)):
            for home in idx:
                ctx = _ctx(idx, home=home, dim=dim)
                for lb in lbs:
                    for i, j in itertools.product(idx, repeat=2):
                        assert _same(lb.h(i, j, ctx),
                                     _h_reference(lb.twist, i, j, ctx))


def test_times_units_matches_reference():
    rng = random.Random(89)
    for ctx in (_unit_ctx(), _ctx((0, 1, 3), home=3, dim=3,
                                  sunits=_p3_units(False))):
        keys = ctx.unit_keys()
        for _ in range(200):
            e = _rand_elem(rng, ctx)
            exps = {k: rng.randint(-2, 2)
                    for k in rng.sample(keys, rng.randint(0, len(keys)))}
            assert _same(e.times_units(exps), _times_units_reference(e, exps))


# -- matrices ----------------------------------------------------------------------


def _mat(ctx, entries):
    return MatrixL(ctx, [[LocElem(ctx, _poly(ctx, s), {}) for s in row]
                         for row in entries])


def test_matrix_det_and_adjugate():
    ctx = _ctx((0, 1), dim=2)
    m = _mat(ctx, [["x1", "x2"], ["1", "x1"]])
    d = m.det()
    assert d == LocElem(ctx, _poly(ctx, "x1^2 - x2"), {})
    prod = m @ m.adjugate()
    expect = MatrixL.identity(ctx, 2).scalar_mul(d)
    assert prod == expect


def test_matrix_det_random_multiplicative():
    rng = random.Random(37)
    ctx = _ctx((0, 1), dim=2)
    for _ in range(25):
        a = MatrixL(ctx, [[LocElem(ctx, _rand_poly(rng, 2, deg=1, nterms=2), {})
                           for _ in range(3)] for _ in range(3)])
        b = MatrixL(ctx, [[LocElem(ctx, _rand_poly(rng, 2, deg=1, nterms=2), {})
                           for _ in range(3)] for _ in range(3)])
        assert (a @ b).det() == a.det() * b.det()


def _dot_reference(row, vec, ctx):
    """The stepwise sum: one normalized product and one normalized sum per
    term."""
    acc = LocElem.zero(ctx)
    for a, b in zip(row, vec):
        acc = acc + a * b
    return acc


def _det_reference(m):
    """Cofactor expansion along row 0, summed one term at a time."""
    n = m.shape[0]
    if n == 0:
        return LocElem.one(m.ctx)
    if n == 1:
        return m.rows[0][0]
    acc = LocElem.zero(m.ctx)
    rest = m.delete_row(0)
    for j in range(n):
        if m.rows[0][j].is_zero():
            continue
        term = m.rows[0][j] * _det_reference(rest.delete_col(j))
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _rand_entry(rng, ctx):
    """A random element, zero one time in five."""
    if rng.random() < 0.2:
        return LocElem.zero(ctx)
    return _rand_elem(rng, ctx)


def test_dot_and_det_match_stepwise_reference():
    """Summing over one common denominator gives the stepwise value on every
    context, and the same (num, den) where the unit polynomials are
    pairwise coprime (the lemma in `dot`'s docstring); a monomial section
    unit shares factors with the coordinate units, so there only the values
    must agree."""
    rng = random.Random(2101)
    reshaped = Counter()  # kind -> results whose (num, den) differ
    for kind, sunits in (("no unit", ()), ("monomial unit", _p3_units(True)),
                         ("non-monomial unit", _p3_units(False))):
        for _ in range(120):
            idx = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
            ctx = _ctx(idx, home=rng.choice(idx), sunits=sunits)
            n = rng.randint(1, 4)
            row = [_rand_entry(rng, ctx) for _ in range(n)]
            vec = [_rand_entry(rng, ctx) for _ in range(n)]
            got, want = [dot(row, vec, ctx)], [_dot_reference(row, vec, ctx)]
            if n <= 3:
                m = MatrixL(ctx, [[_rand_entry(rng, ctx) for _ in range(n)]
                                  for _ in range(n)])
                got.append(m.det())
                want.append(_det_reference(m))
            for x, y in zip(got, want):
                assert x == y
                if kind == "monomial unit":
                    reshaped[kind] += not _same(x, y)
                else:
                    assert _same(x, y)
    # the shared-factor case really takes another path to the same value
    assert reshaped["monomial unit"] > 0


def test_matvec_rejects_a_vector_on_another_context():
    ctx, other = _ctx((0, 1)), _ctx((0, 2))
    m = MatrixL.identity(ctx, 2)
    with pytest.raises(ValueError, match="context mismatch"):
        m.matvec((LocElem.one(ctx), LocElem.one(other)))


def test_unit_polynomials_of_corpus_contexts_are_pairwise_coprime(
        monkeypatch):
    """The premise of `dot`'s lemma on every context that a build of a
    `perfbench/inputs` document creates, by sympy's gcd; so summing once
    keeps the corpus outputs byte-identical."""
    sympy = pytest.importorskip("sympy")
    seen = []
    init = Context.__init__

    def record(self, *args):
        init(self, *args)
        seen.append(self)
    monkeypatch.setattr(Context, "__init__", record)
    spec = importlib.util.spec_from_file_location(
        "corpus", REFS.parent / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    inputs = set()
    for name, flags, code in corpus.REFERENCES.values():
        inputs.add(name)
        assert main(["build", str(REFS.parent / "inputs" / f"{name}.json"),
                     *flags]) == code
    assert len(inputs) == 16
    pairs = 0
    for ctx in set(seen):
        syms = sympy.symbols(f"x0:{ctx.nvars}")
        units = [_to_sympy(sympy, ctx.unit_poly(k), syms)
                 for k in ctx.unit_keys()]
        for u, v in itertools.combinations(units, 2):
            pairs += 1
            assert sympy.gcd(u, v).is_ground, (ctx, u, v)
    assert pairs > 100


def _to_sympy(sympy, p, syms):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator)
         for e, c in p.terms.items()}, *syms, domain="QQ")


def test_lift_poly_and_split_last_match_checked_construction():
    """The trusted T-variable builders give what `Poly(...)` builds from the
    same terms, and splitting by T-degree inverts a sum of T^j-shifts."""
    rng = random.Random(1601)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = _rand_poly(rng, n, deg=3, nterms=rng.randint(0, 4))
        lifted = lift_poly(p)
        want = Poly(n + 1, {e + (0,): c for e, c in p.terms.items()})
        assert (lifted.arity, lifted.terms) == (want.arity, want.terms)
        pieces = {j: _rand_poly(rng, n, deg=2, nterms=rng.randint(1, 3))
                  for j in rng.sample(range(5), rng.randint(0, 3))}
        t = Poly.variable(n + 1, n)
        total = Poly.zero(n + 1)
        for j, q in pieces.items():
            total = total + lift_poly(q) * t ** j
        split = split_last(total)
        assert split == {j: q for j, q in pieces.items() if not q.is_zero()}
        assert all(q.arity == n for q in split.values())



def test_at_zero_drops_the_terms_of_one_variable():
    """Setting a variable to 0 keeps exactly the terms free of it, as the
    checked constructor builds them, and leaves a polynomial free of it
    unchanged."""
    rng = random.Random(2801)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = _rand_poly(rng, n, deg=3, nterms=rng.randint(0, 5))
        pos = rng.randrange(n)
        cut = at_zero(p, pos)
        want = Poly(n, {e: c for e, c in p.terms.items() if e[pos] == 0})
        assert (cut.arity, cut.terms) == (want.arity, want.terms)
        assert at_zero(cut, pos) == cut
        x = Poly.variable(n, pos)
        assert at_zero(p * x, pos).is_zero()
        assert at_zero(cut + p * x, pos) == cut

# -- stored coefficients: an int when integral, every division by qdiv ----------

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"

# every stored coefficient with numerator and denominator in a small range
_STORED = sorted(set(range(-6, 7)) | {Fraction(n, d) for n in range(-6, 7)
                                      for d in (2, 3, 4, 6)
                                      if Fraction(n, d).denominator > 1})


def _is_stored(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _assert_stored(p):
    """Every coefficient of the Poly p is nonzero and in stored form."""
    bad = {e: c for e, c in p.terms.items() if not (c and _is_stored(c))}
    assert bad == {}


def test_qdiv_matches_fraction():
    assert len(_STORED) > 30
    for a in _STORED:
        for b in _STORED:
            if not b:
                with pytest.raises(ZeroDivisionError):
                    qdiv(a, b)
                continue
            q = qdiv(a, b)
            assert q == Fraction(a) / Fraction(b)
            assert _is_stored(q)


def test_constructors_store_integral_values_as_int():
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2),
                 (0, 0): Fraction(0)})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int
    _assert_stored(parse_poly("6/3*x - 3/6*y + 2/2", ("x", "y")))
    one = p.scale(1)
    assert one == p and one.terms is not p.terms
    # terms that meet when x0 is set to 1 add up to an integral value
    meet = dehomogenize(Poly(3, {(1, 1, 0): Fraction(1, 2),
                                 (0, 1, 0): Fraction(3, 2),
                                 (2, 0, 0): Fraction(1, 3),
                                 (0, 0, 0): Fraction(-1, 3)}), 0)
    assert meet.terms == {(1, 0): 2} and type(meet.terms[(1, 0)]) is int


def test_poly_operations_keep_coefficients_stored():
    rng = random.Random(1303)
    pool = [_rand_poly(rng, 3, deg=2, nterms=3) for _ in range(4)]
    integral = 0  # results with an int coefficient from Fraction operands
    for _ in range(400):
        p, q = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("+", "-", "*", "scale", "divide"))
        if op == "+":
            r = p + q
        elif op == "-":
            r = p - q
        elif op == "*":
            r = p * q
        elif op == "scale":
            r = p.scale(rng.choice(_STORED))
        elif q.is_zero():
            continue
        else:
            r = _quotient(p * q, q)
            assert r == p
            _assert_stored(r)
            r = _quotient(p + q, q)
            if r is None:
                continue
        _assert_stored(r)
        if (any(type(c) is int for c in r.terms.values())
                and any(type(c) is Fraction
                        for c in list(p.terms.values())
                        + list(q.terms.values()))):
            integral += 1
        if r.total_degree() > 4 or len(r.terms) > 8:
            r = _rand_poly(rng, 3, deg=2, nterms=3)
        pool[rng.randrange(len(pool))] = r
    assert integral > 10


def test_locelem_operations_keep_coefficients_stored():
    rng = random.Random(1307)
    laurent = 0
    for sunits in ((), _p3_units(True), _p3_units(False)):
        for _ in range(40):
            idx = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
            ctx = _ctx(idx, home=rng.choice(idx), sunits=sunits)
            x = _rand_elem(rng, ctx)
            for _ in range(5):
                y = _rand_elem(rng, ctx)
                op = rng.choice(("+", "-", "*", "scale"))
                if op == "+":
                    x = x + y
                elif op == "-":
                    x = x - y
                elif op == "*":
                    x = x * y
                else:
                    x = x.scale(rng.choice(_STORED))
                _assert_stored(x.num)
                lau = to_laurent(x)
                if lau is not None:
                    laurent += 1
                    assert all(c and _is_stored(c) for c in lau.values())
                dst_idx = tuple(sorted(set(idx) | {rng.randrange(4)}))
                moved = transport(x, _ctx(dst_idx, home=rng.choice(dst_idx),
                                          sunits=sunits))
                _assert_stored(moved.num)
                if len(x.num.terms) > 12:
                    x = _rand_elem(rng, ctx)
    assert laurent > 200


# -- arithmetic results skip the key checks of LocElem(...) ---------------------


def _same_as_checked(got, ctx, num, den):
    """got equals LocElem(ctx, num, den), built with every check, in num,
    den and repr."""
    want = LocElem(ctx, num, den)
    assert got.ctx is want.ctx
    assert (got.num, got.den, repr(got)) == (want.num, want.den, repr(want))


@pytest.mark.parametrize("name, units", [("two_points_unit", True),
                                         ("line_p6", False)])
def test_arithmetic_matches_checked_construction(name, units):
    bundle = load_bundle(json.loads((REFS / f"{name}.json").read_text(
        encoding="utf-8")))
    cover = bundle.cover
    assert bool(cover.sunits) is units
    moved = 0
    for (i, j), Z in sorted(bundle.transitions.Z.items()):
        ctx = cover.ctx((i, j))
        entries = [x for row in Z.rows for x in row]
        assert all(x.ctx is ctx for x in entries)
        for a in entries:
            for b in entries:
                common = dict(a.den)
                for k, e in b.den.items():
                    common[k] = max(common.get(k, 0), e)
                _same_as_checked(a + b, ctx,
                                 a.num_over(common) + b.num_over(common),
                                 common)
                den = dict(a.den)
                for k, e in b.den.items():
                    den[k] = den.get(k, 0) + e
                _same_as_checked(a * b, ctx, a.num * b.num, den)
        # a same-home transport keeps numerator and denominator
        for k in cover.charts:
            if k > i and k != j:
                dst = cover.ctx((i, j, k))
                for a in entries:
                    _same_as_checked(transport(a, dst), dst, a.num,
                                     dict(a.den))
                    moved += 1
    assert moved > 0
    if units:
        assert any(key[0] == "s" for Z in bundle.transitions.Z.values()
                   for row in Z.rows for x in row for key in x.den)


def test_product_with_one_is_unchanged(monkeypatch):
    rng = random.Random(1309)
    products = []
    mul = Poly.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    for sunits in ((), _p3_units(False)):
        ctx = _ctx((0, 1, 3), sunits=sunits)
        ones = [LocElem.one(ctx), LocElem(ctx, Poly.const(3, 1), {"c1": 1})]
        for _ in range(30):
            e = _rand_elem(rng, ctx)  # normalized or as given
            for one in ones:
                den = dict(e.den)
                for k, a in one.den.items():
                    den[k] = den.get(k, 0) + a
                with monkeypatch.context() as m:
                    m.setattr(Poly, "__mul__", counted)
                    left, right = e * one, one * e
                _same_as_checked(left, ctx, e.num * one.num, dict(den))
                _same_as_checked(right, ctx, one.num * e.num, dict(den))
    assert products == []


def test_zero_negation_and_scale_skip_the_checks(monkeypatch):
    # no Poly(...) or LocElem(...) is built, and (num, den) come out as the
    # checked LocElem(..., normalize=False) keeps them, on normalized and
    # unnormalized elements alike
    rng = random.Random(1401)
    built = []

    def counted(cls):
        init = cls.__init__

        def checked(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        return checked

    for sunits in ((), _p3_units(False)):
        ctx = _ctx((0, 1, 3), sunits=sunits)
        for _ in range(30):
            e = _rand_elem(rng, ctx)
            c = rng.choice([0, 1, -1, 3, Fraction(-2, 3)])
            with monkeypatch.context() as m:
                m.setattr(LocElem, "__init__", counted(LocElem))
                m.setattr(Poly, "__init__", counted(Poly))
                got = [LocElem.zero(ctx), -e, e.scale(c), e * c]
            want = [LocElem(ctx, Poly.zero(3), {}),
                    LocElem(ctx, -e.num, dict(e.den), normalize=False)]
            want += 2 * [LocElem(ctx, e.num.scale(c), dict(e.den) if c else {},
                                 normalize=False)]
            for x, y in zip(got, want):
                assert x.ctx is y.ctx
                assert (x.num, x.den, repr(x)) == (y.num, y.den, repr(y))
    assert built == []
