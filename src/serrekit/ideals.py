"""Groebner machinery with cofactor tracking and constructive ideal theory in
localized chart rings.

The ring of functions on a context's open set is k[x]_u with u the product of
the designated units.  All membership questions are decided through the
Rabinowitsch device: a fresh last variable T with the relation 1 - T*u.  A
T-free polynomial lies in (gens, 1 - T*u) exactly when it lies in the
saturation (gens) : u^infinity, i.e. in the localized ideal; and because the
Buchberger run tracks cofactors, specializing T -> 1/u turns the certificate
into exact localized cofactors.  Division never loses information: every
returned identity is verified by exact re-multiplication before it escapes.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LocElem, Poly, divide_exact, grevlex_key
from .errors import (NotCoprime, NotInIdeal, NotRegularPair,
                     PreconditionViolated)


# -- orders -------------------------------------------------------------------

def elim_key(nelim):
    """Block order eliminating the LAST `nelim` variables (graded per block)."""
    def key(exps):
        x, t = exps[:-nelim], exps[-nelim:]
        return (sum(t), tuple(-a for a in reversed(t)),
                sum(x), tuple(-a for a in reversed(x)))
    return key


def _leading(p, key):
    exps = max(p.terms, key=key)
    return exps, p.terms[exps]


# -- Buchberger with cofactors ---------------------------------------------------

class GroebnerBasis:
    """Monic basis together with rows expressing each element over the input
    generators: basis[i] == sum_j cofactors[i][j] * gens[j], exactly."""

    __slots__ = ("arity", "gens", "basis", "cofactors", "key")

    def __init__(self, arity, gens, basis, cofactors, key):
        self.arity = arity
        self.gens = tuple(gens)
        self.basis = tuple(basis)
        self.cofactors = tuple(tuple(r) for r in cofactors)
        self.key = key

    def reduce(self, p):
        """Full division: returns (cofactors_over_gens, remainder) with
        p == sum(cof[j] * gens[j]) + remainder."""
        rem, q = _divide(p, self.basis, self.key)
        m = len(self.gens)
        cof = [Poly.zero(self.arity) for _ in range(m)]
        for qi, row in zip(q, self.cofactors):
            if qi.is_zero():
                continue
            for j in range(m):
                if not row[j].is_zero():
                    cof[j] = cof[j] + qi * row[j]
        return cof, rem


def _divide(p, basis, key):
    """Divide p by the basis list; returns (remainder, per-basis quotients)."""
    q = [Poly.zero(p.arity) for _ in basis]
    rem = Poly.zero(p.arity)
    r = p
    while not r.is_zero():
        re, rc = _leading(r, key)
        hit = None
        for i, b in enumerate(basis):
            be, bc = _leading(b, key)
            d = tuple(a - x for a, x in zip(re, be))
            if all(a >= 0 for a in d):
                hit = (i, d, rc / bc)
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


def buchberger(gens, arity, key=None):
    """Groebner basis with cofactor rows; normal pair selection and the
    coprime leading-term criterion."""
    key = key or grevlex_key
    m = len(gens)
    basis = []       # monic polynomials
    rows = []        # cofactor rows over gens

    def reduce_tracked(p, prow):
        rem, q = _divide(p, basis, key)
        row = list(prow)
        for qi, brow in zip(q, rows):
            if qi.is_zero():
                continue
            for j in range(m):
                if not brow[j].is_zero():
                    row[j] = row[j] - qi * brow[j]
        return rem, row

    def push(p, row):
        le, lc = _leading(p, key)
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
        a, _ = _leading(basis[i], key)
        b, _ = _leading(basis[j], key)
        return tuple(max(x, y) for x, y in zip(a, b))

    while pairs:
        pairs.sort(key=lambda ij: key(lcm_exps(*ij)))
        i, j = pairs.pop(0)
        a, _ = _leading(basis[i], key)
        b, _ = _leading(basis[j], key)
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        if all(x + y == l for x, y, l in zip(a, b, lcm)):
            continue  # coprime leading terms: s-poly reduces to zero
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

    return GroebnerBasis(arity, gens, basis, rows, key)


# -- saturation (Rabinowitsch) ----------------------------------------------------

def _lift_poly(p, extra=1):
    return Poly(p.arity + extra,
                {e + (0,) * extra: c for e, c in p.terms.items()})


def _split_T(p):
    """Split a k[x, T] polynomial by T-degree into k[x] pieces."""
    n = p.arity - 1
    out = {}
    for e, c in p.terms.items():
        j = e[-1]
        out.setdefault(j, {})[e[:-1]] = c
    return {j: Poly(n, t) for j, t in out.items()}


def _rabinowitsch(ctx):
    """(u, 1 - T*u): the product u of the context's units and its
    Rabinowitsch relation in k[x, T], T a new last variable."""
    n = ctx.nvars
    u = Poly.const(n, 1)
    for k in ctx.unit_keys():
        u = u * ctx.unit_poly(k)
    return u, Poly.const(n + 1, 1) - Poly.variable(n + 1, n) * _lift_poly(u)


def _T_free(basis):
    """The elements of a k[x, T] basis that do not involve T, in k[x]."""
    return [Poly(b.arity - 1, {e[:-1]: c for e, c in b.terms.items()})
            for b in basis if all(e[-1] == 0 for e in b.terms)]


def _sat_gb(ctx, nums):
    """Groebner data for the saturated ideal of `nums` in the context's
    localized ring, kept in the context's memo, so it lives as long as the
    cover that built the context.  Returns (gb, u_poly_or_None); when u is
    present the gb lives in k[x, T] with generators nums' + [1 - T*u], T
    last."""
    cache_key = ("saturation", nums)
    hit = ctx._memo.get(cache_key)
    if hit is not None:
        return hit
    if not ctx.unit_keys():
        out = (buchberger(list(nums), ctx.nvars), None)
    else:
        u, rel = _rabinowitsch(ctx)
        gb = buchberger([_lift_poly(g) for g in nums] + [rel], ctx.nvars + 1)
        out = (gb, u)
    ctx._memo[cache_key] = out
    return out


def _check_ctxs(elems):
    ctx = elems[0].ctx
    for e in elems[1:]:
        if e.ctx != ctx:
            raise ValueError("mixed contexts; transport first")
    return ctx


def _sat_reduce(p, gens):
    """Reduce p by the saturated basis of gens: (ctx, u, cofactors, rem)."""
    ctx = _check_ctxs([p] + list(gens))
    gb, u = _sat_gb(ctx, tuple(g.num for g in gens))
    cof, rem = gb.reduce(_lift_poly(p.num) if u is not None else p.num)
    return ctx, u, cof, rem


def member_with_lift(p, gens):
    """Exact localized membership with certificate.

    Returns LocElems a_m with p == sum(a_m * gens[m]) in the localized ring,
    or None if p is not a member.  Complete: saturation is built in.
    """
    ctx, u, cof, rem = _sat_reduce(p, gens)
    if not rem.is_zero():
        return None
    ukeys = ctx.unit_keys()
    out = []
    for m, g in enumerate(gens):
        c = cof[m]
        if u is None:
            a = LocElem(ctx, c)
        else:
            pieces = _split_T(c)
            if pieces:
                top = max(pieces)
                num = Poly.zero(ctx.nvars)
                for j, cj in pieces.items():
                    num = num + cj * u ** (top - j)
                a = LocElem(ctx, num, {k: top for k in ukeys} if top else {})
            else:
                a = LocElem.zero(ctx)
        # clear the generator/target denominators: a * U_m / U_p
        shift = dict(g.den)
        for k, e in p.den.items():
            shift[k] = shift.get(k, 0) - e
        out.append(a.times_units(shift))
    # paranoia: the certificate is an exact identity or it does not leave
    acc = LocElem.zero(ctx)
    for a, g in zip(out, gens):
        acc = acc + a * g
    if acc != p:
        raise AssertionError("membership certificate failed re-verification")
    return out


def in_ideal(p, gens):
    return _sat_reduce(p, gens)[3].is_zero()


def is_unit_ideal(gens):
    ctx = _check_ctxs(list(gens))
    return in_ideal(LocElem.one(ctx), gens)


def invert(e):
    """Exact inverse in the localized ring, or None if e is not invertible."""
    if e.is_zero():
        return None
    lift = member_with_lift(LocElem.one(e.ctx), [e])
    return None if lift is None else lift[0]


def ideal_equal(gens_a, gens_b):
    """Do two generator lists span the same localized ideal?"""
    ctx = _check_ctxs(list(gens_a) + list(gens_b))
    zero = LocElem.zero(ctx)
    a = [g for g in gens_a if not g.is_zero()] or [zero]
    b = [g for g in gens_b if not g.is_zero()] or [zero]
    return (all(in_ideal(g, b) for g in a)
            and all(in_ideal(g, a) for g in b))


def unit_certificate(f, g):
    """(u, v) with u*f + v*g == 1, or NotCoprime."""
    ctx = _check_ctxs([f, g])
    lift = member_with_lift(LocElem.one(ctx), [f, g])
    if lift is None:
        raise NotCoprime("1 is not in the localized ideal (f, g)")
    return lift[0], lift[1]


def lift_pair(p, f, g):
    """(a, b) with p == a*f + b*g, or NotInIdeal."""
    lift = member_with_lift(p, [f, g])
    if lift is None:
        raise NotInIdeal("element is not in the localized ideal (f, g)")
    return lift[0], lift[1]


def koszul_divide(u, v, f, g):
    """Given u*f == v*g with (f, g) a regular pair, return w with
    u == w*g and v == w*f (the Koszul syzygy witness)."""
    ctx = _check_ctxs([u, v, f, g])
    if u * f != v * g:
        raise PreconditionViolated("koszul_divide: u*f != v*g")
    if g.is_zero() and f.is_zero():
        if u.is_zero() and v.is_zero():
            return LocElem.zero(ctx)
        raise NotRegularPair("(0, 0) admits no Koszul witness")
    if not g.is_zero():
        lift = member_with_lift(u, [g])
        if lift is None:
            raise NotRegularPair("u is not divisible by g in the localized ring")
        w = lift[0]
    else:
        lift = member_with_lift(v, [f])
        if lift is None:
            raise NotRegularPair("v is not divisible by f in the localized ring")
        w = lift[0]
    if w * g != u or w * f != v:
        raise NotRegularPair("Koszul witness failed exact verification")
    return w


# -- regular pairs -----------------------------------------------------------------

def _saturation_gens(ctx, p):
    """Polynomial generators of ((p) : u^infinity) in k[x], via T-elimination."""
    if not ctx.unit_keys():
        return [p]
    _, rel = _rabinowitsch(ctx)
    return _T_free(buchberger([_lift_poly(p), rel], ctx.nvars + 1,
                              key=elim_key(1)).basis)


def _colon_principal(gens, q, arity):
    """Generators of (gens) : (q) in k[x], q a nonzero polynomial."""
    # Intersect (gens) with (q) using an auxiliary last variable, then divide.
    t = Poly.variable(arity + 1, arity)
    one = Poly.const(arity + 1, 1)
    aux = [t * _lift_poly(g) for g in gens]
    aux.append((one - t) * _lift_poly(q))
    out = []
    for inter in _T_free(buchberger(aux, arity + 1, key=elim_key(1)).basis):
        quo = divide_exact(inter, q)
        if quo is None:
            raise AssertionError("intersection element not divisible by q")
        out.append(quo)
    return out


def regular_pair(f, g):
    """Is (f, g) a regular pair in the localized ring?

    Unit shortcut first; otherwise both must be nonzero and the saturated
    colon ((f) : g) must equal the saturated (f): each colon generator must
    lie in (f), which the basis `is_unit_ideal([f])` has just built decides.
    """
    ctx = _check_ctxs([f, g])
    if f.is_zero() and g.is_zero():
        return False
    if is_unit_ideal([f]) or is_unit_ideal([g]):
        return True
    if f.is_zero() or g.is_zero():
        return False
    sat = _saturation_gens(ctx, f.num)
    colon = _colon_principal(sat, g.num, ctx.nvars)
    return all(in_ideal(LocElem(ctx, c), [f]) for c in colon)
