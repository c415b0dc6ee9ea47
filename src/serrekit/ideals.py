"""Groebner machinery with cofactor tracking and constructive ideal theory in
localized chart rings.

The ring of functions on a context's open set is k[x]_u with u the product of
the designated units.  A membership question whose answer needs a basis is
decided through the Rabinowitsch device: a fresh last variable T with the
relation 1 - T*u.  A T-free polynomial lies in (gens, 1 - T*u) exactly when
it lies in the saturation (gens) : u^infinity, i.e. in the localized ideal;
and because the Buchberger run tracks cofactors, specializing T -> 1/u turns
the certificate into exact localized cofactors.

A question with a unique answer needs no basis.  Exact-division lemma:
since k[x] is a UFD, a polynomial p is a unit of k[x]_u iff every prime
factor of p divides u, iff p divides u^N with N = deg p (no prime occurs in
p more than deg p times).  Likewise a/p lies in k[x]_u iff p divides
a*u^N with N = deg p.  So `invert` and `koszul_divide` each make one exact
division by a single polynomial, whose remainder is zero iff it divides,
and `is_unit_ideal` answers True at once when a generator's numerator is a
nonzero constant.  Division never loses information: every returned
identity is verified by exact re-multiplication before it escapes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from operator import sub

from .algebra import (LocElem, Poly, at_zero, dehomogenize, den_ratio,
                      divide, grevlex_key, lift_poly, qdiv, split_last)
from .errors import (NotCoprime, NotInIdeal, NotRegularPair,
                     PreconditionViolated)


# -- Buchberger with cofactors ---------------------------------------------------

class GroebnerBasis:
    """Monic basis together with rows expressing each element over the input
    generators: basis[i] == sum_j cofactors[i][j] * gens[j], exactly.
    `leads[i]` is the leading exponent of basis[i] under `key`, recorded
    once when `buchberger` pushed the element."""

    __slots__ = ("arity", "gens", "basis", "cofactors", "key", "leads")

    def __init__(self, arity, gens, basis, cofactors, key, leads):
        self.arity = arity
        self.gens = tuple(gens)
        self.basis = tuple(basis)
        self.cofactors = tuple(tuple(r) for r in cofactors)
        self.key = key
        self.leads = tuple(leads)

    def reduce(self, p):
        """Full division: returns (cofactors_over_gens, remainder) with
        p == sum(cof[j] * gens[j]) + remainder."""
        rem, q = divide(p, self.basis, self.leads, self.key)
        zeros = [Poly.zero(self.arity) for _ in self.gens]
        return _fold(zeros, q, self.cofactors), rem


def _fold(row, q, rows):
    """The row row[j] + sum_i q[i] * rows[i][j]: quotients carried onto
    cofactor rows."""
    row = list(row)
    for qi, qrow in zip(q, rows):
        if qi.is_zero():
            continue
        for j, c in enumerate(qrow):
            if not c.is_zero():
                row[j] = row[j] + qi * c
    return row


def buchberger(gens, arity, key=None):
    """Groebner basis with cofactor rows; normal pair selection and the
    coprime leading-term criterion.

    Each basis element's leading exponent is taken once, when the element
    is pushed, and every division reuses it.  The lcm of a pair is computed
    once, when the pair is formed; a pair whose leading terms are coprime
    (its s-polynomial reduces to zero) is dropped there.  The others wait in
    a heap keyed by (key(lcm), insertion index): the smallest lcm comes
    first, and pairs with equal lcms leave in the order they were formed.
    """
    key = key or grevlex_key
    m = len(gens)
    basis = []       # monic polynomials
    leads = []       # leading exponent of each basis element
    rows = []        # cofactor rows over gens
    pairs = []       # heap of (key(lcm), insertion index, i, j, lcm)
    formed = count()

    def reduce_tracked(p, prow):
        rem, q = divide(p, basis, leads, key)
        return rem, _fold(prow, [-qi for qi in q], rows)

    def push(p, row):
        le = max(p.terms, key=key)
        k = len(basis)
        for i, a in enumerate(leads):
            if any(map(min, a, le)):  # else coprime: never queued
                lcm = tuple(map(max, a, le))
                heappush(pairs, (key(lcm), next(formed), i, k, lcm))
        inv = qdiv(1, p.terms[le])
        basis.append(p.scale(inv))
        leads.append(le)
        rows.append([r.scale(inv) for r in row])

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        row = [Poly.zero(arity) for _ in range(m)]
        row[j] = Poly.const(arity, 1)
        rem, row = reduce_tracked(g, row)
        if not rem.is_zero():
            push(rem, row)

    while pairs:
        _, _, i, j, lcm = heappop(pairs)
        ta = Poly.monomial(arity, tuple(map(sub, lcm, leads[i])), 1)
        tb = Poly.monomial(arity, tuple(map(sub, lcm, leads[j])), 1)
        s = ta * basis[i] - tb * basis[j]
        srow = [ta * x - tb * y for x, y in zip(rows[i], rows[j])]
        rem, row = reduce_tracked(s, srow)
        if not rem.is_zero():
            push(rem, row)

    return GroebnerBasis(arity, gens, basis, rows, key, leads)


# -- saturation (Rabinowitsch) ----------------------------------------------------

def _unit_product(ctx):
    """The product u of the context's unit polynomials, in key order."""
    u = Poly.const(ctx.nvars, 1)
    for k in ctx.unit_keys():
        u = u * ctx.unit_poly(k)
    return u


def _rabinowitsch(ctx):
    """(u, 1 - T*u): the product u of the context's units and its
    Rabinowitsch relation in k[x, T], T a new last variable."""
    n = ctx.nvars
    u = _unit_product(ctx)
    return u, Poly.const(n + 1, 1) - Poly.variable(n + 1, n) * lift_poly(u)


def _sat_gb(ctx, nums):
    """Groebner data for the saturated ideal of `nums` in the context's
    localized ring, kept in the context's memo under `nums` in order, so it
    lives as long as the cover that built the context.  Returns
    (gb, u_poly_or_None); when u is present the gb lives in k[x, T] with
    generators nums' + [1 - T*u], T last.
    """
    key = ("saturation", nums)
    hit = ctx._memo.get(key)
    if hit is not None:
        return hit
    if not ctx.unit_keys():
        out = (buchberger(list(nums), ctx.nvars), None)
    else:
        u, rel = _rabinowitsch(ctx)
        gb = buchberger([lift_poly(g) for g in nums] + [rel], ctx.nvars + 1)
        out = (gb, u)
    ctx._memo[key] = out
    return out


def _check_ctxs(elems):
    ctx = elems[0].ctx
    for e in elems[1:]:
        if e.ctx != ctx:
            raise ValueError("mixed contexts; transport first")
    return ctx


def member_with_lift(p, gens):
    """Exact localized membership with certificate.

    Returns LocElems a_m with p == sum(a_m * gens[m]) in the localized ring,
    or None if p is not a member.  Complete: saturation is built in.  Zero
    lifts to zeros with no basis.
    """
    ctx = _check_ctxs([p] + list(gens))
    if p.is_zero():
        return [LocElem.zero(ctx) for _ in gens]
    gb, u = _sat_gb(ctx, tuple(g.num for g in gens))
    cof, rem = gb.reduce(lift_poly(p.num) if u is not None else p.num)
    if not rem.is_zero():
        return None
    ukeys = ctx.unit_keys()
    out = []
    for m, g in enumerate(gens):
        c = cof[m]
        if u is None:
            a = LocElem(ctx, c)
        else:
            pieces = split_last(c)
            if pieces:
                top = max(pieces)
                num = Poly.zero(ctx.nvars)
                for j, cj in pieces.items():
                    num = num + cj * u ** (top - j)
                a = LocElem(ctx, num, {k: top for k in ukeys} if top else {})
            else:
                a = LocElem.zero(ctx)
        # clear the generator/target denominators: a * U_m / U_p
        out.append(a.times_units(den_ratio(g, p)))
    # paranoia: the certificate is an exact identity or it does not leave
    acc = LocElem.zero(ctx)
    for a, g in zip(out, gens):
        acc = acc + a * g
    if acc != p:
        raise AssertionError("membership certificate failed re-verification")
    return out


def in_ideal(p, gens):
    """Is p in the localized ideal of gens?  Only the remainder of a
    division by the saturated basis (`_sat_gb`) is needed, so no cofactor
    is carried back."""
    ctx = _check_ctxs([p] + list(gens))
    gb, u = _sat_gb(ctx, tuple(g.num for g in gens))
    num = lift_poly(p.num) if u is not None else p.num
    return divide(num, gb.basis, gb.leads, gb.key)[0].is_zero()


def is_unit_ideal(gens):
    """Do gens generate the unit ideal?  A generator whose numerator is a
    nonzero constant is a unit and decides it with no basis."""
    ctx = _check_ctxs(list(gens))
    if any(g.num.is_constant() and not g.is_zero() for g in gens):
        return True
    return in_ideal(LocElem.one(ctx), gens)


def _quotient(a, b):
    """a / b in the localized ring, or None when it is not regular there; b
    is nonzero.  One exact division (module docstring): with N = deg b.num
    and u the unit product, b.num divides a.num * u^N iff the quotient
    exists, and then a / b = (q / u^N) * (b.den / a.den)."""
    ctx = b.ctx
    n = b.num.total_degree()
    lead = max(b.num.terms, key=grevlex_key)
    q = divide(a.num * _unit_product(ctx) ** n, (b.num,), (lead,),
               grevlex_key, exact=True)
    if q is None:
        return None
    return LocElem(ctx, q[0], {k: n for k in ctx.unit_keys()} if n else {}
                   ).times_units(den_ratio(b, a))


def invert(e):
    """Exact inverse in the localized ring, or None if e is not invertible."""
    if e.is_zero():
        return None
    one = LocElem.one(e.ctx)
    inv = _quotient(one, e)
    if inv is not None and inv * e != one:
        raise AssertionError("inverse failed re-verification")
    return inv


def ideal_equal(gens_a, gens_b):
    """Do two generator lists span the same localized ideal?"""
    ctx = _check_ctxs(list(gens_a) + list(gens_b))
    zero = LocElem.zero(ctx)
    a = [g for g in gens_a if not g.is_zero()] or [zero]
    b = [g for g in gens_b if not g.is_zero()] or [zero]
    return (all(in_ideal(g, b) for g in a)
            and all(in_ideal(g, a) for g in b))


def unit_certificate(f, g):
    """(u, v) with u*f + v*g == 1, or NotCoprime.

    When f's numerator is a nonzero constant c, the answer is (1/f, 0) with
    no basis, and it is the Groebner answer: `buchberger` pushes its first
    generator, c, unreduced, so the monic basis[0] is 1, and `divide`
    takes the first basis element whose lead divides, so 1 lifts to
    (1/c, 0, ...) before the shift by f's denominator, which is 1/f.
    `invert` re-checks (1/f)*f == 1."""
    ctx = _check_ctxs([f, g])
    if f.num.is_constant() and not f.is_zero():
        return invert(f), LocElem.zero(ctx)
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
    u == w*g and v == w*f (the Koszul syzygy witness).  w is unique, so it
    is one exact division (`_quotient`), re-checked against both sides."""
    ctx = _check_ctxs([u, v, f, g])
    if u * f != v * g:
        raise PreconditionViolated("koszul_divide: u*f != v*g")
    if g.is_zero() and f.is_zero():
        if u.is_zero() and v.is_zero():
            return LocElem.zero(ctx)
        raise NotRegularPair("(0, 0) admits no Koszul witness")
    if not g.is_zero():
        w = _quotient(u, g)
        if w is None:
            raise NotRegularPair("u is not divisible by g in the localized ring")
    else:
        w = _quotient(v, f)
        if w is None:
            raise NotRegularPair("v is not divisible by f in the localized ring")
    if w * g != u or w * f != v:
        raise NotRegularPair("Koszul witness failed exact verification")
    return w


# -- regular pairs -----------------------------------------------------------------

def _dimension(gb):
    """Krull dimension of k[vars]/(gb.basis), -1 for the unit ideal: the
    size of the largest set of variables that contains the support of no
    leading monomial (dim k[x]/J == dim k[x]/in(J) under a graded order)."""
    supports = {sum(1 << i for i, a in enumerate(e) if a) for e in gb.leads}
    return max((s.bit_count() for s in range(1 << gb.arity)
                if all(m & ~s for m in supports)), default=-1)


def regular_pair(f, g):
    """Is (f, g) a regular pair in the localized ring k[x]_u?  The unit
    ideal counts as regular.

    k[x]_u is an affine domain of dimension n and a UFD.  For nonzero
    non-units every minimal prime of (f, g) has height 1 or 2 (Krull), and a
    height-1 prime is principal, generated by a common non-unit factor, which
    is exactly what makes g a zero-divisor modulo f.  So a proper (f, g) is
    regular iff it has no height-1 minimal prime, iff dim k[x]_u/(f, g) is
    n - 2.  (0, 0) has dimension n and (0, non-unit) n - 1: not regular.
    The dimension is read from the leading monomials of the saturated basis,
    which `is_unit_ideal([f, g])` has usually just built; in k[x, T] with the
    Rabinowitsch relation, k[x, T]/J is k[x]_u/(f, g).
    """
    ctx = _check_ctxs([f, g])
    gb, _ = _sat_gb(ctx, (f.num, g.num))
    dim = _dimension(gb)
    return dim < 0 or dim == ctx.nvars - 2


def regular_hyperplane(F, G, j):
    """Is the hyperplane x_j = 0 regular: are F_j and G_j, the forms F and
    G of P^n with x_j := 0, nonzero and a regular sequence in the other n
    coordinates?  For two nonzero forms that is dim k[..]/(F_j, G_j) ==
    n - 2, as in `regular_pair` (a constant gives the unit ideal, of
    dimension -1), read from one basis with no Rabinowitsch variable and no
    memo.  `cover.load_subscheme` states what a regular hyperplane
    decides."""
    Fj, Gj = (dehomogenize(at_zero(e, j), j) for e in (F, G))
    if Fj.is_zero() or Gj.is_zero():
        return False
    return _dimension(buchberger([Fj, Gj], Fj.arity)) == Fj.arity - 2
