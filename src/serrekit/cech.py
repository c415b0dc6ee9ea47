"""Cech machinery on the standard cover.

A degree-p cochain with values in (L*)^width assigns to every sorted
(p+1)-tuple of chart indices a width-tuple of localized elements.  The value
on a tuple lives on that tuple's overlap context (home = smallest index) and
is written in the trivialization of the LAST index of the tuple.

Differential convention (matching the transition-matrix calculus downstream):

    (d y)_{ij}   = y_j - h_ij y_i
    (d x)_{ijk}  = x_jk - x_ik + h_jk x_ij
    (d c)_{ijkl} = c_jkl - c_ikl + c_ijl - h_kl c_ijk

i.e. the alternating face sum where only the face dropping the LAST index
needs re-trivialization, by h_{last-1, last} of L = O(twist) (values are
L*-valued, and v_b = h_ab v_a re-trivializes them from a to b).

Writing a value v on the tuple K as the honest section sigma = v * x_last^-d
of O(-d), the twist disappears and the differential becomes the plain
simplicial one; in the monomial-denominator regime this turns coboundary
equations into finite exact linear systems, one per Laurent multidegree.
That regime is complete: solvable <=> solved, and unsolvable multidegrees are
reported as obstruction witnesses.  Outside it a bounded-degree ansatz is
tried and failure is only ever *inconclusive*.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, lcm
from operator import add

from .algebra import (LocElem, Poly, dot, from_laurent, qdiv, to_laurent,
                      transport)
from .errors import (Inconclusive, NotACocycle, Obstructed, PreconditionViolated,
                     ShapeViolation)


class CechCochain:
    """A sparse value table: each sorted chart tuple with a nonzero value
    maps to its width-tuple of localized elements, and `get` reads any
    other tuple as zero.  The table never changes after construction, so
    a cochain keeps its differential (see `differential`)."""

    def __init__(self, cover, lb, degree, width, data=None):
        if degree < 0:
            raise ShapeViolation("cochain degree must be >= 0")
        self.cover = cover
        self.lb = lb
        self.degree = degree
        self.width = width
        self.data = {}
        self._differential = None
        for key, val in (data or {}).items():
            key = tuple(key)
            if tuple(sorted(set(key))) != key or len(key) != degree + 1:
                raise ShapeViolation(f"bad cochain key {key}")
            val = tuple(val)
            if len(val) != width:
                raise ShapeViolation(f"value width mismatch on {key}")
            if any(not v.is_zero() for v in val):
                self.data[key] = val

    def ctx(self, key):
        return self.cover.ctx(key)

    def get(self, key):
        key = tuple(key)
        if key in self.data:
            return self.data[key]
        zero = LocElem.zero(self.ctx(key))
        return (zero,) * self.width

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, CechCochain):
            return NotImplemented
        if (self.cover is not other.cover or self.degree != other.degree
                or self.width != other.width):
            raise ValueError("cochain shape mismatch")
        return all(a == b for key in set(self.data) | set(other.data)
                   for a, b in zip(self.get(key), other.get(key)))

    def __hash__(self):
        raise TypeError("CechCochain is unhashable")

    def __repr__(self):
        body = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.data.items()))
        return f"CechCochain(deg={self.degree}, {{{body}}})"


def differential(c):
    """The twisted Cech differential described in the module docstring,
    computed once per cochain and kept on it."""
    if c._differential is not None:
        return c._differential
    cover, lb = c.cover, c.lb
    p = c.degree
    out = {}
    for key in itertools.combinations(cover.charts, p + 2):
        ctx = cover.ctx(key)
        # face m (key without its m-th index) has coefficient (-1)^m, times
        # the twist h on the last face; each value is one `dot`
        one = LocElem.one(ctx)
        coeffs = [one if m % 2 == 0 else -one for m in range(p + 1)]
        twist = lb.h(key[-2], key[-1], ctx)
        coeffs.append(-twist if (p + 1) % 2 else twist)
        moved = [[transport(v, ctx) for v in c.get(key[:m] + key[m + 1:])]
                 for m in range(p + 2)]
        out[key] = tuple(dot([vals[w] for vals in moved], coeffs, ctx)
                         for w in range(c.width))
    c._differential = CechCochain(cover, lb, p + 1, c.width, out)
    return c._differential


def is_cocycle(c):
    return differential(c).is_zero()


# -- exact solver -----------------------------------------------------------------

def _valid(alpha, key):
    return all(a >= 0 for k, a in enumerate(alpha) if k not in key)


def _monomial_sigmas(c):
    """Per component w, {key: Laurent dict of the honest O(-twist) section}
    of every stored value, each value expanded once; None at the first value
    outside the monomial regime (no expansion, or a pole outside its own
    key's coordinates)."""
    d = c.lb.twist
    sigmas = [{} for _ in range(c.width)]
    for key, vals in c.data.items():
        for w, v in enumerate(vals):
            lau = to_laurent(v)
            if lau is None:
                return None
            sigma = sigmas[w][key] = {}
            for alpha, coeff in lau.items():
                if not _valid(alpha, key):
                    return None
                shifted = list(alpha)
                shifted[key[-1]] -= d
                sigma[tuple(shifted)] = coeff
    return sigmas


_RHS = -1  # row-dict key of the right-hand side; columns are >= 0


def _solve_exact(rows, ncols):
    """Sparse Gauss-Jordan elimination over the rationals, on integer rows.

    rows: (coeff-dict {col: value}, rhs) pairs over columns 0..ncols-1, with
    int or Fraction values.  Each row is kept as a dict of its nonzero
    entries (rhs under the key _RHS); a row holding a Fraction is cleared of
    denominators once and divided by its content (the gcd of its entries).
    An index from each column (and _RHS) to the rows holding it limits every
    elimination step to the rows that hold the pivot column.  Pivots are
    taken in increasing column order; among the rows not yet used as
    pivots, the one with the fewest nonzeros wins, ties broken by row index.
    Pivot entry p clears entry f of another row by
    row <- (|p|/g)·row - (sign(p)·f/g)·pivot_row with g = gcd(p, f).  When
    p divides f (always for p = ±1) the row is not scaled and only the pivot
    row's columns change; a scaled row is divided by its content again, so
    every entry stays a small int.

    Each row is at every step a nonzero multiple of the row that elimination
    over Fractions, with every pivot scaled to 1, would hold, so the two
    have the same nonzero entries and take the same pivots.  Full
    elimination with column-ordered pivots reaches the unique reduced row
    echelon form, here up to one factor per row, so the pivot columns, and
    the solution with every free variable 0, read off as qdiv(rhs, pivot),
    do not depend on the row order, the pivot-row choice or the arithmetic.
    Returns that solution, each entry an int or a Fraction with denominator
    > 1, or None when the system is inconsistent: a non-pivot row of `live`
    reduces to a lone nonzero right-hand side, a rational combination of
    the input rows.
    """
    live = []
    holders = {}  # col or _RHS -> indices of the rows with a nonzero entry
    for i, (coeffs, rhs) in enumerate(rows):
        row = {j: a for j, a in coeffs.items() if a}
        if rhs:
            row[_RHS] = rhs
        if type(sum(row.values())) is not int:  # some entry is a Fraction
            m = lcm(*(a.denominator for a in row.values()))
            row = {j: (a * m).numerator for j, a in row.items()}
            g = gcd(*row.values())
            row = {j: a // g for j, a in row.items()}
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
        p = prow[col]
        for i in list(cands):
            if i == piv:
                continue
            row = live[i]
            f = row[col]
            scaled = f % p
            if scaled:
                a = abs(p) // gcd(p, f)
                for j in row:
                    row[j] *= a
                f *= a
            f //= p
            for j, x in prow.items():
                v = row.get(j, 0) - f * x
                if v:
                    if j not in row:
                        holders.setdefault(j, set()).add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
            if scaled:
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        used.add(piv)
        pivots.append((col, piv))
    # every column left in a non-pivot row was eliminated, so a right-hand
    # side that survives there reads 0 = rhs
    if holders.get(_RHS, set()) - used:
        return None
    sol = [0] * ncols
    for col, i in pivots:
        sol[col] = qdiv(live[i].get(_RHS, 0), live[i][col])
    return sol


def _solve_monomial(c, sigmas_by_w):
    """Complete solver for the monomial regime, on `_monomial_sigmas`.
    Returns the degree-(p-1) solution data, or raises Obstructed with a
    witness multidegree."""
    cover = c.cover
    p = c.degree
    keys = list(itertools.combinations(cover.charts, p + 1))
    unknowns_keys = list(itertools.combinations(cover.charts, p))
    out = {}
    for w, sigmas in enumerate(sigmas_by_w):
        degrees = set()
        for lau in sigmas.values():
            degrees.update(lau)
        solution_lau = {J: {} for J in unknowns_keys}
        for alpha in sorted(degrees):
            cols = [J for J in unknowns_keys if _valid(alpha, J)]
            col_index = {J: i for i, J in enumerate(cols)}
            rows = []
            for key in keys:
                coeffs = {}
                for m in range(p + 1):
                    face = key[:m] + key[m + 1:]
                    if face in col_index:
                        j = col_index[face]
                        sign = -1 if m % 2 else 1
                        coeffs[j] = coeffs.get(j, 0) + sign
                rhs = sigmas.get(key, {}).get(alpha, 0)
                rows.append((coeffs, rhs))
            sol = _solve_exact(rows, len(cols))
            if sol is None:
                raise Obstructed(
                    "coboundary equation is exactly unsolvable: the class at "
                    f"multidegree {alpha} (component {w + 1}) is a nonzero "
                    "obstruction",
                    component=w + 1, multidegree=alpha,
                    witness={"sections": {
                        ",".join(map(str, key)): str(sigmas[key][alpha])
                        for key in sigmas if alpha in sigmas[key]}})
            for J, i in col_index.items():
                if sol[i]:
                    solution_lau[J][alpha] = sol[i]
        for J, lau in solution_lau.items():
            if not lau:
                continue
            ctx = cover.ctx(J)
            d = c.lb.twist
            shifted = {}
            for alpha, coeff in lau.items():
                a = list(alpha)
                a[J[-1]] += d
                shifted[tuple(a)] = coeff
            val = from_laurent(shifted, ctx)
            prev = out.setdefault(J, [LocElem.zero(ctx)] * c.width)
            prev[w] = val
    return {J: tuple(v) for J, v in out.items()}


def _solve_ansatz(c, max_degree):
    """Bounded ansatz for the non-monomial regime: each unknown value is a
    generic numerator of bounded degree over a fixed unit-denominator.
    Success yields an exact solution; failure is only Inconclusive.

    The unknowns are read homogeneously.  On face J with home h, the unknown
    x^e / U_J^b (|e| <= d = max_degree on chart h) is hom / (x_h^d · U_J^b),
    where hom = x^e · x_h^(d - |e|) is a degree-d monomial.  Transport is a
    ring map, so on a key K every column of face J is F_JK · hom read on K's
    home chart (hom with K's home coordinate dropped).  F_JK is the moved
    ±1 / U_J^b (times h_{K[-2],K[-1]} on the last face), with d added to its
    c_h exponent when h is not K's home.  Over the common denominator D (the
    targets' denominators and every F_JK.den), each column is the one
    polynomial F_JK.num_over(D) shifted by that monomial.

    Lemma: for any common denominator D, the cleared identity
    D·Σ_col x_col·image_col = D·target is equivalent to the localized one,
    since k[x] is a domain and D is a unit, and a monomial shift of it only
    renames its equations.  So the system has the same solution set as one
    that transports every basis element and clears each component over its
    own common denominator.  The solution `_solve_exact` returns (the
    reduced row echelon form with every free variable 0) depends only on the
    solution set and the column order, and an inconsistent system has none
    either way; so both assemblies give the same xi, or both raise
    Inconclusive.  Each solved value is built once, as Σ sol·x^e over U_J^b:
    summing the terms one at a time re-expands every normalized partial sum
    to U_J^b exactly, so it normalizes the same pair at the end.
    """
    cover, lb = c.cover, c.lb
    p, d, width = c.degree, max_degree, c.width
    den_bound = max((e for vals in c.data.values() for v in vals
                     for e in v.den.values()), default=0) + abs(lb.twist)
    unknown_keys = list(itertools.combinations(cover.charts, p))

    # columns: face J, then hom (by degree, then combinations_with_replacement
    # of J's axes), then the component w
    homs = {}  # home chart -> its faces' degree-d monomials, in column order
    units = {}  # J -> U_J^b
    for J in unknown_keys:
        ctx = cover.ctx(J)
        h = ctx.home
        units[J] = {k: den_bound for k in ctx.unit_keys()} if den_bound else {}
        if h not in homs:
            homs[h] = [tuple(e.count(k) + (k == h) * (d - deg)
                             for k in range(ctx.dim + 1))
                       for deg in range(d + 1)
                       for e in itertools.combinations_with_replacement(
                           ctx.axes(), deg)]
    span = len(homs[h]) * width  # columns per face; every home has as many
    first = {J: i * span for i, J in enumerate(unknown_keys)}

    rows = []
    for key in itertools.combinations(cover.charts, p + 1):
        ctx = cover.ctx(key)
        k0 = ctx.home
        target = c.get(key)
        factors = []
        for m in range(p + 1):
            J = key[:m] + key[m + 1:]
            src = cover.ctx(J)
            F = transport(LocElem(src, Poly.const(src.nvars, 1), units[J]),
                          ctx)
            if m == p:
                F = F * lb.h(key[-2], key[-1], ctx)
            den = dict(F.den)
            if src.home != k0:
                ch = f"c{src.home}"
                den[ch] = den.get(ch, 0) + d
            factors.append((J, src.home, LocElem(
                ctx, F.num.scale(-1 if m % 2 else 1), den, normalize=False)))
        D = {}
        for v in (*target, *(F for _, _, F in factors)):
            for k, a in v.den.items():
                D[k] = max(D.get(k, 0), a)
        cols = []  # (its column for component 0, its terms)
        for J, h, F in factors:
            G = F.num_over(D).terms.items()
            for i, hom in enumerate(homs[h]):
                shift = hom[:k0] + hom[k0 + 1:]
                cols.append((first[J] + i * width,
                             [(tuple(map(add, t, shift)), a) for t, a in G]))
        for w in range(width):
            eqs = {}  # monomial -> {column: coefficient}
            for j, terms in cols:
                for mono, a in terms:
                    eqs.setdefault(mono, {})[j + w] = a
            rhs = target[w].num_over(D).terms
            for mono in rhs:
                eqs.setdefault(mono, {})
            rows.extend((coeffs, rhs.get(mono, 0))
                        for mono, coeffs in sorted(eqs.items()))

    sol = _solve_exact(rows, span * len(unknown_keys))
    if sol is None:
        raise Inconclusive(
            f"bounded ansatz (numerator degree <= {max_degree}) found no "
            "solution; the coboundary equation was not decided")
    out = {}
    for J in unknown_keys:
        ctx = cover.ctx(J)
        h = ctx.home
        vals = tuple(LocElem(ctx, Poly(ctx.nvars, {
            hom[:h] + hom[h + 1:]: sol[first[J] + i * width + w]
            for i, hom in enumerate(homs[h])}), units[J]) for w in range(width))
        if any(not v.is_zero() for v in vals):
            out[J] = vals
    return out


MAX_DEGREE = 8  # the default numerator-degree bound of `_solve_ansatz`


def coboundary_solve(c, max_degree=MAX_DEGREE):
    """Solve d(xi) = c exactly.

    The input must be a cocycle.  In the monomial-denominator regime the
    solver is complete and unsolvability raises Obstructed with the witness
    multidegree (the cohomology class).  Otherwise a bounded ansatz runs and
    failure raises Inconclusive.
    """
    if c.degree < 1:
        raise PreconditionViolated("cannot lower a degree-0 cochain")
    if not is_cocycle(c):
        raise NotACocycle("coboundary_solve target is not a cocycle")
    if c.is_zero():
        return CechCochain(c.cover, c.lb, c.degree - 1, c.width, {})
    # The per-multidegree system is sound and complete only when every value
    # expands to Laurent monomials whose poles stay inside its own key's
    # coordinates; registered section units can violate that, in which case
    # only the (never-conclusive) ansatz may run.
    sigmas = _monomial_sigmas(c)
    if sigmas is not None:
        data = _solve_monomial(c, sigmas)
    else:
        data = _solve_ansatz(c, max_degree)
    xi = CechCochain(c.cover, c.lb, c.degree - 1, c.width, data)
    if differential(xi) != c:
        raise AssertionError("coboundary solution failed re-verification")
    return xi


# -- line bundle cohomology dimensions ------------------------------------------

def cohomology_dim(ambient, twist, degree):
    """dim H^degree(P^n, O(twist)) by the classical Laurent-monomial count
    over the standard cover: H^0 counts monomials with all exponents >= 0,
    H^n those with all exponents <= -1, nothing in between."""
    n = ambient.dim
    if degree < 0 or degree > n:
        return 0
    if degree == 0:
        return comb(twist + n, n) if twist >= 0 else 0
    if degree == n:
        return comb(-twist - 1, n) if -twist - 1 >= n else 0
    return 0
