"""Exact arithmetic layer.

Sparse multivariate polynomials over Q, localized elements (a polynomial
numerator over a monomial-in-designated-units denominator), chart contexts,
transport of localized elements between contexts, and dense little matrices
over localized elements.

Everything is exact: a stored coefficient is an `int`, or a
`fractions.Fraction` whose denominator is greater than 1 (an integral value
is always kept as an `int`, which `_canon` ensures), every coefficient
division goes through `qdiv`, all comparisons are symbolic identities
(localized elements over equal denominators compare numerators, others
cross-multiply), and no tolerance appears anywhere.  `3 == Fraction(3)`,
their hashes agree and both print as "3", so the two forms of one value are
interchangeable everywhere but in speed.  Arithmetic trusts the terms it
has just computed (`Poly._of`, `LocElem._of`); input from parsers and
documents goes through the checking `Poly(...)` and `LocElem(...)`
constructors.

Conventions
-----------
* A *context* records where an element lives: the dimension n of P^n, the
  set of chart indices whose intersection we are working on, the *home*
  chart whose coordinates are used for numerators, and the designated units
  that may appear in denominators.
* On the chart ``home = h`` of P^n the variables are the dehomogenized
  coordinates ``x_k`` for ``k != h`` (meaning ``x_k / x_h``).
* Designated units carry string keys: ``"c<k>"`` is the coordinate unit
  ``x_k / x_home`` (available when chart ``k`` belongs to the context) and
  ``"s<c>"`` is the registered section unit of chart ``c``.
* Moving between charts goes through exponent vectors over the homogeneous
  coordinates x_0 .. x_n.  On P^n a localized element is read as
  ``e = form · x^γ / ∏ s_c^{m_c}`` (`_homogeneous_reading`): ``form`` is its
  homogenized numerator, ``γ`` collects the home and coordinate-unit powers
  and ``s_c`` is the homogeneous form of the section unit of chart c.  A
  degree-0 vector ``α`` is read back on a chart by `chart_monomial`, which
  sends its negative entries to coordinate-unit denominators.  The line
  bundle O(d) has transitions ``h_ij = x^{d(e_j − e_i)}``, with ``e_k`` the
  k-th unit vector.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb
from operator import add, sub

from .errors import PreconditionViolated


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order (max = leading)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _canon(c):
    """An exact coefficient in stored form: an integral Fraction becomes its
    int, anything else (an int, a Fraction with denominator > 1) is kept."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def qdiv(a, b):
    """a / b for int or Fraction coefficients, in stored form: an int when
    the quotient is integral, else a Fraction.  The only coefficient
    division in the package: `int / int` would give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canon(Fraction(a) / b)


class Poly:
    """Sparse polynomial with exact rational coefficients and a fixed
    variable count.

    Terms map exponent tuples (length == arity) to nonzero coefficients, each
    an int or a Fraction with denominator > 1 (see the module docstring and
    `qdiv`).  The zero polynomial has an empty term dict.  Instances are
    treated as immutable; all operations return new objects.  `Poly(arity, terms)`
    checks and cleans its input; `Poly._of` does not (see there).
    """

    __slots__ = ("arity", "terms", "_hash")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != arity:
                    raise ValueError(f"term arity {len(exps)} != {arity}")
                if type(coeff) is not int:
                    coeff = _canon(Fraction(coeff))
                if coeff:
                    clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None

    @classmethod
    def _of(cls, arity, terms):
        """Trusted constructor for terms this module has just computed.

        Contract: `terms` is a dict that nothing else references, every key
        is a tuple of `arity` ints and every value a nonzero coefficient in
        stored form: an int, or a Fraction with denominator > 1.
        Nothing is checked, so only code inside this module may call it;
        input from parsers and documents goes through `Poly(...)`.
        """
        p = cls.__new__(cls)
        p.arity = arity
        p.terms = terms
        p._hash = None
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls._of(arity, {})

    @classmethod
    def const(cls, arity, value):
        return cls.monomial(arity, (0,) * arity, value)

    @classmethod
    def variable(cls, arity, index):
        exps = [0] * arity
        exps[index] = 1
        return cls._of(arity, {tuple(exps): 1})

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        """coeff · x^exps, the zero polynomial when coeff is 0; checked and
        stored as `Poly(arity, {exps: coeff})` would be."""
        exps = tuple(exps)
        if len(exps) != arity:
            raise ValueError(f"term arity {len(exps)} != {arity}")
        if type(coeff) is not int:
            coeff = _canon(Fraction(coeff))
        return cls._of(arity, {exps: coeff} if coeff else {})

    # -- predicates and views ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.arity}

    def total_degree(self):
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in descending grevlex order (canonical print order)."""
        return [(e, self.terms[e]) for e in
                sorted(self.terms, key=grevlex_key, reverse=True)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._chk(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s if type(s) is int else _canon(s)
            else:
                del terms[e]
        return Poly._of(self.arity, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly._of(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        # a class test first: `Fraction` is an ABC, so `isinstance` is slow
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._chk(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        for e, s in terms.items():
            if type(s) is not int:
                terms[e] = _canon(s)
        return Poly._of(self.arity, terms)

    __rmul__ = __mul__

    def scale(self, c):
        if type(c) is not int:
            c = _canon(Fraction(c))
        if not c:
            return Poly.zero(self.arity)
        if c == 1:
            return Poly._of(self.arity, dict(self.terms))
        return Poly._of(self.arity, {e: _canon(c * v)
                                     for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.const(self.arity, 1)
        out, base = None, self      # square and multiply
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def _chk(self, other):
        if not isinstance(other, Poly) or other.arity != self.arity:
            raise TypeError("polynomial arity mismatch")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({self.arity}, {format_poly(self)})"


def divide(p, basis, leads, key, exact=False):
    """Divide p by the basis list, the package's one polynomial division;
    returns (remainder, per-basis quotients).

    `leads[i]` is the leading exponent of basis[i] under `key`.  Each step
    takes the leading term of what is left of p and divides it by the first
    basis element whose leading term divides it, or moves it to the
    remainder when none does.  The work happens on one mutable remainder
    dict and one quotient dict per basis element; the order key of each
    monomial is computed once per division.  A subtraction can leave an
    integral Fraction in that dict, so `_canon` stores remainder terms.

    With `exact`, only the quotients are returned, or None at the first
    term that moves to the remainder.  A term moved there is never
    cancelled (every later term is smaller), so None comes exactly when the
    full remainder is nonzero, and otherwise the quotients are the same.
    """
    keys = {e: key(e) for e in p.terms}
    r = dict(p.terms)
    rem = {}
    q = [{} for _ in basis]
    while r:
        re = max(r, key=keys.__getitem__)
        rc = r.pop(re)
        for i, be in enumerate(leads):
            d = tuple(map(sub, re, be))
            if min(d) >= 0:
                break
        else:
            if exact:
                return None
            rem[re] = _canon(rc)
            continue
        b = basis[i].terms
        c = qdiv(rc, b[be])
        q[i][d] = c
        for e2, c2 in b.items():
            if e2 == be:
                continue  # cancels the popped leading term exactly
            e = tuple(map(add, d, e2))
            s = r.get(e)
            if s is None:
                if e not in keys:
                    keys[e] = key(e)
                r[e] = -(c * c2)
            else:
                s -= c * c2
                if s:
                    r[e] = s
                else:
                    del r[e]
    n = p.arity
    quotients = [Poly._of(n, t) for t in q]
    return quotients if exact else (Poly._of(n, rem), quotients)


def _cancel_variable(p, pos, cap):
    """(p / x^m, m) for the variable x at position pos and the largest m at
    most cap with x^m dividing the nonzero polynomial p."""
    m = min(cap, *(e[pos] for e in p.terms))
    if not m:
        return p, 0
    return Poly._of(p.arity, {e[:pos] + (e[pos] - m,) + e[pos + 1:]: c
                              for e, c in p.terms.items()}), m


def at_zero(p, pos):
    """p with the variable at position pos set to 0: its terms free of
    that variable."""
    return Poly._of(p.arity, {e: c for e, c in p.terms.items() if not e[pos]})


def lift_poly(p):
    """p in k[x] read in k[x, T], T a new last variable."""
    return Poly._of(p.arity + 1, {e + (0,): c for e, c in p.terms.items()})


def split_last(p):
    """{j: the coefficient of T^j in k[x]} for p in k[x, T], T its last
    variable; only the j with a nonzero coefficient appear."""
    out = {}
    for e, c in p.terms.items():
        out.setdefault(e[-1], {})[e[:-1]] = c
    return {j: Poly._of(p.arity - 1, t) for j, t in out.items()}


# -- printing and parsing ---------------------------------------------------

def default_names(arity):
    return tuple(f"x{i}" for i in range(arity))


def format_poly(p, names=None):
    """Canonical string: terms in descending grevlex, '^' powers, '*' products."""
    names = names or default_names(p.arity)
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.sorted_terms():
        mono = "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i]
            for i, e in enumerate(exps) if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


_DIGITS = "0123456789"   # str.isdigit would also take other scripts' digits


class _Parser:
    """Recursive-descent polynomial reader, whose methods make no cycle."""

    def __init__(self, text, names):
        self.names, self.arity, self.work = names, len(names), 0
        self.index = {n: i for i, n in enumerate(names)}
        self.toks, i = [], 0
        while i < len(text):
            ch, j = text[i], i + 1
            if ch in _DIGITS:
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.toks.append(("int", text[i:j]))
            elif ch.isalpha() or ch == "_":
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
            elif ch in "+-*^()/":
                self.toks.append((ch, ch))
            elif not ch.isspace():
                raise ValueError(f"unexpected character {ch!r} in polynomial")
            i = j
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def charge(self, work):
        self.work += work
        if self.work > MAX_WORK:
            raise ValueError(f"total expansion exceeds the bound {MAX_WORK}")

    def expr(self, depth):
        kind = self.peek()[0]
        if kind in ("+", "-"):
            self.next()
        node = self.term(depth).scale(-1 if kind == "-" else 1)
        while (kind := self.peek()[0]) in ("+", "-"):
            self.next()
            term = self.term(depth)
            node = node + term if kind == "+" else node - term
        return node

    def term(self, depth):
        node = self.factor(depth)
        while self.peek()[0] == "*":
            self.next()
            factor = self.factor(depth)
            if len(node.terms) * len(factor.terms) > MAX_TERMS:
                raise ValueError(
                    f"product of {len(node.terms)} and {len(factor.terms)} "
                    f"terms exceeds the bound {MAX_TERMS} on terms")
            self.charge(len(node.terms) * len(factor.terms))
            node = node * factor
        return node

    def factor(self, depth):
        base = self.base(depth)
        if self.peek()[0] != "^":
            return base
        self.next()
        kind, val = self.next()
        if kind != "int":
            raise ValueError("exponent must be an integer literal")
        n = int(val)
        if max(n, base.total_degree() * n) > MAX_POWER:
            raise ValueError(
                f"power {n} of a degree-{base.total_degree()} polynomial "
                f"exceeds the bound {MAX_POWER} on exponent and degree")
        v = sum(1 for k in range(self.arity) if any(e[k] for e in base.terms))
        monomials = comb(v + max(base.total_degree(), 0) * n, v)
        if monomials > MAX_TERMS:
            raise ValueError(
                f"power {n} of a polynomial in {v} variables may have "
                f"more than {MAX_TERMS} terms")
        self.charge(monomials)
        return base ** n

    def base(self, depth):
        kind, val = self.next()
        if kind in ("(", "-") and depth == MAX_NESTING:
            raise ValueError("polynomial nests parentheses or signs more "
                             f"than {MAX_NESTING} deep")
        if kind == "(":
            node = self.expr(depth + 1)
            if self.next()[0] != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if kind == "-":
            return -self.base(depth + 1)
        if kind == "int":
            num = int(val)
            if self.peek()[0] == "/":
                self.next()
                kind2, val2 = self.next()
                if kind2 != "int":
                    raise ValueError("'/' only between integer literals")
                den = int(val2)
                if den == 0:
                    raise ValueError(f"division by zero in {num}/{val2}")
                return Poly.const(self.arity, Fraction(num, den))
            return Poly.const(self.arity, num)
        if kind == "name":
            if val not in self.index:
                raise ValueError(f"unknown variable {val!r} (have {self.names})")
            return Poly.variable(self.arity, self.index[val])
        raise ValueError("malformed polynomial expression")


# Deepest nesting of parentheses and unary minus signs `parse_poly` accepts;
# each level costs the recursive-descent parser a few stack frames, so
# deeper input would exhaust the interpreter's recursion limit.
MAX_NESTING = 100

# Largest exponent, and largest degree of a power `base ^ n`, that
# `parse_poly` expands; checked before expanding, since a short input such
# as "(x0+x1+x2)^100" would otherwise build thousands of terms.
MAX_POWER = 32

# Most term products `parse_poly` forms in one multiplication, and most
# monomials a power may have: a base in v variables raised to degree D has at
# most C(v + D, v) of them, so "(x0+...+x11)^8" is refused before it builds
# 75,582 terms.
MAX_TERMS = 2_000

# Most term products and power monomials one `parse_poly` call forms in all,
# so that twenty copies of "(1+x0+x1+x2)^20" are not each expanded.
MAX_WORK = 4 * MAX_TERMS


def parse_poly(text, names):
    """Parse '+ - * ^ ( )' polynomial syntax over the given variable names.

    Integer and a/b rational literals are allowed; '/' is only permitted
    between integer literals.  Implicit multiplication is not supported.
    Parentheses and unary minus signs nest at most MAX_NESTING deep, and a
    power `base ^ n` needs n and deg(base)·n at most MAX_POWER.  A product
    a·b needs len(a.terms)·len(b.terms) at most MAX_TERMS, and so does the
    monomial count C(v + deg(base)·n, v) of a power whose base uses v
    variables; they sum to at most MAX_WORK, and every bound is checked first.
    """
    parser = _Parser(str(text), names)
    out = parser.expr(0)
    if parser.peek()[0] is not None:
        raise ValueError(f"trailing input in polynomial: {text!r}")
    return out


# -- homogenization ----------------------------------------------------------

def homogenize(p, home, dim):
    """Chart polynomial -> (homogeneous form in dim+1 variables, its degree).

    Chart variables are the coordinates x_k (k != home) in increasing k; the
    missing degree on each term is absorbed by x_home.
    """
    axes = [k for k in range(dim + 1) if k != home]
    if p.arity != dim:
        raise ValueError("chart polynomial arity mismatch")
    deg = max(p.total_degree(), 0)
    terms = {}
    for e, c in p.terms.items():
        full = [0] * (dim + 1)
        for pos, k in enumerate(axes):
            full[k] = e[pos]
        full[home] = deg - sum(e)
        terms[tuple(full)] = c
    return Poly._of(dim + 1, terms), deg


def dehomogenize(form, home):
    """Set x_home = 1 in a form of P^n, yielding a chart-home polynomial."""
    n1 = form.arity
    terms = {}
    for e, c in form.terms.items():
        chart = tuple(e[k] for k in range(n1) if k != home)
        s = terms.get(chart)
        terms[chart] = c if s is None else s + c
    return Poly._of(n1 - 1, {e: _canon(c) for e, c in terms.items() if c})


def is_homogeneous(form):
    degs = {sum(e) for e in form.terms}
    return len(degs) <= 1


# -- contexts ----------------------------------------------------------------

# A registered section unit: the chart it belongs to, its homogeneous
# representative (a form in n+1 variables) and that form's degree.
SUnit = namedtuple("SUnit", "chart form degree")


class Context:
    """The ring of the overlap U_I (I = `indices`) of P^dim on the home
    chart: its coordinates, with x_k / x_home (k in I) and the section units
    of the charts in I inverted.  `sunits` keeps only those charts' units,
    since no other unit is invertible on U_I, so two contexts are equal
    exactly when their rings are."""

    def __init__(self, dim, home, indices, sunits=()):
        if tuple(sorted(indices)) != indices:
            raise ValueError("context indices must be sorted")
        if home not in indices:
            raise ValueError("home chart must belong to the context")
        self.dim = dim
        self.home = home
        self.indices = indices      # sorted chart indices of the overlap
        # SUnit of the charts in indices, sorted by chart
        self.sunits = tuple(u for u in sunits if u.chart in indices)
        # axes and the saturated bases of `ideals._sat_gb` in `_memo`, unit
        # polynomials in `_units`, each computed once; they stay out of ==
        # and hash (nothing changes the four fields above)
        self._memo = {"axes": tuple(k for k in range(dim + 1) if k != home)}
        self._units = {}

    def __eq__(self, other):
        # field-wise, after an identity test: contexts come from `Cover.ctx`,
        # so the two sides are nearly always one object
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.dim, self.home, self.indices, self.sunits)
                == (other.dim, other.home, other.indices, other.sunits))

    def __hash__(self):
        return hash((self.dim, self.home, self.indices, self.sunits))

    @property
    def nvars(self):
        return self.dim

    def axes(self):
        """Homogeneous coordinate index carried by each chart variable."""
        return self._memo["axes"]

    def var_names(self):
        return tuple(f"x{k}" for k in self.axes())

    def unit_keys(self):
        """Deterministic unit order: coordinate units by index, then section
        units by chart."""
        keys = [f"c{k}" for k in self.indices if k != self.home]
        keys += [f"s{u.chart}" for u in self.sunits]
        return tuple(keys)

    def unit_poly(self, key):
        """The unit as a polynomial in this context's variables; KeyError for
        anything but one of `unit_keys()`."""
        u = self._units.get(key)
        if u is None:
            if key not in self.unit_keys():
                raise KeyError(key)
            k = int(key[1:])
            u = self._units[key] = (
                Poly.variable(self.nvars, self.axes().index(k))
                if key[0] == "c" else dehomogenize(self.sunit(k).form,
                                                   self.home))
        return u

    def sunit(self, chart):
        for u in self.sunits:
            if u.chart == chart:
                return u
        raise KeyError(f"s{chart}")

    def format(self, p):
        return format_poly(p, self.var_names())


def _normalize(ctx, num, den):
    """(num, den) in normal form (see `LocElem`); `den` is changed in place."""
    if num.is_zero():
        return num, {}
    for key in sorted(den, key=_unit_sort):
        if key[0] == "c":
            num, m = _cancel_variable(
                num, ctx.axes().index(int(key[1:])), den[key])
            den[key] -= m
        else:
            u = ctx.unit_poly(key)
            lead = (max(u.terms, key=grevlex_key),)
            while den[key] > 0:
                q = divide(num, (u,), lead, grevlex_key, exact=True)
                if q is None:
                    break
                num, = q
                den[key] -= 1
        if den[key] == 0:
            del den[key]
    return num, den


def _is_one(p):
    """Is the polynomial p the constant 1?"""
    if len(p.terms) != 1:
        return False
    (e, c), = p.terms.items()
    return c == 1 and not any(e)


def _unit_sort(key):
    # Section units sort before coordinate units: extracting the (possibly
    # non-monomial) section forms first keeps greedy cancellation from eating
    # their monomial factors prematurely.
    return (0 if key[0] == "s" else 1, int(key[1:]))


class LocElem:
    """num / prod(unit^e): a regular function on the context's open set.

    `den` maps unit keys to int exponents (zeros are dropped; a negative
    one, a bool, float or string raises ValueError).  Construction normalizes:
    a zero numerator clears the denominator; otherwise, in the fixed key
    order, each section unit is cancelled greedily, one exact division at a
    time, and each coordinate unit x_k at once, by the least power of x_k
    over the numerator's terms (capped by its exponent).  The form is
    canonical among coordinate-unit denominators and greedy-deterministic
    with section units; `normalize=False` keeps (num, den) as given.  `==`
    compares numerators when the `den` dicts are equal (sound for any form:
    units are not zero-divisors), answers "both zero" when either numerator
    is zero, and cross-multiplies otherwise.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=None, normalize=True):
        if num.arity != ctx.nvars:
            raise ValueError("numerator arity does not match context")
        clean = {}
        for key, e in (den or {}).items():
            if type(e) is not int:  # no float, str or bool is coerced
                raise ValueError(f"denominator exponent {e!r} is not an int")
            if e < 0:
                raise ValueError("denominator exponents must be positive")
            ctx.unit_poly(key)  # raises KeyError if unavailable, even for 0
            if e:
                clean[key] = e
        if normalize:
            num, clean = _normalize(ctx, num, clean)
        self.ctx = ctx
        self.num = num
        self.den = clean

    @classmethod
    def _of(cls, ctx, num, den, normalize=True):
        """Normalizing constructor for arithmetic results, with no checks;
        `normalize=False` keeps (num, den) as given, as in `LocElem(...)`.

        Contract: `num` has the context's arity, and `den` is a dict that
        nothing else references, keyed by unit keys of `ctx` with positive
        int exponents: it was assembled from the `den`s of elements already
        on `ctx` (or, for a transport, of an element on a context that `ctx`
        refines).  Only this module may call it; input from parsers and
        documents goes through `LocElem(...)`.
        """
        e = cls.__new__(cls)
        e.ctx = ctx
        e.num, e.den = _normalize(ctx, num, den) if normalize else (num, den)
        return e

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls._of(ctx, Poly.zero(ctx.nvars), {})

    @classmethod
    def one(cls, ctx):
        return cls(ctx, Poly.const(ctx.nvars, 1))

    @classmethod
    def const(cls, ctx, value):
        return cls(ctx, Poly.const(ctx.nvars, value))

    # -- views ---------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def den_poly(self):
        out = Poly.const(self.ctx.nvars, 1)
        for key in sorted(self.den, key=_unit_sort):
            out = out * (self.ctx.unit_poly(key) ** self.den[key])
        return out

    def num_over(self, den):
        """The numerator of self over `den`, a multiple of self.den."""
        num = self.num
        for k, e in den.items():
            a = e - self.den.get(k, 0)
            if a:
                num = num * self.ctx.unit_poly(k) ** a
        return num

    def times_units(self, exps):
        """self * prod(unit^exps[k]), integer exponents of either sign."""
        num = self.num
        den = dict(self.den)
        for k, a in exps.items():
            if a > 0:
                num = num * self.ctx.unit_poly(k) ** a
            elif a < 0:
                den[k] = den.get(k, 0) - a
        return LocElem(self.ctx, num, den)

    # -- arithmetic ---------------------------------------------------------

    def _chk(self, other):
        if not isinstance(other, LocElem):
            raise TypeError("LocElem expected")
        if other.ctx != self.ctx:
            raise ValueError("context mismatch; transport first")

    def __add__(self, other):
        self._chk(other)
        common = dict(self.den)
        for k, e in other.den.items():
            if e > common.get(k, 0):
                common[k] = e
        return LocElem._of(self.ctx,
                           self.num_over(common) + other.num_over(common),
                           common)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LocElem._of(self.ctx, -self.num, dict(self.den),
                           normalize=False)

    def __mul__(self, other):
        if type(other) is not LocElem and isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._chk(other)
        den = dict(self.den)
        for k, e in other.den.items():
            den[k] = den.get(k, 0) + e
        a, b = self.num, other.num
        num = a if _is_one(b) else b if _is_one(a) else a * b
        return LocElem._of(self.ctx, num, den)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return LocElem.zero(self.ctx)
        return LocElem._of(self.ctx, self.num.scale(c), dict(self.den),
                           normalize=False)

    def __eq__(self, other):
        if not isinstance(other, LocElem):
            return NotImplemented
        self._chk(other)
        if self.den == other.den:
            return self.num == other.num
        if not self.num.terms or not other.num.terms:
            # units are not zero-divisors: only zero equals zero
            return not self.num.terms and not other.num.terms
        return (self.num * other.den_poly()) == (other.num * self.den_poly())

    def __hash__(self):
        raise TypeError("LocElem is unhashable (equality is extensional)")

    def __repr__(self):
        s = self.ctx.format(self.num)
        if self.den:
            d = "*".join(f"{k}^{e}" if e > 1 else k
                         for k, e in sorted(self.den.items(), key=lambda kv: _unit_sort(kv[0])))
            return f"({s})/({d})"
        return s


def den_ratio(a, b):
    """The unit exponents of den a / den b, as `LocElem.times_units` takes
    them."""
    exps = dict(a.den)
    for k, e in b.den.items():
        exps[k] = exps.get(k, 0) - e
    return exps


# -- transport ----------------------------------------------------------------

def _homogeneous_reading(e):
    """(deg, gamma, units): e = form · x^gamma / prod(s_c^m_c) of degree 0
    on P^n, where form gives each term x^t of the numerator deg - |t| on
    x_home (deg = max(deg num, 0)), units = {s<c>: m_c} are e.den's section
    units and, with its coordinate units c<k>^a_k, gamma_home = -deg +
    sum(a_k) + sum(deg(s_c)·m_c) and gamma_k = -a_k."""
    ctx = e.ctx
    h = ctx.home
    deg = max(e.num.total_degree(), 0)
    gamma = [0] * (ctx.dim + 1)
    gamma[h] = -deg
    units = {}
    for key, a in e.den.items():
        k = int(key[1:])
        if key[0] == "c":
            gamma[k] -= a
            gamma[h] += a
        else:
            gamma[h] += ctx.sunit(k).degree * a
            units[key] = a
    return deg, gamma, units


def chart_monomial(alpha, ctx):
    """(x^alpha, den) on a context's home chart: each negative entry of the
    degree-0 vector alpha becomes a coordinate-unit denominator,
    PreconditionViolated outside the context."""
    exps = [0] * ctx.nvars
    den = {}
    for k, a in enumerate(alpha):
        if k == ctx.home or a == 0:
            continue
        if a > 0:
            exps[ctx.axes().index(k)] = a
        else:
            if k not in ctx.indices:
                raise PreconditionViolated(
                    f"element has a pole along x{k} = 0, not invertible on "
                    f"charts {ctx.indices}")
            den[f"c{k}"] = -a
    return Poly._of(ctx.nvars, {tuple(exps): 1}), den


def transport(e, dst):
    """Rewrite a localized element in another context, exactly.

    The destination must be a restriction of the source (its index set
    contains the source's) over the same ambient space.  A new home chart
    h2 is one pass over the numerator's terms, reading e as
    form · x^gamma / prod(s_c^m_c) (`_homogeneous_reading`, h = src.home):
    a term x^t takes the exponent t, deg - |t| on x_h, drops x_h2 and adds
    max(gamma, 0); a negative gamma_k becomes c<k>^-gamma_k, section units
    are copied, and `LocElem._of` normalizes.  No pole lies outside dst:
    only gamma_h and the gamma_k of e's coordinate units are negative, and
    those charts lie in src.indices, a subset of dst.indices.
    """
    src = e.ctx
    if src == dst:
        return e
    if src.dim != dst.dim:
        raise PreconditionViolated("transport between different ambients")
    if not set(src.indices) <= set(dst.indices):
        raise PreconditionViolated(
            f"transport target {dst.indices} does not refine {src.indices}")
    if src.home == dst.home:
        return LocElem._of(dst, e.num, dict(e.den))
    h, h2 = src.home, dst.home
    deg, gamma, units = _homogeneous_reading(e)
    del gamma[h2]
    axes = dst.axes()
    den = {f"c{k}": -g for k, g in zip(axes, gamma) if g < 0}
    den.update(units)
    shift = tuple(max(g, 0) for g in gamma)
    lift = any(shift)
    terms = {}
    for t, c in e.num.terms.items():
        t = t[:h] + (deg - sum(t),) + t[h:]
        t = t[:h2] + t[h2 + 1:]
        terms[tuple(map(add, t, shift)) if lift else t] = c
    return LocElem._of(dst, Poly._of(dst.nvars, terms), den)


# -- Laurent views (used by the Cech solver) ----------------------------------

def to_laurent(e):
    """Degree-0 Laurent expansion over the homogeneous coordinates, or None.

    Only defined in the monomial regime: every section unit appearing in the
    denominator must have a single-term homogeneous form.  Coordinate units
    are always monomial.
    """
    ctx = e.ctx
    h = ctx.home
    deg, gamma, units = _homogeneous_reading(e)
    scale = 1
    for key, a in units.items():
        u = ctx.sunit(int(key[1:]))
        if len(u.form.terms) != 1:
            return None
        (ue, uc), = u.form.terms.items()
        gamma = [g - k * a for g, k in zip(gamma, ue)]
        scale = qdiv(scale, uc ** a)
    # distinct terms stay distinct: each gets its own exponent plus gamma
    return {tuple(map(add, t[:h] + (deg - sum(t),) + t[h:], gamma)):
            _canon(c * scale) for t, c in e.num.terms.items()}


def from_laurent(laurent, ctx):
    """Rebuild a LocElem from a degree-0 Laurent dict over hom. coordinates."""
    total = LocElem.zero(ctx)
    for alpha, coeff in sorted(laurent.items()):
        if sum(alpha) != 0:
            raise ValueError("Laurent term is not degree zero")
        num, den = chart_monomial(alpha, ctx)
        total = total + LocElem(ctx, num.scale(coeff), den)
    return total


# -- matrices ------------------------------------------------------------------

class MatrixL:
    """Dense matrix of LocElems sharing one context."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(rows[i]) for i in range(len(rows)))
        w = {len(r) for r in self.rows}
        if len(w) > 1:
            raise ValueError("ragged matrix")
        for r in self.rows:
            for x in r:
                if x.ctx != ctx:
                    raise ValueError("matrix entry context mismatch")

    @classmethod
    def identity(cls, ctx, size):
        one, zero = LocElem.one(ctx), LocElem.zero(ctx)
        return cls(ctx, [[one if i == j else zero for j in range(size)]
                         for i in range(size)])

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        z = LocElem.zero(ctx)
        return cls(ctx, [[z] * ncols for _ in range(nrows)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        self._chk(other)
        return MatrixL(self.ctx, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._chk(other)
        return MatrixL(self.ctx, [[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __matmul__(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError("matmul shape mismatch")
        self._chk_ctx(other)
        cols = list(zip(*other.rows))
        return MatrixL(self.ctx, [[dot(r, col, self.ctx) for col in cols]
                                  for r in self.rows])

    def matvec(self, vec):
        if len(vec) != self.shape[1]:
            raise ValueError("matvec shape mismatch")
        if any(x.ctx != self.ctx for x in vec):
            raise ValueError("context mismatch; transport first")
        return tuple(
            dot(self.rows[i], vec, self.ctx) for i in range(self.shape[0]))

    def scalar_mul(self, s):
        return MatrixL(self.ctx, [[a * s for a in r] for r in self.rows])

    def delete_row(self, i):
        return MatrixL(self.ctx, [r for k, r in enumerate(self.rows) if k != i])

    def delete_col(self, j):
        return MatrixL(self.ctx, [[x for k, x in enumerate(r) if k != j]
                                  for r in self.rows])

    def det(self):
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return LocElem.one(self.ctx)
        if n == 1:
            return self.rows[0][0]
        # expansion along row 0; a zero entry's cofactor is never computed
        rest = self.delete_row(0)
        cofactors = []
        for j, a in enumerate(self.rows[0]):
            if a.is_zero():
                cofactors.append(a)
                continue
            minor = rest.delete_col(j).det()
            cofactors.append(-minor if j % 2 else minor)
        return dot(self.rows[0], cofactors, self.ctx)

    def adjugate(self):
        n, m = self.shape
        if n != m:
            raise ValueError("adjugate of a non-square matrix")
        if n == 1:
            return MatrixL.identity(self.ctx, 1)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = self.delete_row(j).delete_col(i).det()
                row.append(minor if (i + j) % 2 == 0 else -minor)
            out.append(row)
        return MatrixL(self.ctx, out)

    def transport_to(self, dst):
        return MatrixL(dst, [[transport(a, dst) for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, MatrixL):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(a == b for r1, r2 in zip(self.rows, other.rows)
                   for a, b in zip(r1, r2))

    def __hash__(self):
        raise TypeError("MatrixL is unhashable")

    def _chk(self, other):
        if self.shape != other.shape:
            raise ValueError("matrix shape mismatch")
        self._chk_ctx(other)

    def _chk_ctx(self, other):
        if self.ctx != other.ctx:
            raise ValueError("matrix context mismatch; transport first")

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(x) for x in r) + "]"
                         for r in self.rows)
        return f"MatrixL({body})"


def dot(row, vec, ctx):
    """sum_k row[k]·vec[k] on ctx, normalized once; every entry must live
    on ctx (the callers check or construct that).

    Each nonzero product is kept as its unnormalized (num, den); the
    numerators are summed over the common denominator that takes every unit
    key's largest exponent, and `LocElem._of` normalizes that sum once.

    Lemma (why this equals the stepwise sum `acc + a·b` byte for byte when
    the context's unit polynomials are pairwise coprime, as the corpus's
    coordinate units and non-monomial section units such as x0 + x1 are):
    for a unit u with exponent d in a polynomial-over-units representation
    num / D of a value, let v(num) be the largest m with u^m | num.  Since
    every other unit is coprime to u in the UFD k[x], any two
    representations num / D and num' / D' of one value give
    v(num) − d = v(num') − d'.  `_normalize` cancels min(d, v(num)) copies
    of u (one exact division at a time for a section unit, at once for a
    coordinate unit), and cancelling the other units does not change v, so
    the exponent it leaves, max(0, d − v(num)), and hence the numerator
    depend only on the value, not on the starting denominator.  With shared
    factors (a monomial section unit next to a coordinate unit) the greedy
    form depends on the path, and the two sums are equal only as values.
    """
    prods = []
    common = {}
    for a, b in zip(row, vec):
        x, y = a.num, b.num
        if not x.terms or not y.terms:
            continue
        den = dict(a.den)
        for k, e in b.den.items():
            den[k] = den.get(k, 0) + e
        for k, e in den.items():
            if e > common.get(k, 0):
                common[k] = e
        prods.append((x if _is_one(y) else y if _is_one(x) else x * y, den))
    total = Poly.zero(ctx.nvars)
    for num, den in prods:
        for k, e in common.items():
            a = e - den.get(k, 0)
            if a:
                num = num * ctx.unit_poly(k) ** a
        total = total + num
    return LocElem._of(ctx, total, common)

