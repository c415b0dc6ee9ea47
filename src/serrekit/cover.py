"""The standard cover of P^n, line bundles on it, and input-data loading.

The cover of P^n is U_0 .. U_n (U_k = {x_k != 0}).  A codimension-two
subscheme arrives either as one global complete intersection (two
homogeneous forms) or as per-chart pairs; charts the subscheme misses are
completed with the canonical pair (1, 0).  Sections are (r-1)-tuples per
chart; loading selects each chart's pivot component t_i and fixes a
section unit where the pivot is not already invertible (on the one cover of
the build, replacing only the contexts of the overlaps that contain that
chart).  `extend_off_Y` then returns one 2x2 matrix A_ij per sorted overlap
i < j and validates the overlap compatibility of the sections there.

The field readers `need`, `chart_key`, `chart_table` and `poly_field` are
the one place where the input and bundle documents are read: a field has
exactly its JSON type (a JSON true is no integer), a chart key is a JSON
integer or its canonical decimal string naming a chart of the cover, each
chart appears at most once, and a polynomial is a JSON string.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .algebra import (Context, LocElem, MatrixL, Poly, SUnit, chart_monomial,
                      default_names, dehomogenize, den_ratio, homogenize,
                      is_homogeneous, parse_poly, transport)
from .errors import (CompatibilityFailure, NotCodimTwo, NotGenerating,
                     PreconditionViolated, ShapeViolation)
from .ideals import (ideal_equal, in_ideal, is_unit_ideal, lift_pair,
                     regular_hyperplane, regular_pair, unit_certificate)


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false",
               list: "a list", dict: "a table"}


def need(doc, key, kind, where):
    """The required field `key` of the table `doc`, of JSON type `kind`
    (None: any type); `where` names the table ("" for the document)."""
    label = f"{where} {key}" if where else key
    if not isinstance(doc, dict):
        raise ShapeViolation(f"{where or 'document'} must be a table")
    if key not in doc:
        raise ShapeViolation(f"{label} is missing")
    val = doc[key]
    # bool is a subclass of int, but a JSON true is no integer
    if kind is not None and (not isinstance(val, kind)
                             or isinstance(val, bool) and kind is not bool):
        raise ShapeViolation(f"{label} must be {_KIND_NAMES[kind]}")
    return val


def chart_key(key, charts, where):
    """A chart of the cover, written as a JSON integer or as its canonical
    decimal string (an object key): "02", " 2" and "2.0" name no chart."""
    names = {str(c): c for c in charts}
    if isinstance(key, str) and key in names:
        return names[key]
    if isinstance(key, int) and not isinstance(key, bool) and key in charts:
        return key
    raise ShapeViolation(f"{where}: bad chart key {key!r}")


def chart_table(items, charts, where):
    """{chart: value} from (chart key, value) pairs; each chart at most
    once."""
    table = {}
    for key, val in items:
        chart = chart_key(key, charts, where)
        if chart in table:
            raise ShapeViolation(f"{where}: chart {chart} appears twice")
        table[chart] = val
    return table


def poly_field(text, names, where):
    """A polynomial over the variable names, written as a JSON string."""
    if not isinstance(text, str):
        raise ShapeViolation(f"{where} must be a string")
    try:
        return parse_poly(text, names)
    except ValueError as exc:
        raise ShapeViolation(f"{where}: {exc}") from exc


# A build works on every triple overlap, C(n + 1, 3) of them on P^n.  A
# linear-subscheme build (x0 = x1 = 0, rank 2, twist 2) takes 0.8 s on P^12,
# 3.1 s on P^16 and 22 s on P^20 (CPython 3.11, one Intel Xeon core), so a
# larger dimension asks for minutes of work, and 3,000,000 for a chart tuple
# of that length before the document is read further.
MAX_DIM = 16


class AmbientSpec(namedtuple("AmbientSpec", "dim")):
    """Projective space P^dim, its dimension between 1 and MAX_DIM."""
    __slots__ = ()

    def __new__(cls, dim):
        if dim < 1:
            raise ShapeViolation("ambient dimension must be >= 1")
        if dim > MAX_DIM:
            raise ShapeViolation(
                f"ambient dimension must be at most {MAX_DIM}")
        return super().__new__(cls, dim)


def read_ambient(doc):
    """The `ambient` table of an input or bundle document, read before any
    cover is built: the kind must be "projective"."""
    amb = need(doc, "ambient", dict, "")
    kind = need(amb, "kind", str, "ambient")
    dim = need(amb, "dim", int, "ambient")
    if kind != "projective":
        raise ShapeViolation(f"unknown ambient kind {kind!r}")
    return AmbientSpec(dim)


class Cover:
    """The standard cover of P^n with its section units.

    A new cover has no units; `fix_units` alone fixes them.  `ctx` builds
    each context once and keeps it, so the unit polynomials and bases it
    memoizes serve every element of the cover.  A context carries only its
    own charts' units, so fixing a unit on chart c changes the ring of
    exactly the overlaps that contain c: `fix_units` drops those kept
    contexts and keeps every other one.
    """

    def __init__(self, ambient):
        self.ambient = ambient
        self.charts = tuple(range(ambient.dim + 1))
        self.sunits = ()
        self._ctxs = {}  # sorted indices -> Context, filled by `ctx`

    def fix_units(self, sunits):
        """Fix the section units `sunits` (at most one per chart) in place,
        dropping the kept contexts of the overlaps that contain their
        charts."""
        new = {u.chart: u for u in sunits}
        by_chart = {**{u.chart: u for u in self.sunits}, **new}
        self.sunits = tuple(by_chart[c] for c in sorted(by_chart))
        self._ctxs = {key: ctx for key, ctx in self._ctxs.items()
                      if new.keys().isdisjoint(key)}

    def ctx(self, indices):
        """The context of an overlap, home its smallest chart, built once."""
        indices = tuple(sorted(set(indices)))
        if not indices or any(i not in self.charts for i in indices):
            raise ShapeViolation(f"bad chart indices {indices}")
        ctx = self._ctxs.get(indices)
        if ctx is None:
            ctx = self._ctxs[indices] = Context(
                self.ambient.dim, indices[0], indices, self.sunits)
        return ctx

    def chart_ctx(self, i):
        return self.ctx((i,))

    def hom_names(self):
        return default_names(self.ambient.dim + 1)


def section_unit(ambient, chart, chart_poly):
    """The section unit that makes a chart polynomial invertible on its
    (shrunk) chart."""
    return SUnit(chart, *homogenize(chart_poly, chart, ambient.dim))


class LineBundleData:
    """O(twist) with transition h_ij = (x_j / x_i)^twist on chart overlaps.

    Each h_ij is computed once per context and kept on the instance, which
    a build or a load owns with its cover."""

    def __init__(self, ambient, twist):
        self.ambient = ambient
        self.twist = twist
        self._h = {}  # (i, j, ctx) -> h_ij on ctx

    def h(self, i, j, ctx):
        key = (i, j, ctx)
        e = self._h.get(key)
        if e is not None:
            return e
        if i == j or self.twist == 0:
            e = LocElem.one(ctx)
        elif i not in ctx.indices or j not in ctx.indices:
            raise PreconditionViolated(
                f"h_{i}{j} is not defined on charts {ctx.indices}")
        else:
            delta = [0] * (self.ambient.dim + 1)
            delta[j] += self.twist
            delta[i] -= self.twist
            e = LocElem(ctx, *chart_monomial(delta, ctx))
        self._h[key] = e
        return e


class SubschemeData:
    def __init__(self, cover, mode, pairs, meets_Y, empty_overlap):
        self.cover = cover
        self.mode = mode
        self.pairs = pairs  # chart -> (f, g) as LocElems in the chart context
        self.meets_Y = meets_Y  # chart -> bool
        self.empty_overlap = empty_overlap  # sorted (i, j), i < j -> bool

    def pair_on(self, i, ctx):
        f, g = self.pairs[i]
        return transport(f, ctx), transport(g, ctx)


def _chart_poly(cover, chart, text, what):
    ctx = cover.chart_ctx(chart)
    return LocElem(ctx, poly_field(text, ctx.var_names(),
                                   f"{what} on chart {chart}"))


def load_subscheme(cover, doc):
    """Validate and load the codimension-two data.

    Declared chart pairs must be regular pairs (unless they generate the unit
    ideal, marking the chart as missing Y), must agree on overlaps, and at
    least the ambient must have dimension >= 2.

    A global complete intersection is decided once per hyperplane.
    Hyperplane lemma: for a chart j let F_j and G_j be F and G with
    x_j := 0, forms in the other n coordinates, and call H_j = V(x_j)
    regular when both are nonzero and (F_j, G_j) is a regular sequence,
    i.e. their basis, with no Rabinowitsch variable, has dimension n - 2
    (`ideals.regular_hyperplane`).  If H_j is regular, then:
    - (x_j, F, G) is a homogeneous regular sequence in k[x_0..x_n], since
      F and G read modulo x_j are F_j and G_j.  A homogeneous regular
      sequence stays regular in any order, so (F, G, x_j) is regular too:
      (F, G) is a regular sequence and x_j is no zero-divisor modulo it.
      Dehomogenizing at x_i is a localization followed by the faithfully
      flat step k[chart] -> k[chart][x_i, 1/x_i], so it keeps a regular
      sequence regular or makes it the unit ideal: every chart pair is a
      regular pair or the unit ideal, and `is_unit_ideal` alone decides a
      chart.
    - x_j lies in no associated prime of (F, G), so no component of Y lies
      in H_j.  F_j and G_j are non-units, so F and G have positive degree
      and Y is not empty (n >= 2): Y meets U_j, and chart j needs no basis.
      For the same reason Y meets U_i ∩ U_j for every chart i that meets Y,
      and that overlap needs no basis either.
    Where no hyperplane is regular, every chart asks `is_unit_ideal` and
    then `regular_pair`, so a chart that is no regular pair fails with the
    same message at the same chart.  Where one is, no chart can fail and
    some chart meets Y, so no error of this function remains.

    Every sorted overlap (i, j) is decided here too, on this unit-free
    cover: it is empty iff chart i misses Y, or H_j is not regular and
    (f_i, g_i) generate the unit ideal on U_i ∩ U_j.  Section-unit lemma:
    the units that `load_sections` fixes later do not change this answer.
    A unit s_i of chart i is fixed only where (f_i, g_i, s_i) = (1) on U_i,
    so s_i vanishes nowhere on Y ∩ U_i, and Y ∩ U_i ∩ U_j lies in
    D(s_i) ∩ D(s_j).  The shrunk overlap therefore meets Y exactly where
    the unit-free one does, and by the Nullstellensatz (f_i, g_i) is the
    unit ideal on both or on neither.
    """
    if cover.ambient.dim < 2:
        raise NotCodimTwo("codimension-two subschemes need ambient dim >= 2")
    mode = need(doc, "mode", str, "subscheme")
    declared = {}
    regular = frozenset()
    if mode == "global_ci":
        F, G = (poly_field(need(doc, tag, str, "subscheme"), cover.hom_names(),
                           f"subscheme {tag}") for tag in ("F", "G"))
        for form, tag in ((F, "F"), (G, "G")):
            if form.is_zero():
                raise ShapeViolation(f"form {tag} must be nonzero")
            if not is_homogeneous(form):
                raise ShapeViolation(f"form {tag} must be homogeneous")
        for i in cover.charts:
            ctx = cover.chart_ctx(i)
            declared[i] = (LocElem(ctx, dehomogenize(F, i)),
                           LocElem(ctx, dehomogenize(G, i)))
        regular = frozenset(j for j in cover.charts
                            if regular_hyperplane(F, G, j))
    elif mode == "charts":
        raw = need(doc, "pairs", dict, "subscheme")
        if not raw:
            raise ShapeViolation("charts mode needs a nonempty 'pairs' table")
        for chart, val in chart_table(raw.items(), cover.charts,
                                      "pairs").items():
            if not (isinstance(val, list) and len(val) == 2):
                raise ShapeViolation(f"chart {chart} pair must be [f, g]")
            declared[chart] = (_chart_poly(cover, chart, val[0], "f"),
                               _chart_poly(cover, chart, val[1], "g"))
    else:
        raise ShapeViolation(f"unknown subscheme mode {mode!r}")

    pairs = {}
    meets = {}
    for i in cover.charts:
        if i in declared:
            f, g = declared[i]
        else:
            ctx = cover.chart_ctx(i)
            f, g = LocElem.one(ctx), LocElem.zero(ctx)
        if i in regular:
            meets[i] = True
        elif is_unit_ideal([f, g]):
            meets[i] = False
            # canonical frame off Y, whatever the declared restriction was
            ctx = f.ctx
            f, g = LocElem.one(ctx), LocElem.zero(ctx)
        else:
            if not regular and not regular_pair(f, g):
                raise NotCodimTwo(
                    f"chart {i}: (f, g) is not a regular pair, so it does not "
                    "cut out a codimension-two local complete intersection")
            meets[i] = True
        pairs[i] = (f, g)

    if not any(meets.values()):
        raise NotCodimTwo("the subscheme is empty on every chart")

    sub = SubschemeData(cover, mode, pairs, meets, {})
    for i, j in combinations(cover.charts, 2):
        ctx = cover.ctx((i, j))
        if mode == "charts":
            # overlap consistency of declared ideals
            fi, gi = sub.pair_on(i, ctx)
            fj, gj = sub.pair_on(j, ctx)
            if not ideal_equal([fi, gi], [fj, gj]):
                raise PreconditionViolated(
                    f"chart pairs {i} and {j} generate different ideals on "
                    "their overlap", stage="load_subscheme")
        elif meets[i] and j not in regular:
            # the only overlaps of a global complete intersection read below
            fi, gi = sub.pair_on(i, ctx)
        sub.empty_overlap[(i, j)] = not meets[i] or (
            j not in regular and is_unit_ideal([fi, gi]))
    return sub


def extend_off_Y(sub, secs, lb):
    """{(i, j): A_ij}, the 2x2 matrix with (f_i; g_i) = A_ij (f_j; g_j)
    exactly on every sorted overlap i < j, by lifts where the overlap meets
    Y and the unit-certificate product form where it does not (as
    `load_subscheme` decided in sub.empty_overlap).  It enforces the section
    compatibility s_i - (det A_ij / h_ij) s_j = 0 mod (f_i, g_i) there, on
    the same restrictions.

    Where the numerators of f_i and f_j agree on the overlap, the top row of
    A_ij is (f_i / f_j, 0), the quotient of the two denominators, and this
    is the Groebner lift: `buchberger` pushes the first generator f_j
    unreduced as basis[0], and `divide` takes the first basis element whose
    lead divides, so f_i lifts to (1, 0, ...) before the denominator shift.
    Where the numerators of g_i and g_j agree, the bottom row (0, g_i / g_j)
    is the Groebner lift too.  The overlap meets Y, so (f_j, g_j) is a
    regular pair there and f_j's numerator F does not divide g_j's, G.
    `buchberger` reduces each generator by the basis pushed so far before
    it forms any S-pair, so G leaves a nonzero remainder G' = G - qF, pushed
    right after F with cofactor row (-q, 1) up to scale.  Dividing G by the
    final basis, F takes every term it took then, since it comes first; at
    the first term it does not take, the lead of G', the element G' takes
    it and leaves a multiple of F, which F takes to remainder 0.  The
    quotients give q (1, 0) + (-q, 1) = (0, 1) before the denominator
    shift.  Every other row is a `lift_pair`.

    No A_ji is built and the reversed check, s_j = (det A_ji / h_ji) s_i mod
    (f_j, g_j), is not run: it is implied.  (f_i, g_i) and (f_j, g_j)
    generate the same ideal I on the overlap, and the rows of A_ij A_ji - 1
    are syzygies of (f_i, g_i), a regular pair there, so they lie in I and
    det A_ij det A_ji = 1 mod I.  With h_ij h_ji = 1 the two checks then hold
    or fail together, component by component; as an ordered loop meets (i,
    j) before (j, i), the sorted loop also reports the same first failure.
    """
    cover = sub.cover
    As = {}
    for i, j in combinations(cover.charts, 2):
        ctx = cover.ctx((i, j))
        fi, gi = sub.pair_on(i, ctx)
        fj, gj = sub.pair_on(j, ctx)
        if sub.empty_overlap[(i, j)]:
            ui, vi = unit_certificate(fi, gi)
            uj, vj = unit_certificate(fj, gj)
            left = MatrixL(ctx, [[fi, -vi], [gi, ui]])
            right = MatrixL(ctx, [[uj, vj], [-gj, fj]])
            a = left @ right
        else:
            one, zero = LocElem.one(ctx), LocElem.zero(ctx)
            top = ((one.times_units(den_ratio(fj, fi)), zero)
                   if fi.num == fj.num else lift_pair(fi, fj, gj))
            bot = ((zero, one.times_units(den_ratio(gj, gi)))
                   if gi.num == gj.num else lift_pair(gi, fj, gj))
            a = MatrixL(ctx, [[top[0], top[1]], [bot[0], bot[1]]])
        if a.matvec((fj, gj)) != (fi, gi):
            raise AssertionError("gluing identity failed re-verification")
        As[(i, j)] = a
        factor = a.det() * lb.h(j, i, ctx)  # det A_ij / h_ij
        for m, (si, sj) in enumerate(zip(secs.sections[i], secs.sections[j])):
            residue = transport(si, ctx) - factor * transport(sj, ctx)
            if not residue.is_zero() and not in_ideal(residue, [fi, gi]):
                raise CompatibilityFailure(
                    f"sections {m + 1} on overlap ({i}, {j}) are not "
                    "compatible modulo (f, g)")
    return As


SectionData = namedtuple("SectionData", [
    "sections",  # chart -> tuple of r-1 LocElems in the chart context
    "t",         # chart -> pivot index, 1-based
    "tier",      # chart -> which pivot rule fired (0 off Y, 1 or 4)
    "rank"])


def _constant(s):
    """A nonzero constant, the only unit of a unit-free chart."""
    return not s.den and s.num.is_constant() and not s.num.is_zero()


def _pivot_candidates(f, g, sections, shared):
    """Pivot tiers, in the order they are tried: 1, a nonzero constant,
    which ends the search (position `shared` if given, else the first);
    4, nonvanishing on Y by the Nullstellensatz (register it).  Yields (t,
    tier, unit_to_register), lazily."""
    candidates = list(enumerate(sections, start=1))
    for t, s in candidates:
        if _constant(s):
            yield shared or t, 1, None
            return
    for t, s in candidates:
        if not s.is_zero() and is_unit_ideal([f, g, s]):
            yield t, 4, s.num


def _covers_chart(cover, units, i):
    """Whether the shrunk charts D(x_j s_j) cover the standard chart U_i of
    P^n, for the unit forms s_j of `units` (s_j = 1 on a chart without one):
    (s_i, x_j s_j for j != i), read on U_i of the unit-free `cover`,
    generate the unit ideal."""
    arity = cover.ambient.dim + 1
    gens = []
    for j in cover.charts:
        form = Poly.variable(arity, j)
        if j in units:
            form = form * units[j].form
        gens.append(LocElem(cover.chart_ctx(i), dehomogenize(form, i)))
    return is_unit_ideal(gens)


def load_sections(cover, sub, doc, rank):
    """Parse and validate the section data and fix the section units.

    Per chart meeting Y: the r-1 section components together with (f, g) must
    generate the unit ideal, and a pivot component must be invertible on the
    chart's shrunk open set (tiers above).  Off-Y charts always carry the
    canonical tuple (1, 0, ..., 0).  `doc` is {chart: [values]}, a list of
    {"chart", "values"} entries, or None.  Pivots are chosen on the
    unit-free `cover`; the section units chosen are then fixed on it
    (`Cover.fix_units`), and the section tuples of their charts move onto
    the new chart contexts; `sub` is not written, and later stages restrict
    its pairs (`SubschemeData.pair_on`).  Returns the SectionData.
    """
    if doc is None:
        doc = {}
    if isinstance(doc, list):
        items = [(need(e, "chart", None, "sections entry"),
                  need(e, "values", None, "sections entry")) for e in doc]
    elif isinstance(doc, dict):
        items = doc.items()
    else:
        raise ShapeViolation("sections must be a table or a list of entries")
    parsed = {}
    for chart, val in chart_table(items, cover.charts, "sections").items():
        if not sub.meets_Y[chart]:
            raise ShapeViolation(
                f"chart {chart} misses the subscheme; its section tuple is "
                "canonical and must not be supplied")
        if not (isinstance(val, list) and len(val) == rank - 1):
            raise ShapeViolation(
                f"chart {chart} needs exactly {rank - 1} section components")
        parsed[chart] = tuple(
            _chart_poly(cover, chart, s, f"section {m + 1}")
            for m, s in enumerate(val))
    # before any tuple is built, as an off-Y tuple has rank - 1 entries
    missing = [i for i in cover.charts if sub.meets_Y[i] and i not in parsed]
    if missing:
        raise ShapeViolation(f"chart {missing[0]} meets the subscheme but has "
                             "no section data")
    # `build_Z` needs chart j's component at chart i's pivot to be a unit
    # where U_i ∩ U_j meets Y.  A position that is a constant on every chart
    # meeting Y is one on every overlap, so tier 1 takes it on every chart.
    shared = next((t for t in range(1, rank)
                   if all(_constant(ss[t - 1]) for ss in parsed.values())),
                  None)

    sections = {}
    t_map = {}
    tier_map = {}
    units, tries = {}, {}
    for i in cover.charts:
        ctx = cover.chart_ctx(i)
        if not sub.meets_Y[i]:
            canonical = [LocElem.one(ctx)] + [LocElem.zero(ctx)] * (rank - 2)
            sections[i] = tuple(canonical)
            t_map[i] = 1
            tier_map[i] = 0
            continue
        ss = parsed[i]
        f, g = sub.pairs[i]
        if not is_unit_ideal([f, g] + list(ss)):
            raise NotGenerating(
                f"chart {i}: (f, g, s_1..s_{rank - 1}) do not generate the "
                "unit ideal; the sections do not generate on Y")
        tries[i] = _pivot_candidates(f, g, ss, shared)
        t, tier, to_register = next(tries[i], (None, None, None))
        if t is None:
            raise NotGenerating(
                f"chart {i}: no section component is invertible on the chart "
                "or nonvanishing on Y; no pivot available")
        if to_register is not None:
            units[i] = section_unit(cover.ambient, i, to_register)
        sections[i] = ss
        t_map[i] = t
        tier_map[i] = tier

    # A point of P^n in no shrunk chart lies in U_i exactly for the i with
    # x_i != 0, and each such chart has a unit vanishing there.  For the
    # largest such i, the check of chart i sees the point: the charts before
    # it hold their final units by then, and x_j = 0 there for every later
    # j.  So one pass in increasing chart order suffices.  The check runs
    # on the unit-free chart contexts, before the units are fixed below.
    for i in sorted(units):
        while not _covers_chart(cover, units, i):
            t, _, to_register = next(tries[i], (None, None, None))
            if t is None:
                raise PreconditionViolated(
                    f"chart {i}: every pivot candidate leaves a point of the "
                    "chart outside all shrunk charts", stage="load_sections")
            units[i] = section_unit(cover.ambient, i, to_register)
            t_map[i] = t

    # The pivots above were chosen without section units; a chart context
    # holds only its own chart's unit, so no chart's choice depends on the
    # units of the others.  Fixing the units replaces only the contexts of
    # the overlaps that contain a unit chart: only those charts' sections
    # move, and every other context keeps its Groebner bases.
    cover.fix_units(units.values())
    for i in units:
        ctx = cover.chart_ctx(i)
        sections[i] = tuple(transport(e, ctx) for e in sections[i])
    return SectionData(sections, t_map, tier_map, rank)
