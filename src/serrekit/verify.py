"""Exact post-hoc verification of the construction contract.

Every check evaluates a polynomial identity exactly and reports a pass flag
plus, on failure, the offending difference in canonical form; a difference
is computed only for an entry that fails.  Checks never raise on
mathematical failure — a failed identity becomes a report entry so the
caller can decide; only malformed inputs raise.  `run_all` reads the
kept determinants and triple defects (`TransitionSet.det`, `.defect`),
cochain differentials and frame restrictions (`FrameData.on`), so on a
fresh build it reuses what the build computed.  A corrected set shares the
raw set's values wherever its transitions are the raw objects (where the
correction is zero; see `TransitionSet`), so there the corrected dets and
triple defects are the raw ones, computed once.

The full suite (`run_all`) covers: the per-chart frame/section relations,
the dependency-locus minor ideals, the raw gluing identities (row-functional
transforms, the selector shape of R, defect annihilation), determinants
against the line-bundle cocycle on raw and corrected sets, the triple-defect
column shape, closedness of the obstruction cochain, exactness of the solved
correction, and the corrected cocycle identity with two-sided inverses.

Check (a) of `verify_glue_identities` is read from the last two columns of
check (c); it keeps its own report entry until the reference outputs are
regenerated, since dropping it changes every printed report.

A transition set stores Z_ij for sorted overlaps i < j only and derives
Z_ji = adj(Z_ij) h_ji (`TransitionSet.get`).  `verify_cocycle` and
`verify_det` therefore compute only the premises — the sorted dets and the
sorted triple defects, which a build has already kept — and emit an entry
that follows from passing premises as passed without computing it:

- Identity.  No premise is needed: `get(i, i)` is the identity by
  definition and a document stores no Z_ii, so `transition_identity`
  passes on every chart and no matrix is built for it.
- Inverses.  For i < j, Z_ij Z_ji - I = Z_ji Z_ij - I = (det Z_ij h_ji - 1) I,
  since Z adj(Z) = adj(Z) Z = det(Z) I.  Both orders of `transition_inverse`
  pass iff det Z_ij * h_ji == 1 on cover.ctx((i, j)).
- Dets.  det Z_ji = det(Z_ij)^{r-1} h_ji^r, so det Z_ji = h_ji once
  det Z_ij = h_ij and h_ij h_ji = 1; that product is checked, not assumed.
- Triples.  Transport to cover.ctx((i, j, k)) is a ring map and `LocElem`
  equality is exact, so if the sorted defect Z_ik - Z_ij Z_jk is zero and
  the inverse premises hold on (i, j), (i, k) and (j, k), every order of
  the triple satisfies Z_ac = Z_ab Z_bc (e.g. Z_ki = (Z_ij Z_jk)^{-1} =
  Z_kj Z_ji).

Every other entry — the sorted ones, and any whose premise fails — is
computed exactly as the identity reads, so each entry keeps its order,
scope, pass flag and witness whether or not the premises hold.

`verify_dependency_locus` and `verify_section_relation` likewise read a
chart's entry off two premises, checked before anything is computed: the
stored M equals the frame that `FrameData.__init__` builds from (t, sign,
f, g, s), and s_t == sign (sign = +-1).

- Minors.  In that frame column b != t is the unit vector of the row of
  section b, and the pivot column t holds -sign s_a in the row of each
  section a != t, then f and g.  Deleting the row of a section a != t
  leaves column a zero, so that minor is 0; expanding along the unit
  columns, deleting the f row leaves +-g and deleting the g row +-f.  So
  the maximal minors are (0, ..., 0, +-g, +-f), their ideal is exactly
  (f, g), and the rebuilt M alone makes `dependency_locus` pass on a chart
  that meets Y.  On an off-Y chart (f, g) must be the unit ideal, which f
  or g with a nonzero constant numerator shows (a unit over units).
- Sections.  With that M, entry a != t of M s is s_a - sign s_a s_t and
  the last two are f s_t and g s_t, so s_t == sign gives M s = (0, ..., 0,
  sign f, sign g): `section_relation` passes.

A chart whose premises fail is computed in full, with the same witness, so
a `verify` that passes on a built document runs no Groebner basis.

`obstruction_cocycle` is read off `correction_solves_obstruction`, which
is computed first.  Lemma: d(d c) = 0 for every cochain c.  In the sum for
(d d c) on a key, each value c(key without indices a < b) appears twice,
once for each order of removing a and b, with opposite signs; the twist
h on the last face matches in the two terms because h_ab h_bc = h_ac
exactly (`LineBundleData` builds h from the twist, not from the
document).  So d xi == obs gives d obs = d d xi = 0, and the entry passes
without d obs; only when d xi != obs is d obs computed.
"""

from collections import namedtuple
from itertools import combinations, permutations

from .algebra import LocElem, MatrixL
from .cech import differential, is_cocycle
from .ideals import ideal_equal, in_ideal, is_unit_ideal
from .serre import FrameData, off_columns


ReportEntry = namedtuple("ReportEntry", "check scope passed witness",
                         defaults=("",))


class Report:
    def __init__(self, entries):
        self.entries = entries

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def to_doc(self):
        out = []
        for e in self.entries:
            doc = {"check": e.check, "scope": e.scope, "passed": e.passed}
            if e.witness:
                doc["witness"] = e.witness
            out.append(doc)
        return out


def _entry(check, scope, ok, diff):
    """A report entry whose witness, on failure only, is the repr of
    `diff()`, a zero-argument callable giving the offending difference."""
    return ReportEntry(check, scope, bool(ok), "" if ok else repr(diff()))


def _mrow(ctx, r, f, g):
    """The row functional (0, ..., 0, g, -f) annihilating the M-columns."""
    zero = LocElem.zero(ctx)
    return MatrixL(ctx, [[zero] * (r - 2) + [g, -f]])


def verify_cocycle(Z):
    """Identity on the diagonal, two-sided inverses, and the ordered-triple
    compatibility Z_ik = Z_ij Z_jk.  Meant for a corrected set.

    The premises are computed first: det Z_ij * h_ji == 1 for each sorted
    pair and the sorted triple defects.  Both orders of an inverse follow
    from its premise, and the five unsorted orders of a triple from its
    sorted defect being zero plus the premises on its three pairs (module
    docstring); an entry whose premises fail is computed in full."""
    cover = Z.cover
    r = Z.rank
    entries = [ReportEntry("transition_identity", f"chart {i}", True)
               for i in cover.charts]
    inverse = {}
    for i, j in Z.pairs:
        ctx = cover.ctx((i, j))
        inverse[(i, j)] = Z.det(i, j) * Z.lb.h(j, i, ctx) == LocElem.one(ctx)
    for i, j in permutations(cover.charts, 2):
        scope = f"overlap ({i}, {j})"
        if inverse[(min(i, j), max(i, j))]:
            entries.append(ReportEntry("transition_inverse", scope, True))
            continue
        prod = Z.get(i, j) @ Z.get(j, i)
        I = MatrixL.identity(cover.ctx((i, j)), r)
        entries.append(_entry("transition_inverse", scope, prod == I,
                              lambda: prod - I))

    def cocycle(i, j, k):
        diff = Z.defect(i, j, k)
        ok = diff == MatrixL.zeros(diff.ctx, r, r)
        return _entry("transition_cocycle", f"triple ({i}, {j}, {k})", ok,
                      lambda: diff)
    sorted_entries = {t: cocycle(*t) for t in combinations(cover.charts, 3)}
    for i, j, k in permutations(cover.charts, 3):
        t = tuple(sorted((i, j, k)))
        if (i, j, k) == t:
            entries.append(sorted_entries[t])
        elif (sorted_entries[t].passed
              and all(inverse[p] for p in combinations(t, 2))):
            entries.append(ReportEntry("transition_cocycle",
                                       f"triple ({i}, {j}, {k})", True))
        else:
            entries.append(cocycle(i, j, k))
    return entries


def verify_det(Z):
    """det Z_ij = h_ij (of Z.lb) exactly on every ordered overlap.

    The sorted dets are computed; a reversed det Z_ji = det(Z_ij)^{r-1}
    h_ji^r is emitted as passed without computing it when det Z_ij = h_ij
    passed and h_ij h_ji == 1 (module docstring), and computed otherwise."""
    cover, lb = Z.cover, Z.lb

    def det(i, j):
        d, h = Z.det(i, j), lb.h(i, j, cover.ctx((i, j)))
        return _entry(f"determinant_{Z.status}", f"overlap ({i}, {j})",
                      d == h, lambda: d - h)
    sorted_entries = {p: det(*p) for p in Z.pairs}
    entries = []
    for i, j in permutations(cover.charts, 2):
        if i < j:
            entries.append(sorted_entries[(i, j)])
            continue
        ctx = cover.ctx((i, j))
        if (sorted_entries[(j, i)].passed
                and lb.h(i, j, ctx) * lb.h(j, i, ctx) == LocElem.one(ctx)):
            entries.append(ReportEntry(f"determinant_{Z.status}",
                                       f"overlap ({i}, {j})", True))
        else:
            entries.append(det(i, j))
    return entries


def _minor_ideal_gap(minors, f, g):
    """Name the first generator of (minors) or (f, g) outside the other."""
    for row, minor in enumerate(minors):
        if not in_ideal(minor, [f, g]):
            return f"minor {row} not in (f, g)"
    for name, p in (("f", f), ("g", g)):
        if not in_ideal(p, minors):
            return f"{name} not in the minor ideal"


def _rebuilt_frame(fr):
    """Is the stored M the frame built from (t, sign, f, g, s)?  The
    premise of both frame checks (module docstring)."""
    return (1 <= fr.t <= len(fr.s) and fr.sign in (1, -1) and fr.M ==
            FrameData(fr.chart, fr.t, fr.sign, fr.f, fr.g, fr.s).M)


def _nonzero_constant(e):
    return e.num.is_constant() and not e.is_zero()


def verify_dependency_locus(frames, sub):
    """The maximal-minor ideal of M_i equals (f_i, g_i) on subscheme charts
    and is the unit ideal elsewhere.  Minor k is det of M_i without row k;
    a failure names the first generator of one ideal missing from the
    other.  A chart whose M is the rebuilt frame passes with no minor
    computed, off Y once f_i or g_i is a nonzero constant over units
    (module docstring)."""
    entries = []
    for i in sorted(frames):
        fr = frames[i]
        if _rebuilt_frame(fr) and (sub.meets_Y[i] or _nonzero_constant(fr.f)
                                   or _nonzero_constant(fr.g)):
            entries.append(ReportEntry("dependency_locus", f"chart {i}",
                                       True))
            continue
        r = fr.M.shape[0]
        minors = [fr.M.delete_row(row).det() for row in range(r)]
        if sub.meets_Y[i]:
            ok = ideal_equal(minors, [fr.f, fr.g])
            witness = "" if ok else _minor_ideal_gap(minors, fr.f, fr.g)
        else:
            ok = is_unit_ideal(minors)
            witness = "" if ok else "minors do not generate the unit ideal"
        entries.append(ReportEntry("dependency_locus", f"chart {i}", ok,
                                   witness))
    return entries


def verify_section_relation(frames):
    """M_i s_i = (0, ..., 0, sign f_i, sign g_i) exactly, so every entry of
    the section relation lies in (f_i, g_i).  It holds without the product
    when M_i is the rebuilt frame and s_t == sign (module docstring)."""
    entries = []
    for i in sorted(frames):
        fr = frames[i]
        if _rebuilt_frame(fr) and fr.s[fr.t - 1] == LocElem.const(
                fr.s[fr.t - 1].ctx, fr.sign):
            entries.append(ReportEntry("section_relation", f"chart {i}",
                                       True))
            continue
        v = fr.M.matvec(fr.s)
        ok = (all(e.is_zero() for e in v[:-2])
              and v[-2] == fr.f.scale(fr.sign)
              and v[-1] == fr.g.scale(fr.sign))
        entries.append(ReportEntry(
            "section_relation", f"chart {i}", ok,
            "" if ok else repr(list(v))))
    return entries


def verify_glue_identities(Z, frames):
    """Raw-set identities on sorted overlaps and triples, h being Z.lb's:
      (a) (g_i, -f_i) S_ij = (-1)^{t_i+t_j} h_ij (g_j, -f_j), read from the
          last two columns of the two sides of (c);
      (b) R_ij is (f_i; g_i) in column t_i and zero elsewhere, with
          column t_j deleted;
      (c) (0..0, g_i, -f_i) Z_ij = (-1)^{t_i+t_j} h_ij (0..0, g_j, -f_j);
      (d) the same row functional annihilates the triple defect; the
          witness is its value on Z_ij Z_jk - Z_ik.
    """
    entries = []
    cover = Z.cover
    r = Z.rank
    for i, j in Z.pairs:
        ctx = cover.ctx((i, j))
        fr_i, fr_j = frames[i], frames[j]
        fi, gi, _ = fr_i.on(ctx)
        fj, gj, _ = fr_j.on(ctx)
        sgn = fr_i.sign * fr_j.sign
        h = Z.lb.h(i, j, ctx)
        R = MatrixL(ctx, [row[:r - 2] for row in Z.Z[(i, j)].rows[r - 2:]])

        lhs = _mrow(ctx, r, fi, gi) @ Z.Z[(i, j)]
        rhs = _mrow(ctx, r, fj, gj).scalar_mul(h.scale(sgn))
        lhsS, rhsS = (MatrixL(ctx, [m.rows[0][-2:]]) for m in (lhs, rhs))
        entries.append(_entry("glue_row_transform_S", f"overlap ({i}, {j})",
                              lhsS == rhsS, lambda: lhsS - rhsS))

        zero = LocElem.zero(ctx)
        expected = MatrixL(ctx, [[e if m == fr_i.t - 1 else zero
                                  for m in range(r - 1) if m != fr_j.t - 1]
                                 for e in (fi, gi)])
        entries.append(_entry("glue_selector_R", f"overlap ({i}, {j})",
                              R == expected, lambda: R - expected))

        entries.append(_entry("glue_row_transform_Z", f"overlap ({i}, {j})",
                              lhs == rhs, lambda: lhs - rhs))

    for i, j, k in combinations(cover.charts, 3):
        ctx = cover.ctx((i, j, k))
        fi, gi, _ = frames[i].on(ctx)
        prod = _mrow(ctx, r, -fi, -gi) @ Z.defect(i, j, k)
        ok = prod == MatrixL.zeros(ctx, 1, r)
        entries.append(
            _entry("glue_row_kills_defect", f"triple ({i}, {j}, {k})", ok,
                   lambda: prod))
    return entries


def verify_defect_shape(Z, frames):
    """The raw triple defect Z_ik - Z_ij Z_jk vanishes outside its last two
    columns (the factored rank-one shape lives there)."""
    entries = []
    for i, j, k in combinations(Z.cover.charts, 3):
        bad = off_columns(Z.defect(i, j, k))
        entries.append(ReportEntry(
            "defect_shape", f"triple ({i}, {j}, {k})", not bad,
            "" if not bad else f"nonzero entries at {bad}"))
    return entries


def run_all(bundle):
    """Full deterministic verification suite for a BundleResult."""
    entries = []
    entries += verify_section_relation(bundle.frames)
    entries += verify_dependency_locus(bundle.frames, bundle.sub)
    entries += verify_glue_identities(bundle.raw, bundle.frames)
    entries += verify_det(bundle.raw)
    entries += verify_defect_shape(bundle.raw, bundle.frames)
    c = bundle.obstruction
    # d(d xi) = 0, so a solved obstruction is a cocycle (module docstring)
    solves = differential(bundle.xi) == c
    entries.append(ReportEntry("obstruction_cocycle", "all triples",
                               solves or is_cocycle(c)))
    entries.append(ReportEntry("correction_solves_obstruction", "all pairs",
                               solves))
    entries += verify_det(bundle.transitions)
    entries += verify_cocycle(bundle.transitions)
    return Report(entries)
