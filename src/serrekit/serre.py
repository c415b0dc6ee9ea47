"""Assembly of a rank-r bundle from codimension-two data on the standard cover.

Given a codimension-two locally complete intersection Y with chart pairs
(f_i, g_i), a line-bundle twist, and r-1 section representatives that
generate along Y, the pipeline produces r x r transition matrices Z_ij whose
cokernel presentation realizes Y as the dependency locus of r-1 sections of
the resulting bundle, each stage returning what the next one reads:

    load_subscheme -> load_sections -> extend_off_Y (the A_ij) ->
        build_frames (normalize_generators on each chart) -> build_Z
        (adjust_glue on each overlap) -> obstruction -> correct

`build_Z` glues chart frames pairwise; the triple-overlap defect is exactly
the image of a degree-2 Cech cocycle with values in r-1 copies of the dual
line bundle, and `correct` removes it by solving a coboundary equation.
`compare_bundles` decides isomorphism of two builds over the same local data
by solving the analogous degree-1 problem.

No stage writes into its inputs.  A chart's facts live on its `FrameData`
and an overlap's on the `TransitionSet`; the subscheme and section data
stay inside `build_bundle`, whose `BundleResult` holds only the bundle.

All identities asserted here hold exactly (no tolerances); a failed assertion
raises, it never warns.  Callers verify the result (`verify.run_all`).
"""

from collections import namedtuple
from itertools import combinations

from .algebra import LocElem, MatrixL, dot, transport
from .cech import MAX_DEGREE, CechCochain, coboundary_solve
from .cover import (Cover, LineBundleData, extend_off_Y, load_sections,
                    load_subscheme, need, read_ambient)
from .errors import (FormMismatch, GluingFailure, NotInIdeal,
                     PreconditionViolated, SerreError, ShapeViolation)
from .ideals import invert, koszul_divide, lift_pair, unit_certificate


def _sign(t):
    return -1 if t % 2 else 1


def _lift(p, f, g, order):
    """Cofactors (a, b) with p = a f + b g, computed in the requested
    generator order ("fg" or "gf"); the representative depends on the order."""
    if order == "gf":
        b, a = lift_pair(p, g, f)
        return a, b
    return lift_pair(p, f, g)


def _rank_one(val, fr_i, fr_j, ctx, r):
    """(x, u (0, ..., 0, g_j, -f_j)) for the cochain value val on ctx, with
    x = (-1)^{t_j} T'_i val and u = (x without entry t_i; f_i x_t; g_i x_t):
    the r x r shape of the triple defect, of the correction and of the
    difference of two builds."""
    fi, gi, _ = fr_i.on(ctx)
    fj, gj, _ = fr_j.on(ctx)
    t = fr_i.t
    x = [e.scale(fr_j.sign) for e in fr_i.apply(val, ctx)]
    u = x[:t - 1] + x[t:] + [fi * x[t - 1], gi * x[t - 1]]
    zero = LocElem.zero(ctx)
    return x, MatrixL(ctx, [[zero] * (r - 2) + [e * gj, -(e * fj)] for e in u])


def _rank_one_value(D, fr_i, fr_j, ctx):
    """The val with D == `_rank_one`(val, fr_i, fr_j, ctx, r)[1]: D's last
    two columns are Koszul-divided row by row by (g_j, -f_j), the two pivot
    rows by (f_i, g_i) (two zeros give 0), and x = (-1)^{t_j} T'_i val is
    solved for val.  Raises a SerreError when a division does not exist."""
    def divide(a, b, f, g):
        return a if a.is_zero() and b.is_zero() else koszul_divide(a, b, f, g)
    fi, gi, _ = fr_i.on(ctx)
    fj, gj, _ = fr_j.on(ctx)
    t = fr_i.t
    w = [divide(row[-2], -row[-1], fj, gj) for row in D.rows]
    x = w[:t - 1] + [divide(w[-1], w[-2], fi, gi)] + w[t - 1:-2]
    return tuple(e.scale(fr_j.sign)
                 for e in fr_i.apply(x, ctx, inverse=True))


def off_columns(D):
    """(row, col) of every nonzero entry of D outside its last two columns."""
    rows, cols = D.shape
    return [(row, col) for row in range(rows) for col in range(cols - 2)
            if not D[row, col].is_zero()]


class FrameData:
    """Per-chart frame of r-1 sections, with the chart's facts (does Y meet
    it, which pivot tier chose t): M (r x (r-1)) stacks T' without its pivot
    row over T''.  T' is the (r-1) x (r-1) identity whose pivot column t
    carries -sign s_a in each row a != t; T'' is 2 x (r-1), (f; g) in the
    pivot column and zero elsewhere.  So M has one row per a != t (1 at a,
    -sign s_a at t), then f e_t and g e_t, and M s = (0, ..., 0, sign f,
    sign g) as s[t-1] == sign.

    Lemma: every column of M but the pivot column is a unit vector, e_1 ...
    e_{r-2} in order (T' is the identity off its pivot column and T'' is
    zero off it), so for any r x r matrix Z the off-pivot columns of Z M
    are the first r-2 columns of Z; `build_Z` reads Z_ij's left block off
    this.

    M is stored: `__init__` builds it from (t, sign, f, g, s) when not
    given, and a loaded document supplies its own, which the verify suite
    then checks.  `on(ctx)` restricts (f, g, s) to an overlap once, and
    `M_on(ctx)` restricts M once; `apply` multiplies T' or T'^{-1} into a
    vector there, which carries a cochain value to the vector x of its
    rank-one update and back (`_rank_one`, `_rank_one_value`).
    """

    def __init__(self, chart, t, sign, f, g, s, meets, tier, M=None):
        self.chart = chart
        self.t = t          # pivot position, 1-based
        self.sign = sign    # (-1) ** t
        self.f = f
        self.g = g
        self.s = s          # normalized sections; s[t-1] == sign exactly
        self.meets = meets  # does Y meet the chart
        self.tier = tier    # pivot rule that chose t (`load_sections`)
        if M is None:
            ctx, p = f.ctx, t - 1
            one, zero = LocElem.one(ctx), LocElem.zero(ctx)
            pivots = [(a, e.scale(-sign)) for a, e in enumerate(s) if a != p]
            pivots += [(None, f), (None, g)]
            M = MatrixL(ctx, [[e if b == p else one if b == a else zero
                               for b in range(len(s))] for a, e in pivots])
        self.M = M          # r x (r-1)
        # ctx -> (f, g, s) and (ctx, "M") -> M, transported there; valid
        # because a frame never changes
        self._on = {}

    def on(self, ctx):
        """(f, g, s) restricted to the overlap context ctx."""
        if ctx not in self._on:
            self._on[ctx] = (transport(self.f, ctx), transport(self.g, ctx),
                             [transport(e, ctx) for e in self.s])
        return self._on[ctx]

    def M_on(self, ctx):
        """M restricted to the overlap context ctx."""
        key = (ctx, "M")
        if key not in self._on:
            self._on[key] = self.M.transport_to(ctx)
        return self._on[key]

    def apply(self, xs, ctx, inverse=False):
        """T' xs on ctx: entry m != t gains -sign s_m x_t and the pivot entry
        is fixed; T'^{-1} is T' with the opposite off-pivot sign."""
        s, t = self.on(ctx)[2], self.t
        sign = -self.sign if inverse else self.sign
        return [x if m == t - 1 else x - (s[m] * xs[t - 1]).scale(sign)
                for m, x in enumerate(xs)]


class TransitionSet:
    """Transition matrices on sorted overlaps, their branches and emptiness.

    Z_ij = [[P, Q], [R, S]] with P (r-2)x(r-2), Q (r-2)x2, R 2x(r-2), S 2x2;
    rows/columns are ordered with the pivot rows moved last.
    Inverse and reversed transitions are derived, not stored in Z:
    det Z_ij = h_ij makes Z_ij^{-1} = adjugate(Z_ij) * h_ji.  A set keeps
    what it derives (reversed transitions from `get`, `det`, `defect`), so
    the build and the verify suite compute each once.

    Sharing: a set built on a `base` (the raw set under a corrected one)
    answers `get`, `det` and `defect` with the base's kept value whenever
    every sorted transition the value reads is the base's own object, since
    a value computed from the very same `MatrixL` objects is the same value;
    any other value is computed and kept here.  Where the correction is
    zero `correct` stores the raw object itself, and so does
    `cli.load_bundle` where the corrected matrix prints like the raw one,
    without parsing it; those values are computed once for both sets.

    Invariants, checked at construction (ValueError): Z is keyed by exactly
    the cover's sorted pairs i < j, which `pairs` holds, and a base has the
    same cover, line bundle and rank.  A stored reversed Z_ji would bypass
    adj(Z_ij) h_ji, and `verify_cocycle` and `verify_det` read the reversed
    identities off the sorted ones only because `get` derives them so.
    """

    def __init__(self, rank, status, cover, lb, Z, branch, empty, base=None):
        pairs = tuple(combinations(cover.charts, 2))
        if sorted(Z) != list(pairs):
            raise ValueError("transitions must be keyed by exactly the "
                             "sorted pairs i < j")
        if base is not None and (base.cover is not cover or base.lb is not lb
                                 or base.rank != rank):
            raise ValueError("a base must have the same cover, line bundle "
                             "and rank")
        self.rank = rank
        self.status = status    # "raw" | "corrected"
        self.cover = cover
        self.lb = lb
        self.pairs = pairs      # the cover's sorted (i, j), i < j
        self.Z = Z              # (i, j) -> r x r MatrixL on cover.ctx((i, j))
        self.branch = branch    # (i, j) -> "unit" | "split"
        self.empty = empty      # (i, j) -> does Y miss the overlap
        self.base = base
        # the sorted pairs whose transition is the base's own object
        self._shared = frozenset(p for p in pairs if base is not None
                                 and Z[p] is base.Z[p])
        # (kind, *charts) -> value derived from Z; valid because Z never
        # changes
        self._derived = {}

    def _shares(self, *charts):
        """Does every sorted transition among `charts` belong to the base?"""
        return bool(self._shared) and all(
            p in self._shared for p in combinations(sorted(set(charts)), 2))

    def get(self, i, j):
        """Transition for the ordered overlap (i, j)."""
        if i == j:
            return MatrixL.identity(self.cover.chart_ctx(i), self.rank)
        if (i, j) in self.Z:
            return self.Z[(i, j)]
        if self._shares(i, j):
            return self.base.get(i, j)
        key = ("get", i, j)
        if key not in self._derived:
            Zji = self.Z[(j, i)]
            self._derived[key] = Zji.adjugate().scalar_mul(
                self.lb.h(i, j, Zji.ctx))
        return self._derived[key]

    def det(self, i, j):
        """det Z_ij on the ordered overlap (i, j)."""
        if self._shares(i, j):
            return self.base.det(i, j)
        key = ("det", i, j)
        if key not in self._derived:
            self._derived[key] = self.get(i, j).det()
        return self._derived[key]

    def defect(self, i, j, k):
        """Z_ik - Z_ij Z_jk on the overlap of the ordered triple (i, j, k).

        Each entry is one `dot`, normalized once: the Z_ij row against the
        negated Z_jk column, plus Z_ik's entry times 1."""
        if self._shares(i, j, k):
            return self.base.defect(i, j, k)
        key = ("defect", i, j, k)
        if key not in self._derived:
            ctx = self.cover.ctx((i, j, k))
            Zik, Zij, Zjk = (self.get(a, b).transport_to(ctx)
                             for a, b in ((i, k), (i, j), (j, k)))
            one = LocElem.one(ctx)
            cols = [tuple(-x for x in col) + (one,) for col in zip(*Zjk.rows)]
            self._derived[key] = MatrixL(ctx, [
                [dot(row + (Zik[a, b],), col, ctx)
                 for b, col in enumerate(cols)]
                for a, row in enumerate(Zij.rows)])
        return self._derived[key]


# Chart automorphisms N_i intertwining two transition sets:
# Z_ij N_j = N_i Z'_ij with det N_i = 1 and N_i M_i = M_i exactly.
IsomorphismData = namedtuple("IsomorphismData", [
    "y",    # chart -> (r-1)-tuple
    "N",    # chart -> r x r MatrixL
    "xi"])  # degree-1 cochain recovered from the block deltas

# The bundle alone; ambient, lb, rank: cover.ambient, raw.lb, raw.rank
BundleResult = namedtuple("BundleResult", [
    "cover", "mode", "frames",
    "transitions",  # corrected
    "raw",
    "obstruction",  # triple-overlap defect, degree 2
    "xi",           # solved correction 1-cochain
    "meta"])


def normalize_generators(chart, f, g, s, t):
    """One chart's (f, g, s), rescaled so its pivot section is (-1)^t exactly.

    With pivot value p = s[t-1]: f <- f / p, g <- (-1)^t g, s <- (-1)^t s /
    p.  Returns (f, g, s, 1 / p); mutates nothing.
    """
    sgn = _sign(t)
    inv = invert(s[t - 1])
    if inv is None:
        raise PreconditionViolated(
            f"chart {chart}: pivot section {t} is not invertible on the chart")
    s = tuple((x * inv).scale(sgn) for x in s)
    if s[t - 1] != LocElem.const(inv.ctx, sgn):
        raise PreconditionViolated(
            f"chart {chart}: pivot did not normalize to {sgn}")
    return f * inv, g.scale(sgn), s, inv


def adjust_glue(A, fr_i, fr_j, target, lift_order="fg"):
    """The overlap matrix A_ij, retuned on its context so its determinant is
    target.

    The defect target - det A is a member of (f_i, g_i); its cofactors
    (phi, psi) feed the rank-one update A += [[psi g_j, -psi f_j], [-phi g_j,
    phi f_j]], which fixes the determinant without disturbing A (f_j; g_j) =
    (f_i; g_i).  Both identities are re-checked exactly; a defect outside
    (f_i, g_i), which only an A breaking that identity can have, fails the
    same way.
    """
    delta = target - A.det()
    if delta.is_zero():
        return A
    ctx = A.ctx
    fi, gi, _ = fr_i.on(ctx)
    fj, gj, _ = fr_j.on(ctx)
    try:
        phi, psi = _lift(delta, fi, gi, lift_order)
        A = A + MatrixL(ctx, [[psi * gj, -(psi * fj)],
                              [-(phi * gj), phi * fj]])
        ok = A.det() == target and A.matvec((fj, gj)) == (fi, gi)
    except NotInIdeal:
        ok = False
    if not ok:
        raise GluingFailure(f"overlap ({fr_i.chart}, {fr_j.chart}): "
                            "determinant adjustment failed")
    return A


def build_frames(sub, secs, As):
    """The frame of every chart (its pair restricted to its chart context,
    `normalize_generators`) and `extend_off_Y`'s overlap matrices As.

    Each A_ij (sorted, i < j) is conjugated by the charts' rescalings so
    A_ij (f_j; g_j) = (f_i; g_i) keeps holding for the normalized pairs,
    which is re-checked exactly on the frames' restrictions to the overlap
    (`FrameData.on`, kept for `build_Z`).  Returns (frames, {(i, j):
    conjugated A_ij}); `sub`, `secs` and `As` keep the loaded data.
    """
    frames, invs = {}, {}
    for i in sub.cover.charts:
        t = secs.t[i]
        f, g, s, invs[i] = normalize_generators(
            i, *sub.pair_on(i, sub.cover.chart_ctx(i)), secs.sections[i], t)
        frames[i] = FrameData(i, t, _sign(t), f, g, s, sub.meets_Y[i],
                              secs.tier[i])
    normalized = {}
    for (i, j), A in As.items():
        ctx = A.ctx
        inv_i = transport(invs[i], ctx)
        piv_j = transport(secs.sections[j][secs.t[j] - 1], ctx)
        si, sj = frames[i].sign, frames[j].sign
        A = MatrixL(ctx, [
            [A[0, 0] * piv_j * inv_i, (A[0, 1] * inv_i).scale(sj)],
            [(A[1, 0] * piv_j).scale(si), A[1, 1].scale(si * sj)],
        ])
        fi, gi, _ = frames[i].on(ctx)
        fj, gj, _ = frames[j].on(ctx)
        if A.matvec((fj, gj)) != (fi, gi):
            raise PreconditionViolated(
                f"overlap ({i}, {j}): normalization broke the gluing identity")
        normalized[(i, j)] = A
    return frames, normalized


def build_Z(frames, As, sub, secs, lb, lift_order="fg"):
    """Assemble the raw transition matrix on every sorted overlap.

    Z_ij must carry chart j's frame to chart i's: Z_ij M_j = M_i.  Every
    column of M_j but its pivot column t_j is a unit vector, e_1 ... e_{r-2}
    in order (see `FrameData`), so the off-pivot columns of Z_ij M_j are the
    first r-2 columns of Z_ij, and these must be M_i with column t_j
    deleted: that is Z_ij's left block (P over R).  `_rank_one` changes only
    the last two columns, so the corrected set keeps it.

    One `invert` of the pivot entry s_{j t_i} per overlap picks the branch.
    When it is invertible, S is the A_ij of `build_frames` (in As) retuned
    (`adjust_glue`) to determinant (-1)^{t_i} h_ij / s_{j t_i}, scaled by
    (-1)^{t_j} s_{j t_i}; otherwise — only legitimate when (f, g) is the
    unit ideal on the overlap — S is the split form built from comaximality
    certificates of both chart pairs.  Q lifts the off-pivot entries of
    (-1)^{t_j} T'_i s_j over (f_j, g_j), which lie in the ideal by the
    section compatibility.  Checks M_i = Z_ij M_j and det Z_ij = h_ij
    exactly (`_check_glue`).
    """
    cover = sub.cover
    r = secs.rank
    Zs, branch = {}, {}
    for i, j in combinations(cover.charts, 2):
        ctx = cover.ctx((i, j))
        fr_i, fr_j = frames[i], frames[j]
        t_i, sgn_i = fr_i.t, fr_i.sign
        t_j, sgn_j = fr_j.t, fr_j.sign
        fi, gi, _ = fr_i.on(ctx)
        fj, gj, s_j = fr_j.on(ctx)
        sji = s_j[t_i - 1]

        inv = invert(sji)
        if inv is not None:
            target = (lb.h(i, j, ctx) * inv).scale(sgn_i)
            A = adjust_glue(As[(i, j)], fr_i, fr_j, target, lift_order)
            S = A.scalar_mul(sji.scale(sgn_j))
            branch[(i, j)] = "unit"
        elif sub.empty_overlap[(i, j)]:
            ui, vi = unit_certificate(fi, gi)
            uj, vj = unit_certificate(fj, gj)
            S = ((MatrixL(ctx, [[fi], [gi]]) @ MatrixL(ctx, [[uj, vj]]))
                 .scalar_mul(sji.scale(sgn_j))
                 + (MatrixL(ctx, [[vi], [-ui]]) @ MatrixL(ctx, [[gj, -(fj)]]))
                 .scalar_mul(lb.h(i, j, ctx).scale(sgn_i * sgn_j)))
            branch[(i, j)] = "split"
        else:
            raise GluingFailure(
                f"overlap ({i}, {j}): chart {j}'s tuple is not invertible at "
                f"pivot {t_i} and the overlap still meets the subscheme")

        tps = fr_i.apply(s_j, ctx)
        Q = [_lift(e.scale(sgn_j), fj, gj, lift_order)
             for m, e in enumerate(tps) if m != t_i - 1]
        left = fr_i.M_on(ctx).delete_col(t_j - 1)
        Zs[(i, j)] = MatrixL(ctx, [(*a, *b) for a, b
                                   in zip(left.rows, [*Q, *S.rows])])
    raw = TransitionSet(rank=r, status="raw", cover=cover, lb=lb, Z=Zs,
                        branch=branch, empty=sub.empty_overlap)
    _check_glue(raw, frames)
    return raw


def _check_glue(Z, frames, pairs=None):
    """Z_ij M_j = M_i and det Z_ij = h_ij on every sorted overlap of `pairs`
    (all of Z's by default).  A raw set fails at stage build_Z, a corrected
    one at stage correct."""
    stage = "build_Z" if Z.status == "raw" else "correct"
    for i, j in Z.pairs if pairs is None else pairs:
        ctx = Z.cover.ctx((i, j))
        if Z.Z[(i, j)] @ frames[j].M_on(ctx) != frames[i].M_on(ctx):
            raise GluingFailure(
                f"overlap ({i}, {j}): {Z.status} transition does not carry "
                f"M_{j} to M_{i}", stage=stage)
        if Z.det(i, j) != Z.lb.h(i, j, ctx):
            raise GluingFailure(
                f"overlap ({i}, {j}): {Z.status} transition determinant is "
                "not h_ij", stage=stage)


def obstruction(Z, frames):
    """Extract the triple-overlap defect as an exact degree-2 cocycle.

    D = Z_ik - Z_ij Z_jk must vanish outside its last two columns and factor
    as the rank-one update of a value (`_rank_one_value`(D, frame_i,
    frame_k)): the value on (i, j, k) of the returned degree-2 cochain, with
    values in r-1 copies of the dual line bundle."""
    cover, lb, r = Z.cover, Z.lb, Z.rank
    data = {}
    for i, j, k in combinations(cover.charts, 3):
        ctx = cover.ctx((i, j, k))
        D = Z.defect(i, j, k)
        if off_columns(D):
            raise ShapeViolation(
                f"triple ({i}, {j}, {k}): defect has entries outside the "
                "final two columns", stage="build_Z")
        try:
            data[(i, j, k)] = _rank_one_value(D, frames[i], frames[k], ctx)
        except SerreError as exc:
            raise ShapeViolation(
                f"triple ({i}, {j}, {k}): defect block does not factor "
                f"through the chart pairs ({exc})", stage="build_Z")
    return CechCochain(cover, lb, 2, r - 1, data)


def correct(Z, obs, frames, max_degree=MAX_DEGREE):
    """Solve d xi = obs for the obstruction cochain obs and add the solution
    to every transition: Z_ij gains the rank-one update `_rank_one`(xi_ij,
    frame_i, frame_j), so Q and S change and P and R do not.  The corrected
    set satisfies Z_ik = Z_ij Z_jk exactly on every triple, with det and
    M-transport preserved.  Returns (corrected set, xi).

    Z is `build_Z`'s raw set, whose `_check_glue` has passed.  Where xi_ij
    is zero the corrected Z_ij is the raw object itself, and the corrected
    set is built on the raw one (`TransitionSet`'s sharing), so only the
    changed overlaps are glue-checked again and a triple whose three
    transitions are all raw reads the defect `obstruction` kept.  Every
    triple is still compared with zero; on a shared one the raw defect is
    U(obs_ijk), and obs_ijk = (d xi)_ijk = 0 there."""
    cover, lb, r = Z.cover, Z.lb, Z.rank
    xi = coboundary_solve(obs, max_degree=max_degree)
    newZ, changed = {}, []
    for i, j in Z.pairs:
        val = xi.get((i, j))
        if all(v.is_zero() for v in val):
            newZ[(i, j)] = Z.Z[(i, j)]
            continue
        _, U = _rank_one(val, frames[i], frames[j], cover.ctx((i, j)), r)
        newZ[(i, j)] = Z.Z[(i, j)] + U
        changed.append((i, j))
    corrected = TransitionSet(rank=r, status="corrected", cover=cover, lb=lb,
                              Z=newZ, branch=Z.branch, empty=Z.empty, base=Z)
    _check_glue(corrected, frames, changed)
    for i, j, k in combinations(cover.charts, 3):
        zero = MatrixL.zeros(cover.ctx((i, j, k)), r, r)
        if corrected.defect(i, j, k) != zero:
            raise GluingFailure(
                f"triple ({i}, {j}, {k}): corrected transitions are not a "
                "cocycle", stage="correct")
    return corrected, xi


def _check_max_degree(max_degree):
    """The ansatz bound of a build or a compare, checked before any work."""
    if max_degree < 0:
        raise ShapeViolation("max_degree must be non-negative")
    return max_degree


def compare_bundles(A, B, max_degree=MAX_DEGREE):
    """Decide whether two builds over identical local data are isomorphic.

    Each dZ = Z'_ij - Z_ij must vanish outside its last two columns and
    factor like a triple defect, dZ = `_rank_one`(xi_ij, frame_i, frame_j);
    the values xi_ij (`_rank_one_value`) form a degree-1 cocycle xi,
    delta(Y) = xi is solved, and with (y_i, U_i) = `_rank_one`(Y_i, frame_i,
    frame_i) the automorphisms N_i = I + U_i are returned after checking
    det N_i = 1, N_i M_i = M_i and Z_ij N_j = N_i Z'_ij exactly."""
    if A.cover.ambient != B.cover.ambient:
        raise SerreError("documents live on different ambient spaces",
                         stage="compare")
    _check_max_degree(max_degree)
    if A.raw.lb.twist != B.raw.lb.twist:
        raise FormMismatch("the two bundles have different determinant twists")
    if A.raw.rank != B.raw.rank:
        raise FormMismatch("the two bundles have different ranks")
    r = A.raw.rank
    for i in A.cover.charts:
        fa, fb = A.frames[i], B.frames[i]
        if fa.t != fb.t:
            raise FormMismatch(f"chart {i}: different pivot positions")
        try:
            same = fa.f == fb.f and fa.g == fb.g and fa.s == fb.s
        except ValueError:
            same = False        # incompatible chart contexts (units differ)
        if not same:
            raise FormMismatch(
                f"chart {i}: different normalized local data")

    data = {}
    for i, j in A.transitions.pairs:
        ctx = A.cover.ctx((i, j))
        fr_i, fr_j = A.frames[i], A.frames[j]
        dZ = B.transitions.Z[(i, j)] - A.transitions.Z[(i, j)]
        if off_columns(dZ):
            raise FormMismatch(
                f"overlap ({i}, {j}): frame blocks differ; the transition "
                "sets are not comparable")
        try:
            val = _rank_one_value(dZ, fr_i, fr_j, ctx)
            rank_one = dZ == _rank_one(val, fr_i, fr_j, ctx, r)[1]
        except SerreError:
            rank_one = False
        if not rank_one:
            raise FormMismatch(
                f"overlap ({i}, {j}): block difference is not of coboundary "
                "shape")
        data[(i, j)] = val

    xi = CechCochain(A.cover, A.raw.lb, 1, r - 1, data)
    # No Obstructed can come out here.  Only the monomial solver raises it,
    # and its per-multidegree systems are the graded pieces of the
    # standard-cover Cech complex of O(-twist); H^1(P^n, O(m)) = 0 for
    # n >= 2 (the paper's uniqueness hypothesis H^1(L*) = 0), and builds and
    # loaded documents both have n >= 2.  The ansatz raises only Inconclusive.
    Y = coboundary_solve(xi, max_degree=max_degree)

    ymap, Nmap = {}, {}
    for i in A.cover.charts:
        fr = A.frames[i]
        ctx = fr.f.ctx
        y, U = _rank_one(Y.get((i,)), fr, fr, ctx, r)
        N = MatrixL.identity(ctx, r) + U
        if N.det() != LocElem.one(ctx):
            raise FormMismatch(f"chart {i}: automorphism determinant is not 1")
        if N @ fr.M != fr.M:
            raise FormMismatch(f"chart {i}: automorphism moves the sections")
        ymap[i] = tuple(y)
        Nmap[i] = N

    for i, j in A.transitions.pairs:
        ctx = A.cover.ctx((i, j))
        lhs = A.transitions.Z[(i, j)] @ Nmap[j].transport_to(ctx)
        rhs = Nmap[i].transport_to(ctx) @ B.transitions.Z[(i, j)]
        if lhs != rhs:
            raise FormMismatch(
                f"overlap ({i}, {j}): automorphisms fail to intertwine the "
                "transition sets")
    return IsomorphismData(y=ymap, N=Nmap, xi=xi)


def build_bundle(doc, lift_order=None, max_degree=None):
    """Run the whole pipeline on a parsed input document.

    Document fields: ambient {kind: "projective", dim}, line_bundle
    {twist}, rank, subscheme {mode, ...}, sections, options {lift_order,
    max_degree}; the arguments, when given, override the options.  Returns
    a BundleResult carrying the frames, the raw and corrected transition
    sets and the obstruction data, unverified: `verify.run_all` checks it.
    """
    ambient = read_ambient(doc)
    twist = need(need(doc, "line_bundle", dict, ""), "twist", int,
                 "line_bundle")
    rank = need(doc, "rank", int, "")
    if rank < 2:
        raise ShapeViolation("rank must be at least 2")
    options = {"lift_order": "fg", "max_degree": MAX_DEGREE}
    if "options" in doc:
        options.update(need(doc, "options", dict, ""))
    if lift_order is not None:
        options["lift_order"] = lift_order
    if max_degree is not None:
        options["max_degree"] = max_degree
    lift_order = options["lift_order"]
    if lift_order not in ("fg", "gf"):
        raise ShapeViolation("lift_order must be 'fg' or 'gf'")
    max_degree = _check_max_degree(need(options, "max_degree", int, ""))

    cover = Cover(ambient)
    lb = LineBundleData(ambient, twist)
    sub = load_subscheme(cover, need(doc, "subscheme", dict, ""))
    secs = load_sections(cover, sub, doc.get("sections"), rank)
    As = extend_off_Y(sub, secs, lb)

    frames, As = build_frames(sub, secs, As)
    raw = build_Z(frames, As, sub, secs, lb, lift_order=lift_order)
    obs = obstruction(raw, frames)
    corrected, xi = correct(raw, obs, frames, max_degree=max_degree)

    return BundleResult(cover=cover, mode=sub.mode, frames=frames,
                        transitions=corrected, raw=raw, obstruction=obs,
                        xi=xi, meta={"lift_order": lift_order,
                                     "max_degree": max_degree})
