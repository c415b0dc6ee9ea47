from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from serrekit import serre
from serrekit.algebra import LocElem, MatrixL, Poly, parse_poly
from serrekit.cech import cohomology_dim
from serrekit.cover import (Cover, LineBundleData, SubschemeData,
                            extend_off_Y, load_sections, load_subscheme,
                            read_ambient)
from serrekit.errors import (FormMismatch, GluingFailure, Obstructed,
                             SerreError, ShapeViolation)
from serrekit.ideals import invert
from serrekit.serre import (BundleResult, TransitionSet, adjust_glue,
                            build_bundle, build_frames, build_Z,
                            compare_bundles, correct, normalize_generators,
                            obstruction)
from serrekit.verify import run_all


def _poly(ctx, text):
    """A polynomial in the variables of the context ctx."""
    return parse_poly(text, ctx.var_names())


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def ci_line_doc(**options):
    """V(x0, x1) in P^3 with twist 2 and the constant section tuple."""
    doc = {
        "ambient": {"kind": "projective", "dim": 3},
        "line_bundle": {"twist": 2},
        "rank": 2,
        "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
        "sections": {"2": ["1"], "3": ["1"]},
    }
    if options:
        doc["options"] = dict(options)
    return doc


def point_doc(twist=1):
    """The single point V(x0, x1) in P^2."""
    return {
        "ambient": {"kind": "projective", "dim": 2},
        "line_bundle": {"twist": twist},
        "rank": 2,
        "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
        "sections": {"2": ["1"]},
    }


def skew_lines_doc(**options):
    """V(x0, x1) union V(x2, x3) in P^3, declared chart by chart."""
    doc = {
        "ambient": {"kind": "projective", "dim": 3},
        "line_bundle": {"twist": 2},
        "rank": 2,
        "subscheme": {"mode": "charts", "pairs": {
            "0": ["x2", "x3"],
            "1": ["x2", "x3"],
            "2": ["x0", "x1"],
            "3": ["x0", "x1"],
        }},
        "sections": {"0": ["1"], "1": ["1"], "2": ["1"], "3": ["1"]},
    }
    if options:
        doc["options"] = dict(options)
    return doc


def two_points_doc():
    """Reduced points [1:0:0] and [0:1:0] in P^2 with rank 3 data."""
    return {
        "ambient": {"kind": "projective", "dim": 2},
        "line_bundle": {"twist": 1},
        "rank": 3,
        "subscheme": {"mode": "charts", "pairs": {
            "0": ["x1", "x2"],
            "1": ["x0", "x2"],
        }},
        "sections": {"0": ["1", "0"], "1": ["0", "1"]},
    }


def _loaded(doc):
    """The loaded stages of a build: cover, line bundle, subscheme and
    section data, and the A_ij of `extend_off_Y`."""
    ambient = read_ambient(doc)
    cover = Cover(ambient)
    lb = LineBundleData(ambient, doc["line_bundle"]["twist"])
    sub = load_subscheme(cover, doc["subscheme"])
    secs = load_sections(cover, sub, doc["sections"], doc["rank"])
    return cover, lb, sub, secs, extend_off_Y(sub, secs, lb)


def rand_loc(ctx, rng, deg=3):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * ctx.nvars
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-4, 4))
    num = Poly(ctx.nvars, terms)
    den = {}
    keys = ctx.unit_keys()
    if keys and rng.random() < 0.5:
        den[rng.choice(keys)] = rng.randint(1, 2)
    return LocElem(ctx, num, den)


# -- normalization -----------------------------------------------------------


def test_normalize_constant_section():
    """Pivot 1 at position 1: f is kept, g flips sign, s becomes -1; the
    loaded pair and sections are left as they were."""
    cover, lb, sub, secs, As = _loaded(point_doc())
    ctx2 = sub.pairs[2][0].ctx
    f_before, g_before = sub.pairs[2]
    fr, inv = normalize_generators(2, f_before, g_before, secs.sections[2],
                                   secs.t[2])
    assert fr.f == f_before
    assert fr.g == -g_before
    assert fr.s == (LocElem.const(ctx2, -1),)
    assert inv == LocElem.one(ctx2)
    assert sub.pairs[2] == (f_before, g_before)
    assert secs.sections[2] == (LocElem.one(ctx2),)


def test_normalize_twice_restores_pair():
    """Starting from s = -1, two applications undo each other on (f, g)."""
    doc = point_doc()
    doc["sections"] = {"2": ["-1"]}
    cover, lb, sub, secs, As = _loaded(doc)
    f0, g0 = sub.pairs[2]
    fr, _ = normalize_generators(2, f0, g0, secs.sections[2], secs.t[2])
    assert fr.f == -f0 and fr.g == -g0
    assert fr.s[0] == LocElem.const(f0.ctx, -1)
    fr, _ = normalize_generators(2, fr.f, fr.g, fr.s, fr.t)
    assert fr.f == f0 and fr.g == g0
    assert fr.s[0] == LocElem.const(f0.ctx, -1)


def test_normalize_keeps_overlap_matrices_exact():
    cover, lb, sub, secs, As = _loaded(skew_lines_doc())
    frames, normalized = build_frames(sub, secs, As)
    assert set(normalized) == set(As)
    for (i, j), A in normalized.items():
        ctx = A.ctx
        fi, gi, _ = frames[i].on(ctx)
        fj, gj, _ = frames[j].on(ctx)
        assert A.matvec((fj, gj)) == (fi, gi)


def test_build_keeps_the_loaded_data():
    """The frames are the one normalized copy: after a build the subscheme
    and section data hold what was loaded."""
    bundle = build_bundle(point_doc())
    ctx2 = bundle.cover.chart_ctx(2)
    assert bundle.secs.sections[2] == (LocElem.one(ctx2),)
    assert bundle.frames[2].s == (LocElem.const(ctx2, -1),)
    assert bundle.sub.pairs[2][1] == -bundle.frames[2].g


# -- frames ------------------------------------------------------------------


def _tprime_reference(fr):
    """T' of a frame from its definition: the (r-1) x (r-1) identity whose
    pivot column carries -sign s_m in every row m != t."""
    ctx, t = fr.f.ctx, fr.t
    n = len(fr.s)
    one, zero = LocElem.one(ctx), LocElem.zero(ctx)
    rows = [[one if a == b else zero for b in range(n)] for a in range(n)]
    for m in range(n):
        if m != t - 1:
            rows[m][t - 1] = fr.s[m].scale(-fr.sign)
    return MatrixL(ctx, rows)


def _tpp_reference(fr):
    """T'' of a frame from its definition: 2 x (r-1), (f; g) in the pivot
    column and zero elsewhere."""
    zero = LocElem.zero(fr.f.ctx)
    rows = [[zero] * len(fr.s) for _ in range(2)]
    rows[0][fr.t - 1] = fr.f
    rows[1][fr.t - 1] = fr.g
    return MatrixL(fr.f.ctx, rows)


def test_frame_identities_rank_three():
    cover, lb, sub, secs, As = _loaded(two_points_doc())
    frames, _ = build_frames(sub, secs, As)
    assert {frames[i].t for i in cover.charts} == {1, 2}
    for i in cover.charts:
        fr = frames[i]
        ctx = fr.f.ctx
        Tp, Tpp = _tprime_reference(fr), _tpp_reference(fr)
        top = Tp.delete_row(fr.t - 1)
        assert top.delete_col(fr.t - 1) == MatrixL.identity(ctx, 1)
        assert Tpp.delete_col(fr.t - 1) == MatrixL.zeros(ctx, 2, 1)
        assert all(e.is_zero() for e in top.matvec(fr.s))
        assert Tpp.matvec(fr.s) == (fr.f.scale(fr.sign),
                                    fr.g.scale(fr.sign))
        assert fr.M.shape == (3, 2)
        assert fr.M == MatrixL(ctx, top.rows + Tpp.rows)


def test_frame_rank_two_degenerates_to_pair_column():
    cover, lb, sub, secs, As = _loaded(point_doc())
    frames, _ = build_frames(sub, secs, As)
    fr = frames[2]
    assert fr.M.shape == (2, 1)
    assert fr.M[0, 0] == fr.f and fr.M[1, 0] == fr.g


def test_tprime_inverse_roundtrip_random():
    """The closed-form inverse composed with the frame is the identity."""
    cover, lb, sub, secs, As = _loaded(two_points_doc())
    frames, _ = build_frames(sub, secs, As)
    rng = random.Random(501)
    for trial in range(120):
        fr = frames[cover.charts[trial % len(cover.charts)]]
        ctx = fr.f.ctx
        u = tuple(rand_loc(ctx, rng) for _ in range(2))
        w = fr.apply(u, ctx, inverse=True)
        assert _tprime_reference(fr).matvec(w) == u


def test_tprime_inverse_fixes_off_pivot_columns():
    cover, lb, sub, secs, As = _loaded(two_points_doc())
    frames, _ = build_frames(sub, secs, As)
    fr = frames[1]          # pivot at position 2
    ctx = fr.f.ctx
    e1 = (LocElem.one(ctx), LocElem.zero(ctx))
    assert tuple(fr.apply(e1, ctx, inverse=True)) == e1


# -- determinant adjustment --------------------------------------------------


def _ci_line_overlap():
    """The normalized ci_line overlap matrices, its frames and the overlap
    (2, 3) with its determinant target (-1) * h / (-1), both pivot signs
    being -1."""
    cover, lb, sub, secs, As = _loaded(ci_line_doc())
    frames, As = build_frames(sub, secs, As)
    ctx = cover.ctx((2, 3))
    return As, frames, ctx, lb.h(2, 3, ctx)


def test_adjust_glue_ci_line_defect_zero():
    As, frames, ctx, target = _ci_line_overlap()
    A = As[(2, 3)]
    retuned = adjust_glue(A, frames[2], frames[3], target)
    assert retuned.det() == target
    assert retuned == A


def test_adjust_glue_restores_perturbed_determinant():
    As, frames, ctx, target = _ci_line_overlap()
    A = adjust_glue(As[(2, 3)], frames[2], frames[3], target)
    fi, gi, _ = frames[2].on(ctx)
    fj, gj, _ = frames[3].on(ctx)
    phi = LocElem(ctx, _poly(ctx, "x1"))
    psi = LocElem(ctx, _poly(ctx, "x3"))
    tweak = MatrixL(ctx, [[psi * gj, -(psi * fj)],
                          [-(phi * gj), phi * fj]])
    A = A + tweak
    assert A.matvec((fj, gj)) == (fi, gi)
    assert A.det() != target
    A = adjust_glue(A, frames[2], frames[3], target)
    assert A.det() == target
    assert A.matvec((fj, gj)) == (fi, gi)


def test_build_inverts_each_overlap_pivot_once(monkeypatch):
    """One `invert` per chart pivot in normalize_generators and one per
    sorted overlap in build_Z, which both retunes and assembles there:
    7 + 21 on P^6."""
    calls = []

    def counted(e):
        calls.append(e)
        return invert(e)

    monkeypatch.setattr(serre, "invert", counted)
    build_bundle(json.loads((INPUTS / "line_p6.json").read_text(
        encoding="utf-8")))
    assert len(calls) == 28


def test_build_restricts_each_chart_pair_to_each_overlap_once(monkeypatch):
    """`extend_off_Y` restricts both chart pairs to every sorted overlap and
    no later stage asks `SubschemeData` again: 2 * 21 calls on P^6."""
    calls = []
    pair_on = SubschemeData.pair_on

    def counted(self, i, ctx):
        calls.append((i, ctx))
        return pair_on(self, i, ctx)

    monkeypatch.setattr(SubschemeData, "pair_on", counted)
    build_bundle(json.loads((INPUTS / "line_p6.json").read_text(
        encoding="utf-8")))
    assert len(calls) == 42


# -- full pipeline -----------------------------------------------------------


def test_ci_line_build():
    bundle = build_bundle(ci_line_doc())
    assert run_all(bundle).ok
    assert bundle.transitions.status == "corrected"
    ctx = bundle.cover.ctx((2, 3))
    a3 = LocElem(ctx, _poly(ctx, "x3"))
    Z = bundle.raw.Z[(2, 3)]
    assert Z[0, 0] == a3 and Z[1, 1] == a3
    assert Z[0, 1].is_zero() and Z[1, 0].is_zero()
    assert bundle.meta["unique"] is True
    assert bundle.meta["h1_dim"] == 0


def test_point_build_exercises_off_subscheme_charts():
    bundle = build_bundle(point_doc())
    assert run_all(bundle).ok
    assert bundle.sub.meets_Y == {0: False, 1: False, 2: True}
    assert bundle.meta["pivots"] == {0: 1, 1: 1, 2: 1}
    assert bundle.meta["unique"] is True


def test_skew_lines_build_and_correction():
    bundle = build_bundle(skew_lines_doc())
    assert run_all(bundle).ok
    assert bundle.transitions.status == "corrected"
    # every chart carries part of the union, no canonical off charts
    assert all(bundle.sub.meets_Y.values())
    # mixed-line overlaps are empty; same-line overlaps are not
    assert bundle.sub.empty_overlap[(0, 2)]
    assert bundle.sub.empty_overlap[(1, 3)]
    assert not bundle.sub.empty_overlap[(0, 1)]
    assert not bundle.sub.empty_overlap[(2, 3)]
    assert cohomology_dim(bundle.ambient, -2, 2) == 0
    assert cohomology_dim(bundle.ambient, -2, 1) == 0
    assert bundle.meta["unique"] is True


def test_transition_set_keeps_dets_and_defects():
    bundle = build_bundle(skew_lines_doc())
    raw, corrected, cover = bundle.raw, bundle.transitions, bundle.cover
    for i, j, k in combinations(cover.charts, 3):
        ctx = cover.ctx((i, j, k))
        Zij, Zjk, Zik = (raw.Z[p].transport_to(ctx)
                         for p in ((i, j), (j, k), (i, k)))
        D = raw.defect(i, j, k)
        assert D == Zik - Zij @ Zjk
        assert raw.defect(i, j, k) is D
    triples = list(permutations(cover.charts, 3))
    assert len(triples) == 24
    for i, j, k in triples:
        D = corrected.defect(i, j, k)
        assert D == MatrixL.zeros(D.ctx, 2, 2)
    for i, j in permutations(cover.charts, 2):
        assert raw.det(i, j) == bundle.lb.h(i, j, cover.ctx((i, j)))


def test_correct_shares_and_glue_checks_only_the_changed_overlaps(
        monkeypatch):
    """line_p6's correction is nonzero on one overlap: the corrected set
    stores the raw object on the other 20 and glue-checks only that one."""
    checked = []
    real = serre._check_glue

    def record(Z, frames, pairs=None):
        checked.append((Z.status, None if pairs is None else list(pairs)))
        return real(Z, frames, pairs)
    monkeypatch.setattr(serre, "_check_glue", record)
    bundle = build_bundle(json.loads((INPUTS / "line_p6.json").read_text(
        encoding="utf-8")))
    changed = sorted(bundle.xi.data)
    assert len(changed) == 1
    assert checked == [("raw", None), ("corrected", changed)]
    cor = bundle.transitions
    assert cor.base is bundle.raw
    for p in cor.pairs:
        assert (cor.Z[p] is bundle.raw.Z[p]) == (p not in changed)


def test_correction_breaking_the_glue_fails_at_stage_correct(monkeypatch):
    """A rank-one update that also moves entry (0, 0) breaks det or
    M-transport on the one changed overlap of line_p6, and the corrected
    glue check names that overlap before any triple is compared."""
    real = serre._rank_one

    def broken(val, fr_i, fr_j, ctx, r):
        x, U = real(val, fr_i, fr_j, ctx, r)
        rows = [list(row) for row in U.rows]
        rows[0][0] = rows[0][0] + LocElem.one(ctx)
        return x, MatrixL(ctx, rows)
    monkeypatch.setattr(serre, "_rank_one", broken)
    with pytest.raises(GluingFailure, match=r"^overlap \(\d, \d\): corrected "
                       "transition") as exc:
        build_bundle(json.loads((INPUTS / "line_p6.json").read_text(
            encoding="utf-8")))
    assert exc.value.stage == "correct"


REFS = INPUTS.parent / "refs"


def test_defect_is_normalized_once_like_the_two_step_formula():
    """`TransitionSet.defect` forms each entry as one `dot`; on every raw
    and corrected sorted triple of the committed references it gives the
    same (num, den) as Z_ik - Z_ij Z_jk computed in two steps."""
    from serrekit.cli import load_bundle
    triples = 0
    for ref in sorted(REFS.glob("*.json")):
        doc = json.loads(ref.read_text(encoding="utf-8"))
        if "schema" not in doc:
            continue            # an error payload of an exit-2/3 build
        bundle = load_bundle(doc)
        for Z in (bundle.raw, bundle.transitions):
            for i, j, k in combinations(bundle.cover.charts, 3):
                ctx = bundle.cover.ctx((i, j, k))
                Zij, Zjk, Zik = (Z.Z[p].transport_to(ctx)
                                 for p in ((i, j), (j, k), (i, k)))
                two_step = Zik - Zij @ Zjk
                D = Z.defect(i, j, k)
                assert [[(e.num, e.den) for e in row] for row in D.rows] == [
                    [(e.num, e.den) for e in row] for row in two_step.rows]
                triples += 1
    assert triples == 290      # 145 sorted triples, raw and corrected


def test_frame_keeps_M_per_overlap():
    bundle = build_bundle(skew_lines_doc())
    for i, j in combinations(bundle.cover.charts, 2):
        ctx = bundle.cover.ctx((i, j))
        for fr in (bundle.frames[i], bundle.frames[j]):
            M = fr.M_on(ctx)
            assert M == fr.M.transport_to(ctx) and M.ctx == ctx
            assert fr.M_on(ctx) is M


@pytest.mark.parametrize("name", ["two_points_p2_r3", "line_p3_r4"])
def test_transition_left_block_is_the_frame_of_chart_i(name):
    """Z_ij M_j = M_i and the off-pivot columns of M_j are e_1 ... e_{r-2},
    so the first r-2 columns of Z_ij are M_i without column t_j, in the raw
    set and, as the correction touches only the last two columns, in the
    corrected one."""
    bundle = build_bundle(json.loads((INPUTS / f"{name}.json").read_text(
        encoding="utf-8")))
    r = bundle.rank
    assert r >= 3
    for Z in (bundle.raw, bundle.transitions):
        for i, j in Z.pairs:
            ctx = bundle.cover.ctx((i, j))
            left = MatrixL(ctx, [row[:r - 2] for row in Z.Z[(i, j)].rows])
            want = bundle.frames[i].M_on(ctx).delete_col(
                bundle.frames[j].t - 1)
            assert left == want


def test_build_Z_failure_is_tagged_glue():
    cover, lb, sub, secs, As = _loaded(ci_line_doc())
    frames, As = build_frames(sub, secs, As)
    As[(2, 3)] = As[(2, 3)].scalar_mul(LocElem.const(As[(2, 3)].ctx, 2))
    with pytest.raises(GluingFailure) as err:
        build_Z(frames, As, sub, secs, lb)
    assert err.value.stage == "build_Z"


def _raw_with_bumped_entry(bundle, pair, row, col):
    """A copy of the raw set with 1 added to one entry of Z_pair."""
    raw = bundle.raw
    Z = dict(raw.Z)
    rows = [list(r) for r in Z[pair].rows]
    rows[row][col] = rows[row][col] + LocElem.one(Z[pair].ctx)
    Z[pair] = MatrixL(Z[pair].ctx, rows)
    return TransitionSet(rank=raw.rank, status="raw", cover=raw.cover,
                         lb=raw.lb, Z=Z, branch=raw.branch)


def test_obstruction_rejects_defect_outside_last_columns():
    bundle = build_bundle(two_points_doc())
    raw = _raw_with_bumped_entry(bundle, (0, 2), 0, 0)
    with pytest.raises(ShapeViolation) as err:
        obstruction(raw, bundle.frames)
    assert err.value.stage == "build_Z"
    assert str(err.value) == ("triple (0, 1, 2): defect has entries outside "
                              "the final two columns")


def test_obstruction_rejects_defect_that_does_not_factor():
    bundle = build_bundle(two_points_doc())
    raw = _raw_with_bumped_entry(bundle, (0, 2), 0, 1)
    with pytest.raises(ShapeViolation) as err:
        obstruction(raw, bundle.frames)
    assert err.value.stage == "build_Z"
    assert str(err.value).startswith(
        "triple (0, 1, 2): defect block does not factor through the chart "
        "pairs (")


def test_two_points_rank_three_build():
    bundle = build_bundle(two_points_doc())
    report = run_all(bundle)
    assert report.ok
    assert bundle.meta["pivots"] == {0: 1, 1: 2, 2: 1}
    branches = bundle.meta["branches"]
    assert branches["0,1"] == "split"
    assert branches["1,2"] == "split"
    assert branches["0,2"] == "unit"
    names = {e.check for e in report.entries}
    assert "glue_row_transform_S" in names
    assert "glue_selector_R" in names
    assert "defect_shape" in names
    assert "dependency_locus" in names


def test_obstructed_point_with_cubic_twist():
    """One reduced point with twist 3 has a genuinely unremovable defect:
    the only candidate class lives in the one-dimensional degree-2
    cohomology of O(-3) and the constant-section data hits it."""
    with pytest.raises(Obstructed) as err:
        build_bundle(point_doc(twist=3))
    assert err.value.multidegree == (-1, -1, -1)
    assert err.value.component == 1
    assert err.value.stage == "correct"


def test_build_bundle_rejects_bad_documents():
    with pytest.raises(ShapeViolation):
        build_bundle([])
    with pytest.raises(ShapeViolation):
        build_bundle({"ambient": {"kind": "projective"}})
    doc = ci_line_doc()
    doc["rank"] = 1
    with pytest.raises(ShapeViolation):
        build_bundle(doc)
    doc = ci_line_doc(lift_order="xy")
    with pytest.raises(ShapeViolation):
        build_bundle(doc)


def test_sections_list_form_equivalent():
    doc = ci_line_doc()
    doc["sections"] = [{"chart": 2, "values": ["1"]},
                       {"chart": 3, "values": ["1"]}]
    bundle = build_bundle(doc)
    assert run_all(bundle).ok


# -- comparison --------------------------------------------------------------


def test_compare_self_is_identity():
    a = build_bundle(ci_line_doc())
    b = build_bundle(ci_line_doc())
    iso = compare_bundles(a, b)
    for i in a.cover.charts:
        ctx = a.frames[i].f.ctx
        assert iso.N[i] == MatrixL.identity(ctx, 2)
        assert all(e.is_zero() for e in iso.y[i])
    assert iso.xi.is_zero()


def test_compare_lift_orders_skew_lines():
    """Different cofactor choices give different transition sets that are
    still isomorphic via unit-determinant chart automorphisms."""
    a = build_bundle(skew_lines_doc(lift_order="fg"))
    b = build_bundle(skew_lines_doc(lift_order="gf"))
    iso = compare_bundles(a, b)
    for i in a.cover.charts:
        ctx = a.frames[i].f.ctx
        assert iso.N[i].det() == LocElem.one(ctx)
        assert iso.N[i] @ a.frames[i].M == a.frames[i].M
    for (i, j) in a.transitions.pairs:
        ctx = a.cover.ctx((i, j))
        lhs = a.transitions.Z[(i, j)] @ iso.N[j].transport_to(ctx)
        rhs = iso.N[i].transport_to(ctx) @ b.transitions.Z[(i, j)].transport_to(ctx)
        assert lhs == rhs


def test_compare_rejects_different_shapes():
    """Different ambients are checked first, before the ansatz bound, as a
    plain `SerreError` tagged `compare`; different local data is a
    `FormMismatch`."""
    a = build_bundle(ci_line_doc())
    b = build_bundle(point_doc())
    with pytest.raises(SerreError) as info:
        compare_bundles(a, b, max_degree=-1)
    assert type(info.value) is SerreError and info.value.stage == "compare"
    assert str(info.value) == "documents live on different ambient spaces"
    c = build_bundle(two_points_doc())
    with pytest.raises(FormMismatch):
        compare_bundles(b, c)
