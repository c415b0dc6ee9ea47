"""`verify_cocycle` and `verify_det` read the reversed and unsorted
identities off the sorted ones, and the frame checks read their entries off
the rebuilt frame (the lemmas in the `verify` module docstring).  These
tests keep the direct versions, which multiply out every ordered pair and
triple and compute every minor ideal, as references, and
require the same full report — order, scope, pass flag and witness — on
every reference document and on tampered copies where a premise of a lemma
fails.  Likewise a corrected set that shares the raw set's transitions
(`TransitionSet`'s `base`) is compared with one built with no base."""

import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from pathlib import Path

import pytest

from serrekit import cli, ideals, verify
from serrekit.algebra import LocElem, MatrixL, Poly
from serrekit.cech import CechCochain, is_cocycle
from serrekit.cli import bundle_doc, load_bundle, main
from serrekit.cover import LineBundleData
from serrekit.ideals import ideal_equal, is_unit_ideal
from serrekit.serre import FrameData, TransitionSet

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
BUNDLE_REFS = sorted(p.stem for p in REFS.glob("*.json")
                     if "error" not in json.loads(p.read_text("utf-8")))


def _ref_entry(check, scope, ok, diff):
    return verify.ReportEntry(check, scope, bool(ok),
                              "" if ok else repr(diff))


def reference_verify_cocycle(Z):
    """Every ordered pair and triple multiplied out."""
    entries = []
    cover = Z.cover
    r = Z.rank
    for i in cover.charts:
        ctx = cover.chart_ctx(i)
        diff = Z.get(i, i) - MatrixL.identity(ctx, r)
        ok = diff == MatrixL.zeros(ctx, r, r)
        entries.append(_ref_entry("transition_identity", f"chart {i}", ok,
                                  diff))
    for i, j in permutations(cover.charts, 2):
        ctx = cover.ctx((i, j))
        diff = Z.get(i, j) @ Z.get(j, i) - MatrixL.identity(ctx, r)
        ok = diff == MatrixL.zeros(ctx, r, r)
        entries.append(
            _ref_entry("transition_inverse", f"overlap ({i}, {j})", ok, diff))
    for i, j, k in permutations(cover.charts, 3):
        diff = Z.defect(i, j, k)
        ok = diff == MatrixL.zeros(diff.ctx, r, r)
        entries.append(_ref_entry("transition_cocycle",
                                  f"triple ({i}, {j}, {k})", ok, diff))
    return entries


def reference_verify_det(Z):
    """det Z_ij - h_ij on every ordered overlap, h from Z.lb."""
    entries = []
    cover, lb = Z.cover, Z.lb
    for i, j in permutations(cover.charts, 2):
        diff = Z.det(i, j) - lb.h(i, j, cover.ctx((i, j)))
        entries.append(
            _ref_entry(f"determinant_{Z.status}", f"overlap ({i}, {j})",
                       diff.is_zero(), diff))
    return entries


def reference_verify_dependency_locus(frames, sub):
    """Every maximal minor of every M_i, and the minor ideal compared with
    (f_i, g_i) or with the unit ideal by `ideal_equal` or `is_unit_ideal`."""
    entries = []
    for i in sorted(frames):
        fr = frames[i]
        minors = [fr.M.delete_row(row).det() for row in range(fr.M.shape[0])]
        if sub.meets_Y[i]:
            ok = ideal_equal(minors, [fr.f, fr.g])
            witness = ("" if ok else
                       verify._minor_ideal_gap(minors, fr.f, fr.g))
        else:
            ok = is_unit_ideal(minors)
            witness = "" if ok else "minors do not generate the unit ideal"
        entries.append(verify.ReportEntry("dependency_locus", f"chart {i}",
                                          ok, witness))
    return entries


def reference_verify_section_relation(frames):
    """M_i s_i multiplied out on every chart."""
    entries = []
    for i in sorted(frames):
        fr = frames[i]
        v = fr.M.matvec(fr.s)
        ok = (all(e.is_zero() for e in v[:-2])
              and v[-2] == fr.f.scale(fr.sign)
              and v[-1] == fr.g.scale(fr.sign))
        entries.append(verify.ReportEntry("section_relation", f"chart {i}",
                                          ok, "" if ok else repr(list(v))))
    return entries


REFERENCES = {"verify_cocycle": reference_verify_cocycle,
              "verify_det": reference_verify_det,
              "verify_dependency_locus": reference_verify_dependency_locus,
              "verify_section_relation": reference_verify_section_relation}


def _reports(doc, monkeypatch):
    """run_all's report, and the one built with the references, each on its
    own load of `doc` so that neither reads what the other derived."""
    fast = verify.run_all(load_bundle(doc)).to_doc()
    with monkeypatch.context() as m:
        for name, reference in REFERENCES.items():
            m.setattr(verify, name, reference)
        slow = verify.run_all(load_bundle(doc)).to_doc()
    return fast, slow


def _load_ref(name):
    return load_bundle(json.loads((REFS / f"{name}.json").read_text("utf-8")))


def _tampered_doc(bundle):
    """The document of a tampered bundle, with an empty verification list:
    `load_bundle` reads no report."""
    return json.loads(json.dumps(bundle_doc(bundle, verify.Report([]))))


@pytest.mark.parametrize("name", BUNDLE_REFS)
def test_report_matches_reference_on_refs(name, monkeypatch):
    doc = json.loads((REFS / f"{name}.json").read_text("utf-8"))
    fast, slow = _reports(doc, monkeypatch)
    assert fast == slow
    assert all(e["passed"] for e in fast)


def _with_Z(Zset, changes):
    """A fresh copy of a transition set with some Z_ij replaced."""
    return TransitionSet(rank=Zset.rank, status=Zset.status,
                         cover=Zset.cover, lb=Zset.lb,
                         Z={**Zset.Z, **changes}, branch=Zset.branch)


def _edit_rows(A, edit):
    rows = [list(row) for row in A.rows]
    edit(rows)
    return MatrixL(A.ctx, rows)


def _bump_raw_entry(bundle):
    """One raw entry edited: 1 added to entry (0, 0) of raw Z_01."""
    def bump(rows):
        rows[0][0] = rows[0][0] + LocElem.one(rows[0][0].ctx)
    raw = _with_Z(bundle.raw, {(0, 1): _edit_rows(bundle.raw.Z[(0, 1)],
                                                   bump)})
    return bundle._replace(raw=raw)


def _conjugate_corrected(bundle):
    """Corrected Z_01 conjugated by C = I + E_01: det and the inverses
    survive, the cocycle on the triples through (0, 1) does not."""
    Z = bundle.transitions.Z[(0, 1)]
    ctx, r = Z.ctx, Z.shape[0]
    one = LocElem.one(ctx)
    C = _edit_rows(MatrixL.identity(ctx, r),
                   lambda rows: rows[0].__setitem__(1, one))
    Cinv = _edit_rows(MatrixL.identity(ctx, r),
                      lambda rows: rows[0].__setitem__(1, -one))
    cor = _with_Z(bundle.transitions, {(0, 1): C @ Z @ Cinv})
    return bundle._replace(transitions=cor)


def _double_corrected_row(bundle):
    """Row 0 of corrected Z_01 scaled by 2: det Z_01 = 2 h_01."""
    def double(rows):
        rows[0] = [e.scale(2) for e in rows[0]]
    cor = _with_Z(bundle.transitions,
                  {(0, 1): _edit_rows(bundle.transitions.Z[(0, 1)], double)})
    return bundle._replace(transitions=cor)


def _negate_through_chart_1(bundle):
    """Z_01 -> Z_01 D and Z_12 -> D Z_12 with D = diag(-1, 1, ...): the
    sorted defect Z_02 - Z_01 Z_12 stays zero, det Z_01 = -h_01 breaks the
    inverse premise, and with it the unsorted orders of triple (0, 1, 2)."""
    def negate_col(rows):
        for row in rows:
            row[0] = -row[0]

    def negate_row(rows):
        rows[0] = [-e for e in rows[0]]
    Z = bundle.transitions.Z
    cor = _with_Z(bundle.transitions,
                  {(0, 1): _edit_rows(Z[(0, 1)], negate_col),
                   (1, 2): _edit_rows(Z[(1, 2)], negate_row)})
    return bundle._replace(transitions=cor)


def _with_frame(bundle, chart, **changes):
    """The bundle with one chart's frame rebuilt from changed fields; M is
    rebuilt from (t, sign, f, g, s) unless given."""
    fr = bundle.frames[chart]
    fields = {"chart": chart, "t": fr.t, "sign": fr.sign, "f": fr.f,
              "g": fr.g, "s": fr.s, "M": fr.M, **changes}
    return bundle._replace(frames={**bundle.frames,
                                   chart: FrameData(**fields)})


def _bump_M(bundle, chart=0):
    """1 added to the g entry of M_0 (last row, pivot column): its minor
    ideal becomes (f, g + 1)."""
    fr = bundle.frames[chart]

    def bump(rows):
        rows[-1][fr.t - 1] = rows[-1][fr.t - 1] + LocElem.one(fr.f.ctx)
    return _with_frame(bundle, chart, M=_edit_rows(fr.M, bump))


def _double_pivot_section(bundle, chart=0):
    """s_t doubled on chart 0; M, which does not read s_t, is kept."""
    fr = bundle.frames[chart]
    s = list(fr.s)
    s[fr.t - 1] = s[fr.t - 1].scale(2)
    return _with_frame(bundle, chart, s=tuple(s))


def _nonconstant_off_Y_pair(bundle, chart=0):
    """Chart 0, which misses Y, gets the pair (1 + x, x) with x its first
    variable: still the unit ideal, but neither entry is constant, so the
    dependency-locus entry is computed in full.  M is rebuilt."""
    fr = bundle.frames[chart]
    ctx = fr.f.ctx
    x = LocElem(ctx, Poly.variable(ctx.nvars, 0))
    return _with_frame(bundle, chart, f=LocElem.one(ctx) + x, g=x, M=None)


def _nonconstant_off_Y_pair_bumped_M(bundle):
    return _bump_M(_nonconstant_off_Y_pair(bundle))


TAMPERS = [
    ("ci33_p3_r3", _bump_M, "dependency_locus"),
    ("ci22_p3", _bump_M, "dependency_locus"),
    ("two_points_p2_r3", _double_pivot_section, "section_relation"),
    ("point_p2", _nonconstant_off_Y_pair_bumped_M, "dependency_locus"),
    ("line_p3_r4", _bump_raw_entry, "determinant_raw"),
    ("two_points_p2_r3", _conjugate_corrected, "transition_cocycle"),
    ("two_points_unit.gf5", _conjugate_corrected, "transition_cocycle"),
    ("two_points_p2_r3", _double_corrected_row, "determinant_corrected"),
    ("two_points_p2_r3", _negate_through_chart_1, "transition_cocycle"),
    ("line_p3_r4", _negate_through_chart_1, "transition_inverse"),
]


@pytest.mark.parametrize("name, tamper, broken", TAMPERS,
                         ids=[f"{n}-{t.__name__.strip('_')}"
                              for n, t, _ in TAMPERS])
def test_report_matches_reference_on_tampered_copies(name, tamper, broken,
                                                     monkeypatch):
    doc = _tampered_doc(tamper(_load_ref(name)))
    fast, slow = _reports(doc, monkeypatch)
    assert fast == slow
    assert any(e["check"] == broken and not e["passed"] for e in fast)


def test_unsorted_triples_fail_when_only_the_inverse_premise_does():
    """The sorted defect alone does not carry a triple: here it is zero and
    the orders that go through a reversed transition fail."""
    bundle = _negate_through_chart_1(_load_ref("two_points_p2_r3"))
    entries = verify.verify_cocycle(bundle.transitions)
    cocycle = {e.scope: e.passed for e in entries
               if e.check == "transition_cocycle"}
    assert cocycle["triple (0, 1, 2)"]
    assert not cocycle["triple (1, 0, 2)"]
    inverse = {e.scope: e.passed for e in entries
               if e.check == "transition_inverse"}
    assert not inverse["overlap (0, 1)"] and not inverse["overlap (1, 0)"]
    assert inverse["overlap (0, 2)"]


def test_verify_computes_no_reversed_transition_on_a_passing_set():
    bundle = _load_ref("line_p3_r4")
    assert verify.run_all(bundle).ok
    for Zset in (bundle.raw, bundle.transitions):
        kinds = {key[0] for key in Zset._derived}
        assert "get" not in kinds
        sorted_keys = {key[1:] for key in Zset._derived}
        assert all(list(key) == sorted(key) for key in sorted_keys)


@pytest.mark.parametrize("change", ["reversed", "missing", "extra"])
def test_transition_set_rejects_unsorted_or_mismatched_keys(change):
    Zset = _load_ref("point_p2").transitions
    Z = dict(Zset.Z)
    if change == "reversed":
        Z[(1, 0)] = Z.pop((0, 1))
    elif change == "missing":
        del Z[(0, 1)]
    else:
        Z[(1, 0)] = Z[(0, 1)]
    with pytest.raises(ValueError, match="sorted pairs"):
        TransitionSet(rank=Zset.rank, status=Zset.status, cover=Zset.cover,
                      lb=Zset.lb, Z=Z, branch=Zset.branch)


def test_glue_identities_subtract_only_for_a_failing_entry(monkeypatch):
    # `TransitionSet.defect` subtracts, so the kept defects are filled first
    bundle = load_bundle(json.loads((REFS / "line_p6.json").read_text("utf-8")))
    verify.verify_defect_shape(bundle.raw, bundle.frames)
    calls = []
    sub = MatrixL.__sub__

    def counted(self, other):
        calls.append(1)
        return sub(self, other)
    monkeypatch.setattr(MatrixL, "__sub__", counted)
    entries = verify.verify_glue_identities(bundle.raw, bundle.frames)
    assert entries and all(e.passed for e in entries)
    assert not calls


@pytest.mark.parametrize("name", BUNDLE_REFS)
def test_verify_builds_no_groebner_basis(name, monkeypatch):
    """Every frame premise holds on a built document, so no minor ideal is
    decided by a basis, and no other check needs one."""
    built = []
    real = ideals.buchberger

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(ideals, "buchberger", counted)
    assert verify.run_all(_load_ref(name)).ok
    assert not built


def _frame_entries(bundle, check):
    return {e.scope: e for e in verify.run_all(bundle).entries
            if e.check == check}


def test_tampered_M_fails_dependency_locus_on_its_chart():
    bundle = _load_ref("ci33_p3_r3")
    entries = _frame_entries(_bump_M(bundle), "dependency_locus")
    assert [s for s, e in entries.items() if not e.passed] == ["chart 0"]
    ref = reference_verify_dependency_locus(_bump_M(bundle).frames,
                                            bundle.sub)
    assert entries["chart 0"] == ref[0] and ref[0].witness


def test_tampered_pivot_section_fails_section_relation():
    bundle = _double_pivot_section(_load_ref("two_points_p2_r3"))
    assert verify._rebuilt_frame(bundle.frames[0])
    entries = _frame_entries(bundle, "section_relation")
    assert [s for s, e in entries.items() if not e.passed] == ["chart 0"]
    assert entries["chart 0"] == reference_verify_section_relation(
        bundle.frames)[0]
    assert _frame_entries(bundle, "dependency_locus")["chart 0"].passed


def test_off_Y_chart_with_a_nonconstant_pair_is_computed_in_full(
        monkeypatch):
    bundle = _nonconstant_off_Y_pair(_load_ref("point_p2"))
    assert not bundle.sub.meets_Y[0] and verify._rebuilt_frame(
        bundle.frames[0])
    dets = []
    det = MatrixL.det

    def counted(self):
        dets.append(1)
        return det(self)
    monkeypatch.setattr(MatrixL, "det", counted)
    entries = verify.verify_dependency_locus(bundle.frames, bundle.sub)
    assert all(e.passed for e in entries)
    assert len(dets) == bundle.frames[0].M.shape[0]
    tampered = _bump_M(bundle)
    entries = verify.verify_dependency_locus(tampered.frames, tampered.sub)
    assert entries == reference_verify_dependency_locus(tampered.frames,
                                                        tampered.sub)
    assert entries[0].witness == "minors do not generate the unit ideal"


# -- a corrected set built on the raw one -------------------------------------


def _unshared(doc, monkeypatch):
    """`doc` loaded with every corrected matrix parsed on its own and the
    corrected set built with no base: nothing is shared with the raw set."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_prints_alike", lambda a, b: False)
        bundle = load_bundle(doc)
    cor = bundle.transitions
    return bundle._replace(transitions=TransitionSet(
        cor.rank, cor.status, cor.cover, cor.lb, cor.Z, cor.branch))


def _shared_and_reference(doc, monkeypatch):
    """run_all's entries on a plain load of `doc`, and on the unshared load
    with `obstruction_cocycle` decided by `is_cocycle` alone."""
    shared = load_bundle(doc)
    fast = verify.run_all(shared).entries
    bundle = _unshared(doc, monkeypatch)
    assert not bundle.transitions._shared
    slow = [e._replace(passed=is_cocycle(bundle.obstruction))
            if e.check == "obstruction_cocycle" else e
            for e in verify.run_all(bundle).entries]
    return shared, fast, slow


def _same_json(doc):
    """The sorted pairs whose raw and corrected matrices print alike."""
    return {tuple(map(int, key.split(","))) for key, ov
            in doc["overlaps"].items()
            if json.dumps(ov["raw"]) == json.dumps(ov["corrected"])}


@pytest.mark.parametrize("name", BUNDLE_REFS)
def test_shared_report_matches_the_unshared_reference_on_refs(name,
                                                              monkeypatch):
    doc = json.loads((REFS / f"{name}.json").read_text("utf-8"))
    shared, fast, slow = _shared_and_reference(doc, monkeypatch)
    assert fast == slow and all(e.passed for e in fast)
    raw, cor = shared.raw, shared.transitions
    assert cor.base is raw and cor._shared == _same_json(doc)
    for i, j in cor._shared:
        assert cor.Z[(i, j)] is raw.Z[(i, j)]
        assert cor.det(i, j) is raw.det(i, j)
    assert not any(key[0] == "det" and key[1:] in cor._shared
                   for key in cor._derived)


def _shared_pair(bundle):
    return min(bundle.transitions._shared)


def _bump_shared_entry(bundle):
    """1 added to entry (0, 0) of a shared Z_ij, in the raw and the
    corrected set alike: the load shares it again and both sets fail."""
    pair = _shared_pair(bundle)

    def bump(rows):
        rows[0][0] = rows[0][0] + LocElem.one(rows[0][0].ctx)
    Z = _edit_rows(bundle.raw.Z[pair], bump)
    return bundle._replace(raw=_with_Z(bundle.raw, {pair: Z}),
                           transitions=_with_Z(bundle.transitions, {pair: Z}))


def _double_shared_corrected_row(bundle):
    """Row 0 of a shared corrected Z_ij scaled by 2: the load no longer
    shares it, and its values are computed in full."""
    pair = _shared_pair(bundle)

    def double(rows):
        rows[0] = [e.scale(2) for e in rows[0]]
    return bundle._replace(transitions=_with_Z(bundle.transitions, {
        pair: _edit_rows(bundle.transitions.Z[pair], double)}))


def _bump_obstruction(bundle):
    """1 added to the first value of the obstruction on triple (0, 1, 2):
    it no longer equals d xi, so `obstruction_cocycle` is computed."""
    obs = bundle.obstruction
    vals = list(obs.get((0, 1, 2)))
    vals[0] = vals[0] + LocElem.one(vals[0].ctx)
    return bundle._replace(obstruction=CechCochain(
        obs.cover, obs.lb, 2, obs.width, {**obs.data, (0, 1, 2): vals}))


SHARING_TAMPERS = [
    ("ci22_p3", _bump_shared_entry,
     ("determinant_raw", "determinant_corrected")),
    ("line_p6", _bump_shared_entry,
     ("determinant_raw", "determinant_corrected")),
    ("ci22_p3", _double_shared_corrected_row, ("determinant_corrected",)),
    ("line_p5", _double_shared_corrected_row, ("determinant_corrected",)),
    ("ci22_p3", _bump_obstruction,
     ("obstruction_cocycle", "correction_solves_obstruction")),
    ("line_p6", _bump_obstruction,
     ("obstruction_cocycle", "correction_solves_obstruction")),
]


@pytest.mark.parametrize("name, tamper, broken", SHARING_TAMPERS,
                         ids=[f"{n}-{t.__name__.strip('_')}"
                              for n, t, _ in SHARING_TAMPERS])
def test_shared_report_matches_the_unshared_reference_on_tampered_copies(
        name, tamper, broken, monkeypatch):
    bundle = _load_ref(name)
    pair = _shared_pair(bundle)
    doc = _tampered_doc(tamper(bundle))
    shared, fast, slow = _shared_and_reference(doc, monkeypatch)
    assert fast == slow
    failed = {e.check for e in fast if not e.passed}
    assert set(broken) <= failed
    expect_shared = tamper is not _double_shared_corrected_row
    assert (pair in shared.transitions._shared) == expect_shared


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "corpus", REFS.parent / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _argv(corpus, op):
    def ref(name):
        return str(REFS / f"{name}.json")
    if op["op"] == "build":
        inp = corpus.REFERENCES[op["ref"]][0]
        return ["build", str(REFS.parent / "inputs" / f"{inp}.json"),
                *op["args"]]
    if op["op"] == "verify":
        return ["verify", ref(op["ref"])]
    return ["compare", *map(ref, op["ref"]), *op["args"]]


def test_corrected_triple_defects_computed_per_workload_pass(monkeypatch):
    """Counted over every corrected set of one pass of each benchmark
    workload: a shared triple reads the raw defect and keeps none of its
    own.  Without sharing the counts are 116, 44 and 3."""
    corpus = _corpus()
    made = []
    init = TransitionSet.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(TransitionSet, "__init__", record)
    computed = {}
    for workload, ops in corpus.WORKLOADS.items():
        made.clear()
        for op in ops:
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                assert main(_argv(corpus, op)) == op["exit"]
        computed[workload] = sum(
            key[0] == "defect" for Zset in made
            if Zset.status == "corrected" for key in Zset._derived)
    assert computed["curved"] == 0
    assert computed["linear"] <= 32
    assert computed["ansatz"] == 3


@pytest.mark.parametrize("change", ["cover", "twist", "rank"])
def test_transition_set_rejects_a_base_of_another_shape(change):
    raw = _load_ref("line_p3_r4").raw
    other = _load_ref("ci22_p3").raw
    fields = {"rank": raw.rank, "status": "raw", "cover": raw.cover,
              "lb": raw.lb, "Z": raw.Z, "branch": raw.branch}
    if change == "cover":
        fields.update(cover=other.cover, lb=other.lb, Z=other.Z,
                      branch=other.branch)
    elif change == "twist":
        fields["lb"] = LineBundleData(raw.cover.ambient, raw.lb.twist + 1)
    else:
        fields["rank"] = raw.rank + 1
    with pytest.raises(ValueError, match="same cover"):
        TransitionSet(**fields, base=raw)
    TransitionSet(**{**fields, "status": "corrected"})  # no base: accepted


def _keys_reversed(entry):
    return dict(reversed(entry.items()))


def _times_one(entry):
    return {**entry, "num": f"1*({entry['num']})"}


@pytest.mark.parametrize("rewrite", [_keys_reversed, _times_one],
                         ids=["keys-reversed", "times-one"])
def test_corrected_matrix_equal_in_value_but_not_in_text_is_parsed(
        rewrite, monkeypatch):
    """Entry (0, 0) of corrected Z_01 rewritten so that it denotes the raw
    one's value but prints otherwise (keys reversed still compare `==`): the
    load parses it and shares nothing on that overlap, and the report is the
    no-sharing reference's."""
    doc = json.loads((REFS / "ci22_p3.json").read_text("utf-8"))
    ov = doc["overlaps"]["0,1"]
    assert ov["raw"] == ov["corrected"]
    ov["corrected"][0][0] = rewrite(ov["corrected"][0][0])
    assert (ov["raw"] == ov["corrected"]) == (rewrite is _keys_reversed)
    shared, fast, slow = _shared_and_reference(doc, monkeypatch)
    assert fast == slow and all(e.passed for e in fast)
    raw, cor = shared.raw, shared.transitions
    assert (0, 1) not in cor._shared and cor._shared == _same_json(doc)
    Z_raw, Z_cor = raw.Z[(0, 1)], cor.Z[(0, 1)]
    assert Z_cor is not Z_raw and Z_cor == Z_raw


def test_load_parses_a_corrected_matrix_only_where_it_prints_otherwise(
        monkeypatch):
    """Every chart's M and every raw matrix are parsed, and a corrected
    matrix only where it does not print like the raw one: 242 matrices over
    the 19 refs and 29 on `line_p6` (364 and 49 with every corrected matrix
    parsed)."""
    parsed = []
    mat_load = cli._mat_load

    def counted(*args):
        parsed.append(1)
        return mat_load(*args)
    monkeypatch.setattr(cli, "_mat_load", counted)
    assert len(BUNDLE_REFS) == 19
    for name in BUNDLE_REFS:
        _load_ref(name)
    assert len(parsed) == 242
    parsed.clear()
    _load_ref("line_p6")
    assert len(parsed) == 29
