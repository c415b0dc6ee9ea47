"""`verify_cocycle` and `verify_det` read the reversed and unsorted
identities off the sorted ones (the lemma in the `verify` module docstring).
These tests keep the direct versions, which multiply out every ordered pair
and triple, as references, and require the same full report — order, scope,
pass flag and witness — on every reference document and on tampered copies
where a premise of the lemma fails."""

import json
from itertools import permutations
from pathlib import Path

import pytest

from serrekit import verify
from serrekit.algebra import LocElem, MatrixL
from serrekit.cli import bundle_doc, load_bundle
from serrekit.serre import TransitionSet

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


def reference_verify_det(Z, lb):
    """det Z_ij - h_ij on every ordered overlap."""
    entries = []
    cover = Z.cover
    for i, j in permutations(cover.charts, 2):
        diff = Z.det(i, j) - lb.h(i, j, cover.ctx((i, j)))
        entries.append(
            _ref_entry(f"determinant_{Z.status}", f"overlap ({i}, {j})",
                       diff.is_zero(), diff))
    return entries


def _reports(doc, monkeypatch):
    """run_all's report, and the one built with the references, each on its
    own load of `doc` so that neither reads what the other derived."""
    fast = verify.run_all(load_bundle(doc)).to_doc()
    with monkeypatch.context() as m:
        m.setattr(verify, "verify_cocycle", reference_verify_cocycle)
        m.setattr(verify, "verify_det", reference_verify_det)
        slow = verify.run_all(load_bundle(doc)).to_doc()
    return fast, slow


def _load_ref(name):
    return load_bundle(json.loads((REFS / f"{name}.json").read_text("utf-8")))


@pytest.mark.parametrize("name", BUNDLE_REFS)
def test_report_matches_reference_on_refs(name, monkeypatch):
    doc = json.loads((REFS / f"{name}.json").read_text("utf-8"))
    fast, slow = _reports(doc, monkeypatch)
    assert fast == slow
    assert all(e["passed"] for e in fast)


def _with_Z(Zset, changes):
    """A fresh copy of a transition set with some Z_ij replaced."""
    return TransitionSet(rank=Zset.rank, status=Zset.status,
                         cover=Zset.cover, lb=Zset.lb, pairs=Zset.pairs,
                         Z={**Zset.Z, **changes},
                         branch=Zset.branch)


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


TAMPERS = [
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
    doc = json.loads(json.dumps(bundle_doc(tamper(_load_ref(name)))))
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
    Z, pairs = dict(Zset.Z), Zset.pairs
    if change == "reversed":
        Z[(1, 0)] = Z.pop((0, 1))
        pairs = tuple((j, i) if (i, j) == (0, 1) else (i, j)
                      for i, j in pairs)
    elif change == "missing":
        del Z[(0, 1)]
    else:
        Z[(1, 0)] = Z[(0, 1)]
    with pytest.raises(ValueError, match="sorted pairs"):
        TransitionSet(rank=Zset.rank, status=Zset.status, cover=Zset.cover,
                      lb=Zset.lb, pairs=pairs, Z=Z, branch=Zset.branch)


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
    entries = verify.verify_glue_identities(bundle.raw, bundle.lb,
                                            bundle.frames)
    assert entries and all(e.passed for e in entries)
    assert not calls
