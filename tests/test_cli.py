import gc
import io
import json
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from serrekit import cli, errors, serre
from serrekit.algebra import LocElem
from serrekit.cech import CechCochain
from serrekit.cli import main
from serrekit.cover import Cover
from serrekit.errors import FormMismatch, Inconclusive, Obstructed, SerreError

CORPUS = Path(__file__).resolve().parent.parent / "perfbench"
SKEW_LINES = str(CORPUS / "inputs" / "skew_lines_p3.json")


POINT = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 1},
    "rank": 2,
    "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
    "sections": {"2": ["1"]},
}


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_verify_roundtrip(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    out = str(tmp_path / "bundle.json")
    code, _, _ = run_cli(capsys, "build", src, "-o", out)
    assert code == 0
    code, stdout, _ = run_cli(capsys, "verify", out)
    assert code == 0
    entries = json.loads(stdout)
    assert entries and all(e["passed"] for e in entries)
    names = {e["check"] for e in entries}
    assert {"section_relation", "dependency_locus", "defect_shape",
            "obstruction_cocycle", "correction_solves_obstruction",
            "determinant_raw", "determinant_corrected",
            "transition_cocycle"} <= names


def test_build_output_is_byte_deterministic(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, "build", src, "-o", str(a))[0] == 0
    assert run_cli(capsys, "build", src, "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_text_format(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    code, stdout, _ = run_cli(capsys, "build", src, "--format", "text")
    assert code == 0
    assert "chart 2: meets=True" in stdout
    assert "verification:" in stdout
    assert "FAIL" not in stdout


def test_build_schema_failures(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", str(tmp_path / "missing.json"))
    assert code == 1 and "error[parse]" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "build", str(bad))
    assert code == 1 and "error[parse]" in err

    doc = dict(POINT, rank=1)
    code, _, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1 and "error[parse]" in err


@pytest.mark.parametrize("path, value, label", [
    *(pytest.param(("rank",), v, "rank", id=str(v))
      for v in (2.7, 2.0, True, "2", None)),
    *(pytest.param(("ambient", "dim"), v, "ambient dim", id=f"dim-{v}")
      for v in ("2", 2.0, True)),
    *(pytest.param(("line_bundle", "twist"), v, "line_bundle twist",
                   id=f"twist-{v}") for v in (1.5, "1", True)),
    *(pytest.param(("options", "max_degree"), v, "max_degree",
                   id=f"max_degree-{v}") for v in (2.9, "2", True)),
])
def test_build_rejects_non_integer_rank(tmp_path, capsys, path, value, label):
    doc = json.loads(json.dumps(dict(POINT, options={})))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code, out, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1 and out == ""
    assert f"error[parse]: {label} must be an integer" in err


def test_build_rejects_division_by_zero_in_polynomial(tmp_path, capsys):
    doc = dict(POINT, subscheme={"mode": "global_ci", "F": "1/0*x0",
                                 "G": "x1"})
    code, out, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1 and out == ""
    assert "error[parse]" in err and "division by zero" in err


@pytest.mark.parametrize("form", ["(" * 3000 + "x0" + ")" * 3000,
                                  "-" * 3000 + "x0"],
                         ids=["parentheses", "signs"])
def test_build_rejects_deeply_nested_polynomial(tmp_path, capsys, form):
    doc = dict(POINT, subscheme={"mode": "global_ci", "F": form, "G": "x1"})
    code, out, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1 and out == ""
    assert "error[parse]" in err and "more than 100 deep" in err


def test_build_rejects_power_past_the_bound(tmp_path, capsys):
    doc = dict(POINT, subscheme={"mode": "global_ci",
                                 "F": "(x0+x1+x2)^100", "G": "x1"})
    code, out, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1 and out == ""
    assert "error[parse]" in err and "exceeds the bound 32" in err


def test_build_zero_sections_tagged_load_sections(tmp_path, capsys):
    doc = dict(POINT, sections={"2": ["0"]})
    code, _, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 1
    assert "error[load_sections]" in err


def test_build_common_factor_names_the_first_chart(tmp_path, capsys):
    """x0*x1 and x0*x2 share x0, so no hyperplane is regular and every chart
    takes the full path: chart 0 is the pair (x1, x2), and chart 1, where
    x0 is no unit, is the first that fails."""
    doc = {"ambient": {"kind": "projective", "dim": 3},
           "line_bundle": {"twist": 4}, "rank": 2,
           "subscheme": {"mode": "global_ci", "F": "x0*x1", "G": "x0*x2"},
           "sections": {}}
    code, stdout, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert (code, stdout) == (1, "")
    assert err == ("error[load_subscheme]: chart 1: (f, g) is not a regular "
                   "pair, so it does not cut out a codimension-two local "
                   "complete intersection\n")


CHARTS_P2 = dict(POINT, sections={})

# Y = (1:1:0) on P^2, rank 3: chart 0's and chart 1's section tuples share
# the constant position 2, so tier 1 takes it on both charts.
SHARED_PIVOT = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 2}, "rank": 3,
    "subscheme": {"mode": "global_ci", "F": "x0 - x1", "G": "x2"},
    "sections": {"0": ["1", "1"], "1": ["1 + x0*x2 - x2", "1"]}}

# input document -> the one stderr line of its exit-1 build
BUILD_ERROR_LINES = {
    "no-pivot": ({
        "ambient": {"kind": "projective", "dim": 2},
        "line_bundle": {"twist": 3}, "rank": 3,
        "subscheme": {"mode": "global_ci", "F": "x1", "G": "x2^2 - x0^2"},
        "sections": {"0": ["x2 - 1", "x2 + 1"], "2": ["1", "1"]}},
        "error[load_sections]: chart 0: no section component is invertible "
        "on the chart or nonvanishing on Y; no pivot available"),
    "sections-scalar": (dict(POINT, sections="1"),
                        "error[parse]: sections must be a table or a list "
                        "of entries"),
    "F-zero": (dict(POINT, subscheme={"mode": "global_ci", "F": "0",
                                      "G": "x1"}),
               "error[parse]: form F must be nonzero"),
    "F-inhomogeneous": (dict(POINT, subscheme={"mode": "global_ci",
                                               "F": "x0 + 1", "G": "x1"}),
                        "error[parse]: form F must be homogeneous"),
    "charts-no-pairs": (dict(CHARTS_P2, subscheme={"mode": "charts",
                                                   "pairs": {}}),
                        "error[parse]: charts mode needs a nonempty 'pairs' "
                        "table"),
    "charts-empty-everywhere": (
        dict(CHARTS_P2, subscheme={"mode": "charts",
                                   "pairs": {"0": ["1", "0"]}}),
        "error[load_subscheme]: the subscheme is empty on every chart"),
    # no position is constant on both charts, so chart 0 keeps its first
    # constant 1, and chart 1's component 1 vanishes off Y on U_0 ∩ U_1
    "pivot-not-shared": (
        dict(SHARED_PIVOT, sections={"0": ["1", "1 + x2"],
                                     "1": ["1 + x0*x2 - x2", "1"]}),
        "error[build_Z]: overlap (0, 1): chart 1's tuple is not invertible "
        "at pivot 1 and the overlap still meets the subscheme"),
}


@pytest.mark.parametrize("case", sorted(BUILD_ERROR_LINES))
def test_build_error_lines(tmp_path, capsys, case):
    doc, line = BUILD_ERROR_LINES[case]
    code, out, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert (code, out, err) == (1, "", line + "\n")


def test_build_takes_the_shared_constant_pivot(tmp_path, capsys):
    """Both lift orders build and verify, and the two builds compare
    isomorphic; every chart that meets Y has pivot 2."""
    src = write_doc(tmp_path, SHARED_PIVOT)
    outs = [str(tmp_path / f"{order}.json") for order in ("fg", "gf")]
    for order, out in zip(("fg", "gf"), outs):
        assert run_cli(capsys, "build", src, "--lift-order", order,
                       "-o", out) == (0, "", "")
        assert run_cli(capsys, "verify", out, "-o", str(tmp_path / "r"))[0] == 0
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        assert doc["meta"]["pivots"] == {"0": 2, "1": 2, "2": 1}
    assert run_cli(capsys, "compare", *outs)[0] == 0


def test_build_obstructed_exit_two_with_witness(tmp_path, capsys):
    doc = dict(POINT, line_bundle={"twist": 3})
    code, stdout, err = run_cli(capsys, "build", write_doc(tmp_path, doc))
    assert code == 2
    payload = json.loads(stdout)["error"]
    assert payload["type"] == "Obstructed"
    assert payload["multidegree"] == [-1, -1, -1]
    assert payload["component"] == 1
    assert payload["witness"]["sections"]
    assert "error[correct]" in err


def test_build_correction_failure_tagged_correct(capsys, monkeypatch):
    """A solved correction of zero leaves the four obstruction components of
    the skew lines in place, so the corrected set fails its cocycle check:
    a failure of the correction, not of the raw gluing."""
    monkeypatch.setattr(serre, "coboundary_solve", lambda obs, max_degree: (
        CechCochain(obs.cover, obs.lb, 1, obs.width, {})))
    code, out, err = run_cli(capsys, "build", SKEW_LINES)
    assert code == 1 and out == ""
    assert err.startswith("error[correct]: triple (0, 1, 2): corrected "
                          "transitions are not a cocycle")


def test_build_non_closed_obstruction_tagged_cech(capsys, monkeypatch):
    """The coboundary solver refuses a 2-cochain that is not closed."""
    def not_closed(Z, frames):
        ctx = Z.cover.ctx((0, 1, 2))
        return CechCochain(Z.cover, Z.lb, 2, 1, {(0, 1, 2): (LocElem.one(ctx),)})
    monkeypatch.setattr(serre, "obstruction", not_closed)
    code, out, err = run_cli(capsys, "build", SKEW_LINES)
    assert code == 1 and out == ""
    assert err.startswith("error[cech]: coboundary_solve target is not a "
                          "cocycle")


def test_build_unadjusted_glue_fails_the_raw_determinant(capsys,
                                                         monkeypatch):
    """An overlap matrix left at its lifted determinant breaks det Z_ij =
    h_ij, and the raw glue check names the first overlap."""
    monkeypatch.setattr(serre, "adjust_glue", lambda A, *args, **kw: A)
    code, out, err = run_cli(capsys, "build",
                             str(CORPUS / "inputs" / "point_p2.json"))
    assert (code, out) == (1, "")
    assert err == ("error[build_Z]: overlap (0, 1): raw transition "
                   "determinant is not h_ij\n")


def test_verify_does_not_recheck_document_claims(tmp_path, capsys):
    """A known gap: `verify` re-checks a document's identities but not its
    claims about them (uniqueness, h^2, pivots, an overlap's emptiness and
    branch, a chart's tier), so edited claims still verify."""
    doc = json.loads((CORPUS / "refs" / "line_p5.json").read_text(
        encoding="utf-8"))
    assert doc["overlaps"]["2,3"]["empty"] is False
    doc["meta"].update(unique=False, h2_dim=7)
    doc["meta"]["pivots"]["2"] = 2
    doc["overlaps"]["2,3"].update(empty=True, branch="split")
    doc["charts"]["2"]["tier"] = 4
    code, _, err = run_cli(capsys, "verify", write_doc(tmp_path, doc),
                           "-o", str(tmp_path / "report.json"))
    assert (code, err) == (0, "")


def test_verify_catches_hand_edit(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    out = tmp_path / "bundle.json"
    assert run_cli(capsys, "build", src, "-o", str(out))[0] == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["overlaps"]["0,1"]["corrected"][0][0]["num"] = "x1 + 7"
    edited = write_doc(tmp_path, doc, "edited.json")
    code, _, err = run_cli(capsys, "verify", edited)
    assert code == 1
    assert "determinant_corrected" in err


def _built_point(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert run_cli(capsys, "build", write_doc(tmp_path, POINT),
                   "-o", str(out))[0] == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _verify_edited_M(tmp_path, capsys, row, num):
    """Verify the point bundle with one entry of M on chart 2 replaced; M is
    ((x0), (-x1)) there, so the minors are (-x1, x0)."""
    doc = _built_point(tmp_path, capsys)
    doc["charts"]["2"]["M"][row][0]["num"] = num
    return run_cli(capsys, "verify", write_doc(tmp_path, doc, "edited.json"))


def test_verify_catches_hand_edited_M(tmp_path, capsys):
    code, out, err = _verify_edited_M(tmp_path, capsys, 0, "x0 + 1")
    assert code == 1
    assert ("check failed: section_relation [chart 2]" in err
            or "check failed: dependency_locus [chart 2]" in err)
    failed = {(e["check"], e["scope"]) for e in json.loads(out)
              if not e["passed"]}
    assert ("dependency_locus", "chart 2") in failed


@pytest.mark.parametrize("row, num, witness", [
    (0, "x0 + 1", "minor 1 not in (f, g)"),
    (1, "-x1^2", "g not in the minor ideal"),
])
def test_dependency_locus_witness_names_generator(tmp_path, capsys, row, num,
                                                  witness):
    code, out, _ = _verify_edited_M(tmp_path, capsys, row, num)
    assert code == 1
    entry, = [e for e in json.loads(out)
              if (e["check"], e["scope"]) == ("dependency_locus", "chart 2")]
    assert not entry["passed"] and entry["witness"] == witness


def _matrix_witness(text):
    assert text.startswith("MatrixL([") and text.endswith("])")
    return text[len("MatrixL(["):-len("])")].split(", ")


def test_glue_row_transform_S_is_the_tail_of_Z(tmp_path, capsys):
    # rank 4: S_01 is raw[2:4][2:4], so the row transform of S is the last
    # two columns of the row transform of Z.  Charts 0 and 1 miss the line,
    # (f, g) = (1, 0) there, so the functional (0, 0, g, -f) reads row 3.
    doc = json.loads((CORPUS / "refs" / "line_p3_r4.json").read_text(
        encoding="utf-8"))
    raw = doc["overlaps"]["0,1"]["raw"]
    assert raw[3][2]["num"] == "0"
    raw[3][2]["num"] = "x1"
    code, out, _ = run_cli(capsys, "verify",
                           write_doc(tmp_path, doc, "edited.json"))
    assert code == 1
    on_01 = {e["check"]: e for e in json.loads(out)
             if e["scope"] == "overlap (0, 1)"}
    s, z = on_01["glue_row_transform_S"], on_01["glue_row_transform_Z"]
    assert not s["passed"] and not z["passed"]
    tail = _matrix_witness(s["witness"])
    assert len(tail) == 2 and tail != ["0", "0"]
    assert tail == _matrix_witness(z["witness"])[-2:]


@pytest.mark.parametrize("argv", [
    ("build", "inputs/two_points_p2_r3.json"),
    ("verify", "refs/two_points_p2_r3.json"),
    ("compare", "refs/ci_line_p3.json", "refs/ci_line_p3.gf.json"),
])
def test_json_runs_render_no_text(capsys, monkeypatch, argv):
    args = [argv[0], *(str(CORPUS / path) for path in argv[1:])]
    expected = run_cli(capsys, *args)
    assert expected[0] == 0

    def refuse(doc):
        raise AssertionError("text rendered for a JSON run")
    for name in ("_text_bundle", "_text_report", "_text_iso"):
        monkeypatch.setattr(cli, name, refuse)
    assert run_cli(capsys, *args) == expected


# Each edit puts the key "x" where a chart index belongs; an uncaught
# ValueError would escape `main` and fail the test.
NON_INTEGER_KEY_EDITS = {
    "charts": lambda d: d["charts"].update(x=d["charts"].pop("0")),
    "units": lambda d: d["units"].update(x={"form": "x0", "degree": 1}),
    "obstruction": lambda d: d["obstruction"].append(
        {"key": ["x", 1, 2], "values": []}),
    "correction": lambda d: d["correction"].append(
        {"key": ["x", 1], "values": []}),
    "meta.pivots": lambda d: d["meta"]["pivots"].update(x=1),
    "meta.tiers": lambda d: d["meta"]["tiers"].update(x=0),
}


@pytest.mark.parametrize("where", sorted(NON_INTEGER_KEY_EDITS))
def test_verify_rejects_non_integer_chart_key(tmp_path, capsys, where):
    doc = _built_point(tmp_path, capsys)
    NON_INTEGER_KEY_EDITS[where](doc)
    code, out, err = run_cli(capsys, "verify",
                             write_doc(tmp_path, doc, "edited.json"))
    assert code == 1 and out == ""
    assert "error[parse]" in err and "bad chart key 'x'" in err


@pytest.mark.parametrize("command, folder, code, stage", [
    ("verify", "refs", 1, "verify"),
    ("build", "inputs", 2, "correct"),
])
def test_huge_twist_fails_cleanly(tmp_path, capsys, command, folder, code,
                                  stage):
    """A twist of 10^9 raises unit polynomials to that power; with
    square-and-multiply powers the command ends with its error line."""
    doc = json.loads((CORPUS / folder / "point_p2.json").read_text(
        encoding="utf-8"))
    doc["line_bundle"]["twist"] = 10 ** 9
    got, _, err = run_cli(capsys, command,
                          write_doc(tmp_path, doc, "twisted.json"))
    assert got == code
    assert err.startswith(f"error[{stage}]") and "Traceback" not in err


def _obstruction_den(doc):
    return doc["obstruction"][0]["values"][0]["den"]


# Each edit of the point_p2 reference puts a value that is not a JSON
# integer where the bundle document needs one (each once read as 1).
NON_INTEGER_VALUE_EDITS = {
    "twist true": lambda d: d["line_bundle"].update(twist=True),
    "tier true": lambda d: d["charts"]["2"].update(tier=True),
    "t true": lambda d: d["charts"]["2"].update(t=True),
    "exponent 1.5": lambda d: _obstruction_den(d).update(c1=1.5),
    "exponent string": lambda d: _obstruction_den(d).update(c1="1"),
}


@pytest.mark.parametrize("edit", sorted(NON_INTEGER_VALUE_EDITS))
def test_verify_rejects_non_integer_value(tmp_path, capsys, edit):
    doc = json.loads((CORPUS / "refs" / "point_p2.json").read_text(
        encoding="utf-8"))
    assert _obstruction_den(doc) == {"c1": 1}
    NON_INTEGER_VALUE_EDITS[edit](doc)
    code, out, err = run_cli(capsys, "verify",
                             write_doc(tmp_path, doc, "edited.json"))
    assert code == 1 and out == ""
    assert err.startswith("error[parse]: ")


@pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
def test_verify_parses_a_corrected_matrix_equal_to_the_raw_one(
        tmp_path, capsys, value):
    """Overlap (0, 1) of two_points_p2_r3 has raw == corrected.  A load
    shares a corrected matrix unparsed only where it prints like the raw
    one, and 1.0 or true only compares equal to the raw one's 1, so the
    matrix is parsed and its exponent is a parse error."""
    doc = json.loads((CORPUS / "refs" / "two_points_p2_r3.json").read_text(
        encoding="utf-8"))
    ov = doc["overlaps"]["0,1"]
    assert ov["raw"] == ov["corrected"]
    assert ov["corrected"][2][1] == {"num": "x2", "den": {"c1": 1}}
    ov["corrected"][2][1]["den"]["c1"] = value
    assert ov["raw"] == ov["corrected"]  # 1 == 1.0 == True
    code, out, err = run_cli(capsys, "verify",
                             write_doc(tmp_path, doc, "edited.json"))
    assert (code, out) == (1, "")
    assert err == "error[parse]: overlap (0, 1) c1 must be an integer\n"


def _raw_01(doc):
    return doc["overlaps"]["0,1"]["raw"]


# Each edit of the two_points_p2_r3 reference breaks the bundle document's
# schema in one place that `load_bundle` checks, named by the message.
SCHEMA_EDITS = {
    "schema tag": (lambda d: d.update(schema="serre-bundle/2"),
                   "unknown schema tag"),
    "rank 1": (lambda d: d.update(rank=1), "rank must be >= 2"),
    "chart dropped": (lambda d: d["charts"].pop("2"),
                      "chart set does not match"),
    "t 0": (lambda d: d["charts"]["0"].update(t=0),
            "pivot position out of range"),
    "sign flipped": (lambda d: d["charts"]["0"].update(
        sign=-d["charts"]["0"]["sign"]), "sign does not match"),
    "branch x": (lambda d: d["overlaps"]["0,1"].update(branch="x"),
                 "unknown branch 'x'"),
    "overlap dropped": (lambda d: d["overlaps"].pop("1,2"),
                        "overlap set does not match"),
    "section vector short": (lambda d: d["charts"]["0"]["s"].pop(),
                             "chart 0: expected 2 entries"),
    "matrix row missing": (lambda d: _raw_01(d).pop(),
                           "expected 3 matrix rows"),
    "matrix column missing": (lambda d: _raw_01(d)[0].pop(),
                              "expected 3 matrix columns"),
    "negative exponent": (lambda d: _raw_01(d)[2][1]["den"].update(c1=-1),
                          "exponents must be positive"),
}


@pytest.mark.parametrize("edit", sorted(SCHEMA_EDITS))
def test_verify_rejects_schema_edit(tmp_path, capsys, edit):
    doc = json.loads((CORPUS / "refs" / "two_points_p2_r3.json").read_text(
        encoding="utf-8"))
    assert _raw_01(doc)[2][1]["den"] == {"c1": 1}
    change, message = SCHEMA_EDITS[edit]
    change(doc)
    code, out, err = run_cli(capsys, "verify",
                             write_doc(tmp_path, doc, "edited.json"))
    assert code == 1 and out == ""
    assert err.startswith("error[parse]: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


# A point of P^2 given in charts mode, on the one chart that meets it.
CHARTS_POINT = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 1},
    "rank": 2,
    "subscheme": {"mode": "charts", "pairs": {"0": ["x1", "x2"]}},
    "sections": {"0": ["1"]},
}


def _rename(table, old, new):
    return {new if key == old else key: val for key, val in table.items()}


def _garbled_copy(entries):
    """A copy of the first cochain component with a wrong value, put first."""
    copy = json.loads(json.dumps(entries[0]))
    copy["values"][0]["num"] = "x1 + 7"
    entries.insert(0, copy)


# Each edit writes a chart in a non-canonical spelling or gives a chart, a
# cochain component or a unit twice; each was once read silently (exit 0).
# Input documents run through `build`, bundle documents through `verify`;
# the last entry is a fragment of the expected message.
AMBIGUOUS_CHART_EDITS = {
    "sections '02'": ("build", POINT, lambda d: d.update(
        sections={"02": ["1"]}), "sections: bad chart key '02'"),
    "sections ' 2'": ("build", POINT, lambda d: d.update(
        sections={" 2": ["1"]}), "sections: bad chart key ' 2'"),
    "sections '2' and '02'": ("build", POINT, lambda d: d.update(
        sections={"2": ["0"], "02": ["1"]}), "sections: bad chart key '02'"),
    "sections entry 2.7": ("build", POINT, lambda d: d.update(
        sections=[{"chart": 2.7, "values": ["1"]}]),
        "sections: bad chart key 2.7"),
    "sections entries 2 and '2'": ("build", POINT, lambda d: d.update(
        sections=[{"chart": 2, "values": ["0"]},
                  {"chart": "2", "values": ["1"]}]),
        "sections: chart 2 appears twice"),
    "pairs '0' and '00'": ("build", CHARTS_POINT, lambda d: d[
        "subscheme"]["pairs"].update({"00": ["x1", "x2"]}),
        "pairs: bad chart key '00'"),
    **{f"charts {key!r}": ("verify", "point_p2", lambda d, key=key: d.update(
        charts=_rename(d["charts"], "0", key)),
        f"charts: bad chart key {key!r}") for key in ("00", " 0", "٠")},
    "obstruction twice": ("verify", "point_p2",
                          lambda d: _garbled_copy(d["obstruction"]),
                          "obstruction: component (0, 1, 2) appears twice"),
    "correction twice": ("verify", "point_p2",
                         lambda d: _garbled_copy(d["correction"]),
                         "correction: component (0, 1) appears twice"),
    "units '0' and '00'": ("verify", "two_points_unit", lambda d: d[
        "units"].update({"00": d["units"]["0"]}), "units: bad chart key '00'"),
    "den 'c01'": ("verify", "point_p2", lambda d: _obstruction_den(d).update(
        c01=_obstruction_den(d).pop("c1")), "unknown units ['c01']"),
}


@pytest.mark.parametrize("edit", sorted(AMBIGUOUS_CHART_EDITS))
def test_rejects_ambiguous_chart(tmp_path, capsys, edit):
    command, source, change, message = AMBIGUOUS_CHART_EDITS[edit]
    if isinstance(source, str):
        doc = json.loads((CORPUS / "refs" / f"{source}.json").read_text(
            encoding="utf-8"))
    else:
        doc = json.loads(json.dumps(source))
    change(doc)
    code, out, err = run_cli(capsys, command,
                             write_doc(tmp_path, doc, "edited.json"))
    assert code == 1 and out == ""
    assert err.startswith("error[parse]: ") and message in err
    assert "Traceback" not in err


# Raw texts with a key given twice in one object; `json.load` alone keeps the
# last copy, so each was once read silently (exit 0).  The last entry is the
# key named in the message.
DUPLICATE_KEY_EDITS = {
    "input sections": ("build", json.dumps(POINT), '"sections": {',
                       '"sections": {"2": ["0"], ', "'2'"),
    "bundle charts": ("verify", (CORPUS / "refs" / "point_p2.json").read_text(
        encoding="utf-8"), '"charts": {', '"charts": {"0": {}, ', "'0'"),
}


@pytest.mark.parametrize("edit", sorted(DUPLICATE_KEY_EDITS))
def test_rejects_duplicate_key(tmp_path, capsys, edit):
    command, text, old, new, key = DUPLICATE_KEY_EDITS[edit]
    assert text.count(old) == 1
    path = tmp_path / "edited.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error[parse]: ")
    assert f"key {key} appears twice" in err and "Traceback" not in err


# Each edit gives a bundle document a section unit that `cover.section_unit`
# cannot build (a nonzero homogeneous form of the stated degree on a chart of
# the cover).
UNIT_EDITS = {
    "degree 2": lambda u: u["0"].update(degree=2),
    "degree 0": lambda u: u["0"].update(degree=0),
    "degree -1": lambda u: u["0"].update(degree=-1),
    "not homogeneous": lambda u: u["0"].update(form="x0^2 + x1"),
    "zero form": lambda u: u["0"].update(form="0"),
    "chart 7": lambda u: u.update({"7": {"form": "x0", "degree": 1}}),
}

@pytest.mark.parametrize("edit", sorted(UNIT_EDITS))
def test_verify_rejects_unbuildable_section_unit(tmp_path, capsys, edit):
    doc = json.loads((CORPUS / "refs" / "two_points_unit.json").read_text(
        encoding="utf-8"))
    UNIT_EDITS[edit](doc["units"])
    code, out, err = run_cli(capsys, "verify",
                             write_doc(tmp_path, doc, "edited.json"))
    assert code == 1 and out == ""
    assert err.startswith("error[parse]: units: ")


# An input on affine 3-space, whose section 1 + x1 would make x1 + 1 a unit
# of the one chart.  Affine space has no cover to glue across, so serrekit
# reads projective space only.
AFFINE_UNIT = {
    "ambient": {"kind": "affine", "dim": 3},
    "line_bundle": {"twist": 0},
    "rank": 2,
    "subscheme": {"mode": "charts", "pairs": {"0": ["x1", "x2"]}},
    "sections": {"0": ["1 + x1"]},
}


@pytest.mark.parametrize("kind", ["affine", "Projective", ""])
@pytest.mark.parametrize("command", ["build", "verify", "compare"])
def test_only_projective_ambient_is_read(tmp_path, capsys, command, kind):
    """Any ambient kind but "projective" ends in one parse error, in build
    and in both documents that verify and compare read."""
    ref = str(CORPUS / "refs" / "point_p2.json")
    if command == "build":
        doc = dict(AFFINE_UNIT, ambient={"kind": kind, "dim": 3})
    else:
        doc = json.loads(Path(ref).read_text(encoding="utf-8"))
        doc["ambient"]["kind"] = kind
    edited = write_doc(tmp_path, doc)
    argv = {"build": [edited], "verify": [edited],
            "compare": [ref, edited]}[command]
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err == f"error[parse]: unknown ambient kind {kind!r}\n"


def test_verify_truncated_file(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    out = tmp_path / "bundle.json"
    assert run_cli(capsys, "build", src, "-o", str(out))[0] == 0
    trunc = tmp_path / "trunc.json"
    trunc.write_bytes(out.read_bytes()[:64])
    code, _, err = run_cli(capsys, "verify", str(trunc))
    assert code == 1 and "error[parse]" in err


@pytest.mark.parametrize("command, text, line", [
    ("verify", "[" * 100000 + "]" * 100000, None),
    ("build", '{"rank": ' + "9" * 5000 + "}",
     "error[parse]: cannot read input document: an integer literal has more "
     "than 4300 digits\n"),
], ids=["deep-nesting", "long-integer"])
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, command, text,
                                          line):
    """JSON that the decoder cannot hold, nested past the recursion limit
    or an integer past the digit limit, ends in one parse error; past the
    digit limit it is one fixed line, not the interpreter's own text."""
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error[parse]: cannot read input document: ")
    assert err.count("\n") == 1
    if line is not None:
        assert err == line


def test_missing_sections_are_reported_before_rank_sized_work(tmp_path,
                                                             capsys):
    """A Y chart without section data fails in the parse step, before the
    off-Y charts get their rank - 1 canonical entries."""
    doc = {key: val for key, val in POINT.items() if key != "sections"}
    doc["rank"] = 2000001
    path = write_doc(tmp_path, doc)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "build", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("error[parse]: chart 2 meets the subscheme but has no "
                   "section data\n")
    assert peak < 4 * 2**20


# Y = [1:1:1] in P^2.  Chart 0's only section, x1/2 + x2/2, is nonvanishing
# on Y and becomes a section unit, but it vanishes at [1:0:0], which lies in
# the standard chart 0 alone: the shrunk charts would miss that point.
P2_MINUS_A_POINT = {
    "ambient": {"kind": "projective", "dim": 2},
    "line_bundle": {"twist": 2},
    "rank": 2,
    "subscheme": {"mode": "global_ci", "F": "x1 - x0", "G": "x2 - x0"},
    "sections": {"0": ["1/2*x1 + 1/2*x2"], "1": ["1"], "2": ["1"]},
}


def test_build_rejects_units_that_leave_a_point_uncovered(tmp_path, capsys):
    code, out, err = run_cli(capsys, "build",
                             write_doc(tmp_path, P2_MINUS_A_POINT))
    assert (code, out) == (1, "")
    assert err == ("error[load_sections]: chart 0: every pivot candidate "
                   "leaves a point of the chart outside all shrunk charts\n")


def test_build_tries_the_next_unit_that_keeps_the_cover(tmp_path, capsys):
    """With a second candidate x1/2 + 1/2 on chart 0, nonzero at [1:0:0],
    the pivot moves to it and the build verifies."""
    doc = dict(P2_MINUS_A_POINT, rank=3, sections={
        "0": ["1/2*x1 + 1/2*x2", "1/2*x1 + 1/2"], "1": ["1", "1"],
        "2": ["1", "1"]})
    out = str(tmp_path / "bundle.json")
    assert run_cli(capsys, "build", write_doc(tmp_path, doc), "-o", out)[0] == 0
    bundle = json.loads(Path(out).read_text(encoding="utf-8"))
    assert bundle["units"] == {"0": {"degree": 1, "form": "1/2*x0 + 1/2*x1"}}
    assert bundle["charts"]["0"]["t"] == 2
    assert run_cli(capsys, "verify", out)[0] == 0


@pytest.mark.parametrize("command", ["build", "verify"])
def test_huge_dimension_fails_before_the_cover(tmp_path, capsys, command):
    """A dimension above `cover.MAX_DIM` fails as the ambient is read, before
    a chart tuple of that length is built."""
    if command == "build":
        doc = dict(POINT, subscheme={"mode": "charts", "pairs": {}})
    else:
        doc = json.loads((CORPUS / "refs" / "point_p2.json").read_text(
            encoding="utf-8"))
    doc["ambient"] = {"kind": "projective", "dim": 3000000}
    path = write_doc(tmp_path, doc)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error[parse]: ambient dimension must be at most 16\n"
    assert peak < 4 * 2**20


def test_cohomology_dimensions(capsys):
    for spec, twist, degree, want in [("P2", -3, 2, "1"),
                                      ("P3", -2, 2, "0"),
                                      ("P2", 1, 0, "3")]:
        code, stdout, _ = run_cli(capsys, "cohomology", "--ambient", spec,
                                  "--twist", str(twist),
                                  "--degree", str(degree))
        assert code == 0
        assert stdout.strip() == want


def test_cohomology_rejects_affine(capsys):
    code, _, err = run_cli(capsys, "cohomology", "--ambient", "A2",
                           "--twist", "0", "--degree", "0")
    assert code == 1 and "error[parse]" in err


@pytest.mark.parametrize("spec", ["P\u00b2", "P\u0662", "p3", " P3", "P3 "],
                         ids=["superscript", "arabic-indic", "lower-case",
                              "leading-space", "trailing-space"])
def test_cohomology_accepts_ascii_digits_only(capsys, spec):
    """--ambient is read as written: an upper-case P and ASCII digits, with
    no case folding and no stripped spaces."""
    code, out, err = run_cli(capsys, "cohomology", "--ambient", spec,
                             "--twist", "0", "--degree", "0")
    assert (code, out) == (1, "")
    assert err == "error[parse]: ambient must be P<n> (projective space)\n"


@pytest.mark.parametrize("argv", [
    ("compare", "refs/two_points_unit.json", "refs/two_points_unit.gf5.json"),
    ("compare", "refs/line_p6.json", "refs/line_p6.gf.json"),
    ("build", "inputs/point_p2.json"),
], ids=["compare-ansatz", "compare-monomial", "build"])
def test_negative_max_degree_is_rejected(capsys, argv):
    """Rejected before any solving: the ansatz case used to crash in its
    basis lookup, and the monomial case (which never reads the bound) used
    to exit 0."""
    code, out, err = run_cli(capsys, argv[0],
                             *(str(CORPUS / path) for path in argv[1:]),
                             "--max-degree", "-1")
    assert (code, out) == (1, "")
    assert err == "error[parse]: max_degree must be non-negative\n"


def test_compare_text_format(capsys):
    refs = [str(CORPUS / "refs" / f"{name}.json")
            for name in ("two_points_unit", "two_points_unit.gf5")]
    code, out, _ = run_cli(capsys, "compare", *refs)
    assert code == 0
    N = json.loads(out)["N"]
    code, text, _ = run_cli(capsys, "compare", *refs, "--format", "text")
    assert code == 0
    first, *rest = text.splitlines()
    assert first == "isomorphism found"
    blocks = {}
    for line in rest:
        if line.startswith("N_"):
            assert line.endswith(":")
            key = line[2:-1]
            assert key not in blocks
            blocks[key] = []
        else:
            blocks[key].append(line)
    charts = json.loads(Path(refs[0]).read_text("utf-8"))["charts"]
    assert sorted(blocks) == sorted(N) == sorted(charts)
    for key, rows in blocks.items():
        assert rows == cli._fmt_matrix(N[key], "  ")


def test_compare_self_gives_identity(tmp_path, capsys):
    src = write_doc(tmp_path, POINT)
    out = str(tmp_path / "bundle.json")
    assert run_cli(capsys, "build", src, "-o", out)[0] == 0
    code, stdout, _ = run_cli(capsys, "compare", out, out)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["xi"] == []
    for key, rows in doc["N"].items():
        for a, row in enumerate(rows):
            for b, entry in enumerate(row):
                assert entry["num"] == ("1" if a == b else "0")


def test_compare_twist_mismatch_exit_two(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run_cli(capsys, "build", write_doc(tmp_path, POINT, "ia.json"),
                   "-o", a)[0] == 0
    doc2 = dict(POINT, line_bundle={"twist": 2})
    assert run_cli(capsys, "build", write_doc(tmp_path, doc2, "ib.json"),
                   "-o", b)[0] == 0
    code, _, err = run_cli(capsys, "compare", a, b)
    assert code == 2 and "error[compare]" in err


def test_compare_different_ambient_exit_one(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert run_cli(capsys, "build", write_doc(tmp_path, POINT, "ia.json"),
                   "-o", a)[0] == 0
    line = {
        "ambient": {"kind": "projective", "dim": 3},
        "line_bundle": {"twist": 2},
        "rank": 2,
        "subscheme": {"mode": "global_ci", "F": "x0", "G": "x1"},
        "sections": {"2": ["1"], "3": ["1"]},
    }
    assert run_cli(capsys, "build", write_doc(tmp_path, line, "ib.json"),
                   "-o", b)[0] == 0
    code, _, err = run_cli(capsys, "compare", a, b)
    assert code == 1 and "error[compare]" in err


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_bundle_on_a_line_is_rejected(tmp_path, capsys, command):
    """A bundle document needs ambient dimension >= 2, as a build does; past
    that, H^1(P^n, O(m)) = 0 leaves compare no nonzero degree-1 class."""
    ref = CORPUS / "refs" / "point_p2.json"
    doc = json.loads(ref.read_text(encoding="utf-8"))
    doc["ambient"]["dim"] = 1
    edited = write_doc(tmp_path, doc, "line.json")
    args = [edited] if command == "verify" else [edited, str(ref)]
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (1, "")
    assert err == "error[parse]: document: ambient dimension must be >= 2\n"


@pytest.mark.parametrize("col, num, message", [
    (0, "2", "frame blocks differ"),
    (2, "1", "not of coboundary shape"),
], ids=["P", "Q"])
def test_compare_edited_corrected_entry_exit_two(tmp_path, capsys, col, num,
                                                 message):
    """An edited corrected P entry of a rank-4 reference makes it
    incomparable with itself; an edited Q entry breaks the rank-one
    coboundary shape of the difference."""
    ref = CORPUS / "refs" / "line_p3_r4.json"
    doc = json.loads(ref.read_text())
    entry = doc["overlaps"]["0,1"]["corrected"][0][col]
    assert entry["num"] != num
    entry["num"] = num
    code, _, err = run_cli(capsys, "compare", str(ref),
                           write_doc(tmp_path, doc, "edited.json"))
    assert code == 2
    assert "error[compare]" in err and message in err


def test_compare_names_the_chart_whose_pivot_differs(tmp_path, capsys):
    ref = CORPUS / "refs" / "two_points_p2_r3.json"
    doc = json.loads(ref.read_text(encoding="utf-8"))
    assert doc["charts"]["1"]["t"] == 2
    doc["charts"]["1"].update(t=1, sign=-1)
    code, out, err = run_cli(capsys, "compare", str(ref),
                             write_doc(tmp_path, doc, "edited.json"))
    assert (code, out) == (2, "")
    assert err == "error[compare]: chart 1: different pivot positions\n"


def test_compare_names_the_chart_whose_unit_differs(tmp_path, capsys):
    """A context holds only its own charts' units, so chart 0's local data
    are equal on both sides when only chart 1's unit form differs."""
    ref = CORPUS / "refs" / "two_points_unit.json"
    doc = json.loads(ref.read_text(encoding="utf-8"))
    assert doc["units"]["1"]["form"] != "x1 + 2*x2"
    doc["units"]["1"]["form"] = "x1 + 2*x2"
    code, out, err = run_cli(capsys, "compare", str(ref),
                             write_doc(tmp_path, doc, "edited.json"))
    assert (code, out) == (2, "")
    assert err == ("error[compare]: chart 1: different normalized local "
                   "data\n")


@pytest.mark.parametrize("command", ["build", "verify", "compare"])
def test_each_document_builds_one_cover(monkeypatch, capsys, command):
    """Fixing a section unit keeps the cover of the build, so a document
    with units makes one `Cover`, and `compare` one per document."""
    made = []
    real = Cover.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(Cover, "__init__", counted)
    ref = str(CORPUS / "refs" / "two_points_unit.json")
    args = {"build": [str(CORPUS / "inputs" / "two_points_unit.json")],
            "verify": [ref], "compare": [ref, ref]}[command]
    assert run_cli(capsys, command, *args)[0] == 0
    assert len(made) == len(args)
    assert all(len(cover.sunits) == 2 for cover in made)


def test_compare_inconclusive_search_exits_one(capsys):
    """H^1(L*) = 0 leaves compare no obstruction class, so a bounded search
    that stops short is a plain failure there (exit 1), not build's 3."""
    refs = [str(CORPUS / "refs" / f"{name}.json")
            for name in ("two_points_unit", "two_points_unit.gf5")]
    code, out, err = run_cli(capsys, "compare", *refs, "--max-degree", "2")
    assert (code, out) == (1, "")
    assert err == ("error[correct]: bounded ansatz (numerator degree <= 2) "
                   "found no solution; the coboundary equation was not "
                   "decided\n")


# Every command's exit code for the error classes it maps away from 1.
EXIT_CODES = {"build": {Obstructed: 2, Inconclusive: 3},
              "compare": {FormMismatch: 2}, "verify": {}, "cohomology": {}}
# command -> (the `cli` name it calls that is made to raise, its arguments)
RAISERS = {
    "build": ("build_bundle", [str(CORPUS / "inputs" / "point_p2.json")]),
    "verify": ("run_all", [str(CORPUS / "refs" / "point_p2.json")]),
    "compare": ("compare_bundles", [str(CORPUS / "refs" / "point_p2.json")] * 2),
    "cohomology": ("cohomology_dim", ["--ambient", "P2", "--twist", "0",
                                      "--degree", "0"]),
}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, SerreError)]


@pytest.mark.parametrize("command", sorted(EXIT_CODES))
def test_exit_code_table(capsys, monkeypatch, command):
    """`main` prints each `SerreError` as its `error[<stage>]` line and
    returns the command's code for its class, else 1; anything else (an
    internal AssertionError) is not caught."""
    target, argv = RAISERS[command]
    assert len(ERROR_CLASSES) == 14      # SerreError and its 13 subclasses
    for cls in ERROR_CLASSES:
        exc = (cls("boom", component=0, multidegree=(0,)) if cls is Obstructed
               else cls("boom"))

        def raise_(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, target, raise_)
        code, _, err = run_cli(capsys, command, *argv)
        assert code == EXIT_CODES[command].get(cls, 1), cls
        assert err == f"error[{exc.stage}]: boom\n"

    def internal(*args, **kwargs):
        raise AssertionError("internal")
    monkeypatch.setattr(cli, target, internal)
    with pytest.raises(AssertionError, match="internal"):
        main([command, *argv])


STAGES = {"general", "parse", "load_subscheme", "load_sections", "build_Z",
          "cech", "correct", "compare", "verify"}
# values a fuzzed document field is replaced with, and polynomial texts
FUZZ_VALUES = [None, True, 0, -1, 2, 10**30, 1.5, "", "x0", "1/0", [], {},
               ["x0"], {"num": "1", "den": {}}, {"0": ["1"]}]
FUZZ_KEYS = ["01", " 1", "-1", "99", "x", "1.0", "0", "\u0661", "num"]
FUZZ_POLYS = ["(x0+x1)^40", "*".join(["(x0+x1+x2+x3)^8"] * 4), "x0/x1",
              "x9", "x0^", "((x0)", "1/0", "0", "x0 x1", "\u00b2"]
FUZZ_CHARS = "x0123456789+-*^()/ _.\u00e9\u00b2"


def _paths(node, prefix=()):
    """Every path of keys and indices into a JSON value, the root first;
    a bundle's "verification" report is skipped, as `load_bundle` is."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        if prefix or key != "verification":
            yield from _paths(child, prefix + (key,))


def _dumps(node, dup):
    """JSON text of node, with the last key of the object `dup` written
    twice."""
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {_dumps(v, dup)}" for k, v in node.items()]
        if node is dup and items:
            items.append(items[-1])
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dumps(v, dup) for v in node) + "]"
    return json.dumps(node)


def _mutated(data, st, doc):
    """doc's JSON text after one mutation drawn from `data`: a field of
    another type, a dropped or duplicated key, a renamed (chart) key or an
    edited polynomial string."""
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    ops = ["retype", "drop"]
    if isinstance(parent, dict):
        ops += ["duplicate", "rekey"]
    if isinstance(value, str):
        ops.append("poly")
    op = data.draw(st.sampled_from(ops))
    dup = None
    if op == "retype":
        parent[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    elif op == "drop":
        del parent[key]
    elif op == "duplicate":
        dup = parent
        parent[key] = parent.pop(key)       # its key is now the last one
    elif op == "rekey":
        parent[data.draw(st.sampled_from(FUZZ_KEYS))] = parent.pop(key)
    else:
        if data.draw(st.booleans()):
            parent[key] = data.draw(st.sampled_from(FUZZ_POLYS))
        else:
            at = data.draw(st.integers(0, len(value)))
            cut = data.draw(st.integers(0, 2))
            ch = data.draw(st.sampled_from(FUZZ_CHARS))
            parent[key] = value[:at] + ch + value[at + cut:]
    return _dumps(doc, dup)


def test_fuzzed_documents_exit_through_main(tmp_path):
    """Mutated corpus documents run through `main`: the exit code is one of
    0-3, a nonzero exit ends with a known `error[<stage>]` line, and no
    exception escapes."""
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, seed, settings
    from hypothesis import strategies as st

    texts = {path: path.read_text(encoding="utf-8")
             for folder in ("inputs", "refs")
             for path in sorted((CORPUS / folder).glob("*.json"))}
    mutated = str(tmp_path / "mutated.json")

    @seed(22)
    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.data())
    def run(data):
        source = data.draw(st.sampled_from(sorted(texts)))
        with open(mutated, "w", encoding="utf-8") as fh:
            fh.write(_mutated(data, st, json.loads(texts[source])))
        if source.parent.name == "inputs":
            argv = ["build", mutated]
        else:
            argv = data.draw(st.sampled_from([
                ["verify", mutated], ["compare", mutated, str(source)],
                ["compare", str(source), mutated]]))
        argv += data.draw(st.sampled_from([[], ["--format", "text"]]))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("error[")
            assert last[6:last.index("]")] in STAGES
        else:
            assert err.getvalue() == ""

    run()


def test_module_entry_point_and_stdin(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "serrekit.cli", "cohomology",
         "--ambient", "P2", "--twist", "-3", "--degree", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "1"
    proc = subprocess.run(
        [sys.executable, "-m", "serrekit.cli", "build", "-"],
        input=json.dumps(POINT), capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2
    proc = subprocess.run([sys.executable, "-m", "serrekit.cli", "build"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error[parse]: ")


def test_build_from_stdin_prints_the_reference(capsys, monkeypatch):
    """`build -` reads the input document from stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        (CORPUS / "inputs" / "point_p2.json").read_text(encoding="utf-8")))
    code, out, err = run_cli(capsys, "build", "-")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (CORPUS / "refs" / "point_p2.json"
                                   ).read_bytes()


# -- the command line ----------------------------------------------------------

POINT_INPUT = str(CORPUS / "inputs" / "point_p2.json")
POINT_REF = str(CORPUS / "refs" / "point_p2.json")


@pytest.mark.parametrize("argv", [
    ("build", POINT_INPUT, "--max-degree", "abc"),
    ("build", POINT_INPUT, "--max-degree", "+5"),
    ("build", POINT_INPUT, "--max-degree", "٥"),
    ("build", POINT_INPUT, "--max-degree="),
    ("build", POINT_INPUT, "--lift-order", "ff"),
    ("verify", POINT_REF, "--format", "yaml"),
    ("build",),
    ("build", "a.json", "b.json"),
    ("compare", "a.json"),
    ("cohomology", "x"),
    ("build", POINT_INPUT, "--bogus", "1"),
    ("build", POINT_INPUT, "--max", "5"),
    ("build", POINT_INPUT, "--format"),
    ("build", POINT_INPUT, "-o"),
    ("verify", POINT_REF, "--max-degree", "3"),
    ("cohomology", "--ambient", "P3", "--twist", "-2"),
    ("cohomology", "--ambient", "P3", "--twist", "-2", "--degree", "2",
     "--format", "text"),
    ("frobnicate",),
    (),
    ("--format", "json", "build", POINT_INPUT),
], ids=["integer-letters", "integer-plus", "integer-arabic-indic",
        "integer-empty", "choice", "format-choice", "missing-positional",
        "extra-positional", "missing-second-positional",
        "positional-for-none", "unknown-flag", "abbreviated-flag",
        "no-value", "no-output-value", "flag-of-another-command",
        "missing-required", "unknown-flag-for-cohomology",
        "unknown-command", "empty", "flag-before-command"])
def test_malformed_command_line_is_a_parse_error(capsys, argv):
    """Each is one `error[parse]` line and exit 1 (argparse exited 2, the
    code of an exact obstruction, or took "+5", "٥" and "--max" as valid)."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error[parse]: ") and err.count("\n") == 1


def test_integer_flag_past_the_digit_limit_is_a_parse_error(capsys):
    """One fixed line naming the flag and the limit, not the interpreter's
    own text, which differs between Python versions."""
    for argv, line in [
            (("cohomology", "--ambient", "P2", "--degree", "0", "--twist",
              "1" * 5000), "cohomology: --twist has more than 4300 digits"),
            (("build", "--max-degree", "9" * 5000, POINT_INPUT),
             "build: --max-degree has more than 4300 digits"),
            (("build", "--max-degree=-" + "9" * 5000, POINT_INPUT),
             "build: --max-degree has more than 4300 digits")]:
        assert run_cli(capsys, *argv) == (1, "", f"error[parse]: {line}\n")


@pytest.mark.parametrize("argv, line", [
    (("--ambient", "P10000", "--twist", "10000"),
     "ambient dimension must be at most 16"),
    (("--ambient", "P1000000", "--twist", "1000000"),
     "ambient dimension must be at most 16"),
    (("--ambient", "P16", "--twist", "1" + "0" * 299),
     "cohomology: the answer has more than 4300 digits"),
    (("--ambient", "P" + "9" * 5000, "--twist", "0"),
     "cohomology: --ambient has more than 4300 digits"),
], ids=["dim-10000", "dim-1000000", "answer-past-digit-limit",
        "dim-past-digit-limit"])
def test_cohomology_bounds_the_dimension_and_the_answer(capsys, argv, line):
    """A dimension past `cover.MAX_DIM` and an answer too long to print in
    decimal each give one `error[parse]` line at once; they used to end in
    a traceback, one of them after 40 s of work."""
    start = time.perf_counter()
    result = run_cli(capsys, "cohomology", *argv, "--degree", "0")
    assert time.perf_counter() - start < 1
    assert result == (1, "", f"error[parse]: {line}\n")


def test_accepted_command_line_forms(tmp_path, capsys):
    for argv in (("--ambient", "P3", "--twist", "-2", "--degree", "2"),
                 ("--degree=2", "--twist=-2", "--ambient=P3")):
        assert run_cli(capsys, "cohomology", *argv) == (0, "0\n", "")
    plain = run_cli(capsys, "build", POINT_INPUT)
    assert plain[0] == 0
    for argv in (("-o", "-"), ("--format", "json", "--output=-")):
        assert run_cli(capsys, "build", *argv, POINT_INPUT) == plain
    code, out, _ = run_cli(capsys, "build", "--max-degree=5", POINT_INPUT,
                           "--lift-order", "gf")
    meta = json.loads(out)["meta"]
    assert (code, meta["max_degree"], meta["lift_order"]) == (0, 5, "gf")
    dest = tmp_path / "bundle.json"
    assert run_cli(capsys, "build", POINT_INPUT, "-o", str(dest))[:2] == (0, "")
    assert dest.read_text(encoding="utf-8") == plain[1]
    code, out, _ = run_cli(capsys, "verify", "--format=text", str(dest))
    assert code == 0 and out.startswith("verification: ")


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("build", "--help"),
                                  ("compare", "x.json", "-h", "--bogus")])
def test_help_prints_the_synopsis(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == cli.__doc__
    for command, (_, _, options, _) in cli._COMMANDS.items():
        assert f"serrekit {command} " in out
        assert all(flag in out for flag in options)


def test_unwritable_output_is_a_parse_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", POINT_REF, "-o", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error[parse]: cannot write output: ")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector(capsys, monkeypatch, enabled):
    """`main` runs the command with the collector off and leaves it as it
    found it: after success, after an error line, and after an internal
    error that escapes."""
    seen = []

    def dim(*args):
        seen.append(gc.isenabled())
        if args[1] < 0:
            raise AssertionError("internal")
        return 1
    monkeypatch.setattr(cli, "cohomology_dim", dim)
    cohomology = ["cohomology", "--degree", "0", "--twist"]
    try:
        for argv, code in ((cohomology + ["0", "--ambient", "P2"], 0),
                           (cohomology + ["0", "--ambient", "A2"], 1),
                           (["build"], 1), (["--help"], 0)):
            gc.enable() if enabled else gc.disable()
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
        gc.enable() if enabled else gc.disable()
        with pytest.raises(AssertionError, match="internal"):
            main(cohomology + ["-1", "--ambient", "P2"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]


ARGV_TOKENS = ["build", "verify", "cohomology", "compare", "-", "-o",
               "--output", "--format", "json", "text", "yaml", "--lift-order",
               "fg", "gf", "--max-degree", "--ambient", "P2", "A2", "--twist",
               "--degree", "0", "-2", "7", "abc", "٢", "--max-degree=3",
               "--format=text", "--twist=1", "--bogus", "-x", "", "=", "--",
               "out.json", ".", "missing.json", POINT_INPUT, POINT_REF]


def test_fuzzed_command_lines_exit_through_main(tmp_path, monkeypatch):
    """Token lists drawn from the command-line vocabulary run through
    `main`: the exit code is one of 0-3, a nonzero exit ends with an
    `error[<stage>]` line, no exception escapes, and the collector is
    left on."""
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, seed, settings
    from hypothesis import strategies as st

    monkeypatch.chdir(tmp_path)

    @seed(24)
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.sampled_from([None, *cli._COMMANDS]),
           st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
    def run(command, argv):
        argv = [command, *argv] if command else argv
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(POINT)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert gc.isenabled()
        if code:
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("error[")
            assert last[6:last.index("]")] in STAGES

    run()
