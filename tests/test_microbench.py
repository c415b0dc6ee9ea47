"""`scripts/microbench.py` times every case once and prints one JSON line
per case."""

import importlib.util
import json
from pathlib import Path

from serrekit import ideals
from serrekit.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "microbench.py"
_spec = importlib.util.spec_from_file_location("microbench", SCRIPT)
microbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(microbench)


def test_microbench_prints_one_line_per_case(capsys):
    microbench.main(["--repeat", "1"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["case"], r["max_degree"], r["outcome"]) for r in rows] == [
        ("two_points_unit.gf5", 5, "solved"),
        ("two_points_unit.gf6", 6, "solved"),
        ("compare.two_points_unit~two_points_unit.gf5", 8, "solved"),
        ("skew_unit.gf4", 4, "Inconclusive"), ("line_p6", 8, "solved"),
        ("line_p3_r4.det", None, "computed"),
        ("line_p6.defect", None, "computed"),
        ("line_p6.transport", None, "computed"),
        ("ci33_dense_p3.run_all", None, "passed"),
        ("line_p6.run_all", None, "passed"),
        ("two_points_unit.gf5.obstruction", None, "computed"),
        ("ci23_p4.load", None, "loaded"),
        ("dense_d6_p3.load", None, "loaded"),
        ("skew_unit.load", None, "loaded"),
        ("line_p6.load_bundle", None, "loaded")]
    assert all(r["repeat"] == 1 and r["best_s"] == r["median_s"] > 0
               for r in rows)


def test_dense_input_builds_with_one_basis_per_hyperplane(tmp_path, capsys,
                                                         monkeypatch):
    """A dense pair of quintics on P^3, generated as the `dense_d6_p3.load`
    case generates its sextics: every hyperplane is regular, so the build
    makes four small bases and none for its charts or overlaps."""
    made = []
    real = ideals.buchberger

    def counted(gens, arity, key=None):
        made.append(arity)
        return real(gens, arity, key)
    monkeypatch.setattr(ideals, "buchberger", counted)
    src, out = tmp_path / "dense.json", tmp_path / "bundle.json"
    src.write_text(json.dumps(microbench.dense_ci(5)), encoding="utf-8")
    assert main(["build", str(src), "-o", str(out)]) == 0
    assert made == [3, 3, 3, 3]
    assert main(["verify", str(out)]) == 0
    assert all(e["passed"] for e in json.loads(capsys.readouterr().out))
