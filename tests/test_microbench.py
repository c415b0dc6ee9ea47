"""`scripts/microbench.py` times every case once and prints one JSON line
per case."""

import importlib.util
import json
from pathlib import Path

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
        ("ci33_dense_p3.run_all", None, "passed"),
        ("line_p6.run_all", None, "passed"),
        ("two_points_unit.gf5.obstruction", None, "computed"),
        ("ci23_p4.load", None, "loaded"),
        ("line_p6.load_bundle", None, "loaded")]
    assert all(r["repeat"] == 1 and r["best_s"] == r["median_s"] > 0
               for r in rows)
