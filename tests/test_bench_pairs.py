"""The summary of `scripts/bench_pairs.py` on synthetic benchmark rows."""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _row(side, seed, pass_s, ops, workload="linear", exit=0):
    return {"revision": "r", "side": side, "workload": workload,
            "seed": seed, "order": 0, "exit": exit, "correct": exit == 0,
            "attempted": 10, "failed": 0,
            "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                        "ops_per_s": {"value": ops, "unit": "1/s"}}}


BETTER = {"pass_s": "lower", "ops_per_s": "higher"}


def test_summary_medians_quartiles_and_wins():
    rows = []
    for seed, (a, b) in enumerate([(1.0, 0.7), (1.2, 0.8), (1.1, 0.9),
                                   (0.9, 1.0), (1.0, 1.0)], start=1):
        rows += [_row("parent", seed, a, 1 / a), _row("change", seed, b, 1 / b)]
    by_metric = {e["metric"]: e for e in bench_pairs.summarize(rows, BETTER)}
    s = by_metric["pass_s"]
    assert s["workload"] == "linear" and s["pairs"] == 5
    assert s["parent"]["median"] == 1.0 and s["change"]["median"] == 0.9
    assert s["parent"]["n"] == 5
    assert s["parent"]["q1"] <= 1.0 <= s["parent"]["q3"]
    assert (s["parent"]["q1"], s["parent"]["q3"]) == pytest.approx(
        (0.95, 1.15))
    # seeds 1-3 won by change, 4 by parent, 5 a tie
    assert s["wins"] == {"parent": 1, "change": 3}
    # higher is better for a rate: the same pairs, the same winners
    assert by_metric["ops_per_s"]["wins"] == {"parent": 1, "change": 3}


def test_summary_skips_failed_runs_and_unpaired_seeds():
    rows = [_row("parent", 1, 1.0, 1.0), _row("change", 1, 0.5, 2.0),
            _row("parent", 2, 1.0, 1.0), _row("change", 2, 0.1, 9.0, exit=1),
            _row("parent", 3, 2.0, 0.5, workload="curved")]
    summary = bench_pairs.summarize(rows, BETTER)
    linear = [e for e in summary
              if e["workload"] == "linear" and e["metric"] == "pass_s"][0]
    assert linear["pairs"] == 1 and linear["wins"]["change"] == 1
    assert linear["change"] == {"n": 1, "median": 0.5, "q1": 0.5, "q3": 0.5}
    curved = [e for e in summary
              if e["workload"] == "curved" and e["metric"] == "pass_s"][0]
    assert curved["pairs"] == 0 and "change" not in curved
    assert "change -" in bench_pairs.format_summary([curved])


def test_unknown_metric_counts_lower_as_better():
    rows = [_row("parent", 1, 1.0, 1.0), _row("change", 1, 2.0, 2.0)]
    by_metric = {e["metric"]: e for e in bench_pairs.summarize(rows, {})}
    assert by_metric["ops_per_s"]["wins"] == {"parent": 1, "change": 0}


def test_directions_come_from_the_benchmark_declaration():
    better = bench_pairs.better_directions()
    assert better["pass_s"] == "lower" and better["ops_per_s"] == "higher"


def test_workloads_option_runs_only_the_named_workloads(tmp_path, monkeypatch,
                                                         capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        return {"exit": 0, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "revision", lambda path: "r")
    out = tmp_path / "pairs.jsonl"
    assert bench_pairs.main(["--parent", str(tmp_path), "--pairs", "2",
                             "--seconds", "1", "--seed-base", "10",
                             "--workloads", "curved, ansatz",
                             "--out", str(out)]) == 0
    parent, change = os.path.abspath(tmp_path), bench_pairs.ROOT
    # odd seeds run the parent first, even seeds the change
    assert calls == [(parent, "curved", 11), (change, "curved", 11),
                     (parent, "ansatz", 11), (change, "ansatz", 11),
                     (change, "curved", 12), (parent, "curved", 12),
                     (change, "ansatz", 12), (parent, "ansatz", 12)]
    assert len(out.read_text().splitlines()) == 8
    assert "wins parent 0 change 0 of 2" in capsys.readouterr().out


def test_workloads_option_takes_subsets_and_rejects_unknown_names():
    assert bench_pairs.workload_list("linear,curved,ansatz") == \
        bench_pairs.WORKLOADS
    assert bench_pairs.workload_list("linear") == ("linear",)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", ".", "--out", "x",
                          "--workloads", "linear,quadric"])


def test_each_run_starts_with_no_src_bytecode_and_no_prefix(tmp_path,
                                                           monkeypatch):
    """A leftover `__pycache__` in one checkout cannot speed up its side:
    before every run neither `src/` tree holds one, and the child reads the
    standard library's caches because its environment sets no prefix."""
    trees = {side: tmp_path / side for side in ("parent", "change")}

    def plant(checkout):
        for pkg in ("src", "src/serrekit"):
            cache = checkout / pkg / "__pycache__"
            cache.mkdir(parents=True, exist_ok=True)
            (cache / "mod.cpython-311.pyc").write_bytes(b"")

    for checkout in trees.values():
        plant(checkout)
    runs = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")
        assert "PYTHONPYCACHEPREFIX" not in kwargs["env"]
        for checkout in trees.values():
            assert not list((checkout / "src").rglob("__pycache__"))
        runs.append(kwargs["cwd"])
        plant(Path(kwargs["cwd"]))  # the child compiles into its checkout
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n", stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", str(trees["change"]))
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--pairs", "2",
                             "--seconds", "1", "--workloads", "linear",
                             "--out", str(tmp_path / "pairs.jsonl")]) == 0
    assert runs == [str(trees[s]) for s in
                    ("parent", "change", "change", "parent")]
