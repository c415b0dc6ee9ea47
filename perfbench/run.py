"""Cold-process corpus benchmark for the serrekit CLI.

    python3 perfbench/run.py --workload linear|curved|ansatz \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation of a workload
(`serrekit build | verify | compare`, see `corpus.py`) runs in a fresh
interpreter started by `child.py`, one at a time.  A pass runs every
operation once, in an order drawn from the seed; passes repeat while the
next one is expected to end within S seconds.  Timings are medians over
passes of `cli.main` time, so interpreter start-up is left out of them and
reported as `setup_s`.  All times are in reference seconds (see
REFERENCE_LOOP_S below and README.md).

With `--trace 1`, untraced and traced passes alternate; traced children wrap
serrekit's public functions (`tracing.py`) and the per-layer numbers come
from their spans.

After the passes, outside the timed region, every distinct output is
checked: exit codes, a clean `verify` of each build, equality with the
committed reference byte for byte or an isomorphic `compare`, and the
witness multidegree of an obstructed build.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import corpus
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 150
# Every time is reported in reference seconds: seconds measured in a child,
# scaled by REFERENCE_LOOP_S over the time the same child took for its fixed
# calibration loop (`child.calibrate`), run just before and just after
# `cli.main`.  The host's speed drifts by more than half within minutes, and
# the scaling takes that drift out; a change to serrekit still moves the
# figures in full, because the loop runs no serrekit code.
REFERENCE_LOOP_S = 0.025
# Stop starting passes after this long, whatever --seconds says, so a run
# ends well inside its time limit even if the program slows down a lot.
PASS_DEADLINE_S = 100


class Runner:
    """Starts one child per operation and keeps every result."""

    def __init__(self, work):
        self.work = work
        self.count = 0

    def run(self, cli_args, trace=False):
        self.count += 1
        result = os.path.join(self.work, f"r{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result,
               "1" if trace else "0", SRC, "--", *cli_args]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": "timed out"}
        if not os.path.exists(result):
            return {"exit": None,
                    "error": proc.stderr.decode(errors="replace")[-2000:]}
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        before, after = out["calib_s"]
        out["setup_s"] = (out["imported_at"] - spawned) * (
            REFERENCE_LOOP_S / before)
        out["scale"] = REFERENCE_LOOP_S / ((before + after) / 2)
        out["ref_s"] = out["main_s"] * out["scale"]
        out["spans"] = result + ".spans" if trace else None
        return out


def _ref(name):
    return os.path.join(HERE, "refs", f"{name}.json")


def cli_args(op, out):
    if op["op"] == "build":
        inp = corpus.REFERENCES[op["ref"]][0]
        return ["build", os.path.join(HERE, "inputs", f"{inp}.json"),
                "-o", out, *op["args"]]
    if op["op"] == "verify":
        return ["verify", _ref(op["ref"]), "-o", out]
    a, b = op["ref"]
    return ["compare", _ref(a), _ref(b), "-o", out, *op["args"]]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_output(runner, op, out):
    """Why the output of one operation is wrong, or None if it is right."""
    data = json.loads(out)
    if op["op"] == "verify":
        bad = [e["check"] for e in data if not e["passed"]]
        return f"failed checks {bad}" if bad else None
    if op["op"] == "compare":
        ok = data.get("schema") == "serre-isomorphism/1"
        return None if ok else "no isomorphism document"
    ref_path = _ref(op["ref"])
    if op["exit"] == 2:
        got = data["error"]["multidegree"]
        want = json.loads(_read(ref_path))["error"]["multidegree"]
        expected = corpus.OBSTRUCTED_WITNESS[op["ref"]]
        ok = got == want == expected
        return None if ok else f"witness multidegree {got}, expected {want}"
    if op["exit"] == 3:
        ok = data["error"]["type"] == "Inconclusive"
        return None if ok else "not an Inconclusive document"
    path = os.path.join(runner.work, "check.json")
    with open(path, "wb") as fh:
        fh.write(out)
    verified = runner.run(["verify", path, "-o", path + ".report"])
    if verified["exit"] != 0:
        return f"verify exit {verified['exit']}"
    if out == _read(ref_path):
        return None
    compared = runner.run(["compare", ref_path, path, "-o", path + ".iso"])
    if compared["exit"] != 0:
        return f"differs from {op['ref']} and compare exit {compared['exit']}"
    return None


def gate(runner, ops, records):
    """Mark each record failed or not; each distinct output is checked once."""
    verdicts = {}
    for rec in records:
        op = ops[rec["op"]]
        if rec["exit"] != op["exit"]:
            rec["failed"] = f"exit {rec['exit']}, expected {op['exit']}"
            continue
        out = _read(rec["out"])
        key = (rec["op"], hashlib.sha256(out).hexdigest())
        if key not in verdicts:
            try:
                verdicts[key] = check_output(runner, op, out)
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[key] = f"unreadable output: {exc!r}"
        rec["failed"] = verdicts[key]


def run_passes(runner, ops, seed, seconds, trace):
    """Run passes while the next one is expected to end within `seconds`."""
    rng = random.Random(seed)
    records = []
    start = time.monotonic()
    npass = 0
    while True:
        elapsed = time.monotonic() - start
        if npass >= (2 if trace else 1):
            next_end = elapsed * (npass + 1) / npass
            if next_end > seconds or elapsed >= PASS_DEADLINE_S:
                break
        traced = trace and npass % 2 == 1
        for i in rng.sample(range(len(ops)), len(ops)):
            out = os.path.join(runner.work, f"p{npass}-op{i}.out")
            rec = runner.run(cli_args(ops[i], out), trace=traced)
            rec.update({"pass": npass, "op": i, "out": out,
                        "traced": traced})
            records.append(rec)
        npass += 1
    return records


def _per_pass(records, value):
    """Sum `value(rec)` over each pass's records; one total per pass."""
    sums = {}
    for rec in records:
        sums[rec["pass"]] = sums.get(rec["pass"], 0.0) + value(rec)
    return [sums[p] for p in sorted(sums)]


def command_s(ops, records, kind):
    """Median over the untraced passes of the time spent in one command."""
    return statistics.median(_per_pass(
        [r for r in records if not r["traced"]],
        lambda r: r["ref_s"] if ops[r["op"]]["op"] == kind else 0.0))


def end_to_end(ops, records):
    plain = [r for r in records if not r["traced"]]
    pass_s = _per_pass(plain, lambda r: r["ref_s"])
    correct = _per_pass(plain, lambda r: 0.0 if r["failed"] else 1.0)
    return {
        "pass_s": (statistics.median(pass_s), "s"),
        "build_s": (command_s(ops, records, "build"), "s"),
        "ops_per_s": (statistics.median(
            c / t for c, t in zip(correct, pass_s)), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in plain) / 1024, "MB"),
    }


def unbounded(ops, records):
    """Untraced figures that carry no regression bound: the verify and
    compare shares (too few operations a pass to be steady on every
    workload), the unscaled pass time and the calibration loop time."""
    plain = [r for r in records if not r["traced"]]
    return {
        "verify_s": (command_s(ops, records, "verify"), "s"),
        "compare_s": (command_s(ops, records, "compare"), "s"),
        "wall.pass_s": (statistics.median(
            _per_pass(plain, lambda r: r["main_s"])), "s"),
        "calib.loop_s": (statistics.median(
            c for r in records for c in r["calib_s"]), "s"),
    }


def per_layer(ops, records):
    passes = {}
    for rec in records:
        if rec["traced"]:
            passes.setdefault(rec["pass"], tracing.Aggregate()).add(
                tracing.load(rec["spans"]), rec["scale"])
    aggs = [passes[p] for p in sorted(passes)]
    idx = {name: i for i, name in enumerate(tracing.NAMES)}

    def med(fn):
        return statistics.median(fn(a) for a in aggs)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name, i in idx.items():
        metrics[f"{name}.calls"] = (med(lambda a: a.calls[i]), "count")
        if name not in tracing.CALLS_ONLY:
            metrics[f"{name}.self_s"] = (med(lambda a: a.self_s[i]), "s")
        if name in tracing.INCLUSIVE:
            metrics[f"{name}.total_s"] = (med(lambda a: a.total_s[i]), "s")
    run_all = idx["verify.run_all"]
    solve = idx["cech.coboundary_solve"]
    gb = idx["ideals.buchberger"]
    lift = idx["ideals.member_with_lift"]
    member = idx["ideals.in_ideal"]
    metrics["verify.run_all.checks"] = (
        med(lambda a: a.probe_sum[run_all]), "count")
    metrics["cech.coboundary_solve.inconclusive_ratio"] = (
        med(lambda a: ratio(a.probe_sum[solve], a.calls[solve])), "ratio")
    metrics["ideals.buchberger.basis_max"] = (
        med(lambda a: a.probe_max[gb]), "count")
    metrics["ideals.gb_per_query"] = (
        med(lambda a: ratio(a.calls[gb], a.calls[lift] + a.calls[member])),
        "ratio")
    metrics["ideals.member_with_lift.member_ratio"] = (
        med(lambda a: ratio(a.probe_sum[lift], a.calls[lift])), "ratio")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda a: sum(
            a.self_s[i] for n, i in idx.items()
            if n.startswith(layer + "."))), "s")
    traced_pass = statistics.median(_per_pass(
        [r for r in records if r["traced"]], lambda r: r["ref_s"]))
    plain_pass = statistics.median(_per_pass(
        [r for r in records if not r["traced"]], lambda r: r["ref_s"]))
    metrics["trace.overhead_s"] = (traced_pass - plain_pass, "s")
    metrics.update(unbounded(ops, records))
    return metrics


def missing_files(ops):
    need = [os.path.join(SRC, "serrekit", "cli.py")]
    for op in ops:
        refs = op["ref"] if op["op"] == "compare" else [op["ref"]]
        need += [_ref(r) for r in refs]
        if op["op"] == "build":
            need.append(os.path.join(
                HERE, "inputs", f"{corpus.REFERENCES[op['ref']][0]}.json"))
    return [p for p in need if not os.path.isfile(p)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ops = corpus.WORKLOADS[args.workload]
    missing = missing_files(ops)
    if missing:
        print(f"perfbench: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(work)
        # Compile bytecode once, so no timed child pays for it.
        runner.run(["cohomology", "--ambient", "P2", "--twist", "0",
                    "--degree", "0"])
        records = run_passes(runner, ops, args.seed, args.seconds,
                             bool(args.trace))
        measured = [r for r in records if r["exit"] is not None]
        if not measured:
            print(f"perfbench: no operation ran: {records[0]['error']}",
                  file=sys.stderr)
            return 1
        for rec in records:
            if rec["exit"] is None:
                rec["failed"] = rec["error"]
        gate(runner, ops, measured)
        failed = [r for r in records if r["failed"]]
        metrics = (per_layer(ops, measured) if args.trace
                   else end_to_end(ops, measured))
        shown = dict(metrics, **unbounded(ops, measured))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    npass = len({r["pass"] for r in records})
    print(f"workload {args.workload}: {npass} passes of {len(ops)} "
          f"operations, seed {args.seed}, trace {args.trace}")
    for rec in failed:
        print(f"FAILED pass {rec['pass']} {corpus.op_id(ops[rec['op']])}: "
              f"{rec['failed']}")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
