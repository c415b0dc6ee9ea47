"""Alternating parent/change pairs of the corpus benchmark.

    python3 scripts/bench_pairs.py --parent DIR --pairs N --seconds S \\
        --seed-base B [--workloads linear,curved,ansatz] --out BENCH_<n>.json

For each seed B+1 ... B+N and each workload of `--workloads` (all three by
default, in that order), runs
`perfbench/run.py --workload W --seed SEED --seconds S --trace 0` once in
the parent checkout DIR and once in the checkout this script lives in.  The
parent runs first on odd seeds and second on even ones, so a drift of the
host's speed does not favour one side.  Each run appends one JSON line to
OUT with the fields `revision`, `side`, `workload`, `seed`, `order`, `exit`,
`correct`, `attempted`, `failed` and `metrics`.

Then, over every row in OUT, it prints per workload and metric the median
and quartiles of each side and how many pairs (same workload and seed) each
side won.  Whether lower or higher is better is read from `BENCHMARK.json`
(lower if a metric is not listed there); a side that ran a workload and
seed twice counts its last row.  `--pairs 0` only prints the summary of an
existing OUT.  Before each run every `__pycache__` under both checkouts'
`src/` is removed, so both sides compile `src/` alike and read the standard
library's own bytecode caches.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("linear", "curved", "ansatz")
SIDES = ("parent", "change")


def revision(checkout):
    """HEAD of a git checkout, with "+dirty" if tracked files differ."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD").stdout.strip() or "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return head + ("+dirty" if dirty.strip() else "")


def workload_list(text):
    """The workloads named in a comma-separated `--workloads` value."""
    names = tuple(w.strip() for w in text.split(","))
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {', '.join(map(repr, unknown))}; "
            f"choose from {','.join(WORKLOADS)}")
    return names


def clear_bytecode(checkouts):
    """Remove every `__pycache__` under the `src/` of each checkout, and
    check that none is left."""
    def caches():
        return [os.path.join(top, "__pycache__") for checkout in checkouts
                for top, dirs, _ in os.walk(os.path.join(checkout, "src"))
                if "__pycache__" in dirs]
    for path in caches():
        shutil.rmtree(path)
    if caches():
        raise RuntimeError("a __pycache__ is left under a src/ tree")


def run_once(checkout, workload, seed, seconds):
    """One `perfbench/run.py` run; its verdict and metrics as a dict.

    The child's environment sets no `PYTHONPYCACHEPREFIX`: the caller
    clears the `src/` bytecode caches (`clear_bytecode`) before each run,
    and the standard library's caches stay where they are.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = {}
    return {"exit": proc.returncode,
            "correct": last.get("correct", False),
            "attempted": last.get("attempted", 0),
            "failed": last.get("failed", 0),
            "metrics": last.get("metrics", {})}


def better_directions(path=os.path.join(ROOT, "BENCHMARK.json")):
    """Metric name -> "lower" | "higher", from the end-to-end metrics."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def _spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(rows, better):
    """Per (workload, metric): each side's median and quartiles, and the
    pairs each side won (a tie counts for neither).  Rows of a run that did
    not exit 0 are left out."""
    values = {}
    for row in rows:
        if row["exit"] != 0:
            continue
        for metric, m in row["metrics"].items():
            key = (row["workload"], metric)
            values.setdefault(key, {}).setdefault(
                row["side"], {})[row["seed"]] = m["value"]
    out = []
    for (workload, metric), sides in sorted(values.items()):
        entry = {"workload": workload, "metric": metric,
                 "wins": dict.fromkeys(SIDES, 0), "pairs": 0}
        for side in SIDES:
            vals = sorted(sides.get(side, {}).values())
            if vals:
                q1, q3 = _spread(vals)
                entry[side] = {"n": len(vals),
                               "median": statistics.median(vals),
                               "q1": q1, "q3": q3}
        lower = better.get(metric, "lower") == "lower"
        parent, change = sides.get("parent", {}), sides.get("change", {})
        for seed in sorted(parent.keys() & change.keys()):
            entry["pairs"] += 1
            a, b = parent[seed], change[seed]
            if a != b:
                entry["wins"]["change" if (b < a) == lower else "parent"] += 1
        out.append(entry)
    return out


def format_summary(summary):
    lines = []
    for e in summary:
        cells = []
        for side in SIDES:
            s = e.get(side)
            cells.append(f"{side} -" if s is None else
                         f"{side} {s['median']:.4f} "
                         f"[{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']}")
        lines.append(f"{e['workload']:7s} {e['metric']:12s} "
                     + "  ".join(cells)
                     + f"  wins parent {e['wins']['parent']} change "
                       f"{e['wins']['change']} of {e['pairs']}")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--workloads", type=workload_list, default=WORKLOADS,
                   help="comma-separated subset of " + ",".join(WORKLOADS))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    revisions = {side: revision(path) for side, path in checkouts.items()}
    for n in range(1, args.pairs + 1):
        seed = args.seed_base + n
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in args.workloads:
            for pos, side in enumerate(order):
                clear_bytecode(checkouts.values())
                row = {"revision": revisions[side], "side": side,
                       "workload": workload, "seed": seed, "order": pos,
                       **run_once(checkouts[side], workload, seed,
                                  args.seconds)}
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"seed {seed} {workload} {side}: exit {row['exit']} "
                      f"failed {row['failed']}/{row['attempted']}",
                      flush=True)
    with open(args.out, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    print(format_summary(summarize(rows, better_directions())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
