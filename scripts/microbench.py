"""Best-of-N timings of `cech.coboundary_solve` on the corpus's systems.

    python3 scripts/microbench.py [--repeat N]

Each case reads a committed reference under `perfbench/refs` and times
`coboundary_solve` on one cochain of it, against the `src/` of the checkout
this script lives in:

- `two_points_unit.gf5` and `two_points_unit.gf6`: the obstruction cochain
  at `--max-degree` 5 and 6 (the bounded ansatz);
- `compare.two_points_unit~two_points_unit.gf5`: the degree-1 `xi` that
  `compare` solves, at its default max degree 8 (the bounded ansatz);
- `line_p6`: the obstruction cochain (the monomial solver).

The target's own differential is computed once before timing, so every
repetition does the same work.  Prints one JSON line per case with the case
name, its max degree, the number of repetitions and the best time in
seconds.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from serrekit.cech import coboundary_solve, is_cocycle  # noqa: E402
from serrekit.cli import _read_json, load_bundle  # noqa: E402
from serrekit.serre import compare_bundles  # noqa: E402


def _ref(name):
    return load_bundle(_read_json(
        os.path.join(ROOT, "perfbench", "refs", f"{name}.json")))


def cases():
    """(case name, target cochain, max degree) for every case."""
    xi = compare_bundles(_ref("two_points_unit"),
                         _ref("two_points_unit.gf5")).xi
    return [
        ("two_points_unit.gf5", _ref("two_points_unit.gf5").obstruction, 5),
        ("two_points_unit.gf6", _ref("two_points_unit.gf6").obstruction, 6),
        ("compare.two_points_unit~two_points_unit.gf5", xi, 8),
        ("line_p6", _ref("line_p6").obstruction, 8),
    ]


def best_of(c, max_degree, repeat):
    is_cocycle(c)  # keeps the target's differential out of the timings
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        coboundary_solve(c, max_degree=max_degree)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5,
                   help="timed runs per case; the best is printed")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    for name, c, max_degree in cases():
        print(json.dumps({"case": name, "max_degree": max_degree,
                          "repeat": args.repeat,
                          "best_s": round(best_of(c, max_degree,
                                                  args.repeat), 6)}),
              flush=True)


if __name__ == "__main__":
    main()
