"""Best-of-N timings of `cech.coboundary_solve` on the corpus's systems.

    python3 scripts/microbench.py [--repeat N]

Each case times `coboundary_solve` on one cochain of a corpus reference
(`perfbench/corpus.py`), against the `src/` of the checkout this script
lives in:

- `two_points_unit.gf5` and `two_points_unit.gf6`: the obstruction cochain
  at `--max-degree` 5 and 6 (the bounded ansatz on P^2);
- `compare.two_points_unit~two_points_unit.gf5`: the degree-1 `xi` that
  `compare` solves, at its default max degree 8 (the bounded ansatz);
- `skew_unit.gf4`: the obstruction cochain on P^3 that the `skew_unit`
  build at `--max-degree 4` fails to correct, captured from that build and
  timed through its `Inconclusive` (the exhausted bounded ansatz);
- `line_p6`: the obstruction cochain (the monomial solver).

The target's own differential is computed once before timing, so every
repetition does the same work.  Prints one JSON line per case with the case
name, its max degree, the number of repetitions, the best time in seconds
and the outcome (`solved` or `Inconclusive`).
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from serrekit import serre  # noqa: E402
from serrekit.cech import coboundary_solve, is_cocycle  # noqa: E402
from serrekit.cli import _read_json, load_bundle  # noqa: E402
from serrekit.errors import Inconclusive  # noqa: E402


def _ref(name):
    return load_bundle(_read_json(
        os.path.join(ROOT, "perfbench", "refs", f"{name}.json")))


def _uncorrected(name, **options):
    """The obstruction cochain that `build_bundle` of
    `perfbench/inputs/<name>.json` with `options` hands to
    `coboundary_solve`; the build stops there."""
    seen = []

    def capture(c, max_degree):
        seen.append(c)
        raise Inconclusive("captured")
    saved, serre.coboundary_solve = serre.coboundary_solve, capture
    try:
        serre.build_bundle(_read_json(os.path.join(
            ROOT, "perfbench", "inputs", f"{name}.json")), **options)
    except Inconclusive:
        pass
    finally:
        serre.coboundary_solve = saved
    return seen[0]


def cases():
    """(case name, target cochain, max degree) for every case."""
    xi = serre.compare_bundles(_ref("two_points_unit"),
                               _ref("two_points_unit.gf5")).xi
    return [
        ("two_points_unit.gf5", _ref("two_points_unit.gf5").obstruction, 5),
        ("two_points_unit.gf6", _ref("two_points_unit.gf6").obstruction, 6),
        ("compare.two_points_unit~two_points_unit.gf5", xi, 8),
        ("skew_unit.gf4",
         _uncorrected("skew_unit", lift_order="gf", max_degree=4), 4),
        ("line_p6", _ref("line_p6").obstruction, 8),
    ]


def best_of(c, max_degree, repeat):
    """(best time, outcome) of `repeat` solves of c."""
    is_cocycle(c)  # keeps the target's differential out of the timings
    times = []
    for _ in range(repeat):
        outcome = "solved"
        start = time.perf_counter()
        try:
            coboundary_solve(c, max_degree=max_degree)
        except Inconclusive:
            outcome = "Inconclusive"
        times.append(time.perf_counter() - start)
    return min(times), outcome


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5,
                   help="timed runs per case; the best is printed")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    for name, c, max_degree in cases():
        best, outcome = best_of(c, max_degree, args.repeat)
        print(json.dumps({"case": name, "max_degree": max_degree,
                          "repeat": args.repeat, "best_s": round(best, 6),
                          "outcome": outcome}),
              flush=True)


if __name__ == "__main__":
    main()
