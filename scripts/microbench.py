"""Best-of-N and median timings of the layers under the corpus's builds.

    python3 scripts/microbench.py [--repeat N]

Each case times one layer on data from a corpus reference
(`perfbench/corpus.py`), against the `src/` of the checkout this script
lives in.  `cech.coboundary_solve` on one cochain, built anew for each
repetition before its timer starts:

- `two_points_unit.gf5` and `two_points_unit.gf6`: the obstruction cochain
  at `--max-degree` 5 and 6 (the bounded ansatz on P^2);
- `compare.two_points_unit~two_points_unit.gf5`: the degree-1 `xi` that
  `compare` solves, captured from `serre.compare_bundles` before it
  solves it, at its default max degree 8 (the bounded ansatz);
- `skew_unit.gf4`: the obstruction cochain on P^3 that the `skew_unit`
  build at `--max-degree 4` fails to correct, captured from that build and
  timed through its `Inconclusive` (the exhausted bounded ansatz);
- `line_p6`: the obstruction cochain (the monomial solver).

Each repetition's cochain comes from a new load of the reference (or a
new build or compare), so it lives on a new `Cover`: no repetition reads
the section-unit quotients (`algebra.Context._unit`) or the h_ij
(`cover.LineBundleData.h`) that an earlier one kept.  The target's own
differential is computed before the timer starts, so every repetition does
the same work.  Matrix algebra on transitions:

- `line_p3_r4.det`: `MatrixL.det` of every raw 4 x 4 transition Z_ij;
- `line_p6.defect`: `TransitionSet.defect` of every sorted triple of the
  raw transitions, on a new `TransitionSet` per repetition, so that its
  memo of derived values starts empty;
- `line_p6.transport`: `algebra.transport` of every raw transition entry
  onto each sorted triple context that contains its overlap (the home
  changes for the overlaps that miss the triple's smallest chart) and onto
  its own overlap with the other chart as home.

Whole checks on a reference, each repetition on its own load of the
document, made before its timer starts, so that no repetition reads the
saturated bases, frame restrictions or products that an earlier one kept:

- `ci33_dense_p3.run_all`: `verify.run_all`, the full verify suite;
- `line_p6.run_all`: the same on `line_p6`, where 20 of the 21 corrected
  transitions are the raw ones and share their values with the raw set;
- `two_points_unit.gf5.obstruction`: `serre.obstruction` of the raw
  transitions, whose factoring of each triple defect divides through
  `ideals.koszul_divide`.

Loading an input document, on a new `Cover` per repetition, made before
its timer starts, so that no repetition reads the bases its contexts kept:

- `ci23_p4.load`: `cover.load_subscheme`, `cover.load_sections` and
  `cover.extend_off_Y` of the curved input `ci23_p4` (chart pairs, pivots
  and every overlap's A_ij);
- `dense_d6_p3.load`: the same on `dense_ci(6)`, a dense complete
  intersection of two sextics on P^3 generated from a fixed seed, whose
  build is almost all the bases that decide its charts;
- `skew_unit.load`: the same on the `charts` input `skew_unit`, which
  fixes a section unit on chart 0 after its overlaps are decided: the A_ij
  of the overlaps with chart 0 are built on new contexts carrying the unit,
  and the others on the contexts, and bases, that decided them.

Loading a bundle document, read from JSON once before timing:

- `line_p6.load_bundle`: `cli.load_bundle` of `line_p6`, which parses
  the corrected matrix of its one overlap with a nonzero correction and
  shares the raw one on the other 20.

Prints one JSON line per case with the case name, its max degree (null
for the matrix, check and load cases), the number of repetitions, the best
and the median time in seconds and the outcome (`solved` or `Inconclusive`
for a solve, `computed` for a matrix case or the obstruction, `passed` or
`failed` for the verify suite, `loaded` for a load).  Best-of-N alone does
not resolve a 20% change on a shared host; compare medians from alternating
runs.
"""

import argparse
import json
import os
import random
import statistics
import sys
import time
from itertools import combinations, combinations_with_replacement

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from serrekit import serre  # noqa: E402
from serrekit.algebra import Context  # noqa: E402
from serrekit.cech import coboundary_solve, is_cocycle  # noqa: E402
from serrekit.cli import _read_json, load_bundle  # noqa: E402
from serrekit.cover import (Cover, LineBundleData,  # noqa: E402
                            extend_off_Y, load_sections, load_subscheme,
                            read_ambient)
from serrekit.errors import Inconclusive  # noqa: E402
from serrekit.verify import run_all  # noqa: E402


def _ref(name):
    return load_bundle(_read_json(
        os.path.join(ROOT, "perfbench", "refs", f"{name}.json")))


def _captured(call):
    """The cochain that `call()` hands to `serre.coboundary_solve`; the
    call stops there."""
    seen = []

    def capture(c, max_degree):
        seen.append(c)
        raise Inconclusive("captured")
    saved, serre.coboundary_solve = serre.coboundary_solve, capture
    try:
        call()
    except Inconclusive:
        pass
    finally:
        serre.coboundary_solve = saved
    return seen[0]


def _uncorrected(name, **options):
    """The obstruction cochain that `build_bundle` of
    `perfbench/inputs/<name>.json` with `options` hands to
    `coboundary_solve`; the build stops there."""
    doc = _read_json(os.path.join(ROOT, "perfbench", "inputs", f"{name}.json"))
    return _captured(lambda: serre.build_bundle(doc, **options))


def _compare_xi(a, b):
    """The cochain xi that `compare_bundles` of the references a and b
    solves, on a new load of each."""
    return _captured(lambda: serre.compare_bundles(_ref(a), _ref(b)))


# A case's `prepare()` runs before each repetition's timer starts and
# returns the repetition: a zero-argument callable giving the outcome.

def _solve(make, max_degree):
    """One `coboundary_solve` per repetition, of the cochain `make()`
    builds for it on a new cover."""
    def prepare():
        c = make()
        is_cocycle(c)  # keeps the target's differential out of the timings

        def run():
            try:
                coboundary_solve(c, max_degree=max_degree)
            except Inconclusive:
                return "Inconclusive"
            return "solved"
        return run
    return prepare


def _dets(Z):
    def run():
        for M in Z.Z.values():
            M.det()
        return "computed"
    return lambda: run


def _defects(Z):
    def run():
        fresh = serre.TransitionSet(Z.rank, Z.status, Z.cover, Z.lb, Z.Z,
                                    Z.branch, Z.empty)
        for i, j, k in combinations(Z.cover.charts, 3):
            fresh.defect(i, j, k)
        return "computed"
    return lambda: run


def _transports(Z):
    moves = []
    for (i, j), M in sorted(Z.Z.items()):
        targets = [Z.cover.ctx((i, j, k)) for k in Z.cover.charts
                   if k not in (i, j)]
        targets.append(Context(M.ctx.dim, j, M.ctx.indices, M.ctx.sunits))
        moves.append((M, targets))

    def run():
        for M, targets in moves:
            for ctx in targets:
                M.transport_to(ctx)
        return "computed"
    return lambda: run


def _on_fresh_load(name, work):
    """work(bundle) per repetition, on a new load of the reference."""
    def prepare():
        bundle = _ref(name)
        return lambda: work(bundle)
    return prepare


def _run_all(bundle):
    return "passed" if run_all(bundle).ok else "failed"


def _obstruction(bundle):
    serre.obstruction(bundle.raw, bundle.frames)
    return "computed"


def dense_ci(degree, seed=7):
    """An input document on P^3: F and G of the given degree, each with
    10 * (degree - 2) distinct monomials and coefficients 1-9 drawn from
    `random.Random(seed)`, twist 2 * degree, rank 2 and the section 1 on
    every chart."""
    rng = random.Random(seed)
    monomials = list(combinations_with_replacement(range(4), degree))

    def form():
        return " + ".join(
            f"{rng.randint(1, 9)}*" + "*".join(f"x{k}" for k in m)
            for m in rng.sample(monomials, 10 * (degree - 2)))
    return {"ambient": {"kind": "projective", "dim": 3},
            "line_bundle": {"twist": 2 * degree}, "rank": 2,
            "subscheme": {"mode": "global_ci", "F": form(), "G": form()},
            "sections": {str(i): ["1"] for i in range(4)}}


def _load(doc):
    """`load_subscheme`, `load_sections` and `extend_off_Y` of the input
    document `doc` per repetition, on a new cover."""
    def prepare():
        ambient = read_ambient(doc)
        cover = Cover(ambient)
        lb = LineBundleData(ambient, doc["line_bundle"]["twist"])

        def run():
            sub = load_subscheme(cover, doc["subscheme"])
            secs = load_sections(cover, sub, doc["sections"], doc["rank"])
            extend_off_Y(sub, secs, lb)
            return "loaded"
        return run
    return prepare


def _load_bundle(name):
    """`load_bundle` of the parsed `perfbench/refs/<name>.json` per
    repetition."""
    doc = _read_json(os.path.join(ROOT, "perfbench", "refs", f"{name}.json"))

    def run():
        load_bundle(doc)
        return "loaded"
    return lambda: run


def cases():
    """(case name, max degree or None, prepare) for every case."""
    return [
        ("two_points_unit.gf5", 5,
         _solve(lambda: _ref("two_points_unit.gf5").obstruction, 5)),
        ("two_points_unit.gf6", 6,
         _solve(lambda: _ref("two_points_unit.gf6").obstruction, 6)),
        ("compare.two_points_unit~two_points_unit.gf5", 8, _solve(
            lambda: _compare_xi("two_points_unit", "two_points_unit.gf5"),
            8)),
        ("skew_unit.gf4", 4, _solve(lambda: _uncorrected(
            "skew_unit", lift_order="gf", max_degree=4), 4)),
        ("line_p6", 8, _solve(lambda: _ref("line_p6").obstruction, 8)),
        ("line_p3_r4.det", None, _dets(_ref("line_p3_r4").raw)),
        ("line_p6.defect", None, _defects(_ref("line_p6").raw)),
        ("line_p6.transport", None, _transports(_ref("line_p6").raw)),
        ("ci33_dense_p3.run_all", None,
         _on_fresh_load("ci33_dense_p3", _run_all)),
        ("line_p6.run_all", None, _on_fresh_load("line_p6", _run_all)),
        ("two_points_unit.gf5.obstruction", None,
         _on_fresh_load("two_points_unit.gf5", _obstruction)),
        ("ci23_p4.load", None, _load(_read_json(os.path.join(
            ROOT, "perfbench", "inputs", "ci23_p4.json")))),
        ("dense_d6_p3.load", None, _load(dense_ci(6))),
        ("skew_unit.load", None, _load(_read_json(os.path.join(
            ROOT, "perfbench", "inputs", "skew_unit.json")))),
        ("line_p6.load_bundle", None, _load_bundle("line_p6")),
    ]


def timed(prepare, repeat):
    """(best time, median time, outcome) of `repeat` repetitions, each
    prepared by an untimed `prepare()`."""
    times = []
    for _ in range(repeat):
        run = prepare()
        start = time.perf_counter()
        outcome = run()
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times), outcome


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=5,
                   help="timed runs per case; the best and the median are "
                        "printed")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    for name, max_degree, prepare in cases():
        best, median, outcome = timed(prepare, args.repeat)
        print(json.dumps({"case": name, "max_degree": max_degree,
                          "repeat": args.repeat, "best_s": round(best, 6),
                          "median_s": round(median, 6), "outcome": outcome}),
              flush=True)


if __name__ == "__main__":
    main()
