"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py RESULT TRACE SRC -- <serrekit CLI args>

Imports `serrekit.cli` from SRC and notes the monotonic clock once the
import is done.  It installs span tracing when TRACE is 1, times one
`cli.main` call between two runs of a fixed calibration loop, and writes a
JSON result (exit code, `main_s`, calibration times, import time, max RSS)
to RESULT.  With tracing on, the spans go to RESULT + ".spans".
"""

import sys
import time

_, result_path, trace, src, sep, *cli_args = sys.argv
sys.path.insert(0, src)

import serrekit.cli  # noqa: E402

imported_at = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibrate():
    """Time a fixed loop of the work serrekit does most: Fraction arithmetic
    and small-dict updates.  The collector is off, so the heap the program
    leaves behind does not change the time."""
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 6000):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main():
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE SRC -- ARGS...")
    if os.path.dirname(os.path.dirname(serrekit.cli.__file__)) != src:
        raise SystemExit(f"serrekit was imported from {serrekit.cli.__file__}"
                         f", not from {src}")
    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.install()
    before = calibrate()
    start = time.perf_counter()
    try:
        code = serrekit.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start
    after = calibrate()
    if recorder is not None:
        recorder.dump(result_path + ".spans")
    result = {"exit": code, "main_s": elapsed, "calib_s": [before, after],
              "imported_at": imported_at,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
