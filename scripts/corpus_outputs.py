"""Record what every corpus command prints, for byte-identity checks.

    python3 scripts/corpus_outputs.py OUTDIR

Runs the 95 `serrekit` commands of the benchmark corpus (`perfbench/corpus.py`)
against the `src/` of the checkout this script lives in:

- `build` of every reference input, with `--format json` and `--format text`;
- `verify` of every committed reference that builds with exit 0, in json and
  text;
- `compare` of every `ISO_PAIRS` pair with no flag, `--max-degree 5` and
  `--max-degree 3`.

Each command runs in its own interpreter from the checkout root, with
relative paths, and its exit code, stdout and stderr go to one file in
OUTDIR.  Run it in two checkouts and compare the directories with
`diff -r` to check that a change keeps every output byte for byte.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402

FORMATS = ("json", "text")
COMPARE_FLAGS = ((), ("--max-degree", "5"), ("--max-degree", "3"))


def commands():
    """(file name, CLI arguments) for every corpus command."""
    out = []
    for ref, (inp, flags, _) in sorted(corpus.REFERENCES.items()):
        for fmt in FORMATS:
            out.append((f"build.{ref}.{fmt}",
                        ["build", f"perfbench/inputs/{inp}.json", *flags,
                         "--format", fmt]))
    for ref, (_, _, code) in sorted(corpus.REFERENCES.items()):
        if code == 0:
            for fmt in FORMATS:
                out.append((f"verify.{ref}.{fmt}",
                            ["verify", f"perfbench/refs/{ref}.json",
                             "--format", fmt]))
    for a, b in corpus.ISO_PAIRS:
        for flags in COMPARE_FLAGS:
            name = ".".join(["compare", a, b, *flags]).replace("--", "")
            out.append((name, ["compare", f"perfbench/refs/{a}.json",
                               f"perfbench/refs/{b}.json", *flags]))
    return out


def run(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "serrekit.cli", *args],
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True)
    return (f"exit: {proc.returncode}\n--- stdout\n".encode() + proc.stdout
            + b"--- stderr\n" + proc.stderr)


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: corpus_outputs.py OUTDIR")
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    cmds = commands()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = pool.map(run, [args for _, args in cmds])
        for (name, _), data in zip(cmds, results):
            with open(os.path.join(outdir, name + ".txt"), "wb") as fh:
                fh.write(data)
    print(f"{len(cmds)} commands written to {outdir}")


if __name__ == "__main__":
    main(sys.argv[1:])
