"""Regenerate the committed reference documents from the current code.

    python3 perfbench/make_refs.py

Builds every entry of `corpus.REFERENCES` with `serrekit build`, one fresh
interpreter per build, and writes the output to `refs/<ref>.json`.  Exits 1
if a build's exit code is not the expected one.
"""

import os
import subprocess
import sys

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    bad = 0
    for ref, (inp, args, expected) in corpus.REFERENCES.items():
        cmd = [sys.executable, "-m", "serrekit.cli", "build",
               os.path.join(HERE, "inputs", f"{inp}.json"),
               "-o", os.path.join(HERE, "refs", f"{ref}.json"), *args]
        code = subprocess.run(cmd, env=env, cwd=ROOT).returncode
        print(f"{ref}: exit {code}")
        if code != expected:
            print(f"  expected exit {expected}", file=sys.stderr)
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
