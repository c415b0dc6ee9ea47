"""Self-check of the benchmark corpus.

    python3 -m pytest perfbench -q

Every input returns its expected exit code and reproduces its reference
(byte for byte, or an isomorphic bundle); every reference bundle passes
`verify` with no failed check; every fg/gf pair compares isomorphic.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402
from serrekit.cli import main  # noqa: E402


def ref_path(name):
    return os.path.join(HERE, "refs", f"{name}.json")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


BUNDLES = [r for r, (_, _, code) in corpus.REFERENCES.items() if code == 0]


@pytest.mark.parametrize("ref", list(corpus.REFERENCES))
def test_input_reproduces_reference(ref, tmp_path):
    inp, args, expected = corpus.REFERENCES[ref]
    out = str(tmp_path / "out.json")
    code = main(["build", os.path.join(HERE, "inputs", f"{inp}.json"),
                 "-o", out, *args])
    assert code == expected
    if read(out) != read(ref_path(ref)):
        assert expected == 0
        assert main(["compare", ref_path(ref), out,
                     "-o", str(tmp_path / "iso.json")]) == 0


@pytest.mark.parametrize("ref", BUNDLES)
def test_reference_verifies_clean(ref, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", ref_path(ref), "-o", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report and all(entry["passed"] for entry in report)


@pytest.mark.parametrize("a,b", corpus.ISO_PAIRS)
def test_fg_gf_pair_is_isomorphic(a, b, tmp_path):
    out = tmp_path / "iso.json"
    assert main(["compare", ref_path(a), ref_path(b), "-o", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["schema"] == \
        "serre-isomorphism/1"


@pytest.mark.parametrize("ref", list(corpus.OBSTRUCTED_WITNESS))
def test_obstructed_witness(ref):
    doc = json.loads(read(ref_path(ref)))
    assert doc["error"]["type"] == "Obstructed"
    assert doc["error"]["multidegree"] == corpus.OBSTRUCTED_WITNESS[ref]


def test_workloads_use_known_references():
    for ops in corpus.WORKLOADS.values():
        for op in ops:
            refs = op["ref"] if op["op"] == "compare" else [op["ref"]]
            assert all(r in corpus.REFERENCES for r in refs)
            if op["op"] == "build":
                assert op["exit"] == corpus.REFERENCES[op["ref"]][2]
