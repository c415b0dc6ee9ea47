"""An independent checker of bundle documents, written with sympy alone.

`serrekit verify` re-checks a document with the same parser, localized
elements, transport and matrices that built it, so a defect there could
pass both.  This checker imports no serrekit code.  It reads every entry of
a `serre-bundle/1` document into sympy's field QQ(X_0, ..., X_n) of
rational functions on P^n.  On home chart h (chart i for chart i's entries,
the smaller chart i for overlap (i, j)), the chart variable x_k and the
coordinate unit c_k become X_k / X_h, and the section unit s_c becomes
chart c's unit form over X_h^degree, so that moving an entry to another
chart is the identity.  It then checks, with `DomainMatrix`:

- `det`: det Z_ij = (X_j / X_i)^twist, for the raw and the corrected set;
- `M`: Z_ij M_j = M_i, for the raw and the corrected set;
- `cocycle`: Z_ik = Z_ij Z_jk on every sorted triple, for the corrected set.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from operator import add, mul, sub, truediv
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFS = ROOT / "perfbench" / "refs"
# the references that build with exit 0; the others hold an error payload
BUNDLES = sorted(p.stem for p in REFS.glob("*.json")
                 if "schema" in json.loads(p.read_text(encoding="utf-8")))

_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv}


def _value(text, names, one):
    """The polynomial `text` (integers, rationals a/b, `+ - *`, `^` powers
    and parentheses), with each variable name replaced by its value in
    `names`; `one` is the field's 1, so that a/b is exact."""
    def ev(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
            if not (isinstance(exponent, ast.Constant)
                    and type(exponent.value) is int):
                raise ValueError(f"bad exponent in {text!r}")
            return ev(node.left) ** exponent.value
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return one * node.value
        if isinstance(node, ast.Name):
            return names[node.id]
        raise ValueError(f"unexpected {ast.dump(node)} in {text!r}")
    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def failures(doc):
    """The set of failed checks (name, set, scope) of a bundle document."""
    n = doc["ambient"]["dim"]
    K = sympy.QQ.frac_field(*sympy.symbols(f"X0:{n + 1}"))
    X = K.gens
    hom = {f"x{k}": X[k] for k in range(n + 1)}
    units = {int(c): (_value(u["form"], hom, K.one), u["degree"])
             for c, u in doc["units"].items()}

    def entry(e, h):
        names = {f"x{k}": X[k] / X[h] for k in range(n + 1) if k != h}
        val = _value(e["num"], names, K.one)
        for key, a in e["den"].items():
            c = int(key[1:])
            if key[0] == "c":
                unit = X[c] / X[h]
            else:
                form, degree = units[c]
                unit = form / X[h] ** degree
            val = val / unit ** a
        return val

    def matrix(rows, h):
        return DomainMatrix([[entry(e, h) for e in row] for row in rows],
                            (len(rows), len(rows[0])), K)

    M = {int(c): matrix(ch["M"], int(c)) for c, ch in doc["charts"].items()}
    twist = doc["line_bundle"]["twist"]
    out = set()
    sets = {}
    for side in ("raw", "corrected"):
        Z = sets[side] = {}
        for key, ov in doc["overlaps"].items():
            i, j = map(int, key.split(","))
            Z[(i, j)] = matrix(ov[side], i)
            if Z[(i, j)].det() != (X[j] / X[i]) ** twist:
                out.add(("det", side, (i, j)))
            if Z[(i, j)] * M[j] != M[i]:
                out.add(("M", side, (i, j)))
    Z = sets["corrected"]
    for i, j, k in combinations(sorted(M), 3):
        if Z[(i, k)] != Z[(i, j)] * Z[(j, k)]:
            out.add(("cocycle", "corrected", (i, j, k)))
    return out


# -- edited documents, written as a user would write them ---------------------


def _combine(terms, home, units):
    """The entry sum(coef * e) for (coef, e) in terms, on home chart `home`,
    over the largest power of each unit among the terms."""
    den = {}
    for _, e in terms:
        for key, a in e["den"].items():
            den[key] = max(den.get(key, 0), a)
    parts = []
    for coef, e in terms:
        factors = [f"({coef})", f"({e['num']})"]
        for key, a in sorted(den.items()):
            if a > e["den"].get(key, 0):
                c = int(key[1:])
                # s_c on chart h is chart c's unit form with x_h = 1
                unit = (f"x{c}" if key[0] == "c" else
                        re.sub(rf"\bx{home}\b", "1", units[str(c)]["form"]))
                factors.append(f"({unit})^{a - e['den'].get(key, 0)}")
        parts.append("*".join(factors))
    return {"num": " + ".join(parts), "den": den}


def _raised(doc):
    """`doc` with corrected entry (0, 0) of overlap (0, 1) raised by 1."""
    doc = copy.deepcopy(doc)
    Z = doc["overlaps"]["0,1"]["corrected"]
    Z[0][0] = _combine([(1, Z[0][0]), (1, {"num": "1", "den": {}})], 0,
                       doc["units"])
    return doc


def _conjugated(doc):
    """`doc` with every corrected Z_ij replaced by C Z_ij C^-1, C = I + E_01:
    dets and cocycles survive, the gluing Z_ij M_j = M_i does not."""
    doc = copy.deepcopy(doc)
    r = doc["rank"]

    def shear(sign):  # I + sign * E_01
        return [[int(a == b) + sign * ((a, b) == (0, 1)) for b in range(r)]
                for a in range(r)]
    C, Cinv = shear(1), shear(-1)
    for key, ov in doc["overlaps"].items():
        Z = ov["corrected"]
        ov["corrected"] = [[_combine(
            [(C[a][p] * Cinv[q][b], Z[p][q]) for p in range(r)
             for q in range(r) if C[a][p] * Cinv[q][b]],
            int(key.split(",")[0]), doc["units"]) for b in range(r)]
            for a in range(r)]
    return doc


def _load(name):
    return json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", BUNDLES)
def test_checker_accepts_reference_and_rejects_raised_entry(name):
    doc = _load(name)
    assert failures(doc) == set()
    found = failures(_raised(doc))
    assert found
    # every failure reads the edited corrected Z_01
    for _, side, scope in found:
        assert side == "corrected" and {0, 1} <= set(scope)


def test_bundles_are_the_exit_zero_references():
    assert len(BUNDLES) == 19


def test_conjugated_document_fails_gluing_but_passes_verify(tmp_path):
    """The one known disagreement: `serrekit verify` checks dets, cocycles
    and the rank-one row identities, all of which survive conjugation, but
    not Z_ij M_j = M_i."""
    doc = _conjugated(_load("two_points_p2_r3"))
    assert failures(doc) == {("M", "corrected", pair)
                             for pair in ((0, 1), (0, 2), (1, 2))}
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "serrekit.cli", "verify",
                           str(path)], env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
