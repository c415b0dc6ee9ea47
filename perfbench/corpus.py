"""The fixed corpus: reference builds and the operations of each workload.

Input documents live in `inputs/<name>.json`.  A reference is the document
one `serrekit build` writes for an input and a set of flags; it is committed
as `refs/<ref>.json` and regenerated by `make_refs.py`.  Every operation of a
workload reads only committed files, so the operations of a pass are
independent and may run in any order.

An operation is a dict:

- `op`: "build", "verify" or "compare";
- `ref`: for build, the reference its output must match; for verify, the
  reference it checks; for compare, the pair `(a, b)` of references;
- `args`: extra CLI flags;
- `exit`: the expected exit code.
"""

# ref name -> (input name, build flags, expected exit code)
REFERENCES = {
    # linear subschemes: matrix algebra, almost no Groebner work
    "ci_line_p3": ("ci_line_p3", [], 0),
    "ci_line_p3.gf": ("ci_line_p3", ["--lift-order", "gf"], 0),
    "point_p2": ("point_p2", [], 0),
    "skew_lines_p3": ("skew_lines_p3", [], 0),
    "two_points_p2_r3": ("two_points_p2_r3", [], 0),
    "line_p3_r4": ("line_p3_r4", [], 0),
    "line_p5": ("line_p5", [], 0),
    "line_p6": ("line_p6", [], 0),
    "line_p6.gf": ("line_p6", ["--lift-order", "gf"], 0),
    "obstructed_p2": ("obstructed_p2", [], 2),
    # curved global complete intersections: Groebner lifts and saturation
    "ci22_p3": ("ci22_p3", [], 0),
    "ci23_p3": ("ci23_p3", [], 0),
    "ci33_dense_p3": ("ci33_dense_p3", [], 0),
    "ci33_dense_p3.gf": ("ci33_dense_p3", ["--lift-order", "gf"], 0),
    "ci23_p4": ("ci23_p4", [], 0),
    "ci33_p3_r3": ("ci33_p3_r3", [], 0),
    "ci44_p3": ("ci44_p3", [], 0),
    # section units force the bounded-ansatz coboundary solver
    "two_points_unit": ("two_points_unit", [], 0),
    "two_points_unit.gf5": ("two_points_unit",
                            ["--lift-order", "gf", "--max-degree", "5"], 0),
    "two_points_unit.gf6": ("two_points_unit",
                            ["--lift-order", "gf", "--max-degree", "6"], 0),
    "skew_unit.gf4": ("skew_unit",
                      ["--lift-order", "gf", "--max-degree", "4"], 3),
}

# Witness multidegree of each build expected to exit 2 (Obstructed).
OBSTRUCTED_WITNESS = {"obstructed_p2": [-1, -1, -1]}

# fg/gf builds of one input; each pair must compare isomorphic.
ISO_PAIRS = [
    ("ci_line_p3", "ci_line_p3.gf"),
    ("line_p6", "line_p6.gf"),
    ("ci33_dense_p3", "ci33_dense_p3.gf"),
    ("two_points_unit", "two_points_unit.gf5"),
    ("two_points_unit", "two_points_unit.gf6"),
]


def _build(ref):
    return {"op": "build", "ref": ref, "args": REFERENCES[ref][1],
            "exit": REFERENCES[ref][2]}


def _verify(ref):
    return {"op": "verify", "ref": ref, "args": [], "exit": 0}


def _compare(a, b, args=()):
    return {"op": "compare", "ref": (a, b), "args": list(args), "exit": 0}


WORKLOADS = {
    "linear": [
        *(_build(r) for r in ("ci_line_p3", "point_p2", "skew_lines_p3",
                              "two_points_p2_r3", "line_p3_r4", "line_p5",
                              "line_p6", "ci_line_p3.gf", "obstructed_p2")),
        _verify("line_p6"),
        _verify("line_p3_r4"),
        _verify("skew_lines_p3"),
        _compare("ci_line_p3", "ci_line_p3.gf"),
        _compare("line_p6", "line_p6.gf"),
    ],
    "curved": [
        *(_build(r) for r in ("ci22_p3", "ci23_p3", "ci33_dense_p3",
                              "ci23_p4", "ci33_p3_r3", "ci44_p3")),
        _verify("ci33_dense_p3"),
        _verify("ci23_p4"),
        _compare("ci33_dense_p3", "ci33_dense_p3.gf"),
    ],
    "ansatz": [
        _build("two_points_unit.gf5"),
        _build("two_points_unit.gf6"),
        _build("skew_unit.gf4"),
        _verify("two_points_unit.gf5"),
        _compare("two_points_unit", "two_points_unit.gf5",
                 ["--max-degree", "5"]),
        _compare("two_points_unit", "two_points_unit.gf5",
                 ["--max-degree", "3"]),
    ],
}


def op_id(op):
    """A readable, unique name for an operation within its workload."""
    ref = op["ref"] if op["op"] != "compare" else "~".join(op["ref"])
    return " ".join([op["op"], ref, *op["args"]])
