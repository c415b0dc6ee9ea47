"""Span tracing of serrekit's public functions, installed from outside.

`install()` wraps every function named in `LAYERS` and rebinds each name
under which serrekit code looks it up: the defining module, every module
that imported it with `from ... import`, and, for methods, every class
attribute bound to the same function (so `Poly.__rmul__` is traced along
with `Poly.__mul__`).  Each call records one span: name, start, end, the
span that was open when it began, and a small integer probe of its outcome.
Spans stay in memory; `dump()` writes them out once, when the process ends.

`Aggregate` turns span files back into per-function counts, self time
(span duration minus the wrapped child spans it contains) and inclusive
time (outermost span of each name only, so recursion is not counted twice).
"""

import functools
import importlib
import time
from array import array

# layer -> traced names.  `Class.method` names a method; the public names
# `mul`, `add` and `matmul` stand for the operator methods.
LAYERS = {
    "cli": ["main", "bundle_doc", "load_bundle", "iso_doc"],
    "serre": ["build_bundle", "normalize_generators", "adjust_glue",
              "build_frames", "build_Z", "obstruction", "correct",
              "compare_bundles"],
    "cover": ["load_subscheme", "load_sections", "extend_off_Y"],
    "verify": ["run_all", "verify_cocycle", "verify_det",
               "verify_dependency_locus", "verify_section_relation",
               "verify_glue_identities", "verify_defect_shape"],
    "cech": ["coboundary_solve", "differential", "is_cocycle",
             "cohomology_dim"],
    "ideals": ["buchberger", "member_with_lift", "in_ideal", "is_unit_ideal",
               "invert", "ideal_equal", "lift_pair", "koszul_divide",
               "regular_pair", "unit_certificate"],
    "algebra": ["transport", "MatrixL.transport_to", "MatrixL.matmul",
                "MatrixL.det", "MatrixL.adjugate", "Poly.mul", "Poly.add",
                "parse_poly", "to_laurent"],
}

# Functions that also report inclusive time (`.total_s`).
INCLUSIVE = {
    "serre.build_bundle", "serre.normalize_generators", "serre.adjust_glue",
    "serre.build_frames", "serre.build_Z", "serre.obstruction",
    "serre.correct", "serre.compare_bundles", "cover.load_subscheme",
    "cover.load_sections", "cover.extend_off_Y", "verify.run_all",
    "cech.coboundary_solve",
}

# Functions that report calls but no self time: they are never called on
# some workloads, where a time would read exactly 0 on every run, and they
# take milliseconds where they are called.
CALLS_ONLY = {"ideals.unit_certificate", "algebra.to_laurent"}

_OPERATORS = {"mul": "__mul__", "add": "__add__", "matmul": "__matmul__"}


# name -> probe(result, exception) giving the integer stored on the span.
# An exception is matched by class name, so this module imports no serrekit
# code until `install()` runs.
PROBES = {
    "verify.run_all": lambda res, exc: 0 if exc else len(res.entries),
    "ideals.buchberger": lambda res, exc: 0 if exc else len(res.basis),
    "ideals.member_with_lift": lambda res, exc: int(not exc
                                                    and res is not None),
    "cech.coboundary_solve": lambda res, exc: int(
        type(exc).__name__ == "Inconclusive"),
}

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Recorder:
    """In-memory span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.probe = array("i")
        self.open = -1

    def wrap(self, index, fn, probe):
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(rec.name)
            rec.name.append(index)
            rec.parent.append(rec.open)
            rec.end.append(0.0)
            rec.probe.append(0)
            rec.open = span
            rec.start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec.end[span] = clock()
                rec.open = rec.parent[span]
                if probe is not None:
                    rec.probe[span] = probe(result, exc)

        return functools.update_wrapper(traced, fn)

    def dump(self, path):
        with open(path, "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent,
                        self.probe):
                array("q", [len(arr)]).tofile(fh)
                arr.tofile(fh)


def install():
    """Wrap every traced function and return the Recorder holding spans."""
    rec = Recorder()
    modules = {layer: importlib.import_module(f"serrekit.{layer}")
               for layer in LAYERS}
    for index, full in enumerate(NAMES):
        layer, fn_name = full.split(".", 1)
        home = modules[layer]
        if "." in fn_name:
            cls_name, meth = fn_name.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[_OPERATORS.get(meth, meth)]
            traced = rec.wrap(index, orig, PROBES.get(full))
            for attr, val in list(cls.__dict__.items()):
                if val is orig:
                    setattr(cls, attr, traced)
        else:
            orig = getattr(home, fn_name)
            traced = rec.wrap(index, orig, PROBES.get(full))
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
    return rec


def load(path):
    """Read a span file written by `Recorder.dump`."""
    out = []
    with open(path, "rb") as fh:
        for code in ("i", "d", "d", "i", "i"):
            n = array("q")
            n.fromfile(fh, 1)
            arr = array(code)
            arr.fromfile(fh, n[0])
            out.append(arr)
    return out


class Aggregate:
    """Per-name sums over any number of span files."""

    def __init__(self):
        k = len(NAMES)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.total_s = [0.0] * k
        self.probe_sum = [0] * k
        self.probe_max = [0] * k

    def add(self, spans, scale=1.0):
        """Add one span file's spans, their times multiplied by `scale`."""
        name, start, end, parent, probe = spans
        n = len(name)
        child = [0.0] * n
        nested = [False] * n  # an ancestor span has the same name
        for s in range(n):
            q = parent[s]
            if q >= 0:
                child[q] += (end[s] - start[s]) * scale
            while q >= 0 and name[q] != name[s]:
                q = parent[q]
            nested[s] = q >= 0
        for s in range(n):
            i = name[s]
            dur = (end[s] - start[s]) * scale
            self.calls[i] += 1
            self.self_s[i] += dur - child[s]
            if not nested[s]:
                self.total_s[i] += dur
            self.probe_sum[i] += probe[s]
            self.probe_max[i] = max(self.probe_max[i], probe[s])
