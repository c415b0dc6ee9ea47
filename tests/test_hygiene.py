"""Source hygiene: every module-level import of the package is used, every
function the benchmark traces still exists, and the unchecked polynomial
constructor stays inside the arithmetic kernel."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "serrekit"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []


def _tracing():
    """perfbench/tracing.py, loaded without installing its wrappers."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """A renamed or deleted traced function would fail every benchmark
    operation; `tracing.install()` looks each name up this way."""
    tracing = _tracing()
    missing = []
    for full in tracing.NAMES:
        layer, name = full.split(".", 1)
        home = importlib.import_module(f"serrekit.{layer}")
        cls_name, _, meth = name.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name, None)
            found = (cls is not None and tracing._OPERATORS.get(meth, meth)
                     in vars(cls))
        else:
            found = callable(getattr(home, name, None))
        if not found:
            missing.append(full)
    assert missing == []


def test_trusted_constructor_stays_in_algebra():
    """`Poly._of` skips every check on its terms, so only `algebra.py`, whose
    operations build clean terms themselves, may reach it: input from parsers
    and documents must go through `Poly(...)`."""
    offenders = []
    paths = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in (ROOT / d).glob("**/*.py")]
    for path in sorted(paths):
        rel = path.relative_to(ROOT)
        if path in (SRC / "algebra.py", Path(__file__).resolve()):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr == "_of")
                    or (isinstance(node, ast.Constant)
                        and node.value == "_of")):
                offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []
