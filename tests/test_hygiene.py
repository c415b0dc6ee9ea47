"""Source hygiene: every module-level import, function, class and assigned
name of the package and every non-dunder method of its classes is used, no module keeps
state that its functions change, no function writes into the public
attributes of its parameters, every function the benchmark traces still
exists, the unchecked constructors stay inside the arithmetic kernel, and
every coefficient division goes through `algebra.qdiv`."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def _package_imports(tree):
    """The package modules that the module-level imports of `tree` name."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("serrekit."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("serrekit.")}
    return names


def test_imports_are_module_level_and_acyclic():
    """Every import of the package sits at module level, so the import
    graph is its whole dependency graph, and that graph has no cycle: a
    module that would need a function-level import to break one does its
    work in a caller instead."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    nested = [f"{name}.py:{node.lineno}" for name, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and node not in tree.body]
    assert nested == []
    graph = {name: _package_imports(tree) & trees.keys()
             for name, tree in trees.items()}
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)
    for name in sorted(graph):
        visit(name)
    assert graph["verify"] >= {"serre"} and "verify" not in graph["serre"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_definitions():
    """Module-level functions, classes and assigned names of the package,
    and the non-dunder methods of its classes, that no file of `src/` reads,
    as an `ast.Name` or an `ast.Attribute` in `Load` context (an assignment
    stores its own name, which is not a use)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    defs = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs.append((f"{path.name}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{path.name}:{node.name}.{meth.name}", meth.name)
                         for meth in node.body if isinstance(meth, _DEFS)
                         and not meth.name.startswith("__")]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs += [(f"{path.name}:{t.id}", t.id) for t in targets
                         if isinstance(t, ast.Name)
                         and not t.id.startswith("__")]
    return [label for label, name in defs if name not in used]


def test_module_definitions_are_used():
    """A helper or method that nothing in the package calls any more is
    deleted, not kept for the tests."""
    assert _unused_definitions() == []


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
_MUTATORS = {"setdefault", "update", "append", "extend", "insert", "add",
             "discard", "remove", "pop", "popitem", "clear"}


def _mutated_module_containers(path):
    """Module-level dicts, lists and sets that a function of the module
    changes: by a subscript store or `del`, or by a mutating method."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set")):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    offenders = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                target = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in names:
                offenders.add(f"{target.id} (line {node.lineno})")
    return sorted(offenders)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_state_mutated(path):
    """State a function changes belongs to an object its callers create and
    pass (a cover, a context, a build); a module-level cache is shared by
    every build in the process and grows for its whole life."""
    assert _mutated_module_containers(path) == []


def _parameter_stores(path):
    """Stores into a public attribute of a function's parameter, or into an
    item of one, and mutating calls on such an attribute: `p.a = v`,
    `p.a[k] = v`, `del p.a[k]`, `p.a.append(v)`.  `self` and `cls` are
    exempt, and so is an attribute whose name starts with `_` (a private
    memo such as `ctx._memo`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = func.args
        params = {a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None} - {"self", "cls"}
        for node in ast.walk(func):
            if (isinstance(node, (ast.Attribute, ast.Subscript))
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                target = node
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                target = node.func.value
            else:
                continue
            attr = None
            while isinstance(target, (ast.Attribute, ast.Subscript)):
                if isinstance(target, ast.Attribute):
                    attr = target.attr
                target = target.value
            if (isinstance(target, ast.Name) and target.id in params
                    and attr is not None and not attr.startswith("_")):
                offenders.add(f"{path.name}:{node.lineno} "
                              f"({target.id}.{attr})")
    return sorted(offenders)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_writes_into_its_parameters(path):
    """A stage returns what it makes and leaves its inputs as its caller
    passed them, so each value has one owner: no function stores into a
    public attribute of a parameter or into an item of one."""
    assert _parameter_stores(path) == []


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Every command runs in a fresh interpreter, so each one pays for what
    `serrekit.cli` imports; `dataclasses` alone pulls in `inspect`, `ast`,
    `dis` and `tokenize`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(prelude):
        code = prelude + "import sys; print(*sys.modules)"
        return set(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout.split())
    added = loaded("import serrekit.cli; ") - loaded("")
    assert "serrekit.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


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


def _divisions_outside_qdiv(path):
    """`/` and `/=` anywhere but in the body of a function named qdiv."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "qdiv":
            inside.update(id(n) for n in ast.walk(node))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div) and id(node) not in inside]


def test_coefficient_division_goes_through_qdiv():
    """The package divides nothing but coefficients, and `int / int` is a
    float: each division goes through `qdiv`, which returns an exact int or
    Fraction.  So any `/` outside it is a bug."""
    offenders = [o for path in sorted(SRC.glob("*.py"))
                 for o in _divisions_outside_qdiv(path)]
    assert offenders == []
