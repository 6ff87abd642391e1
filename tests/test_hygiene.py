"""Source hygiene: every imported name in the package and the tests is read,
every public package definition has a user outside the tests, and every
package name the benchmark under bench/ patches or calls exists."""

import ast
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hhcycles import continuation, model, shooting

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hhcycles").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """Names bound by import statements in path and never read there.

    A name counts as read when it is loaded anywhere in the module or listed
    in __all__ (a re-export); __future__ imports bind nothing to read.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = [u for path in SOURCES for u in unused_imports(path)]
    assert not found, "imported but never read:\n" + "\n".join(found)


def identifiers(node):
    """Every name node mentions: loaded or stored names, attributes,
    imported names and string constants (bench/tracing.py patches functions
    by name and __all__ lists the re-exports)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_every_public_definition_is_used_outside_the_tests():
    # a public function or class that only the tests name is code kept
    # for the tests alone
    package = sorted((ROOT / "src" / "hhcycles").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "bench").glob("*.py"))}
    named = Counter(name for tree in trees.values()
                    for name in identifiers(tree))
    found = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
             for path in package for node in trees[path].body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and named[node.name] == Counter(identifiers(node))[node.name]]
    assert not found, "named only in its own definition:\n" + "\n".join(
        found)


def test_rk4_loop_runs_only_inside_integrate_rk4():
    # bench/tracing.py times every RK4 pass by wrapping integrate_rk4; the
    # generated stage loop taken from anywhere else would run outside the
    # integrate.rk4 span and the benchmark's timers
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        if path.name == "integrate.py":
            for node in ast.walk(tree):
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "integrate_rk4"):
                    inside = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else None)
            if name == "_rk4_loop" and id(node) not in inside:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "_rk4_loop used outside integrate_rk4: " + ", ".join(
        found)


def test_model_uses_math_only_in_float_field():
    # float_field is the one float implementation of the field; math named
    # anywhere else in model.py starts a second one beside it
    path = ROOT / "src" / "hhcycles" / "model.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "float_field" for n in ast.walk(node)}
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "math"
                 or isinstance(node, ast.ImportFrom) and node.module == "math")
             and id(node) not in inside]
    assert not found, f"math used outside float_field at lines {found}"


def test_benchmark_names_exist(monkeypatch):
    # bench/tracing.py patches these by name: deleting one breaks the traced
    # benchmark, not the package's own tests
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    points = ([(module, name) for module, name, _ in tracing.SPAN_POINTS]
              + [(module, name) for module, name, _ in tracing.LEAF_POINTS]
              + list(tracing.CallLog.ENTRY_POINTS)
              + [(continuation, "_SolverAdapter")])
    missing = [f"{module.__name__}.{name}" for module, name in points
               if not hasattr(module, name)]
    assert not missing, "the benchmark needs: " + ", ".join(missing)
    assert hasattr(continuation.Branch, "mode_history")


def test_settle_transient_takes_the_benchmark_call():
    # bench/workloads.py calls settle_transient(fld, 300.0, x_start=...);
    # bind raises TypeError if the signature no longer accepts that call
    inspect.signature(shooting.settle_transient).bind(
        object(), 300.0, x_start=object())


def test_find_equilibrium_takes_the_benchmark_call():
    # bench/workloads.py adds a (4,) kick to find_equilibrium(20.0): a
    # scalar current must still give one state, not a batch of one
    assert model.find_equilibrium(20.0).shape == (model.STATE_DIM,)


def modules_loaded_by_cli_import(prefix):
    """The modules under prefix that a fresh `import hhcycles.cli` loads."""
    code = ("import sys, hhcycles.cli; "
            f"print([m for m in sys.modules if m.startswith({prefix!r})])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize takes about 0.2 s and 15 MB more, on every run
    assert modules_loaded_by_cli_import("scipy.optimize") == "[]"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # no sparse matrix is assembled anywhere in the package, and importing
    # scipy.sparse.linalg takes about 3.5 MB more, on every run
    assert modules_loaded_by_cli_import("scipy.sparse") == "[]"
