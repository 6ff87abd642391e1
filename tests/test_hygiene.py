"""Source hygiene: every imported name in the package and the tests is read,
and every package name the benchmark under bench/ patches or calls exists."""

import ast
import inspect
from pathlib import Path

from hhcycles import continuation, shooting

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
