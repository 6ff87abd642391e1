"""Source hygiene: every imported name in the package and the tests is read."""

import ast
from pathlib import Path

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
