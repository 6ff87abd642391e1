"""Source hygiene: every imported name in the package and the tests is read,
every public package definition has a user outside the tests, no package
function rebinds a module name, every package name the benchmark under
bench/ patches or calls exists, every config key is read and listed in the
README, and the steady state of a continuation makes no fresh pages."""

import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hhcycles import cli, continuation, model, shooting

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


def definitions(tree):
    """The module-level functions and classes of tree, and the methods and
    properties of its classes."""
    for node in tree.body:
        yield node
        if isinstance(node, ast.ClassDef):
            yield from node.body


def test_every_public_definition_is_used_outside_the_tests():
    # a public function, class, method or property that only the tests
    # name is code kept for the tests alone
    package = sorted((ROOT / "src" / "hhcycles").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "bench").glob("*.py"))}
    named = Counter(name for tree in trees.values()
                    for name in identifiers(tree))
    found = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
             for path in package for node in definitions(trees[path])
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and named[node.name] == Counter(identifiers(node))[node.name]]
    assert not found, "named only in its own definition:\n" + "\n".join(
        found)


def test_no_global_statements_in_the_package():
    # a function that rebinds module state makes a call's result depend on
    # the calls that ran before it
    found = []
    for path in sorted((ROOT / "src" / "hhcycles").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree)
                     if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                around = [f.name for f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.stem}.{around[-1] if around else ''}")
    assert not found, "global statement in: " + ", ".join(found)


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


def test_every_config_key_is_read_by_the_package():
    # a key that only DEFAULT_CONFIG names sets nothing: its value is dead
    named = Counter()
    for path in sorted((ROOT / "src" / "hhcycles").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        literal = {id(n) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "DEFAULT_CONFIG"
                           for t in node.targets)
                   for n in ast.walk(node.value)}
        named.update(n.value for n in ast.walk(tree)
                     if isinstance(n, ast.Constant) and id(n) not in literal)
    dead = [key for key in cli.DEFAULT_CONFIG if not named[key]]
    assert not dead, "config keys the package never reads: " + ", ".join(dead)


def readme_config_keys():
    """The keys of the README's configuration table, in its order: the
    first cell of each row below the header that starts with '| key |'."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("| key |"))
    keys = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        keys.append(line.split("|")[1].strip().strip("`"))
    return keys


def test_readme_config_table_names_every_key_once():
    assert sorted(readme_config_keys()) == sorted(cli.DEFAULT_CONFIG)


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


def run_fresh(code):
    """What code prints, run in a fresh interpreter on the package source."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def modules_loaded_by_cli_import(prefix):
    """The modules under prefix that a fresh `import hhcycles.cli` loads."""
    return run_fresh("import sys, hhcycles.cli; "
                     "print([m for m in sys.modules "
                     f"if m.startswith({prefix!r})])")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize takes about 0.2 s and 15 MB more, on every run
    assert modules_loaded_by_cli_import("scipy.optimize") == "[]"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # no sparse matrix is assembled anywhere in the package, and importing
    # scipy.sparse.linalg takes about 3.5 MB more, on every run
    assert modules_loaded_by_cli_import("scipy.sparse") == "[]"


# continuation points after the first: K=50 bordered HB solves alone, then
# each with its point spectrum (992 steps and the 496-step product of the
# estimate), as on the stable branch; one carry per run holds the Newton
# arrays, as in a corrector
BRANCH_POINTS = """
import json, resource
import numpy as np
from hhcycles import continuation, hb, newton
from hhcycles.fields import hh_field

fam = continuation.hh_family()
ops = hb.build_operators(50)
cyc = hb.solve_hb(hb.FourierCycle(K=2, period=11.6, coeffs=np.array(COEFFS)),
                  hh_field(I=20.0), ops)
runs = []
for spectra in (False, True):
    faults = []
    carry = newton.FactorCarry()
    for I in (20.5, 21.0, 21.5, 22.0, 22.5, 23.0):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cyc, _ = hb.solve_hb_bordered(cyc, I, fam, ops, (0.0, 1.0, I),
                                      1e-10, 40, carry)
        if spectra:
            continuation.point_spectrum(cyc, fam(I), 4000)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    runs.append(faults)
print(json.dumps(runs))
"""


def test_continuation_points_reuse_their_memory(stable_cycle_20):
    # every point of a continuation solves and takes a spectrum with
    # arrays of the same sizes as the point before; made afresh they cost
    # about 650 fresh pages a solve and 830 a spectrum (page faults the
    # kernel counts), kept they cost none
    resource = pytest.importorskip("resource")
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("this platform does not count minor page faults")
    coeffs = stable_cycle_20.to_fourier(2).coeffs.tolist()
    runs = json.loads(run_fresh(BRANCH_POINTS.replace("COEFFS",
                                                      repr(coeffs))))
    # the first point of each run may make the arrays
    assert all(sum(faults[1:]) < 500 for faults in runs), runs


# carried LU factors stay inside one corrector: a solve must not gain from
# one that an earlier command, or an earlier benchmark round, ran


def test_identical_hb_cycle_commands_factor_equally_often(tmp_path,
                                                          monkeypatch):
    from test_newton import count_factorizations
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver.hb.k = 30\n")
    logs = []
    for run in range(2):
        with monkeypatch.context() as m:
            logs.append(count_factorizations(m))
            assert cli.main(["--config", str(cfg), "--out",
                             str(tmp_path / str(run)), "cycle",
                             "--current", "20", "--method", "hb"]) == 0
    assert logs[0] == logs[1] and "F" in logs[0]


def test_a_new_corrector_factors_its_first_correction_afresh(
        stable_cycle_20, monkeypatch):
    # the same two corrections by two correctors, as in two benchmark
    # rounds: the second corrector's work repeats the first's exactly
    from test_newton import count_factorizations
    fam = continuation.hh_family()
    logs = []
    for _ in range(2):
        ad = continuation._SolverAdapter("hb", hb_K=30)
        with monkeypatch.context() as m:
            log = count_factorizations(m)
            cyc, _ = ad.correct(fam, stable_cycle_20, stable_cycle_20.period,
                                20.5, (0.0, 1.0, 20.5))
            first = len(log)
            ad.correct(fam, cyc, cyc.period, 21.0, (0.0, 1.0, 21.0))
        assert log[0] == "F" and ad.carry.tried == ad.carry.kept == 1
        logs.append((first, log))
    assert logs[0] == logs[1]
