"""Timers and spans recorded around calls into the hhcycles modules.

Everything here works from outside the package: a wrapper replaces a module
attribute (a public function, looked up by the callers at call time) for the
length of a run and is removed afterwards.  Two recorders use this:

* CallLog, always on, times a handful of entry points per run (the cold
  start at I=20, the continuation entry points) for the end-to-end metrics;
* Tracer, on only with --trace 1, records a span (name, start, end, parent)
  at every layer boundary, keeps the spans in memory and reduces them to the
  per-layer metrics.  Model evaluations are too many to keep one span each
  (a 300 ms settle alone makes 120,000), so they are aggregated into counts,
  states and seconds, and their time is charged to the enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from hhcycles import cli, collocation, continuation, floquet, hb, integrate
from hhcycles import model, shooting
from hhcycles.collocation import CollocationSolution
from hhcycles.hb import FourierCycle

_clock = time.perf_counter


class Patches:
    """Module-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, name, make_wrapper):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


class CallLog:
    """Start, end, outcome and result of every call to a few entry points."""

    ENTRY_POINTS = (
        (shooting, "settle_transient"), (shooting, "shoot"), (hb, "solve_hb"),
        (continuation, "continue_branch"), (continuation, "locate_fold"),
        (continuation, "locate_pd"),
    )

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = []   # dicts: name, start, end, wall_start, wall_end, ok, ...

    def install(self, patches: Patches):
        for module, name in self.ENTRY_POINTS:
            patches.wrap(module, name, lambda fn, name=name: self._timed(name, fn))

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = {"name": name, "ok": True, "wall_start": _clock(),
                   "start": self.clock()}
            self.calls.append(rec)
            try:
                rec["result"] = fn(*args, **kwargs)
                return rec["result"]
            except Exception as exc:
                rec["ok"] = False
                rec["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec["end"] = self.clock()
                rec["wall_end"] = _clock()
        return wrapper

    def of(self, name):
        return [c for c in self.calls if c["name"] == name]

    def seconds(self, name, wall=False):
        a, b = ("wall_start", "wall_end") if wall else ("start", "end")
        return sum(c[b] - c[a] for c in self.of(name))

    def seed_cycle_s(self, wall=False):
        """First settle_transient, shoot and solve_hb: the cold start at I=20."""
        a, b = ("wall_start", "wall_end") if wall else ("start", "end")
        total = 0.0
        for name in ("settle_transient", "shoot", "solve_hb"):
            calls = self.of(name)
            if not calls:
                raise RuntimeError(f"cold start incomplete: no {name} call")
            total += calls[0][b] - calls[0][a]
        return total


def _spectrum_kind(args, kwargs):
    cyc = args[0] if args else kwargs["cycle"]
    if isinstance(cyc, FourierCycle):
        return "floquet.spectrum.fourier"
    if isinstance(cyc, CollocationSolution):
        return "floquet.spectrum.collocation"
    return "floquet.spectrum.shooting"


# (module, attribute, span name or a function of the call's arguments)
SPAN_POINTS = (
    (integrate, "integrate_rk4", "integrate.rk4"),
    (integrate, "flow", "integrate.flow"),
    (integrate, "flow_with_monodromy", "integrate.monodromy"),
    (integrate, "variational_along", "integrate.variational"),
    (shooting, "settle_transient", "shooting.settle"),
    (shooting, "shoot", "shooting.shoot"),
    (hb, "solve_hb", "hb.solve"),
    (hb, "solve_hb_fixed_period", "hb.fixed_period"),
    (hb, "hb_residual", "hb.residual"),
    (collocation, "solve_bvp", "collocation.solve"),
    (collocation, "solve_bvp_fixed_period", "collocation.solve"),
    (floquet, "spectrum", _spectrum_kind),
    (floquet, "detect_crossing", "floquet.crossing"),
    (continuation, "continue_branch", "continuation.branch"),
    (continuation, "make_point", "continuation.make_point"),
    (continuation, "locate_fold", "continuation.fold"),
    (continuation, "locate_pd", "continuation.pd"),
    (cli, "scan_hopf", "cli.scan_hopf"),
    (cli, "write_cycle_json", "cli.write"),
    (cli, "_write_diagram_files", "cli.write"),
    (cli, "_flush_manifest", "cli.write"),
    (cli, "read_cycle_json", "cli.read"),
)

LEAF_POINTS = ((model, "vector_field", "field"), (model, "jacobian", "jac"))

# span record layout
_NAME, _START, _END, _PARENT, _OK, _LEAF_S, _RESULT = range(7)


class Tracer:
    """In-memory spans at the layer boundaries, plus aggregated model calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self.leaf = {"field": [0, 0, 0.0], "jac": [0, 0, 0.0]}  # calls, states, s

    def install(self, patches: Patches):
        for module, attr, name in SPAN_POINTS:
            patches.wrap(module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, kind in LEAF_POINTS:
            patches.wrap(module, attr, lambda fn, kind=kind: self._leaf(kind, fn))

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [self._name_id(label), 0.0, 0.0,
                   self._stack[-1] if self._stack else -1, True, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[_OK] = False
                raise
            finally:
                rec[_END] = clock()
                self._stack.pop()
            rec[_RESULT] = _span_result(label, result)
            return result
        return wrapper

    def _leaf(self, kind, fn):
        acc = self.leaf[kind]
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(x, *args, **kwargs):
            t0 = clock()
            out = fn(x, *args, **kwargs)
            dt = clock() - t0
            acc[0] += 1
            acc[1] += np.size(x) // model.STATE_DIM
            acc[2] += dt
            if stack:
                spans[stack[-1]][_LEAF_S] += dt
            return out
        return wrapper

    # -- reduction ---------------------------------------------------------

    def _within(self, ancestor):
        """Per span: True if some enclosing span is named ancestor."""
        if ancestor not in self._inside:
            aid = self._ids.get(ancestor, -2)
            inside = [False] * len(self.spans)
            for i, rec in enumerate(self.spans):
                p = rec[_PARENT]
                inside[i] = p >= 0 and (self.spans[p][_NAME] == aid or inside[p])
            self._inside[ancestor] = inside
        return self._inside[ancestor]

    def _select(self, name, within=None):
        index = self._index.get(self._ids.get(name, -2), [])
        if within:
            inside = self._within(within)
            index = [i for i in index if inside[i]]
        return [self.spans[i] for i in index]

    def _busy(self, name):
        recs = self._select(name)
        return sum(r[_END] - r[_START] for r in recs)

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        self._index = defaultdict(list)
        for i, rec in enumerate(self.spans):
            self._index[rec[_NAME]].append(i)
        self._inside = {}
        m = {}
        field, jac = self.leaf["field"], self.leaf["jac"]
        m["model.field_calls"] = (field[0], "count")
        m["model.field_states"] = (field[1], "count")
        m["model.field_s"] = (field[2], "s")
        m["model.jac_calls"] = (jac[0], "count")
        m["model.jac_states"] = (jac[1], "count")
        m["model.jac_s"] = (jac[2], "s")
        calls = field[0] + jac[0]
        m["model.states_per_call"] = (
            (field[1] + jac[1]) / calls if calls else 0.0, "ratio")

        for short, name in (("rk4", "integrate.rk4"), ("flow", "integrate.flow"),
                            ("monodromy", "integrate.monodromy"),
                            ("variational", "integrate.variational")):
            if short != "flow":
                m[f"integrate.{short}_calls"] = (len(self._select(name)), "count")
            m[f"integrate.{short}_s"] = (self._busy(name), "s")

        shoots = self._select("shooting.shoot")
        m["shooting.settle_s"] = (self._busy("shooting.settle"), "s")
        m["shooting.shoot_calls"] = (len(shoots), "count")
        m["shooting.shoot_s"] = (self._busy("shooting.shoot"), "s")
        flows = len(self._select("integrate.monodromy", within="shooting.shoot"))
        m["shooting.flows_per_shoot"] = (flows / len(shoots) if shoots else 0.0,
                                         "ratio")

        solves = self._select("hb.solve")
        fixed = self._select("hb.fixed_period")
        m["hb.solve_calls"] = (len(solves), "count")
        m["hb.solve_s"] = (self._busy("hb.solve"), "s")
        m["hb.solve_failures"] = (sum(not r[_OK] for r in solves), "count")
        m["hb.fixed_period_calls"] = (len(fixed), "count")
        m["hb.fixed_period_s"] = (self._busy("hb.fixed_period"), "s")
        m["hb.fixed_period_failures"] = (sum(not r[_OK] for r in fixed), "count")
        m["hb.residual_calls"] = (len(self._select("hb.residual")), "count")
        m["hb.residual_s"] = (self._busy("hb.residual"), "s")
        in_solves = (len(self._select("hb.residual", within="hb.solve"))
                     + len(self._select("hb.residual", within="hb.fixed_period")))
        n_solves = len(solves) + len(fixed)
        m["hb.residuals_per_solve"] = (in_solves / n_solves if n_solves else 0.0,
                                       "ratio")

        colls = self._select("collocation.solve")
        m["collocation.solve_calls"] = (len(colls), "count")
        m["collocation.solve_s"] = (self._busy("collocation.solve"), "s")
        m["collocation.mesh_intervals"] = (
            max([r[_RESULT]["mesh_intervals"] for r in colls if r[_OK]],
                default=0), "count")

        for kind in ("fourier", "shooting", "collocation"):
            name = f"floquet.spectrum.{kind}"
            m[f"floquet.spectrum_calls_{kind}"] = (len(self._select(name)), "count")
            m[f"floquet.spectrum_s_{kind}"] = (self._busy(name), "s")
        m["floquet.crossing_s"] = (self._busy("floquet.crossing"), "s")

        branches = [r for r in self._select("continuation.branch") if r[_OK]]
        points = sum(r[_RESULT]["points"] for r in branches)
        t_points = sum(r[_RESULT]["t_mode_points"] for r in branches)
        branch_s = self._busy("continuation.branch")
        correctors = sum(len(self._select(n, within="continuation.branch"))
                         for n in ("hb.solve", "hb.fixed_period",
                                   "collocation.solve", "shooting.shoot"))
        folds = self._select("continuation.fold")
        fold_s = self._busy("continuation.fold")
        m["continuation.branch_s"] = (branch_s, "s")
        m["continuation.self_s"] = (self._self_seconds("continuation."), "s")
        m["continuation.points_accepted"] = (points, "count")
        m["continuation.points_per_s"] = (points / branch_s if branch_s else 0.0,
                                          "1/s")
        m["continuation.corrector_calls"] = (correctors, "count")
        m["continuation.accept_ratio"] = (
            points / correctors if correctors else 0.0, "ratio")
        m["continuation.t_mode_points"] = (t_points, "count")
        m["continuation.fold_s"] = (fold_s, "s")
        m["continuation.fold_locate_s"] = (fold_s / len(folds) if folds else 0.0,
                                           "s")
        m["continuation.fold_solves"] = (
            len(self._select("hb.fixed_period", within="continuation.fold"))
            + len(self._select("collocation.solve", within="continuation.fold")),
            "count")
        m["continuation.pd_s"] = (self._busy("continuation.pd"), "s")
        m["continuation.pd_spectra"] = (
            sum(len(self._select(f"floquet.spectrum.{k}", within="continuation.pd"))
                for k in ("fourier", "shooting", "collocation")), "count")

        m["cli.scan_hopf_s"] = (self._busy("cli.scan_hopf"), "s")
        m["cli.write_s"] = (self._busy("cli.write"), "s")
        m["cli.read_s"] = (self._busy("cli.read"), "s")

        for module in ("integrate", "shooting", "hb", "collocation", "floquet"):
            m[f"{module}.self_s"] = (self._self_seconds(module + "."), "s")
        return m

    def _self_seconds(self, prefix):
        """Time in spans named prefix* not covered by child spans or model calls."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        total = 0.0
        for i, rec in enumerate(self.spans):
            if self.names[rec[_NAME]].startswith(prefix):
                total += rec[_END] - rec[_START] - child[i] - rec[_LEAF_S]
        return total

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "span_fields": ["name", "start", "end", "parent", "ok",
                                       "model_s"],
                       "spans": [r[:_RESULT] for r in self.spans],
                       "model": self.leaf}, fh)


def _span_result(label, result):
    """The few facts about a call's result that the metrics need."""
    if label == "continuation.branch":
        return {"points": len(result.points) - 1,
                "t_mode_points": t_mode_points(result)}
    if label == "collocation.solve":
        sol = result[0] if isinstance(result, tuple) else result
        return {"mesh_intervals": sol.mesh.N}
    return None


def t_mode_points(branch):
    """Accepted points made while the period, not I, drove the branch."""
    marks = list(branch.mode_history) + [(len(branch.points) - 1, None)]
    return sum(b - a for (a, mode), (b, _) in zip(marks, marks[1:]) if mode == "T")


def calibrate_overhead(clock, n=20000):
    """Seconds one span and one aggregated model call add, measured here."""
    tracer = Tracer(clock)
    noop = lambda *a, **k: None
    span = tracer._span("calibration", noop)
    leaf = tracer._leaf("field", noop)
    x = np.zeros(model.STATE_DIM)
    t0 = clock()
    for _ in range(n):
        noop(x)
    base = clock() - t0
    t0 = clock()
    for _ in range(n):
        span(x)
    per_span = (clock() - t0 - base) / n
    t0 = clock()
    for _ in range(n):
        leaf(x)
    per_leaf = (clock() - t0 - base) / n
    return max(per_span, 0.0), max(per_leaf, 0.0)
