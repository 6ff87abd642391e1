"""The three workloads.  Each function runs one round and returns a RoundResult.

stable-branch   cold-start cycle at I=20, then K=50 harmonic-balance
                continuation up the stable branch to the upper Hopf endpoint.
knee-diagram    `hhc diagram` through cli.main on a window holding the low
                Hopf point and both knee folds.
cycle-solvers   `hhc cycle` (shoot, hb, collocation) and `hhc floquet` at
                I=20, in-process through cli.main.

Sizes (windows, step controls, K, Floquet steps) keep a run near 40 s, so
that the 70 runs of a benchmark pass fit in an hour; README.md gives them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import checks
import reference
from hhcycles import cli, continuation, hb, model, shooting
from tracing import CallLog

SEED_CURRENT = 20.0
KICK = np.array([5.0, 0.0, 0.0, 0.0])        # mV off the equilibrium

# stable-branch
BRANCH_K = 50
BRANCH_STEPS = dict(initial=4.0, max_step=16.0, collapse_amplitude=0.4,
                    max_orbit_jump=25.0)
BRANCH_LIMITS = (SEED_CURRENT, 160.0)
RETURN_CHECKS = 3                            # branch points re-integrated

# knee-diagram
KNEE_CONFIG = {"diagram.i_min": 7.8, "diagram.i_max": 20.0, "solver.hb.k": 30,
               "floquet.steps": 1000}
PD_FAULT = ("floquet.detect_crossing takes the real multiplier nearest -1 at "
            "each sample, so the roundoff one near 0 wins once the crossing "
            "multiplier jumps below -2 and the sign change is missed")

# cycle-solvers
CYCLE_CURRENTS = (SEED_CURRENT,)
FLOQUET_STEPS = 1000
CYCLE_CONFIG = {"floquet.steps": FLOQUET_STEPS}
METHODS = ("shoot", "hb", "collocation")


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    expected_failures: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)   # failed checks
    seed_cycle_s: float = 0.0
    main_phase_s: float = 0.0
    info: Dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str, expected_fault: str = ""):
        """Count one operation; a failure is a problem unless attributed."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if expected_fault:
            self.expected_failures.append(f"{what} ({expected_fault})")
        else:
            self.problems.append(f"operation failed: {what}")


def _write_config(path, values):
    with open(path, "w") as fh:
        for key, val in values.items():
            fh.write(f"{key} = {val!r}\n")
    return path


def _hhc(argv, clock):
    """cli.main in-process: (exit code, stdout, stderr, seconds, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0, w0 = clock(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return (rc, out.getvalue(), err.getvalue(), clock() - t0,
            time.perf_counter() - w0)


def _artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


_hopf_cache = {}


def _reference_hopf(lo, hi):
    if (lo, hi) not in _hopf_cache:
        _hopf_cache[(lo, hi)] = reference.hopf_current(lo, hi)
    return _hopf_cache[(lo, hi)]


# ---------------------------------------------------------------------------


def stable_branch(seed: int, out_dir: str, log: CallLog) -> RoundResult:
    res = RoundResult()
    fam = continuation.hh_family()
    fld = fam(SEED_CURRENT)
    try:
        eq = model.find_equilibrium(SEED_CURRENT)
        guess = shooting.settle_transient(fld, 300.0, x_start=eq + KICK)
        cyc = shooting.shoot(fld, guess, tol=1e-10)
        ops = hb.build_operators(BRANCH_K)
        fc = hb.solve_hb(hb.from_trajectory(cyc.samples.states[:-1], cyc.period,
                                            BRANCH_K), fld, ops)
        start = continuation.make_point(SEED_CURRENT, fc, fld)
        res.op(True, "seed cycle")
    except Exception as exc:
        res.op(False, f"seed cycle: {type(exc).__name__}: {exc}")
        res.op(False, "stable branch: no seed")
        return res
    res.seed_cycle_s = log.seed_cycle_s()
    res.info["wall_seed_cycle_s"] = log.seed_cycle_s(wall=True)

    adapter = continuation._SolverAdapter("hb", hb_K=BRANCH_K)
    try:
        branch = continuation.continue_branch(
            start, +1, BRANCH_LIMITS,
            step_ctrl=continuation.StepControl(**BRANCH_STEPS),
            adapter=adapter, field_at=fam, max_points=200)
        res.op(True, "stable branch")
    except Exception as exc:
        res.op(False, f"stable branch: {type(exc).__name__}: {exc}")
        return res
    res.main_phase_s = log.seconds("continue_branch")
    res.info["wall_main_phase_s"] = log.seconds("continue_branch", wall=True)
    res.info["branch_points_per_s"] = (len(branch.points) - 1) / res.main_phase_s

    records = [checks.CycleRecord(
        source=f"branch point I={pt.I:.6g}", current=pt.I, period=pt.period,
        x0=checks.fourier_state_at_zero(pt.cycle.coeffs),
        trivial=pt.spectrum.trivial, multipliers=list(pt.spectrum.multipliers),
        stability=pt.spectrum.stability) for pt in branch.points]
    picks = sorted(random.Random(seed).sample(range(len(records)),
                                              min(RETURN_CHECKS, len(records))))
    hopfs = [e.I_star for e in branch.events if e.kind == "hopf"]
    res.problems += checks.check_stable_branch(
        records, picks, hopfs, _reference_hopf(154.0, 155.0))
    return res


def knee_diagram(seed: int, out_dir: str, log: CallLog) -> RoundResult:
    del seed   # fixed inputs: the failing search must not depend on the seed
    res = RoundResult()
    cfg = _write_config(os.path.join(out_dir, "knee.cfg"), KNEE_CONFIG)
    art = os.path.join(out_dir, "diagram")
    rc, out, err, _, _ = _hhc(["--config", cfg, "--out", art, "--verbose",
                               "diagram"], log.clock)
    res.op(rc == 0, f"hhc diagram exit {rc}: {err.strip()[-300:]}")
    if rc != 0:
        return res

    try:
        diagram = checks.read_diagram(art)
    except (OSError, ValueError, KeyError) as exc:
        res.problems.append(f"diagram artifacts do not parse: {exc}")
        return res
    for b in diagram["manifest"].get("branches", []):
        res.op(b.get("status") == "complete", f"branch {b.get('name')}: "
               f"{b.get('status')}")
    for call in log.of("locate_fold"):
        res.op(call["ok"], f"fold location: {call.get('error')}")
    for call in log.of("locate_pd"):
        known = not call["ok"] and call["error"].startswith("NoSignChange")
        res.op(call["ok"], f"period-doubling search: {call.get('error')}",
               expected_fault=PD_FAULT if known else "")
    res.problems += checks.check_knee_diagram(diagram, _reference_hopf(9.0, 10.5))

    res.seed_cycle_s = log.seed_cycle_s()
    res.info["wall_seed_cycle_s"] = log.seed_cycle_s(wall=True)
    branch_s = log.seconds("continue_branch")
    fold_s = log.seconds("locate_fold")
    res.main_phase_s = branch_s + fold_s
    res.info["wall_main_phase_s"] = (log.seconds("continue_branch", wall=True)
                                     + log.seconds("locate_fold", wall=True))
    points = sum(len(c["result"].points) - 1 for c in log.of("continue_branch"))
    res.info["branch_points_per_s"] = points / branch_s
    res.info["fold_locate_s"] = fold_s / max(len(log.of("locate_fold")), 1)
    res.info["pd_search_s"] = log.seconds("locate_pd")
    res.info["artifact_bytes"] = _artifact_bytes(art)
    return res


def cycle_solvers(seed: int, out_dir: str, log: CallLog) -> RoundResult:
    del seed   # one fixed current: a cold start costs 15 s of a 45 s run
    res = RoundResult()
    cfg = _write_config(os.path.join(out_dir, "cycle.cfg"), CYCLE_CONFIG)
    art = os.path.join(out_dir, "cycles")
    base = ["--config", cfg, "--out", art]
    totals = dict.fromkeys(("cycle_shoot_s", "cycle_hb_s", "cycle_collocation_s",
                            "floquet_report_s"), 0.0)
    wall = 0.0
    for I in CYCLE_CURRENTS:
        tag = format(I, ".17g")
        path = {m: os.path.join(art, f"cycle_I{tag}_{m}.json") for m in METHODS}
        records, reports = {}, {}
        for m in METHODS:
            argv = base + ["cycle", "--current", repr(I), "--method", m]
            if m != "shoot":
                argv += ["--init", path["shoot"]]
            rc, _, err, dt, dw = _hhc(argv, log.clock)
            totals[f"cycle_{m}_s"] += dt
            wall += dw
            res.op(rc == 0, f"hhc cycle --current {I} --method {m}: {err.strip()}")
            if rc == 0:
                with open(path[m]) as fh:
                    records[m] = checks.record_from_artifact(
                        json.load(fh), f"{m} artifact at I={I}")
        for m in ("shoot", "hb"):
            rc, out, err, dt, dw = _hhc(base + ["floquet", "--cycle-file", path[m],
                                                "--steps", str(FLOQUET_STEPS)],
                                        log.clock)
            totals["floquet_report_s"] += dt
            wall += dw
            res.op(rc == 0, f"hhc floquet on the {m} artifact at I={I}: "
                   f"{err.strip()}")
            if rc == 0:
                reports[m] = checks.parse_floquet_report(out.strip().splitlines()[-1])
        if len(records) == len(METHODS) and len(reports) == 2:
            res.problems += checks.check_cycle_solvers(records, reports)
    res.seed_cycle_s = log.seed_cycle_s()
    res.info["wall_seed_cycle_s"] = log.seed_cycle_s(wall=True)
    res.main_phase_s = sum(totals.values())
    res.info["wall_main_phase_s"] = wall
    res.info.update(totals)
    res.info["artifact_bytes"] = _artifact_bytes(art)
    return res


WORKLOADS = {
    "stable-branch": stable_branch,
    "knee-diagram": knee_diagram,
    "cycle-solvers": cycle_solvers,
}
