"""Branch following in the stimulus current I with turning-point handling.

Natural continuation: fix I, solve the periodic problem with the previous
cycle as predictor, step, repeat.  Near a turning point dT/dI blows up while
dI/dT stays finite, so the driver swaps the roles of I and the period (the
solvers gain I as unknown at frozen T) and swaps back once the branch
straightens out.  Folds are then pinned down as extrema of I along the
branch, and period-doubling points by tracking a multiplier through -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import collocation, floquet, hb, model
from .cycles import PeriodicOrbit, check_orbit
from .errors import (DegenerateCycle, MeshTooCoarse, NoConvergence,
                     NoExtremum, NoSignChange, SingularJacobian, StartInvalid)
from .fields import VectorField, hh_field
from .hb import FourierCycle


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation point."""

    I: float
    cycle: PeriodicOrbit
    period: float
    v_min: float
    v_max: float
    spectrum: floquet.FloquetSpectrum

    @property
    def amplitude(self) -> float:
        return self.v_max - self.v_min


@dataclass(frozen=True)
class BifurcationEvent:
    kind: str       # hopf | fold | period_doubling
    I_star: float
    evidence: dict


@dataclass
class Branch:
    points: List[BranchPoint]
    events: List[BifurcationEvent]
    solver: str
    mode_history: List[Tuple[int, str]]  # (point index, driving parameter)


@dataclass
class StepControl:
    initial: float = 0.25
    max_step: float = 2.0
    min_step: float = 1e-9
    collapse_amplitude: float = 0.75   # mV amplitude marking a Hopf endpoint
    max_orbit_jump: float = 30.0       # |dT| + |dv_min| + |dv_max| acceptance bound


GROW_AFTER = 3        # accepted steps in a row before the step doubles
SWITCH_STEP = 1e-6    # I-step below which the period takes over
REVERT_SLOPE = 0.02   # |dI/dT| above which I takes over again
NEWTON_TOL = 1e-10    # harmonic-balance corrector tolerance and budget
NEWTON_MAX_ITER = 12
FOLD_TOL = 1e-6       # locate_fold stops when the vertex I moves less
FOLD_MAX_ITER = 30
# the multiplier moves by ~3e4 per unit I near the knee, so the
# period-doubling crossing needs a much tighter current tolerance
PD_TOL = 1e-9


def hh_family(p: model.HHParams = model.DEFAULT_PARAMS) -> Callable[[float], VectorField]:
    """Factory I -> VectorField for the Hodgkin-Huxley model."""
    return lambda I: hh_field(p, I)


def v_extrema(cyc) -> Tuple[float, float]:
    """Extrema of the first state component over one period."""
    return check_orbit(cyc).v_extrema()


class _SolverAdapter:
    """Corrector interface over the two solvers with a frozen-period mode."""

    def __init__(self, name: str, hb_K: int = 40, hb_oversample: int = hb.DEFAULT_OVERSAMPLE,
                 coll_tol: float = 1e-6, coll_N: int = 100, coll_max_N: int = 2000):
        if name not in ("hb", "collocation"):
            raise ValueError(f"unknown solver {name!r}")
        self.name = name
        self.hb_K = hb_K
        self.coll_tol = coll_tol
        self.coll_N = coll_N
        self.coll_max_N = coll_max_N
        self._ops = hb.build_operators(hb_K, hb_oversample) if name == "hb" else None

    def solve(self, fld: VectorField, predictor: PeriodicOrbit):
        if self.name == "hb":
            return hb.solve_hb(predictor.to_fourier(self.hb_K), fld, self._ops,
                               tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER)
        mesh = getattr(predictor, "mesh", None)
        if mesh is None:
            return collocation.solve_bvp(fld, predictor, tol=self.coll_tol,
                                         N=self.coll_N, max_N=self.coll_max_N)
        # a collocation predictor lends its mesh, refined at most twice
        return collocation.solve_bvp(fld, predictor, tol=self.coll_tol,
                                     mesh=mesh, max_N=self.coll_max_N,
                                     max_refinements=2)

    def solve_fixed_period(self, field_at, predictor, T: float, I_guess: float):
        """Corrector at frozen period T; returns (cycle, I)."""
        if self.name == "hb":
            seed = replace(predictor.to_fourier(self.hb_K), period=T)
            return hb.solve_hb_fixed_period(seed, I_guess, field_at, self._ops,
                                            tol=NEWTON_TOL,
                                            max_iter=NEWTON_MAX_ITER)
        return collocation.solve_bvp_fixed_period(
            field_at, replace(predictor, period=T), I_guess)


SOLVER_ERRORS = (NoConvergence, SingularJacobian, MeshTooCoarse, DegenerateCycle)


def make_point(I: float, cyc, fld: VectorField,
               spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS) -> BranchPoint:
    vmin, vmax = v_extrema(cyc)
    spec = floquet.spectrum(cyc, fld, nsteps=spectrum_steps)
    return BranchPoint(I=float(I), cycle=cyc, period=float(cyc.period),
                       v_min=vmin, v_max=vmax, spectrum=spec)


def continue_branch(start: BranchPoint, direction: int,
                    I_limits: Tuple[float, float],
                    step_ctrl: Optional[StepControl] = None,
                    field_at: Optional[Callable[[float], VectorField]] = None,
                    adapter: Optional[_SolverAdapter] = None,
                    spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS,
                    max_points: int = 1000) -> Branch:
    """Follow a branch of cycles from start in the given I direction.

    One step loop drives the branch by I or, at frozen period, by T: it
    predicts from the previous cycle, corrects, vets the point, then halves
    the step of the driving parameter on failure or doubles it after
    GROW_AFTER successes.  When the I-step collapses below SWITCH_STEP the
    period takes over (turning-point rounding); I takes over again once
    |dI/dT| exceeds REVERT_SLOPE.  Terminates on the I_limits box, on
    amplitude collapse (recorded as a Hopf endpoint event), on min-step
    exhaustion, or after max_points.
    """
    if field_at is None:
        field_at = hh_family()
    ctrl = step_ctrl or StepControl()
    if adapter is None:
        adapter = _SolverAdapter("hb")
    if not np.isfinite(start.I) or start.period <= 0 or start.v_min >= start.v_max:
        raise StartInvalid("start point is not a converged nondegenerate cycle")

    lo, hi = min(I_limits), max(I_limits)
    points = [start]
    events: List[BifurcationEvent] = []
    mode_history = [(0, "I")]
    mode = "I"
    step = {"I": ctrl.initial, "T": 0.0}
    max_step = {"I": ctrl.max_step, "T": np.inf}   # T steps grow uncapped
    successes = 0
    steps_in_mode = 0
    cur_dir = 1.0 if direction > 0 else -1.0  # flips when a fold is rounded

    def accept(I_new, cyc) -> str:
        """Vet and append the corrected point: 'ok' | 'stop' | 'reject'.

        A sudden amplitude collapse means Newton slid onto the equilibrium
        (the predictor overshot a fold), not a Hopf endpoint; such steps are
        rejected, as are steps that move the orbit more than the acceptance
        bound.
        """
        cur = points[-1]
        vmin, vmax = v_extrema(cyc)
        amp = vmax - vmin
        T = float(cyc.period)
        if amp < ctrl.collapse_amplitude and \
                cur.amplitude > 4.0 * ctrl.collapse_amplitude:
            return "reject"
        jump = abs(T - cur.period) + abs(vmin - cur.v_min) + abs(vmax - cur.v_max)
        if jump > ctrl.max_orbit_jump:
            return "reject"
        pt = make_point(I_new, cyc, field_at(I_new), spectrum_steps)
        points.append(pt)
        if pt.amplitude < ctrl.collapse_amplitude:
            # near a Hopf point the amplitude obeys a square-root law, so
            # extrapolate amplitude^2 -> 0 from the last healthy points
            I_star = pt.I
            healthy = [q for q in points[-3:] if
                       q.amplitude >= ctrl.collapse_amplitude]
            if len(healthy) >= 2:
                a, b = healthy[-2], healthy[-1]
                denom = a.amplitude ** 2 - b.amplitude ** 2
                if denom != 0.0:
                    I_star = a.I + (b.I - a.I) * a.amplitude ** 2 / denom
            events.append(BifurcationEvent(
                kind="hopf", I_star=float(I_star),
                evidence={"amplitude": pt.amplitude,
                          "omega": 2.0 * np.pi / pt.period}))
            return "stop"
        return "ok"

    while len(points) < max_points:
        cur = points[-1]
        try:
            if mode == "I":
                I_new = float(np.clip(cur.I + cur_dir * step["I"], lo, hi))
                if I_new == cur.I:
                    break  # parked on the I-limits box
                cyc = adapter.solve(field_at(I_new), cur.cycle)
            else:
                # walk in T along the last period change, recover I
                T_dir = 1.0 if cur.period >= points[-2].period else -1.0
                cyc, I_new = adapter.solve_fixed_period(
                    field_at, cur.cycle, cur.period + T_dir * step["T"], cur.I)
        except SOLVER_ERRORS as exc:
            failure, verdict = exc, "reject"
        else:
            if not (lo <= I_new <= hi):
                break  # a frozen-period solve left the I-limits box
            failure, verdict = None, accept(I_new, cyc)
        if verdict == "stop":
            break
        if verdict == "reject":
            successes = 0
            step[mode] *= 0.5
            if mode == "I" and step["I"] < SWITCH_STEP and len(points) >= 2:
                # the I-step collapsed at a turning point: freeze the period
                mode = "T"
                steps_in_mode = 0
                step["T"] = max(abs(cur.period - points[-2].period), 1e-6)
                mode_history.append((len(points) - 1, "T"))
            elif step[mode] < ctrl.min_step:
                raise (type(failure) if failure else NoConvergence)(
                    f"{mode}-mode continuation stalled at I={cur.I:.9g}, T="
                    f"{cur.period:.9g}: {failure or 'steps kept being rejected'}")
            continue
        successes += 1
        steps_in_mode += 1
        if successes >= GROW_AFTER:
            step[mode] = min(2.0 * step[mode], max_step[mode])
            successes = 0
        dI = points[-1].I - points[-2].I
        if mode == "T" and steps_in_mode >= 3 and abs(dI) / max(
                abs(points[-1].period - points[-2].period), 1e-300) > REVERT_SLOPE:
            # the branch has straightened out: I drives it again, in the
            # direction it now moves (it flips around a fold)
            mode = "I"
            successes = 0
            step["I"] = max(min(2.0 * abs(dI), ctrl.max_step),
                            10.0 * ctrl.min_step)
            if dI != 0.0:
                cur_dir = 1.0 if dI > 0 else -1.0
            mode_history.append((len(points) - 1, "I"))

    return Branch(points=points, events=events, solver=adapter.name,
                  mode_history=mode_history)


def turning_indices(Is: Sequence[float]) -> List[int]:
    """Indices where the currents Is turn back: the points nearest a fold."""
    return [j for j in range(1, len(Is) - 1)
            if (Is[j] - Is[j - 1]) * (Is[j + 1] - Is[j]) < 0]


def fold_bracket(branch: Branch, j: int) -> Tuple[int, int]:
    """Index window of the fold search around the turning index j."""
    return max(j - 4, 0), min(j + 4, len(branch.points) - 1)


def pd_bracket(branch: Branch) -> Optional[Tuple[int, int]]:
    """Index window of the period-doubling search (None: the whole branch).

    The doubling sits just below the upper knee; a second -1 crossing
    exists further down the same segment where the multiplier pair splits
    after colliding, so search only the quarter of the segment between the
    first two turning points that is adjacent to the knee.
    """
    ext = turning_indices([pt.I for pt in branch.points])
    if len(ext) < 2:
        return None
    return (ext[0] + 3 * (ext[1] - ext[0]) // 4, ext[1])


def _bracket_slice(branch: Branch, bracket) -> List[int]:
    """Branch indices in the index window bracket (all of them for None).

    Indices, not currents, select the window: I is double-valued at a fold.
    """
    n = len(branch.points)
    a, b = bracket or (0, n - 1)
    return list(range(min(a, b), min(max(a, b) + 1, n)))


def _locator_defaults(branch: Branch, field_at, adapter):
    """HH family and the branch's own corrector."""
    return field_at or hh_family(), adapter or _SolverAdapter(branch.solver)


def locate_fold(branch: Branch, bracket=None,
                field_at: Optional[Callable[[float], VectorField]] = None,
                adapter: Optional[_SolverAdapter] = None) -> BifurcationEvent:
    """Pin down a turning point as the extremum of I along the branch.

    T is monotone through the fold, so repeated frozen-period solves give
    I(T) pointwise; a quadratic fit through the three samples nearest the
    extremum is iterated until the vertex stops moving by more than FOLD_TOL.
    The certificate is the nontrivial multiplier closest to +1 there.
    """
    field_at, adapter = _locator_defaults(branch, field_at, adapter)
    ids = _bracket_slice(branch, bracket)
    if len(ids) < 3:
        raise NoExtremum("bracket holds fewer than three branch points")
    ext = turning_indices([branch.points[i].I for i in ids])
    if not ext:
        raise NoExtremum("no interior extremum of I in the bracket")
    k = ext[-1]

    samples = [(branch.points[ids[j]].period, branch.points[ids[j]].I,
                branch.points[ids[j]].cycle) for j in (k - 1, k, k + 1)]
    I_prev = None
    for _ in range(FOLD_MAX_ITER):
        samples.sort(key=lambda s: s[0])
        Ts = np.array([s[0] for s in samples])
        Iv = np.array([s[1] for s in samples])
        c = np.polyfit(Ts, Iv, 2)
        if c[0] == 0.0:
            raise NoExtremum("branch is locally linear in T")
        T_star = -c[1] / (2.0 * c[0])
        if not (Ts.min() - (Ts.max() - Ts.min()) <= T_star
                <= Ts.max() + (Ts.max() - Ts.min())):
            raise NoExtremum("quadratic vertex escaped the sample window")
        seed = min(samples, key=lambda s: abs(s[0] - T_star))
        cyc, I_star = adapter.solve_fixed_period(field_at, seed[2], T_star,
                                                 seed[1])
        if I_prev is not None and abs(I_star - I_prev) < FOLD_TOL:
            break
        I_prev = I_star
        # replace the sample farthest from the vertex
        far = int(np.argmax(np.abs(Ts - T_star)))
        samples[far] = (T_star, I_star, cyc)
    spec = floquet.spectrum(cyc, field_at(I_star))
    mu_fold = spec.multipliers[int(np.argmin(np.abs(spec.multipliers - 1.0)))]
    return BifurcationEvent(
        kind="fold", I_star=float(I_star),
        evidence={"period": float(cyc.period),
                  "multiplier": complex(mu_fold),
                  "trivial_error": spec.trivial_error,
                  "flags": sorted(spec.flags)})


def locate_pd(branch: Branch, bracket,
              field_at: Optional[Callable[[float], VectorField]] = None,
              adapter: Optional[_SolverAdapter] = None,
              spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS) -> BifurcationEvent:
    """Locate a period-doubling point by tracking a multiplier through -1.

    The bracketed branch points supply the initial sign change; refinement
    re-solves the cycle at trial currents (seeded from the nearest accepted
    point) and re-evaluates the spectrum.
    """
    field_at, adapter = _locator_defaults(branch, field_at, adapter)
    ids = _bracket_slice(branch, bracket)
    if len(ids) < 2:
        raise NoSignChange("bracket holds fewer than two branch points")
    ids.sort(key=lambda i: branch.points[i].I)
    pts = [(branch.points[i].I, branch.points[i].spectrum) for i in ids]
    evidence_rows = []

    def spectrum_at(I):
        near = min((branch.points[i] for i in ids), key=lambda p: abs(p.I - I))
        cyc = adapter.solve(field_at(I), near.cycle)
        spec = floquet.spectrum(cyc, field_at(I), nsteps=spectrum_steps)
        evidence_rows.append(
            {"I": float(I),
             "multipliers": [complex(m) for m in spec.all_multipliers()]})
        return spec

    I_star = floquet.detect_crossing(pts, spectrum_at, tol=PD_TOL)
    return BifurcationEvent(
        kind="period_doubling", I_star=float(I_star),
        evidence={"rows": evidence_rows,
                  "bracket": [float(branch.points[ids[0]].I),
                              float(branch.points[ids[-1]].I)]})


def hopf_branch_seed(I_star: float, omega0: float, amplitude: float,
                     p: model.HHParams = model.DEFAULT_PARAMS) -> FourierCycle:
    """Near-sinusoidal K=2 seed for solve_hb just inside a Hopf point.

    The mean is the equilibrium and the first harmonic runs along the
    critical eigenvector, phased so the sine part of V vanishes (matching
    the harmonic-balance anchor) and scaled so the V half-amplitude equals
    the requested amplitude in mV.
    """
    eq = model.find_equilibrium(I_star, p)
    J = model.jacobian(eq, p, I_star)
    lam, vecs = np.linalg.eig(J)
    cand = np.where(lam.imag > 0)[0]
    if len(cand) == 0:
        raise ValueError("no complex eigenpair at the seed point")
    k = cand[int(np.argmin(np.abs(lam[cand] - 1j * omega0)))]
    v = vecs[:, k]
    # rotate so the V component is real positive, then scale it to 1
    v = v * np.conj(v[0]) / abs(v[0])
    v = v / abs(v[0])
    coeffs = np.zeros((len(eq), 5))
    coeffs[:, 0] = eq
    coeffs[:, 1] = amplitude * v.real     # cos theta
    coeffs[:, 2] = -amplitude * v.imag    # sin theta
    return FourierCycle(K=2, period=2.0 * np.pi / omega0, coeffs=coeffs)


@dataclass
class Diagram:
    """Merged bifurcation diagram: per-point records plus the event list."""

    records: List[dict]                 # branch_id, I, stability, v_min, v_max, period
    events: List[BifurcationEvent]


def assemble_diagram(branches: Sequence[Branch],
                     extra_events: Sequence[BifurcationEvent] = ()) -> Diagram:
    """Merge branches into one diagram, deduplicating overlap.

    Points from different branches that agree in I to 1e-9 and in orbit
    signature (period, V extrema) to 1e-6 are kept once.  Events of the same
    kind within 1e-6 in I are merged.
    """
    records: List[dict] = []
    seen: List[Tuple[float, float, float, float]] = []
    for bid, br in enumerate(branches):
        for pt in br.points:
            sig = (pt.I, pt.period, pt.v_min, pt.v_max)
            dup = any(abs(sig[0] - s[0]) < 1e-9
                      and max(abs(sig[1] - s[1]), abs(sig[2] - s[2]),
                              abs(sig[3] - s[3])) < 1e-6
                      for s in seen)
            if dup:
                continue
            seen.append(sig)
            records.append({"branch_id": bid, "I": pt.I,
                            "stability": pt.spectrum.stability,
                            "v_min": pt.v_min, "v_max": pt.v_max,
                            "period": pt.period})
    records.sort(key=lambda r: (r["branch_id"], r["I"]))

    events: List[BifurcationEvent] = []
    for ev in [e for br in branches for e in br.events] + list(extra_events):
        if any(e.kind == ev.kind and abs(e.I_star - ev.I_star) < 1e-6
               for e in events):
            continue
        events.append(ev)
    events.sort(key=lambda e: e.I_star)
    return Diagram(records=records, events=events)
