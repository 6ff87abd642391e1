"""Branch following in the stimulus current I with turning-point handling.

Secant pseudo-arclength continuation in the (I, T) plane: each step moves
along the secant through the last two points and corrects on the line
through the predicted point orthogonal to it, with (cycle, T, I) unknown,
so a turning point in I is an ordinary step.  Folds are then pinned down as
extrema of I(T) along the branch, and period-doubling points by tracking a
multiplier through -1 along T; both searches take points that are monotone
in T, the search parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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

    # one step loop, so one entry; the benchmark's tracing still reads it
    mode_history = ((0, "I"),)


@dataclass
class StepControl:
    initial: float = 0.25              # step bounds, in the (I, T) norm
    max_step: float = 2.0
    min_step: float = 1e-9
    collapse_amplitude: float = 0.75   # mV amplitude marking a Hopf endpoint
    max_orbit_jump: float = 30.0       # |dT| + |dv_min| + |dv_max| acceptance bound


GROW_AFTER = 3        # accepted steps in a row before the step doubles
NEWTON_TOL = 1e-10    # harmonic-balance corrector tolerance and budget
NEWTON_MAX_ITER = 12
COLL_REFINEMENTS = 2  # mesh refinements per collocation corrector solve
# locate_fold stops when the vertex period moves less (ms).  I(T) is flat at
# the fold, so a stop on the vertex I would fire with T* still ~1e-3 off;
# below ~5e-6 the vertex of the flat bottom fold is lost in the I roundoff
FOLD_TOL = 1e-5
FOLD_MAX_ITER = 30
# locate_pd searches in T (ms); the crossing multiplier moves by ~15 per ms
# near the knee, so this resolves it to ~1.5e-5
PD_TOL = 1e-6


def hh_family(p: model.HHParams = model.DEFAULT_PARAMS) -> Callable[[float], VectorField]:
    """Factory I -> VectorField for the Hodgkin-Huxley model."""
    return lambda I: hh_field(p, I)


def v_extrema(cyc) -> Tuple[float, float]:
    """Extrema of the first state component over one period."""
    return check_orbit(cyc).v_extrema()


class _SolverAdapter:
    """The bordered corrector of either solver, behind one call."""

    def __init__(self, name: str, hb_K: int = 40, hb_oversample: int = hb.DEFAULT_OVERSAMPLE,
                 coll_tol: float = 1e-6, coll_max_N: int = 2000):
        if name not in ("hb", "collocation"):
            raise ValueError(f"unknown solver {name!r}")
        self.name = name
        self.hb_K = hb_K
        self.coll_tol = coll_tol
        self.coll_max_N = coll_max_N
        self._ops = hb.build_operators(hb_K, hb_oversample) if name == "hb" else None

    def correct(self, field_at, predictor: PeriodicOrbit, T: float, I: float,
                row):
        """Solve for (cycle, T, I) under a_T*T + a_I*I = b, row = (a_T, a_I, b),
        from the predictor re-timed to T and from I; returns (cycle, I).
        The collocation corrector starts on the predictor's own mesh."""
        if self.name == "hb":
            seed = replace(predictor.to_fourier(self.hb_K), period=T)
            return hb.solve_hb_bordered(seed, I, field_at, self._ops, row,
                                        NEWTON_TOL, NEWTON_MAX_ITER)
        return collocation.solve_bvp_bordered(
            field_at, replace(predictor, period=T), I, row, self.coll_tol,
            self.coll_max_N, COLL_REFINEMENTS, predictor.mesh)


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
    """Follow a branch of cycles from start, first in the given I direction.

    One step loop: predict h along the secant of the last two points in the
    (I, T) plane (along I at the start), correct on the line through the
    predicted point orthogonal to the secant, vet the point, then halve h
    on failure or double it after GROW_AFTER successes; h is measured in
    the (I, T) Euclidean norm.  A step that would leave the I_limits box is
    cut short to land on its edge, with I pinned there.  Terminates on the
    box edge, on amplitude collapse (recorded as a Hopf endpoint event), on
    min-step exhaustion, or after max_points.
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
    h = ctrl.initial
    successes = 0
    tI, tT = (1.0 if direction > 0 else -1.0), 0.0   # unit step direction

    def accept(I_new, cyc) -> str:
        """Vet and append the corrected point: 'ok' | 'stop' | 'reject'.

        A sudden amplitude collapse means Newton slid onto the equilibrium
        (the predictor overshot a fold), not a Hopf endpoint; such steps are
        rejected, as are steps that move the orbit more than the acceptance
        bound or leave the I_limits box.
        """
        cur = points[-1]
        vmin, vmax = v_extrema(cyc)
        amp = vmax - vmin
        T = float(cyc.period)
        if not lo <= I_new <= hi:
            return "reject"
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
        I_pred, T_pred = cur.I + h * tI, cur.period + h * tT
        pinned = not lo <= I_pred <= hi
        if pinned:
            edge = hi if I_pred > hi else lo
            if cur.I == edge:
                break  # parked on the I-limits box
            T_pred = cur.period + (edge - cur.I) / tI * tT
            I_pred, row = edge, (0.0, 1.0, edge)
        else:
            row = (tT, tI, tT * T_pred + tI * I_pred)
        try:
            cyc, I_new = adapter.correct(field_at, cur.cycle, T_pred, I_pred,
                                         row)
        except SOLVER_ERRORS as exc:
            failure, verdict = exc, "reject"
        else:
            # a pinned I is exact: the solver's roundoff must not leave the box
            failure, verdict = None, accept(I_pred if pinned else I_new, cyc)
        if verdict == "stop":
            break
        if verdict == "reject":
            successes = 0
            h *= 0.5
            if h < ctrl.min_step:
                raise (type(failure) if failure else NoConvergence)(
                    f"continuation stalled at I={cur.I:.9g}, T="
                    f"{cur.period:.9g}: {failure or 'steps kept being rejected'}")
            continue
        successes += 1
        if successes >= GROW_AFTER:
            h = min(2.0 * h, ctrl.max_step)
            successes = 0
        # the secant of the last two points
        dI, dT = points[-1].I - cur.I, points[-1].period - cur.period
        tI, tT = dI / np.hypot(dI, dT), dT / np.hypot(dI, dT)

    return Branch(points=points, events=events, solver=adapter.name)


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
    # one point past the turn: the doubling can lie between the last point
    # before the fold and the fold itself
    return (ext[0] + 3 * (ext[1] - ext[0]) // 4, ext[1] + 1)


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

    T is monotone through the fold, so repeated T-pinned solves give I(T)
    pointwise; a quadratic fit through the three samples nearest the
    extremum is iterated until the vertex period stops moving by more than
    FOLD_TOL, or lands on the period of a sample it already holds.  The
    certificate is the nontrivial multiplier closest to +1 there.
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
    T_prev = None
    for _ in range(FOLD_MAX_ITER):
        samples.sort(key=lambda s: s[0])
        Ts = np.array([s[0] for s in samples])
        Iv = np.array([s[1] for s in samples])
        # centred: the spread of T shrinks to ~FOLD_TOL at T of 10-20 ms
        T_mid = Ts.mean()
        c = np.polyfit(Ts - T_mid, Iv, 2)
        T_star = T_mid - c[1] / (2.0 * c[0]) if c[0] != 0.0 else np.nan
        spread = Ts.max() - Ts.min()
        if not Ts.min() - spread <= T_star <= Ts.max() + spread:
            if T_prev is None:
                raise NoExtremum("no quadratic vertex near the turning point")
            break   # I is flat to roundoff here: keep the last vertex
        seed = min(samples, key=lambda s: abs(s[0] - T_star))
        if abs(seed[0] - T_star) <= 4.0 * np.spacing(T_star):
            # the samples already hold this vertex: a solve there would
            # only duplicate it and leave the next fit rank-deficient
            _, I_star, cyc = seed
            break
        cyc, I_star = adapter.correct(field_at, seed[2], T_star, seed[1],
                                      (1.0, 0.0, T_star))
        if T_prev is not None and abs(T_star - T_prev) < FOLD_TOL:
            break
        T_prev = T_star
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

    The search parameter is T, monotone over the bracket even where it runs
    past a turning point in I.  The bracketed branch points supply the
    initial sign change; refinement re-solves the cycle at pinned trial
    periods (seeded from the nearest accepted point) and re-evaluates the
    spectrum.  I* comes from a last solve at the crossing period.
    """
    field_at, adapter = _locator_defaults(branch, field_at, adapter)
    ids = _bracket_slice(branch, bracket)
    if len(ids) < 2:
        raise NoSignChange("bracket holds fewer than two branch points")
    ids.sort(key=lambda i: branch.points[i].period)
    pts = [(branch.points[i].period, branch.points[i].spectrum) for i in ids]
    evidence_rows = []

    def solve_at(T):
        near = min((branch.points[i] for i in ids),
                   key=lambda p: abs(p.period - T))
        return adapter.correct(field_at, near.cycle, T, near.I, (1.0, 0.0, T))

    def spectrum_at(T):
        cyc, I = solve_at(T)
        spec = floquet.spectrum(cyc, field_at(I), nsteps=spectrum_steps)
        evidence_rows.append(
            {"I": float(I), "period": float(T),
             "multipliers": [complex(m) for m in spec.all_multipliers()]})
        return spec

    T_star = floquet.detect_crossing(pts, spectrum_at, tol=PD_TOL)
    _, I_star = solve_at(T_star)
    return BifurcationEvent(
        kind="period_doubling", I_star=float(I_star),
        evidence={"rows": evidence_rows, "period": float(T_star),
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
