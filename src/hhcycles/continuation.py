"""Branch following in the stimulus current I with turning-point handling.

Secant pseudo-arclength continuation in the (I, T) plane: each step moves
along the secant through the last two points and corrects on the line
through the predicted point orthogonal to it, with (cycle, T, I) unknown,
so a turning point in I is an ordinary step.  The harmonic-balance
corrector solves each point on a rung of harmonic counts, hb_K, hb_K/2,
... down to 2: one rung down after a point whose truncated series still
solves the hb_K system to the corrector tolerance, one rung up when a
rung's result does not (adaptive harmonic balance, Jaumouille, Sinou &
Petitjean, J. Sound Vib. 329, 2010).  So every point is an hb_K solution,
and one near a Hopf end, small and nearly sinusoidal, is solved on a small
Newton matrix.  Folds are then pinned down as
extrema of I(T) from the branch points around a turn in I, and
period-doubling points as sign changes of det(M + I) between neighbouring
branch points; both searches refine in T, the search parameter, from the
branch points that bracket the event.

A branch point's spectrum serves only its stability label and the sign of
det(M + I), so point_spectrum takes it at a quarter of the step count and
keeps it where the spectrum's own Richardson estimates certify both: every
nontrivial multiplier's estimated error is at most SETTLED_MARGIN of its
distance to the unit circle and to -1.  Any other point takes the full
count, as do the event searches: locate_fold's certificate, and the
period-doubling search, which takes its window's spectra again at the
full count before it compares signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import collocation, floquet, hb, model, newton, shooting
from .cycles import PeriodicOrbit, check_orbit
from .errors import (DegenerateCycle, HHCyclesError, MeshTooCoarse,
                     NoConvergence, NoExtremum, NoSignChange,
                     SingularJacobian, StartInvalid)
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


@dataclass(frozen=True)
class StepControl:
    initial: float = 0.25              # step bounds, in the (I, T) norm
    max_step: float = 2.0
    min_step: float = 1e-9
    collapse_amplitude: float = 0.75   # mV amplitude marking a Hopf endpoint
    max_orbit_jump: float = 30.0       # |dT| + |dv_min| + |dv_max| acceptance bound


GROW_AFTER = 3        # accepted steps in a row before the step doubles
# a step toward a Hopf end goes no further than where the square-root law
# puts this fraction of the collapse amplitude
HOPF_LANDING = 0.5
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
# diagram(): the cold start's current, the Hopf-seeded branch's step control
# (the stable-up branch takes longer steps) and each branch's point cap
DIAGRAM_SEED_CURRENT = 20.0
DIAGRAM_STEPS = StepControl(initial=0.05, max_step=0.25,
                            collapse_amplitude=0.4, max_orbit_jump=25.0)
DIAGRAM_MAX_POINTS = 400
# point_spectrum: a branch point's spectrum is taken at 1/SETTLED_FRACTION
# of the step count, and kept where every nontrivial multiplier's error
# estimate is within SETTLED_MARGIN of its distance to |mu| = 1 and to -1
SETTLED_FRACTION = 4
SETTLED_MARGIN = 0.1


def hh_family(p: model.HHParams = model.DEFAULT_PARAMS) -> Callable[[float], VectorField]:
    """Factory I -> VectorField for the Hodgkin-Huxley model."""
    return lambda I: hh_field(p, I)


class _SolverAdapter:
    """The bordered corrector of either solver, behind one call.

    The harmonic-balance corrector runs each correction on its
    predictor's rung among rungs, the harmonic counts hb_K, ceil(hb_K/2),
    ... down to 2 (hb_K for a predictor that is no series of a rung).  A
    result passes the certificate if, zero-padded to hb_K, its hb_K
    residual max-norm, phase row included, is below NEWTON_TOL: the
    stopping test of an hb_K solve.  One that fails is solved again one
    rung up, from itself padded to that rung (climbs counts these), so
    every cycle returned is a converged hb_K solution, whichever of
    continue_branch, locate_fold and locate_pd asked for it.  A result
    whose coefficients above the next rung down are all below NEWTON_TOL
    is returned truncated to that rung if the truncation passes the
    certificate too, so the next correction from it runs one rung lower.

    The corrector carries the LU factors of each correction's latest
    fresh Newton step into its next correction (newton.FactorCarry); a
    rung change drops them with the matrix size.  A new adapter starts
    with none, so its first correction is factored fresh.
    """

    def __init__(self, name: str, hb_K: int = 40, coll_tol: float = 1e-6,
                 coll_max_N: int = 2000):
        if name not in ("hb", "collocation"):
            raise ValueError(f"unknown solver {name!r}")
        self.name = name
        self.hb_K = hb_K
        self.coll_tol = coll_tol
        self.coll_max_N = coll_max_N
        self.rungs = [hb_K]
        while self.rungs[-1] > 2:
            self.rungs.append(-(-self.rungs[-1] // 2))
        self._ops: Dict[int, hb.SpectralOperators] = {}
        if name == "hb":
            self.ops(hb_K)
        self.carry = newton.FactorCarry()
        self.climbs = 0

    def ops(self, K: int) -> hb.SpectralOperators:
        """The harmonic-balance operators of K harmonics, made on first use."""
        if K not in self._ops:
            self._ops[K] = hb.build_operators(K)
        return self._ops[K]

    def counts(self) -> tuple:
        """carry.counts(), then the one-rung-up re-solves."""
        return self.carry.counts() + (self.climbs,)

    def certified(self, cyc: FourierCycle, fld: VectorField) -> bool:
        """Whether cyc, zero-padded to hb_K, meets NEWTON_TOL on the hb_K
        harmonic-balance system of fld, phase row included."""
        res = hb.hb_residual(cyc.to_fourier(self.hb_K), fld,
                             self.ops(self.hb_K))
        return np.linalg.norm(res, np.inf) < NEWTON_TOL

    def correct(self, field_at, predictor: PeriodicOrbit, T: float, I: float,
                row):
        """Solve for (cycle, T, I) under a_T*T + a_I*I = b, row = (a_T, a_I, b),
        from the predictor re-timed to T and from I; returns (cycle, I).
        The collocation corrector starts on the predictor's own mesh."""
        if self.name != "hb":
            return collocation.solve_bvp_bordered(
                field_at, replace(predictor, period=T), I, row,
                self.coll_tol, self.coll_max_N, COLL_REFINEMENTS,
                predictor.mesh)
        on_rung = isinstance(predictor, FourierCycle) \
            and predictor.K in self.rungs
        r = self.rungs.index(predictor.K) if on_rung else 0
        cyc = replace(predictor.to_fourier(self.rungs[r]), period=T)
        while True:
            cyc, I = hb.solve_hb_bordered(
                cyc, I, field_at, self.ops(self.rungs[r]), row, NEWTON_TOL,
                NEWTON_MAX_ITER, self.carry)
            if r == 0 or self.certified(cyc, field_at(I)):
                break
            r -= 1
            self.climbs += 1
            cyc = cyc.to_fourier(self.rungs[r])
        if r + 1 < len(self.rungs):
            lower = self.rungs[r + 1]
            if np.max(np.abs(cyc.coeffs[:, 2 * lower + 1:])) < NEWTON_TOL:
                low = cyc.to_fourier(lower)
                if self.certified(low, field_at(I)):
                    cyc = low
        return cyc, I


SOLVER_ERRORS = (NoConvergence, SingularJacobian, MeshTooCoarse, DegenerateCycle)


def point_spectrum(cyc: PeriodicOrbit, fld: VectorField,
                   spectrum_steps: int) -> floquet.FloquetSpectrum:
    """The spectrum of a branch point: at 1/SETTLED_FRACTION of
    spectrum_steps, an even count per subinterval (992 of 4000, 224 of
    1000), if its error estimates certify its stability label and the
    sign of det(M + I), each nontrivial multiplier's at most
    SETTLED_MARGIN of its distance to the unit circle and to -1.  Else, or
    for a sampled cycle (no estimates) or a reduced count below two steps
    per subinterval, at spectrum_steps."""
    per_chunk = 2 * (spectrum_steps // floquet.SPECTRUM_CHUNKS
                     // (2 * SETTLED_FRACTION))
    if cyc.dense and per_chunk >= 2:
        spec = floquet.spectrum(
            cyc, fld, nsteps=floquet.SPECTRUM_CHUNKS * per_chunk,
            estimate=True)
        err, mu = spec.multiplier_errors, spec.multipliers
        room = np.minimum(np.abs(np.abs(mu) - 1.0), np.abs(mu + 1.0))
        if err is not None and np.all(err <= SETTLED_MARGIN * room):
            return spec
    return floquet.spectrum(cyc, fld, nsteps=spectrum_steps)


def make_point(I: float, cyc, fld: VectorField,
               spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS) -> BranchPoint:
    vmin, vmax = check_orbit(cyc).v_extrema()
    return BranchPoint(I=float(I), cycle=cyc, period=float(cyc.period),
                       v_min=vmin, v_max=vmax,
                       spectrum=point_spectrum(cyc, fld, spectrum_steps))


def _hopf_end(a: BranchPoint, b: BranchPoint) -> Optional[float]:
    """Signed I-distance from b to where amplitude^2 vanishes on the line
    through a and b, or None unless the amplitude falls from a to b.

    Near a Hopf point amplitude^2 is linear in I (the square-root law).
    """
    a2, b2 = a.amplitude ** 2, b.amplitude ** 2
    if not a2 > b2:
        return None
    return (b.I - a.I) * b2 / (a2 - b2)


def _secant_cycle(prev: BranchPoint, cur: BranchPoint,
                  reach: float) -> PeriodicOrbit:
    """The corrector's guess reach secant lengths beyond cur: the Fourier
    coefficients extrapolated along the secant from prev when both points
    are series, else cur's cycle.  prev is taken at cur's K first, padded
    with zeros or truncated, so the guess is a series of cur's K.

    Every harmonic-balance point sits on one phase anchor (B1 of V = 0,
    A1 >= 0), so the coefficients of successive points lie on one smooth
    curve, and a harmonic one rung leaves out is below the corrector's
    tolerance; two collocation cycles need not share a mesh.
    """
    a, b = prev.cycle, cur.cycle
    if isinstance(a, FourierCycle) and isinstance(b, FourierCycle):
        a = a.to_fourier(b.K)
        return replace(b, coeffs=b.coeffs + reach * (b.coeffs - a.coeffs))
    return b


def continue_branch(start: BranchPoint, direction: int,
                    I_limits: Tuple[float, float],
                    field_at: Callable[[float], VectorField],
                    adapter: _SolverAdapter,
                    step_ctrl: Optional[StepControl] = None,
                    spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS,
                    max_points: int = 1000) -> Branch:
    """Follow a branch of cycles from start, first in the given I direction,
    with the corrector adapter on the field family field_at (I -> field).

    One step loop: predict h along the secant of the last two points in the
    (I, T) plane (along I at the start), correct on the line through the
    predicted point orthogonal to the secant, vet the point, then halve h
    on failure or double it after GROW_AFTER successes; h is measured in
    the (I, T) Euclidean norm.  A step that would leave the I_limits box is
    cut short to land on its edge, with I pinned there.  Terminates on the
    box edge, on amplitude collapse (recorded as a Hopf endpoint event), on
    min-step exhaustion, or after max_points.

    The cycle is predicted along the same secant: from the second step on,
    a harmonic-balance corrector starts from the coefficients extrapolated
    by the step taken over the (I, T) length of the secant (_secant_cycle);
    the first step starts from the start cycle.

    While the amplitude falls, the square-root law through the last two
    points predicts the Hopf end, and h is capped so that the step moves I
    no further than where the law puts HOPF_LANDING times the collapse
    amplitude: the branch lands on the endpoint instead of stepping past it
    onto the equilibrium.  The endpoint event extrapolates the same law
    through the last two points, the collapsed one included.  A landing
    step is exempt from the sudden-collapse rejection of accept().
    """
    ctrl = step_ctrl or StepControl()
    if not np.isfinite(start.I) or start.period <= 0 or start.v_min >= start.v_max:
        raise StartInvalid("start point is not a converged nondegenerate cycle")

    lo, hi = min(I_limits), max(I_limits)
    points = [start]
    events: List[BifurcationEvent] = []
    h = ctrl.initial
    successes = 0
    tI, tT = (1.0 if direction > 0 else -1.0), 0.0   # unit step direction
    secant = 0.0   # (I, T) length of the secant; 0 before the first step

    def accept(I_new, cyc, landing) -> str:
        """Vet and append the corrected point: 'ok' | 'stop' | 'reject'.

        A sudden amplitude collapse means Newton slid onto the equilibrium
        (the predictor overshot a fold), not a Hopf endpoint; such steps are
        rejected, unless the Hopf-end cap set the step (landing), which
        aims below the collapse amplitude on purpose.  Steps that move the
        orbit more than the acceptance bound or leave the I_limits box are
        rejected too.
        """
        cur = points[-1]
        vmin, vmax = cyc.v_extrema()
        amp = vmax - vmin
        T = float(cyc.period)
        if not lo <= I_new <= hi:
            return "reject"
        if amp < ctrl.collapse_amplitude and not landing and \
                cur.amplitude > 4.0 * ctrl.collapse_amplitude:
            return "reject"
        jump = abs(T - cur.period) + abs(vmin - cur.v_min) + abs(vmax - cur.v_max)
        if jump > ctrl.max_orbit_jump:
            return "reject"
        pt = BranchPoint(I=float(I_new), cycle=cyc, period=T, v_min=vmin,
                         v_max=vmax, spectrum=point_spectrum(
                             cyc, field_at(I_new), spectrum_steps))
        points.append(pt)
        if pt.amplitude < ctrl.collapse_amplitude:
            d = _hopf_end(points[-2], pt)
            I_star = pt.I if d is None else pt.I + d
            events.append(BifurcationEvent(
                kind="hopf", I_star=float(I_star),
                evidence={"amplitude": pt.amplitude,
                          "omega": 2.0 * np.pi / pt.period}))
            return "stop"
        return "ok"

    while len(points) < max_points:
        cur = points[-1]
        d = _hopf_end(points[-2], cur) if len(points) >= 2 else None
        landing = False
        if d is not None and tI != 0.0:
            land = (HOPF_LANDING * ctrl.collapse_amplitude / cur.amplitude) ** 2
            cap = abs(d) * (1.0 - land) / abs(tI)
            landing = cap <= h
            h = min(h, cap)
        s = h   # the length taken along the secant
        I_pred, T_pred = cur.I + s * tI, cur.period + s * tT
        pinned = not lo <= I_pred <= hi
        if pinned:
            edge = hi if I_pred > hi else lo
            if cur.I == edge:
                break  # parked on the I-limits box
            s = (edge - cur.I) / tI
            T_pred = cur.period + s * tT
            I_pred, row = edge, (0.0, 1.0, edge)
        else:
            row = (tT, tI, tT * T_pred + tI * I_pred)
        guess = (_secant_cycle(points[-2], cur, s / secant) if secant
                 else cur.cycle)
        try:
            cyc, I_new = adapter.correct(field_at, guess, T_pred, I_pred, row)
        except SOLVER_ERRORS as exc:
            failure, verdict = exc, "reject"
        else:
            # a pinned I is exact: the solver's roundoff must not leave the box
            failure, verdict = None, accept(I_pred if pinned else I_new, cyc,
                                           landing)
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
        secant = float(np.hypot(dI, dT))
        tI, tT = dI / secant, dT / secant

    return Branch(points=points, events=events, solver=adapter.name)


def turning_indices(Is: Sequence[float]) -> List[int]:
    """Indices where the currents Is turn back: the points nearest a fold."""
    return [j for j in range(1, len(Is) - 1)
            if (Is[j] - Is[j - 1]) * (Is[j + 1] - Is[j]) < 0]


def pd_bracket(branch: Branch) -> range:
    """Branch indices of the period-doubling search, in branch order; every
    index when I turns back fewer than twice along the branch.

    The doubling sits just below the upper knee; a second -1 crossing
    exists further down the same segment where the multiplier pair splits
    after colliding, so search only the quarter of the segment between the
    first two turning points that is adjacent to the knee.
    """
    ext = turning_indices([pt.I for pt in branch.points])
    if len(ext) < 2:
        return range(len(branch.points))
    # one point past the turn: the doubling can lie between the last point
    # before the fold and the fold itself
    return range(ext[0] + 3 * (ext[1] - ext[0]) // 4, ext[1] + 2)


def locate_fold(branch: Branch, j: int,
                field_at: Callable[[float], VectorField],
                adapter: _SolverAdapter,
                spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS) -> BifurcationEvent:
    """Pin down the turning point at branch index j, one of turning_indices,
    as the extremum of I along the branch.

    T is monotone through the fold, so repeated T-pinned solves give I(T)
    pointwise; a quadratic fit through the samples, first the branch
    points j - 1, j and j + 1, then the three nearest the extremum, is
    iterated until the vertex period stops moving by more than FOLD_TOL,
    or lands on the period of a sample it already holds.  The certificate
    is the nontrivial multiplier closest to +1 there.  Raises NoExtremum
    unless I turns back at j.
    """
    if j not in turning_indices([pt.I for pt in branch.points]):
        raise NoExtremum(f"I does not turn back at branch point {j}")
    samples = [(pt.period, pt.I, pt.cycle)
               for pt in branch.points[j - 1:j + 2]]
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
    spec = floquet.spectrum(cyc, field_at(I_star), nsteps=spectrum_steps)
    mu_fold = spec.multipliers[int(np.argmin(np.abs(spec.multipliers - 1.0)))]
    return BifurcationEvent(
        kind="fold", I_star=float(I_star),
        evidence={"period": float(cyc.period),
                  "multiplier": complex(mu_fold),
                  "trivial_error": spec.trivial_error,
                  "flags": sorted(spec.flags)})


def locate_pd(branch: Branch, ids: Sequence[int],
              field_at: Callable[[float], VectorField],
              adapter: _SolverAdapter,
              spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS) -> BifurcationEvent:
    """Locate a period-doubling point, where a real multiplier crosses -1
    (floquet.detect_crossing), between two neighbours among the branch
    points ids, taken in branch order (pd_bracket).

    The search parameter is T, which moves one way between neighbouring
    branch points even where I turns back.  The points' spectra are read
    at spectrum_steps, taken again where point_spectrum kept a reduced
    count.  Refinement re-solves the cycle at pinned trial periods, each
    seeded from the nearer in T of the two branch points that bracket the
    sign change, and re-evaluates the spectrum.  I* comes from a last
    solve at the crossing period.  Fewer than two points raise
    NoSignChange before any spectrum is taken.
    """
    pts = [branch.points[i] for i in ids]
    if len(pts) < 2:
        raise NoSignChange("need at least two sampled spectra")
    full = floquet.taken_steps(spectrum_steps)
    samples = [(p.period, p.spectrum if p.spectrum.steps == full
                else floquet.spectrum(p.cycle, field_at(p.I),
                                      nsteps=spectrum_steps))
               for p in pts]
    evidence_rows = []

    def solve_at(T, a):
        near = min(pts[a], pts[a + 1], key=lambda p: abs(p.period - T))
        return adapter.correct(field_at, near.cycle, T, near.I, (1.0, 0.0, T))

    def spectrum_at(T, a):
        cyc, I = solve_at(T, a)
        spec = floquet.spectrum(cyc, field_at(I), nsteps=spectrum_steps)
        evidence_rows.append(
            {"I": float(I), "period": float(T),
             "multipliers": [complex(m) for m in spec.all_multipliers()]})
        return spec

    T_star, a = floquet.detect_crossing(samples, spectrum_at, tol=PD_TOL)
    _, I_star = solve_at(T_star, a)
    return BifurcationEvent(
        kind="period_doubling", I_star=float(I_star),
        evidence={"rows": evidence_rows, "period": float(T_star),
                  "bracket": [float(pts[0].I), float(pts[-1].I)]})


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
    """Merged bifurcation diagram: per-point records plus the event list,
    and for a diagram() run the branches it followed."""

    records: List[dict]                 # branch_id, I, stability, v_min, v_max, period
    events: List[BifurcationEvent]
    branches: Dict[str, Branch] = field(default_factory=dict)  # completed, by name
    status: Dict[str, str] = field(default_factory=dict)  # complete | failed: why
    misses: List[str] = field(default_factory=list)       # failed event searches
    # corrector work per branch, and for the event searches: corrections,
    # fresh factorizations, carried factors tried and kept, and
    # one-rung-up re-solves (_SolverAdapter.counts)
    work: Dict[str, Tuple[int, int, int, int, int]] = field(
        default_factory=dict)


def assemble_diagram(branches: Sequence[Branch],
                     extra_events: Sequence[BifurcationEvent] = ()) -> Diagram:
    """Merge branches into one diagram, deduplicating overlap.

    Points from different branches that agree in I to 1e-9 and in orbit
    signature (period, V extrema) to 1e-6 are kept once.  A branch's Hopf
    endpoint within the branch's last I-step of a Hopf event among
    extra_events (located on the equilibrium) is that event: it keeps the
    located I_star and gains the branch's estimate and amplitude as
    evidence.  Other events of the same kind within 1e-6 in I are merged.
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

    located = list(extra_events)
    ends: List[BifurcationEvent] = []
    for br in branches:
        pts = br.points
        reach = abs(pts[-1].I - pts[-2].I) if len(pts) > 1 else 0.0
        for ev in br.events:
            k = next((i for i, e in enumerate(located)
                      if e.kind == ev.kind == "hopf"
                      and abs(e.I_star - ev.I_star) <= reach), None)
            if k is None:
                ends.append(ev)
                continue
            located[k] = replace(located[k], evidence={
                **located[k].evidence, "branch_I_star": ev.I_star,
                "branch_amplitude": ev.evidence["amplitude"]})

    events: List[BifurcationEvent] = []
    for ev in ends + located:
        if any(e.kind == ev.kind and abs(e.I_star - ev.I_star) < 1e-6
               for e in events):
            continue
        events.append(ev)
    events.sort(key=lambda e: e.I_star)
    return Diagram(records=records, events=events)


def diagram(hopfs: Sequence[Tuple[float, float]], I_limits: Tuple[float, float],
            hb_K: int, p: model.HHParams = model.DEFAULT_PARAMS,
            spectrum_steps: int = floquet.DEFAULT_SPECTRUM_STEPS,
            note=lambda name, status: None) -> Diagram:
    """The hb_K-harmonic bifurcation diagram of the Hodgkin-Huxley model over
    I_limits, given the equilibrium's Hopf points (I*, omega), lowest first.

    In order: a cold start at DIAGRAM_SEED_CURRENT (clamped into I_limits);
    the "stable-up" branch from there; the "hopf-seeded" branch from just
    below the lowest Hopf point down through the folds and back up to the
    seed current, each branch of at most DIAGRAM_MAX_POINTS points;
    locate_fold at each of its turning points, then locate_pd.  A branch
    that fails is left out, its status saying why, and note(name, status)
    is called as each branch ends; a failed event search is listed in misses.
    All corrections share one adapter, so each but a branch's first may
    start from the factors of the one before, if it runs on the same rung
    (_SolverAdapter); work counts them per branch and for the searches.
    """
    fam = hh_family(p)
    lo, hi = I_limits
    ad = _SolverAdapter("hb", hb_K=hb_K)
    events = [BifurcationEvent(kind="hopf", I_star=I_star, evidence={
        "omega": omega, "source": "equilibrium eigenvalues"})
        for I_star, omega in hopfs]
    branches, status, misses, work = {}, {}, [], {}

    def count_work(name, before):
        work[name] = tuple(b - a for a, b in zip(before, ad.counts()))

    def point_at(I, guess):
        fld = fam(I)
        return make_point(I, hb.solve_hb(guess, fld, ad.ops(hb_K)), fld,
                          spectrum_steps)

    def follow(name, start, direction, limits, ctrl):
        before = ad.counts()
        ad.carry.again = None  # another branch's last factors are far off
        try:
            branches[name] = continue_branch(
                start(), direction, limits, step_ctrl=ctrl, adapter=ad,
                field_at=fam, spectrum_steps=spectrum_steps,
                max_points=DIAGRAM_MAX_POINTS)
            status[name] = "complete"
        except HHCyclesError as exc:
            status[name] = f"failed: {exc}"
        count_work(name, before)
        note(name, status[name])

    I_seed = min(max(DIAGRAM_SEED_CURRENT, lo), hi)
    stable = point_at(I_seed, shooting.cold_start(I_seed, p))
    # the stable branch is smooth up to its Hopf end: longer steps
    follow("stable-up", lambda: stable, +1, (I_seed, hi),
           replace(DIAGRAM_STEPS, initial=0.5, max_step=2.0))
    if hopfs:
        I0, omega = hopfs[0][0] - 0.02, hopfs[0][1]
        follow("hopf-seeded",
               lambda: point_at(I0, hopf_branch_seed(I0, omega, 1.0, p)),
               -1, (lo, I_seed), DIAGRAM_STEPS)

    # events on the hopf-seeded branch: folds at the I-extrema, then the
    # period-doubling crossing on the strongly unstable segment
    down = branches.get("hopf-seeded")
    if down is not None and len(down.points) > 4:
        before = ad.counts()
        Is = [pt.I for pt in down.points]
        for j in turning_indices(Is):
            try:
                events.append(locate_fold(down, j, field_at=fam, adapter=ad,
                                          spectrum_steps=spectrum_steps))
            except HHCyclesError as exc:
                misses.append(f"fold refinement near I={Is[j]:.6f} failed: "
                              f"{exc}")
        try:
            events.append(locate_pd(down, pd_bracket(down), field_at=fam,
                                    adapter=ad, spectrum_steps=spectrum_steps))
        except HHCyclesError as exc:
            misses.append(f"period-doubling search: {exc}")
        count_work("event searches", before)

    return replace(assemble_diagram(list(branches.values()), events),
                   branches=branches, status=status, misses=misses, work=work)
