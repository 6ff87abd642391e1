"""Single shooting for periodic orbits, and cycle construction from transients.

Shooting solves the 5-unknown system

    G(X0, T) = phi(X0, T) - X0 = 0
    <X0 - a, f(a)> = 0                (Poincare hyperplane at a = guess(t=0))

by damped Newton.  The residual runs the RK4 state pass alone and keeps
it.  Its states serve twice: the sensitivity dphi/dX0 is formed from them
by the variational products (integrate.variational_of_pass) only when
Newton takes a step there, so a converged or rejected point costs no
monodromy; and the pass at the converged point, taken at every
FLOW_STEPS // CYCLE_SAMPLES-th step, is the returned cycle, so no further
pass samples it.  It converges fast on stable cycles; for strongly
unstable cycles the forward flow amplifies roundoff and collocation /
harmonic balance must be used instead.

The guess of a cold start comes from settle_transient: an RK4 transient of
SETTLE_STEP = 0.025 ms steps that stops once its last spike intervals agree.
It reads each spike's crossing time off the cubic Hermite interpolant over
the RK4 step that brackets it (crossing_times), whose O(h^4) error lets the
intervals agree to SETTLE_RTOL at that step; the linear interpolant's
O(h^2) error held the step to 0.01 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate, model, newton
from .cycles import PeriodicOrbit
from .errors import NoOscillation, NonFinite
from .fields import VectorField, hh_field
from .hb import from_trajectory
from .integrate import Trajectory


@dataclass(frozen=True)
class Cycle(PeriodicOrbit):
    """A periodic orbit in time-domain form: one period of samples."""

    period: float
    samples: Trajectory

    dense = False

    @property
    def anchor_state(self) -> np.ndarray:
        """The first sample, where the period starts."""
        return self.samples.states[0]

    def evaluate_time(self, t):
        """Linear interpolation between the samples, wrapped to one period."""
        t = np.mod(np.asarray(t, dtype=float), self.period)
        times = self.samples.times - self.samples.times[0]
        states = self.samples.states
        return np.stack([np.interp(t, times, states[:, j])
                         for j in range(states.shape[1])], axis=-1)

    def v_extrema(self):
        V = self.samples.states[:, 0]
        return float(V.min()), float(V.max())

    def to_fourier(self, K: int):
        return from_trajectory(self.samples.states[:-1], self.period, K)

    def to_json(self) -> dict:
        return {"period": float(self.period),
                "samples_t": self.samples.times.tolist(),
                "samples": self.samples.states.tolist()}

    @classmethod
    def from_json(cls, doc: dict, field=None) -> "Cycle":
        return cls(period=float(doc["period"]),
                   samples=Trajectory(np.array(doc["samples_t"], dtype=float),
                                      np.array(doc["samples"], dtype=float)))


FLOW_STEPS = 2000       # RK4 steps of one coupled flow in the shooting residual
SHOOT_MAX_ITER = 30
SETTLE_STEP = 0.025     # ms, RK4 step of the settling transient; at
                        # 0.04 ms shoot takes one flow more
MIN_AMPLITUDE = 1.0     # mV, smallest late-time V swing taken as oscillation
SETTLE_BLOCK = 10.0     # ms, settle length between two checks of the stop rule
SETTLE_INTERVALS = 4    # crossing intervals that must agree to stop settling;
                        # the guess averages the last SETTLE_INTERVALS - 1
SETTLE_RTOL = 1e-6      # their relative spread; a looser stop hands shoot a
                        # worse period (80 ms at I=20: 2.7e-5 off, one more flow)
CROSSING_STOL = 1e-15   # crossing time's last update, in units of the step
CROSSING_MAX_ITER = 60  # safeguarded Newton iterations of a crossing time;
                        # bisection alone would reach CROSSING_STOL in 50
CYCLE_SAMPLES = 400     # steps over the one period stored with a cycle;
                        # shoot keeps every FLOW_STEPS // CYCLE_SAMPLES-th
                        # state of its pass, so this must divide FLOW_STEPS


def shoot(field: VectorField, guess: PeriodicOrbit, tol: float = 1e-10) -> Cycle:
    """Refine a guessed cycle by Newton on the return-map displacement,
    anchored at the guess's state at time 0."""
    if guess.period <= 0:
        raise ValueError("guess period must be positive")
    dim = field.dim
    a = np.array(guess.evaluate_time(0.0), dtype=float)
    fa = field.f(a)
    flowed = {}  # the latest RK4 pass that ran, and the z it ran at

    def residual(z):
        x0, T = z[:dim], z[dim]
        if T <= 0:
            return np.full(dim + 1, np.inf)
        try:
            traj = integrate.integrate_rk4(field, x0, 0.0, T, T / FLOW_STEPS)
        except NonFinite:
            return np.full(dim + 1, np.inf)
        flowed["z"], flowed["pass"] = z.copy(), traj
        return np.concatenate([traj.states[-1] - x0, [float(fa @ (x0 - a))]])

    def step(z, r):
        states = flowed["pass"].states
        Y, _ = integrate.variational_of_pass(field, states,
                                             z[dim] / FLOW_STEPS, 1)
        A = np.zeros((dim + 1, dim + 1))
        A[:dim, :dim] = Y[0] - np.eye(dim)
        A[:dim, dim] = field.f(states[-1])
        A[dim, :dim] = fa
        # no reuse: a residual's state pass costs more than this matrix
        return newton.dense_step(A, r, "shooting")[0], None

    z, _ = newton.damped_newton(residual, step, np.append(a, guess.period),
                                tol, SHOOT_MAX_ITER, "shooting")
    # damped_newton returns the point of its latest residual, whose pass
    # is the cycle
    if not np.array_equal(flowed["z"], z):
        raise RuntimeError("shooting returned a point its last pass did "
                           "not run at")
    every = FLOW_STEPS // CYCLE_SAMPLES
    traj = flowed["pass"]
    return Cycle(period=float(z[dim]),
                 samples=Trajectory(traj.times[::every].copy(),
                                    traj.states[::every].copy()))


def crossing_times(t0, t1, v0, v1, dv0, dv1, level):
    """Times in each step [t0, t1] at which the cubic Hermite interpolant of
    V, from V and dV/dt at both ends (v0, dv0 and v1, dv1), rises through
    level, given v0 < level <= v1.

    The dense output of a one-step method (Hairer, Norsett & Wanner,
    Solving ODEs I, II.6): its crossing times err by O(h^4) where linear
    interpolation's err by O(h^2).  The root is found by Newton from the
    linear estimate, in the step's unit time s; a Newton iterate that
    leaves the bracket the earlier iterates have narrowed is replaced by
    the bracket's midpoint, so every iterate stays inside the step.
    """
    h = t1 - t0
    g0, g1 = v0 - level, v1 - level
    # the interpolant minus level as g0 + s (c1 + s (c2 + s c3)), 0 <= s <= 1
    c1 = h * dv0
    c2 = 3.0 * (g1 - g0) - h * (2.0 * dv0 + dv1)
    c3 = 2.0 * (g0 - g1) + h * (dv0 + dv1)
    lo, hi = np.zeros_like(h), np.ones_like(h)
    s = g0 / (g0 - g1)
    for _ in range(CROSSING_MAX_ITER):
        g = g0 + s * (c1 + s * (c2 + s * c3))
        lo, hi = np.where(g < 0.0, s, lo), np.where(g < 0.0, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton_s = s - g / (c1 + s * (2.0 * c2 + 3.0 * s * c3))
        inside = (newton_s >= lo) & (newton_s <= hi)
        s, s_old = np.where(inside, newton_s, 0.5 * (lo + hi)), s
        # Newton may flip the last bit of s for good
        if np.all(np.abs(s - s_old) <= CROSSING_STOL):
            break
    return t0 + s * h


def settle_transient(field: VectorField, settle_time: float,
                     x_start) -> Cycle:
    """One-period cycle guess extracted from a settling transient.

    Integrates from x_start by RK4 steps of SETTLE_STEP, in blocks of
    SETTLE_BLOCK, for at most settle_time, and detects the period from
    upward crossings of the first state component through its mean over
    the later half of the run.  Each crossing time is the root of the
    cubic Hermite interpolant over its step (crossing_times), whose O(h^4)
    error lets the crossing intervals agree to SETTLE_RTOL at this step.  It
    stops at the first block end where the last SETTLE_INTERVALS crossing
    intervals agree to SETTLE_RTOL, or at settle_time.  Each block starts
    from the last state of the one before, so the states are those of one
    long pass.  Raises NoOscillation if the trajectory has settled onto an
    equilibrium.
    """
    # each block has at most ceil(SETTLE_BLOCK / SETTLE_STEP) steps
    rows = (math.ceil(settle_time / SETTLE_BLOCK)
            * math.ceil(SETTLE_BLOCK / SETTLE_STEP) + 1)
    t = np.empty(rows)
    x = np.empty((rows, len(x_start)))
    t[0], x[0] = 0.0, x_start
    n, t_end = 1, 0.0
    while True:
        t_next = min(t_end + SETTLE_BLOCK, settle_time)
        traj = integrate.integrate_rk4(field, x[n - 1], 0.0, t_next - t_end,
                                       SETTLE_STEP)
        m = len(traj.times) - 1
        t[n:n + m] = t_end + traj.times[1:]
        x[n:n + m] = traj.states[1:]
        n, t_end = n + m, t_next
        # V from the last state before the later half of the run on
        lo = int(np.searchsorted(t[:n], 0.5 * t_end, side="right")) - 1
        V = x[lo:n, 0]
        swing = np.ptp(V[1:])
        if swing >= MIN_AMPLITUDE:
            mean = 0.5 * (V[1:].max() + V[1:].min())
            up = lo + np.where((V[:-1] < mean) & (V[1:] >= mean))[0]
            # the crossings the stop rule compares, in one field call on
            # the states that bracket them
            last = up[-SETTLE_INTERVALS - 1:]
            bracket = x[np.concatenate([last, last + 1])]
            dv0, dv1 = field.f(bracket)[:, 0].reshape(2, -1)
            tc = crossing_times(t[last], t[last + 1], x[last, 0],
                                x[last + 1, 0], dv0, dv1, mean)
            intervals = np.diff(tc)
            if (len(intervals) == SETTLE_INTERVALS and np.ptp(intervals)
                    <= SETTLE_RTOL * intervals.mean()):
                break
        if t_end == settle_time:
            break
    if swing < MIN_AMPLITUDE:
        raise NoOscillation("transient settled onto an equilibrium")
    if len(up) < SETTLE_INTERVALS:
        raise NoOscillation("too few oscillation periods in the settle window")
    # average the last SETTLE_INTERVALS - 1 of the intervals the stop rule
    # compared; anchor at the last crossing but one and re-integrate one
    # period for the samples
    T = float(np.mean(np.diff(tc[-SETTLE_INTERVALS:])))
    return Cycle(period=T, samples=integrate.integrate_rk4(
        field, x[up[-2]], 0.0, T, T / CYCLE_SAMPLES))


def cold_start(I: float, p: model.HHParams = model.DEFAULT_PARAMS,
               tol: float = 1e-10) -> Cycle:
    """Hodgkin-Huxley cycle at I from no guess: settle_transient from a
    5 mV kick off the equilibrium for at most 300 ms, then shoot."""
    fld = hh_field(p, I)
    guess = settle_transient(fld, 300.0, x_start=model.find_equilibrium(I, p)
                             + np.array([5.0, 0.0, 0.0, 0.0]))
    return shoot(fld, guess, tol=tol)
