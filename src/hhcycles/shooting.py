"""Single shooting for periodic orbits, and cycle construction from transients.

Shooting solves the 5-unknown system

    G(X0, T) = phi(X0, T) - X0 = 0
    <X0 - a, f(a)> = 0                (Poincare hyperplane at a = guess(t=0))

by damped Newton.  The residual runs the RK4 state pass alone and keeps
its states; the sensitivity dphi/dX0 is formed from them by the
variational products (integrate.variational_of_pass) only when Newton takes
a step there, so a converged or rejected point costs no monodromy.  It
converges fast on stable cycles; for strongly unstable cycles the forward
flow amplifies roundoff and collocation / harmonic balance must be used
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate, newton
from .cycles import PeriodicOrbit
from .errors import NoOscillation, NonFinite
from .fields import VectorField
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
SETTLE_STEP = 0.01      # ms, RK4 step of the settling transient
MIN_AMPLITUDE = 1.0     # mV, smallest late-time V swing taken as oscillation
SETTLE_BLOCK = 10.0     # ms, settle length between two checks of the stop rule
SETTLE_INTERVALS = 4    # crossing intervals that must agree to stop settling;
                        # the guess averages the last SETTLE_INTERVALS - 1
SETTLE_RTOL = 1e-6      # their relative spread; a looser stop hands shoot a
                        # worse period (80 ms at I=20: 2.7e-5 off, one more flow)
CYCLE_SAMPLES = 400     # RK4 steps over the one period stored with a cycle


def _sample_cycle(field: VectorField, x0, T: float) -> Trajectory:
    return integrate.integrate_rk4(field, x0, 0.0, T, T / CYCLE_SAMPLES)


def shoot(field: VectorField, guess: PeriodicOrbit, tol: float = 1e-10) -> Cycle:
    """Refine a guessed cycle by Newton on the return-map displacement,
    anchored at the guess's state at time 0."""
    if guess.period <= 0:
        raise ValueError("guess period must be positive")
    dim = field.dim
    a = np.array(guess.evaluate_time(0.0), dtype=float)
    fa = field.f(a)
    flowed = {}  # the RK4 pass states at the latest residual point

    def residual(z):
        x0, T = z[:dim], z[dim]
        if T <= 0:
            return np.full(dim + 1, np.inf)
        try:
            flowed["states"] = integrate.integrate_rk4(
                field, x0, 0.0, T, T / FLOW_STEPS).states
        except NonFinite:
            return np.full(dim + 1, np.inf)
        return np.concatenate([flowed["states"][-1] - x0,
                               [float(fa @ (x0 - a))]])

    def step(z, r):
        states = flowed["states"]
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
    x0, T = z[:dim], float(z[dim])
    return Cycle(period=T, samples=_sample_cycle(field, x0, T))


def settle_transient(field: VectorField, settle_time: float,
                     x_start) -> Cycle:
    """One-period cycle guess extracted from a settling transient.

    Integrates from x_start in blocks of SETTLE_BLOCK for at most
    settle_time, and detects the period from upward crossings of the first
    state component through its mean over the later half of the run.  It
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
            # linear interpolation of the crossing times
            tc = t[up] + ((mean - x[up, 0]) / (x[up + 1, 0] - x[up, 0])
                          * (t[up + 1] - t[up]))
            intervals = np.diff(tc[-SETTLE_INTERVALS - 1:])
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
    return Cycle(period=T, samples=_sample_cycle(field, x[up[-2]], T))
