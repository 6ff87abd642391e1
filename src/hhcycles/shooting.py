"""Single shooting for periodic orbits, and cycle construction from transients.

Shooting solves the 5-unknown system

    G(X0, T) = phi(X0, T) - X0 = 0
    <X0 - a, f(a)> = 0                (Poincare hyperplane at the guess anchor a)

by damped Newton, with the sensitivity dphi/dX0 obtained from a coupled
variational pass.  It converges fast on stable cycles; for strongly unstable
cycles the forward flow amplifies roundoff and collocation / harmonic balance
must be used instead.
"""

from __future__ import annotations

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
    anchor_state: np.ndarray
    samples: Trajectory
    source: str = "shooting"  # shooting | collocation | harmonic-balance

    dense = False

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

    def to_time_cycle(self):
        return self

    def to_json(self) -> dict:
        return {"period": float(self.period),
                "samples_t": self.samples.times.tolist(),
                "samples": self.samples.states.tolist()}

    @classmethod
    def from_json(cls, doc: dict, field=None) -> "Cycle":
        states = np.array(doc["samples"], dtype=float)
        return cls(period=float(doc["period"]), anchor_state=states[0].copy(),
                   samples=Trajectory(np.array(doc["samples_t"], dtype=float),
                                      states))


FLOW_STEPS = 2000       # RK4 steps of one coupled flow in the shooting residual
SHOOT_MAX_ITER = 30
SETTLE_STEP = 0.01      # ms, RK4 step of the settling transient
MIN_AMPLITUDE = 1.0     # mV, smallest late-time V swing taken as oscillation
CYCLE_SAMPLES = 400     # RK4 steps over the one period stored with a cycle


def _sample_cycle(field: VectorField, x0, T: float) -> Trajectory:
    return integrate.integrate_rk4(field, x0, 0.0, T, T / CYCLE_SAMPLES)


def shoot(field: VectorField, guess: Cycle, tol: float = 1e-10) -> Cycle:
    """Refine a guessed cycle by Newton on the return-map displacement."""
    if guess.period <= 0:
        raise ValueError("guess period must be positive")
    dim = field.dim
    a = np.array(guess.anchor_state, dtype=float)
    fa = field.f(a)
    flowed = {}  # flow end state and monodromy at the latest residual point

    def residual(z):
        x0, T = z[:dim], z[dim]
        if T <= 0:
            return np.full(dim + 1, np.inf)
        try:
            flowed["xT"], flowed["M"] = integrate.flow_with_monodromy(
                field, x0, T, FLOW_STEPS)
        except NonFinite:
            return np.full(dim + 1, np.inf)
        return np.concatenate([flowed["xT"] - x0, [float(fa @ (x0 - a))]])

    def step(z, r):
        A = np.zeros((dim + 1, dim + 1))
        A[:dim, :dim] = flowed["M"] - np.eye(dim)
        A[:dim, dim] = field.f(flowed["xT"])
        A[dim, :dim] = fa
        return newton.dense_step(A, r, "shooting")

    z, _ = newton.damped_newton(residual, step, np.append(a, guess.period),
                                tol, SHOOT_MAX_ITER, "shooting")
    x0, T = z[:dim], float(z[dim])
    return Cycle(period=T, anchor_state=x0, samples=_sample_cycle(field, x0, T),
                 source="shooting")


def settle_transient(field: VectorField, settle_time: float,
                     x_start) -> Cycle:
    """One-period cycle guess extracted from a settled transient.

    Integrates from x_start for settle_time, then detects the period from
    upward crossings of the first state component through its late-time
    mean.  Raises NoOscillation if the trajectory has settled onto an
    equilibrium.
    """
    traj = integrate.integrate_rk4(field, x_start, 0.0, settle_time,
                                   SETTLE_STEP)
    t = traj.times
    x = traj.states
    tail = t > 0.5 * settle_time
    V = x[:, 0]
    if V[tail].max() - V[tail].min() < MIN_AMPLITUDE:
        raise NoOscillation("transient settled onto an equilibrium")
    mean = 0.5 * (V[tail].max() + V[tail].min())
    up = np.where((V[:-1] < mean) & (V[1:] >= mean) & tail[1:])[0]
    if len(up) < 4:
        raise NoOscillation("too few oscillation periods in the settle window")
    # linear interpolation of the crossing times; average the last 3 periods
    tc = t[up] + (mean - V[up]) / (V[up + 1] - V[up]) * (t[up + 1] - t[up])
    periods = np.diff(tc[-4:])
    T = float(np.mean(periods))
    # anchor at the last crossing, re-integrate one period for the samples
    i0 = up[-2]
    samples = _sample_cycle(field, x[i0], T)
    return Cycle(period=T, anchor_state=x[i0].copy(), samples=samples,
                 source="shooting")
