"""Fixed-step RK4 time integration and variational (monodromy) flow."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import NonFinite
from .fields import VectorField


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (m,), strictly increasing, ms
    states: np.ndarray  # (m, dim)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _rk4_step(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(field: VectorField, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 with fixed step; the last step is shortened to hit t1.

    Raises NonFinite if the state blows up mid-integration.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    x = np.array(x0, dtype=float)
    times = [t0]
    states = [x.copy()]
    t = t0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        step = min(h, t1 - t)
        x = _rk4_step(field.f, x, step)
        t = t + step
        if not np.all(np.isfinite(x)):
            raise NonFinite(f"integration blew up at t={t:.6g}")
        times.append(t)
        states.append(x.copy())
    return Trajectory(np.array(times), np.array(states))


def flow(field: VectorField, x0, T: float, nsteps: int) -> np.ndarray:
    """Endpoint of the flow over time T (no trajectory storage)."""
    x = np.array(x0, dtype=float)
    h = T / nsteps
    for _ in range(nsteps):
        x = _rk4_step(field.f, x, h)
    if not np.all(np.isfinite(x)):
        raise NonFinite("flow blew up")
    return x


def flow_with_monodromy(field: VectorField, x0, T: float, nsteps: int):
    """Flow endpoint plus the fundamental matrix Y(T), Y(0)=I.

    State and variational equations are advanced together in a single coupled
    RK4 pass, which avoids interpolation error in J(x(t)).
    """
    dim = field.dim
    x = np.array(x0, dtype=float)
    Y = np.eye(dim)

    def f(z):
        xx = z[:dim]
        YY = z[dim:].reshape(dim, dim)
        return np.concatenate([field.f(xx), (field.jac(xx) @ YY).ravel()])

    z = np.concatenate([x, Y.ravel()])
    h = T / nsteps
    for _ in range(nsteps):
        z = _rk4_step(f, z, h)
    if not np.all(np.isfinite(z)):
        raise NonFinite("variational flow blew up")
    return z[:dim], z[dim:].reshape(dim, dim)


def variational_along(field: VectorField, x_of_t: Callable[[np.ndarray], np.ndarray],
                      edges, nsteps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate Ydot = J(x(t)) Y over each interval [edges[j], edges[j+1]],
    Y(edges[j]) = I, with x(t) supplied externally.

    Used when the cycle is available in closed form (Fourier series or
    collocation), so the only discretization error is in the variational
    RK4 itself.  The intervals do not depend on each other: their
    fundamental matrices are advanced as one (C, dim, dim) stack, nsteps
    RK4 steps each.  Returns that stack and, per interval, the integral of
    trace J(x(t)) by the composite Simpson rule on the same half-step grid.
    By the Abel-Jacobi-Liouville identity that integral equals log det Y_j,
    an independent check on the stack that costs no extra field calls.
    """
    edges = np.asarray(edges, dtype=float)
    dim = field.dim
    h = (edges[1:] - edges[:-1]) / nsteps
    # stage times per interval; x(t) is evaluated one interval at a time,
    # which keeps the basis matrix of a long Fourier series small
    half = np.arange(2 * nsteps + 1)
    xs = np.concatenate([np.asarray(x_of_t(t0 + 0.5 * hj * half))
                         for t0, hj in zip(edges[:-1], h)])
    Js = field.jac(xs).reshape(len(h), 2 * nsteps + 1, dim, dim)
    tr = np.trace(Js, axis1=-2, axis2=-1)
    traces = h / 6.0 * (tr[:, 0] + tr[:, -1] + 4.0 * np.sum(tr[:, 1:-1:2], axis=1)
                        + 2.0 * np.sum(tr[:, 2:-1:2], axis=1))
    Js = np.ascontiguousarray(Js.swapaxes(0, 1))   # step-major
    hh = h[:, None, None]
    Y = np.tile(np.eye(dim), (len(h), 1, 1))
    for i in range(nsteps):
        J1 = Js[2 * i]
        Jm = Js[2 * i + 1]
        J2 = Js[2 * i + 2]
        k1 = J1 @ Y
        k2 = Jm @ (Y + 0.5 * hh * k1)
        k3 = Jm @ (Y + 0.5 * hh * k2)
        k4 = J2 @ (Y + hh * k3)
        Y = Y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(Y)):
        raise NonFinite("variational flow blew up")
    return Y, traces


def signed_log_determinant(chunks) -> tuple:
    """(sign, log|det|) of a product of matrices, one slogdet per factor.

    The determinant of a strongly dissipative monodromy matrix underflows
    double precision (values near 1e-54 occur here), so the product is never
    formed; the signs and log magnitudes are accumulated instead.
    """
    sign = 1.0
    total = 0.0
    for M in chunks:
        s, ld = np.linalg.slogdet(M)
        if s == 0.0:
            return 0.0, -np.inf
        sign *= s
        total += ld
    return float(sign), float(total)
