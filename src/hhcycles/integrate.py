"""Fixed-step RK4 time integration and variational (monodromy) flow."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NonFinite
from .fields import VectorField


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray   # (m,), strictly increasing, ms
    states: np.ndarray  # (m, dim)

    def __post_init__(self):
        if len(self.times) == 0:
            raise ValueError("empty trajectory")
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


def variational_along(field: VectorField, states: np.ndarray, h: float,
                      chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fundamental matrices of Ydot = J(x(t)) Y over `chunks` equal
    intervals of n RK4 steps of size h each, Y = I at each interval's start,
    with x(t) supplied externally.

    states holds x on the uniform half-step grid t_i = i*h/2 of all the
    intervals, 2*chunks*n + 1 states (the last one closes the last interval).
    Used when the cycle is available in closed form (Fourier series or
    collocation), so the only discretization error is in the variational
    RK4 itself.  An RK4 step of the linear system is the matrix
    Phi = I + h/6 (J1 + 2 k2 + 2 k3 + k4), with k2 = Jm (I + h/2 J1),
    k3 = Jm (I + h/2 k2) and k4 = J2 (I + h k3) from the Jacobians at the
    step's start, middle and end; all (chunks, n) of them are built at once
    from one Jacobian call, and each interval's matrix is their product.
    Returns the (chunks, dim, dim) stack and, per interval, the integral of
    trace J(x(t)) by the composite Simpson rule on the same half-step grid.
    By the Abel-Jacobi-Liouville identity that integral equals log det Y_j,
    an independent check on the stack that costs no extra field calls.
    """
    dim = field.dim
    n, rem = divmod(len(states) - 1, 2 * chunks)
    if n < 1 or rem:
        raise ValueError(f"{len(states)} states do not tile {chunks} "
                         "intervals of whole RK4 steps")
    J = field.jac(states)                    # (2*chunks*n + 1, dim, dim)
    tr = np.trace(J, axis1=1, axis2=2)
    blocks = tr[:-1].reshape(chunks, 2 * n)  # each interval without its end
    traces = h / 6.0 * (blocks[:, 0] + tr[2 * n::2 * n]
                        + 4.0 * np.sum(blocks[:, 1::2], axis=1)
                        + 2.0 * np.sum(blocks[:, 2::2], axis=1))
    # strided views, no copies: start, middle and end of every step
    shape = (chunks, n, dim, dim)
    J1 = J[0:-1:2].reshape(shape)
    Jm = J[1::2].reshape(shape)
    J2 = J[2::2].reshape(shape)
    # Phi is built in place on three buffers: the spectra at fold
    # certificates run at 4000 steps, where each buffer is 0.5 MB
    k = np.matmul(Jm, J1)
    k *= 0.5 * h
    k += Jm                                   # k2
    phi = np.multiply(k, 2.0)
    phi += J1
    k3 = np.matmul(Jm, k)
    k3 *= 0.5 * h
    k3 += Jm
    np.multiply(k3, 2.0, out=k)
    phi += k
    np.matmul(J2, k3, out=k)
    k *= h
    k += J2                                   # k4
    phi += k
    phi *= h / 6.0
    phi += np.eye(dim)
    Y = phi[:, 0].copy()
    for i in range(1, n):
        Y = np.matmul(phi[:, i], Y)
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
