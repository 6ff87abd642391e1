"""Fixed-step RK4 time integration and variational (monodromy) flow.

integrate_rk4 is the one RK4 loop: it steps one state as a list of Python
floats through the field's f_floats member, because numpy's per-call
overhead on a 4-vector would be most of the cost of a step.  The stage
arithmetic keeps numpy's operation order (x + (h/2) k, then
x + (h/6) (k1 + 2 k2 + 2 k3 + k4)), so the states are those of the same
loop on arrays.  flow and variational_flow take their states from it.
Float overflow (OverflowError) and non-finite states surface as NonFinite.

The fundamental matrix of the variational equations is the RK4 map
differentiated step by step, which is the coupled state and variational RK4
pass (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6): the state is
advanced alone, and all its step matrices are built from one batched
Jacobian call at the stage states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NonFinite
from .fields import VectorField

# a remainder of the span under this fraction of a step is roundoff, not a
# step of its own
STEP_ROUNDOFF = 1e-9


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


def integrate_rk4(field: VectorField, x0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical RK4 with fixed step h at the times t0 + i*h, the last of
    them clamped to t1; a shorter last step hits t1 when h does not divide
    t1 - t0.

    Raises NonFinite, naming the first time with a non-finite state, if the
    state blows up.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    n = max(1, math.ceil((t1 - t0) / h - STEP_ROUNDOFF))
    times = t0 + h * np.arange(n + 1.0)
    times[-1] = t1
    last = t1 - times[-2]
    if abs(last - h) <= STEP_ROUNDOFF * h:
        last = h
    F = field.f_floats
    x = np.asarray(x0, dtype=float).tolist()
    states = np.empty((n + 1, len(x)))
    states[0] = x
    try:
        # steps of h to the last time but one, then the last step
        for step, rows in ((h, range(1, n)), (last, (n,))):
            hh, h6 = 0.5 * step, step / 6.0
            for i in rows:
                k1 = F(*x)
                k2 = F(*[a + hh * b for a, b in zip(x, k1)])
                k3 = F(*[a + hh * b for a, b in zip(x, k2)])
                k4 = F(*[a + step * b for a, b in zip(x, k3)])
                x = [a + h6 * (b + 2.0 * c + 2.0 * d + e)
                     for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
                states[i] = x
    except OverflowError as exc:
        raise NonFinite(f"integration blew up at t={times[i]:.6g}") from exc
    bad = ~np.all(np.isfinite(states), axis=1)
    if bad.any():
        raise NonFinite(
            f"integration blew up at t={times[np.argmax(bad)]:.6g}")
    return Trajectory(times, states)


def flow(field: VectorField, x0, T: float, nsteps: int) -> np.ndarray:
    """Endpoint of nsteps RK4 steps of T / nsteps from x0."""
    return integrate_rk4(field, x0, 0.0, T, T / nsteps).states[-1].copy()


def flow_with_monodromy(field: VectorField, x0, T: float, nsteps: int):
    """Flow endpoint plus the fundamental matrix Y(T), Y(0)=I, of nsteps
    RK4 steps over time T."""
    x, Y, _ = variational_flow(field, x0, T / nsteps, 1, nsteps)
    return x, Y[0]


def variational_flow(field: VectorField, x0, h: float, chunks: int,
                     n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 flow from x0 over `chunks` intervals of n steps of size h,
    with the fundamental matrix of each interval (Y = I at its start) and
    the integral of trace J(x(t)) over it.

    The states come from one integrate_rk4 pass.  The three inner stage
    states of every step are rebuilt from them by three batched field
    calls, and one Jacobian call on all four stages gives the step matrices
    (see _step_products).  The trace integrals are the RK4 quadrature
    h/6 (tr J_a + 2 tr J_b + 2 tr J_c + tr J_d) over the same stages, so the
    Liouville check costs no extra field call.  Returns the endpoint, the
    (chunks, dim, dim) stack and the (chunks,) trace integrals.
    """
    dim = field.dim
    states = integrate_rk4(field, x0, 0.0, chunks * n * h, h).states
    xa = states[:-1]
    xb = xa + (0.5 * h) * field.f(xa)
    xc = xa + (0.5 * h) * field.f(xb)
    xd = xa + h * field.f(xc)
    stages = np.stack([xa, xb, xc, xd], axis=1).reshape(-1, dim)
    J = field.jac(stages).reshape(chunks, n, 4, dim, dim)
    Y, traces = _step_products(J[:, :, 0], J[:, :, 1], J[:, :, 2],
                               J[:, :, 3], h)
    return states[-1].copy(), Y, traces


def _step_products(Ja, Jb, Jc, Jd, h: float):
    """Per interval, the product of the RK4 step matrices of Ydot = J Y and
    the RK4 quadrature of the integral of trace J.

    Each argument is a (chunks, n, dim, dim) stack of the Jacobians at one
    stage of every step: its start (a), the two midpoint stages (b, c) and
    its end (d).  An RK4 step of the linear system is the matrix
    Phi = I + h/6 (J_a + 2 k2 + 2 k3 + k4), with k2 = J_b (I + h/2 J_a),
    k3 = J_c (I + h/2 k2) and k4 = J_d (I + h k3).  Returns the
    (chunks, dim, dim) products Phi_n ... Phi_1 and the (chunks,)
    integrals h/6 sum (tr J_a + 2 tr J_b + 2 tr J_c + tr J_d).
    """
    dim = Ja.shape[-1]
    tr = [np.trace(Js, axis1=2, axis2=3) for Js in (Ja, Jb, Jc, Jd)]
    traces = h / 6.0 * np.sum(tr[0] + 2.0 * tr[1] + 2.0 * tr[2] + tr[3],
                              axis=1)
    # Phi is built in place on three buffers: the spectra at fold
    # certificates run at 4000 steps, where each buffer is 0.5 MB
    k = np.matmul(Jb, Ja)
    k *= 0.5 * h
    k += Jb                                   # k2
    phi = np.multiply(k, 2.0)
    phi += Ja
    k3 = np.matmul(Jc, k)
    k3 *= 0.5 * h
    k3 += Jc
    np.multiply(k3, 2.0, out=k)
    phi += k
    np.matmul(Jd, k3, out=k)
    k *= h
    k += Jd                                   # k4
    phi += k
    phi *= h / 6.0
    phi += np.eye(dim)
    Y = phi[:, 0].copy()
    for i in range(1, phi.shape[1]):
        Y = np.matmul(phi[:, i], Y)
    if not np.all(np.isfinite(Y)):
        raise NonFinite("variational flow blew up")
    return Y, traces


def variational_along(field: VectorField, states: np.ndarray, h: float,
                      chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fundamental matrices of Ydot = J(x(t)) Y over `chunks` equal
    intervals of n RK4 steps of size h each, Y = I at each interval's start,
    with x(t) supplied externally.

    states holds x on the uniform half-step grid t_i = i*h/2 of all the
    intervals, 2*chunks*n + 1 states (the last one closes the last interval).
    Used when the cycle is available in closed form (Fourier series or
    collocation), so the only discretization error is in the variational
    RK4 itself.  The Jacobian at a step's middle serves both midpoint
    stages of _step_products; all (chunks, n) step matrices come from one
    Jacobian call, and each interval's matrix is their product.  Returns
    the (chunks, dim, dim) stack and, per interval, the integral of
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
    # strided views, no copies: start, middle and end of every step
    shape = (chunks, n, dim, dim)
    Jm = J[1::2].reshape(shape)
    return _step_products(J[0:-1:2].reshape(shape), Jm, Jm,
                          J[2::2].reshape(shape), h)


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
