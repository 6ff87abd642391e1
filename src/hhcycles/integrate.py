"""Fixed-step RK4 time integration and variational (monodromy) flow.

integrate_rk4 is the one RK4 loop: it steps one state as Python floats
through the field's f_floats member, because numpy's per-call overhead on a
4-vector would be most of the cost of a step.  The loop body is written out
per state component, from one template, once for each state dimension
(_rk4_loop), the way dataclasses writes __init__: a list comprehension and
zip per stage cost about as much as the field call.  The loop takes its
step as a Python float, whatever type the caller passes: a numpy scalar
step (a period read from a Newton vector) would make every stage sum a
numpy-scalar operation.  The stage arithmetic keeps numpy's operation
order (x + (h/2) k, then x + (h/6) (k1 + 2 k2 + 2 k3 + k4)), so the states
are those of the same loop on arrays.  flow and flow_with_monodromy take
their states from it.
Float overflow (OverflowError) and non-finite states surface as NonFinite.

The fundamental matrix of the variational equations is the RK4 map
differentiated step by step, which is the coupled state and variational RK4
pass (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6): the state is
advanced alone, and all its step matrices are built from one batched
Jacobian call at the stage states.  Each interval's fundamental matrix is
the product of its step matrices, formed in pairwise levels
(ordered_product).  variational_of_pass builds them from the states of a
pass already run, so a caller can run the pass and form the matrices only
where it needs them.

The step matrices are formed in views of three flat buffers, kept while
each stack fills at least half of them, so the spectra of a continuation
reuse the same memory, their half-count products included.  No array
returned aliases them; the module assumes one thread at a time.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NonFinite
from .fields import VectorField

# a remainder of the span under this fraction of a step is roundoff, not a
# step of its own
STEP_ROUNDOFF = 1e-9

# steps between two finiteness checks of the state: a pass that turns
# non-finite without an OverflowError stops within this many steps
CHECK_BLOCK = 1000

_LOOP_TEMPLATE = """\
def rk4_loop(F, x, h, count, append):
    {x}, = x
    hh = 0.5 * h
    h6 = h / 6.0
    for _ in range(count):
        {k1}, = F({x})
        {k2}, = F({x_k1})
        {k3}, = F({x_k2})
        {k4}, = F({x_k3})
{update}
{store}
    return {x},
"""


@functools.cache
def _rk4_loop(dim: int):
    """rk4_loop(F, x, h, count, append) for states of dim components.

    It takes count RK4 steps of size h from the state x (a sequence of dim
    floats) through F, passes every new component to append in order and
    returns the last state as a tuple.  The state lives in local floats
    x0, x1, ..., and every stage sum is written out per component.
    """
    def names(stem):
        return [f"{stem}{i}" for i in range(dim)]

    x, k1, k2, k3, k4 = (names(stem) for stem in "xabcd")

    def stage(step, k):
        return ", ".join(f"{a} + {step} * {b}" for a, b in zip(x, k))

    source = _LOOP_TEMPLATE.format(
        x=", ".join(x), k1=", ".join(k1), k2=", ".join(k2),
        k3=", ".join(k3), k4=", ".join(k4), x_k1=stage("hh", k1),
        x_k2=stage("hh", k2), x_k3=stage("h", k3),
        update="\n".join(
            f"        {a} = {a} + h6 * ({b} + 2.0 * {c} + 2.0 * {d} + {e})"
            for a, b, c, d, e in zip(x, k1, k2, k3, k4)),
        store="\n".join(f"        append({a})" for a in x))
    namespace = {}
    exec(compile(source, f"<rk4_loop dim={dim}>", "exec"), namespace)
    return namespace["rk4_loop"]


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

    The states are stored as raw doubles as the pass goes and viewed as an
    (n+1, dim) array after it.  Raises NonFinite, naming the first time with
    a non-finite state, if the state blows up; the state is checked every
    CHECK_BLOCK steps, so a blow-up ends the pass within one block.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    n = max(1, math.ceil((t1 - t0) / h - STEP_ROUNDOFF))
    times = t0 + h * np.arange(n + 1.0)
    times[-1] = t1
    # Python floats: an np.float64 step makes every stage sum numpy-scalar
    # arithmetic, which nearly trebles the cost of a pass
    h = float(h)
    last = float(t1 - times[-2])
    if abs(last - h) <= STEP_ROUNDOFF * h:
        last = h
    x = np.asarray(x0, dtype=float).tolist()
    dim = len(x)
    loop, F = _rk4_loop(dim), field.f_floats
    buf = array("d", x)
    # steps of h to the last time but one, in check blocks, then the last
    runs = [(h, min(CHECK_BLOCK, n - 1 - i))
            for i in range(0, n - 1, CHECK_BLOCK)] + [(last, 1)]
    try:
        for step, count in runs:
            x = loop(F, x, step, count, buf.append)
            if not all(map(math.isfinite, x)):
                break
    except OverflowError as exc:
        raise NonFinite("integration blew up at "
                        f"t={times[len(buf) // dim]:.6g}") from exc
    states = np.frombuffer(buf).reshape(-1, dim)
    bad = ~np.all(np.isfinite(states), axis=1)
    if bad.any():
        raise NonFinite(
            f"integration blew up at t={times[np.argmax(bad)]:.6g}")
    return Trajectory(times, states)


def flow(field: VectorField, x0, T: float, nsteps: int) -> np.ndarray:
    """Endpoint of nsteps RK4 steps of T / nsteps from x0.

    No package code calls this: it stays because bench/tracing.py wraps it
    by name, and ROADMAP item 1a deletes it with that wrapper."""
    return integrate_rk4(field, x0, 0.0, T, T / nsteps).states[-1].copy()


def flow_with_monodromy(field: VectorField, x0, T: float, nsteps: int):
    """Flow endpoint plus the fundamental matrix Y(T), Y(0)=I, of nsteps
    RK4 steps over time T.

    No package code calls this: it stays because bench/tracing.py wraps it
    by name, and ROADMAP item 1a deletes it with that wrapper."""
    states = integrate_rk4(field, x0, 0.0, T, T / nsteps).states
    Y, _ = variational_of_pass(field, states, T / nsteps, 1)
    return states[-1].copy(), Y[0]


def variational_of_pass(field: VectorField, states: np.ndarray, h: float,
                        chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """The fundamental matrix of each of `chunks` intervals (Y = I at its
    start) and the integral of trace J(x(t)) over it, from the states of
    an RK4 pass of steps h whose step count the intervals share equally,
    so that a caller can run the pass first and form the matrices only
    when it needs them.

    The three inner stage states of every step are rebuilt from the states
    by three batched field calls, and one Jacobian call on all four stages
    gives the step matrices (see _step_products).  The trace integrals are
    the RK4 quadrature h/6 (tr J_a + 2 tr J_b + 2 tr J_c + tr J_d) over the
    same stages, so the Liouville check costs no extra field call.
    Returns the (chunks, dim, dim) stack and the (chunks,) trace integrals.
    """
    dim = field.dim
    n = (len(states) - 1) // chunks
    xa = states[:-1]
    xb = xa + (0.5 * h) * field.f(xa)
    xc = xa + (0.5 * h) * field.f(xb)
    xd = xa + h * field.f(xc)
    stages = np.stack([xa, xb, xc, xd], axis=1).reshape(-1, dim)
    J = field.jac(stages).reshape(chunks, n, 4, dim, dim)
    return _step_products(J[:, :, 0], J[:, :, 1], J[:, :, 2], J[:, :, 3], h)


# _step_products' three buffers, flat; a stack is formed in views of their
# first elements.  Made and freed at every point of a continuation, large
# arrays let the C allocator return the top of its heap, and each point
# would fault their pages in again
_STEP_BUFFERS = []


def _buffers(shape) -> list:
    """Three views of _STEP_BUFFERS of the given shape.  The buffers are
    made anew for a stack that does not fit them, or fills less than half
    of them: a spectrum's half-count stack fits the full-count one's, and
    no smaller stack holds on to the memory of a larger one."""
    size = math.prod(shape)
    if not _STEP_BUFFERS or not size <= _STEP_BUFFERS[0].size <= 2 * size:
        _STEP_BUFFERS.clear()  # free the old set before making the new
        _STEP_BUFFERS.extend(np.empty(size) for _ in range(3))
    return [b[:size].reshape(shape) for b in _STEP_BUFFERS]


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

    Phi is built in place in views of the _STEP_BUFFERS; the returned
    arrays are new.
    """
    dim = Ja.shape[-1]
    # per chunk, the traces summed over its steps
    tr = [np.einsum("cnii->c", Js) for Js in (Ja, Jb, Jc, Jd)]
    traces = h / 6.0 * (tr[0] + 2.0 * tr[1] + 2.0 * tr[2] + tr[3])
    k, phi, k3 = _buffers(Ja.shape)
    np.matmul(Jb, Ja, out=k)
    k *= 0.5 * h
    k += Jb                                   # k2
    np.multiply(k, 2.0, out=phi)
    phi += Ja
    np.matmul(Jc, k, out=k3)
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
    Y = ordered_product(phi)
    if not np.all(np.isfinite(Y)):
        raise NonFinite("variational flow blew up")
    return Y, traces


def ordered_product(stack) -> np.ndarray:
    """Product M_n ... M_1 of a (..., n, dim, dim) stack M_1, ..., M_n, the
    later factors on the left.

    The factors are multiplied in pairwise levels, (M_2 M_1), (M_4 M_3),
    ..., an odd last factor carried to the next level: about log2(n)
    batched matmul calls where a sequential product takes n, and each entry
    sums over a tree of depth log2(n) rather than a chain of length n, so
    the rounding grows more slowly too.  The product is a new array, also
    for a stack of one factor.
    """
    P = np.asarray(stack)
    while P.shape[-3] > 1:
        pairs = np.matmul(P[..., 1::2, :, :], P[..., 0:-1:2, :, :])
        P = (np.concatenate([pairs, P[..., -1:, :, :]], axis=-3)
             if P.shape[-3] % 2 else pairs)
    return P[..., 0, :, :].copy()


def variational_along(field: VectorField, states: np.ndarray, h: float,
                      chunks: int, half_count: bool = False
                      ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Fundamental matrices of Ydot = J(x(t)) Y over `chunks` equal
    intervals of n RK4 steps of size h each, Y = I at each interval's start,
    with x(t) supplied externally, and, if half_count, the same of n/2
    steps of size 2h.

    states holds x on the uniform half-step grid t_i = i*h/2 of all the
    intervals, 2*chunks*n + 1 states (the last one closes the last interval).
    Used when the cycle is available in closed form (Fourier series or
    collocation), so the only discretization error is in the variational
    RK4 itself.  The Jacobian at a step's middle serves both midpoint
    stages of _step_products; all (chunks, n) step matrices come from one
    Jacobian call, and each interval's matrix is their product.  The
    Jacobians at every other node of the grid are those of the RK4 steps
    of 2h, so the half-count matrices cost no field call either: their
    distance to the full-count ones is 15 times the RK4 error of the
    latter, to leading order (Richardson; Hairer, Norsett & Wanner,
    Solving ODEs I, sec. II.4).

    Returns the (chunks, dim, dim) stack; per interval, the integral of
    trace J(x(t)) by the composite Simpson rule on the same half-step
    grid; and the half-count stack, or None when it was not asked for, n
    is odd or that stack overflows.  By the Abel-Jacobi-Liouville identity the trace integral
    equals log det Y_j, an independent check on the stack that costs no
    extra field calls.
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
    Y, traces = _step_products(J[0:-1:2].reshape(shape), Jm, Jm,
                               J[2::2].reshape(shape), h)
    half = None
    if half_count and n % 2 == 0:
        shape = (chunks, n // 2, dim, dim)
        Jm = J[2::4].reshape(shape)
        try:
            half, _ = _step_products(J[0:-1:4].reshape(shape), Jm, Jm,
                                     J[4::4].reshape(shape), 2.0 * h)
        except NonFinite:
            pass   # steps of 2h outside RK4's stability region: no estimate
    return Y, traces, half


def signed_log_determinant(chunks) -> tuple:
    """(sign, log|det|) of a product of matrices, from one batched slogdet
    of its factors.

    The determinant of a strongly dissipative monodromy matrix underflows
    double precision (values near 1e-54 occur here), so the product is never
    formed; the signs and log magnitudes are accumulated instead.
    """
    signs, logs = np.linalg.slogdet(np.asarray(chunks))
    if np.any(signs == 0.0):
        return 0.0, -np.inf
    return float(np.prod(signs)), float(np.sum(logs))
