"""Harmonic balance: truncated Fourier representation of cycles.

The nonlinearity's Fourier spectrum is never computed by quadrature of the
coefficient integrals; instead the candidate series is evaluated at 2n+1
equispaced phase nodes (trigonometric-Lagrange side), the vector field is
applied pointwise, and the leading 2K+1 Fourier coefficients are recovered by
discrete orthogonality.  Oversampling (n = oversample*K) keeps the product
terms from aliasing back onto the retained harmonics.

The algebraic system solved by Newton is

    omega * D xbar - Y_F(xbar) = 0,   omega = 2*pi/T,

per state variable, plus one phase-anchor row (B1 of the first variable = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import newton
from .cycles import PeriodicOrbit
from .fields import VectorField


@dataclass(frozen=True)
class FourierCycle(PeriodicOrbit):
    """Per-variable truncated Fourier coefficients (A0, A1, B1, ..., AK, BK)."""

    K: int
    period: float
    coeffs: np.ndarray  # (dim, 2K+1)

    source = "harmonic-balance"

    def __post_init__(self):
        if self.coeffs.shape[1] != 2 * self.K + 1:
            raise ValueError("coefficient length must be 2K+1")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.period

    def evaluate_time(self, t):
        return evaluate_series(self, t)

    def to_fourier(self, K: int) -> "FourierCycle":
        return self if K == self.K else resize(self, K)

    def to_json(self) -> dict:
        return {"period": float(self.period), "harmonics": self.K,
                "coefficients": self.coeffs.tolist()}

    @classmethod
    def from_json(cls, doc: dict, field=None) -> "FourierCycle":
        return cls(K=int(doc["harmonics"]), period=float(doc["period"]),
                   coeffs=np.array(doc["coefficients"], dtype=float))


@dataclass(frozen=True)
class SpectralOperators:
    """Synthesis/analysis matrices and the differentiation operator.

    synthesis rows evaluate (1, cos, sin, ..., cos K, sin K) at the nodes;
    analysis recovers the leading coefficients by discrete orthogonality;
    D applies d/dtheta in coefficient space (block k is [[0, k], [-k, 0]]).
    """

    K: int
    n: int
    nodes: np.ndarray      # (2n+1,) phases in [0, 2pi)
    synthesis: np.ndarray  # (2n+1, 2K+1)
    analysis: np.ndarray   # (2K+1, 2n+1)
    D: np.ndarray          # (2K+1, 2K+1)


def basis_matrix(theta: np.ndarray, K: int) -> np.ndarray:
    """Fourier basis values (1, cos k theta, sin k theta) at given phases."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    cols = [np.ones_like(theta)]
    for k in range(1, K + 1):
        cols.append(np.cos(k * theta))
        cols.append(np.sin(k * theta))
    return np.stack(cols, axis=1)


def diff_operator(K: int) -> np.ndarray:
    D = np.zeros((2 * K + 1, 2 * K + 1))
    for k in range(1, K + 1):
        D[2 * k - 1, 2 * k] = k
        D[2 * k, 2 * k - 1] = -k
    return D


DEFAULT_OVERSAMPLE = 4


def build_operators(K: int, oversample: int = DEFAULT_OVERSAMPLE) -> SpectralOperators:
    if K < 1 or oversample < 1:
        raise ValueError("K and oversample must be >= 1")
    n = oversample * K
    m = 2 * n + 1
    nodes = 2.0 * np.pi * np.arange(m) / m
    synthesis = basis_matrix(nodes, K)
    analysis = (2.0 / m) * synthesis.T.copy()
    analysis[0] *= 0.5
    return SpectralOperators(K=K, n=n, nodes=nodes, synthesis=synthesis,
                             analysis=analysis, D=diff_operator(K))


def evaluate_series(xbar: FourierCycle, t) -> np.ndarray:
    """Pointwise synthesis at times t (scalar or array); exactly T-periodic."""
    theta = 2.0 * np.pi * np.atleast_1d(np.asarray(t, dtype=float)) / xbar.period
    vals = basis_matrix(theta, xbar.K) @ xbar.coeffs.T
    return vals[0] if np.isscalar(t) or np.ndim(t) == 0 else vals


def node_states(xbar: FourierCycle, ops: SpectralOperators) -> np.ndarray:
    """States at the 2n+1 phase nodes, shape (2n+1, dim)."""
    return ops.synthesis @ xbar.coeffs.T


def nonlinear_spectrum(xbar: FourierCycle, field: VectorField,
                       ops: SpectralOperators) -> np.ndarray:
    """Leading Fourier coefficients of f along the candidate cycle, (dim, 2K+1)."""
    if ops.K != xbar.K:
        raise ValueError("operator/coefficient harmonic count mismatch")
    states = node_states(xbar, ops)
    YL = field.f(states)             # Lagrange-side components: f at the nodes
    return (ops.analysis @ YL).T


def hb_residual(xbar: FourierCycle, field: VectorField,
                ops: SpectralOperators) -> np.ndarray:
    """Stacked residual omega*D xbar - Y_F plus the phase-anchor row (B1 of V)."""
    YF = nonlinear_spectrum(xbar, field, ops)
    res = xbar.omega * (xbar.coeffs @ ops.D.T) - YF
    phase = xbar.coeffs[0, 2] if xbar.K >= 1 else 0.0
    return np.concatenate([res.ravel(), [phase]])


def rotate_phase(xbar: FourierCycle) -> FourierCycle:
    """Time-shift the series so that B1 of V vanishes (A1 >= 0)."""
    A1 = xbar.coeffs[0, 1]
    B1 = xbar.coeffs[0, 2]
    delta = np.arctan2(B1, A1)  # shift theta -> theta + delta kills B1
    coeffs = xbar.coeffs.copy()
    for k in range(1, xbar.K + 1):
        c, s = np.cos(k * delta), np.sin(k * delta)
        A = xbar.coeffs[:, 2 * k - 1]
        B = xbar.coeffs[:, 2 * k]
        coeffs[:, 2 * k - 1] = A * c + B * s
        coeffs[:, 2 * k] = -A * s + B * c
    return replace(xbar, coeffs=coeffs)


def hb_jacobian(xbar: FourierCycle, field: VectorField,
                ops: SpectralOperators) -> np.ndarray:
    """Exact derivative of hb_residual with respect to (coefficients, T).

    Alternating-frequency-time construction: the field Jacobian is sampled
    once on the node grid, and block (i, j) of the coefficient part is
    delta_ij*omega*D - analysis @ diag(J_ij(x_nodes)) @ synthesis.  The last
    column is the period derivative -(2*pi/T^2) * D c_i, the last row the
    phase anchor.
    """
    if ops.K != xbar.K:
        raise ValueError("operator/coefficient harmonic count mismatch")
    dim, nc = xbar.dim, 2 * xbar.K + 1
    Jn = field.jac(node_states(xbar, ops))     # (2n+1, dim, dim)
    J = np.zeros((dim * nc + 1, dim * nc + 1))
    for i in range(dim):
        rows = slice(i * nc, (i + 1) * nc)
        for j in range(dim):
            J[rows, j * nc:(j + 1) * nc] = -ops.analysis @ (
                Jn[:, i, j, None] * ops.synthesis)
        J[rows, rows] += xbar.omega * ops.D
    J[:-1, -1] = -(2.0 * np.pi / xbar.period ** 2) * (xbar.coeffs @ ops.D.T).ravel()
    J[-1, 2] = 1.0
    return J


def _newton(residual_fn, jacobian_fn, z0, tol, max_iter):
    """The shared damped Newton with dense steps on jacobian_fn(z, r)."""
    return newton.damped_newton(
        residual_fn, lambda z, r: newton.dense_step(jacobian_fn(z, r), r, "HB"),
        z0, tol, max_iter, "HB")


def solve_hb(init: FourierCycle, field: VectorField, ops: SpectralOperators,
             tol: float = 1e-10, max_iter: int = 40) -> FourierCycle:
    """Newton solve of the HB system over (all coefficients, T)."""
    init = rotate_phase(init)
    dim, K = init.dim, init.K

    def cycle(z):
        return FourierCycle(K=K, period=float(z[-1]),
                            coeffs=z[:-1].reshape(dim, 2 * K + 1))

    def residual(z):
        if z[-1] <= 0:
            return np.full(len(z), np.inf)
        return hb_residual(cycle(z), field, ops)

    def jacobian(z, r):
        return hb_jacobian(cycle(z), field, ops)

    z, _ = _newton(residual, jacobian, np.append(init.coeffs, init.period),
                   tol, max_iter)
    return cycle(z)


def bordered_jacobian(xbar: FourierCycle, I: float, field_at,
                      ops: SpectralOperators, row, r: np.ndarray) -> np.ndarray:
    """hb_jacobian bordered by the column dR/dI, one forward difference from
    r (the HB residual at I), and by the row (a_T, a_I) of row = (a_T, a_I, b)."""
    J = np.pad(hb_jacobian(xbar, field_at(I), ops), ((0, 1), (0, 1)))
    h = max(abs(I), 1.0) * 1e-7
    J[:-1, -1] = (hb_residual(xbar, field_at(I + h), ops) - r) / h
    J[-1, -2:] = row[:2]
    return J


def solve_hb_bordered(init: FourierCycle, I_guess: float, field_at,
                      ops: SpectralOperators, row, tol: float, max_iter: int):
    """Newton solve over (coefficients, T, I); returns (FourierCycle, I).

    field_at(I) returns the VectorField at I.  The HB system gains the row
    a_T*T + a_I*I = b for row = (a_T, a_I, b): I pinned, T pinned or the
    pseudo-arclength condition.  The initial T is init.period.
    """
    init = rotate_phase(init)
    dim, K = init.dim, init.K
    a_T, a_I, b = row

    def cycle(z):
        return FourierCycle(K=K, period=float(z[-2]),
                            coeffs=z[:-2].reshape(dim, 2 * K + 1))

    def residual(z):
        if z[-2] <= 0:
            return np.full(len(z), np.inf)
        return np.append(hb_residual(cycle(z), field_at(float(z[-1])), ops),
                         a_T * z[-2] + a_I * z[-1] - b)

    def jacobian(z, r):
        return bordered_jacobian(cycle(z), float(z[-1]), field_at, ops, row,
                                 r[:-1])

    z, _ = _newton(residual, jacobian,
                   np.concatenate([init.coeffs.ravel(), [init.period, I_guess]]),
                   tol, max_iter)
    return cycle(z), float(z[-1])


def solve_hb_fixed_period(init: FourierCycle, I_guess: float, field_at,
                          ops: SpectralOperators, tol: float = 1e-10,
                          max_iter: int = 40):
    """solve_hb_bordered with T pinned at init.period; returns (FourierCycle, I)."""
    return solve_hb_bordered(init, I_guess, field_at, ops,
                             (1.0, 0.0, init.period), tol, max_iter)


def resize(xbar: FourierCycle, K_new: int) -> FourierCycle:
    """Pad with zeros or truncate the harmonic count."""
    dim = xbar.dim
    coeffs = np.zeros((dim, 2 * K_new + 1))
    ncopy = min(2 * xbar.K + 1, 2 * K_new + 1)
    coeffs[:, :ncopy] = xbar.coeffs[:, :ncopy]
    return FourierCycle(K=K_new, period=xbar.period, coeffs=coeffs)


def from_trajectory(traj_states: np.ndarray, period: float, K: int) -> FourierCycle:
    """Least-squares Fourier fit of one-period samples (first=last allowed)."""
    m = len(traj_states)
    theta = 2.0 * np.pi * np.arange(m) / m
    B = basis_matrix(theta, K)
    coeffs, *_ = np.linalg.lstsq(B, traj_states, rcond=None)
    return FourierCycle(K=K, period=period, coeffs=coeffs.T)


def gibbs_ripple(xbar: FourierCycle) -> float:
    """Crude ripple metric: total variation excess of V over its ideal 2*range.

    A clean single-pulse cycle has total variation ~ 2*(Vmax-Vmin); Gibbs
    oscillations inflate it.  Returned value is the relative excess.
    """
    t = np.linspace(0.0, xbar.period, 2048, endpoint=False)
    V = evaluate_series(xbar, t)[:, 0]
    tv = np.sum(np.abs(np.diff(V)))
    swing = V.max() - V.min()
    if swing == 0:
        return 0.0
    return float(tv / (2.0 * swing) - 1.0)
