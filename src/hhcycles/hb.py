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
solve_hb_bordered takes I as a further unknown under one more row,
a_T*T + a_I*I = b; solve_hb is that solve with I pinned.

Its Newton matrix is the alternating-frequency-time derivative (Cameron &
Griffin, J. Appl. Mech. 56, 1989): block (i, j) is the Galerkin matrix of
multiplication by J_ij(x(theta)), a Toeplitz-plus-Hankel matrix in the
discrete Fourier coefficients of J_ij on the node grid.  hb_jacobian takes
those from one FFT along the nodes and writes every block from strided
windows of them; the harmonic indices run mod 2n+1, so the blocks equal
the node-grid products even where those alias.

The bordered Newton matrix is built and LU-factored in the arrays of the
solve's newton.FactorCarry: a corrector that passes one carry to every
solve, such as a continuation, reuses the same memory at each point, and
each solve starts from the factors its carry's previous solve left there.
A solve without a carry gets a new one, so no solve depends on another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import newton
from .cycles import PeriodicOrbit
from .errors import DegenerateCycle
from .fields import VectorField, constant_family

MOTION_TOL = 1e-8   # largest harmonic below which a series is an equilibrium


@dataclass(frozen=True)
class FourierCycle(PeriodicOrbit):
    """Per-variable truncated Fourier coefficients (A0, A1, B1, ..., AK, BK)."""

    K: int
    period: float
    coeffs: np.ndarray  # (dim, 2K+1)

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

    def states_on_grid(self, m: int) -> np.ndarray:
        """The series on j*T/m by one zero-padded inverse real FFT.

        With c_0 = m*A0 and c_k = (m/2)*(A_k - i*B_k), irfft returns
        A0 + sum_k (A_k cos + B_k sin)(2*pi*k*j/m).  Below m = 2K+2 the top
        harmonics would alias onto lower ones (or the Nyquist bin), so such
        a grid is synthesized pointwise.
        """
        if m < 2 * self.K + 2:
            return super().states_on_grid(m)
        c = np.zeros((self.dim, m // 2 + 1), dtype=complex)
        c[:, 0] = m * self.coeffs[:, 0]
        c[:, 1:self.K + 1] = (0.5 * m) * (self.coeffs[:, 1::2]
                                          - 1j * self.coeffs[:, 2::2])
        return np.fft.irfft(c, m, axis=1).T

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
    kt = np.multiply.outer(theta, np.arange(1, K + 1))
    B = np.empty((theta.size, 2 * K + 1))
    B[:, 0] = 1.0
    np.cos(kt, out=B[:, 1::2])
    np.sin(kt, out=B[:, 2::2])
    return B


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
                       ops: SpectralOperators, states=None) -> np.ndarray:
    """Leading Fourier coefficients of f along the candidate cycle, (dim, 2K+1).
    states, if given, are node_states(xbar, ops)."""
    if ops.K != xbar.K:
        raise ValueError("operator/coefficient harmonic count mismatch")
    if states is None:
        states = node_states(xbar, ops)
    YL = field.f(states)             # Lagrange-side components: f at the nodes
    return (ops.analysis @ YL).T


def hb_residual(xbar: FourierCycle, field: VectorField,
                ops: SpectralOperators, states=None) -> np.ndarray:
    """Stacked residual omega*D xbar - Y_F plus the phase-anchor row (B1 of V).
    states, if given, are node_states(xbar, ops)."""
    YF = nonlinear_spectrum(xbar, field, ops, states)
    res = xbar.omega * (xbar.coeffs @ ops.D.T) - YF
    phase = xbar.coeffs[0, 2] if xbar.K >= 1 else 0.0
    return np.concatenate([res.ravel(), [phase]])


def rotate_phase(xbar: FourierCycle) -> FourierCycle:
    """Time-shift the series so that B1 of V vanishes (A1 >= 0)."""
    A1 = xbar.coeffs[0, 1]
    B1 = xbar.coeffs[0, 2]
    delta = np.arctan2(B1, A1)  # shift theta -> theta + delta kills B1
    kd = np.arange(1, xbar.K + 1) * delta
    c, s = np.cos(kd), np.sin(kd)
    A, B = xbar.coeffs[:, 1::2], xbar.coeffs[:, 2::2]
    coeffs = xbar.coeffs.copy()
    coeffs[:, 1::2] = A * c + B * s
    coeffs[:, 2::2] = -A * s + B * c
    return replace(xbar, coeffs=coeffs)


def hb_jacobian(xbar: FourierCycle, field: VectorField,
                ops: SpectralOperators, out=None, states=None) -> np.ndarray:
    """Exact derivative of hb_residual with respect to (coefficients, T).

    Alternating-frequency-time construction: the field Jacobian is sampled
    once on the node grid, and block (i, j) of the coefficient part is
    delta_ij*omega*D - analysis @ diag(a) @ synthesis with a = J_ij(x_nodes),
    the Galerkin matrix of multiplication by J_ij: Toeplitz plus Hankel in
    the DFT coefficients of a.  With c_k = (1/m) sum_j a_j exp(-i k theta_j)
    over the m = 2n+1 nodes, C_k = Re c_k and S_k = -Im c_k, the entry for
    harmonics P, Q >= 0 (the constant as cos 0) is

        [cos P, cos Q] = C_|P-Q| + C_P+Q    [sin P, sin Q] = C_|P-Q| - C_P+Q
        [cos P, sin Q] = S_P+Q - S_P-Q      [sin P, cos Q] = S_P+Q + S_P-Q

    and row 0 is half the cos row, [0, cos Q] = C_Q, [0, sin Q] = S_Q,
    since analysis halves it.  c_k is read at k mod m, where the node sums
    repeat, so the identity is exact where P+Q aliases on the node grid too
    (oversample 1).  One FFT along the nodes gives c_-K..c_2K of every
    block; each block is written in place from strided windows of that list
    (no block-sized temporary), and blocks whose J_ij is zero at every node
    (6 of the 16 HH entries) stay zero.  The last column is the period
    derivative -(2*pi/T^2) * D c_i, the last row the phase anchor.  out, if
    given, is the zeroed square array to fill, such as the top-left block
    of a bordered matrix.  states, if given, are node_states(xbar, ops).
    """
    if ops.K != xbar.K:
        raise ValueError("operator/coefficient harmonic count mismatch")
    dim, K, m = xbar.dim, xbar.K, 2 * ops.n + 1
    nc = 2 * K + 1
    if states is None:
        states = node_states(xbar, ops)
    Jn = field.jac(states).reshape(m, dim * dim)
    blocks = np.flatnonzero(np.any(Jn, axis=0))
    # -C_k and -S_k of each block for k = -K..2K: the block's minus sign
    c = np.fft.fft(Jn[:, blocks], axis=0)[np.arange(-K, 2 * K + 1) % m]
    cos_k, sin_k = -c.real.T / m, c.imag.T / m
    # windows: [.., p, q] is the coefficient of P-Q, resp. P+Q, for the
    # harmonics P = p+1, Q = q+1
    window = np.lib.stride_tricks.sliding_window_view
    toep_c, toep_s = (window(x[:, 1:2 * K], K, axis=1)[:, :, ::-1]
                      for x in (cos_k, sin_k))
    hank_c, hank_s = (window(x[:, K + 2:], K, axis=1) for x in (cos_k, sin_k))
    J = np.zeros((dim * nc + 1, dim * nc + 1)) if out is None else out
    ones = slice(K + 1, 2 * K + 1)    # k = 1..K
    for b, ck, sk, tc, ts, hc, hs in zip(blocks, cos_k, sin_k, toep_c,
                                         toep_s, hank_c, hank_s):
        i, j = divmod(int(b), dim)
        blk = J[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc]
        np.add(tc, hc, out=blk[1::2, 1::2])
        np.subtract(tc, hc, out=blk[2::2, 2::2])
        np.subtract(hs, ts, out=blk[1::2, 2::2])
        np.add(hs, ts, out=blk[2::2, 1::2])
        blk[0, 0] = ck[K]
        blk[0, 1::2], blk[0, 2::2] = ck[ones], sk[ones]
        np.multiply(2.0, ck[ones], out=blk[1::2, 0])
        np.multiply(2.0, sk[ones], out=blk[2::2, 0])
    for i in range(dim):
        rows = slice(i * nc, (i + 1) * nc)
        J[rows, rows] += xbar.omega * ops.D
    J[:-1, -1] = -(2.0 * np.pi / xbar.period ** 2) * (xbar.coeffs @ ops.D.T).ravel()
    J[-1, 2] = 1.0
    return J


def bordered_jacobian(xbar: FourierCycle, field: VectorField,
                      ops: SpectralOperators, row, out=None,
                      states=None) -> np.ndarray:
    """hb_jacobian bordered by the column dR/dI and by the row (a_T, a_I)
    of row = (a_T, a_I, b).

    I enters the field additively, so dR/dI = -analysis(field.dfdI): minus
    dfdI_i at the A0 row of each state i and zero elsewhere.  The HB block
    is written in place, not copied, into out if it is given (a square
    array of the bordered size, overwritten) or else into a new array: one
    more full-size temporary per Newton step can take the step's matrices
    past the C allocator's heap trim threshold, and then they come back as
    fresh pages on every step.  states, if given, are
    node_states(xbar, ops)."""
    nc = 2 * xbar.K + 1
    n = xbar.dim * nc + 1
    if out is None:
        J = np.zeros((n + 1, n + 1))
    else:
        J = out
        J.fill(0.0)
    hb_jacobian(xbar, field, ops, out=J[:-1, :-1], states=states)
    J[0:n - 1:nc, -1] = np.negative(field.dfdI)
    J[-1, -2:] = row[:2]
    return J


def solve_hb_bordered(init: PeriodicOrbit, I_guess: float, field_at,
                      ops: SpectralOperators, row, tol: float, max_iter: int,
                      carry: newton.FactorCarry = None):
    """Newton solve over (coefficients, T, I); returns (FourierCycle, I).

    field_at(I) returns the VectorField at I.  The HB system gains the row
    a_T*T + a_I*I = b for row = (a_T, a_I, b): I pinned, T pinned or the
    pseudo-arclength condition.  init, any cycle, is taken as its K=ops.K
    series; the initial T is init.period.  Raises DegenerateCycle when the
    guess or the converged series has no harmonic above MOTION_TOL: an
    equilibrium solves the HB system for every T.

    The Newton matrix and its LU factors live in carry's arrays (a new
    carry if None), and the carry takes the factors of this solve's
    latest fresh step to the next solve given it, whose Newton tries them
    first (newton.damped_newton); a solve of another matrix size drops
    them.  The carry also keeps the residual max-norm the solve stopped
    at.  Each residual hands its node states to the step at its point,
    which builds the Newton matrix from them.
    """
    if carry is None:
        carry = newton.FactorCarry()
    init = rotate_phase(init.to_fourier(ops.K))
    dim, K = init.dim, init.K
    _check_motion(init, "initial guess")
    J, lu = carry.arrays(dim * (2 * K + 1) + 2)
    a_T, a_I, b = row

    def cycle(z):
        return FourierCycle(K=K, period=float(z[-2]),
                            coeffs=z[:-2].reshape(dim, 2 * K + 1))

    def residual(z):
        if z[-2] <= 0:
            return np.full(len(z), np.inf), None
        xbar = cycle(z)
        states = node_states(xbar, ops)
        return np.append(hb_residual(xbar, field_at(float(z[-1])), ops,
                                     states),
                         a_T * z[-2] + a_I * z[-1] - b), states

    def step(z, r, states):
        bordered_jacobian(cycle(z), field_at(float(z[-1])), ops, row, out=J,
                          states=states)
        return newton.dense_step(J, r, "HB", work=lu)

    z, _, _ = newton.damped_newton(
        residual, step,
        np.concatenate([init.coeffs.ravel(), [init.period, I_guess]]),
        tol, max_iter, "HB", carry)
    return _check_motion(cycle(z), "converged series"), float(z[-1])


def _check_motion(xbar: FourierCycle, what: str) -> FourierCycle:
    """xbar itself, or DegenerateCycle if all its harmonics are below
    MOTION_TOL."""
    if np.max(np.abs(xbar.coeffs[:, 1:])) < MOTION_TOL:
        raise DegenerateCycle(f"{what} has no motion along the orbit")
    return xbar


def solve_hb(init: PeriodicOrbit, field: VectorField, ops: SpectralOperators,
             tol: float = 1e-10, max_iter: int = 40,
             carry: newton.FactorCarry = None) -> FourierCycle:
    """Newton solve over (all coefficients, T): solve_hb_bordered with a
    field that does not depend on I and the row pinning I at 0."""
    return solve_hb_bordered(init, 0.0, constant_family(field), ops,
                             (0.0, 1.0, 0.0), tol, max_iter, carry)[0]


def solve_hb_fixed_period(init: PeriodicOrbit, I_guess: float, field_at,
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
    """K-harmonic Fourier series of the m states at t_j = j*T/m, j < m.

    The samples are one open period: the state at t = T, equal to the
    first, is left out (a closed set would be fitted on a compressed
    grid).  On this grid the harmonics below m/2 are orthogonal, so their
    least-squares fit is the projection read off one real FFT:
    A0 = c_0/m, A_k = 2 Re c_k/m, B_k = -2 Im c_k/m.  Harmonics the grid
    cannot resolve, above (m - 1)//2, are set to zero.
    """
    m = len(traj_states)
    c = np.fft.rfft(traj_states, axis=0).T        # (dim, m//2 + 1)
    k = min(K, (m - 1) // 2)
    coeffs = np.zeros((c.shape[0], 2 * K + 1))
    coeffs[:, 0] = c[:, 0].real / m
    coeffs[:, 1:2 * k + 1:2] = (2.0 / m) * c[:, 1:k + 1].real
    coeffs[:, 2:2 * k + 2:2] = (-2.0 / m) * c[:, 1:k + 1].imag
    return FourierCycle(K=K, period=period, coeffs=coeffs)


def gibbs_ripple(xbar: FourierCycle) -> float:
    """Crude ripple metric: total variation excess of V over its ideal 2*range.

    A clean single-pulse cycle has total variation ~ 2*(Vmax-Vmin); Gibbs
    oscillations inflate it.  Returned value is the relative excess.
    """
    V = xbar.states_on_grid(2048)[:, 0]
    tv = np.sum(np.abs(np.diff(V)))
    swing = V.max() - V.min()
    if swing == 0:
        return 0.0
    return float(tv / (2.0 * swing) - 1.0)
