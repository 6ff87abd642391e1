"""Hodgkin-Huxley vector field, Jacobian, equilibria and Hopf detection.

The original (inverted) voltage convention is used throughout: E_Na = -115 mV,
spikes are large negative V excursions.  State ordering is (V, n, h, m).

In this convention a positive external stimulus I depolarizes the membrane,
i.e. it enters the voltage equation with a minus sign; the usual bifurcation
currents (repetitive firing between roughly 6.26 and 154.5 µA/cm²) then apply
with positive I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoSignChange

STATE_DIM = 4


@dataclass(frozen=True)
class HHParams:
    """Membrane parameters (capacitance µF/cm², conductances mS/cm², potentials mV)."""

    C: float = 1.0
    gNa: float = 120.0
    gK: float = 36.0
    gL: float = 0.3
    ENa: float = -115.0
    EK: float = 12.0
    EL: float = -10.599

    def __post_init__(self):
        if self.C <= 0 or self.gNa <= 0 or self.gK <= 0 or self.gL <= 0:
            raise ValueError("capacitance and conductances must be positive")


DEFAULT_PARAMS = HHParams()


_EXPC_SERIES_CUTOFF = 1e-4


def expc(x):
    """x / (exp(x) - 1), continued with value 1 at x = 0.

    Near zero the closed form is a 0/0 cancellation, so for |x| < 1e-4 the
    Taylor series 1 - x/2 + x^2/12 - x^4/720 is used instead.  Accepts scalars
    or arrays.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _EXPC_SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        direct = np.where(small, 1.0, xs / np.expm1(xs))
    series = 1.0 - x / 2.0 + x * x / 12.0 - x**4 / 720.0
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def expc_prime(x):
    """Derivative of expc; series -1/2 + x/6 - x^3/180 near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _EXPC_SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        em = np.expm1(xs)
        direct = (em - xs * np.exp(xs)) / np.where(small, 1.0, em * em)
    series = -0.5 + x / 6.0 - x**3 / 180.0
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def rate_arrays(V):
    """The six alpha/beta rates at potential(s) V, as arrays in a fixed order.

    Order: alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m.
    """
    V = np.asarray(V, dtype=float)
    alpha_n = 0.1 * expc(0.1 * (10.0 + V))
    beta_n = np.exp(V / 80.0) / 8.0
    alpha_h = 0.07 * np.exp(V / 20.0)
    beta_h = 1.0 / (1.0 + np.exp(0.1 * (30.0 + V)))
    alpha_m = expc(0.1 * (25.0 + V))
    beta_m = 4.0 * np.exp(V / 18.0)
    return np.broadcast_arrays(alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m)


def rate_derivative_arrays(V):
    """d/dV of the six rates, same order as rate_arrays."""
    V = np.asarray(V, dtype=float)
    d_alpha_n = 0.01 * expc_prime(0.1 * (10.0 + V))
    d_beta_n = np.exp(V / 80.0) / 640.0
    d_alpha_h = 0.0035 * np.exp(V / 20.0)
    bh = 1.0 / (1.0 + np.exp(0.1 * (30.0 + V)))
    d_beta_h = -0.1 * bh * (1.0 - bh)
    d_alpha_m = 0.1 * expc_prime(0.1 * (25.0 + V))
    d_beta_m = (4.0 / 18.0) * np.exp(V / 18.0)
    return np.broadcast_arrays(d_alpha_n, d_beta_n, d_alpha_h, d_beta_h,
                               d_alpha_m, d_beta_m)


def vector_field(x, p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """Right-hand side of the HH equations at state(s) x = (V, n, h, m).

    x may be a 4-vector or an (m, 4) array of states; the result has the same
    shape.
    """
    x = np.asarray(x, dtype=float)
    V, n, h, m = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    a_n, b_n, a_h, b_h, a_m, b_m = rate_arrays(V)
    ionic = (p.gNa * m**3 * h * (V - p.ENa)
             + p.gK * n**4 * (V - p.EK)
             + p.gL * (V - p.EL))
    dV = (-I - ionic) / p.C
    dn = a_n * (1.0 - n) - b_n * n
    dh = a_h * (1.0 - h) - b_h * h
    dm = a_m * (1.0 - m) - b_m * m
    return np.stack([dV, dn, dh, dm], axis=-1)


def jacobian(x, p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """Analytic Jacobian d f / d x; shape (..., 4, 4) matching x."""
    x = np.asarray(x, dtype=float)
    V, n, h, m = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    a_n, b_n, a_h, b_h, a_m, b_m = rate_arrays(V)
    da_n, db_n, da_h, db_h, da_m, db_m = rate_derivative_arrays(V)

    J = np.zeros(x.shape[:-1] + (STATE_DIM, STATE_DIM))
    J[..., 0, 0] = -(p.gNa * m**3 * h + p.gK * n**4 + p.gL) / p.C
    J[..., 0, 1] = -4.0 * p.gK * n**3 * (V - p.EK) / p.C
    J[..., 0, 2] = -p.gNa * m**3 * (V - p.ENa) / p.C
    J[..., 0, 3] = -3.0 * p.gNa * m**2 * h * (V - p.ENa) / p.C

    J[..., 1, 0] = da_n * (1.0 - n) - db_n * n
    J[..., 1, 1] = -(a_n + b_n)
    J[..., 2, 0] = da_h * (1.0 - h) - db_h * h
    J[..., 2, 2] = -(a_h + b_h)
    J[..., 3, 0] = da_m * (1.0 - m) - db_m * m
    J[..., 3, 3] = -(a_m + b_m)
    return J


def gating_steady_states(V):
    """Steady-state gate values (n_inf, h_inf, m_inf) at potential(s) V."""
    a_n, b_n, a_h, b_h, a_m, b_m = rate_arrays(V)
    return a_n / (a_n + b_n), a_h / (a_h + b_h), a_m / (a_m + b_m)


def steady_state(V):
    """Full state with gates at their V-dependent steady states."""
    n, h, m = gating_steady_states(V)
    return np.array([np.asarray(V, dtype=float) * 1.0, n, h, m]).T


def _reduced_current(V, p: HHParams, I: float):
    """Membrane current balance with gates eliminated via steady states."""
    n, h, m = gating_steady_states(V)
    return (-I - (p.gNa * m**3 * h * (V - p.ENa)
                  + p.gK * n**4 * (V - p.EK)
                  + p.gL * (V - p.EL)))


def find_equilibrium(I: float, p: HHParams = DEFAULT_PARAMS,
                     guess=None, max_iter: int = 100):
    """Equilibrium state at external current I.

    Eliminates the gates through their steady states and Newton-solves the
    scalar current balance in V, then reconstructs the gates.  Raises
    NoConvergence if Newton does not settle within max_iter.
    """
    if guess is None:
        # coarse scan; the reduced equation has a single physical root
        Vs = np.linspace(-120.0, 80.0, 401)
        V = float(Vs[np.argmin(np.abs(_reduced_current(Vs, p, I)))])
    else:
        V = float(np.asarray(guess, dtype=float).reshape(-1)[0])
    dV_fd = 1e-6
    for _ in range(max_iter):
        g = _reduced_current(V, p, I)
        dg = (_reduced_current(V + dV_fd, p, I)
              - _reduced_current(V - dV_fd, p, I)) / (2.0 * dV_fd)
        if dg == 0.0:
            raise NoConvergence("flat reduced current; bad guess")
        step = g / dg
        V -= step
        if abs(step) < 1e-14 * max(1.0, abs(V)):
            break
    else:
        raise NoConvergence(f"equilibrium Newton stalled at I={I}")
    # polish once more so the residual is at roundoff level
    g = _reduced_current(V, p, I)
    dg = (_reduced_current(V + dV_fd, p, I)
          - _reduced_current(V - dV_fd, p, I)) / (2.0 * dV_fd)
    V -= g / dg
    x = steady_state(V)
    if np.max(np.abs(vector_field(x, p, I))) > 1e-12:
        raise NoConvergence(f"equilibrium residual above 1e-12 at I={I}")
    return x


def equilibrium_eigenvalues(I: float, p: HHParams = DEFAULT_PARAMS):
    """Eigenvalues of the Jacobian at the equilibrium, real part descending."""
    x = find_equilibrium(I, p)
    lam = np.linalg.eigvals(jacobian(x, p, I))
    return lam[np.argsort(-lam.real)]


def _complex_pair_real_part(I: float, p: HHParams) -> float:
    """Max real part among genuinely complex eigenvalues of the equilibrium."""
    lam = equilibrium_eigenvalues(I, p)
    cplx = lam[np.abs(lam.imag) > 1e-12]
    if cplx.size == 0:
        # fall back to the leading eigenvalue; keeps bisection well defined
        return float(lam[0].real)
    return float(np.max(cplx.real))


def detect_hopf(I_lo: float, I_hi: float, tol: float = 1e-6,
                p: HHParams = DEFAULT_PARAMS):
    """Bisect the sign change of the complex pair's real part on [I_lo, I_hi].

    Returns (I_star, omega0) with omega0 the imaginary part at the crossing.
    Raises NoSignChange if the bracket is invalid.
    """
    f_lo = _complex_pair_real_part(I_lo, p)
    f_hi = _complex_pair_real_part(I_hi, p)
    if f_lo == 0.0:
        I_hi = I_lo
    elif f_hi != 0.0 and np.sign(f_lo) == np.sign(f_hi):
        raise NoSignChange(
            f"no eigenvalue crossing in [{I_lo}, {I_hi}] "
            f"(real parts {f_lo:.3g}, {f_hi:.3g})")
    else:
        while I_hi - I_lo > tol:
            I_mid = 0.5 * (I_lo + I_hi)
            f_mid = _complex_pair_real_part(I_mid, p)
            if f_mid == 0.0:
                I_lo = I_hi = I_mid
                break
            if np.sign(f_mid) == np.sign(f_lo):
                I_lo, f_lo = I_mid, f_mid
            else:
                I_hi = I_mid
    I_star = 0.5 * (I_lo + I_hi)
    lam = equilibrium_eigenvalues(I_star, p)
    cplx = lam[np.abs(lam.imag) > 1e-12]
    idx = int(np.argmax(cplx.real))
    omega0 = abs(float(cplx[idx].imag))
    return I_star, omega0
