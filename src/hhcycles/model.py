"""Hodgkin-Huxley vector field, Jacobian, equilibria and Hopf detection.

The original (inverted) voltage convention is used throughout: E_Na = -115 mV,
spikes are large negative V excursions.  State ordering is (V, n, h, m).

In this convention a positive external stimulus I depolarizes the membrane,
i.e. it enters the voltage equation with a minus sign; the usual bifurcation
currents (repetitive firing between roughly 6.26 and 154.5 µA/cm²) then apply
with positive I.

The rates, the field and the Jacobian are each written once, as expressions
over a set of elementary functions (exp, expc, expc_prime).  vector_field and
jacobian evaluate them with numpy on a batch of states, (m, 4), and with
Python floats and math on one state, (4,), where numpy's per-call overhead
on a 4-vector would be most of the cost.  Both return arrays of the same
shape and agree to a few ulps.  Where float arithmetic overflows
(OverflowError) one state falls back to numpy, which gives inf/nan there.

float_field gives the field on one state as four floats in and a 4-tuple
out, with no array at all and one function frame per call (the rates
inlined): the RK4 loop of integrate steps one state at a time through it,
and turns its OverflowError into NonFinite.  It takes the Jacobian at all
the stage states of a pass in one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def _expc_series(x):
    return 1.0 - x / 2.0 + x * x / 12.0 - x**4 / 720.0


def _expc_prime_series(x):
    return -0.5 + x / 6.0 - x**3 / 180.0


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
    out = np.where(small, _expc_series(x), direct)
    return out if out.ndim else float(out)


def expc_prime(x):
    """Derivative of expc; series -1/2 + x/6 - x^3/180 near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _EXPC_SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        em = np.expm1(xs)
        direct = (em - xs * np.exp(xs)) / np.where(small, 1.0, em * em)
    out = np.where(small, _expc_prime_series(x), direct)
    return out if out.ndim else float(out)


def _expc_float(x: float) -> float:
    """expc of one Python float (raises OverflowError where expc gives 0)."""
    if abs(x) < _EXPC_SERIES_CUTOFF:
        return _expc_series(x)
    return x / math.expm1(x)


def _expc_prime_float(x: float) -> float:
    """expc_prime of one Python float."""
    if abs(x) < _EXPC_SERIES_CUTOFF:
        return _expc_prime_series(x)
    em = math.expm1(x)
    return (em - x * math.exp(x)) / (em * em)


class _Elementary(NamedTuple):
    """The elementary functions the rate expressions are evaluated with."""

    exp: Callable
    expc: Callable
    expc_prime: Callable


_ARRAYS = _Elementary(np.exp, expc, expc_prime)
_FLOATS = _Elementary(math.exp, _expc_float, _expc_prime_float)


def _rates(V, ef: _Elementary):
    """alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m at V."""
    return (0.1 * ef.expc(0.1 * (10.0 + V)),
            ef.exp(V / 80.0) / 8.0,
            0.07 * ef.exp(V / 20.0),
            1.0 / (1.0 + ef.exp(0.1 * (30.0 + V))),
            ef.expc(0.1 * (25.0 + V)),
            4.0 * ef.exp(V / 18.0))


def _rate_derivatives(V, beta_h, ef: _Elementary):
    """d/dV of the six rates, same order as _rates; beta_h is its fourth."""
    return (0.01 * ef.expc_prime(0.1 * (10.0 + V)),
            ef.exp(V / 80.0) / 640.0,
            0.0035 * ef.exp(V / 20.0),
            -0.1 * beta_h * (1.0 - beta_h),
            0.1 * ef.expc_prime(0.1 * (25.0 + V)),
            (4.0 / 18.0) * ef.exp(V / 18.0))


def rate_arrays(V):
    """The six alpha/beta rates at potential(s) V, as arrays in a fixed order.

    Order: alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m.
    """
    return np.broadcast_arrays(*_rates(np.asarray(V, dtype=float), _ARRAYS))


def _ionic_current(V, n, h, m, p: HHParams):
    return (p.gNa * m**3 * h * (V - p.ENa)
            + p.gK * n**4 * (V - p.EK)
            + p.gL * (V - p.EL))


def _field_terms(V, n, h, m, p: HHParams, I, ef: _Elementary):
    """The four components of the field at (V, n, h, m)."""
    a_n, b_n, a_h, b_h, a_m, b_m = _rates(V, ef)
    return ((-I - _ionic_current(V, n, h, m, p)) / p.C,
            a_n * (1.0 - n) - b_n * n,
            a_h * (1.0 - h) - b_h * h,
            a_m * (1.0 - m) - b_m * m)


# flat (row * 4 + column) positions of the ten entries _jacobian_terms returns
_JAC_FLAT = np.array([0, 1, 2, 3, 4, 5, 8, 10, 12, 15])


def _jacobian_terms(V, n, h, m, p: HHParams, ef: _Elementary):
    """The ten structurally nonzero entries of the Jacobian at (V, n, h, m)."""
    a_n, b_n, a_h, b_h, a_m, b_m = _rates(V, ef)
    da_n, db_n, da_h, db_h, da_m, db_m = _rate_derivatives(V, b_h, ef)
    return (-(p.gNa * m**3 * h + p.gK * n**4 + p.gL) / p.C,
            -4.0 * p.gK * n**3 * (V - p.EK) / p.C,
            -p.gNa * m**3 * (V - p.ENa) / p.C,
            -3.0 * p.gNa * m**2 * h * (V - p.ENa) / p.C,
            da_n * (1.0 - n) - db_n * n,
            -(a_n + b_n),
            da_h * (1.0 - h) - db_h * h,
            -(a_h + b_h),
            da_m * (1.0 - m) - db_m * m,
            -(a_m + b_m))


def vector_field(x, p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """Right-hand side of the HH equations at state(s) x = (V, n, h, m).

    x may be a 4-vector or an (m, 4) array of states; the result has the same
    shape.
    """
    x = np.asarray(x, dtype=float)
    if x.shape == (STATE_DIM,):
        try:
            return np.array(_field_terms(*x.tolist(), p, I, _FLOATS))
        except OverflowError:
            pass  # numpy returns inf/nan here; the integrators raise on it
    return np.stack(_field_terms(*np.moveaxis(x, -1, 0), p, I, _ARRAYS),
                    axis=-1)


def float_field(p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """The field on one state as Python floats: (V, n, h, m) -> 4-tuple.

    One function frame per call: _field_terms with _FLOATS written out, the
    six rates and expc inlined and the parameters bound as locals, in the
    same operation order, so the values are those of the one-state
    vector_field bit for bit.  Raises OverflowError where float arithmetic
    overflows.
    """
    exp, expm1 = math.exp, math.expm1
    cut = _EXPC_SERIES_CUTOFF
    C, gNa, gK, gL = p.C, p.gNa, p.gK, p.gL
    ENa, EK, EL = p.ENa, p.EK, p.EL
    minus_I = -float(I)

    def field(V, n, h, m):
        u = 0.1 * (10.0 + V)
        w = 0.1 * (25.0 + V)
        a_n = 0.1 * (1.0 - u / 2.0 + u * u / 12.0 - u**4 / 720.0
                     if abs(u) < cut else u / expm1(u))
        a_m = (1.0 - w / 2.0 + w * w / 12.0 - w**4 / 720.0
               if abs(w) < cut else w / expm1(w))
        return ((minus_I - (gNa * m**3 * h * (V - ENa) + gK * n**4 * (V - EK)
                            + gL * (V - EL))) / C,
                a_n * (1.0 - n) - exp(V / 80.0) / 8.0 * n,
                0.07 * exp(V / 20.0) * (1.0 - h)
                - 1.0 / (1.0 + exp(0.1 * (30.0 + V))) * h,
                a_m * (1.0 - m) - 4.0 * exp(V / 18.0) * m)

    return field


def jacobian(x, p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """Analytic Jacobian d f / d x; shape (..., 4, 4) matching x."""
    x = np.asarray(x, dtype=float)
    J = np.zeros(x.shape[:-1] + (STATE_DIM * STATE_DIM,))
    if x.shape == (STATE_DIM,):
        try:
            J[_JAC_FLAT] = _jacobian_terms(*x.tolist(), p, _FLOATS)
            return J.reshape(STATE_DIM, STATE_DIM)
        except OverflowError:
            pass  # as in vector_field
    J[..., _JAC_FLAT] = np.stack(
        _jacobian_terms(*np.moveaxis(x, -1, 0), p, _ARRAYS), axis=-1)
    return J.reshape(x.shape[:-1] + (STATE_DIM, STATE_DIM))


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
    return -I - _ionic_current(V, n, h, m, p)


def find_equilibrium(I: float, p: HHParams = DEFAULT_PARAMS):
    """Equilibrium state at external current I.

    Eliminates the gates through their steady states and Newton-solves the
    scalar current balance in V, then reconstructs the gates.  Raises
    NoConvergence if Newton does not settle within 100 iterations.
    """
    # coarse scan; the reduced equation has a single physical root
    Vs = np.linspace(-120.0, 80.0, 401)
    V = float(Vs[np.argmin(np.abs(_reduced_current(Vs, p, I)))])
    dV_fd = 1e-6
    for _ in range(100):
        g = _reduced_current(V, p, I)
        dg = (_reduced_current(V + dV_fd, p, I)
              - _reduced_current(V - dV_fd, p, I)) / (2.0 * dV_fd)
        if dg == 0.0:
            raise NoConvergence(f"flat reduced current at I={I}")
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


HOPF_TOL = 1e-6   # width of the final bisection bracket in I


def detect_hopf(I_lo: float, I_hi: float, p: HHParams = DEFAULT_PARAMS):
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
        while I_hi - I_lo > HOPF_TOL:
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
