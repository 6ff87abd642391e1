"""Hodgkin-Huxley vector field, Jacobian, equilibria and Hopf detection.

The original (inverted) voltage convention is used throughout: E_Na = -115 mV,
spikes are large negative V excursions.  State ordering is (V, n, h, m).

In this convention a positive external stimulus I depolarizes the membrane,
i.e. it enters the voltage equation with a minus sign; the usual bifurcation
currents (repetitive firing between roughly 6.26 and 154.5 µA/cm²) then apply
with positive I.

The rates, the field and the Jacobian are each written once as numpy
expressions over a batch of states, (m, 4), or one state, (4,).  The one
exception is float_field, the field on one state in Python floats and math,
where numpy's per-call overhead on a 4-vector would be most of the cost: the
RK4 loop of integrate steps one state at a time through it, and vector_field
on one state returns its values.  Where float arithmetic overflows
(OverflowError) vector_field falls back to numpy, which gives inf/nan there.
The Jacobian takes each rate's slope from the rate itself.

The equilibria lie on a curve explicit in the potential: at V the gates sit
at their steady states and the stimulus is I(V) = -I_ion(V, n_inf, h_inf,
m_inf).  find_equilibrium inverts it, all currents at once, by Newton with
the analytic slope (a Schur complement of the Jacobian); detect_hopf finds
the root of the leading eigenvalue's real part along it in V, by the
regula falsi of newton.bracketed_root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .newton import bracketed_root

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
    # products, not powers: numpy's power of a negative base is far slower
    return 1.0 - x / 2.0 + x * x / 12.0 - x * x * x * x / 720.0


def expc(x):
    """x / (exp(x) - 1), continued with value 1 at x = 0.

    Near zero the closed form is a 0/0 cancellation, so for |x| < 1e-4 the
    Taylor series 1 - x/2 + x^2/12 - x^4/720 is used instead, and only
    where an element needs it.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = x / np.expm1(x)
    small = np.abs(x) < _EXPC_SERIES_CUTOFF
    if small.any():
        out = np.where(small, _expc_series(x), out)
    return out if out.ndim else float(out)


def _expc_slope(x, e):
    """Derivative of expc at x from its value e = expc(x): e((1 - e)/x - 1),
    which cancels as x -> 0, and for |x| < 0.1 the Taylor series
    -1/2 + x/6 - x^3/180 + x^5/5040 - x^7/151200 (next term < 3e-16)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = e * ((1.0 - e) / x - 1.0)
    x2 = x * x
    series = -0.5 + x * (1.0 / 6.0 + x2 * (-1.0 / 180.0 + x2 * (
        1.0 / 5040.0 - x2 / 151200.0)))
    return np.where(np.abs(x) < 0.1, series, direct)


def _rates(V):
    """alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m at V."""
    return (0.1 * expc(0.1 * (10.0 + V)),
            np.exp(V / 80.0) / 8.0,
            0.07 * np.exp(V / 20.0),
            1.0 / (1.0 + np.exp(0.1 * (30.0 + V))),
            expc(0.1 * (25.0 + V)),
            4.0 * np.exp(V / 18.0))


def _ionic_current(V, n, h, m, p: HHParams):
    return (p.gNa * m**3 * h * (V - p.ENa)
            + p.gK * n**4 * (V - p.EK)
            + p.gL * (V - p.EL))


def _field_terms(V, n, h, m, p: HHParams, I):
    """The four components of the field at (V, n, h, m)."""
    a_n, b_n, a_h, b_h, a_m, b_m = _rates(V)
    return ((-I - _ionic_current(V, n, h, m, p)) / p.C,
            a_n * (1.0 - n) - b_n * n,
            a_h * (1.0 - h) - b_h * h,
            a_m * (1.0 - m) - b_m * m)


def vector_field(x, p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """Right-hand side of the HH equations at state(s) x = (V, n, h, m).

    x may be a 4-vector or an (m, 4) array of states; the result has the same
    shape.
    """
    x = np.asarray(x, dtype=float)
    if x.shape == (STATE_DIM,):
        try:
            return np.array(float_field(p, I)(*x.tolist()))
        except OverflowError:
            pass  # numpy returns inf/nan here; the integrators raise on it
    return np.stack(_field_terms(*np.moveaxis(x, -1, 0), p, I), axis=-1)


def float_field(p: HHParams = DEFAULT_PARAMS, I: float = 0.0):
    """The field on one state as Python floats: (V, n, h, m) -> 4-tuple.

    One function frame per call: _field_terms with the six rates and expc
    inlined and the parameters bound as locals, in the same operation order,
    so the values agree with the batch path to a few ulps.  Raises
    OverflowError where float arithmetic overflows.
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
    """Analytic Jacobian d f / d x; shape (..., 4, 4) matching x.

    Each rate's slope in V is taken from the rate itself, so the six rates
    are the only transcendental evaluations.  One state is evaluated as a
    batch of one: numpy's scalar power rounds differently from its array
    power, and a batch row must not depend on the shape it came in.
    """
    x = np.asarray(x, dtype=float)
    V, n, h, m = x.reshape(-1, STATE_DIM).T
    a_n, b_n, a_h, b_h, a_m, b_m = _rates(V)
    J = np.zeros((len(V), STATE_DIM, STATE_DIM))
    J[:, 0, 0] = -(p.gNa * m**3 * h + p.gK * n**4 + p.gL) / p.C
    J[:, 0, 1] = -4.0 * p.gK * n**3 * (V - p.EK) / p.C
    J[:, 0, 2] = -p.gNa * m**3 * (V - p.ENa) / p.C
    J[:, 0, 3] = -3.0 * p.gNa * m**2 * h * (V - p.ENa) / p.C
    J[:, 1, 0] = (0.01 * _expc_slope(0.1 * (10.0 + V), 10.0 * a_n) * (1.0 - n)
                  - b_n / 80.0 * n)
    J[:, 1, 1] = -(a_n + b_n)
    J[:, 2, 0] = a_h / 20.0 * (1.0 - h) + 0.1 * b_h * (1.0 - b_h) * h
    J[:, 2, 2] = -(a_h + b_h)
    J[:, 3, 0] = (0.1 * _expc_slope(0.1 * (25.0 + V), a_m) * (1.0 - m)
                  - b_m / 18.0 * m)
    J[:, 3, 3] = -(a_m + b_m)
    return J.reshape(x.shape[:-1] + (STATE_DIM, STATE_DIM))


def steady_state(V):
    """State(s) (V, n_inf, h_inf, m_inf), the gates at their steady states
    at potential(s) V: shape (4,) for a scalar, (m, 4) for m potentials."""
    V = np.asarray(V, dtype=float)
    a_n, b_n, a_h, b_h, a_m, b_m = _rates(V)
    return np.array([V, a_n / (a_n + b_n), a_h / (a_h + b_h),
                     a_m / (a_m + b_m)]).T


def _equilibrium_current(V, p: HHParams):
    """The equilibrium curve: the stimulus I(V) that holds the membrane at
    rest at potential(s) V, minus the ionic current at steady_state(V)."""
    return -_ionic_current(*steady_state(V).T, p)


def _equilibrium_slope(x, p: HHParams):
    """dI/dV along the equilibrium curve at its state(s) x = steady_state(V):
    C times the Schur complement of the gate block of the Jacobian at x.
    Each gate row vanishes on the curve and is diagonal in the gates, so a
    gate's slope is g_k' = -J_k0 / J_kk."""
    J = jacobian(x, p)
    gates = np.diagonal(J, axis1=-2, axis2=-1)[..., 1:]
    return p.C * (J[..., 0, 0]
                  - np.sum(J[..., 0, 1:] * J[..., 1:, 0] / gates, axis=-1))


def find_equilibrium(I, p: HHParams = DEFAULT_PARAMS):
    """Equilibrium state(s) at current(s) I, shape I.shape + (4,).

    Newton in V on the equilibrium curve with its analytic slope, all
    currents at once, each from the nearest of 401 samples of the curve on
    [-120, 80] mV; a root stops once its step is below 1e-14 relative, then
    takes one polishing step.  Raises ValueError on a non-finite current,
    before any step, and NoConvergence after 100 steps or on a residual
    above 1e-12.
    """
    I = np.asarray(I, dtype=float)
    if not np.all(np.isfinite(I)):
        raise ValueError(f"equilibrium current must be finite, got {I}")
    Is = I.reshape(-1)
    grid = np.linspace(-120.0, 80.0, 401)
    V = grid[np.argmin(np.abs(_equilibrium_current(grid, p)[:, None] - Is),
                       axis=0)]

    def newton_step(V, target):
        x = steady_state(V)
        return (-_ionic_current(*x.T, p) - target) / _equilibrium_slope(x, p)

    todo = np.arange(len(Is))
    for _ in range(100):
        step = newton_step(V[todo], Is[todo])
        V[todo] -= step
        todo = todo[~(np.abs(step) < 1e-14 * np.maximum(1.0, np.abs(V[todo])))]
        if not len(todo):
            break
    else:
        raise NoConvergence(f"equilibrium Newton stalled at I={Is[todo]}")
    # polish once more so the residual is at roundoff level
    V -= newton_step(V, Is)
    x = steady_state(V)
    bad = ~(np.max(np.abs(_field_terms(*x.T, p, Is)), axis=0) <= 1e-12)
    if bad.any():
        raise NoConvergence(f"equilibrium residual above 1e-12 at I={Is[bad]}")
    return x.reshape(I.shape + (STATE_DIM,))


def eigenvalues(x, p: HHParams = DEFAULT_PARAMS):
    """Eigenvalues of the Jacobian at state(s) x, largest real part first:
    shape (4,) for one state, (..., 4) for a batch."""
    lam = np.linalg.eigvals(jacobian(x, p))
    return np.take_along_axis(lam, np.argsort(-lam.real, axis=-1), axis=-1)


HOPF_TOL = 1e-9   # step in V (mV) that ends the root search


def detect_hopf(I_lo: float, I_hi: float, p: HHParams = DEFAULT_PARAMS):
    """The root of the leading eigenvalue's real part along the equilibrium
    curve between the equilibria at I_lo and I_hi.

    The curve is explicit in the potential: at V the gates sit at their
    steady states and the current is I(V) = _equilibrium_current(V, p).  The
    Jacobian does not depend on I, so the search runs in V, by
    newton.bracketed_root with one eigenvalue solve at steady_state(V) a
    step, until a step is below HOPF_TOL.  det J vanishes only where dI/dV
    does, and with the default parameters I(V) falls strictly, so no real
    eigenvalue crosses zero: the sign change is a complex pair's.

    Returns (I_star, omega0) with omega0 the imaginary part at the crossing.
    Raises NoSignChange if the real parts at I_lo and I_hi share a sign.
    """
    def leading(V):
        return eigenvalues(steady_state(V), p)[0]

    def growth(V):
        return float(leading(V).real)

    V_lo, V_hi = find_equilibrium([I_lo, I_hi], p)[:, 0].tolist()
    V_star = bracketed_root(growth, V_lo, V_hi, growth(V_lo), growth(V_hi),
                            HOPF_TOL)
    return (float(_equilibrium_current(V_star, p)),
            abs(float(leading(V_star).imag)))
