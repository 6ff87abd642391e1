"""An independent Hodgkin-Huxley reference, written from the equations.

Nothing here imports hhcycles.  The output checks compare the program's
artifacts against this right-hand side, integrated by scipy's adaptive
DOP853, and against equilibria and Hopf currents computed here from
finite-difference Jacobians.

Convention (as in the 1952 paper): V is the displacement from rest with
depolarization negative, E_Na = -115 mV, and a positive stimulus current I
enters the voltage equation with a minus sign.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

C_M = 1.0
G_NA, G_K, G_L = 120.0, 36.0, 0.3
E_NA, E_K, E_L = -115.0, 12.0, -10.599


def _u_over_expm1(u):
    """u / (exp(u) - 1), with its limit 1 - u/2 at the removable zero."""
    u = np.asarray(u, dtype=float)
    near = np.abs(u) < 1e-6
    safe = np.where(near, 1.0, u)
    return np.where(near, 1.0 - 0.5 * u, safe / np.expm1(safe))


def rates(V):
    """alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m in 1/ms."""
    alpha_n = 0.1 * _u_over_expm1((V + 10.0) / 10.0)   # 0.01(V+10)/(e^((V+10)/10)-1)
    beta_n = 0.125 * np.exp(V / 80.0)
    alpha_h = 0.07 * np.exp(V / 20.0)
    beta_h = 1.0 / (np.exp((V + 30.0) / 10.0) + 1.0)
    alpha_m = _u_over_expm1((V + 25.0) / 10.0)         # 0.1(V+25)/(e^((V+25)/10)-1)
    beta_m = 4.0 * np.exp(V / 18.0)
    return alpha_n, beta_n, alpha_h, beta_h, alpha_m, beta_m


def rhs(t, x, I):
    """dx/dt for x = (V, n, h, m) at stimulus I; t is unused (autonomous)."""
    V, n, h, m = x
    an, bn, ah, bh, am, bm = rates(V)
    ionic = (G_NA * m ** 3 * h * (V - E_NA) + G_K * n ** 4 * (V - E_K)
             + G_L * (V - E_L))
    return np.array([(-I - ionic) / C_M,
                     an * (1.0 - n) - bn * n,
                     ah * (1.0 - h) - bh * h,
                     am * (1.0 - m) - bm * m])


def _gates_at_rest(V):
    an, bn, ah, bh, am, bm = rates(V)
    return an / (an + bn), ah / (ah + bh), am / (am + bm)


def equilibrium(I):
    """Rest state at stimulus I: gates at steady state, current balance in V."""
    def balance(V):
        n, h, m = _gates_at_rest(V)
        return float(-I - (G_NA * m ** 3 * h * (V - E_NA)
                           + G_K * n ** 4 * (V - E_K) + G_L * (V - E_L)))

    grid = np.linspace(-120.0, 60.0, 721)
    vals = [balance(V) for V in grid]
    for a in range(len(grid) - 1):
        if vals[a] * vals[a + 1] <= 0.0:
            V = brentq(balance, grid[a], grid[a + 1], xtol=1e-14)
            return np.array([V, *_gates_at_rest(V)])
    raise ValueError(f"no equilibrium found at I={I}")


def jacobian_fd(x, I, eps=1e-6):
    """Central-difference Jacobian of rhs at x."""
    x = np.asarray(x, dtype=float)
    J = np.empty((4, 4))
    for j in range(4):
        step = eps * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J[:, j] = (rhs(0.0, xp, I) - rhs(0.0, xm, I)) / (2.0 * step)
    return J


def complex_pair_growth(I):
    """Largest real part among the complex eigenvalues at the equilibrium."""
    lam = np.linalg.eigvals(jacobian_fd(equilibrium(I), I))
    cplx = lam[np.abs(lam.imag) > 1e-9]
    return float(np.max(cplx.real)) if cplx.size else float(np.max(lam.real))


def hopf_current(lo, hi):
    """Current in [lo, hi] where the complex pair crosses the imaginary axis."""
    return brentq(complex_pair_growth, lo, hi, xtol=1e-9)


def return_error(x0, period, I):
    """Max |x(T) - x(0)| over one period, V in mV and gates scaled by 100.

    The gate variables live in [0, 1] while V spans about 100 mV, so gate
    differences are multiplied by 100 to weigh them like voltage.
    """
    sol = solve_ivp(rhs, (0.0, float(period)), np.asarray(x0, dtype=float),
                    method="DOP853", rtol=1e-11, atol=1e-11, args=(float(I),))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    d = np.abs(sol.y[:, -1] - np.asarray(x0, dtype=float))
    return float(max(d[0], 100.0 * np.max(d[1:])))


def settled_cycle(I, settle_ms=200.0):
    """(state at an upward mean-V crossing, period) of the attracting cycle.

    Used to build known-good inputs for the tests of the checks.  The period
    is the spacing of the last two crossings located by event detection.
    """
    x_start = equilibrium(I) + np.array([5.0, 0.0, 0.0, 0.0])
    warm = solve_ivp(rhs, (0.0, settle_ms), x_start, method="DOP853",
                     rtol=1e-11, atol=1e-11, args=(float(I),), max_step=0.5)
    V = warm.y[0, warm.t > 0.5 * settle_ms]
    level = 0.5 * (V.max() + V.min())

    def crossing(t, x, I):
        return x[0] - level
    crossing.direction = 1.0
    sol = solve_ivp(rhs, (0.0, 60.0), warm.y[:, -1], method="DOP853",
                    rtol=1e-12, atol=1e-12, args=(float(I),), events=crossing)
    t_ev, x_ev = sol.t_events[0], sol.y_events[0]
    if len(t_ev) < 3:
        raise ValueError(f"no sustained oscillation at I={I}")
    return x_ev[-2].copy(), float(t_ev[-1] - t_ev[-2])
