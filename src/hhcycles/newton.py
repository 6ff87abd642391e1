"""The damped Newton iteration shared by the three cycle solvers.

Each solver brings its residual and its Newton step (Jacobian assembly and
linear solve); the step halving, acceptance rule and stall stop live here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, SingularJacobian


def damped_newton(residual, step, z0, tol: float, max_iter: int, what: str):
    """Solve residual(z) = 0 from z0; returns (z, max-norm of the residual).

    step(z, r) returns the Newton correction at z, where r = residual(z); it
    is always called at the latest residual point, so a residual may leave
    by-products there for the step.  A correction is halved, up to 8 tries,
    until the residual is finite and smaller, and taken anyway once the
    factor is down to 1/64.  Three consecutive steps without decrease, an
    exhausted halving or max_iter iterations raise NoConvergence.
    """
    z = np.array(z0, dtype=float)
    r = residual(z)
    if not np.all(np.isfinite(r)):
        raise NoConvergence(f"{what} residual not finite at the initial guess")
    rn = np.linalg.norm(r, np.inf)
    stall = 0
    for _ in range(max_iter):
        if rn < tol:
            return z, rn
        delta = step(z, r)
        lam = 1.0
        for _ in range(8):
            z_new = z + lam * delta
            r_new = residual(z_new)
            if np.all(np.isfinite(r_new)) and (
                    np.linalg.norm(r_new, np.inf) < rn or lam <= 1.0 / 64):
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"{what} damping exhausted")
        rn_new = np.linalg.norm(r_new, np.inf)
        stall = stall + 1 if rn_new >= rn else 0
        if stall >= 3:
            raise NoConvergence(
                f"{what} Newton stopped improving (residual {rn_new:.3g})")
        z, r, rn = z_new, r_new, rn_new
    if rn < tol:
        return z, rn
    raise NoConvergence(f"{what} Newton stalled at residual {rn:.3g}")


def dense_step(J: np.ndarray, r: np.ndarray, what: str) -> np.ndarray:
    """Newton correction -J^{-1} r for a dense matrix J.

    A matrix whose 2-norm condition exceeds 1e14 raises
    SingularJacobian, unless it is rank-deficient to roundoff (smallest
    singular value <= eps * largest): such systems have a non-isolated
    solution set, and the minimum-norm least-squares step is taken instead.

    Well-conditioned matrices skip that SVD.  J is LU-factored once
    (getrf), gecon estimates kappa_1, the 1-norm condition, from the factors
    in O(n^2) (Higham's estimator), and getrs takes the step from the same
    factors when 10 * n * kappa_1 < 1e14.  Since ||A||_2 <= sqrt(n) ||A||_1,
    kappa_2 <= n * kappa_1; the estimate is a lower bound on kappa_1, and
    the 10 covers its shortfall.  So no matrix that the SVD rule would raise
    on or solve by least squares takes the LU step.  Every other matrix,
    also one that getrf finds exactly singular, goes through the SVD rule.
    """
    if not np.all(np.isfinite(J)):
        raise SingularJacobian(f"{what} Newton matrix not finite")
    lu, piv, info = lapack.dgetrf(J)
    if info == 0:
        rcond, _ = lapack.dgecon(lu, np.linalg.norm(J, 1))
        # 10: margin for gecon underestimating kappa_1
        if rcond > 0 and 10 * len(J) / rcond < 1e14:
            return lapack.dgetrs(lu, piv, -r)[0]
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= np.finfo(float).eps * sv[0]:
        return np.linalg.lstsq(J, -r, rcond=None)[0]
    if sv[0] > 1e14 * sv[-1]:
        raise SingularJacobian(f"{what} Newton matrix cond={sv[0] / sv[-1]:.3g}")
    return np.linalg.solve(J, -r)
