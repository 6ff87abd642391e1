"""The damped Newton iteration shared by the three cycle solvers, and the
bracketed scalar root finder shared by the Hopf and period-doubling searches
and the settle's crossing times.

Each solver brings its residual and its Newton step (Jacobian assembly and
linear solve); the step halving, acceptance rule, stall stop and the rule
for taking a step from the last factors, within a solve or carried from
the solve before (FactorCarry), live here, and so does the pairing of
each point with what its residual left for a step there.  A carry owns
the arrays its factors live in, so they stay valid until its own next
fresh step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from .errors import NoConvergence, NoSignChange, SingularJacobian


@dataclass
class FactorCarry:
    """The factors of a corrector's latest fresh Newton step, carried from
    one damped_newton solve into the next, with counts of what they did.

    again is the latest fresh step's again function (None if that step
    offered none), stored by damped_newton.  The HB step builds and
    factors its matrix in the carry's arrays, so those factors stay there
    until the carry's next fresh step.  Any solver may take a carry: a
    declined try is thrown away with its residual's by-products.  The
    counts add up over the Newton solves that took the carry: solves,
    fresh factorizations, carried factors tried and carried factors kept.
    residual is the max-norm of the residual the latest converged solve
    stopped at.
    """

    again: Optional[Callable] = None
    solves: int = 0
    fresh: int = 0
    tried: int = 0
    kept: int = 0
    residual: float = float("nan")
    _arrays: tuple = field(default=(), init=False, repr=False, compare=False)

    def counts(self) -> tuple:
        return self.solves, self.fresh, self.tried, self.kept

    def arrays(self, n: int) -> tuple:
        """The (n, n) Newton matrix and LU work array, in Fortran order
        for LAPACK, made on first use and kept while n holds.  Another n
        frees them before making the new pair, and drops again."""
        if not self._arrays or len(self._arrays[0]) != n:
            self.again, self._arrays = None, ()
            self._arrays = tuple(np.empty((n, n), order="F") for _ in range(2))
        return self._arrays


def _contracts(rn_new: float, rn: float, left: int, tol: float) -> bool:
    """Whether the contraction rho = rn_new / rn < 1 of an undamped step
    would reach tol within left more steps: rn_new * rho^left < tol.
    False for a non-finite rn_new."""
    rho = rn_new / rn
    return rho < 1.0 and rn_new * rho ** left < tol


def damped_newton(residual, step, z0, tol: float, max_iter: int, what: str,
                  carry: FactorCarry = None):
    """Solve residual(z) = 0 from z0; returns (z, max-norm of the residual,
    by), where by is what residual left at z.

    residual(z) returns (r, by): the residual and whatever its evaluation
    leaves for a step at z, such as field values (None if nothing).
    step(z, r, by) factors the Newton matrix at z, where (r, by) =
    residual(z), and returns (delta, again): the correction
    delta = -J^{-1} r, and either None or a function again(r') that
    returns -J^{-1} r' from the same factors.  Each z is kept with its own
    r and by, so a step never sees another point's.

    The next correction comes from again, with no new matrix, while the
    step just taken was undamped and contracted the residual by
    rho = |r_new| / |r| < 1 fast enough to reach tol within the iterations
    left (|r_new| * rho^left < tol): the chord step of Shamanskii's method,
    kept only while the measured contraction says it still converges in
    the budget.  Otherwise the old factors are dropped before step factors
    anew, so two sets are never held at once.

    carry, a FactorCarry (a new one if None), brings the factors of an
    earlier solve's latest fresh step (the simplified Newton method along
    a curve of problems, Deuflhard 2004, ch. 5).  Unless z0 already meets
    tol, one undamped step is taken from them and kept only if it passes
    the same test as the first iteration: it then counts as one, and the
    solve goes on from it as a chord run.  A step that fails the test is
    thrown away with its residual: z stays at z0, no iteration is spent,
    and the solve runs as it does without a carry.  Each fresh step's
    again is stored back in carry, so the carry leaves holding the latest,
    and a converged solve leaves its residual max-norm there too.

    A correction, fresh or not, is halved, up to 8 tries, until the
    residual is finite and smaller, and taken anyway once the factor is
    down to 1/64.  Three consecutive steps without decrease, an exhausted
    halving or max_iter iterations raise NoConvergence, whose message
    counts the steps taken and the fresh factorizations among them.
    """
    if carry is None:
        carry = FactorCarry()
    z = np.array(z0, dtype=float)
    r, by = residual(z)
    if not np.all(np.isfinite(r)):
        raise NoConvergence(f"{what} residual not finite at the initial guess")
    rn = np.linalg.norm(r, np.inf)
    stall = fresh = start = 0
    again = None
    carry.solves += 1
    if carry.again is not None and rn >= tol:
        carry.tried += 1
        z_new = z + carry.again(r)
        r_new, by_new = residual(z_new)
        rn_new = np.linalg.norm(r_new, np.inf)
        if _contracts(rn_new, rn, max_iter - 1, tol):
            carry.kept += 1
            again, start = carry.again, 1
            z, r, rn, by = z_new, r_new, rn_new, by_new

    def failed(message, steps):
        return NoConvergence(f"{what} {message} after {steps} steps, "
                             f"{fresh} of them freshly factored")

    for it in range(start, max_iter):
        if rn < tol:
            carry.residual = rn
            return z, rn, by
        if again is None:
            delta, again = step(z, r, by)
            fresh += 1
            carry.again = again
            carry.fresh += 1
        else:
            delta = again(r)
        lam = 1.0
        for _ in range(8):
            z_new = z + lam * delta
            r_new, by_new = residual(z_new)
            if np.all(np.isfinite(r_new)) and (
                    np.linalg.norm(r_new, np.inf) < rn or lam <= 1.0 / 64):
                break
            lam *= 0.5
        else:
            raise failed("damping exhausted", it + 1)
        rn_new = np.linalg.norm(r_new, np.inf)
        stall = stall + 1 if rn_new >= rn else 0
        if stall >= 3:
            raise failed(f"Newton stopped improving (residual {rn_new:.3g})",
                         it + 1)
        # keep the factors while this undamped step's contraction would
        # reach tol within the iterations left
        if not (lam == 1.0 and _contracts(rn_new, rn, max_iter - it - 1, tol)):
            again = None
        z, r, rn, by = z_new, r_new, rn_new, by_new
    if rn < tol:
        carry.residual = rn
        return z, rn, by
    raise failed(f"Newton stalled at residual {rn:.3g}", max_iter)


def bracketed_root(g, a: float, b: float, ga: float, gb: float,
                   tol: float) -> float:
    """Root of the scalar function g between a and b, from g(a) = ga and
    g(b) = gb of opposite signs: Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 1971).

    Each step evaluates g at the secant point of the bracket and keeps the
    part that still holds a sign change.  Where the same end stays, its g
    value is halved, so that end is released too and both ends close in on
    the root, with order about 1.44.  The secant point is returned once it
    is within tol of the latest point, without evaluating g there, or once g
    vanishes at it.  Raises NoSignChange if ga and gb have the same sign and
    NoConvergence after 100 evaluations.
    """
    if ga * gb > 0.0:
        raise NoSignChange(f"no sign change between {a:.12g} and {b:.12g} "
                           f"(g = {ga:.3g}, {gb:.3g})")
    for _ in range(100):
        c = b - gb * (b - a) / (gb - ga)
        if abs(c - b) <= tol:
            return c
        gc = g(c)
        if gc == 0.0:
            return c
        if (gc > 0.0) == (gb > 0.0):
            ga *= 0.5
        else:
            a, ga = b, gb
        b, gb = c, gc
    raise NoConvergence(f"regula falsi step above {tol:.3g} after 100 "
                        f"evaluations, bracket [{a:.12g}, {b:.12g}]")


def dense_step(J: np.ndarray, r: np.ndarray, what: str, work=None):
    """Newton correction -J^{-1} r for a dense matrix J, as the pair
    (correction, again) that damped_newton takes from a step: again(r')
    solves with the LU factors of J, or is None where there are none.

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
    also one that getrf finds exactly singular, goes through the SVD rule,
    and its step offers no reuse.

    work, if given, is a Fortran-order array of J's shape that J is copied
    into and factored in, so a Newton step of a large system makes no
    matrix-sized temporary; J itself is left as it was, for the SVD rule.
    The factors stay in work, so again is valid until work is written.
    """
    if not np.all(np.isfinite(J)):
        raise SingularJacobian(f"{what} Newton matrix not finite")
    if work is None:
        lu, piv, info = lapack.dgetrf(J)
    else:
        np.copyto(work, J)
        lu, piv, info = lapack.dgetrf(work, overwrite_a=1)
    if info == 0:
        rcond, _ = lapack.dgecon(lu, lapack.dlange("1", J))
        # 10: margin for gecon underestimating kappa_1
        if rcond > 0 and 10 * len(J) / rcond < 1e14:
            def again(r):
                return lapack.dgetrs(lu, piv, -r)[0]
            return again(r), again
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= np.finfo(float).eps * sv[0]:
        return np.linalg.lstsq(J, -r, rcond=None)[0], None
    if sv[0] > 1e14 * sv[-1]:
        raise SingularJacobian(f"{what} Newton matrix cond={sv[0] / sv[-1]:.3g}")
    return np.linalg.solve(J, -r), None
