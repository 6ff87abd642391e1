"""The shared damped Newton and its dense step, whose LU fast path must
reach the SVD rule's verdicts."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

from hhcycles import newton
from hhcycles.errors import SingularJacobian


def svd_rule(J, r):
    """The reference verdict: ("min-norm" | "step", step) or ("raise", None)."""
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= np.finfo(float).eps * sv[0]:
        return "min-norm", np.linalg.lstsq(J, -r, rcond=None)[0]
    if sv[0] > 1e14 * sv[-1]:
        return "raise", None
    return "step", np.linalg.solve(J, -r)


def dense_step_verdict(J, r, monkeypatch):
    """dense_step's verdict, read from whether it reached lstsq or raised."""
    lstsq = np.linalg.lstsq
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", spy)
        try:
            dx = newton.dense_step(J, r, "test")
        except SingularJacobian:
            return "raise", None
    return ("min-norm" if calls else "step"), dx


def conditioned_matrix(n, c, seed):
    """Random orthogonal U, V around singular values logspace(0, -c, n)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    J = U @ np.diag(np.logspace(0, -c, n)) @ V.T
    return J, rng.standard_normal(n)


@pytest.mark.parametrize("n", [5, 40, 120])
@given(c=st.floats(min_value=0.0, max_value=17.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(c=0.0, seed=0)
@example(c=12.5, seed=1)
@example(c=13.0, seed=2)
@example(c=14.5, seed=3)
@example(c=17.0, seed=4)
@settings(max_examples=40, deadline=None)
def test_verdict_matches_svd_rule(n, c, seed):
    J, r = conditioned_matrix(n, c, seed)
    want, ref = svd_rule(J, r)
    with pytest.MonkeyPatch.context() as mp:
        got, dx = dense_step_verdict(J, r, mp)
    assert got == want
    if want == "step":
        # two LU solves differ by roundoff that grows with kappa and with n
        bound = max(np.linalg.cond(J), n) * 1e-15
        assert np.linalg.norm(dx - ref) <= bound * np.linalg.norm(ref)
    elif want == "min-norm":
        assert np.array_equal(dx, ref)


def test_exactly_singular_matrix_takes_minimum_norm_step(monkeypatch):
    rng = np.random.default_rng(11)
    J = rng.standard_normal((5, 5))
    J[:, 2] = 0.0                       # an exact zero pivot for getrf
    r = J @ rng.standard_normal(5)
    assert lapack.dgetrf(J)[2] > 0
    got, dx = dense_step_verdict(J, r, monkeypatch)
    assert got == "min-norm"
    assert np.allclose(dx, -np.linalg.pinv(J) @ r, atol=1e-12)


def test_non_finite_matrix_raises():
    J = np.eye(4)
    J[1, 3] = np.nan
    with pytest.raises(SingularJacobian):
        newton.dense_step(J, np.ones(4), "test")


def dense_newton(A, residual, z0):
    """damped_newton with the dense step on the constant matrix A."""
    return newton.damped_newton(
        residual, lambda z, r: newton.dense_step(A, r, "test"), z0,
        tol=1e-10, max_iter=5, what="test")


def test_newton_takes_minimum_norm_step_on_singular_system():
    # consistent but rank-deficient: a line of solutions, and the step
    # from the origin lands on the one of least norm
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
    b = A @ rng.standard_normal(5)
    z, rn = dense_newton(A, lambda z: A @ z - b, np.zeros(5))
    assert rn < 1e-10
    assert np.allclose(z, np.linalg.pinv(A) @ b, atol=1e-10)


def test_newton_raises_on_ill_conditioned_full_rank_system():
    rng = np.random.default_rng(8)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = U @ np.diag(np.logspace(0, -15, 6)) @ V.T
    with pytest.raises(SingularJacobian):
        dense_newton(A, lambda z: A @ z - 1.0, np.zeros(6))
