"""The shared damped Newton and its dense step, whose LU fast path must
reach the SVD rule's verdicts, the rule for stepping from the last
factors, and the hand-over of each residual's by-products to the step at
its own point."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lapack

from hhcycles import collocation, hb, model, newton, shooting
from hhcycles.continuation import hh_family
from hhcycles.errors import NoConvergence, NoSignChange, SingularJacobian
from hhcycles.fields import harmonic_oscillator


def svd_rule(J, r):
    """The reference verdict: ("min-norm" | "step", step) or ("raise", None)."""
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[-1] <= np.finfo(float).eps * sv[0]:
        return "min-norm", np.linalg.lstsq(J, -r, rcond=None)[0]
    if sv[0] > 1e14 * sv[-1]:
        return "raise", None
    return "step", np.linalg.solve(J, -r)


def dense_step_verdict(J, r, monkeypatch, work=None):
    """dense_step's verdict, read from whether it reached lstsq or raised."""
    lstsq = np.linalg.lstsq
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", spy)
        try:
            dx, _ = newton.dense_step(J, r, "test", work=work)
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


def conditioned_cases(test):
    """test(n, c, seed) over sizes n and 2-norm conditions 10^c."""
    for mark in (settings(max_examples=40, deadline=None),
                 example(c=17.0, seed=4), example(c=14.5, seed=3),
                 example(c=13.0, seed=2), example(c=12.5, seed=1),
                 example(c=0.0, seed=0),
                 given(c=st.floats(min_value=0.0, max_value=17.0),
                       seed=st.integers(min_value=0, max_value=2**32 - 1)),
                 pytest.mark.parametrize("n", [5, 40, 120])):
        test = mark(test)
    return test


def assert_verdict_matches_svd_rule(n, c, seed, in_work):
    """dense_step against the SVD rule; with in_work, J is in Fortran order,
    as the HB solve keeps it, and is factored in a work array, so it must
    be left as it was for the SVD rule."""
    J, r = conditioned_matrix(n, c, seed)
    want, ref = svd_rule(J, r)
    work = None
    if in_work:
        J, work = np.asfortranarray(J), np.empty(J.shape, order="F")
    J_before = J.copy()
    with pytest.MonkeyPatch.context() as mp:
        got, dx = dense_step_verdict(J, r, mp, work)
    assert np.array_equal(J, J_before)
    assert got == want
    if want == "step":
        # two LU solves differ by roundoff that grows with kappa and with n
        bound = max(np.linalg.cond(J), n) * 1e-15
        assert np.linalg.norm(dx - ref) <= bound * np.linalg.norm(ref)
    elif want == "min-norm":
        assert np.array_equal(dx, ref)


@conditioned_cases
def test_verdict_matches_svd_rule(n, c, seed):
    assert_verdict_matches_svd_rule(n, c, seed, in_work=False)


@conditioned_cases
def test_verdict_matches_svd_rule_in_a_work_array(n, c, seed):
    assert_verdict_matches_svd_rule(n, c, seed, in_work=True)


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
    """damped_newton with the dense step on the constant matrix A; returns
    (z, residual)."""
    return newton.damped_newton(
        lambda z: (residual(z), None),
        lambda z, r, by: newton.dense_step(A, r, "test"), z0,
        tol=1e-10, max_iter=5, what="test")[:2]


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


def counted(step, log, reuse=True):
    """step with its fresh factorizations logged as "F" and its steps from
    reused factors as "R"; with reuse=False it offers no reuse, which makes
    damped_newton plain Newton."""
    def counted_step(z, r, by):
        log.append("F")
        delta, again = step(z, r, by)
        if again is None or not reuse:
            return delta, None

        def counted_again(r):
            log.append("R")
            return again(r)
        return delta, counted_again
    return counted_step


def count_factorizations(monkeypatch, reuse=True):
    """Route every solver's damped_newton through counted; returns the log."""
    log = []
    damped_newton = newton.damped_newton

    def counting(residual, step, z0, tol, max_iter, what, carry=None):
        return damped_newton(residual, counted(step, log, reuse), z0, tol,
                             max_iter, what, carry)

    monkeypatch.setattr(newton, "damped_newton", counting)
    return log


def logged_newton(F, J, z0, tol, max_iter, reuse=True, carry=None):
    """damped_newton on F with the dense step on its Jacobian J; returns
    (z, residual, log), where the log also marks each residual with "r"."""
    log = []

    def residual(z):
        log.append("r")
        return F(z), None

    step = counted(lambda z, r, by: newton.dense_step(J(z), r, "test"), log,
                   reuse)
    z, rn, _ = newton.damped_newton(residual, step,
                                    np.asarray(z0, dtype=float), tol,
                                    max_iter, "test", carry)
    return z, rn, "".join(log)


def sphere_system(z):
    """Three equations with the root (1, 1, 1)."""
    x, y, w = z
    return np.array([x * x + y * y + w * w - 3.0, x * y - w,
                     np.exp(x - 1.0) - y])


def sphere_jacobian(z):
    x, y, w = z
    return np.array([[2 * x, 2 * y, 2 * w], [y, x, -1.0],
                     [np.exp(x - 1.0), -1.0, 0.0]])


class TestFactorReuse:
    @pytest.mark.parametrize("z0", [[0.5, 0.5, 0.5], [2.0, 0.1, 1.0],
                                    [3.0, 3.0, 3.0]])
    def test_reaches_the_root_with_fewer_factorizations(self, z0):
        tol = 1e-12
        z, rn, log = logged_newton(sphere_system, sphere_jacobian, z0, tol, 20)
        z_plain, _, plain = logged_newton(sphere_system, sphere_jacobian, z0,
                                          tol, 20, reuse=False)
        assert rn < tol
        assert np.max(np.abs(z - z_plain)) < 1e-12
        assert "R" in log and "R" not in plain
        assert log.count("F") < plain.count("F")

    def test_too_slow_a_contraction_refactors_at_every_step(self):
        # Newton on z^3 contracts the residual by (2/3)^3 per step, which
        # cannot reach 1e-10 from 1 in 10 steps: no step reuses factors, and
        # the failure counts the steps and the factorizations
        with pytest.raises(NoConvergence,
                           match="after 10 steps, 10 of them freshly factored"):
            logged_newton(lambda z: z ** 3, lambda z: np.diag(3 * z ** 2),
                          [1.0], 1e-10, 10)

    @pytest.mark.parametrize("z0", [1.5, 2.0, 3.0, 10.0])
    def test_a_damped_step_makes_the_next_one_refactor(self, z0):
        # Newton on arctan overshoots from |z| > 1.4, so its first steps
        # are halved; more than one residual after a step marks it damped
        z, rn, log = logged_newton(np.arctan,
                                   lambda z: np.diag(1 / (1 + z * z)),
                                   [z0], 1e-12, 30)
        assert rn < 1e-12
        steps = log.split("r")[1:-1]    # what follows each residual
        taken = [(i, s) for i, s in enumerate(steps) if s]
        damped = [(i, j) for (i, _), (j, _) in zip(taken, taken[1:])
                  if j - i > 1]
        assert damped and "R" in log
        for _, j in damped:
            assert steps[j] == "F"

    def test_least_squares_steps_never_reuse(self):
        # consistent and rank-deficient: every step is a minimum-norm one
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        b = A @ rng.standard_normal(5)
        z, rn, log = logged_newton(lambda z: A @ (z + 0.1 * z ** 3) - b,
                                   lambda z: A * (1 + 0.3 * z ** 2),
                                   np.zeros(5), 1e-10, 30)
        assert rn < 1e-10
        assert "R" not in log and log.count("F") > 1

    def test_rotation_field_oracle_converges_without_reuse(self,
                                                           monkeypatch):
        # the single-harmonic solve of criterion 8: the rotation field has
        # a family of cycles, so every HB Newton matrix is rank-deficient
        log = count_factorizations(monkeypatch)
        coeffs = np.zeros((2, 3))
        coeffs[0, 1], coeffs[1, 2] = 1.0, -1.0
        one = hb.solve_hb(hb.FourierCycle(K=1, period=2 * np.pi * 1.05,
                                          coeffs=coeffs),
                          harmonic_oscillator(), hb.build_operators(1),
                          tol=1e-12)
        assert one.period == pytest.approx(2 * np.pi, rel=1e-10)
        assert log and "R" not in log


def shifted_sphere(shift):
    """sphere_system with its first equation moved by shift."""
    return lambda z: sphere_system(z) - np.array([shift, 0.0, 0.0])


class TestCarriedFactors:
    def test_factors_of_a_nearby_problem_need_no_fresh_one(self):
        carry = newton.FactorCarry()
        z, _, log = logged_newton(sphere_system, sphere_jacobian,
                                  [0.9, 1.1, 1.0], 1e-12, 20, carry=carry)
        assert log.count("F") == carry.fresh > 0 and carry.again is not None
        z2, rn, log2 = logged_newton(shifted_sphere(1e-4), sphere_jacobian,
                                     z, 1e-12, 20, carry=carry)
        assert rn < 1e-12
        assert "F" not in log2
        assert carry.counts() == (2, log.count("F"), 1, 1)
        plain, _, _ = logged_newton(shifted_sphere(1e-4), sphere_jacobian,
                                    z, 1e-12, 20)
        assert np.max(np.abs(z2 - plain)) < 1e-12

    def test_factors_of_a_wrong_matrix_are_declined(self):
        # factors of a random matrix: their step does not contract, so
        # the solve runs as it does without them, trial residual aside,
        # and the trial does not count against max_iter
        F, z0 = sphere_system, np.array([2.0, 0.1, 1.0])
        residuals = []

        def recorded(z):
            residuals.append(F(z))
            return residuals[-1]

        _, _, plain_log = logged_newton(F, sphere_jacobian, z0, 1e-12, 20,
                                        reuse=False)
        steps = plain_log.count("F")
        z_plain, rn_plain, _ = logged_newton(recorded, sphere_jacobian, z0,
                                             1e-12, steps, reuse=False)
        plain = residuals[:]
        residuals.clear()
        rng = np.random.default_rng(5)
        carry = newton.FactorCarry()
        carry.again = newton.dense_step(rng.standard_normal((3, 3)),
                                        np.ones(3), "test")[1]
        z, rn, log = logged_newton(recorded, sphere_jacobian, z0, 1e-12,
                                   steps, reuse=False, carry=carry)
        assert carry.counts() == (1, steps, 1, 0)
        assert log.startswith("rrF")
        del residuals[1]                       # the trial's residual
        assert len(residuals) == len(plain)
        assert all(np.array_equal(a, b) for a, b in zip(residuals, plain))
        assert np.array_equal(z, z_plain) and rn == rn_plain

    def test_a_start_within_tol_tries_nothing(self):
        carry = newton.FactorCarry()
        carry.again = lambda r: pytest.fail("carried factors were tried")
        z, rn, log = logged_newton(sphere_system, sphere_jacobian,
                                   [1.0, 1.0, 1.0], 1e-12, 5, carry=carry)
        assert log == "r" and carry.counts() == (1, 0, 0, 0)


def declined_carry():
    """A FactorCarry whose again steps far off, so its try is declined."""
    carry = newton.FactorCarry()
    carry.again = lambda r: np.full(len(r), 0.5)
    return carry


def with_carry(monkeypatch, carry):
    """Route every solver's damped_newton through carry."""
    damped_newton = newton.damped_newton

    def carried(residual, step, z0, tol, max_iter, what):
        return damped_newton(residual, step, z0, tol, max_iter, what, carry)

    monkeypatch.setattr(newton, "damped_newton", carried)


class TestByProducts:
    """A residual's by-products reach the step at the point they came from,
    whatever points damped_newton tried in between."""

    def test_each_step_gets_the_by_products_of_its_own_point(self):
        # arctan from 10 damps its first steps, and the declined carry
        # evaluates one more point before any step; each residual hands
        # on a copy of its own point
        seen = []

        def step(z, r, by):
            seen.append(np.array_equal(by, z))
            return newton.dense_step(np.diag(1 / (1 + z * z)), r, "test")

        carry = declined_carry()
        z, rn, by = newton.damped_newton(
            lambda z: (np.arctan(z), z.copy()), step, np.array([10.0]),
            1e-12, 30, "test", carry)
        assert rn < 1e-12 and carry.counts()[2:] == (1, 0)
        assert seen and all(seen)
        assert np.array_equal(by, z)

    def test_a_declined_carry_leaves_collocation_as_it_was(
            self, monkeypatch, stable_cycle_20):
        def solve():
            mesh = collocation.Mesh(np.linspace(0.0, 1.0, 201))
            ref = collocation.PhaseReference.from_cycle(
                stable_cycle_20, mesh, hh_family()(20.0))
            return collocation._newton_collocation(
                hh_family(), mesh, ref.y, ref.mid, stable_cycle_20.period,
                20.0, ref, (0.0, 1.0, 20.0))

        plain = solve()
        carry = declined_carry()
        with monkeypatch.context() as m:
            with_carry(m, carry)
            got = solve()
        assert carry.counts()[2:] == (1, 0)
        assert all(np.array_equal(a, b) for a, b in zip(got, plain))

    def test_a_declined_carry_leaves_shooting_as_it_was(self, monkeypatch,
                                                         field20):
        guess = shooting.settle_transient(
            field20, 300.0, x_start=model.find_equilibrium(20.0)
            + np.array([5.0, 0.0, 0.0, 0.0]))
        plain = shooting.shoot(field20, guess)
        carry = declined_carry()
        with monkeypatch.context() as m:
            with_carry(m, carry)
            got = shooting.shoot(field20, guess)
        assert carry.counts()[2:] == (1, 0)
        assert got.period == plain.period
        assert np.array_equal(got.samples.states, plain.samples.states)
        assert np.array_equal(got.samples.times, plain.samples.times)


class TestBracketedRoot:
    def test_the_end_that_stays_is_released(self):
        # x^8 - 1/2 on [0, 1] is convex, so plain regula falsi keeps x = 1
        # and closes in from the left only, linearly: 23 evaluations to a
        # residual of 1e-12
        calls = []

        def g(x):
            calls.append(x)
            return x ** 8 - 0.5
        root = newton.bracketed_root(g, 0.0, 1.0, -0.5, 0.5, 1e-12)
        assert root == pytest.approx(0.5 ** 0.125, abs=1e-13)
        assert len(calls) <= 15

    def test_ends_of_one_sign_raise_before_any_evaluation(self):
        def g(x):
            raise AssertionError("g was evaluated")
        with pytest.raises(NoSignChange):
            newton.bracketed_root(g, 0.0, 1.0, 0.2, 0.7, 1e-12)
