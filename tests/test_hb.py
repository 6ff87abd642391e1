"""Fourier representation, spectral operators and harmonic-balance solves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhcycles import hb, integrate, newton
from hhcycles.errors import DegenerateCycle
from hhcycles.fields import (VectorField, constant_family,
                             harmonic_oscillator)
from test_integrate import damped_field
from test_newton import count_factorizations


class TestBasisAndOperators:
    def test_discrete_orthogonality_roundtrip(self):
        ops = hb.build_operators(6)
        # analysis is a left inverse of synthesis on the retained harmonics
        assert np.allclose(ops.analysis @ ops.synthesis, np.eye(13),
                           atol=1e-12)

    def test_diff_operator_on_pure_harmonics(self):
        K = 4
        D = hb.diff_operator(K)
        theta = np.linspace(0, 2 * np.pi, 101)
        for k in range(1, K + 1):
            c = np.zeros(2 * K + 1)
            c[2 * k - 1] = 1.0   # cos(k theta)
            deriv = hb.basis_matrix(theta, K) @ (D @ c)
            assert np.allclose(deriv, -k * np.sin(k * theta), atol=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 30, 50])
    def test_basis_matrix_matches_column_loop(self, K):
        theta = np.linspace(0.0, 2 * np.pi, 501)
        cols = [np.ones_like(theta)]
        for k in range(1, K + 1):
            cols += [np.cos(k * theta), np.sin(k * theta)]
        assert np.array_equal(hb.basis_matrix(theta, K),
                              np.stack(cols, axis=1))

    def test_operator_validation(self):
        with pytest.raises(ValueError):
            hb.build_operators(0)
        with pytest.raises(ValueError):
            hb.build_operators(4, oversample=0)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_aliasing_free_product_recovery(self, K, oversample):
        # squaring a degree-K series has degree 2K; with enough nodes the
        # retained coefficients must come out exact
        rng = np.random.default_rng(K * 10 + oversample)
        c = rng.standard_normal(2 * K + 1)
        ops = hb.build_operators(2 * K, oversample=max(oversample, 1))
        vals = hb.basis_matrix(ops.nodes, K) @ c
        got = ops.analysis @ (vals * vals)
        dense = np.linspace(0, 2 * np.pi, 4097)[:-1]
        ref_vals = (hb.basis_matrix(dense, K) @ c) ** 2
        ref = np.concatenate([
            [np.mean(ref_vals)],
            np.ravel([[2 * np.mean(ref_vals * np.cos(k * dense)),
                       2 * np.mean(ref_vals * np.sin(k * dense))]
                      for k in range(1, 2 * K + 1)])])
        assert np.allclose(got, ref, atol=1e-10)


class TestFourierCycle:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hb.FourierCycle(K=3, period=1.0, coeffs=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            hb.FourierCycle(K=2, period=-1.0, coeffs=np.zeros((2, 5)))

    def test_evaluate_series_is_periodic(self):
        rng = np.random.default_rng(3)
        xb = hb.FourierCycle(K=5, period=7.3,
                             coeffs=rng.standard_normal((2, 11)))
        t = np.array([0.0, 1.1, 5.0])
        assert np.allclose(hb.evaluate_series(xb, t),
                           hb.evaluate_series(xb, t + 7.3), atol=1e-12)

    def test_scalar_evaluation_matches_array(self):
        xb = hb.FourierCycle(K=2, period=2.0,
                             coeffs=np.arange(10.0).reshape(2, 5))
        assert np.allclose(hb.evaluate_series(xb, 0.3),
                           hb.evaluate_series(xb, np.array([0.3]))[0])

    @pytest.mark.parametrize("K", [1, 2, 30, 50])
    @pytest.mark.parametrize("grid", ["2K+1", "2K+2", 1024, 8000])
    def test_states_on_grid_matches_pointwise_synthesis(self, K, grid):
        # m = 2K+1 takes the pointwise path (the top harmonic would alias),
        # the others the inverse FFT
        m = {"2K+1": 2 * K + 1, "2K+2": 2 * K + 2}.get(grid, grid)
        rng = np.random.default_rng(K)
        decay = 1.0 / (1.0 + np.repeat(np.arange(K + 1), 2)[1:])
        xb = hb.FourierCycle(K=K, period=14.6,
                             coeffs=rng.standard_normal((4, 2 * K + 1)) * decay)
        states = xb.states_on_grid(m)
        ref = xb.evaluate_time(np.arange(m) * (xb.period / m))
        assert states.shape == (m, 4)
        assert np.max(np.abs(states - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_resize_pads_and_truncates(self):
        xb = hb.FourierCycle(K=3, period=1.0,
                             coeffs=np.arange(14.0).reshape(2, 7))
        up = hb.resize(xb, 5)
        assert up.coeffs.shape == (2, 11)
        assert np.allclose(up.coeffs[:, :7], xb.coeffs)
        assert np.all(up.coeffs[:, 7:] == 0.0)
        down = hb.resize(up, 3)
        assert np.allclose(down.coeffs, xb.coeffs)

    def test_rotate_phase_kills_b1_preserves_orbit(self):
        rng = np.random.default_rng(11)
        xb = hb.FourierCycle(K=4, period=3.0,
                             coeffs=rng.standard_normal((2, 9)))
        rot = hb.rotate_phase(xb)
        assert abs(rot.coeffs[0, 2]) < 1e-12
        # same orbit up to the time shift that kills B1
        delta = np.arctan2(xb.coeffs[0, 2], xb.coeffs[0, 1])
        dt = delta * xb.period / (2 * np.pi)
        t = np.linspace(0, 3.0, 512, endpoint=False)
        assert np.allclose(hb.evaluate_series(rot, t),
                           hb.evaluate_series(xb, t + dt), atol=1e-12)


    @pytest.mark.parametrize("K", [1, 2, 8, 30, 50])
    def test_rotate_phase_matches_a_per_harmonic_loop(self, K):
        rng = np.random.default_rng(K)
        xb = hb.FourierCycle(K=K, period=2.0,
                             coeffs=rng.standard_normal((4, 2 * K + 1)))
        delta = np.arctan2(xb.coeffs[0, 2], xb.coeffs[0, 1])
        ref = xb.coeffs.copy()
        for k in range(1, K + 1):
            c, s = np.cos(k * delta), np.sin(k * delta)
            A, B = xb.coeffs[:, 2 * k - 1], xb.coeffs[:, 2 * k]
            ref[:, 2 * k - 1] = A * c + B * s
            ref[:, 2 * k] = -A * s + B * c
        rot = hb.rotate_phase(xb)
        assert np.array_equal(rot.coeffs, ref)
        # B1 of V is A1 sin(-delta) + B1 cos(delta): zero to roundoff
        assert abs(rot.coeffs[0, 2]) <= 4e-16 * np.hypot(*xb.coeffs[0, 1:3])


def lstsq_fit(states, K):
    """The least-squares K-harmonic fit of samples at theta_j = 2 pi j/m."""
    m = len(states)
    B = hb.basis_matrix(2.0 * np.pi * np.arange(m) / m, K)
    return np.linalg.lstsq(B, states, rcond=None)[0].T


class TestFromTrajectory:
    @pytest.mark.parametrize("K", [1, 10, 50, 199])
    def test_equals_the_least_squares_fit(self, stable_cycle_20, K):
        states = stable_cycle_20.samples.states[:-1]
        assert len(states) == 400
        got = hb.from_trajectory(states, stable_cycle_20.period, K)
        ref = lstsq_fit(states, K)
        assert got.K == K and got.period == stable_cycle_20.period
        assert np.max(np.abs(got.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [9, 10])
    def test_harmonics_above_the_grid_are_zero(self, m):
        # m samples resolve (m - 1)//2 harmonics; a least-squares fit would
        # split a harmonic among its aliases above them
        rng = np.random.default_rng(m)
        resolved = (m - 1) // 2
        series = hb.FourierCycle(K=resolved, period=3.0,
                                 coeffs=rng.standard_normal((2, 2 * resolved + 1)))
        fit = hb.from_trajectory(series.states_on_grid(m), 3.0, 7)
        assert np.allclose(fit.coeffs[:, :2 * resolved + 1], series.coeffs,
                           rtol=0.0, atol=1e-13)
        assert np.all(fit.coeffs[:, 2 * resolved + 1:] == 0.0)


class TestNewtonArrays:
    def test_one_set_kept_per_owner_for_the_latest_shape(self):
        # each carry owns one Newton matrix and LU array, kept while the
        # size holds; another size replaces them and drops the factors
        carry = newton.FactorCarry()
        J, lu = carry.arrays(30)
        assert J.shape == lu.shape == (30, 30)
        assert J.flags.f_contiguous and lu.flags.f_contiguous
        carry.again = len
        again = carry.arrays(30)
        assert again[0] is J and again[1] is lu and carry.again is len
        assert newton.FactorCarry().arrays(30)[0] is not J
        assert carry.arrays(16)[0].shape == (16, 16) and carry.again is None
        assert carry.arrays(30)[0] is not J
        # the step products keep one set of three flat buffers: a stack
        # that fills at least half of them, such as the half-count one of
        # a spectrum, is formed in views of them; a larger one, or one
        # under half their size, replaces them
        rng = np.random.default_rng(3)

        def buffers(shape):
            integrate._step_products(*rng.standard_normal((4, *shape)), 0.01)
            return list(integrate._STEP_BUFFERS)

        def same(a, b):
            return all(x is y for x, y in zip(a, b))

        integrate._STEP_BUFFERS.clear()
        first = buffers((3, 6, 4, 4))
        assert len(first) == 3 and all(b.shape == (3 * 6 * 16,)
                                       for b in first)
        assert same(buffers((3, 6, 4, 4)), first)
        assert same(buffers((3, 3, 4, 4)), first)
        grown = buffers((4, 6, 4, 4))
        assert grown[0] is not first[0] and grown[0].shape == (4 * 6 * 16,)
        assert same(buffers((3, 6, 4, 4)), grown)
        assert buffers((3, 2, 4, 4))[0].shape == (3 * 2 * 16,)

    def test_solves_on_kept_arrays_match_solves_on_fresh_ones(
            self, field20, stable_cycle_20):
        # a carry's second solve runs on the arrays its first solve left
        # and ends bit for bit where a solve on a new carry ends
        ops = hb.build_operators(10)
        seeds = [stable_cycle_20, scaled_period(stable_cycle_20, 1.01)]
        for seed in seeds:
            carry = newton.FactorCarry()
            for start in (scaled_period(stable_cycle_20, 0.99), seed):
                carry.again = None             # the arrays, not the factors
                got, _ = hb.solve_hb_bordered(
                    start, 0.0, constant_family(field20), ops,
                    (0.0, 1.0, 0.0), 1e-10, 40, carry)
            ref = hb.solve_hb(seed, field20, ops)
            assert got.period == ref.period
            assert np.array_equal(got.coeffs, ref.coeffs)
            assert not any(np.shares_memory(got.coeffs, a)
                           for a in carry.arrays(got.coeffs.size + 2))


def scaled_period(cycle, factor):
    """cycle's Fourier series (K=10) with its period scaled by factor."""
    fc = cycle.to_fourier(10)
    return hb.FourierCycle(K=10, period=fc.period * factor, coeffs=fc.coeffs)


class TestSolve:
    def test_sho_exact_in_one_harmonic(self):
        omega = 1.7
        fld = harmonic_oscillator(omega)
        coeffs = np.zeros((2, 5))
        coeffs[0, 1] = 1.0          # x ~ cos
        coeffs[1, 2] = -omega       # y = xdot ~ -omega sin ... sign via solve
        init = hb.FourierCycle(K=2, period=2 * np.pi / omega * 1.05,
                               coeffs=coeffs)
        ops = hb.build_operators(2)
        sol = hb.solve_hb(init, fld, ops, tol=1e-12)
        assert sol.period == pytest.approx(2 * np.pi / omega, rel=1e-10)
        # no energy in harmonics beyond the first
        assert np.max(np.abs(sol.coeffs[:, 3:])) < 1e-10

    def test_residual_vanishes_at_solution(self, field20, hb_cycle_20,
                                           hb_ops_50):
        r = hb.hb_residual(hb_cycle_20, field20, hb_ops_50)
        assert np.max(np.abs(r)) < 1e-8

    def test_matches_shooting_at_i20(self, stable_cycle_20, hb_cycle_20):
        assert hb_cycle_20.period == pytest.approx(stable_cycle_20.period,
                                                   rel=1e-7)
        # a 256-point grid misses the series' trough by 0.055 mV, more than
        # the tolerance; 4096 points resolve it to 3e-5 mV
        t = np.linspace(0, hb_cycle_20.period, 4096, endpoint=False)
        V = hb.evaluate_series(hb_cycle_20, t)[:, 0]
        vmin, vmax = stable_cycle_20.v_extrema()
        assert V.min() == pytest.approx(vmin, abs=0.05)
        assert V.max() == pytest.approx(vmax, abs=0.05)

    def test_from_trajectory_roundtrip(self, stable_cycle_20, hb_cycle_20):
        seed = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                  stable_cycle_20.period, 50)
        # the solve canonicalizes the phase, so rotate the seed the same way
        t = np.linspace(0, stable_cycle_20.period, 128, endpoint=False)
        a = hb.evaluate_series(hb.rotate_phase(seed), t)[:, 0]
        b = hb.evaluate_series(hb_cycle_20, t)[:, 0]
        assert np.max(np.abs(a - b)) < 0.1

    def test_solver_fails_cleanly_from_garbage(self):
        fld = harmonic_oscillator()
        coeffs = np.zeros((2, 5))
        coeffs[0, 0] = 40.0   # constant offset, no oscillatory content
        init = hb.FourierCycle(K=2, period=1.0, coeffs=coeffs)
        ops = hb.build_operators(2)
        with pytest.raises(DegenerateCycle):
            hb.solve_hb(init, fld, ops, tol=1e-12, max_iter=6)

    def test_convergence_to_an_equilibrium_is_rejected(self):
        # a damped linear field has no cycle: from a moving guess the Newton
        # iteration drives every harmonic to zero, which solves the HB
        # system for any T
        fld = damped_field(0.25)
        coeffs = np.zeros((2, 5))
        coeffs[0, 1], coeffs[1, 2] = 1.0, 0.5
        init = hb.FourierCycle(K=2, period=6.0, coeffs=coeffs)
        with pytest.raises(DegenerateCycle, match="converged"):
            hb.solve_hb(init, fld, hb.build_operators(2), tol=1e-12,
                        max_iter=40)

    @pytest.mark.parametrize("guess", ["shooting", "fourier-k2"])
    def test_any_cycle_is_taken_as_its_series(self, guess, field20,
                                              stable_cycle_20, hopf_points):
        # the solve starts from init.to_fourier(ops.K), whatever init is
        from hhcycles.continuation import hh_family, hopf_branch_seed
        if guess == "shooting":
            cyc, fld, ops = stable_cycle_20, field20, hb.build_operators(10)
        else:
            (I2, omega0), _ = hopf_points
            cyc = hopf_branch_seed(I2 - 0.02, omega0, 2.0)
            fld, ops = hh_family()(I2 - 0.02), hb.build_operators(20)
        a = hb.solve_hb(cyc, fld, ops)
        b = hb.solve_hb(cyc.to_fourier(ops.K), fld, ops)
        assert a.K == ops.K
        assert a.period == b.period
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_fixed_period_solve_recovers_stimulus(self, hb_cycle_20):
        from hhcycles.continuation import hh_family
        fam = hh_family()
        ops = hb.build_operators(50)
        sol, I = hb.solve_hb_fixed_period(hb_cycle_20, 20.5, fam, ops,
                                          tol=1e-9)
        assert I == pytest.approx(20.0, abs=1e-6)

    def test_corrector_step_from_reused_factors_matches_plain_newton(
            self, hb_cycle_20, hb_ops_50, monkeypatch):
        # a continuation corrector on the stable branch: the I=20 cycle as
        # the predictor at I=30, under the branch's tolerance and budget
        from hhcycles.continuation import NEWTON_MAX_ITER, NEWTON_TOL, hh_family

        def solve(reuse):
            with monkeypatch.context() as m:
                log = count_factorizations(m, reuse)
                sol, I = hb.solve_hb_bordered(
                    hb_cycle_20, 30.0, hh_family(), hb_ops_50,
                    (0.0, 1.0, 30.0), NEWTON_TOL, NEWTON_MAX_ITER)
            return sol, I, log

        sol, I, log = solve(reuse=True)
        oracle, I_oracle, plain = solve(reuse=False)
        assert I == I_oracle == 30.0
        assert abs(sol.period - oracle.period) < 1e-9
        assert np.max(np.abs(sol.coeffs - oracle.coeffs)) < 1e-9
        assert "R" in log and "R" not in plain
        assert log.count("F") < plain.count("F")


def _central_jacobian(residual, z, rel=1e-6):
    cols = []
    for j in range(len(z)):
        h = rel * max(1.0, abs(z[j]))
        e = np.zeros(len(z))
        e[j] = h
        cols.append((residual(z + e) - residual(z - e)) / (2 * h))
    return np.stack(cols, axis=1)


def aft_jacobian(xb, field, ops):
    """The Newton matrix of hb_residual from one dense product per block,
    analysis @ diag(J_ij(x_nodes)) @ synthesis."""
    Jn = field.jac(hb.node_states(xb, ops))
    dim, nc = xb.dim, 2 * xb.K + 1
    ref = np.zeros((dim * nc + 1, dim * nc + 1))
    for i in range(dim):
        rows = slice(i * nc, (i + 1) * nc)
        for j in range(dim):
            ref[rows, j * nc:(j + 1) * nc] = -ops.analysis @ (
                Jn[:, i, j, None] * ops.synthesis)
        ref[rows, rows] += xb.omega * ops.D
    ref[:-1, -1] = -(2.0 * np.pi / xb.period ** 2) * (
        xb.coeffs @ ops.D.T).ravel()
    ref[-1, 2] = 1.0
    return ref


def _full_f(x):
    u, v, w = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([u * w + np.sin(v), u * np.cos(w) + v * v,
                     u * u + v * w + w ** 3], axis=-1)


def _full_jac(x):
    u, v, w = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([np.stack([w, np.cos(v), u], axis=-1),
                     np.stack([np.cos(w), 2.0 * v, -u * np.sin(w)], axis=-1),
                     np.stack([2.0 * u, w, v + 3.0 * w * w], axis=-1)],
                    axis=-2)


# a nonlinear 3-variable field whose nine Jacobian entries are all nonzero
# along a generic series
full_field = VectorField(dim=3, f=_full_f, jac=_full_jac, name="full3")


class TestCarriedFactors:
    """A bordered solve given a FactorCarry starts from the factors the
    carry's previous solve left in its arrays, and only from those."""

    @staticmethod
    def correct(cyc, I, ops, carry, monkeypatch):
        """The continuation corrector at I pinned, from cyc; returns
        (cycle, log of fresh "F" and reused "R" steps)."""
        from hhcycles.continuation import NEWTON_MAX_ITER, NEWTON_TOL, hh_family
        with monkeypatch.context() as m:
            log = count_factorizations(m)
            sol, _ = hb.solve_hb_bordered(cyc, I, hh_family(), ops,
                                          (0.0, 1.0, I), NEWTON_TOL,
                                          NEWTON_MAX_ITER, carry)
        return sol, "".join(log)

    def test_a_nearby_correction_factors_less_often(self, hb_cycle_20,
                                                    hb_ops_50, monkeypatch):
        carry = newton.FactorCarry()
        first, _ = self.correct(hb_cycle_20, 30.0, hb_ops_50, carry,
                                monkeypatch)
        again, log = self.correct(first, 30.5, hb_ops_50, carry,
                                  monkeypatch)
        oracle, plain = self.correct(first, 30.5, hb_ops_50, None,
                                     monkeypatch)
        assert carry.kept == carry.tried == 1
        assert log.count("F") < plain.count("F")
        assert abs(again.period - oracle.period) < 1e-9
        assert np.max(np.abs(again.coeffs - oracle.coeffs)) < 1e-9

    def test_a_change_of_K_makes_them_stale(self, hb_cycle_20, hb_ops_50,
                                            monkeypatch):
        carry = newton.FactorCarry()
        first, _ = self.correct(hb_cycle_20, 30.0, hb_ops_50, carry,
                                monkeypatch)
        _, log = self.correct(first, 30.5, hb.build_operators(40), carry,
                              monkeypatch)
        assert carry.tried == 0 and log.startswith("F")

    @pytest.mark.parametrize("between", ["another_corrector", "one_off_solve"])
    def test_other_solves_in_between_leave_them_valid(
            self, between, field20, stable_cycle_20):
        # the factors live in the carry's own arrays, so a correction does
        # not depend on which other solves ran since its carry's last one
        from hhcycles.continuation import _SolverAdapter, hh_family
        fam, T = hh_family(), stable_cycle_20.period
        others = {
            "another_corrector": lambda: _SolverAdapter("hb", hb_K=30).correct(
                fam, stable_cycle_20, T, 25.0, (0.0, 1.0, 25.0)),
            "one_off_solve": lambda: hb.solve_hb(stable_cycle_20, field20,
                                                 hb.build_operators(30)),
            "nothing": lambda: None}

        def two_corrections(other):
            ad = _SolverAdapter("hb", hb_K=30)
            cyc, _ = ad.correct(fam, stable_cycle_20, T, 20.5,
                                (0.0, 1.0, 20.5))
            others[other]()
            cyc, _ = ad.correct(fam, cyc, cyc.period, 21.0, (0.0, 1.0, 21.0))
            return cyc, ad.carry.counts()

        got, counts = two_corrections(between)
        ref, ref_counts = two_corrections("nothing")
        assert counts == ref_counts == (2, 1, 1, 1)
        assert got.period == ref.period
        assert np.array_equal(got.coeffs, ref.coeffs)


class TestNewtonMatrix:
    K = 8

    @pytest.fixture(scope="class")
    def cycle_k(self, field20, stable_cycle_20):
        seed = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                  stable_cycle_20.period, self.K)
        return hb.solve_hb(seed, field20, hb.build_operators(self.K))

    def test_hb_jacobian_matches_central_differences(self, field20, cycle_k):
        ops = hb.build_operators(self.K)
        z = np.concatenate([cycle_k.coeffs.ravel(), [cycle_k.period]])

        def residual(z):
            xb = hb.FourierCycle(K=self.K, period=z[-1],
                                 coeffs=z[:-1].reshape(4, -1))
            return hb.hb_residual(xb, field20, ops)

        J = hb.hb_jacobian(cycle_k, field20, ops)
        ref = _central_jacobian(residual, z)
        assert J.shape == (4 * (2 * self.K + 1) + 1,) * 2
        assert np.max(np.abs(J - ref)) < 1e-7 * np.max(np.abs(ref))

    # ids "30" and "50" are the default oversampling
    @pytest.mark.parametrize("K, oversample", [
        pytest.param(30, hb.DEFAULT_OVERSAMPLE, id="30"),
        pytest.param(50, hb.DEFAULT_OVERSAMPLE, id="50"),
        (30, 1), (30, 2), (50, 1), (50, 2)])
    def test_hb_jacobian_equals_full_block_loop(self, field20, stable_cycle_20,
                                                K, oversample):
        # the blocks from one FFT sum in another order than the block
        # products: equal to roundoff, and the 6 blocks whose J_ij is zero
        # at every node stay exactly zero
        xb = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                stable_cycle_20.period, K)
        ops = hb.build_operators(K, oversample)
        J = hb.hb_jacobian(xb, field20, ops)
        ref = aft_jacobian(xb, field20, ops)
        assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))
        zero = ~np.any(field20.jac(hb.node_states(xb, ops)), axis=0)
        assert np.count_nonzero(zero) == 6
        nc = 2 * K + 1
        for i, j in zip(*np.nonzero(zero)):
            assert not np.any(J[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc])

    @pytest.mark.parametrize("oversample", [1, 2, 4])
    @pytest.mark.parametrize("K", [1, 2, 7])
    def test_hb_jacobian_equals_full_block_loop_on_a_full_field(self, K,
                                                               oversample):
        # every coupling block nonzero, so every sign case of the
        # Toeplitz-plus-Hankel identity is read; at oversample 1 the P+Q
        # terms alias on the node grid
        rng = np.random.default_rng(10 * K + oversample)
        xb = hb.FourierCycle(K=K, period=2.5, coeffs=rng.standard_normal(
            (3, 2 * K + 1)) / np.arange(1, 2 * K + 2))
        ops = hb.build_operators(K, oversample)
        assert np.all(full_field.jac(hb.node_states(xb, ops)) != 0.0)
        J = hb.hb_jacobian(xb, full_field, ops)
        ref = aft_jacobian(xb, full_field, ops)
        assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_well_conditioned_solve_takes_no_svd(self, field20,
                                                 stable_cycle_20, monkeypatch):
        # every Newton matrix of this solve is far from singular, so the LU
        # path of dense_step must carry it without the SVD fallback
        seed = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                  stable_cycle_20.period, 10)

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD on a well-conditioned Newton matrix")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        sol = hb.solve_hb(seed, field20, hb.build_operators(10))
        assert sol.period == pytest.approx(stable_cycle_20.period, rel=1e-2)

    def test_bordered_jacobian_matches_central_differences(self, cycle_k):
        from hhcycles.continuation import hh_family
        from hhcycles.model import DEFAULT_PARAMS
        fam = hh_family()
        ops = hb.build_operators(self.K)
        row = (0.6, -0.8, 3.0)
        z = np.concatenate([cycle_k.coeffs.ravel(), [cycle_k.period, 20.3]])

        def residual(z):
            xb = hb.FourierCycle(K=self.K, period=z[-2],
                                 coeffs=z[:-2].reshape(4, -1))
            return np.append(hb.hb_residual(xb, fam(z[-1]), ops),
                             row[0] * z[-2] + row[1] * z[-1] - row[2])

        J = hb.bordered_jacobian(cycle_k, fam(20.3), ops, row)
        ref = _central_jacobian(residual, z)
        assert J.shape == (4 * (2 * self.K + 1) + 2,) * 2
        assert np.max(np.abs(J - ref)) < 1e-7 * np.max(np.abs(ref))
        # the HB block, written in place, is hb_jacobian's matrix exactly
        assert np.array_equal(J[:-1, :-1],
                              hb.hb_jacobian(cycle_k, fam(20.3), ops))
        # the I column: only the mean of V carries the stimulus, +1/C
        assert np.all(J[1:-1, -1] == 0.0)
        assert J[0, -1] == 1.0 / DEFAULT_PARAMS.C

    def test_bordered_jacobian_into_a_given_buffer(self, cycle_k):
        # the Fortran-order matrix a solve reuses for every Newton step,
        # holding an older step's values, is overwritten with the same matrix
        from hhcycles.continuation import hh_family
        fam = hh_family()
        ops = hb.build_operators(self.K)
        row = (0.6, -0.8, 3.0)
        fresh = hb.bordered_jacobian(cycle_k, fam(20.3), ops, row)
        out = np.full(fresh.shape, np.nan, order="F")
        J = hb.bordered_jacobian(cycle_k, fam(20.3), ops, row, out=out)
        assert J is out and out.flags.f_contiguous
        assert np.array_equal(out, fresh)


class TestDiagnostics:
    def test_gibbs_ripple_small_on_smooth_cycle(self, hb_cycle_20):
        assert hb.gibbs_ripple(hb_cycle_20) < 0.02

    def test_gibbs_ripple_flags_undersampled_pulse(self, stable_cycle_20):
        # truncating a spike train to 4 harmonics produces visible ringing
        coarse = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                    stable_cycle_20.period, 4)
        fine = hb.from_trajectory(stable_cycle_20.samples.states[:-1],
                                  stable_cycle_20.period, 50)
        assert hb.gibbs_ripple(coarse) > 2.0 * hb.gibbs_ripple(fine)
