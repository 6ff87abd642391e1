"""Fourier representation, spectral operators and harmonic-balance solves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhcycles import hb
from hhcycles.errors import SingularJacobian
from hhcycles.fields import harmonic_oscillator


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
        t = np.linspace(0, hb_cycle_20.period, 256, endpoint=False)
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
        with pytest.raises(Exception):
            sol = hb.solve_hb(init, fld, ops, tol=1e-12, max_iter=6)
            # if it "converges" it must be the trivial solution; reject it
            assert np.max(np.abs(sol.coeffs[:, 1:])) > 1e-6

    def test_fixed_period_solve_recovers_stimulus(self, hb_cycle_20):
        from hhcycles.continuation import hh_family
        fam = hh_family()
        ops = hb.build_operators(50)
        sol, I = hb.solve_hb_fixed_period(hb_cycle_20, 20.5, fam, ops,
                                          tol=1e-9)
        assert I == pytest.approx(20.0, abs=1e-6)


def _central_jacobian(residual, z, rel=1e-6):
    cols = []
    for j in range(len(z)):
        h = rel * max(1.0, abs(z[j]))
        e = np.zeros(len(z))
        e[j] = h
        cols.append((residual(z + e) - residual(z - e)) / (2 * h))
    return np.stack(cols, axis=1)


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

        J = hb.bordered_jacobian(cycle_k, 20.3, fam, ops, row,
                                 residual(z)[:-1])
        ref = _central_jacobian(residual, z)
        assert J.shape == (4 * (2 * self.K + 1) + 2,) * 2
        assert np.max(np.abs(J - ref)) < 1e-7 * np.max(np.abs(ref))
        # the I column: only the mean of V carries the stimulus, +1/C
        assert np.max(np.abs(J[1:-2, -1])) < 1e-6
        assert J[0, -1] == pytest.approx(1.0 / DEFAULT_PARAMS.C, rel=1e-6)

    def test_newton_takes_minimum_norm_step_on_singular_system(self):
        # consistent but rank-deficient: a line of solutions, and the step
        # from the origin lands on the one of least norm
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        b = A @ rng.standard_normal(5)
        z, rn = hb._newton(lambda z: A @ z - b, lambda z, r: A,
                           np.zeros(5), tol=1e-10, max_iter=5)
        assert rn < 1e-10
        assert np.allclose(z, np.linalg.pinv(A) @ b, atol=1e-10)

    def test_newton_raises_on_ill_conditioned_full_rank_system(self):
        rng = np.random.default_rng(8)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = U @ np.diag(np.logspace(0, -15, 6)) @ V.T
        with pytest.raises(SingularJacobian):
            hb._newton(lambda z: A @ z - 1.0, lambda z, r: A, np.zeros(6),
                       tol=1e-10, max_iter=5)


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
