"""RK4 flow, variational flow, and determinant identities."""

import numpy as np
import pytest

from hhcycles import floquet, integrate
from hhcycles.errors import NonFinite
from hhcycles.fields import VectorField, harmonic_oscillator, hh_field
from test_collocation import stuart_landau


def sho_fundamental(omega, t):
    """Exact fundamental matrix of the harmonic oscillator."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    return np.array([[c, s / omega], [-omega * s, c]])


def damped_field(gamma):
    A = np.array([[-gamma, 1.0], [-1.0, -gamma]])

    def f(x):
        x = np.asarray(x, dtype=float)
        return x @ A.T

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(A, x.shape[:-1] + (2, 2)).copy()

    return VectorField(dim=2, f=f, jac=jac, name="damped")


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            integrate.Trajectory(np.arange(3.0), np.zeros((4, 2)))

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ValueError):
            integrate.Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)))


class TestRK4:
    def test_exact_on_sho(self):
        fld = harmonic_oscillator(1.3)
        traj = integrate.integrate_rk4(fld, [1.0, 0.0], 0.0, 5.0, 1e-3)
        assert traj.times[-1] == pytest.approx(5.0, abs=1e-12)
        exact = np.cos(1.3 * traj.times[-1])
        assert traj.states[-1, 0] == pytest.approx(exact, abs=1e-10)

    def test_fourth_order_convergence(self):
        fld = harmonic_oscillator()
        x0 = [1.0, 0.0]
        errs = []
        for n in (100, 200):
            x = integrate.flow(fld, x0, 2.0, n)
            errs.append(abs(x[0] - np.cos(2.0)))
        ratio = errs[0] / errs[1]
        assert 14.0 < ratio < 18.0

    def test_final_step_is_shortened(self):
        fld = harmonic_oscillator()
        traj = integrate.integrate_rk4(fld, [1.0, 0.0], 0.0, 1.05, 0.1)
        assert traj.times[-1] == pytest.approx(1.05, abs=1e-12)
        assert traj.times[-1] - traj.times[-2] == pytest.approx(0.05, abs=1e-12)

    def test_blowup_raises(self):
        fld = VectorField(dim=1,
                          f=lambda x: np.asarray(x, float) ** 2,
                          jac=lambda x: 2.0 * np.asarray(x, float)[..., None])
        with pytest.raises(NonFinite):
            integrate.integrate_rk4(fld, [5.0], 0.0, 10.0, 0.05)

    def test_hh_overflow_ends_in_nonfinite(self):
        # n = 3 drives V far out; one-state float arithmetic overflows there
        # (n**4, math.exp), which must still surface as NonFinite, the error
        # shoot catches, and not as OverflowError
        fld = hh_field(I=20.0)
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            integrate.flow(fld, (-50.0, 3.0, 0.5, 2.0), 50.0, 2000)

    def test_argument_validation(self):
        fld = harmonic_oscillator()
        with pytest.raises(ValueError):
            integrate.integrate_rk4(fld, [1.0, 0.0], 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate.integrate_rk4(fld, [1.0, 0.0], 1.0, 0.5, 0.1)


class TestVariationalFlow:
    def test_coupled_pass_matches_exact_fundamental(self):
        omega = 0.7
        fld = harmonic_oscillator(omega)
        x, Y = integrate.flow_with_monodromy(fld, [1.0, 0.0], 3.0, 600)
        assert np.allclose(Y, sho_fundamental(omega, 3.0), atol=1e-9)
        assert np.allclose(x, sho_fundamental(omega, 3.0) @ [1.0, 0.0],
                           atol=1e-9)

    def test_variational_along_matches_coupled_pass(self):
        # Stuart-Landau transient from r=0.5 in closed form: J(x(t)) differs
        # from interval to interval, and so do the interval lengths
        fld = stuart_landau()
        c, th0 = 3.0, 0.3   # r(t)^2 = 1 / (1 + c exp(-2t)), theta = th0 + t

        def x_of_t(t):
            t = np.atleast_1d(t)
            r = 1.0 / np.sqrt(1.0 + c * np.exp(-2.0 * t))
            return np.stack([r * np.cos(th0 + t), r * np.sin(th0 + t)], axis=-1)

        edges = np.array([0.0, 0.7, 1.5, 2.6, 4.0])
        Ys, traces = integrate.variational_along(fld, x_of_t, edges, 400)
        assert Ys.shape == (4, 2, 2) and traces.shape == (4,)
        for j in range(4):
            _, Y_ref = integrate.flow_with_monodromy(
                fld, x_of_t(edges[j])[0], edges[j + 1] - edges[j], 400)
            assert np.allclose(Ys[j], Y_ref, rtol=0.0, atol=1e-10)
        # trace J = 2 - 4 r^2 integrates to 2t - 2 log(exp(2t) + c)
        g = 2.0 * edges - 2.0 * np.log(np.exp(2.0 * edges) + c)
        assert np.allclose(traces, np.diff(g), rtol=0.0, atol=1e-10)

    def test_variational_along_sho_chunks_are_rotations(self):
        fld = harmonic_oscillator(1.0)
        edges = np.array([0.0, 0.5, 2.0, 2.25, 2.0 * np.pi])
        Ys, traces = integrate.variational_along(
            fld, lambda t: np.zeros((np.size(t), 2)), edges, 500)
        for Y, L in zip(Ys, np.diff(edges)):
            assert np.allclose(Y, sho_fundamental(1.0, L), rtol=0.0, atol=1e-9)
            assert np.allclose(Y @ Y.T, np.eye(2), rtol=0.0, atol=1e-9)
        assert np.all(traces == 0.0)


class TestMonodromy:
    def test_sho_period_gives_identity(self):
        fld = harmonic_oscillator(2.0)
        _, M = integrate.flow_with_monodromy(fld, [1.0, 0.0], np.pi, 4000)
        assert np.allclose(M, np.eye(2), atol=1e-9)


class TestDeterminants:
    def test_signed_log_determinant_of_product(self):
        rng = np.random.default_rng(7)
        chunks = [rng.standard_normal((3, 3)) for _ in range(5)]
        P = np.eye(3)
        for M in chunks:
            P = M @ P
        sign, ld = integrate.signed_log_determinant(chunks)
        det = np.linalg.det(P)
        assert sign == np.sign(det)
        assert ld == pytest.approx(np.log(abs(det)), rel=1e-10)

    def test_singular_factor_detected(self):
        chunks = [np.eye(2), np.zeros((2, 2))]
        sign, ld = integrate.signed_log_determinant(chunks)
        assert sign == 0.0 and ld == -np.inf

    def test_trace_integral_constant_matrix(self):
        fld = damped_field(0.25)
        _, traces = integrate.variational_along(
            fld, lambda t: np.zeros((np.size(t), 2)), [0.0, 1.0, 3.0], 50)
        assert traces == pytest.approx([-2.0 * 0.25 * 1.0, -2.0 * 0.25 * 2.0],
                                       rel=1e-12)

    def test_monodromy_determinant_matches_trace_integral(self, field20,
                                                          hb_cycle_20):
        # the full-period determinant here is ~1e-54 and underflows, so the
        # comparison is done chunk-wise in log space
        chunks, _, trace = floquet._monodromy_matrix(hb_cycle_20, field20,
                                                     nsteps=4000)
        sign, ld = integrate.signed_log_determinant(chunks)
        assert sign > 0
        assert ld == pytest.approx(trace, rel=1e-3)
        assert ld < np.log(1e-30)
