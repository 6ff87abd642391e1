"""RK4 flow, variational flow, and determinant identities."""

import re
import tracemalloc

import numpy as np
import pytest

from hhcycles import floquet, integrate, model, shooting
from hhcycles.errors import NonFinite
from hhcycles.fields import VectorField, harmonic_oscillator, hh_field
from test_collocation import stuart_landau


def numpy_rk4_step(f, x, h):
    """The RK4 step on arrays, in the operation order the float loops keep."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def coupled_monodromy(fld, x0, T, nsteps):
    """State and variational equations as one (dim + dim^2)-vector, RK4."""
    dim = fld.dim

    def f(z):
        x = z[:dim]
        Y = z[dim:].reshape(dim, dim)
        fx = np.array(fld.f_floats(*x.tolist()))
        return np.concatenate([fx, (fld.jac(x) @ Y).ravel()])

    z = np.concatenate([np.asarray(x0, dtype=float), np.eye(dim).ravel()])
    for _ in range(nsteps):
        z = numpy_rk4_step(f, z, T / nsteps)
    return z[:dim], z[dim:].reshape(dim, dim)


def stuart_landau_transient(t, c=3.0, th0=0.3):
    """Stuart-Landau from r=0.5 in closed form: r(t)^2 = 1 / (1 + c
    exp(-2t)), theta = th0 + t."""
    t = np.atleast_1d(t)
    r = 1.0 / np.sqrt(1.0 + c * np.exp(-2.0 * t))
    return np.stack([r * np.cos(th0 + t), r * np.sin(th0 + t)], axis=-1)


def pass_case(case):
    """(field, x0, T, nsteps): Hodgkin-Huxley at I=20 from a 5 mV kick, or
    the Stuart-Landau transient."""
    if case == "hh":
        x0 = model.find_equilibrium(20.0) + np.array([5.0, 0, 0, 0])
        return hh_field(I=20.0), x0, 12.0, 2000
    return stuart_landau(), stuart_landau_transient(0.0)[0], 1.6, 400


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
        # the last state is one RK4 step of that length
        last = integrate.flow(fld, traj.states[-2],
                              traj.times[-1] - traj.times[-2], 1)
        assert np.array_equal(traj.states[-1], last)

    def test_blowup_raises(self):
        # x' = x^2 from 5 blows up near t = 0.2; the error names the time of
        # the first non-finite state of the same steps on arrays
        fld = VectorField(dim=1,
                          f=lambda x: np.asarray(x, float) ** 2,
                          jac=lambda x: 2.0 * np.asarray(x, float)[..., None])
        x, i = np.array([5.0]), 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(x)):
                x, i = numpy_rk4_step(fld.f, x, 0.05), i + 1
            message = re.escape(f"at t={i * 0.05:.6g}") + "$"
            with pytest.raises(NonFinite, match=message):
                integrate.integrate_rk4(fld, [5.0], 0.0, 10.0, 0.05)

    def test_hh_overflow_ends_in_nonfinite(self):
        # n = 3 drives V far out; one-state float arithmetic overflows there
        # (n**4, math.exp), which must still surface as NonFinite, the error
        # shoot catches, and not as OverflowError
        fld = hh_field(I=20.0)
        x0 = (-50.0, 3.0, 0.5, 2.0)
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            integrate.flow(fld, x0, 50.0, 2000)
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            integrate.integrate_rk4(fld, x0, 0.0, 50.0, 0.025)
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            integrate.flow_with_monodromy(fld, x0, 50.0, 2000)

    def test_float_loop_matches_a_numpy_loop(self):
        # the same field values stepped on arrays: the float loop keeps
        # numpy's operation order, so the states agree bit for bit
        fld = hh_field(I=20.0)
        x0 = model.find_equilibrium(20.0) + np.array([5.0, 0.0, 0.0, 0.0])
        traj = integrate.integrate_rk4(fld, x0, 0.0, 25.0, 0.01)
        assert traj.states.shape == (2501, 4)

        def f(x):
            return np.array(fld.f_floats(*x.tolist()))

        ref = [x0]
        for _ in range(2500):
            ref.append(numpy_rk4_step(f, ref[-1], 0.01))
        assert np.array_equal(traj.states, np.array(ref))
        assert np.array_equal(integrate.flow(fld, x0, 25.0, 2500), ref[-1])

    @pytest.mark.parametrize("span, n", [
        pytest.param(12.0, 2000, id="whole-steps"),
        pytest.param(25.037, 2503, id="short-last-step")])
    def test_numpy_scalar_step_runs_the_loop_in_floats(self, span, n):
        # a period read from a Newton vector is an np.float64, and so is
        # its step span / n; the loop still steps in Python floats (an
        # np.float64 would pass isinstance(a, float), hence type() here)
        base = hh_field(I=20.0)
        seen = set()

        def f_floats(*x):
            seen.update(map(type, x))
            return base.f_floats(*x)

        fld = VectorField(dim=4, f=base.f, jac=base.jac, f_floats=f_floats)
        x0 = model.find_equilibrium(20.0) + np.array([5.0, 0.0, 0.0, 0.0])
        T = np.float64(span)
        ref = integrate.integrate_rk4(base, x0, 0.0, span, span / n)
        traj = integrate.integrate_rk4(fld, x0, 0.0, T, T / n)
        assert seen == {float}
        assert np.array_equal(traj.times, ref.times)
        assert np.array_equal(traj.states, ref.states)

    @pytest.mark.parametrize("case", ["decay", "stuart-landau", "hh"])
    @pytest.mark.parametrize("span", [
        pytest.param(25.037, id="short-last-step"),
        pytest.param(0.004, id="one-step")])
    def test_loop_matches_numpy_steps_in_every_dimension(self, case, span):
        # the loop written out for 1, 2 and 4 components against the RK4
        # step on arrays: 2503 steps of 0.01 (three check blocks) and a
        # last step of 0.007, or one step of 0.004
        fld, x0 = {
            "decay": (VectorField(dim=1, f=lambda x: -0.3 * np.asarray(x),
                                  jac=lambda x: np.full(np.shape(x) + (1,),
                                                        -0.3),
                                  f_floats=lambda x: (-0.3 * x,)), [1.7]),
            "stuart-landau": (stuart_landau(),
                              stuart_landau_transient(0.0)[0]),
            "hh": (hh_field(I=20.0), model.find_equilibrium(20.0)
                   + np.array([5.0, 0.0, 0.0, 0.0]))}[case]
        traj = integrate.integrate_rk4(fld, x0, 0.0, span, 0.01)

        def f(x):
            return np.array(fld.f_floats(*x.tolist()))

        steps = np.diff(traj.times)
        assert len(steps) == {25.037: 2504, 0.004: 1}[span]
        ref = [np.asarray(x0, dtype=float)]
        for _ in steps[:-1]:
            ref.append(numpy_rk4_step(f, ref[-1], 0.01))
        ref.append(numpy_rk4_step(f, ref[-1], span - traj.times[-2]))
        assert traj.states.shape == (len(ref), fld.dim)
        assert np.array_equal(traj.states, np.array(ref))

    def test_pass_stores_its_states_compactly(self, field20):
        # 30,000 steps: the pass's peak allocation stays near its (30001, 4)
        # result, not one Python object per step
        x0 = model.find_equilibrium(20.0) + np.array([5.0, 0.0, 0.0, 0.0])
        integrate.integrate_rk4(field20, x0, 0.0, 1.0, 0.01)   # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = integrate.integrate_rk4(field20, x0, 0.0, 300.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (30001, 4)
        assert peak <= 2.0 * traj.states.nbytes

    def test_blowup_stops_within_one_check_block(self):
        # x' = x^2 in floats overflows to inf, not OverflowError: the pass
        # stops at the end of the check block that turned non-finite, and
        # still names the first non-finite time of the steps on arrays
        calls = []

        def f_floats(x):
            calls.append(x)
            return (x * x,)

        fld = VectorField(dim=1, f=lambda x: np.asarray(x, float) ** 2,
                          jac=lambda x: 2.0 * np.asarray(x, float)[..., None],
                          f_floats=f_floats)
        x, i = np.array([5.0]), 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(x)):
                x, i = numpy_rk4_step(fld.f, x, 0.05), i + 1
        calls.clear()
        message = re.escape(f"at t={i * 0.05:.6g}") + "$"
        with pytest.raises(NonFinite, match=message):
            integrate.integrate_rk4(fld, [5.0], 0.0, 1000.0, 0.05)
        assert i < integrate.CHECK_BLOCK
        assert len(calls) == 4 * integrate.CHECK_BLOCK

    @pytest.mark.parametrize("case", ["hh", "stuart-landau"])
    def test_every_pass_ends_on_the_loops_last_state(self, case):
        # flow and variational_flow take their states from integrate_rk4
        fld, x0, T, n = pass_case(case)
        end = integrate.integrate_rk4(fld, x0, 0.0, T, T / n).states[-1]
        assert np.array_equal(integrate.flow(fld, x0, T, n), end)
        x, _ = integrate.flow_with_monodromy(fld, x0, T, n)
        assert np.array_equal(x, end)
        x, _, _ = integrate.variational_flow(fld, x0, T / n, 4, n // 4)
        assert np.array_equal(x, end)

    def test_settle_has_one_sample_per_step(self, field20):
        # 30,000 steps of 0.01 ms: summing the step would stop just short
        # of 300 ms and add a step of about 1e-10 ms; and the settle's own
        # step over its 300 ms cap
        eq = model.find_equilibrium(20.0)
        for h, steps in [(0.01, 30_000),
                         (shooting.SETTLE_STEP,
                          round(300.0 / shooting.SETTLE_STEP))]:
            traj = integrate.integrate_rk4(field20,
                                           eq + [5.0, 0.0, 0.0, 0.0],
                                           0.0, 300.0, h)
            assert len(traj.times) == steps + 1
            assert traj.times[-1] == 300.0
            assert np.min(np.diff(traj.times)) > 0.999 * h

    def test_cycle_samples_over_a_sweep_of_periods(self):
        # one sample per step of T / CYCLE_SAMPLES for every period; a
        # near-duplicate last sample would be fitted as an even one
        fld = VectorField(dim=1, f=lambda x: np.zeros_like(x),
                          jac=lambda x: np.zeros(np.shape(x) + (1,)),
                          f_floats=lambda x: (0.0,))
        n = shooting.CYCLE_SAMPLES
        for T in np.linspace(10.0, 20.0, 2001):
            traj = integrate.integrate_rk4(fld, [0.0], 0.0, T, T / n)
            assert len(traj.times) == n + 1
            assert traj.times[-1] == T
            assert np.min(np.diff(traj.times)) > 0.999 * T / n

    def test_field_without_a_float_member(self):
        # the harmonic oscillator gets the wrapper around f
        fld = harmonic_oscillator(1.3)
        assert fld.f_floats(1.0, 2.0) == (2.0, -1.3 * 1.3)
        T = 2.0 * np.pi / 1.3
        traj = integrate.integrate_rk4(fld, [1.0, 0.0], 0.0, T, T / 1000)
        assert np.allclose(traj.states[-1], [1.0, 0.0], rtol=0.0, atol=1e-9)
        x = integrate.flow(fld, [1.0, 0.0], T, 1000)
        assert np.array_equal(x, traj.states[-1])
        x, Y = integrate.flow_with_monodromy(fld, [1.0, 0.0], T, 1000)
        assert np.array_equal(x, traj.states[-1])
        assert np.allclose(Y, np.eye(2), rtol=0.0, atol=1e-9)

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

    @pytest.mark.parametrize("case", ["hh", "stuart-landau"])
    def test_stage_jacobians_match_the_coupled_pass(self, case):
        # the step matrices from the stage states against one RK4 of the
        # (dim + dim^2)-vector: the same state bit for bit, Y to roundoff
        fld, x0, T, nsteps = pass_case(case)
        x, Y = integrate.flow_with_monodromy(fld, x0, T, nsteps)
        x_ref, Y_ref = coupled_monodromy(fld, x0, T, nsteps)
        assert np.array_equal(x, x_ref)
        assert np.max(np.abs(Y - Y_ref)) <= 1e-12 * np.max(np.abs(Y_ref))

    def test_chunked_pass_matches_chunk_by_chunk_flows(self):
        # one pass over 4 chunks against 4 flows restarted at the chunk
        # edges, and the RK4 trace quadrature against the exact integral
        fld = stuart_landau()
        C, n, h = 4, 400, 1e-3
        x, Ys, traces = integrate.variational_flow(
            fld, stuart_landau_transient(0.0)[0], h, C, n)
        xj = stuart_landau_transient(0.0)[0]
        for j in range(C):
            xj, Y = integrate.flow_with_monodromy(fld, xj, n * h, n)
            assert np.max(np.abs(Ys[j] - Y)) <= 1e-14 * np.max(np.abs(Y))
        assert np.array_equal(x, xj)
        edges = np.arange(C + 1) * (n * h)
        g = 2.0 * edges - 2.0 * np.log(np.exp(2.0 * edges) + 3.0)
        assert np.allclose(traces, np.diff(g), rtol=0.0, atol=1e-10)

    def test_variational_along_matches_coupled_pass(self):
        # Stuart-Landau transient from r=0.5 in closed form: J(x(t)) differs
        # from interval to interval
        fld = stuart_landau()
        C, n, h = 4, 400, 1e-3
        states = stuart_landau_transient(np.arange(2 * C * n + 1) * (0.5 * h))
        Ys, traces = integrate.variational_along(fld, states, h, C)
        assert Ys.shape == (4, 2, 2) and traces.shape == (4,)
        edges = np.arange(C + 1) * (n * h)
        for j in range(C):
            _, Y_ref = integrate.flow_with_monodromy(
                fld, stuart_landau_transient(edges[j])[0], n * h, n)
            assert np.allclose(Ys[j], Y_ref, rtol=0.0, atol=1e-10)
        # trace J = 2 - 4 r^2 integrates to 2t - 2 log(exp(2t) + 3)
        g = 2.0 * edges - 2.0 * np.log(np.exp(2.0 * edges) + 3.0)
        assert np.allclose(traces, np.diff(g), rtol=0.0, atol=1e-10)

    def test_variational_along_sho_chunks_are_rotations(self):
        fld = harmonic_oscillator(1.0)
        C, n = 4, 500
        h = 2.0 * np.pi / (C * n)
        Ys, traces = integrate.variational_along(
            fld, np.zeros((2 * C * n + 1, 2)), h, C)
        for Y in Ys:
            assert np.allclose(Y, sho_fundamental(1.0, n * h), rtol=0.0,
                               atol=1e-9)
            assert np.allclose(Y @ Y.T, np.eye(2), rtol=0.0, atol=1e-9)
        assert np.all(traces == 0.0)

    def test_step_matrices_match_a_per_step_rk4_loop(self, field20,
                                                     hb_cycle_20):
        # the plain RK4 of Ydot = J Y, one step at a time per interval
        C, n = 4, 60
        h = hb_cycle_20.period / (C * n)
        states = hb_cycle_20.states_on_grid(2 * C * n)
        states = np.concatenate([states, states[:1]])
        Ys, _ = integrate.variational_along(field20, states, h, C)
        J = field20.jac(states)
        for j in range(C):
            Y = np.eye(4)
            for i in range(j * n, (j + 1) * n):
                J1, Jm, J2 = J[2 * i], J[2 * i + 1], J[2 * i + 2]
                k1 = J1 @ Y
                k2 = Jm @ (Y + 0.5 * h * k1)
                k3 = Jm @ (Y + 0.5 * h * k2)
                k4 = J2 @ (Y + h * k3)
                Y = Y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.max(np.abs(Ys[j] - Y)) <= 1e-13 * np.max(np.abs(Y))

    def test_products_of_a_pass_run_first_match_the_coupled_pass(self):
        fld, x0, T, nsteps = pass_case("hh")
        h = T / nsteps
        x, Y, traces = integrate.variational_flow(fld, x0, h, 4, nsteps // 4)
        states = integrate.integrate_rk4(fld, x0, 0.0, nsteps * h, h).states
        Y2, traces2 = integrate.variational_of_pass(fld, states, h, 4)
        assert np.array_equal(Y2, Y) and np.array_equal(traces2, traces)

    def test_results_do_not_alias_the_kept_buffers(self):
        # one step per interval: the product of one factor is that factor,
        # which is formed in a kept buffer, so it must come back as a copy
        fld = stuart_landau()
        h = 1e-3
        first = integrate.variational_along(
            fld, stuart_landau_transient(np.arange(9) * (0.5 * h)), h, 4)[0]
        kept = first.copy()
        integrate.variational_along(
            fld, stuart_landau_transient(1.0 + np.arange(9) * (0.5 * h)), h,
            4)
        assert np.array_equal(first, kept)
        assert not any(np.shares_memory(first, b)
                       for b in integrate.kept_arrays(
                           "integrate.step_products", (4, 1, 2, 2), 3))

    def test_states_must_tile_whole_steps(self):
        fld = harmonic_oscillator(1.0)
        with pytest.raises(ValueError):
            integrate.variational_along(fld, np.zeros((2 * 4 * 5, 2)), 0.1, 4)


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
            fld, np.zeros((2 * 2 * 50 + 1, 2)), 0.02, 2)
        assert traces == pytest.approx([-2.0 * 0.25 * 1.0] * 2, rel=1e-12)

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
