"""Hermite-Simpson collocation for periodic orbits."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhcycles import collocation, newton, shooting
from hhcycles.continuation import hh_family
from hhcycles.errors import DegenerateCycle, MeshTooCoarse, SingularJacobian
from hhcycles.fields import VectorField, constant_family, harmonic_oscillator
from hhcycles.integrate import Trajectory
from test_newton import count_factorizations


def stuart_landau():
    """Planar oscillator with the unit circle as a hyperbolic limit cycle.

    xdot = x (1 - r^2) - y, ydot = y (1 - r^2) + x; exact period 2*pi.
    """
    def f(x):
        x = np.asarray(x, dtype=float)
        a, b = x[..., 0], x[..., 1]
        s = 1.0 - a * a - b * b
        return np.stack([a * s - b, b * s + a], axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        a, b = x[..., 0], x[..., 1]
        s = 1.0 - a * a - b * b
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = s - 2.0 * a * a
        J[..., 0, 1] = -2.0 * a * b - 1.0
        J[..., 1, 0] = -2.0 * a * b + 1.0
        J[..., 1, 1] = s - 2.0 * b * b
        return J

    return VectorField(dim=2, f=f, jac=jac, name="stuart-landau")


def stuart_landau_3d(multiplier=1e8):
    """stuart_landau in (x, y) beside zdot = lam z: the unit circle at z = 0
    is a cycle of period 2*pi whose z multiplier exp(2*pi*lam) is given."""
    lam = np.log(multiplier) / (2 * np.pi)
    planar = stuart_landau()

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([planar.f(x[..., :2]), lam * x[..., 2:]],
                              axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., :2, :2] = planar.jac(x[..., :2])
        J[..., 2, 2] = lam
        return J

    return VectorField(dim=3, f=f, jac=jac, name="stuart-landau-3d")


def circle_guess(amplitude=1.0, period_factor=1.0, nsamples=200):
    """Time-domain near-circular cycle guess with period 2*pi*factor."""
    T = 2 * np.pi * period_factor
    t = np.linspace(0.0, T, nsamples + 1)
    th = 2 * np.pi * t / T
    states = np.stack([amplitude * np.cos(th),
                       amplitude * np.sin(th)], axis=1)
    return shooting.Cycle(period=T, samples=Trajectory(t, states))


def tilted_circle_guess():
    """A 3-D guess off the stuart_landau_3d cycle in radius, z and period."""
    T = 2 * np.pi * 1.03
    t = np.linspace(0.0, T, 201)
    th = 2 * np.pi * t / T
    states = np.stack([1.1 * np.cos(th), 1.1 * np.sin(th), 0.1 * np.cos(th)],
                      axis=1)
    return shooting.Cycle(period=T, samples=Trajectory(t, states))


def newton_system(monkeypatch, field_at, cycle, N, I, row):
    """(residual, step, z) of the collocation Newton on the uniform N-interval
    mesh, z being cycle sampled there with its period and I.  residual(z)
    returns the residual alone; step(z, r) takes the by-products of the
    residual's evaluation at z."""
    got, by = {}, {}

    def capture(residual, step, z0, tol, max_iter, what):
        got.update(residual=residual, step=step, z=z0)
        return z0, 0.0, None

    mesh = collocation.Mesh(np.linspace(0.0, 1.0, N + 1))
    ref = collocation.PhaseReference.from_cycle(cycle, mesh, field_at(I))
    with monkeypatch.context() as m:
        m.setattr(newton, "damped_newton", capture)
        collocation._newton_collocation(field_at, mesh, ref.y, ref.mid,
                                        cycle.period, I, ref, row)

    def residual(z):
        r, by[z.tobytes()] = got["residual"](z)
        return r

    def step(z, r):
        return got["step"](z, r, by[z.tobytes()])
    return residual, step, got["z"]


class TestMesh:
    def test_breakpoint_validation(self):
        with pytest.raises(ValueError):
            collocation.Mesh(np.array([0.0, 0.5, 0.4, 1.0]))
        with pytest.raises(ValueError):
            collocation.Mesh(np.array([0.1, 0.5, 1.0]))

    def test_widths(self):
        m = collocation.Mesh(np.array([0.0, 0.25, 1.0]))
        assert m.N == 2
        assert np.allclose(m.widths, [0.25, 0.75])


class TestSolvePlanar:
    def test_period_and_orbit(self):
        fld = stuart_landau()
        sol = collocation.solve_bvp(fld, circle_guess(1.2, 1.03),
                                    tol=1e-6, N=40)
        assert sol.period == pytest.approx(2 * np.pi, rel=1e-6)
        tau = np.linspace(0, 1, 97)
        pts = sol.evaluate(tau)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(r, 1.0, atol=1e-5)

    def test_node_fields_are_computed_once(self):
        # evaluate and residual_profile share f(y) and f(mid) of the solution
        fld = stuart_landau()
        sol = collocation.solve_bvp(fld, circle_guess(1.2, 1.03),
                                    tol=1e-6, N=40)
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return fld.f(x)

        fresh = collocation.CollocationSolution(
            mesh=sol.mesh, y=sol.y, mid=sol.mid, period=sol.period,
            field=VectorField(dim=2, f=counted, jac=fld.jac))
        tau = np.linspace(0.0, 1.0, 97)
        assert np.array_equal(fresh.evaluate(tau), sol.evaluate(tau))
        assert np.array_equal(fresh.evaluate(tau[::3]), sol.evaluate(tau[::3]))
        assert np.allclose(fresh.states_on_grid(64),
                           sol.evaluate_time(np.arange(64) * sol.period / 64),
                           rtol=0.0, atol=1e-12)
        profile = fresh.residual_profile()
        assert calls.count(sol.y.shape) == 2   # f(y), f(mid): once each
        assert len(calls) == 3                 # + the interior samples
        # the profile too is computed once, and no caller can change it
        assert fresh.residual_profile() is profile
        assert len(calls) == 3
        assert not profile.flags.writeable
        assert np.array_equal(profile, sol.residual_profile())

    def test_fourth_order_period_convergence(self):
        fld = stuart_landau()
        errs = []
        for N in (10, 20):
            mesh = collocation.Mesh(np.linspace(0.0, 1.0, N + 1))
            sol = collocation.solve_bvp(fld, circle_guess(1.1, 1.02),
                                        tol=1.0, mesh=mesh,
                                        max_refinements=0)
            errs.append(abs(sol.period - 2 * np.pi))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_degenerate_guess_rejected(self):
        fld = harmonic_oscillator()
        t = np.linspace(0.0, 1.0, 11)
        flat = shooting.Cycle(period=1.0,
                              samples=Trajectory(t, np.zeros((11, 2))))
        with pytest.raises(DegenerateCycle):
            collocation.solve_bvp(fld, flat)


class TestStructuredStep:
    """The condensed, cyclically reduced Newton step against the residual."""

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 64])
    @pytest.mark.parametrize("bordered", [False, True])
    def test_step_solves_the_linearised_residual(self, monkeypatch, N,
                                                 bordered, stable_cycle_20):
        # (residual(z + e d) - residual(z - e d)) / 2e = J d, which must be
        # -r; odd N carries a last interval up some level, N = 1 has none
        T = stable_cycle_20.period
        row = (0.3, 1.0, 0.3 * T + 20.5) if bordered else (0.0, 1.0, 20.0)
        residual, step, z = newton_system(monkeypatch, hh_family(),
                                          stable_cycle_20, N, 20.0, row)
        r = residual(z)
        delta, again = step(z, r)
        e = 1e-4 / np.max(np.abs(delta))
        Jd = (residual(z + e * delta) - residual(z - e * delta)) / (2 * e)
        assert np.max(np.abs(Jd + r)) < 1e-6 * np.max(np.abs(r))
        assert np.allclose(again(r), delta, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(delta)))

    @pytest.mark.parametrize("N", [5, 13, 16])
    def test_step_matches_a_dense_solve(self, monkeypatch, N):
        # a cycle with a 1e8 multiplier; the dense Jacobian by central
        # differences of the residual, which is cubic in the unknowns
        field = stuart_landau_3d(1e8)
        residual, step, z = newton_system(
            monkeypatch, constant_family(field), tilted_circle_guess(), N,
            0.0, (0.2, 1.0, 0.5))
        r = residual(z)
        n, h = len(z), 1e-6
        J = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            J[:, k] = (residual(z + e) - residual(z - e)) / (2 * h)
        oracle = np.linalg.solve(J, -r)
        delta, _ = step(z, r)
        assert np.max(np.abs(delta - oracle)) < 1e-8 * np.max(np.abs(oracle))

    def test_solve_finds_the_strongly_unstable_cycle(self):
        sol = collocation.solve_bvp(stuart_landau_3d(1e8),
                                    tilted_circle_guess(), tol=1e-6, N=40)
        assert sol.period == pytest.approx(2 * np.pi, rel=1e-7)
        assert np.max(np.abs(sol.y[:, 2])) < 1e-12
        assert np.allclose(np.hypot(sol.y[:, 0], sol.y[:, 1]), 1.0,
                           atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_raises(self, bad):
        # raised before any arithmetic on the blocks, so numpy warns of
        # nothing on the way
        planar = stuart_landau()

        def jac(x):
            J = planar.jac(x)
            J[..., 0, 1] = bad
            return J

        field = VectorField(dim=2, f=planar.f, jac=jac)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian):
                collocation.solve_bvp(field, circle_guess(1.2, 1.03), N=20)

    def test_rank_deficient_pair_raises(self):
        # the pair (F_0, E_1) has a zero column: x_1's second component
        # enters neither row, so the ring is singular
        E = np.tile(np.eye(2), (4, 1, 1))
        F = -E.copy()
        F[0, :, 1] = 0.0
        E[1, :, 1] = 0.0
        with pytest.raises(SingularJacobian):
            collocation._reduce_ring(E, F, np.zeros((4, 2, 2)),
                                     np.ones((4, 2)), np.zeros(2))

    def test_step_takes_the_field_values_of_its_residual(self, monkeypatch):
        # the residual evaluates f at the breakpoints and midpoints; the step
        # at the same point reads those values, not f again
        planar = stuart_landau()
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return planar.f(x)

        field = VectorField(dim=2, f=counted, jac=planar.jac)
        residual, step, z = newton_system(
            monkeypatch, constant_family(field), circle_guess(1.2, 1.03), 16,
            0.0, (0.0, 1.0, 0.0))
        r = residual(z)
        calls.clear()
        step(z, r)
        assert calls == []


class TestSolveHH:
    def test_matches_shooting_period(self, field20, stable_cycle_20):
        sol = collocation.solve_bvp(field20, stable_cycle_20, tol=1e-5,
                                    N=200, max_N=1200)
        assert sol.period == pytest.approx(stable_cycle_20.period, rel=1e-7)

    def test_refinement_concentrates_on_the_spike(self, field20,
                                                  stable_cycle_20):
        sol = collocation.solve_bvp(field20, stable_cycle_20, tol=1e-5,
                                    N=200, max_N=1200)
        assert sol.mesh.N > 200   # refinement actually happened
        assert np.max(sol.residual_profile()) < 1e-5
        # smallest subintervals should be much finer than the average
        assert np.min(sol.mesh.widths) < 0.2 * np.mean(sol.mesh.widths)

    def test_accepts_fourier_initial_guess(self, field20, hb_cycle_20,
                                           stable_cycle_20):
        sol = collocation.solve_bvp(field20, hb_cycle_20, tol=1e-4, N=300,
                                    max_N=1200)
        assert sol.period == pytest.approx(stable_cycle_20.period, rel=1e-6)

    def test_mesh_cap_raises(self, field20, stable_cycle_20):
        with pytest.raises(MeshTooCoarse):
            collocation.solve_bvp(field20, stable_cycle_20, tol=1e-10,
                                  N=50, max_N=60, max_refinements=2)

    def test_fixed_period_solve_recovers_stimulus(self, field20,
                                                  stable_cycle_20):
        from hhcycles.continuation import hh_family
        sol = collocation.solve_bvp(field20, stable_cycle_20, tol=1e-4,
                                    N=200, max_N=1200)
        sol2, I = collocation.solve_bvp_fixed_period(hh_family(), sol, 20.3)
        assert I == pytest.approx(20.0, abs=1e-6)
        assert sol2.period == pytest.approx(sol.period, rel=1e-10)

    def test_step_from_reused_factors_matches_plain_newton(
            self, stable_cycle_20, monkeypatch):
        # the I=20 shooting cycle as the predictor at I=21, on a mesh that
        # refinement changes
        from hhcycles.continuation import hh_family

        def solve(reuse):
            with monkeypatch.context() as m:
                log = count_factorizations(m, reuse)
                sol, I = collocation.solve_bvp_bordered(
                    hh_family(), stable_cycle_20, 21.0, (0.0, 1.0, 21.0),
                    1e-4, 1200, 2, collocation.Mesh(np.linspace(0, 1, 201)))
            return sol, log

        sol, log = solve(reuse=True)
        oracle, plain = solve(reuse=False)
        assert sol.mesh.N == oracle.mesh.N > 200
        assert np.array_equal(sol.mesh.breakpoints, oracle.mesh.breakpoints)
        assert abs(sol.period - oracle.period) < 1e-9
        assert np.max(np.abs(sol.y - oracle.y)) < 1e-9
        assert np.max(np.abs(sol.mid - oracle.mid)) < 1e-9
        assert "R" in log and "R" not in plain
        assert log.count("F") < plain.count("F")

    def test_fixed_period_needs_collocation_seed(self, stable_cycle_20):
        from hhcycles.continuation import hh_family
        with pytest.raises(TypeError):
            collocation.solve_bvp_fixed_period(hh_family(), stable_cycle_20,
                                               20.0)


def refine_mesh_loop(mesh, residual_profile, target, max_N):
    """refine_mesh written as Python loops, the oracle for its array form."""
    pieces = np.ones(mesh.N, dtype=int)
    above = residual_profile > target
    pieces[above] = np.clip(
        np.ceil((residual_profile[above] / target) ** 0.25).astype(int), 2, 16)
    if mesh.N + int(np.sum(pieces - 1)) > max_N:
        budget = max_N - mesh.N
        scaled = np.ones(mesh.N, dtype=int)
        for i in np.argsort(-residual_profile):
            take = min(pieces[i] - 1, budget)
            scaled[i] = 1 + take
            budget -= take
            if budget == 0:
                break
        pieces = scaled
    pts = [mesh.breakpoints[0]]
    for i in range(mesh.N):
        for j in range(1, pieces[i]):
            pts.append(mesh.breakpoints[i]
                       + (mesh.breakpoints[i + 1] - mesh.breakpoints[i])
                       * j / pieces[i])
        pts.append(mesh.breakpoints[i + 1])
    return np.array(sorted(set(pts)))


class TestRefineMesh:
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, N, seed, extra_cap):
        rng = np.random.default_rng(seed)
        inner = np.sort(rng.choice(np.arange(1, 1000), N - 1, replace=False))
        mesh = collocation.Mesh(np.concatenate([[0.0], inner / 1000.0, [1.0]]))
        # ties in the profile exercise argsort's order in the budget cut
        prof = 10.0 ** rng.integers(-10, 0, N).astype(float)
        max_N = N + extra_cap
        out = collocation.refine_mesh(mesh, prof, 1e-6, max_N)
        assert np.array_equal(out.breakpoints,
                              refine_mesh_loop(mesh, prof, 1e-6, max_N))
        assert out.N <= max_N

    def test_target_mode_splits_proportionally(self):
        mesh = collocation.Mesh(np.linspace(0.0, 1.0, 3))
        prof = np.array([1.6e-3, 1e-8])
        out = collocation.refine_mesh(mesh, prof, target=1e-6)
        # (1.6e-3 / 1e-6)^(1/4) ~ 6.3 -> 7 pieces; the clean interval stays
        assert out.N == 8

    def test_budget_cap(self):
        mesh = collocation.Mesh(np.linspace(0.0, 1.0, 3))
        prof = np.array([1.0, 1.0])
        out = collocation.refine_mesh(mesh, prof, max_N=3, target=1e-12)
        assert out.N == 3
        with pytest.raises(MeshTooCoarse):
            collocation.refine_mesh(out, np.ones(3), max_N=3, target=1e-12)
