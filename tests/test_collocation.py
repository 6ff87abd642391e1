"""Hermite-Simpson collocation for periodic orbits."""

import numpy as np
import pytest

from hhcycles import collocation, shooting
from hhcycles.errors import DegenerateCycle, MeshTooCoarse
from hhcycles.fields import VectorField, harmonic_oscillator
from hhcycles.integrate import Trajectory


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


def circle_guess(amplitude=1.0, period_factor=1.0, nsamples=200):
    """Time-domain near-circular cycle guess with period 2*pi*factor."""
    T = 2 * np.pi * period_factor
    t = np.linspace(0.0, T, nsamples + 1)
    th = 2 * np.pi * t / T
    states = np.stack([amplitude * np.cos(th),
                       amplitude * np.sin(th)], axis=1)
    return shooting.Cycle(period=T, anchor_state=states[0],
                          samples=Trajectory(t, states))


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
        flat = shooting.Cycle(period=1.0, anchor_state=np.zeros(2),
                              samples=Trajectory(t, np.zeros((11, 2))))
        with pytest.raises(DegenerateCycle):
            collocation.solve_bvp(fld, flat)


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

    def test_to_cycle_closes(self, field20, stable_cycle_20):
        sol = collocation.solve_bvp(field20, stable_cycle_20, tol=1e-4,
                                    N=200, max_N=1200)
        cyc = sol.to_time_cycle()
        assert cyc.source == "collocation"
        assert np.allclose(cyc.samples.states[-1], cyc.samples.states[0])

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

    def test_fixed_period_needs_collocation_seed(self, stable_cycle_20):
        from hhcycles.continuation import hh_family
        with pytest.raises(TypeError):
            collocation.solve_bvp_fixed_period(hh_family(), stable_cycle_20,
                                               20.0)


class TestRefineMesh:
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
