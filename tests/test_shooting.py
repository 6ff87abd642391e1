"""Single shooting and transient-based cycle guesses."""

import numpy as np
import pytest

from hhcycles import integrate, model, newton, shooting
from hhcycles.errors import NoConvergence, NoOscillation
from hhcycles.fields import hh_field


def kick(I):
    return model.find_equilibrium(I) + np.array([5.0, 0, 0, 0])


def counting(monkeypatch, name, count=lambda result: 1):
    """Wrap integrate.<name> to total count(result) over its calls."""
    total = [0]
    original = getattr(integrate, name)

    def counted(*args):
        result = original(*args)
        total[0] += count(result)
        return result
    monkeypatch.setattr(integrate, name, counted)
    return total


def count_rk4_steps(monkeypatch):
    return counting(monkeypatch, "integrate_rk4",
                    lambda traj: len(traj.times) - 1)


def flow_passes(monkeypatch):
    """Count the shooting residual's RK4 passes: those of FLOW_STEPS steps
    (the stored samples of a cycle take CYCLE_SAMPLES)."""
    return counting(monkeypatch, "integrate_rk4",
                    lambda traj: len(traj.times) - 1 == shooting.FLOW_STEPS)


class TestSettleTransient:
    def test_detects_oscillation_at_i20(self, field20, stable_cycle_20,
                                        monkeypatch):
        steps = count_rk4_steps(monkeypatch)
        guess = shooting.settle_transient(field20, 300.0, x_start=kick(20.0))
        # the spike intervals agree long before the 300 ms cap (30,000 steps)
        assert steps[0] <= 15_000
        assert guess.period == pytest.approx(stable_cycle_20.period,
                                             abs=1e-5)
        # frozen oracle: the I=20 cycle period is near 11.5655 ms
        assert guess.period == pytest.approx(11.5655, abs=0.05)
        vmin, vmax = guess.v_extrema()
        assert vmin < -80.0 and vmax > 5.0

    def test_raises_on_equilibrium(self, monkeypatch):
        fld = hh_field(I=2.0)   # below the oscillatory range
        eq = model.find_equilibrium(2.0)
        steps = count_rk4_steps(monkeypatch)
        with pytest.raises(NoOscillation):
            shooting.settle_transient(fld, 300.0,
                                      x_start=eq + np.array([3.0, 0, 0, 0]))
        # no swing ends the settle early: it runs to the cap
        assert steps[0] == 30_000

    def test_bistable_knee_current_returns_a_cycle(self):
        # at I=7 the kicked state is attracted by the stable cycle, not by
        # the stable equilibrium beside it
        guess = shooting.settle_transient(hh_field(I=7.0), 300.0,
                                          x_start=kick(7.0))
        assert guess.period == pytest.approx(17.151, abs=0.01)
        vmin, vmax = guess.v_extrema()
        assert vmax - vmin > 80.0

    @pytest.mark.parametrize("I, max_flows", [(20.0, 2), (50.0, 2),
                                              (100.0, 2), (150.0, 3)])
    def test_shooting_from_the_guess_takes_few_flows(self, I, max_flows,
                                                     monkeypatch):
        fld = hh_field(I=I)
        guess = shooting.settle_transient(fld, 300.0, x_start=kick(I))
        flows = flow_passes(monkeypatch)
        shooting.shoot(fld, guess, tol=1e-10)
        assert 1 <= flows[0] <= max_flows


class TestShoot:
    def test_converges_and_closes_the_orbit(self, field20, stable_cycle_20):
        cyc = stable_cycle_20
        # same step count as the solver used, so the return gap reflects the
        # Newton residual rather than a change of discretization
        xT = integrate.flow(field20, cyc.anchor_state, cyc.period, 2000)
        assert np.max(np.abs(xT - cyc.anchor_state)) < 1e-10

    def test_period_is_solver_independent_of_anchor_phase(self, field20,
                                                          stable_cycle_20):
        # restart shooting from a state a quarter period along the orbit
        T = stable_cycle_20.period
        shifted = integrate.flow(field20, stable_cycle_20.anchor_state,
                                 0.25 * T, 1000)
        samples = integrate.integrate_rk4(field20, shifted, 0.0, T, T / 400)
        guess = shooting.Cycle(period=T * 1.02, samples=samples)
        refined = shooting.shoot(field20, guess, tol=1e-12)
        assert refined.period == pytest.approx(stable_cycle_20.period,
                                               rel=1e-9)

    def test_monodromy_is_formed_only_for_fresh_steps(self, field20,
                                                      monkeypatch):
        # the residual runs the state pass alone; the variational products
        # are formed once per Newton matrix, so a converging shoot takes
        # more passes than monodromies
        guess = shooting.settle_transient(field20, 300.0, x_start=kick(20.0))
        flows = flow_passes(monkeypatch)
        builds = counting(monkeypatch, "variational_of_pass")
        steps = [0]
        dense_step = newton.dense_step

        def counted_step(*args):
            steps[0] += 1
            return dense_step(*args)
        monkeypatch.setattr(newton, "dense_step", counted_step)
        cyc = shooting.shoot(field20, guess, tol=1e-10)
        assert builds[0] == steps[0] >= 1
        assert flows[0] > builds[0]
        assert cyc.period == 11.565492387834501

    def test_rejects_nonpositive_period(self, field20, stable_cycle_20):
        bad = shooting.Cycle(period=-1.0, samples=stable_cycle_20.samples)
        with pytest.raises(ValueError):
            shooting.shoot(field20, bad)

    def test_fails_cleanly_far_from_any_cycle(self):
        fld = hh_field(I=2.0)
        eq = model.find_equilibrium(2.0)
        samples = integrate.integrate_rk4(fld, eq + 1e-3, 0.0, 10.0, 0.05)
        guess = shooting.Cycle(period=10.0, samples=samples)
        with pytest.raises(NoConvergence, match="shooting damping exhausted"):
            shooting.shoot(fld, guess, tol=1e-12)

    def test_samples_cover_one_period(self, stable_cycle_20):
        s = stable_cycle_20.samples
        assert s.times[0] == 0.0
        assert s.times[-1] == pytest.approx(stable_cycle_20.period, abs=1e-10)
        # 400 sampling steps carry their own RK4 truncation error
        assert np.max(np.abs(s.states[-1] - s.states[0])) < 1e-3
