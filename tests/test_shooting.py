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
    (a settle's sample pass takes CYCLE_SAMPLES)."""
    return counting(monkeypatch, "integrate_rk4",
                    lambda traj: len(traj.times) - 1 == shooting.FLOW_STEPS)


class TestSettleTransient:
    def test_detects_oscillation_at_i20(self, field20, stable_cycle_20,
                                        monkeypatch):
        steps = count_rk4_steps(monkeypatch)
        guess = shooting.settle_transient(field20, 300.0, x_start=kick(20.0))
        # the spike intervals agree at 100 ms, long before the 300 ms cap:
        # 4,000 settle steps and the 400 of the sample pass
        assert steps[0] <= 5_000
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
        assert steps[0] == round(300.0 / shooting.SETTLE_STEP)

    def test_bistable_knee_current_returns_a_cycle(self):
        # at I=7 the kicked state is attracted by the stable cycle, not by
        # the stable equilibrium beside it
        guess = shooting.settle_transient(hh_field(I=7.0), 300.0,
                                          x_start=kick(7.0))
        assert guess.period == pytest.approx(17.151, abs=0.01)
        vmin, vmax = guess.v_extrema()
        assert vmax - vmin > 80.0

    @pytest.mark.parametrize("I, stop", [(20.0, 100.0), (150.0, 250.0)])
    def test_stops_when_a_finer_step_does(self, I, stop, monkeypatch):
        ran = counting(monkeypatch, "integrate_rk4",
                       lambda traj: traj.times[-1] - traj.times[0])
        for h in [shooting.SETTLE_STEP, 0.01]:
            monkeypatch.setattr(shooting, "SETTLE_STEP", h)
            before = ran[0]
            guess = shooting.settle_transient(hh_field(I=I), 300.0,
                                              x_start=kick(I))
            # the last pass samples the guess over one period
            assert ran[0] - before - guess.period == pytest.approx(stop,
                                                                   abs=1e-9)

    # the flow counts and periods of shoot at tol 1e-10 from settles of
    # 0.01 ms steps with linearly interpolated crossing times
    @pytest.mark.parametrize("I, max_flows, period", [
        pytest.param(I, flows, T, id=f"{I}-{flows}") for I, flows, T in [
            (7.0, 2, 17.151063467520864), (9.8, 2, 14.749074422176765),
            (20.0, 2, 11.565492387834501), (50.0, 2, 8.544621881907757),
            (100.0, 2, 6.790361945064605), (150.0, 3, 5.9576196987155905)]])
    def test_shooting_from_the_guess_takes_few_flows(self, I, max_flows,
                                                     period, monkeypatch):
        fld = hh_field(I=I)
        guess = shooting.settle_transient(fld, 300.0, x_start=kick(I))
        flows = flow_passes(monkeypatch)
        cyc = shooting.shoot(fld, guess, tol=1e-10)
        assert 1 <= flows[0] <= max_flows
        assert cyc.period == pytest.approx(period, rel=1e-12)


class TestCrossingTimes:
    LEVEL = 0.3     # V = sin t rises through it at asin(0.3)

    def crossing_errors(self, h):
        """Hermite and linear errors of the sin t crossing through LEVEL,
        over steps of h that place it at three phases within the step."""
        exact = np.arcsin(self.LEVEL)
        t0 = exact - h * np.array([0.17, 0.5, 0.83])
        t1 = t0 + h
        tc = shooting.crossing_times(t0, t1, np.sin(t0), np.sin(t1),
                                     np.cos(t0), np.cos(t1), self.LEVEL)
        linear = t0 + ((self.LEVEL - np.sin(t0))
                       / (np.sin(t1) - np.sin(t0)) * h)
        return (np.max(np.abs(tc - exact)), np.max(np.abs(linear - exact)))

    def test_error_falls_as_h_to_the_fourth(self):
        # halving h cuts a third-order interpolant's crossing error by
        # about 16x, where linear interpolation's falls by about 4x
        (hermite_h, linear_h), (hermite_h2, linear_h2) = (
            self.crossing_errors(0.2), self.crossing_errors(0.1))
        assert hermite_h / hermite_h2 >= 12.0
        assert linear_h / linear_h2 < 5.0
        assert hermite_h < 1e-2 * linear_h

    def test_root_stays_inside_the_step(self):
        # slopes of either sign and any size make cubics whose Newton
        # iterates from the linear estimate leave the step; the safeguard
        # keeps the root inside it
        rng = np.random.default_rng(3)
        n = 2000
        v0, v1 = -rng.uniform(0.0, 1.0, n) - 1e-3, rng.uniform(0.0, 1.0, n)
        dv0, dv1 = rng.normal(0.0, 20.0, n), rng.normal(0.0, 20.0, n)
        t0 = rng.uniform(-5.0, 5.0, n)
        t1 = t0 + 1.0
        tc = shooting.crossing_times(t0, t1, v0, v1, dv0, dv1, 0.0)
        assert np.all((tc >= t0) & (tc <= t1))
        s = tc - t0
        cubic = (v0 * (1 - s) ** 2 * (1 + 2 * s) + dv0 * s * (1 - s) ** 2
                 + v1 * s * s * (3 - 2 * s) - dv1 * s * s * (1 - s))
        assert np.max(np.abs(cubic)) < 1e-12


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
        assert cyc.period == 11.56549238783445
        # the period shoot converged to from the 0.01 ms settle's guess
        assert cyc.period == pytest.approx(11.565492387834501, rel=1e-13)

    def test_cycle_is_the_converged_pass(self, field20, monkeypatch):
        # the samples are states of the last residual pass: no further pass
        # runs to sample the cycle
        guess = shooting.settle_transient(field20, 300.0, x_start=kick(20.0))
        flows = flow_passes(monkeypatch)
        steps = count_rk4_steps(monkeypatch)
        cyc = shooting.shoot(field20, guess, tol=1e-10)
        assert flows[0] == 2 and steps[0] == 2 * shooting.FLOW_STEPS
        T = cyc.period
        fresh = integrate.integrate_rk4(field20, cyc.anchor_state, 0.0, T,
                                        T / shooting.FLOW_STEPS)
        every = shooting.FLOW_STEPS // shooting.CYCLE_SAMPLES
        assert np.array_equal(cyc.samples.states, fresh.states[::every])
        assert np.array_equal(cyc.samples.times, fresh.times[::every])

    def test_cycle_samples_divide_the_pass(self):
        assert shooting.FLOW_STEPS % shooting.CYCLE_SAMPLES == 0

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
        # the samples are states of the converged shooting pass, so they
        # close to the shoot tolerance
        assert np.max(np.abs(s.states[-1] - s.states[0])) < 1e-10
