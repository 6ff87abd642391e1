"""Single shooting and transient-based cycle guesses."""

import numpy as np
import pytest

from hhcycles import integrate, model, shooting
from hhcycles.errors import NoConvergence, NoOscillation
from hhcycles.fields import hh_field


class TestSettleTransient:
    def test_detects_oscillation_at_i20(self, field20):
        eq = model.find_equilibrium(20.0)
        guess = shooting.settle_transient(
            field20, 300.0, x_start=eq + np.array([5.0, 0, 0, 0]))
        # frozen oracle: the I=20 cycle period is near 11.5655 ms
        assert guess.period == pytest.approx(11.5655, abs=0.05)
        vmin, vmax = guess.v_extrema()
        assert vmin < -80.0 and vmax > 5.0

    def test_raises_on_equilibrium(self):
        fld = hh_field(I=2.0)   # below the oscillatory range
        eq = model.find_equilibrium(2.0)
        with pytest.raises(NoOscillation):
            shooting.settle_transient(fld, 300.0,
                                      x_start=eq + np.array([3.0, 0, 0, 0]))


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
        shifted = integrate.flow(field20, stable_cycle_20.anchor_state,
                                 0.25 * stable_cycle_20.period, 1000)
        guess = shooting.Cycle(period=stable_cycle_20.period * 1.02,
                               anchor_state=shifted,
                               samples=stable_cycle_20.samples)
        refined = shooting.shoot(field20, guess, tol=1e-12)
        assert refined.period == pytest.approx(stable_cycle_20.period,
                                               rel=1e-9)

    def test_rejects_nonpositive_period(self, field20, stable_cycle_20):
        bad = shooting.Cycle(period=-1.0,
                             anchor_state=stable_cycle_20.anchor_state,
                             samples=stable_cycle_20.samples)
        with pytest.raises(ValueError):
            shooting.shoot(field20, bad)

    def test_fails_cleanly_far_from_any_cycle(self):
        fld = hh_field(I=2.0)
        eq = model.find_equilibrium(2.0)
        samples = integrate.integrate_rk4(fld, eq + 1e-3, 0.0, 10.0, 0.05)
        guess = shooting.Cycle(period=10.0, anchor_state=eq + 1e-3,
                               samples=samples)
        with pytest.raises((NoConvergence, Exception)):
            cyc = shooting.shoot(fld, guess, tol=1e-12)
            # a "cycle" collapsing onto the equilibrium must not slip through
            assert cyc.v_extrema()[1] - cyc.v_extrema()[0] > 1.0

    def test_samples_cover_one_period(self, stable_cycle_20):
        s = stable_cycle_20.samples
        assert s.times[0] == 0.0
        assert s.times[-1] == pytest.approx(stable_cycle_20.period, abs=1e-10)
        # 400 sampling steps carry their own RK4 truncation error
        assert np.max(np.abs(s.states[-1] - s.states[0])) < 1e-3
