"""Vector field, rate functions, equilibria and eigenvalue crossings."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hhcycles import model
from hhcycles.errors import NoSignChange

RNG = np.random.default_rng(20260826)
# offsets from V = -10 and -25, where the expc arguments of alpha_n and
# alpha_m are zero: the series inside |dV| < 1e-3, the closed form outside
NEAR_SERIES = np.linspace(-1.2e-3, 1.2e-3, 9)


class TestExpc:
    def test_value_at_zero(self):
        assert model.expc(0.0) == 1.0

    def test_matches_closed_form_away_from_zero(self):
        x = np.array([-30.0, -2.0, -0.5, 0.5, 2.0, 30.0])
        expected = x / np.expm1(x)
        assert np.allclose(model.expc(x), expected, rtol=1e-14)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_identity_x_equals_expc_times_expm1(self, x):
        # x = expc(x) * (e^x - 1) wherever the closed form is finite
        if abs(x) < 1e-12:
            return
        assert model.expc(x) * np.expm1(x) == pytest.approx(x, rel=1e-10)

    @given(st.floats(min_value=-1e-3, max_value=1e-3))
    @settings(max_examples=300, deadline=None)
    def test_no_catastrophic_cancellation_near_zero(self, x):
        val = model.expc(x)
        # series reference accurate to ~1e-16 in this window
        ref = 1.0 - x / 2.0 + x * x / 12.0
        assert val == pytest.approx(ref, abs=1e-12)
        assert np.isfinite(val)

    def test_series_matches_closed_form_at_cutoff(self):
        # both branches agree where they meet
        for x in (1e-4, -1e-4, 1.0000001e-4):
            closed = x / np.expm1(x)
            assert model.expc(x) == pytest.approx(closed, rel=1e-11)

    def test_batch_matches_its_one_element_calls(self):
        # a batch holding series-range and closed-form arguments, element
        # by element, and a batch with none in the series range against
        # the two-branch np.where form
        x = np.concatenate([NEAR_SERIES * 0.1, [0.0, -3e-5, 2e-4, -1.5,
                                                 0.7, 40.0, -800.0, 900.0]])
        with np.errstate(over="ignore"):
            got = model.expc(x)
            singles = [model.expc(v) for v in x]
        assert np.array_equal(got, singles)
        wide = np.array([-900.0, -30.0, -1e-4, 1e-4, 0.3, 12.0, 900.0])
        small = np.abs(wide) < model._EXPC_SERIES_CUTOFF
        with np.errstate(over="ignore"):
            xs = np.where(small, 1.0, wide)
            ref = np.where(small, model._expc_series(wide), np.where(
                small, 1.0, xs / np.expm1(xs)))
            assert np.array_equal(model.expc(wide), ref)

    def test_prime_matches_finite_difference(self):
        # the slope the Jacobian takes from expc's value, on both sides of
        # the series cutoff |x| = 1e-4 (x +- h stays on one side)
        xs = np.array([-3.0, -0.3, -1.05e-4, -9.5e-5, 1e-5, 9.5e-5, 1.05e-4,
                       0.2, 4.0])
        h = 1e-6
        fd = (model.expc(xs + h) - model.expc(xs - h)) / (2 * h)
        slope = model._expc_slope(xs, model.expc(xs))
        assert np.allclose(slope, fd, rtol=0.0, atol=1e-9)

    def test_slope_matches_a_decimal_reference(self):
        # expc'(x) = (e^x - 1 - x e^x) / (e^x - 1)^2 in 60 digits: the
        # cancellation near zero costs the reference at most 17 of them
        mag = np.logspace(-8.0, 1.0, 361)
        xs = np.concatenate([-mag, mag])

        def reference(x):
            with localcontext() as ctx:
                ctx.prec = 60
                d = Decimal(x)
                e = d.exp()
                return float((e - 1 - d * e) / (e - 1) ** 2)

        ref = np.array([reference(x) for x in xs.tolist()])
        slope = model._expc_slope(xs, model.expc(xs))
        assert np.max(np.abs(slope / ref - 1.0)) <= 1e-14


def rate_slopes(V):
    """d/dV of the six rates, same order as model._rates, read off the
    Jacobian: with a gate at 0 its row's V entry is the alpha slope, at 1
    it is minus the beta slope."""
    V = np.asarray(V, dtype=float)
    J0, J1 = (model.jacobian(np.column_stack([V] + [np.full_like(V, g)] * 3))
              for g in (0.0, 1.0))
    return [sign * J[:, row, 0] for row in (1, 2, 3)
            for sign, J in ((1.0, J0), (-1.0, J1))]


class TestRates:
    def test_all_rates_positive_over_physical_range(self):
        V = np.linspace(-120.0, 40.0, 500)
        for arr in model._rates(V):
            assert np.all(arr > 0)

    def test_rate_derivatives_match_finite_difference(self):
        V = np.concatenate([np.linspace(-100.0, 30.0, 53),
                            -10.0 + NEAR_SERIES, -25.0 + NEAR_SERIES])
        h = 1e-6
        up = model._rates(V + h)
        dn = model._rates(V - h)
        exact = rate_slopes(V)
        for e, u, d in zip(exact, up, dn):
            assert np.allclose(e, (u - d) / (2 * h), atol=1e-8)

    def test_gating_steady_states_in_unit_interval(self):
        V = np.linspace(-110.0, 30.0, 200)
        gates = model.steady_state(V)[:, 1:]
        assert np.all((gates > 0) & (gates < 1))


def assert_one_state_matches_batch(x, I):
    """A 1-D state against its row of a batched call: the field (the float
    path) to a few ulps, the Jacobian (one numpy path) bit for bit."""
    f, J = model.vector_field(x, I=I), model.jacobian(x, I=I)
    assert np.array_equal(model.float_field(I=I)(*x.tolist()), f)
    fb = model.vector_field(x[None], I=I)[0]
    assert f.shape == (4,) and f.dtype == np.float64
    assert J.shape == (4, 4) and J.dtype == np.float64
    assert np.all(np.abs(f - fb) <= 1e-12 * (1.0 + np.abs(fb)))
    assert np.array_equal(J, model.jacobian(x[None], I=I)[0])


class TestVectorField:
    def test_jacobian_matches_finite_difference(self):
        Vs = np.concatenate([RNG.uniform(-110, 30, 20), -10.0 + NEAR_SERIES,
                             -25.0 + NEAR_SERIES])
        for V in Vs:
            x = np.array([V, RNG.uniform(0.05, 0.95),
                          RNG.uniform(0.05, 0.95), RNG.uniform(0.05, 0.95)])
            I = RNG.uniform(0, 160)
            J = model.jacobian(x, I=I)
            Jfd = np.empty((4, 4))
            h = 1e-6
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                Jfd[:, j] = (model.vector_field(x + e, I=I)
                             - model.vector_field(x - e, I=I)) / (2 * h)
            scale = np.max(np.abs(Jfd)) + 1.0
            assert np.max(np.abs(J - Jfd)) / scale < 1e-7

    def test_batch_evaluation_matches_loop(self):
        xs = np.column_stack([RNG.uniform(-100, 20, 7),
                              RNG.uniform(0.1, 0.9, (7, 3)).reshape(7, 3)])
        batch_f = model.vector_field(xs, I=12.0)
        batch_J = model.jacobian(xs, I=12.0)
        for i, x in enumerate(xs):
            assert np.allclose(batch_f[i], model.vector_field(x, I=12.0))
            assert np.allclose(batch_J[i], model.jacobian(x, I=12.0))

    @given(st.floats(-120.0, 40.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 160.0))
    @settings(max_examples=300, deadline=None)
    def test_one_state_matches_its_batch_row(self, V, n, h, m, I):
        assert_one_state_matches_batch(np.array([V, n, h, m]), I)

    @given(st.sampled_from([-10.0, -25.0]), st.floats(-1e-3, 1e-3),
           st.floats(0.0, 1.0), st.floats(0.0, 160.0))
    @settings(max_examples=200, deadline=None)
    def test_one_state_matches_batch_at_expc_series_switch(self, V0, dV, g, I):
        # V = -10 and -25 put the expc argument of alpha_n, alpha_m at zero
        assert_one_state_matches_batch(np.array([V0 + dV, g, 1.0 - g, g]), I)

    def test_overflow_gives_nonfinite_values(self):
        # float arithmetic raises OverflowError here; the result must be the
        # array path's inf/nan instead
        x = np.array([1e5, 1e80, 0.5, 0.5])
        with pytest.raises(OverflowError):
            model.float_field(I=20.0)(*x.tolist())
        with np.errstate(all="ignore"):
            f = model.vector_field(x, I=20.0)
            J = model.jacobian(x, I=20.0)
        assert f.shape == (4,) and J.shape == (4, 4)
        assert not np.all(np.isfinite(f))
        assert not np.all(np.isfinite(J))

    def test_stimulus_depolarizes(self):
        # larger I pushes the equilibrium potential to more negative V
        # (spikes are negative in this sign convention)
        v0 = model.find_equilibrium(0.0)[0]
        v50 = model.find_equilibrium(50.0)[0]
        assert v50 < v0


class TestEquilibrium:
    def test_residual_at_roundoff(self):
        for I in (0.0, 5.0, 9.8, 50.0, 154.0):
            x = model.find_equilibrium(I)
            assert np.max(np.abs(model.vector_field(x, I=I))) < 1e-12

    def test_rest_state_at_zero_current(self):
        # classical resting point: V near 0, gates near their textbook values
        x = model.find_equilibrium(0.0)
        assert abs(x[0]) < 1e-3
        assert x[1] == pytest.approx(0.3177, abs=2e-3)   # n
        assert x[2] == pytest.approx(0.5961, abs=2e-3)   # h
        assert x[3] == pytest.approx(0.0529, abs=2e-3)   # m

    def test_guess_is_optional_across_the_sweep(self):
        for I in np.linspace(0.0, 160.0, 17):
            x = model.find_equilibrium(float(I))
            assert np.all(np.isfinite(x))

    def test_current_map_round_trips(self):
        # detect_hopf reads the current of an equilibrium off its potential
        p = model.DEFAULT_PARAMS
        for I in np.linspace(0.0, 250.0, 26):
            V = model.find_equilibrium(float(I))[0]
            assert abs(model._equilibrium_current(V, p) - I) < 1e-12

    def test_current_map_falls_strictly_over_the_scan_range(self):
        # one equilibrium per current, and detect_hopf may search in V
        V = np.linspace(-120.0, 80.0, 20001)
        I = model._equilibrium_current(V, model.DEFAULT_PARAMS)
        assert np.all(np.diff(I) < 0)

    def test_slope_matches_central_difference(self):
        # the Schur-complement slope against a difference of the curve,
        # whose own error is about 1e-8 relative at h = 1e-5
        p = model.DEFAULT_PARAMS
        V = np.concatenate([np.linspace(-110.0, 70.0, 37),
                            -10.0 + NEAR_SERIES, -25.0 + NEAR_SERIES])
        h = 1e-5
        fd = (model._equilibrium_current(V + h, p)
              - model._equilibrium_current(V - h, p)) / (2 * h)
        slope = model._equilibrium_slope(model.steady_state(V), p)
        assert np.max(np.abs(slope / fd - 1.0)) < 1e-7

    def test_array_of_currents_gives_the_scalar_states(self):
        Is = np.linspace(0.0, 250.0, 51)
        xs = model.find_equilibrium(Is)
        assert xs.shape == (51, 4)
        for I, x in zip(Is, xs):
            one = model.find_equilibrium(float(I))
            assert one.shape == (4,)
            assert np.max(np.abs(x - one)) <= 1e-13
        assert model.find_equilibrium(Is.reshape(3, 17)).shape == (3, 17, 4)

    @pytest.mark.parametrize("I", [np.nan, np.inf, -np.inf, [1.0, np.nan]])
    def test_non_finite_current_raises_before_any_iteration(self, I,
                                                            monkeypatch):
        def curve(V, p):
            raise AssertionError("the curve was evaluated")
        monkeypatch.setattr(model, "_equilibrium_current", curve)
        with pytest.raises(ValueError, match="finite"):
            model.find_equilibrium(I)


class TestHopfDetection:
    def test_low_current_crossing(self, hopf_points):
        (I_low, omega_low), _ = hopf_points
        # frozen oracle values for this vector field (regula falsi in V to
        # roundoff, verified against an independent eigenvalue sweep)
        assert I_low == pytest.approx(9.779638, abs=5e-5)
        assert omega_low == pytest.approx(0.58623, abs=1e-3)

    def test_high_current_crossing(self, hopf_points):
        _, (I_high, omega_high) = hopf_points
        assert I_high == pytest.approx(154.52663, abs=5e-5)
        assert omega_high == pytest.approx(1.06292, abs=1e-3)

    def test_complex_pair_on_the_imaginary_axis(self, hopf_points):
        for I_star, omega in hopf_points:
            lam = model.eigenvalues(model.find_equilibrium(I_star))
            pair = lam[np.abs(lam.imag) > 1e-12]
            assert len(pair) == 2
            assert np.all(np.abs(pair.real) < 1e-12)
            assert np.abs(pair.imag) == pytest.approx([omega, omega])

    def test_current_does_not_depend_on_the_bracket(self):
        found = [model.detect_hopf(lo, hi)
                 for lo, hi in ((9.0, 10.5), (9.5, 10.5), (8.8, 9.8))]
        I_star = [I for I, _ in found]
        assert max(I_star) - min(I_star) < 1e-12

    def test_equilibrium_stability_flips_across_crossings(self, hopf_points):
        (I_low, _), (I_high, _) = hopf_points
        Is = [I_low - 0.5, 0.5 * (I_low + I_high), I_high + 0.5]
        lam = model.eigenvalues(model.find_equilibrium(Is))
        assert np.all(np.sign(lam[:, 0].real) == [-1.0, 1.0, -1.0])

    def test_eigenvalues_of_a_batch_are_each_states_sorted(self):
        xs = model.find_equilibrium(np.linspace(0.0, 160.0, 9))
        lam = model.eigenvalues(xs)
        assert lam.shape == (9, 4)
        for x, row in zip(xs, lam):
            assert np.array_equal(row, model.eigenvalues(x))
            assert np.all(np.diff(row.real) <= 0)

    def test_no_crossing_raises(self):
        with pytest.raises(NoSignChange):
            model.detect_hopf(20.0, 30.0)

    def test_params_are_validated(self):
        with pytest.raises(ValueError):
            model.HHParams(C=-1.0)
