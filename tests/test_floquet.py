"""Floquet spectra and unit-circle crossing detection."""

import numpy as np
import pytest

from hhcycles import collocation, floquet, integrate
from hhcycles.errors import NoSignChange, TrackingLost
from hhcycles.fields import harmonic_oscillator
from test_collocation import circle_guess, stuart_landau


def make_spec(mus, trivial=1.0 + 0j):
    mus = np.asarray(mus, dtype=complex)
    mus = mus[np.argsort(-np.abs(mus))]
    return floquet.FloquetSpectrum(
        multipliers=mus, trivial=trivial,
        trivial_error=abs(trivial - 1.0),
        stability="stable" if np.all(np.abs(mus) < 1) else "unstable",
        flags=frozenset(), liouville_error=0.0)


class TestSpectrum:
    def test_planar_limit_cycle_exact_multiplier(self):
        # the radial Floquet exponent of the unit-circle cycle is -2, so the
        # nontrivial multiplier is exp(-4*pi)
        fld = stuart_landau()
        sol = collocation.solve_bvp(fld, circle_guess(1.05, 1.01),
                                    tol=1e-8, N=60)
        spec = floquet.spectrum(sol, field=fld)
        assert spec.trivial_error < 1e-7
        assert spec.stability == "stable"
        assert spec.multipliers[0].real == pytest.approx(np.exp(-4 * np.pi),
                                                         rel=1e-4)
        assert spec.liouville_error < 1e-10

    def test_degenerate_conservative_cycle(self):
        # harmonic oscillator: monodromy is the identity, both multipliers 1
        fld = harmonic_oscillator(1.0)
        T = 2 * np.pi
        traj = integrate.integrate_rk4(fld, [1.0, 0.0], 0.0, T, T / 2000)
        from hhcycles.shooting import Cycle
        cyc = Cycle(period=T, samples=traj)
        spec = floquet.spectrum(cyc, field=fld)
        assert spec.trivial_error < 1e-8
        assert spec.multipliers[0].real == pytest.approx(1.0, abs=1e-8)
        assert "near_fold" in spec.flags

    def test_hh_stable_cycle_multipliers(self, field20, stable_cycle_20):
        spec = floquet.spectrum(stable_cycle_20, field=field20)
        assert spec.stability == "stable"
        assert spec.trivial_error < 1e-6
        mags = np.abs(spec.multipliers)
        # frozen oracle: dominant nontrivial multiplier ~ 0.110, rest tiny
        assert mags[0] == pytest.approx(0.110, abs=5e-3)
        assert np.all(mags[1:] < 1e-3)
        assert spec.flags == frozenset()

    def test_representations_agree(self, field20, stable_cycle_20,
                                   hb_cycle_20):
        a = floquet.spectrum(stable_cycle_20, field=field20)
        b = floquet.spectrum(hb_cycle_20, field=field20)
        assert abs(a.multipliers[0] - b.multipliers[0]) < 1e-3

    def test_liouville_error_of_a_dense_cycle(self, field20, hb_cycle_20,
                                              stable_cycle_20):
        # |log det M - integral of trace J| is the variational RK4's own
        # determinant error: 5.2e-6 at 4000 steps, falling as h^4
        spec = floquet.spectrum(hb_cycle_20, field=field20)
        assert spec.liouville_error < 1e-5
        finer = floquet.spectrum(hb_cycle_20, field=field20, nsteps=8000)
        assert finer.liouville_error < spec.liouville_error / 10.0

    def test_liouville_error_of_a_sampled_cycle(self, field20,
                                                stable_cycle_20):
        # the RK4 quadrature of trace J over the stage states of the one
        # pass: 5.2e-6 at 4000 steps, falling as h^4
        spec = floquet.spectrum(stable_cycle_20, field=field20)
        assert spec.liouville_error < 1e-5
        finer = floquet.spectrum(stable_cycle_20, field=field20, nsteps=8000)
        assert finer.liouville_error < spec.liouville_error / 10.0

    def test_all_multipliers_order(self, field20, stable_cycle_20):
        spec = floquet.spectrum(stable_cycle_20, field=field20)
        allm = spec.all_multipliers()
        assert allm[0] == spec.trivial
        assert len(allm) == 4

    def test_unknown_cycle_type_rejected(self, field20):
        with pytest.raises(TypeError):
            floquet.spectrum(object(), field20)


class TestStabilizedProduct:
    def test_matches_plain_product_when_benign(self):
        rng = np.random.default_rng(2)
        chunks = [np.eye(3) + 0.1 * rng.standard_normal((3, 3))
                  for _ in range(6)]
        P = np.eye(3)
        for M in chunks:
            P = M @ P
        Q = floquet._stabilized_product(chunks)
        assert np.allclose(Q, P, atol=1e-12)

    def test_preserves_small_eigenvalue_under_strong_growth(self):
        # product of stiff diagonal factors: explicit product underflows the
        # small directions, QR accumulation keeps the log-magnitudes intact
        chunks = [np.diag([1e4, 1.0, 1e-5]) for _ in range(6)]
        Q = floquet._stabilized_product(chunks)
        w = np.sort(np.abs(np.linalg.eigvals(Q)))
        assert np.log10(w[0]) == pytest.approx(-30, abs=1e-6)
        assert np.log10(w[-1]) == pytest.approx(24, abs=1e-6)


class TestDetectCrossing:
    @staticmethod
    def family(slope=1.0, root=3.0, idle=0.3):
        def spectrum_at(I):
            return make_spec([-1.0 + slope * (I - root), idle])
        return spectrum_at

    def test_secant_refinement_finds_root(self):
        sat = self.family()
        pts = [(I, sat(I)) for I in (2.0, 2.7, 3.4, 4.0)]
        I_star = floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)
        assert I_star == pytest.approx(3.0, abs=1e-8)

    def test_no_sign_change_raises(self):
        sat = self.family()
        pts = [(I, sat(I)) for I in (3.2, 3.5, 3.9)]
        with pytest.raises(NoSignChange):
            floquet.detect_crossing(pts, spectrum_at=sat)

    def test_tightest_bracket_wins_over_collision_artifact(self):
        # a far sign flip caused by an eigenvalue collision (g jumps from
        # -5 to +9) must lose against the genuine tight crossing
        seq = [(1.0, make_spec([-6.0, 0.2])),
               (2.0, make_spec([8.0, 0.2])),     # fake flip, wide bracket
               (3.0, make_spec([-1.2, 0.2])),
               (4.0, make_spec([-0.8, 0.2]))]    # true flip, tight bracket
        I_star = floquet.detect_crossing(
            seq, spectrum_at=lambda I: make_spec([-1.2 + 0.4 * (I - 3.0), 0.2]))
        assert 3.0 < I_star < 4.0

    def test_crossing_before_a_collision_is_bracketed_by_the_samples(self):
        # multipliers -10 +- sqrt(100 (1 - I^2)): the upper one crosses -1 at
        # I = sqrt(0.19) and meets the lower one at I = 1, after which the
        # pair is complex.  At the samples the real multiplier nearest -1 is
        # 0 or 1e-9, on the same side of -1, but prod(mu + 1) = 100 I^2 - 19
        # (times 1 + 1e-9) changes sign between them
        calls = []

        def sat(I):
            calls.append(I)
            s = np.sqrt(complex(100.0 * (1.0 - I * I)))
            return make_spec([-10.0 + s, -10.0 - s, 1e-9])
        pts = [(I, sat(I)) for I in (0.0, 1.5)]
        del calls[:]
        I_star = floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)
        assert I_star == pytest.approx(np.sqrt(0.19), abs=1e-9)
        assert len(calls) <= 12

    def test_no_sampled_sign_change_takes_no_spectrum(self):
        def sat(I):
            raise AssertionError("a spectrum was evaluated")
        pts = [(I, make_spec([-0.9 + 0.01 * I, 0.2])) for I in (0.0, 1.0)]
        with pytest.raises(NoSignChange):
            floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-3)

    def test_refinement_rejects_runaway_multiplier(self):
        # the samples bracket a sign change, but the fresh spectra hold no
        # multiplier near -1: the refinement closes in on a jump, not a root
        def sat(I):
            return make_spec([-4.0 + 0.1 * (I - 3.0), 9.0])
        pts = [(0.0, make_spec([-0.5, 9.0])), (6.0, make_spec([-1.5, 9.0]))]
        with pytest.raises(TrackingLost):
            floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)

    def test_kind_validation(self):
        with pytest.raises(NoSignChange):
            floquet.detect_crossing([(1.0, make_spec([0.5, 0.1]))],
                                    spectrum_at=self.family())
