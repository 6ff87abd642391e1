"""Floquet spectra and unit-circle crossing detection."""

from dataclasses import dataclass

import numpy as np
import pytest

from hhcycles import collocation, floquet, integrate
from hhcycles.cycles import PeriodicOrbit
from hhcycles.errors import NoSignChange, TrackingLost
from hhcycles.fields import VectorField, harmonic_oscillator
from test_collocation import circle_guess, stuart_landau


def make_spec(mus, trivial=1.0 + 0j, steps=4000, error=None):
    """A spectrum of the given multipliers, each with the error estimate
    error (None: no estimates, as of a sampled cycle)."""
    mus = np.asarray(mus, dtype=complex)
    mus = mus[np.argsort(-np.abs(mus))]
    return floquet.FloquetSpectrum(
        multipliers=mus, trivial=trivial,
        trivial_error=abs(trivial - 1.0),
        stability="stable" if np.all(np.abs(mus) < 1) else "unstable",
        flags=frozenset(), liouville_error=0.0, steps=steps,
        multiplier_errors=None if error is None else np.full(len(mus), error))


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

    def test_a_later_spectrum_leaves_an_earlier_one_alone(
            self, field20, stable_cycle_20, hb_cycle_20):
        # both spectra form their step matrices in the same kept buffers
        first = floquet.spectrum(hb_cycle_20, field=field20)
        kept = first.all_multipliers().copy()
        floquet.spectrum(stable_cycle_20, field=field20)
        assert np.array_equal(first.all_multipliers(), kept)
        again = floquet.spectrum(hb_cycle_20, field=field20)
        assert np.array_equal(again.all_multipliers(), kept)

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

    @pytest.mark.parametrize("asked, taken", [(1000, 992), (4000, 4000),
                                              (10, 16)])
    def test_records_the_step_count_it_took(self, field20, hb_cycle_20,
                                            asked, taken):
        # a whole number of steps in each of the 16 subintervals, at least
        # one: floquet.steps 1000 runs 992 steps, and 10 runs 16
        assert floquet.taken_steps(asked) == taken
        assert floquet.spectrum(hb_cycle_20, field20, asked).steps == taken

    def test_all_multipliers_order(self, field20, stable_cycle_20):
        spec = floquet.spectrum(stable_cycle_20, field=field20)
        allm = spec.all_multipliers()
        assert allm[0] == spec.trivial
        assert len(allm) == 4

    def test_unknown_cycle_type_rejected(self, field20):
        with pytest.raises(TypeError):
            floquet.spectrum(object(), field20)


@dataclass(frozen=True)
class UnitCircle(PeriodicOrbit):
    """The stuart_landau cycle in closed form, at z = 0 in three dimensions."""

    period: float = 2 * np.pi

    def evaluate_time(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=-1)


def wobbling_field(multiplier, wobble):
    """stuart_landau beside zdot = (lam + wobble * x) z.  Along UnitCircle
    the wobble averages out, so the z multiplier is exp(2*pi*lam), the
    given one, while its RK4 error grows with the wobble."""
    lam = np.log(multiplier) / (2 * np.pi)
    planar = stuart_landau()

    def f(x):
        x = np.asarray(x, dtype=float)
        rate = lam + wobble * x[..., :1]
        return np.concatenate([planar.f(x[..., :2]), rate * x[..., 2:]],
                              axis=-1)

    def jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., :2, :2] = planar.jac(x[..., :2])
        J[..., 2, 0] = wobble * x[..., 2]
        J[..., 2, 2] = lam + wobble * x[..., 0]
        return J

    return VectorField(dim=3, f=f, jac=jac, name="wobbling-stuart-landau")


class TestErrorEstimate:
    """Each multiplier's RK4 error, by Richardson extrapolation from the
    half-count monodromy on the spectrum's own grid, taken where asked
    for."""

    # multipliers whose error is below this are at the roundoff of the
    # monodromy, whose entries are of order one: no RK4 error to track
    ROUNDOFF = 1e-15

    def test_tracks_the_error_of_a_992_step_spectrum(self, field20,
                                                     hb_cycle_20):
        ref = floquet.spectrum(hb_cycle_20, field20, 16000)
        spec = floquet.spectrum(hb_cycle_20, field20, 992, estimate=True)
        dist = np.abs(spec.multipliers - ref.multipliers)
        assert dist[0] > 1e-10          # the leading one has RK4 error
        for est, d in zip(spec.multiplier_errors, dist):
            assert (max(est, d) < self.ROUNDOFF
                    or 0.5 * d <= est <= 2.0 * d), (est, d)

    def test_falls_sixteenfold_when_the_count_doubles(self, field20,
                                                      hb_cycle_20):
        coarse, fine = (floquet.spectrum(hb_cycle_20, field20, n,
                                         estimate=True)
                        .multiplier_errors[0] for n in (992, 1984))
        assert 12.0 < coarse / fine < 20.0

    def test_a_multiplier_near_one_gets_its_own_error(self):
        # a z multiplier of 1 - 3e-4, beside the trivial one: 64 steps put
        # it 4.8e-4 further out, across 1.  Paired with the half count's
        # trivial multiplier instead of its own, its estimate would be its
        # distance to 1 over 15, and would certify the wrong label
        fld = wobbling_field(1.0 - 3e-4, wobble=4.0)
        ref = floquet.spectrum(UnitCircle(), fld, 16000)
        spec = floquet.spectrum(UnitCircle(), fld, 64, estimate=True)
        assert spec.multipliers[0].real > 1.0 > ref.multipliers[0].real
        d = abs(spec.multipliers[0] - ref.multipliers[0])
        assert d <= spec.multiplier_errors[0] <= 3.0 * d
        assert spec.multiplier_errors[0] > abs(spec.multipliers[0] - 1.0)

    def test_a_spurious_multiplier_is_not_certified(self, field20,
                                                    hb_cycle_20):
        # at 64 steps the stable I=20 cycle shows a multiplier near -4600:
        # the fast gating modes leave RK4's stability region.  Each
        # nontrivial multiplier is paired with a different half-count one,
        # so one of them carries the error; nearest matching would give
        # the large one 1/15 of its distance to an eigenvalue near 0
        spec = floquet.spectrum(hb_cycle_20, field20, 64, estimate=True)
        mu = spec.multipliers
        assert abs(mu[0]) > 1e3 and spec.stability == "unstable"
        room = np.minimum(np.abs(np.abs(mu) - 1.0), np.abs(mu + 1.0))
        assert np.any(spec.multiplier_errors > room)

    def test_only_a_half_count_gives_an_estimate(self, field20, hb_cycle_20,
                                                 stable_cycle_20):
        # a sampled cycle has no grid to halve, nor has an odd count of
        # steps per subinterval (63 here)
        sampled = floquet.spectrum(stable_cycle_20, field20, 1000,
                                   estimate=True)
        assert sampled.steps == 992 and sampled.multiplier_errors is None
        assert floquet.spectrum(hb_cycle_20, field20, 16 * 63,
                                estimate=True).multiplier_errors is None

    def test_none_unless_asked_for(self, field20, hb_cycle_20):
        # the spectra of hhc cycle, hhc floquet and the event searches
        # form no half-count product
        assert floquet.spectrum(hb_cycle_20, field20,
                                992).multiplier_errors is None


def sequential_product(chunks, dtype=float):
    P = np.eye(chunks[0].shape[0], dtype=dtype)
    for M in chunks:
        P = M.astype(dtype) @ P
    return P


class TestStabilizedProduct:
    # the monodromy product integrate.ordered_product, which spectrum takes
    # its eigenvalues of
    def test_matches_plain_product_when_benign(self):
        rng = np.random.default_rng(2)
        chunks = np.eye(3) + 0.1 * rng.standard_normal((6, 3, 3))
        assert np.allclose(integrate.ordered_product(chunks),
                           sequential_product(chunks), rtol=0.0, atol=1e-12)

    def test_odd_and_single_factor_products(self):
        # an odd last factor is carried up a level, and one factor is its
        # own product
        rng = np.random.default_rng(3)
        chunks = np.eye(3) + 0.1 * rng.standard_normal((7, 3, 3))
        assert np.allclose(integrate.ordered_product(chunks),
                           sequential_product(chunks), rtol=0.0, atol=1e-12)
        assert np.array_equal(integrate.ordered_product(chunks[:1]),
                              chunks[0])

    def test_preserves_small_eigenvalue_under_strong_growth(self):
        # stiff diagonal factors: the product diag(1e24, 1, 1e-30) spans 54
        # decades without underflow, and both extreme eigenvalues keep
        # their log-magnitudes
        chunks = np.array([np.diag([1e4, 1.0, 1e-5])] * 6)
        P = integrate.ordered_product(chunks)
        w = np.sort(np.abs(np.linalg.eigvals(P)))
        assert np.log10(w[0]) == pytest.approx(-30, abs=1e-6)
        assert np.log10(w[-1]) == pytest.approx(24, abs=1e-6)

    def test_long_near_identity_product(self):
        # 4000 factors, the step count of a default spectrum, against a
        # sequential product in long double; the bound is a ninth of
        # 4000 * eps, the worst case of a sequential chain in double
        rng = np.random.default_rng(5)
        chunks = np.eye(4) + 1e-3 * rng.standard_normal((4000, 4, 4))
        ref = sequential_product(chunks, np.longdouble)
        err = np.max(np.abs(integrate.ordered_product(chunks) - ref))
        assert float(err / np.max(np.abs(ref))) < 1e-13


class TestDetectCrossing:
    @staticmethod
    def family(slope=1.0, root=3.0, idle=0.3):
        def spectrum_at(I, a=None):
            return make_spec([-1.0 + slope * (I - root), idle])
        return spectrum_at

    def test_secant_refinement_finds_root(self):
        sat = self.family()
        pts = [(I, sat(I)) for I in (2.0, 2.7, 3.4, 4.0)]
        I_star, a = floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)
        assert I_star == pytest.approx(3.0, abs=1e-8)
        assert a == 1

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
        pairs = []

        def sat(I, a):
            pairs.append(a)
            return make_spec([-1.2 + 0.4 * (I - 3.0), 0.2])
        I_star, a = floquet.detect_crossing(seq, spectrum_at=sat)
        assert 3.0 < I_star < 4.0
        # the refinement and its result name the samples that bracket it
        assert a == 2 and pairs and set(pairs) == {2}

    def test_crossing_before_a_collision_is_bracketed_by_the_samples(self):
        # multipliers -10 +- sqrt(100 (1 - I^2)): the upper one crosses -1 at
        # I = sqrt(0.19) and meets the lower one at I = 1, after which the
        # pair is complex.  At the samples the real multiplier nearest -1 is
        # 0 or 1e-9, on the same side of -1, but prod(mu + 1) = 100 I^2 - 19
        # (times 1 + 1e-9) changes sign between them
        calls = []

        def sat(I, a=None):
            calls.append(I)
            s = np.sqrt(complex(100.0 * (1.0 - I * I)))
            return make_spec([-10.0 + s, -10.0 - s, 1e-9])
        pts = [(I, sat(I)) for I in (0.0, 1.5)]
        del calls[:]
        I_star, a = floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)
        assert I_star == pytest.approx(np.sqrt(0.19), abs=1e-9)
        assert a == 0
        assert len(calls) <= 12

    def test_no_sampled_sign_change_takes_no_spectrum(self):
        def sat(I, a):
            raise AssertionError("a spectrum was evaluated")
        pts = [(I, make_spec([-0.9 + 0.01 * I, 0.2])) for I in (0.0, 1.0)]
        with pytest.raises(NoSignChange):
            floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-3)

    def test_refinement_rejects_runaway_multiplier(self):
        # the samples bracket a sign change, but the fresh spectra hold no
        # multiplier near -1: the refinement closes in on a jump, not a root
        def sat(I, a):
            return make_spec([-4.0 + 0.1 * (I - 3.0), 9.0])
        pts = [(0.0, make_spec([-0.5, 9.0])), (6.0, make_spec([-1.5, 9.0]))]
        with pytest.raises(TrackingLost):
            floquet.detect_crossing(pts, spectrum_at=sat, tol=1e-10)

    def test_kind_validation(self):
        with pytest.raises(NoSignChange):
            floquet.detect_crossing([(1.0, make_spec([0.5, 0.1]))],
                                    spectrum_at=self.family())
