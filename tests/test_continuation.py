"""Branch following, turning-point handling and diagram assembly."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from hhcycles import continuation as ct
from hhcycles import collocation, floquet, hb, model
from hhcycles.cycles import PeriodicOrbit
from hhcycles.errors import (DegenerateCycle, NoConvergence, NoExtremum,
                             NoSignChange, StartInvalid)
from hhcycles.fields import harmonic_oscillator
from test_floquet import make_spec


def fake_point(I, period=10.0, v_min=-90.0, v_max=8.0, mus=(0.1, 0.0, 0.0),
               cycle=None):
    return ct.BranchPoint(I=I, cycle=cycle or FoldCycle(period),
                          period=period, v_min=v_min, v_max=v_max,
                          spectrum=make_spec(mus))


def fake_branch(Is, periods=None):
    periods = periods if periods is not None else 10.0 + 0.1 * np.arange(len(Is))
    pts = [fake_point(I, period=T) for I, T in zip(Is, periods)]
    return ct.Branch(points=pts, events=[], solver="hb")


class TestHelpers:
    def test_hh_family_binds_stimulus(self):
        fam = ct.hh_family()
        eq = model.find_equilibrium(30.0)
        assert np.max(np.abs(fam(30.0).f(eq))) < 1e-10
        assert np.max(np.abs(fam(10.0).f(eq))) > 1e-3

    def test_v_extrema_representations_agree(self, stable_cycle_20,
                                             hb_cycle_20):
        a = stable_cycle_20.v_extrema()
        b = hb_cycle_20.v_extrema()
        assert a[0] == pytest.approx(b[0], abs=0.1)
        assert a[1] == pytest.approx(b[1], abs=0.1)

    def test_v_extrema_rejects_unknown(self):
        # a branch point's extrema are taken only from a PeriodicOrbit
        with pytest.raises(TypeError):
            ct.make_point(0.0, 3.14, None)

    def test_as_fourier_from_time_cycle(self, stable_cycle_20):
        fc = stable_cycle_20.to_fourier(30)
        assert fc.K == 30
        assert fc.period == pytest.approx(stable_cycle_20.period)

    def test_as_fourier_resizes(self, hb_cycle_20):
        fc = hb_cycle_20.to_fourier(20)
        assert fc.K == 20

    def test_make_point(self, field20, stable_cycle_20):
        pt = ct.make_point(20.0, stable_cycle_20, field20)
        assert pt.amplitude == pytest.approx(98.7, abs=1.0)
        assert pt.spectrum.stability == "stable"


class TestSolverAdapter:
    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            ct._SolverAdapter("spectral-deferred")

    def test_hb_adapter_solves_from_time_predictor(self, stable_cycle_20):
        # the constraint row pins I at 20
        ad = ct._SolverAdapter("hb", hb_K=40)
        sol, I = ad.correct(ct.hh_family(), stable_cycle_20,
                            stable_cycle_20.period, 20.0, (0.0, 1.0, 20.0))
        assert I == pytest.approx(20.0, abs=1e-12)
        assert sol.period == pytest.approx(stable_cycle_20.period, rel=1e-6)


class RecordingAdapter(ct._SolverAdapter):
    """An HB adapter that keeps every (cycle, I) its corrections return."""

    def __init__(self, hb_K):
        super().__init__("hb", hb_K=hb_K)
        self.returned = []

    def correct(self, *args):
        out = super().correct(*args)
        self.returned.append(out)
        return out


def k50_residual(cyc, I):
    """Max-norm of the K=50 residual of cyc zero-padded to K=50."""
    return np.linalg.norm(hb.hb_residual(cyc.to_fourier(50), ct.hh_family()(I),
                                         hb.build_operators(50)), np.inf)


@pytest.fixture(scope="module")
def rung_branch(field20, hb_cycle_20):
    """K=50 continuation from I=20 up to the upper Hopf end, with steps of
    4 to 16, and the adapter that ran it."""
    ad = RecordingAdapter(50)
    br = ct.continue_branch(
        ct.make_point(20.0, hb_cycle_20, field20), +1, (20.0, 160.0),
        ct.hh_family(), ad, step_ctrl=ct.StepControl(
            initial=4.0, max_step=16.0, collapse_amplitude=0.4,
            max_orbit_jump=25.0), max_points=200)
    assert br.events and br.events[-1].kind == "hopf"
    return br, ad


class TestRungs:
    """The HB adapter solves each correction on a rung of harmonic counts
    and returns only what the K=hb_K system certifies."""

    def test_the_ladder_halves_down_to_two(self):
        assert ct._SolverAdapter("hb", hb_K=50).rungs == [50, 25, 13, 7, 4, 2]
        assert ct._SolverAdapter("hb", hb_K=30).rungs == [30, 15, 8, 4, 2]
        assert ct._SolverAdapter("hb", hb_K=2).rungs == [2]

    def test_every_point_meets_the_k50_tolerance(self, rung_branch):
        br, ad = rung_branch
        assert len(ad.returned) >= len(br.points) - 1
        for cyc, I in ad.returned:
            assert k50_residual(cyc, I) < ct.NEWTON_TOL
        Ks = [pt.cycle.K for pt in br.points]
        assert Ks[0] == 50 and all(K < 50 for K in Ks[-3:]), Ks
        assert all(K in ad.rungs for K in Ks)

    def test_a_k50_resolve_moves_no_point(self, rung_branch):
        br, _ = rung_branch
        ops = hb.build_operators(50)
        for pt in br.points:
            sol, _ = hb.solve_hb_bordered(
                pt.cycle.to_fourier(50), pt.I, ct.hh_family(), ops,
                (0.0, 1.0, pt.I), ct.NEWTON_TOL, ct.NEWTON_MAX_ITER)
            assert abs(sol.period - pt.period) < 1e-8

    def test_a_failed_certificate_resolves_one_rung_up(self, rung_branch,
                                                       monkeypatch):
        # the first K=50 residual after a K=25 solve is the certificate:
        # make it fail once
        br, _ = rung_branch
        pt = next(p for p in br.points if p.cycle.K == 25)
        real, spoiled = hb.hb_residual, []

        def residual(xbar, field, ops, states=None):
            r = real(xbar, field, ops, states)
            if ops.K == 50 and not spoiled:
                spoiled.append(xbar)
                return r + 1.0
            return r

        solves, solve = [], hb.solve_hb_bordered

        def spy(init, I, *args):
            out = solve(init, I, *args)
            solves.append((init, out[0]))
            return out

        monkeypatch.setattr(hb, "hb_residual", residual)
        monkeypatch.setattr(hb, "solve_hb_bordered", spy)
        ad = ct._SolverAdapter("hb", hb_K=50)
        cyc, I = ad.correct(ct.hh_family(), pt.cycle, pt.period, pt.I,
                            (0.0, 1.0, pt.I))
        (init25, got25), (init50, got50) = solves
        assert (init25.K, got25.K, init50.K, got50.K) == (25, 25, 50, 50)
        assert spoiled[0].K == 50
        assert np.array_equal(spoiled[0].coeffs, init50.coeffs)
        assert np.array_equal(init50.coeffs, got25.to_fourier(50).coeffs)
        assert ad.climbs == 1 and ad.carry.solves == 2
        assert k50_residual(cyc, I) < ct.NEWTON_TOL

    def test_a_rung_too_small_for_the_spike_climbs_to_the_top(
            self, hb_cycle_20):
        ad = ct._SolverAdapter("hb", hb_K=50)
        cyc, I = ad.correct(ct.hh_family(), hb_cycle_20.to_fourier(25),
                            hb_cycle_20.period, 20.0, (0.0, 1.0, 20.0))
        assert ad.climbs == 1 and cyc.K == 50
        assert k50_residual(cyc, I) < ct.NEWTON_TOL
        assert abs(cyc.period - hb_cycle_20.period) < 1e-8


class TestContinueBranch:
    def test_invalid_start_rejected(self):
        bad = fake_point(np.nan)
        with pytest.raises(StartInvalid):
            ct.continue_branch(bad, +1, (10.0, 30.0), ct.hh_family(),
                               ct._SolverAdapter("hb", hb_K=40))

    def test_short_stable_run(self, field20, stable_cycle_20):
        start = ct.make_point(20.0, stable_cycle_20, field20)
        br = ct.continue_branch(
            start, +1, (20.0, 23.0), ct.hh_family(),
            ct._SolverAdapter("hb", hb_K=40),
            step_ctrl=ct.StepControl(initial=1.0, max_step=1.0),
            max_points=4)
        Is = [p.I for p in br.points]
        assert len(Is) == 4
        assert all(np.diff(Is) > 0)
        assert all(p.spectrum.stability == "stable" for p in br.points)
        # firing speeds up with stimulus: the period falls along this stretch
        assert br.points[-1].period < br.points[0].period

    def test_parks_on_the_limit_box(self, field20, stable_cycle_20):
        start = ct.make_point(20.0, stable_cycle_20, field20)
        br = ct.continue_branch(start, +1, (18.0, 20.0), ct.hh_family(),
                                ct._SolverAdapter("hb", hb_K=40))
        assert len(br.points) == 1


@dataclass(frozen=True)
class FoldCycle(PeriodicOrbit):
    """A cycle reduced to its period, with a fixed V range of 2 mV."""

    period: float

    def v_extrema(self):
        return -1.0, 1.0


def fold_current(T):
    return 1.0 - (T - 2.0) ** 2


class FoldCorrector:
    """Stub corrector for the synthetic fold I = 1 - (T - 2)^2.

    The field handed to it is the current itself.  It returns the point of
    the curve on the constraint line a_T*T + a_I*I = b nearest the guessed
    period, and fails where the line misses the curve.  Every row it gets
    is recorded.
    """

    name = "stub"

    def __init__(self):
        self.rows = []

    def correct(self, field_at, predictor, T, I, row):
        self.rows.append(row)
        a_T, a_I, b = row
        if a_I == 0.0:
            roots = np.array([b / a_T])
        else:
            # a_T*T + a_I*(1 - u^2) = b with u = T - 2
            u = np.roots([-a_I, a_T, 2.0 * a_T + a_I - b])
            roots = 2.0 + u[np.abs(u.imag) < 1e-12].real
        if len(roots) == 0:
            raise NoConvergence("the constraint line misses the curve")
        T_new = roots[np.argmin(np.abs(roots - T))]
        return FoldCycle(T_new), fold_current(T_new)


class FailingCorrector(FoldCorrector):
    def correct(self, field_at, predictor, T, I, row):
        raise NoConvergence("corrector always fails")


@pytest.fixture
def cheap_points(monkeypatch):
    # every branch point gets one fixed spectrum, with no flow of the stub
    monkeypatch.setattr(floquet, "spectrum",
                        lambda *args, **kwargs: make_spec((0.5, 0.1, 0.0)))


@pytest.mark.usefixtures("cheap_points")
class TestArclength:
    """The secant pseudo-arclength loop around a turning point."""

    def start(self):
        return ct.make_point(0.75, FoldCycle(2.5), None)

    def test_fold_is_rounded_as_an_ordinary_step(self):
        stub = FoldCorrector()
        br = ct.continue_branch(self.start(), +1, (-2.0, 2.0),
                                step_ctrl=ct.StepControl(initial=0.1),
                                adapter=stub, field_at=lambda I: I)
        Is = np.array([p.I for p in br.points])
        Ts = np.array([p.period for p in br.points])
        top, = ct.turning_indices(Is)
        # up to the fold in I, back down past it, T falling all the way
        assert 0.9 < Is[top] <= 1.0
        assert np.all(np.diff(Is[:top + 1]) > 0)
        assert np.all(np.diff(Is[top:]) < 0)
        assert np.all(np.diff(Ts) < 0)
        assert Ts[-1] < 2.0 < Ts[0]
        assert Is[-1] == -2.0    # parked on the lower limit
        assert np.allclose(Is, fold_current(Ts), rtol=0.0, atol=1e-12)
        # no frozen-period solve: every row holds I, alone or with T
        assert all(row[1] != 0.0 for row in stub.rows)
        assert any(row[0] != 0.0 for row in stub.rows)

    def test_constant_amplitude_leaves_the_steps_alone(self, monkeypatch):
        # the amplitude never falls, so no step is capped: the rows are the
        # ones of a run with the Hopf-end law switched off
        stub = FoldCorrector()
        ct.continue_branch(self.start(), +1, (-2.0, 2.0),
                           step_ctrl=ct.StepControl(initial=0.1),
                           adapter=stub, field_at=lambda I: I)
        monkeypatch.setattr(ct, "_hopf_end", lambda a, b: None)
        plain = FoldCorrector()
        ct.continue_branch(self.start(), +1, (-2.0, 2.0),
                           step_ctrl=ct.StepControl(initial=0.1),
                           adapter=plain, field_at=lambda I: I)
        assert stub.rows == plain.rows

    def test_failing_corrector_raises(self):
        with pytest.raises(NoConvergence):
            ct.continue_branch(self.start(), +1, (-2.0, 2.0),
                               adapter=FailingCorrector(),
                               field_at=lambda I: I)


class SampledFoldCycle(FoldCycle):
    """A FoldCycle known only at samples, as a shooting cycle is."""

    dense = False


class TestPointSpectra:
    """Each branch point's spectrum at a quarter of the step count, kept
    where its error estimates certify the label and the sign of
    det(M + I), else taken again at the full count."""

    def spectra(self, monkeypatch, mus, error=1e-3):
        # a spectrum of the given multipliers at any count, with the given
        # estimates where asked for; the counts asked for are recorded, and
        # only the reduced ones may ask for estimates
        calls = []

        def spectrum(cyc, fld, nsteps, estimate=False):
            calls.append(nsteps)
            assert estimate == (nsteps in (992, 224))
            return make_spec(mus, steps=floquet.taken_steps(nsteps),
                             error=error if estimate else None)
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        return calls

    @pytest.mark.parametrize("steps, reduced", [(4000, 992), (1000, 224)])
    def test_a_settled_point_takes_one_reduced_spectrum(self, monkeypatch,
                                                        steps, reduced):
        calls = self.spectra(monkeypatch, (0.5, 0.1, 0.0))
        pt = ct.make_point(0.75, FoldCycle(2.5), None, spectrum_steps=steps)
        assert calls == [reduced] and pt.spectrum.steps == reduced

    def test_every_accepted_point_takes_one_reduced_spectrum(self,
                                                             monkeypatch):
        calls = self.spectra(monkeypatch, (0.5, 0.1, 0.0))
        br = ct.continue_branch(ct.make_point(0.75, FoldCycle(2.5), None),
                                +1, (-2.0, 2.0),
                                step_ctrl=ct.StepControl(initial=0.1),
                                adapter=FoldCorrector(), field_at=lambda I: I)
        assert len(br.points) > 3 and calls == [992] * len(br.points)

    @pytest.mark.parametrize("mu", [-1.0 + 9e-3, -1.0 - 9e-3, 1.0 + 9e-3,
                                    1.0 - 9e-3, 0.991j])
    def test_a_multiplier_within_ten_estimates_is_retaken(self, monkeypatch,
                                                          mu):
        # 9 estimates from -1 or from the unit circle: the reduced
        # spectrum does not certify the label or the sign of det(M + I)
        calls = self.spectra(monkeypatch, (mu, np.conj(mu), 0.1))
        pt = ct.make_point(0.75, FoldCycle(2.5), None)
        assert calls == [992, 4000] and pt.spectrum.steps == 4000

    @pytest.mark.parametrize("mu", [-1.0 + 11e-3, 1.0 - 11e-3, 0.989j])
    def test_a_multiplier_beyond_ten_estimates_is_kept(self, monkeypatch,
                                                       mu):
        calls = self.spectra(monkeypatch, (mu, np.conj(mu), 0.1))
        assert ct.make_point(0.75, FoldCycle(2.5), None).spectrum.steps == 992
        assert calls == [992]

    def test_no_estimate_is_no_certificate(self, monkeypatch):
        calls = self.spectra(monkeypatch, (0.5, 0.1, 0.0), error=None)
        assert ct.make_point(0.75, FoldCycle(2.5), None).spectrum.steps == 4000
        assert calls == [992, 4000]

    def test_a_spurious_reduced_spectrum_is_retaken(self, field20,
                                                    hb_cycle_20):
        # spectrum_steps 256 leave 64 reduced steps, too few for the fast
        # gating modes: that spectrum calls the stable I=20 cycle unstable,
        # with no multiplier near -1 or the unit circle, and its estimates
        # do not certify it
        assert floquet.spectrum(hb_cycle_20, field20,
                                64).stability == "unstable"
        spec = ct.point_spectrum(hb_cycle_20, field20, 256)
        assert spec.steps == 256 and spec.stability == "stable"

    @pytest.mark.parametrize("cycle, steps", [(SampledFoldCycle(2.5), 4000),
                                              (FoldCycle(2.5), 127)])
    def test_full_count_only(self, monkeypatch, cycle, steps):
        # a sampled cycle carries no estimate, and 127 steps leave fewer
        # than two reduced steps per subinterval: one spectrum, at the
        # full count
        calls = self.spectra(monkeypatch, (0.5, 0.1, 0.0))
        ct.make_point(0.75, cycle, None, spectrum_steps=steps)
        assert calls == [steps]


@dataclass(frozen=True)
class HopfCycle(PeriodicOrbit):
    """A cycle reduced to its period and its V range."""

    period: float
    amplitude: float

    def v_extrema(self):
        return -0.5 * self.amplitude, 0.5 * self.amplitude


HOPF_I = 10.0
PERIOD_0, PERIOD_SLOPE = 2.0, 0.05   # the period along the branch


class HopfEndCorrector:
    """Stub corrector for a branch that dies in a Hopf point at HOPF_I.

    The amplitude is sqrt(u)*(1 + beta*u) with u = HOPF_I - I, the period
    PERIOD_0 + PERIOD_SLOPE*I; past the Hopf point only the equilibrium is
    left, and the solve raises DegenerateCycle.  Every current it solves at
    and every failure is recorded.
    """

    name = "stub"

    def __init__(self, beta):
        self.beta = beta
        self.currents, self.failures = [], []

    def cycle(self, I):
        u = HOPF_I - I
        return HopfCycle(PERIOD_0 + PERIOD_SLOPE * I,
                         np.sqrt(u) * (1.0 + self.beta * u))

    def correct(self, field_at, predictor, T, I, row):
        # where the branch's line in (I, T) meets a_T*T + a_I*I = b
        a_T, a_I, b = row
        I_new = (b - a_T * PERIOD_0) / (a_T * PERIOD_SLOPE + a_I)
        self.currents.append(I_new)
        if I_new >= HOPF_I:
            self.failures.append(I_new)
            raise DegenerateCycle("Newton converged onto the equilibrium")
        return self.cycle(I_new), I_new


@pytest.mark.usefixtures("cheap_points")
class TestHopfEnd:
    """Steps toward a Hopf endpoint land on it by the square-root law."""

    CTRL = ct.StepControl(initial=1.0, max_step=4.0, collapse_amplitude=0.4)

    def run(self, stub):
        start = ct.make_point(0.0, stub.cycle(0.0), None)
        return ct.continue_branch(start, +1, (0.0, 20.0), field_at=lambda I: I,
                                  adapter=stub, step_ctrl=self.CTRL)

    def first_capped(self, br):
        """Index of the first point reached by a capped step."""
        pts = br.points
        land = (ct.HOPF_LANDING * self.CTRL.collapse_amplitude) ** 2
        for i in range(2, len(pts)):
            d = ct._hopf_end(pts[i - 2], pts[i - 1])
            cap = abs(d) * (1.0 - land / pts[i - 1].amplitude ** 2)
            if pts[i].I - pts[i - 1].I == pytest.approx(cap, rel=1e-9):
                return i
        raise AssertionError("no step was capped")

    # beta >= 0: amplitude^2 is convex in I, as on the Hodgkin-Huxley
    # stable branch, so the law's endpoint is never past the true one
    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.2])
    def test_lands_on_the_endpoint(self, beta):
        stub = HopfEndCorrector(beta)
        br = self.run(stub)
        assert stub.failures == []
        assert br.points[-1].amplitude < self.CTRL.collapse_amplitude
        assert np.all(np.diff([p.I for p in br.points]) > 0)
        # the capped steps close in on the end: at most four of them follow
        # the first, even where beta*u is 2 at the first capped step
        assert len(br.points) - 1 - self.first_capped(br) <= 4
        ev, = br.events
        assert ev.kind == "hopf"
        # the secant of amplitude^2 through the last two points, at u1 and
        # u2 from the end, misses the root by about 2*beta*u1*u2
        u1, u2 = (HOPF_I - p.I for p in br.points[-1:-3:-1])
        assert abs(ev.I_star - HOPF_I) <= 3.0 * abs(beta) * u1 * u2 + 1e-12

    def test_exact_law_lands_on_half_the_collapse_amplitude(self):
        br = self.run(HopfEndCorrector(0.0))
        assert br.points[-1].amplitude == pytest.approx(
            ct.HOPF_LANDING * self.CTRL.collapse_amplitude, rel=1e-9)
        assert br.events[0].I_star == pytest.approx(HOPF_I, abs=1e-12)

    def test_a_law_bent_the_other_way_costs_one_halving(self):
        # concave amplitude^2: the law overshoots once, and the halved
        # step lands
        stub = HopfEndCorrector(-0.05)
        br = self.run(stub)
        assert len(stub.failures) == 1
        assert br.points[-1].amplitude < self.CTRL.collapse_amplitude
        assert br.events[0].I_star == pytest.approx(HOPF_I, abs=1e-3)

    def test_steps_away_from_the_end_are_not_capped(self, monkeypatch):
        # the amplitude rises along this run, its square threefold over the
        # step before the step doubles: its currents are the ones of a run
        # with the law switched off
        def currents():
            stub = HopfEndCorrector(10.0)
            start = ct.make_point(9.9, stub.cycle(9.9), None)
            ct.continue_branch(start, -1, (0.0, 10.0), field_at=lambda I: I,
                               adapter=stub, step_ctrl=self.CTRL)
            return stub.currents
        capped = currents()
        monkeypatch.setattr(ct, "_hopf_end", lambda a, b: None)
        assert capped == currents()
        assert len(capped) > 3

    def test_uncapped_steps_run_onto_the_equilibrium(self, monkeypatch):
        # without the law the same run steps past the endpoint
        monkeypatch.setattr(ct, "_hopf_end", lambda a, b: None)
        stub = HopfEndCorrector(0.0)
        self.run(stub)
        assert stub.failures

    def test_a_landing_from_above_four_collapse_amplitudes_is_kept(self):
        # the capped step from 2 mV aims at 0.2 mV, below the collapse
        # amplitude on purpose: no sudden collapse, so no converged solve
        # is thrown away
        stub = HopfEndCorrector(0.0)
        start = ct.make_point(-6.0, stub.cycle(-6.0), None)
        ctrl = replace(self.CTRL, initial=6.0, max_step=8.0)
        br = ct.continue_branch(start, +1, (-6.0, 20.0), field_at=lambda I: I,
                                adapter=stub, step_ctrl=ctrl)
        assert len(stub.currents) == len(br.points) - 1 == 3
        assert br.points[-2].amplitude > 4.0 * ctrl.collapse_amplitude
        assert br.points[-1].amplitude == pytest.approx(
            ct.HOPF_LANDING * ctrl.collapse_amplitude, rel=1e-9)


class OvershootCorrector:
    """Stub corrector for a branch of steady 2 mV amplitude on which Newton
    slides onto the equilibrium (amplitude 0.01 mV) from any step longer
    than REACH in I, as past a fold the predictor overshot.  Every step
    length in I it is asked for is recorded."""

    name = "stub"
    REACH = 1.5

    def __init__(self):
        self.steps = []

    def correct(self, field_at, predictor, T, I, row):
        a_T, a_I, b = row
        I_new = (b - a_T * PERIOD_0) / (a_T * PERIOD_SLOPE + a_I)
        step = I_new - (predictor.period - PERIOD_0) / PERIOD_SLOPE
        self.steps.append(step)
        amp = 0.01 if step > self.REACH else 2.0
        return HopfCycle(PERIOD_0 + PERIOD_SLOPE * I_new, amp), I_new


@pytest.mark.usefixtures("cheap_points")
def test_a_sudden_collapse_is_rejected_and_halves_the_step():
    stub = OvershootCorrector()
    start = ct.make_point(0.0, HopfCycle(PERIOD_0, 2.0), None)
    br = ct.continue_branch(start, +1, (0.0, 12.0), field_at=lambda I: I,
                            adapter=stub, step_ctrl=TestHopfEnd.CTRL)
    assert br.events == [] and br.points[-1].I == 12.0
    assert all(p.amplitude == 2.0 for p in br.points)
    over = [k for k, d in enumerate(stub.steps) if d > stub.REACH]
    assert over
    for k in over:
        assert stub.steps[k + 1] == pytest.approx(0.5 * stub.steps[k],
                                                  rel=1e-12)


def bent_series(I):
    """The K=2 series of V along a branch that bends in I: its harmonics
    move quadratically, so every extrapolation reads a fresh secant."""
    return hb.FourierCycle(K=2, period=PERIOD_0 + PERIOD_SLOPE * I,
                           coeffs=np.array([[-60.0 + I, 20.0 + 0.1 * I * I,
                                             0.0, 3.0 - I, 0.5 * I * I]]))


def mesh_cycle(I):
    """A collocation cycle of the same branch, on one fixed mesh."""
    tau = np.linspace(0.0, 1.0, 17)
    mid = 0.5 * (tau[:-1] + tau[1:])
    ring = lambda s: (20.0 + I) * np.stack([np.cos(2 * np.pi * s),
                                            -np.sin(2 * np.pi * s)], axis=1)
    return collocation.CollocationSolution(
        mesh=collocation.Mesh(tau), y=ring(tau[:-1]), mid=ring(mid),
        period=PERIOD_0 + PERIOD_SLOPE * I, field=harmonic_oscillator())


class SpyCorrector:
    """Stub corrector for the branch T = PERIOD_0 + PERIOD_SLOPE*I with the
    cycles cycle_at(I).  Every call records its guess, the predicted (T, I)
    and the last two accepted (I, T, cycle); the calls numbered in fail_at
    raise NoConvergence."""

    name = "stub"

    def __init__(self, cycle_at, start_I, fail_at=()):
        self.cycle_at, self.fail_at = cycle_at, fail_at
        cyc = cycle_at(start_I)
        self.accepted = [(start_I, cyc.period, cyc)]
        self.calls = []

    def correct(self, field_at, predictor, T, I, row):
        self.calls.append((predictor, T, I, self.accepted[-2:]))
        if len(self.calls) - 1 in self.fail_at:
            raise NoConvergence("scripted failure")
        a_T, a_I, b = row
        I_new = (b - a_T * PERIOD_0) / (a_T * PERIOD_SLOPE + a_I)
        cyc = self.cycle_at(I_new)
        self.accepted.append((I_new, cyc.period, cyc))
        return cyc, I_new


@pytest.mark.usefixtures("cheap_points")
class TestCyclePredictor:
    """Each corrector starts from the cycle predicted along the secant."""

    CTRL = ct.StepControl(initial=0.5, max_step=1.0)
    LIMITS = (0.0, 6.0)

    def run(self, cycle_at, fail_at=()):
        spy = SpyCorrector(cycle_at, 0.0, fail_at)
        start = ct.make_point(0.0, spy.accepted[0][2], None)
        br = ct.continue_branch(start, +1, self.LIMITS, field_at=lambda I: I,
                                adapter=spy, step_ctrl=self.CTRL)
        assert br.points[-1].I == self.LIMITS[1]
        return br, spy

    @staticmethod
    def secant_coeffs(prev, cur, T, I):
        """c + (s/|delta|)(c - c_prev): s from cur to the predicted (I, T),
        |delta| from prev to cur."""
        s = np.hypot(I - cur[0], T - cur[1])
        delta = np.hypot(cur[0] - prev[0], cur[1] - prev[1])
        return cur[2].coeffs + (s / delta) * (cur[2].coeffs - prev[2].coeffs)

    def test_the_first_step_starts_from_the_start_cycle(self):
        br, spy = self.run(bent_series)
        assert spy.calls[0][0] is br.points[0].cycle

    def test_later_steps_start_from_the_extrapolated_series(self):
        # the fifth solve fails, so the sixth retries the same secant with
        # half the step; the last one is pinned on the box edge
        br, spy = self.run(bent_series, fail_at=(4,))
        _, T, I, (_, cur) = spy.calls[5]
        _, T_no, I_no, (_, cur_no) = spy.calls[4]
        assert cur is cur_no
        assert np.hypot(I - cur[0], T - cur[1]) == pytest.approx(
            0.5 * np.hypot(I_no - cur[0], T_no - cur[1]), rel=1e-12)
        assert spy.calls[-1][2] == self.LIMITS[1]
        assert len(spy.calls) == len(br.points)
        for guess, T, I, (prev, cur) in spy.calls[1:]:
            expected = self.secant_coeffs(prev, cur, T, I)
            assert guess.K == 2
            assert np.allclose(guess.coeffs, expected, rtol=1e-12, atol=1e-12)
            assert not np.allclose(guess.coeffs, cur[2].coeffs)

    @pytest.mark.parametrize("K_prev, K_cur", [(2, 4), (4, 2)])
    def test_series_of_two_rungs_extrapolate_at_the_newer_k(self, K_prev,
                                                            K_cur):
        # the older series is zero-padded, or truncated, to the newer K
        prev = bent_series(1.0).to_fourier(K_prev)
        prev = replace(prev, coeffs=prev.coeffs + 0.25)
        cur = bent_series(2.0).to_fourier(K_cur)
        guess = ct._secant_cycle(fake_point(1.0, cycle=prev),
                                 fake_point(2.0, cycle=cur), 0.5)
        prev_at_cur = hb.resize(prev, K_cur).coeffs
        assert guess.K == K_cur
        assert np.array_equal(guess.coeffs,
                              cur.coeffs + 0.5 * (cur.coeffs - prev_at_cur))

    def test_a_collocation_branch_starts_from_the_current_cycle(self):
        _, spy = self.run(mesh_cycle)
        assert len(spy.calls) > 3
        for guess, _, _, accepted in spy.calls:
            assert guess is accepted[-1][2]


class TestBracketSlice:
    def test_pd_bracket_is_the_quarter_before_the_second_turn(self):
        br = fake_branch([5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                          5.0, 6.0, 7.0, 8.0, 9.0, 8.0])
        assert ct.turning_indices([p.I for p in br.points]) == [5, 14]
        assert ct.pd_bracket(br) == range(11, 16)
        # with fewer than two turns the search takes the whole branch
        assert ct.pd_bracket(fake_branch([3.0, 2.0, 1.0, 2.0])) == range(4)


class TestLocators:
    def test_fold_needs_three_points(self):
        br = fake_branch([1.0, 2.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br, 1, lambda I: I, FoldCorrector())

    def test_fold_needs_an_extremum(self):
        br = fake_branch([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br, 1, lambda I: I, FoldCorrector())
        # only an interior index where I turns back is a fold's: I turns
        # at 2 here, and never at the ends
        br = fake_branch([3.0, 2.0, 1.0, 2.0, 3.0])
        for j in (-1, 0, 1, 3, 4, 5):
            with pytest.raises(NoExtremum):
                ct.locate_fold(br, j, lambda I: I, FoldCorrector())

    def test_fold_vertex_iteration_lands_on_the_turning_point(self,
                                                              monkeypatch):
        # samples of the synthetic fold I = 1 - (T - 2)^2 around its top
        Ts = np.array([2.6, 2.35, 2.12, 1.93, 1.7, 1.45])
        br = fake_branch(fold_current(Ts), periods=Ts)
        calls = []

        def spectrum(cyc, fld, nsteps):
            calls.append((cyc.period, fld, nsteps))
            return make_spec((1.0005, 0.1, 0.0))
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        j, = ct.turning_indices([p.I for p in br.points])
        ev = ct.locate_fold(br, j, field_at=lambda I: I,
                            adapter=FoldCorrector(), spectrum_steps=123)
        assert ev.I_star == pytest.approx(1.0, abs=1e-12)
        assert ev.evidence["period"] == pytest.approx(2.0)
        assert ev.evidence["multiplier"] == pytest.approx(1.0005)
        # one certificate spectrum, taken at the located fold with the
        # given step count
        assert calls == [(ev.evidence["period"], ev.I_star, 123)]

    def fold_at_roundoff(self, monkeypatch, mid=0.0):
        """Branch samples 1e-9 apart around the top of I = 1 - (T - 2)^2,
        the middle one mid*1e-9 off the top.

        There the exact currents agree to 1e-18, below the roundoff of I;
        the outer two carry two ulps of it, which keeps the turn visible.
        """
        monkeypatch.setattr(floquet, "spectrum",
                            lambda *args, **kwargs: make_spec((1.0, 0.1, 0.0)))
        ulp = 2.0 ** -53
        Ts = 2.0 + 1e-9 * np.array([-1.0, mid, 1.0])
        return fake_branch([1.0 - 2 * ulp, 1.0, 1.0 - 2 * ulp], periods=Ts)

    def test_fold_from_samples_closer_than_the_roundoff_of_i(self,
                                                             monkeypatch):
        br = self.fold_at_roundoff(monkeypatch)
        ad = FoldCorrector()
        ev = ct.locate_fold(br, 1, field_at=lambda I: I, adapter=ad)
        assert ev.I_star == pytest.approx(1.0, abs=1e-15)
        assert ev.evidence["period"] == pytest.approx(2.0, abs=1e-9)
        # the first vertex is the middle sample's period: no solve is spent
        # on it, and no duplicate sample makes the next fit rank-deficient
        assert ad.rows == []
        assert ev.evidence["period"] == 2.0

    def test_fold_keeps_the_last_vertex_once_the_fit_is_lost(self,
                                                             monkeypatch):
        # with no stop on the vertex period, the samples cluster until the
        # quadratic fit of the flat I(T) gives no vertex in the window; the
        # middle sample sits off the top so that the first vertex is solved
        br = self.fold_at_roundoff(monkeypatch, mid=0.95)
        monkeypatch.setattr(ct, "FOLD_TOL", 0.0)
        ad = FoldCorrector()
        ev = ct.locate_fold(br, 1, field_at=lambda I: I, adapter=ad)
        assert len(ad.rows) < ct.FOLD_MAX_ITER
        assert ev.evidence["period"] == ad.rows[-1][2]
        assert ev.I_star == pytest.approx(1.0, abs=1e-15)
        assert ev.evidence["period"] == pytest.approx(2.0, abs=1e-9)

    def test_two_folds_three_points_apart_are_each_located(self,
                                                           monkeypatch):
        # I = u^3/3 - u with u = T - 2 turns at T = 1 (I = 2/3) and at
        # T = 3 (I = -2/3), three branch points apart; each search starts
        # from the points around its own turn
        monkeypatch.setattr(floquet, "spectrum",
                            lambda *args, **kwargs: make_spec((1.0, 0.1, 0.0)))

        def current(T):
            return (T - 2.0) ** 3 / 3.0 - (T - 2.0)

        class CubicCorrector:
            def correct(self, field_at, predictor, T, I, row):
                a_T, a_I, b = row
                assert a_I == 0.0    # the fold search pins T
                return FoldCycle(b / a_T), current(b / a_T)

        Ts = np.array([-0.2, 0.4, 1.1, 1.7, 2.3, 2.9, 3.5, 4.1])
        br = fake_branch(current(Ts), periods=Ts)
        turns = ct.turning_indices([p.I for p in br.points])
        assert turns == [2, 5]
        folds = [ct.locate_fold(br, j, lambda I: I, CubicCorrector())
                 for j in turns]
        assert [ev.evidence["period"] for ev in folds] == [
            pytest.approx(1.0, abs=1e-4), pytest.approx(3.0, abs=1e-4)]
        assert [ev.I_star for ev in folds] == [
            pytest.approx(2.0 / 3.0, abs=1e-9),
            pytest.approx(-2.0 / 3.0, abs=1e-9)]

    def test_pd_needs_two_points(self):
        br = fake_branch([1.0])
        with pytest.raises(NoSignChange):
            ct.locate_pd(br, ct.pd_bracket(br), lambda I: I, FoldCorrector())

    def test_pd_between_the_last_sample_and_the_fold(self, monkeypatch):
        # the multiplier crosses -1 at T=2.03, between the sample at 2.06
        # (the I maximum) and the fold at T=2; the first three points only
        # make the turn in I that opens the bracket
        def mu(T):
            return -1.0 + 5.0 * (T - 2.03)

        def spectrum(cyc, fld, nsteps=None):
            return make_spec((mu(cyc.period), 0.1, 0.0))
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        Ts = [4.0, 3.5, 3.0, 2.8, 2.6, 2.35, 2.06, 1.9, 1.7]
        Is = [0.5, 0.2, 0.1] + [fold_current(T) for T in Ts[3:]]
        br = ct.Branch(points=[fake_point(I, period=T, mus=(mu(T), 0.1, 0.0))
                               for I, T in zip(Is, Ts)],
                       events=[], solver="hb")
        assert ct.pd_bracket(br) == range(5, 8)
        ev = ct.locate_pd(br, ct.pd_bracket(br), field_at=lambda I: I,
                          adapter=FoldCorrector())
        assert ev.evidence["period"] == pytest.approx(2.03, abs=1e-9)
        assert ev.I_star == pytest.approx(fold_current(2.03), abs=1e-12)

    def test_pd_reads_full_count_spectra(self, monkeypatch):
        # the branch points kept reduced spectra that miss the crossing;
        # locate_pd takes them again at the full count, which shows it,
        # and keeps those already at the full count
        def mu(T):
            return -1.0 + 5.0 * (T - 2.03)

        calls = []

        def spectrum(cyc, fld, nsteps=None):
            calls.append((cyc.period, nsteps))
            return make_spec((mu(cyc.period), 0.1, 0.0))
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        Ts = [4.0, 3.5, 3.0, 2.8, 2.6, 2.35, 2.06, 1.9, 1.7]
        Is = [0.5, 0.2, 0.1] + [fold_current(T) for T in Ts[3:]]
        pts = [fake_point(I, period=T, mus=(-0.5, 0.1, 0.0))
               for I, T in zip(Is, Ts)]
        for j in (6, 7):
            pts[j] = replace(pts[j], spectrum=replace(pts[j].spectrum,
                                                      steps=992))
        br = ct.Branch(points=pts, events=[], solver="hb")
        assert ct.pd_bracket(br) == range(5, 8)
        ev = ct.locate_pd(br, ct.pd_bracket(br), field_at=lambda I: I,
                          adapter=FoldCorrector())
        assert calls[:2] == [(2.06, 4000), (1.9, 4000)]
        assert all(T != 2.35 for T, _ in calls)
        assert ev.evidence["period"] == pytest.approx(2.03, abs=1e-9)

    def test_pd_refines_a_sign_change_between_branch_neighbours(
            self, monkeypatch):
        # I rises along the whole branch while T rises over points 0-3 and
        # falls back over 4-7, so the two segments' periods interleave.  A
        # multiplier crosses -1 at T = 3.2 on the second segment alone,
        # between points 5 and 6; sorted by T, the points would also pair
        # the segments, with sign changes of det(M + I) between them.  The
        # second segment is where I >= 4
        def mu(I, T):
            return -1.0 + 0.5 * (3.2 - T) if I >= 4.0 else -0.5

        def current(I, T):
            return 8.5 - T if I >= 4.0 else T - 1.0

        def spectrum(cyc, fld, nsteps=None):
            return make_spec((mu(fld, cyc.period), 0.1, 0.0))
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        Ts = [1.0, 2.0, 3.0, 4.0, 4.5, 3.5, 2.5, 1.5]
        Is = [current(I, T) for I, T in zip([0.0] * 4 + [4.0] * 4, Ts)]
        assert Is == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        br = ct.Branch(points=[fake_point(I, period=T,
                                          mus=(mu(I, T), 0.1, 0.0))
                               for I, T in zip(Is, Ts)],
                       events=[], solver="hb")
        assert ct.turning_indices(Is) == []

        class SegmentCorrector:
            """The point at period T on the segment of the seed."""

            def __init__(self):
                self.seeds = []

            def correct(self, field_at, predictor, T, I, row):
                self.seeds.append(predictor)
                return FoldCycle(T), current(I, T)

        ad = SegmentCorrector()
        ev = ct.locate_pd(br, ct.pd_bracket(br), field_at=lambda I: I,
                          adapter=ad)
        assert ev.evidence["period"] == pytest.approx(3.2, abs=1e-9)
        assert ev.I_star == pytest.approx(8.5 - 3.2, abs=1e-9)
        assert ad.seeds and all(
            seed is br.points[5].cycle or seed is br.points[6].cycle
            for seed in ad.seeds)


class TestHopfSeed:
    def test_seed_geometry(self, hopf_points):
        (I2, omega0), _ = hopf_points
        seed = ct.hopf_branch_seed(I2, omega0, 2.0)
        assert seed.K == 2
        assert seed.period == pytest.approx(2 * np.pi / omega0)
        eq = model.find_equilibrium(I2)
        assert np.allclose(seed.coeffs[:, 0], eq, atol=1e-10)
        assert seed.coeffs[0, 1] == pytest.approx(2.0)      # V cosine
        assert abs(seed.coeffs[0, 2]) < 1e-12               # V sine anchored

    def test_seed_converges_just_inside_the_crossing(self, hopf_points):
        (I2, omega0), _ = hopf_points
        I = I2 - 0.02
        seed = hb.resize(ct.hopf_branch_seed(I, omega0, 2.0), 20)
        ops = hb.build_operators(20)
        sol = hb.solve_hb(seed, ct.hh_family()(I), ops, tol=1e-10)
        assert sol.period == pytest.approx(2 * np.pi / omega0, rel=0.1)
        vmin, vmax = sol.v_extrema()
        assert 0.5 < vmax - vmin < 30.0


class TestAssembleDiagram:
    def test_dedup_and_split(self):
        a = fake_branch([1.0, 2.0, 3.0])
        b = fake_branch([3.0, 4.0], periods=[10.2, 10.3])
        # branch b shares the I=3 point (same orbit signature) exactly
        a.events.append(ct.BifurcationEvent("hopf", 9.78, {}))
        b.events.append(ct.BifurcationEvent("hopf", 154.5, {}))
        b.events.append(ct.BifurcationEvent("hopf", 9.78 + 1e-9, {}))
        extra = [ct.BifurcationEvent("fold", 7.85, {})]
        d = ct.assemble_diagram([a, b], extra)
        assert len(d.records) == 4
        assert [e.kind for e in d.events] == ["fold", "hopf", "hopf"]

    def test_a_branch_end_within_its_last_step_joins_the_located_hopf(self):
        br = fake_branch([150.0, 152.0, 154.3, 154.52])     # last step 0.22
        br.events.append(ct.BifurcationEvent(
            "hopf", 154.526619, {"amplitude": 0.32, "omega": 1.06}))
        scan = {"omega": 1.063, "source": "equilibrium eigenvalues"}
        located = [ct.BifurcationEvent("hopf", 9.78, scan),
                   ct.BifurcationEvent("hopf", 154.526634, scan)]
        d = ct.assemble_diagram([br], located)
        assert [(e.kind, e.I_star) for e in d.events] == [
            ("hopf", 9.78), ("hopf", 154.526634)]
        assert d.events[0].evidence == scan
        assert d.events[1].evidence == {**scan, "branch_I_star": 154.526619,
                                        "branch_amplitude": 0.32}
        # further than the last step, or another kind: two events
        for other in (ct.BifurcationEvent("hopf", 154.526619 + 0.23, scan),
                      ct.BifurcationEvent("fold", 154.526634, {})):
            d = ct.assemble_diagram([br], [other])
            assert sorted(e.I_star for e in d.events) == sorted(
                [154.526619, other.I_star])
