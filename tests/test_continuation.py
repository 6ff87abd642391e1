"""Branch following, turning-point handling and diagram assembly."""

from dataclasses import dataclass

import numpy as np
import pytest

from hhcycles import continuation as ct
from hhcycles import floquet, hb, model
from hhcycles.cycles import PeriodicOrbit
from hhcycles.errors import (NoConvergence, NoExtremum, NoSignChange,
                             StartInvalid)
from test_floquet import make_spec


def fake_point(I, period=10.0, v_min=-90.0, v_max=8.0, mus=(0.1, 0.0, 0.0)):
    return ct.BranchPoint(I=I, cycle=FoldCycle(period), period=period,
                          v_min=v_min, v_max=v_max, spectrum=make_spec(mus))


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
        a = ct.v_extrema(stable_cycle_20)
        b = ct.v_extrema(hb_cycle_20)
        assert a[0] == pytest.approx(b[0], abs=0.1)
        assert a[1] == pytest.approx(b[1], abs=0.1)

    def test_v_extrema_rejects_unknown(self):
        with pytest.raises(TypeError):
            ct.v_extrema(3.14)

    def test_as_fourier_from_time_cycle(self, stable_cycle_20):
        fc = stable_cycle_20.to_fourier(30)
        assert fc.K == 30
        assert fc.period == pytest.approx(stable_cycle_20.period)

    def test_as_fourier_resizes(self, hb_cycle_20):
        fc = hb_cycle_20.to_fourier(20)
        assert fc.K == 20

    def test_as_time_cycle_roundtrip(self, hb_cycle_20):
        cyc = hb_cycle_20.to_time_cycle()
        assert cyc.period == pytest.approx(hb_cycle_20.period)
        t = cyc.samples.times
        V = hb.evaluate_series(hb_cycle_20, t)[:, 0]
        assert np.max(np.abs(cyc.samples.states[:-1, 0] - V[:-1])) < 1e-9

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


class TestContinueBranch:
    def test_invalid_start_rejected(self):
        bad = fake_point(np.nan)
        with pytest.raises(StartInvalid):
            ct.continue_branch(bad, +1, (10.0, 30.0))

    def test_short_stable_run(self, field20, stable_cycle_20):
        start = ct.make_point(20.0, stable_cycle_20, field20)
        br = ct.continue_branch(
            start, +1, (20.0, 23.0),
            adapter=ct._SolverAdapter("hb", hb_K=40),
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
        br = ct.continue_branch(start, +1, (18.0, 20.0),
                                adapter=ct._SolverAdapter("hb", hb_K=40))
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
    def make_point(I, cyc, fld, spectrum_steps=None):
        vmin, vmax = cyc.v_extrema()
        return ct.BranchPoint(I=float(I), cycle=cyc, period=cyc.period,
                              v_min=vmin, v_max=vmax,
                              spectrum=make_spec((0.5, 0.1, 0.0)))
    monkeypatch.setattr(ct, "make_point", make_point)


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

    def test_failing_corrector_raises(self):
        with pytest.raises(NoConvergence):
            ct.continue_branch(self.start(), +1, (-2.0, 2.0),
                               adapter=FailingCorrector(),
                               field_at=lambda I: I)


class TestBracketSlice:
    def test_none_selects_all(self):
        br = fake_branch([1.0, 2.0, 3.0])
        assert ct._bracket_slice(br, None) == [0, 1, 2]

    def test_index_pair_selects_window(self):
        br = fake_branch([5.0, 4.0, 3.0, 4.0, 5.0])
        assert ct._bracket_slice(br, (1, 3)) == [1, 2, 3]

    def test_pd_bracket_is_the_quarter_before_the_second_turn(self):
        br = fake_branch([5.0, 4.0, 3.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                          5.0, 6.0, 7.0, 8.0, 9.0, 8.0])
        assert ct.turning_indices([p.I for p in br.points]) == [5, 14]
        assert ct.pd_bracket(br) == (11, 15)
        assert ct.pd_bracket(fake_branch([3.0, 2.0, 1.0, 2.0])) is None


class TestLocators:
    def test_fold_needs_three_points(self):
        br = fake_branch([1.0, 2.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br)

    def test_fold_needs_an_extremum(self):
        br = fake_branch([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br)

    def test_fold_vertex_iteration_lands_on_the_turning_point(self,
                                                              monkeypatch):
        # samples of the synthetic fold I = 1 - (T - 2)^2 around its top
        Ts = np.array([2.6, 2.35, 2.12, 1.93, 1.7, 1.45])
        br = fake_branch(fold_current(Ts), periods=Ts)
        calls = []

        def spectrum(cyc, fld, *args, **kwargs):
            calls.append((cyc.period, fld))
            return make_spec((1.0005, 0.1, 0.0))
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        j, = ct.turning_indices([p.I for p in br.points])
        assert ct.fold_bracket(br, j) == (0, 5)
        ev = ct.locate_fold(br, ct.fold_bracket(br, j), field_at=lambda I: I,
                            adapter=FoldCorrector())
        assert ev.I_star == pytest.approx(1.0, abs=1e-12)
        assert ev.evidence["period"] == pytest.approx(2.0)
        assert ev.evidence["multiplier"] == pytest.approx(1.0005)
        # one certificate spectrum, taken at the located fold
        assert calls == [(ev.evidence["period"], ev.I_star)]

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
        ev = ct.locate_fold(br, field_at=lambda I: I, adapter=ad)
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
        ev = ct.locate_fold(br, field_at=lambda I: I, adapter=ad)
        assert len(ad.rows) < ct.FOLD_MAX_ITER
        assert ev.evidence["period"] == ad.rows[-1][2]
        assert ev.I_star == pytest.approx(1.0, abs=1e-15)
        assert ev.evidence["period"] == pytest.approx(2.0, abs=1e-9)

    def test_pd_needs_two_points(self):
        br = fake_branch([1.0])
        with pytest.raises(NoSignChange):
            ct.locate_pd(br, None)

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
        assert ct.pd_bracket(br) == (5, 7)
        ev = ct.locate_pd(br, ct.pd_bracket(br), field_at=lambda I: I,
                          adapter=FoldCorrector())
        assert ev.evidence["period"] == pytest.approx(2.03, abs=1e-9)
        assert ev.I_star == pytest.approx(fold_current(2.03), abs=1e-12)


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
        vmin, vmax = ct.v_extrema(sol)
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
