"""Branch following, turning-point handling and diagram assembly."""

import numpy as np
import pytest

from hhcycles import continuation as ct
from hhcycles import floquet, hb, model
from hhcycles.errors import (NoConvergence, NoExtremum, NoSignChange,
                             StartInvalid)
from test_floquet import make_spec


def fake_point(I, period=10.0, v_min=-90.0, v_max=8.0, mus=(0.1, 0.0, 0.0)):
    return ct.BranchPoint(I=I, cycle=None, period=period, v_min=v_min,
                          v_max=v_max, spectrum=make_spec(mus))


def fake_branch(Is, periods=None):
    periods = periods if periods is not None else 10.0 + 0.1 * np.arange(len(Is))
    pts = [fake_point(I, period=T) for I, T in zip(Is, periods)]
    return ct.Branch(points=pts, events=[], solver="hb", mode_history=[(0, "I")])


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

    def test_hb_adapter_solves_from_time_predictor(self, field20,
                                                   stable_cycle_20):
        ad = ct._SolverAdapter("hb", hb_K=40)
        sol = ad.solve(field20, stable_cycle_20)
        assert sol.period == pytest.approx(stable_cycle_20.period, rel=1e-6)

    def test_shooting_has_no_fixed_period_mode(self, stable_cycle_20):
        ad = ct._SolverAdapter("shooting")
        with pytest.raises(NoConvergence):
            ad.solve_fixed_period(ct.hh_family(), stable_cycle_20,
                                  stable_cycle_20.period, 20.0)


class TestContinueBranch:
    def test_invalid_start_rejected(self):
        bad = fake_point(np.nan)
        with pytest.raises(StartInvalid):
            ct.continue_branch(bad, +1, (10.0, 30.0))

    def test_short_stable_run(self, field20, stable_cycle_20):
        start = ct.make_point(20.0, stable_cycle_20, field20)
        br = ct.continue_branch(
            start, +1, (20.0, 23.0), solver="hb",
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
        br = ct.continue_branch(start, +1, (18.0, 20.0), solver="hb",
                                adapter=ct._SolverAdapter("hb", hb_K=40))
        assert len(br.points) == 1


class TestBracketSlice:
    def test_none_selects_all(self):
        br = fake_branch([1.0, 2.0, 3.0])
        assert ct._bracket_slice(br, None) == [0, 1, 2]

    def test_index_pair_selects_window(self):
        br = fake_branch([5.0, 4.0, 3.0, 4.0, 5.0])
        assert ct._bracket_slice(br, (1, 3)) == [1, 2, 3]

    def test_current_pair_selects_by_value(self):
        br = fake_branch([5.0, 4.0, 3.0, 4.0, 5.0])
        assert ct._bracket_slice(br, (3.5, 4.5)) == [1, 3]


class TestLocators:
    def test_fold_needs_three_points(self):
        br = fake_branch([1.0, 2.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br)

    def test_fold_needs_an_extremum(self):
        br = fake_branch([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NoExtremum):
            ct.locate_fold(br)

    def test_pd_needs_two_points(self):
        br = fake_branch([1.0])
        with pytest.raises(NoSignChange):
            ct.locate_pd(br, None)


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
        assert d.region_split == pytest.approx(9.78)

    def test_no_split_with_single_hopf(self):
        a = fake_branch([1.0, 2.0])
        a.events.append(ct.BifurcationEvent("hopf", 9.78, {}))
        d = ct.assemble_diagram([a])
        assert d.region_split is None
