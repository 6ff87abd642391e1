"""Each output check passes a known-good result and rejects a wrong one.

The known-good cycle comes from reference.py alone (scipy integration of the
equations), so these tests need no hhcycles solve.  Run with

    python3 -m pytest bench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
import reference
from checks import CycleRecord


@pytest.fixture(scope="module")
def cycle20():
    return reference.settled_cycle(20.0)


@pytest.fixture(scope="module")
def low_hopf():
    return reference.hopf_current(9.0, 10.5)


def _record(cycle, source="shoot", period_factor=1.0, trivial=1.0 + 0j,
            leading=0.1103, stability="stable"):
    x0, T = cycle
    return CycleRecord(source=source, current=20.0, period=T * period_factor,
                       x0=x0.copy(), trivial=trivial,
                       multipliers=[complex(leading), 2e-11 + 0j, 0j],
                       stability=stability)


def _report(trivial=1.0 + 0j, leading=0.1103, stability="stable"):
    return {"current": 20.0, "trivial": trivial,
            "multipliers": [complex(leading), 2e-11 + 0j, 0j],
            "trivial_error": abs(trivial - 1.0), "stability": stability}


def _solver_set(cycle, **changes):
    records = {m: _record(cycle, source=m) for m in ("shoot", "hb", "collocation")}
    reports = {m: _report() for m in ("shoot", "hb")}
    for key, value in changes.items():
        kind, method = key.split("_", 1)
        (records if kind == "record" else reports)[method] = value
    return records, reports


# -- cycle-solvers -----------------------------------------------------------


def test_reference_cycle_passes_every_solver_check(cycle20):
    assert checks.check_cycle_solvers(*_solver_set(cycle20)) == []


@pytest.mark.parametrize("factor", [1.001, 1.0 + 1e-4])
def test_perturbed_period_is_rejected(cycle20, factor):
    bad = _record(cycle20, source="hb", period_factor=factor)
    problems = checks.check_cycle_solvers(*_solver_set(cycle20, record_hb=bad))
    assert any("period" in p for p in problems)
    assert any("return error" in p for p in problems)


def test_state_off_the_cycle_is_rejected(cycle20):
    bad = _record(cycle20, source="collocation")
    bad.x0[0] += 0.5
    assert checks.check_return(bad)


def test_trivial_multiplier_of_1_1_is_rejected(cycle20):
    rec = _record(cycle20, trivial=1.1 + 0j)
    assert checks.check_spectrum(rec, "x")
    problems = checks.check_cycle_solvers(
        *_solver_set(cycle20, report_hb=_report(trivial=1.1 + 0j)))
    assert any("trivial" in p for p in problems)


def test_unstable_verdict_is_rejected(cycle20):
    problems = checks.check_cycle_solvers(
        *_solver_set(cycle20, record_shoot=_record(cycle20, stability="unstable")))
    assert any("verdict" in p for p in problems)


def test_leading_multiplier_mismatch_is_rejected(cycle20):
    problems = checks.check_cycle_solvers(
        *_solver_set(cycle20, report_hb=_report(leading=0.1203)))
    assert any("leading multiplier" in p for p in problems)


def test_floquet_report_parsing():
    line = ("I=15  mu1=+1+0j  mu2=+0.0920435+0j  mu3=+5.65922e-12-1e-05j  "
            "mu4=-1.92045e-18+0j  trivial_error=3.54e-10  stable")
    rep = checks.parse_floquet_report(line)
    assert rep["current"] == 15.0
    assert rep["trivial"] == 1.0
    assert rep["multipliers"] == [0.0920435, 5.65922e-12 - 1e-05j, -1.92045e-18]
    assert rep["stability"] == "stable"
    with pytest.raises(ValueError):
        checks.parse_floquet_report("cannot read cycle file")


def test_fourier_state_at_zero():
    coeffs = [[1.0, 2.0, 5.0, 3.0, 7.0], [0.5, 0.0, 1.0, 0.25, 1.0]]
    assert np.allclose(checks.fourier_state_at_zero(coeffs), [6.0, 0.75])


def test_artifact_records_take_the_state_at_t0():
    spec = {"trivial": [1.0, 0.0], "multipliers": [[0.1, 0.0]],
            "stability": "stable"}
    base = {"current": 20.0, "period": 11.0, "spectrum": spec}
    shoot = checks.record_from_artifact(
        dict(base, samples=[[1, 2, 3, 4], [5, 6, 7, 8]]), "s")
    coll = checks.record_from_artifact(dict(base, mesh_states=[[4, 3, 2, 1]]), "c")
    assert list(shoot.x0) == [1, 2, 3, 4] and list(coll.x0) == [4, 3, 2, 1]
    with pytest.raises(ValueError):
        checks.record_from_artifact(base, "empty")


# -- stable-branch -----------------------------------------------------------


HIGH_HOPF = 154.5266


def test_stable_branch_accepts_good_points(cycle20):
    recs = [_record(cycle20), _record(cycle20)]
    assert checks.check_stable_branch(recs, [1], [HIGH_HOPF], HIGH_HOPF) == []


def test_stable_branch_rejects_bad_points_and_hopf(cycle20):
    recs = [_record(cycle20), _record(cycle20, trivial=1.1 + 0j),
            _record(cycle20, period_factor=1.001)]
    assert checks.check_stable_branch(recs[:2], [], [HIGH_HOPF], HIGH_HOPF)
    assert checks.check_stable_branch(recs[::2], [1], [HIGH_HOPF], HIGH_HOPF)
    assert checks.check_stable_branch(recs[:1], [], [HIGH_HOPF + 0.1], HIGH_HOPF)
    assert checks.check_stable_branch(recs[:1], [], [], HIGH_HOPF)


# -- knee-diagram ------------------------------------------------------------


def _diagram(low_hopf, folds=(7.846547, 7.921985), fold_mu="(1.0004+0j)",
             pd=None, status="complete"):
    events = [{"kind": "hopf", "I_star": low_hopf,
               "evidence": {"omega": 0.4, "source": "equilibrium eigenvalues"}}]
    for I in folds:
        events.append({"kind": "fold", "I_star": I,
                       "evidence": {"period": 16.0, "multiplier": fold_mu}})
    if pd is not None:
        I, mu = pd
        events.append({"kind": "period_doubling", "I_star": I, "evidence": {
            "rows": [{"I": I, "multipliers": ["(1+0j)", f"({mu}+0j)", "(-3000+0j)"]}],
            "bracket": [7.9, 7.93]}})
    return {"events": events, "records": [],
            "manifest": {"branches": [{"name": "hopf-seeded", "status": status}]}}


def test_knee_diagram_accepts_reference_values(low_hopf):
    assert checks.check_knee_diagram(_diagram(low_hopf), low_hopf) == []
    good_pd = _diagram(low_hopf, pd=(7.9219777, -0.9999))
    assert checks.check_knee_diagram(good_pd, low_hopf) == []


@pytest.mark.parametrize("changes", [
    {"folds": (7.846547 + 1e-2, 7.921985)},
    {"folds": (7.921985,)},
    {"fold_mu": "(1.1+0j)"},
    {"pd": (7.9218, -0.9999)},
    {"pd": (7.9219777, -0.9)},
    {"status": "failed: NoConvergence"},
])
def test_knee_diagram_rejects_wrong_results(low_hopf, changes):
    assert checks.check_knee_diagram(_diagram(low_hopf, **changes), low_hopf)


def test_knee_diagram_rejects_a_moved_hopf_point(low_hopf):
    assert checks.check_knee_diagram(_diagram(low_hopf + 1e-3), low_hopf)


def test_diagram_files_parse_and_malformed_ones_raise(tmp_path):
    evidence = json.dumps({"period": 16.0, "multiplier": "(1.0004+0j)"})
    (tmp_path / "events.csv").write_text(
        f"# hhcycles 0.1.0\n# config abc\nkind,I_star,evidence\n"
        f"fold,7.846547,{evidence}\n")
    (tmp_path / "diagram.csv").write_text(
        "# hhcycles 0.1.0\nbranch_id,I,stability,v_min,v_max,period\n"
        "0,9.7,unstable,-10,-5,15.2\n")
    (tmp_path / "manifest.json").write_text('{"branches": []}')
    (tmp_path / "branch_0.json").write_text('{"points": []}')
    (tmp_path / "branch_0_vmin.dat").write_text("9.7 -10\n")
    parsed = checks.read_diagram(str(tmp_path))
    assert parsed["events"][0]["evidence"]["multiplier"] == "(1.0004+0j)"
    (tmp_path / "branch_0_vmax.dat").write_text("9.7\n")
    with pytest.raises(ValueError):
        checks.read_diagram(str(tmp_path))
