"""Acceptance gate: one test per top-level claim about the package.

Each test prints a single measured-value line so the run log doubles as a
results table.  The expensive branch computations are module-scoped and
shared across criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hhcycles import cli, collocation, continuation as ct
from hhcycles import floquet, hb, integrate, model, shooting
from hhcycles.fields import harmonic_oscillator

FAM = ct.hh_family()
CROSS_CURRENTS = (15.0, 20.0, 50.0, 100.0, 140.0)


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive computations


@pytest.fixture(scope="module")
def hopf_pair():
    t0 = time.monotonic()
    low = model.detect_hopf(9.0, 10.5)
    high = model.detect_hopf(154.0, 155.0)
    return low, high, time.monotonic() - t0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The default `hhc diagram`: its branches by name, and its events.

    The low-current branch is seeded just inside the small Hopf point and
    traverses the small unstable cycles, the low knee pair, the strongly
    unstable segment and the bottom knee, then comes back up the stable
    branch to I=20.
    """
    return cli.run_diagram(cli.load_config(None),
                           str(tmp_path_factory.mktemp("diagram")))


def _hopf_seeded(pipeline):
    return pipeline.branches["hopf-seeded"].points


@pytest.fixture(scope="module")
def colloc_fold(pipeline):
    """Bottom turning point recomputed with collocation.

    Fourier truncation rings on the near-fold spike and biases the fold
    current, so the certificate run uses the piecewise-polynomial solver.
    """
    seed_pt = min((p for p in _hopf_seeded(pipeline)
                   if p.spectrum.stability == "stable" and 6.27 < p.I < 6.6),
                  key=lambda p: abs(p.I - 6.33))
    ad = ct._SolverAdapter("collocation", coll_tol=2e-5, coll_max_N=1200)
    sol = collocation.solve_bvp(FAM(seed_pt.I), seed_pt.cycle, tol=2e-5,
                                N=300, max_N=1200)
    start = ct.make_point(seed_pt.I, sol, FAM(seed_pt.I), spectrum_steps=1000)
    ctrl = ct.StepControl(initial=0.02, max_step=0.04,
                          collapse_amplitude=0.4, max_orbit_jump=25.0)
    br = ct.continue_branch(start, -1, (6.2, 6.6), step_ctrl=ctrl,
                            adapter=ad, field_at=FAM, spectrum_steps=1000,
                            max_points=26)
    ext = ct.turning_indices([p.I for p in br.points])
    assert ext, "collocation run failed to round the bottom turning point"
    j = ext[-1]
    ev = ct.locate_fold(br, ct.fold_bracket(br, j), field_at=FAM, adapter=ad)
    return br, ev


V_SAMPLES = 4096   # points of the uniform grid over one period


def _v_grid(T):
    return np.linspace(0.0, T, V_SAMPLES, endpoint=False)


def _aligned_v_deviation(shifted_a, eval_b, T, nscan=800):
    """Max |V_a - V_b| over one period, minimized over the relative phase.

    shifted_a(shift) is V_a at the times _v_grid(T) + shift.
    """
    Vb = eval_b(_v_grid(T))

    def f(shift):
        return float(np.max(np.abs(shifted_a(shift) - Vb)))

    shifts = np.linspace(0.0, T, nscan, endpoint=False)
    devs = [f(s) for s in shifts]
    j = int(np.argmin(devs))
    a, b = shifts[j] - T / nscan, shifts[j] + T / nscan
    for _ in range(60):
        m1, m2 = a + 0.382 * (b - a), a + 0.618 * (b - a)
        if f(m1) < f(m2):
            b = m2
        else:
            a = m1
    return f(0.5 * (a + b))


def _shifted_series_v(fc, T):
    """V of the series fc at _v_grid(T) + shift, as a function of shift.

    With theta_j = 2*pi*j/V_SAMPLES, phi = 2*pi*shift/fc.period and
    eps = T/fc.period - 1, that is V(theta_j + phi + eps*theta_j): the
    series' own uniform grid, rotated by phi, drifting by eps*theta_j where
    the two periods differ (by 2e-3 near the fold of criterion 9).  Its
    Taylor series in the drift comes from one inverse FFT of the scaled
    derivatives rotated by phi, where the pointwise sum of the series takes
    a 4096 x 101 cos/sin table per shift.  The series stops where
    x^p/p! < 1e-17 with x = 2*pi*|eps|*K, which bounds the remainder
    relative to the coefficients.
    """
    k = np.arange(fc.K + 1)
    # V(theta) = Re sum_k c_k exp(i*k*theta)
    c = np.append(fc.coeffs[0, 0],
                  fc.coeffs[0, 1::2] - 1j * fc.coeffs[0, 2::2])
    eps = T / fc.period - 1.0
    x = 2.0 * np.pi * abs(eps) * fc.K
    order = 1
    while x ** order / math.factorial(order) >= 1e-17:
        order += 1
    # row p: the coefficients of the p-th derivative over p!
    derivs = np.array([c * (1j * k) ** p / math.factorial(p)
                       for p in range(order)])
    drift = eps * _v_grid(2.0 * np.pi)
    rows = np.empty((order, 2 * fc.K + 1))

    def at(shift):
        z = derivs * np.exp(2j * np.pi * k * shift / fc.period)
        rows[:, 0] = z[:, 0].real
        rows[:, 1::2], rows[:, 2::2] = z[:, 1:].real, -z[:, 1:].imag
        terms = replace(fc, coeffs=rows).states_on_grid(V_SAMPLES).T
        V = terms[-1]
        for term in terms[-2::-1]:
            V = term + drift * V
        return V
    return at


@pytest.fixture(scope="module")
def cross_solver(hb_ops_50, stable_cycle_20):
    """Shooting / collocation / Fourier solves of the same stable cycles."""
    out = {}
    for I in CROSS_CURRENTS:
        fld = FAM(I)
        sc = (stable_cycle_20 if I == 20.0
              else shooting.cold_start(I, tol=1e-12))
        fc = hb.solve_hb(sc.to_fourier(50), fld, hb_ops_50)
        cs = collocation.solve_bvp(fld, sc, tol=1e-5, N=200, max_N=2000)

        tr = integrate.integrate_rk4(fld, sc.anchor_state, 0.0, sc.period,
                                     sc.period / 16384)
        T = cs.period
        coll_V = lambda t: cs.evaluate_time(t)[:, 0]
        shoot_V = lambda s: np.interp((_v_grid(T) + s) % sc.period,
                                      tr.times, tr.states[:, 0])
        out[I] = {
            "periods": (sc.period, cs.period, fc.period),
            "dev_shoot_coll": _aligned_v_deviation(shoot_V, coll_V, T),
            "dev_hb_coll": _aligned_v_deviation(_shifted_series_v(fc, T),
                                                coll_V, T),
            "hb_cycle": fc,
        }
    return out


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_hopf_currents(hopf_pair):
    (I2, _), (I1, _), elapsed = hopf_pair
    ok = (abs(I2 - 9.7375) <= 1e-3 and abs(I1 - 154.50) <= 5e-2
          and elapsed < 5.0)
    _report(1, ok,
            f"low Hopf I={I2:.6f} (want 9.7375 +/- 1e-3), "
            f"high Hopf I={I1:.5f} (want 154.50 +/- 5e-2), "
            f"runtime {elapsed:.2f}s")


def test_criterion_2_stable_branch_span(pipeline, hopf_pair, colloc_fold):
    _, (I1, _), _ = hopf_pair
    _, fold5 = colloc_fold
    branch_up = pipeline.branches["stable-up"]
    stable = [p for br in pipeline.branches.values() for p in br.points
              if p.spectrum.stability == "stable"]
    Is = np.array([p.I for p in stable])
    lo_cov, hi_cov = Is.min(), Is.max()
    # amplitude must vanish toward the high Hopf point
    tail = sorted(branch_up.points, key=lambda p: p.I)[-3:]
    amps = [p.amplitude for p in tail]
    hopf_ev = [e for e in branch_up.events if e.kind == "hopf"]
    end_ok = bool(hopf_ev) and abs(hopf_ev[0].I_star - I1) < 0.5
    ok = (lo_cov <= fold5.I_star + 5e-3 and hi_cov >= I1 - 2.0
          and amps[-1] < amps[0] and amps[-1] < 2.0 and end_ok)
    _report(2, ok,
            f"stable coverage [{lo_cov:.4f}, {hi_cov:.2f}] vs "
            f"[{fold5.I_star:.4f}, {I1:.2f}], tail amplitudes "
            f"{[round(a, 3) for a in amps]}, branch endpoint "
            f"I={hopf_ev[0].I_star:.3f}" if hopf_ev else "no Hopf endpoint")


def test_criterion_3_bottom_fold_collocation(colloc_fold):
    _, ev = colloc_fold
    mu = ev.evidence["multiplier"]
    ok = (abs(ev.I_star - 6.2649) <= 1e-2
          and abs(mu - 1.0) <= 0.05
          and "near_fold" in ev.evidence["flags"])
    _report(3, ok,
            f"fold I={ev.I_star:.8f} (want 6.2649 +/- 1e-2), "
            f"certificate mu={mu:.6f}, flags={ev.evidence['flags']}")


def test_criterion_4_knee_folds(pipeline):
    Is = sorted(e.I_star for e in pipeline.events
                if e.kind == "fold" and 7.0 < e.I_star < 9.0)
    ok = (len(Is) >= 2 and abs(Is[0] - 7.84655) <= 1e-3
          and abs(Is[-1] - 7.92199) <= 1e-3)
    _report(4, ok,
            f"knee folds at {[f'{I:.6f}' for I in Is]} "
            f"(want 7.84655 and 7.92199, +/- 1e-3)")


def test_criterion_5_period_doubling(pipeline):
    ev, = (e for e in pipeline.events if e.kind == "period_doubling")
    I6 = ev.I_star
    # multiplier table at the located point: nearest refinement row
    row = min(ev.evidence["rows"], key=lambda r: abs(r["I"] - I6))
    mus = row["multipliers"]
    trivial = mus[0]
    nontrivial = mus[1:]
    near_m1 = min(nontrivial, key=lambda m: abs(m + 1.0))
    big = max(nontrivial, key=abs)
    ok = (abs(I6 - 7.921978) <= 1e-5
          and abs(near_m1 + 1.0) <= 0.02
          and abs(trivial - 1.0) <= 1e-3
          and 1e3 <= abs(big) <= 1e4)
    _report(5, ok,
            f"doubling at I={I6:.8f} (want 7.921978 +/- 1e-5); at "
            f"I={row['I']:.8f}: trivial={trivial:.6f}, "
            f"crossing mu={near_m1:.4f}, largest mu={big:.1f}")


def test_criterion_6_harmonic_counts(hopf_pair, cross_solver):
    # clause 1: a two-harmonic solve near the small Hopf point, judged by
    # the differential residual it leaves on a 30-harmonic grid
    (I2, omega2), _, _ = hopf_pair
    seed = ct.hopf_branch_seed(9.72, omega2, 2.0)
    sol2 = hb.solve_hb(seed, FAM(9.72), hb.build_operators(2), tol=1e-12)
    res = float(np.max(np.abs(hb.hb_residual(
        hb.resize(sol2, 30), FAM(9.72), hb.build_operators(30)))))
    # clause 2: coefficient drop-off of the 50-harmonic stable cycle at I=20
    fc = cross_solver[20.0]["hb_cycle"]
    mags = np.abs(fc.coeffs)
    drop = float(np.max(mags[:, -2:]) / np.max(mags))
    ok = res < 1e-6 and drop < 1e-8
    _report(6, ok,
            f"K=2 residual at I=9.72 is {res:.3g} (want < 1e-6); "
            f"K=50 drop-off at I=20 is {drop:.3g} (want < 1e-8)")


def test_criterion_7_cross_solver_agreement(cross_solver):
    worst_T, worst_V, details = 0.0, 0.0, []
    for I in CROSS_CURRENTS:
        d = cross_solver[I]
        Ts = np.array(d["periods"])
        dT = float(np.max(np.abs(Ts - Ts[0])) / Ts[0])
        dV = max(d["dev_shoot_coll"], d["dev_hb_coll"])
        worst_T = max(worst_T, dT)
        worst_V = max(worst_V, dV)
        details.append(f"I={I:g}: dT={dT:.2g}, dV={dV:.3g}")
    ok = worst_T < 1e-5 and worst_V < 1e-2
    _report(7, ok,
            f"worst period spread {worst_T:.2g} (want < 1e-5), worst "
            f"V deviation {worst_V:.3g} mV (want < 1e-2); " + "; ".join(details))


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    # series-evaluated exponential ratio: identity and smoothness at zero
    x = np.linspace(-1e-3, 1e-3, 1001)
    assert np.all(np.isfinite(model.expc(x)))
    xs = np.array([-20.0, -1.0, -1e-6, 1e-6, 1.0, 20.0])
    assert np.allclose(model.expc(xs) * np.expm1(xs), xs, rtol=1e-10)
    # Jacobian against finite differences
    st = np.array([-40.0, 0.4, 0.5, 0.2])
    J = model.jacobian(st, I=10.0)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (model.vector_field(st + e, I=10.0)
               - model.vector_field(st - e, I=10.0)) / (2 * h)
        assert np.allclose(J[:, j], col, atol=1e-6)
    # transform round trip and aliasing guard
    ops = hb.build_operators(6)
    assert np.allclose(ops.analysis @ ops.synthesis, np.eye(13), atol=1e-12)
    rng = np.random.default_rng(0)
    c = rng.standard_normal(7)
    ops2 = hb.build_operators(6, oversample=4)
    vals = hb.basis_matrix(ops2.nodes, 3) @ c
    back = ops2.analysis @ (vals * vals)
    dense = np.linspace(0, 2 * np.pi, 8193)[:-1]
    dv = (hb.basis_matrix(dense, 3) @ c) ** 2
    assert back[0] == pytest.approx(np.mean(dv), abs=1e-10)
    # RK4 order-4 ratio on the rotation field
    fld = harmonic_oscillator()
    errs = [abs(integrate.flow(fld, [1, 0], 2.0, n)[0] - np.cos(2.0))
            for n in (100, 200)]
    assert 14.0 < errs[0] / errs[1] < 18.0
    # collocation order-4 ratio and Floquet oracles on the planar cycle
    from test_collocation import circle_guess, stuart_landau
    sl = stuart_landau()
    perr = []
    for N in (10, 20):
        mesh = collocation.Mesh(np.linspace(0.0, 1.0, N + 1))
        s = collocation.solve_bvp(sl, circle_guess(1.1, 1.02), tol=1.0,
                                  mesh=mesh, max_refinements=0)
        perr.append(abs(s.period - 2 * np.pi))
    assert 12.0 < perr[0] / perr[1] < 20.0
    spec = floquet.spectrum(s, field=sl)
    assert spec.trivial_error < 1e-3
    # conservative oracle: one-period monodromy is the identity
    T = 2 * np.pi
    _, M = integrate.flow_with_monodromy(fld, [1.0, 0.0], T, 4000)
    assert np.allclose(M, np.eye(2), atol=1e-8)
    # single-harmonic exactness on the rotation field
    coeffs = np.zeros((2, 3))
    coeffs[0, 1] = 1.0
    coeffs[1, 2] = -1.0
    one = hb.solve_hb(hb.FourierCycle(K=1, period=2 * np.pi * 1.05,
                                      coeffs=coeffs),
                      fld, hb.build_operators(1), tol=1e-12)
    assert one.period == pytest.approx(2 * np.pi, rel=1e-10)
    elapsed = time.monotonic() - t0
    _report(8, elapsed < 60.0, f"property suite ran in {elapsed:.1f}s "
            "(expc, Jacobian, transforms, order ratios, Floquet oracles)")


def test_criterion_9_gibbs_ripple(pipeline, hb_ops_50, cross_solver):
    # the Fourier fold sits at I=6.26402, so no 50-harmonic solution exists
    # at 6.25; the ringing is demonstrated at 6.265, just above both folds
    I = 6.265
    seed_pt = min((p for p in _hopf_seeded(pipeline)
                   if p.spectrum.stability == "stable"),
                  key=lambda p: abs(p.I - I))
    fc = hb.solve_hb(seed_pt.cycle.to_fourier(50), FAM(I), hb_ops_50)
    cs = collocation.solve_bvp(FAM(I), fc, tol=1e-5, N=400, max_N=1600)
    # the two periods differ by 2e-3 this near the fold, so the shapes are
    # compared at equal phases, each cycle on its own period's grid
    dev = _aligned_v_deviation(
        _shifted_series_v(fc, fc.period),
        lambda t: cs.evaluate_time(t * (cs.period / fc.period))[:, 0],
        fc.period)
    ref = cross_solver[20.0]["dev_hb_coll"]
    ok = dev > 10.0 * ref
    _report(9, ok,
            f"near-fold 50-harmonic deviation {dev:.3g} mV vs {ref:.3g} mV "
            f"at I=20 (ratio {dev / ref:.1f}, want > 10)")
