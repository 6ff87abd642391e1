"""Configuration handling, artifact round trips and CLI commands."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hhcycles import cli, collocation, floquet, hb, integrate, shooting
from hhcycles.cli import ConfigError
from hhcycles.fields import hh_field
from test_floquet import make_spec

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def colloc_cycle_20(field20, stable_cycle_20):
    return collocation.solve_bvp(field20, stable_cycle_20, tol=1e-4, N=200,
                                 max_N=1200)


class TestConfig:
    def test_defaults_returned_without_file(self):
        cfg = cli.load_config(None)
        assert cfg == cli.DEFAULT_CONFIG
        assert cfg is not cli.DEFAULT_CONFIG

    def test_overlay_and_comments(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# tuning\nsolver.hb.k = 30   # fewer harmonics\n"
                     "\ndiagram.i_max=120\n")
        cfg = cli.load_config(str(f))
        assert cfg["solver.hb.k"] == 30
        assert cfg["diagram.i_max"] == 120.0
        assert cfg["model.c"] == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("solver.hp.k=30\n")
        with pytest.raises(ConfigError):
            cli.load_config(str(f))

    def test_malformed_line_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("solver.hb.k 30\n")
        with pytest.raises(ConfigError):
            cli.load_config(str(f))

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("solver.hb.k=many\n")
        with pytest.raises(ConfigError):
            cli.load_config(str(f))

    def test_validation_catches_nonpositive_tol(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("solver.hb.tol=-1e-8\n")
        with pytest.raises(ConfigError):
            cli.load_config(str(f))

    @pytest.mark.parametrize("key", [k for k, v in cli.DEFAULT_CONFIG.items()
                                     if isinstance(v, int)])
    def test_count_keys_below_one_rejected(self, tmp_path, key):
        f = tmp_path / "run.cfg"
        f.write_text(f"{key}=0\n")
        with pytest.raises(ConfigError, match=key):
            cli.load_config(str(f))
        assert cli.main(["--config", str(f), "hopf", "--range", "1:2"]) == 1

    @pytest.mark.parametrize("option", ["--harmonics", "--mesh", "--steps"])
    def test_count_options_below_one_rejected(self, tmp_path, option):
        # --steps is checked before its cycle file (absent here) is read
        command = (["floquet", "--cycle-file", str(tmp_path / "c.json")]
                   if option == "--steps" else ["cycle", "--current", "20"])
        assert cli.main(["--out", str(tmp_path)] + command
                        + [option, "0"]) == 1

    @pytest.mark.parametrize("lines", [
        "diagram.i_min=20\ndiagram.i_max=10",
        "diagram.i_min=10\ndiagram.i_max=10",
        "continuation.step.max=-1", "continuation.step.min=0",
        "continuation.collapse_amplitude=0", "continuation.max_orbit_jump=-5"])
    def test_impossible_diagram_settings_rejected(self, tmp_path, lines):
        f = tmp_path / "run.cfg"
        f.write_text(lines + "\n")
        with pytest.raises(ConfigError):
            cli.load_config(str(f))
        assert cli.main(["--config", str(f), "hopf", "--range", "1:2"]) == 1

    @pytest.mark.parametrize("line", ["diagram.i_max = nan",
                                      "solver.hb.tol = nan",
                                      "diagram.i_min = -inf"])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys,
                                                monkeypatch, line):
        def run(*args, **kwargs):
            raise AssertionError("the diagram ran")
        monkeypatch.setattr(cli, "run_diagram", run)
        f = tmp_path / "run.cfg"
        f.write_text(line + "\n")
        assert cli.main(["--config", str(f), "--out", str(tmp_path),
                         "diagram"]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_integer_keys_stay_integer(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("solver.collocation.n=250\n")
        cfg = cli.load_config(str(f))
        assert cfg["solver.collocation.n"] == 250
        assert isinstance(cfg["solver.collocation.n"], int)

    def test_hash_is_stable_and_sensitive(self):
        a = cli.load_config(None)
        b = dict(a)
        assert cli.config_hash(a) == cli.config_hash(b)
        b["model.c"] = 2.0
        assert cli.config_hash(a) != cli.config_hash(b)

    def test_params_from_config(self):
        p = cli.params_from_config(cli.load_config(None))
        assert p.gNa == 120.0 and p.ENa == -115.0


class TestRangeParsing:
    def test_two_and_three_part_forms(self):
        assert cli._parse_range("2:5") == (2.0, 5.0, 1.0)
        assert cli._parse_range("2:5:0.5") == (2.0, 5.0, 0.5)

    def test_rejects_malformed(self):
        for bad in ("5", "5:2", "2:5:0", "a:b", "1:2:3:4", "0:nan", "nan:5",
                    "0:inf:1", "0:5:inf"):
            with pytest.raises(ConfigError):
                cli._parse_range(bad)


class TestCycleArtifacts:
    def test_fourier_roundtrip(self, tmp_path, hb_cycle_20, field20):
        spec = floquet.spectrum(hb_cycle_20, field20)
        path = tmp_path / "c.json"
        cfg = cli.load_config(None)
        cli.write_cycle_json(str(path), 20.0, "hb", hb_cycle_20, spec,
                             1e-11, cfg, gibbs_ripple=0.001)
        I, cyc = cli.read_cycle_json(str(path))
        assert I == 20.0
        assert cyc.K == hb_cycle_20.K
        assert np.allclose(cyc.coeffs, hb_cycle_20.coeffs)
        doc = json.loads(path.read_text())
        assert doc["gibbs_warning"] is False
        assert doc["spectrum"]["liouville_error"] == spec.liouville_error
        assert doc["_meta"]["config"] == cli.config_hash(cfg)

    def test_sampled_roundtrip(self, tmp_path, stable_cycle_20, field20):
        spec = floquet.spectrum(stable_cycle_20, field20)
        path = tmp_path / "c.json"
        cli.write_cycle_json(str(path), 20.0, "shoot", stable_cycle_20,
                             spec, 1e-12, cli.load_config(None))
        I, cyc = cli.read_cycle_json(str(path))
        assert cyc.period == pytest.approx(stable_cycle_20.period)
        doc = json.loads(path.read_text())
        assert doc["spectrum"]["liouville_error"] == spec.liouville_error
        assert spec.liouville_error < 1e-5
        assert np.allclose(cyc.samples.states, stable_cycle_20.samples.states)

    @pytest.mark.parametrize("method, fixture", [
        ("shoot", "stable_cycle_20"), ("hb", "hb_cycle_20"),
        ("collocation", "colloc_cycle_20")])
    def test_roundtrip_each_method(self, method, fixture, request, tmp_path,
                                   capsys):
        cyc = request.getfixturevalue(fixture)
        path = tmp_path / f"cycle_I20_{method}.json"
        cli.write_cycle_json(str(path), 20.0, method, cyc, make_spec([0.1]),
                             1e-11, cli.load_config(None))
        I, back = cli.read_cycle_json(str(path))
        assert I == 20.0
        assert type(back) is type(cyc)
        assert back.period == cyc.period
        t = np.linspace(0.0, cyc.period, 97)
        assert np.array_equal(back.evaluate_time(t), cyc.evaluate_time(t))
        assert cli.main(["floquet", "--cycle-file", str(path),
                         "--steps", "400"]) == 0
        assert "stable" in capsys.readouterr().out

    def test_artifact_is_the_one_shot_encoding(self, tmp_path, monkeypatch,
                                               colloc_cycle_20):
        # the file is json.dumps of its document, written with the C encoder:
        # json.dump would run the pure-Python one
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder called")

        monkeypatch.setattr(json.encoder, "_make_iterencode",
                            pure_python_encoder)
        path = tmp_path / "c.json"
        cli.write_cycle_json(str(path), 20.0, "collocation", colloc_cycle_20,
                             make_spec([0.1]), 1e-6, cli.load_config(None))
        text = path.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_collocation_artifact_seeds_a_solve(self, tmp_path,
                                                colloc_cycle_20):
        path = tmp_path / "seed.json"
        cli.write_cycle_json(str(path), 20.0, "collocation", colloc_cycle_20,
                             make_spec([0.1]), 1e-6, cli.load_config(None))
        assert cli.main(["--out", str(tmp_path), "cycle", "--current", "20",
                         "--method", "hb", "--harmonics", "30",
                         "--init", str(path)]) == 0
        _, cyc = cli.read_cycle_json(str(tmp_path / "cycle_I20_hb.json"))
        assert cyc.period == pytest.approx(colloc_cycle_20.period, rel=1e-4)

    def test_hb_artifact_seeds_a_shoot(self, tmp_path, hb_cycle_20,
                                       stable_cycle_20):
        path = tmp_path / "seed.json"
        cli.write_cycle_json(str(path), 20.0, "hb", hb_cycle_20,
                             make_spec([0.1]), 1e-11, cli.load_config(None))
        assert cli.main(["--out", str(tmp_path), "cycle", "--current", "20",
                         "--method", "shoot", "--init", str(path)]) == 0
        _, cyc = cli.read_cycle_json(str(tmp_path / "cycle_I20_shoot.json"))
        assert cyc.period == pytest.approx(stable_cycle_20.period, rel=1e-9)

    def test_unknown_method_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": 1, "current": 5.0,
                                    "method": "spectral", "period": 1.0}))
        with pytest.raises(ConfigError):
            cli.read_cycle_json(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": 1, "current": 5.0,
                                    "surprise": True}))
        with pytest.raises(ConfigError):
            cli.read_cycle_json(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"schema": 99, "current": 5.0}))
        with pytest.raises(ConfigError):
            cli.read_cycle_json(str(path))


class TestCommands:
    def test_hopf_command_finds_low_crossing(self, capsys):
        rc = cli.main(["hopf", "--range", "9:11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hopf I=9.7796" in out

    def test_hopf_command_samples_the_range_end(self, capsys):
        # 2 does not divide 150..155: the scan must still sample 155, past
        # the upper Hopf point, and no sample may lie beyond the range
        rc = cli.main(["hopf", "--range", "150:155:2"])
        assert rc == 0
        assert "hopf I=154.5266" in capsys.readouterr().out
        assert list(cli._range_samples(150.0, 155.0, 3.0)) == [150.0, 153.0,
                                                               155.0]

    def test_hopf_command_empty_range(self, capsys):
        rc = cli.main(["hopf", "--range", "20:30"])
        assert rc == 0
        assert "no Hopf crossings" in capsys.readouterr().out

    def test_equilibria_sweep(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "--verbose",
                       "equilibria", "--range", "8:12:1"])
        assert rc == 0
        lines = (tmp_path / "equilibria.csv").read_text().splitlines()
        assert lines[0].startswith("# hhcycles")
        assert lines[1].startswith("# config ")
        assert lines[2] == "I,V,n,h,m,max_re,stability"
        stab = [ln.rsplit(",", 1)[1] for ln in lines[3:]]
        assert "stable" in stab and "unstable" in stab

    def test_diagram_on_the_knee_window(self, tmp_path, capsys, monkeypatch):
        # bench/tracing.py times these calls by module attribute: the
        # pipeline must still make them where the benchmark can see them
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import tracing
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("diagram.i_min = 7.8\ndiagram.i_max = 20\n"
                       "solver.hb.k = 30\nfloquet.steps = 1000\n")
        patches, log = tracing.Patches(), tracing.CallLog()
        log.install(patches)
        try:
            rc = cli.main(["--config", str(cfg), "--out", str(tmp_path),
                           "diagram"])
        finally:
            patches.restore()
        assert rc == 0
        log.seed_cycle_s()
        assert log.of("continue_branch") and log.of("locate_fold")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [b["status"] for b in manifest["branches"]] == ["complete"] * 2
        points = int(capsys.readouterr().out.split()[0])
        rows = (tmp_path / "diagram.csv").read_text().splitlines()[3:]
        assert len(rows) == points
        branches = sorted(tmp_path.glob("branch_*.json"))
        assert len(branches) == 2
        for path in branches:
            json.loads(path.read_text())
        # the evidence column is unquoted JSON: take the kind before it
        events = (tmp_path / "events.csv").read_text().splitlines()[3:]
        assert sorted(ln.split(",", 1)[0] for ln in events) == [
            "fold", "fold", "hopf", "period_doubling"]

    def test_verbose_diagram_counts_the_corrector_work(self, tmp_path,
                                                        capsys):
        # per branch and for the event searches: corrections, fresh
        # factorizations, carried factors kept and tried; a second run
        # in the same process does the same work, as a benchmark round
        # after the first must
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("diagram.i_min = 7.8\ndiagram.i_max = 20\n"
                       "solver.hb.k = 30\nfloquet.steps = 1000\n")
        runs = []
        for run in ("a", "b"):
            assert cli.main(["--config", str(cfg), "--out",
                             str(tmp_path / run), "--verbose",
                             "diagram"]) == 0
            out = capsys.readouterr().out
            runs.append(re.findall(
                r"^(.+): (\d+) corrections, (\d+) fresh factorizations, "
                r"carried factors kept in (\d+) of (\d+) tries$", out,
                re.MULTILINE))
        assert runs[0] == runs[1]
        work = {name: [int(n) for n in counts]
                for name, *counts in runs[0]}
        assert list(work) == ["stable-up", "hopf-seeded", "event searches"]
        assert work["stable-up"] == [0, 0, 0, 0]
        for solves, fresh, kept, tried in list(work.values())[1:]:
            assert 0 < kept <= tried <= solves and fresh < solves
        for name in ("diagram.csv", "events.csv"):
            assert ((tmp_path / "a" / name).read_text()
                    == (tmp_path / "b" / name).read_text())

    def test_each_branch_starts_with_no_carried_factors(self, tmp_path,
                                                        capsys, monkeypatch):
        # the stable-up branch corrects up to 25; the hopf-seeded branch
        # starts near 9.78, far from its last point, so neither branch's
        # first correction tries factors.  Every later correction on the
        # same rung (harmonic count) as the one before it tries them; a
        # rung change drops them with the Newton matrix's size
        solve, solves = hb.solve_hb_bordered, []

        def spy(init, I, field_at, ops, row, tol, max_iter, carry=None):
            if carry is None:   # a branch's seed, not a correction
                return solve(init, I, field_at, ops, row, tol, max_iter)
            before = carry.solves, carry.tried
            try:
                return solve(init, I, field_at, ops, row, tol, max_iter,
                             carry)
            finally:
                if carry.solves > before[0]:
                    solves.append((ops.K, carry.tried - before[1]))

        monkeypatch.setattr(hb, "solve_hb_bordered", spy)
        cfg = tmp_path / "knee.cfg"
        cfg.write_text("diagram.i_min = 7.8\ndiagram.i_max = 25\n"
                       "solver.hb.k = 30\nfloquet.steps = 1000\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "--verbose", "diagram"]) == 0
        out = capsys.readouterr().out
        work = {name: (int(n), int(tried)) for name, n, tried in
                re.findall(r"^(.+): (\d+) corrections, .* of (\d+) tries$",
                           out, re.MULTILINE)}
        rungs = {name: (int(lo), int(hi), int(climbs))
                 for name, lo, hi, climbs in re.findall(
                     r"^(.+): points on K=(\d+)\.\.(\d+), (\d+) re-solves "
                     r"one rung up$", out, re.MULTILINE)}
        assert work["stable-up"][0] > 0
        assert list(rungs) == ["stable-up", "hopf-seeded"]
        runs = iter(solves)
        for name in ("stable-up", "hopf-seeded"):
            n, tried = work[name]
            branch = [next(runs) for _ in range(n)]
            assert branch[0][1] == 0
            same = [t for (K0, _), (K, t) in zip(branch, branch[1:]) if K == K0]
            assert same == [1] * len(same)
            assert tried == len(same)
            assert 2 <= rungs[name][0] <= rungs[name][1] <= 30
        # the hopf-seeded branch starts small, on K=30, and changes rung
        assert rungs["hopf-seeded"][0] < 30
        assert len(set(K for K, _ in solves)) > 1

    def test_missing_config_file_is_usage_error(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.cfg"),
                       "hopf", "--range", "9:11"])
        assert rc == 1

    def test_bad_subcommand_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize("current", ["nan", "inf", "-inf"])
    def test_non_finite_current_is_usage_error(self, tmp_path, capsys,
                                               monkeypatch, current):
        def solve(*args):
            raise AssertionError("a cycle solve ran")
        monkeypatch.setattr(cli, "_solve_single_cycle", solve)
        rc = cli.main(["--out", str(tmp_path), "cycle",
                       f"--current={current}"])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    def test_cycle_then_floquet_report(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path), "--verbose", "cycle",
                       "--current", "20", "--method", "hb",
                       "--harmonics", "40"])
        assert rc == 0
        arts = list(tmp_path.glob("cycle_I20_hb.json"))
        assert len(arts) == 1
        rc = cli.main(["floquet", "--cycle-file", str(arts[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stable" in out and "trivial_error" in out
        assert "mu1=" in out
        # the verdict stays the last word, after the Liouville error
        words = out.split()
        assert words[-1] == "stable"
        assert float(words[-2].removeprefix("liouville_error=")) < 1e-3

    def test_hb_reports_the_residual_its_newton_stopped_at(self, tmp_path,
                                                           monkeypatch):
        # the residual of the artifact's own series, evaluated once: by
        # the solve's Newton, not again after it
        series = []
        residual = hb.hb_residual

        def counted(xbar, *args):
            series.append(xbar.coeffs.copy())
            return residual(xbar, *args)
        monkeypatch.setattr(hb, "hb_residual", counted)
        assert cli.main(["--out", str(tmp_path), "cycle", "--current", "20",
                         "--method", "hb", "--harmonics", "20"]) == 0
        doc = json.loads((tmp_path / "cycle_I20_hb.json").read_text())
        cyc = hb.FourierCycle.from_json(doc)
        assert sum(np.array_equal(c, cyc.coeffs) for c in series) == 1
        fld = hh_field(cli.params_from_config(cli.DEFAULT_CONFIG), 20.0)
        assert doc["residual"] == float(np.linalg.norm(
            residual(cyc, fld, hb.build_operators(20)), np.inf))
        assert doc["residual"] < cli.DEFAULT_CONFIG["solver.hb.tol"]

    def test_shoot_reports_the_gap_of_its_own_flow(self, tmp_path,
                                                   monkeypatch):
        # the return gap of the shooting flow, not its difference from a
        # finer RK4 flow (about 1e-7 at I=20)
        flows = []
        flow = integrate.flow

        def counted(*args):
            flows.append(args)
            return flow(*args)
        monkeypatch.setattr(integrate, "flow", counted)
        assert cli.main(["--out", str(tmp_path), "cycle", "--current", "20",
                         "--method", "shoot"]) == 0
        # read off the states of shoot's own pass, not flowed again
        assert flows == []
        doc = json.loads((tmp_path / "cycle_I20_shoot.json").read_text())
        assert doc["residual"] < cli.DEFAULT_CONFIG["solver.shooting.tol"]
        fld = hh_field(cli.params_from_config(cli.DEFAULT_CONFIG), 20.0)
        x0 = np.array(doc["samples"][0])
        xT = flow(fld, x0, doc["period"], shooting.FLOW_STEPS)
        assert doc["residual"] == float(np.max(np.abs(xT - x0)))

    def test_floquet_report_of_a_shooting_cycle(self, tmp_path, capsys,
                                                stable_cycle_20, field20):
        # a sampled cycle's line carries its Liouville error as a number
        spec = floquet.spectrum(stable_cycle_20, field20, nsteps=400)
        path = tmp_path / "c.json"
        cli.write_cycle_json(str(path), 20.0, "shoot", stable_cycle_20,
                             spec, 1e-12, cli.load_config(None))
        assert cli.main(["floquet", "--cycle-file", str(path),
                         "--steps", "400"]) == 0
        words = capsys.readouterr().out.split()
        assert words[-1] == "stable"
        liouville = float(words[-2].removeprefix("liouville_error="))
        assert liouville == pytest.approx(spec.liouville_error, rel=1e-2)

    def test_floquet_steps_default_to_the_config(self, tmp_path,
                                                 stable_cycle_20,
                                                 monkeypatch):
        path = tmp_path / "c.json"
        cli.write_cycle_json(str(path), 20.0, "shoot", stable_cycle_20,
                             make_spec([0.1]), 1e-12, cli.load_config(None))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("floquet.steps=64\n")
        steps = []

        def spectrum(cyc, field, nsteps):
            steps.append(nsteps)
            return make_spec([0.1])
        monkeypatch.setattr(floquet, "spectrum", spectrum)
        base = ["--config", str(cfg), "floquet", "--cycle-file", str(path)]
        assert cli.main(base) == 0
        assert cli.main(base + ["--steps", "300"]) == 0
        assert steps == [64, 300]

    def test_floquet_on_missing_file(self, tmp_path, capsys):
        rc = cli.main(["floquet", "--cycle-file", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("content", [
        None, "{not json", "[1, 2]",
        '{"schema": 1, "current": null, "method": "hb", "period": 1.0}',
        '{"schema": 1, "current": 20, "method": "shoot", "period": 14.6, '
        '"samples_t": [], "samples": []}',
        '{"schema": 1, "current": 20, "method": "collocation", '
        '"period": 14.6, "mesh_tau": [], "mesh_states": [], "mesh_mid": []}',
        '{"schema": 1, "current": 20, "method": "shoot", "period": -3, '
        '"samples_t": [0, 1], "samples": [[-60, 0.3, 0.6, 0.05], '
        '[-60, 0.3, 0.6, 0.05]]}',
        '{"schema": 1, "current": NaN, "method": "shoot", "period": 14.6, '
        '"samples_t": [0, 1], "samples": [[-60, 0.3, 0.6, 0.05], '
        '[-60, 0.3, 0.6, 0.05]]}',
        '{"schema": 1, "current": 20, "method": "shoot", "period": 14.6, '
        '"samples_t": [0, 1], "samples": [[-60, 0.3], [-60, 0.3]]}',
        '{"schema": 1, "current": 20, "method": "hb", "period": 14.6, '
        '"harmonics": 1, "coefficients": [[-60, 10, 0], [0.3, 0.01, 0]]}',
        '{"schema": 1, "current": 20, "method": "collocation", '
        '"period": 14.6, "mesh_tau": [0, 0.5, 1], '
        '"mesh_states": [[-60, 0.3, 0.6], [-50, 0.4, 0.5]], '
        '"mesh_mid": [[-60, 0.3, 0.6, 0.05], [-50, 0.4, 0.5, 0.06]]}',
        '{"schema": 1, "current": 20, "method": "collocation", '
        '"period": 14.6, "mesh_tau": [0, 0.3, 0.6, 1], '
        '"mesh_states": [[-60, 0.3, 0.6, 0.05], [-50, 0.4, 0.5, 0.06]], '
        '"mesh_mid": [[-60, 0.3, 0.6, 0.05], [-50, 0.4, 0.5, 0.06], '
        '[-60, 0.3, 0.6, 0.05]]}'],
        ids=["missing", "malformed", "not-an-object", "null-current",
             "empty-samples", "empty-mesh", "negative-period", "nan-current",
             "two-column-samples", "two-coefficient-rows",
             "three-column-mesh-states", "mesh-states-short-of-intervals"])
    @pytest.mark.parametrize("command", [
        ["cycle", "--current", "20", "--method", "hb", "--init"],
        ["floquet", "--cycle-file"]], ids=["cycle-init", "floquet"])
    def test_unreadable_cycle_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "c.json"
        if content is not None:
            path.write_text(content)
        rc = cli.main(["--out", str(tmp_path)] + command + [str(path)])
        assert rc == 2
        assert "cannot read cycle file" in capsys.readouterr().err
