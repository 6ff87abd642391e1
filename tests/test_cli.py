"""Configuration handling, artifact round trips and CLI commands."""

import json

import numpy as np
import pytest

from hhcycles import cli, collocation, floquet
from hhcycles.cli import ConfigError
from test_floquet import make_spec


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
        for bad in ("5", "5:2", "2:5:0", "a:b", "1:2:3:4"):
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
        assert doc["spectrum"]["liouville_error"] is None
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

    def test_missing_config_file_is_usage_error(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.cfg"),
                       "hopf", "--range", "9:11"])
        assert rc == 1

    def test_bad_subcommand_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

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
        '[-60, 0.3, 0.6, 0.05]]}'],
        ids=["missing", "malformed", "not-an-object", "null-current",
             "empty-samples", "empty-mesh", "negative-period"])
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
