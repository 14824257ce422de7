import json
import math
import os
from importlib import resources

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import steerlab as sl
from steerlab.analysis import Axis, SweepConfig
from steerlab.cli import CONFIG_SCHEMA, CSV_COLUMNS, dumps_fixed, main
from steerlab.rates import Statistics

PRESETS = [f"fig{n}" for n in
           ["2", "3a", "3b", "3c", "4", "5a", "5b", "5c",
            "6a", "6b", "6c", "7a", "7b", "7c", "8a", "8b", "9a", "9b"]]


def run(args):
    return main(args)


class TestSteadyCommand:
    def test_equilibrium_point(self, capsys):
        code = run(["steady", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--kappa", "3", "--gamma", "0.01", "--ta", "0.5", "--tb", "0.5"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["transport"]["current_b"]) < 1e-12
        assert abs(rep["transport"]["sigma"]) < 1e-12
        assert rep["positivity_ok"] is True

    def test_nonequilibrium_point(self, capsys):
        code = run(["steady", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--kappa", "3", "--gamma", "0.01", "--ta", "0.5", "--tb", "0.7"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["transport"]["current_b"] > 0
        assert rep["transport"]["sigma"] > 0

    def test_fermionic_resonant_point(self, capsys):
        code = run(["steady", "--stat", "fermi", "--mua", "1", "--mub", "1",
                    "--ta", "0.15", "--tb", "0.15", "--kappa", "0.6",
                    "--eps-a", "1", "--eps-b", "1", "--gamma", "0.01"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["correlations"]["steer_a_to_b"] is True
        assert rep["correlations"]["steer_b_to_a"] is True

    def test_config_error_exit_code(self, capsys):
        assert run(["steady", "--kappa", "-1"]) == 2

    def test_positivity_violation_exit_code(self, capsys):
        # a low-temperature strongly detuned point with a slightly negative
        # steady-state eigenvalue: partial report, exit 3
        code = run(["steady", "--stat", "bose", "--eps-a", "1.8", "--eps-b", "0.2",
                    "--kappa", "3", "--gamma", "0.01", "--ta", "0.124", "--tb", "0.02"])
        assert code == 3
        rep = json.loads(capsys.readouterr().out)
        assert rep["positivity_ok"] is False
        assert rep["min_eigenvalue"] < -1e-9
        assert rep["correlations"] is None
        assert "transport" in rep

    def test_missing_section_rejected(self, capsys):
        assert run(["sweep", "--stat", "bose"]) == 2
        assert "section" in capsys.readouterr().err


class TestSweepCommand:
    def test_minimal_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = run(["sweep", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--gamma", "0.01", "--ta", "0.5", "--tb", "0.5",
                    "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "2",
                    "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "2",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        # row-major in (y, x): first two rows share y
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][1] == rows[1][1]
        assert rows[0][0] != rows[1][0]
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["masked_cells"] == 0
        assert manifest["version"] == sl.__version__
        assert f"sha256:" in list(manifest["outputs"].values())[0]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                "--gamma", "0.01", "--ta", "0.5", "--tb", "0.5",
                "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "3",
                "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "a.csv"
        run(["sweep", "--stat", "bose", "--ta", "0.5", "--tb", "0.5",
             "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "2",
             "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "2",
             "--out", str(out1)])
        manifest = json.loads((out1.parent / "a.csv.manifest.json").read_text())
        cfg_path = tmp_path / "echo.json"
        echo = manifest["config"]
        echo["out"] = str(tmp_path / "b.csv")
        cfg_path.write_text(json.dumps(echo))
        run(["sweep", "--config", str(cfg_path)])
        assert out1.read_bytes() == (tmp_path / "b.csv").read_bytes()


    def test_positivity_violating_cell_is_masked(self, tmp_path, capsys):
        # the 2x2 grid's first cell is the point of test_positivity_violation_exit_code
        point = ["--stat", "bose", "--eps-a", "1.8", "--eps-b", "0.2",
                 "--kappa", "3", "--gamma", "0.01"]
        out = tmp_path / "masked.csv"
        code = run(["sweep", *point, "--ta", "0.5", "--tb", "0.5",
                    "--axis-x", "ta", "--x-min", "0.124", "--x-max", "0.5", "--nx", "2",
                    "--axis-y", "tb", "--y-min", "0.02", "--y-max", "0.5", "--ny", "2",
                    "--out", str(out)])
        assert code == 0
        assert "1 masked" in capsys.readouterr().out
        rows = [dict(zip(CSV_COLUMNS, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert [r["positivity_ok"] for r in rows] == ["0", "1", "1", "1"]
        cell = rows[0]
        assert all(math.isnan(float(cell[k]))
                   for k in ("margin_ent", "margin_ab", "margin_ba", "margin_bell"))
        assert run(["steady", *point, "--ta", "0.124", "--tb", "0.02"]) == 3
        transport = json.loads(capsys.readouterr().out)["transport"]
        assert float(cell["current_b"]) == transport["current_b"]
        assert float(cell["sigma"]) == transport["sigma"]


class TestJobs:
    SWEEP = ["sweep", "--stat", "bose", "--ta", "0.5", "--tb", "0.5",
             "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "2",
             "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "2"]

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_env_jobs_rejected(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STEERLAB_JOBS", value)
        assert run(self.SWEEP + ["--out", str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "g.csv").exists()

    def test_env_jobs_ignored_outside_sweep(self, monkeypatch, capsys):
        monkeypatch.setenv("STEERLAB_JOBS", "abc")
        assert run(["steady"]) == 0

    def test_jobs_flag_only_on_sweep(self):
        with pytest.raises(SystemExit):
            run(["steady", "--jobs", "2"])


class TestOutputs:
    def test_write_beside_stale_tmp_directory(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        (tmp_path / "table.json.tmp").mkdir()
        assert run(["thresholds-table", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert "kappa_ent" in table
        manifest = json.loads((tmp_path / "table.json.manifest.json").read_text())
        assert list(manifest) == ["config", "version", "timing_seconds",
                                  "masked_cells", "outputs"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "table.json", "table.json.manifest.json", "table.json.tmp"]

    def test_format_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert run(["thresholds-table", "--config", str(cfg)]) == 2
        assert "format" in capsys.readouterr().err


class TestThresholdCommand:
    def test_threshold_json(self, capsys):
        code = run(["threshold", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--gamma", "0.01", "--ta", "0.05", "--tb", "0.05",
                    "--criterion", "two-way", "--bracket-lo", "2.003",
                    "--bracket-hi", "2.3"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["found"] is True
        expected = 2 + math.log(4 / 3) * 0.05
        assert abs(rep["kappa_threshold"] - expected) / expected < 1e-6
        assert abs(rep["relative_deviation"]["kappa_low_two_way"]) < 1e-6

    def test_empty_bracket_result(self, capsys):
        code = run(["threshold", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--gamma", "0.01", "--ta", "0.05", "--tb", "0.05",
                    "--criterion", "two-way", "--bracket-lo", "0.3",
                    "--bracket-hi", "0.9"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["found"] is False and rep["kappa_threshold"] is None


class TestThresholdsTable:
    def test_table(self, capsys):
        code = run(["thresholds-table", "--stat", "fermi", "--eps-a", "1",
                    "--eps-b", "1", "--ta", "0.05", "--tb", "0.05",
                    "--mua", "1", "--mub", "1"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["kappa_resonant_two_way"] == pytest.approx(0.15606446, rel=1e-6)


class TestEvolveCommand:
    def test_ground_state_convergence(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["evolve", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--kappa", "1", "--gamma", "0.05", "--ta", "0.5", "--tb", "0.5",
                    "--initial", "ground-local", "--t-final", "400", "--dt", "0.05",
                    "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_distance_to_steady"] < 1e-8
        assert summary["trace_drift"] < 1e-10
        header = out.read_text().splitlines()[0]
        assert header == "t,rho_gg,rho_e1e1,rho_e2e2,rho_e3e3,re_coh,im_coh"

    def test_unstable_dt_rejected_with_suggestion(self, tmp_path, capsys):
        code = run(["evolve", "--stat", "bose", "--kappa", "3",
                    "--ta", "0.5", "--tb", "0.5",
                    "--initial", "maximally-mixed", "--t-final", "10", "--dt", "5.0",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "maximum stable dt" in capsys.readouterr().err

    def test_custom_matrix(self, tmp_path, capsys):
        mat = {"matrix": [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(mat))
        code = run(["evolve", "--stat", "bose", "--kappa", "1", "--gamma", "0.05",
                    "--ta", "0.5", "--tb", "0.5",
                    "--initial", "custom", "--initial-matrix", str(mpath),
                    "--initial-basis", "energy",
                    "--t-final", "400", "--dt", "0.05",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged_1e8"] is True


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_is_schema_valid(self, name):
        ref = resources.files("steerlab.presets").joinpath(name + ".json")
        cfg = json.loads(ref.read_text())
        Draft202012Validator(CONFIG_SCHEMA).validate(cfg)
        # the sweep config must construct cleanly
        s = cfg["system"]
        system = sl.SystemParams(s["eps_a"], s["eps_b"], s["kappa"], s["gamma"])
        sw = cfg["sweep"]
        SweepConfig(
            axis_x=Axis(sw["axis_x"]), x_range=tuple(sw["x_range"]), nx=sw["nx"],
            axis_y=Axis(sw["axis_y"]), y_range=tuple(sw["y_range"]), ny=sw["ny"],
            system=system, statistics=Statistics(cfg["reservoirs"]["statistics"]),
            t_a=cfg["reservoirs"]["ta"], t_b=cfg["reservoirs"]["tb"],
            mu_a=cfg["reservoirs"].get("mua", 0.0), mu_b=cfg["reservoirs"].get("mub", 0.0),
        )

    def test_unknown_preset_rejected(self, capsys):
        assert run(["sweep", "--preset", "fig99"]) == 2

    def test_preset_runs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = run(["sweep", "--preset", "fig2", "--jobs", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 101 * 101 + 1
        manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
        assert manifest["masked_cells"] == 0


class TestFixedFormat:
    def test_dumps_fixed_floats(self):
        text = dumps_fixed({"a": 1.0 / 3.0, "b": [True, None, "s"], "c": float("nan")})
        assert "0.33333333333333331" in text
        assert '"nan"' in text
        assert json.loads(text.replace('"nan"', "0"))
