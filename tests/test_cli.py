import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerlab as sl
import steerlab.analysis
import steerlab.g17
import steerlab.generator
from steerlab.analysis import FIELDS, Axis, Criterion, SweepConfig, pipeline, sweep2d
from steerlab.cli import (
    _MODE_FLAGS,
    COUNT,
    EXIT_INTERNAL,
    EXIT_POSITIVITY,
    MATRIX,
    MODES,
    NUMBER,
    RANGE,
    SECTIONS,
    STRING,
    _build_objects,
    _state_entries,
    csv_text,
    build_parser,
    check_config,
    dumps_fixed,
    main,
    resolve_config,
)
from steerlab.errors import ConfigurationError, DegenerateSteadyStateError, InternalConsistencyError
from steerlab.g17 import g17_rows
from steerlab.rates import Statistics

from conftest import (assert_rows_equal_points, csv_text_oracle,
                      eigen_populations, grid_point, load_preset_config, state_entries_oracle)

PRESETS = [f"fig{n}" for n in
           ["2", "3a", "3b", "3c", "4", "5a", "5b", "5c",
            "6a", "6b", "6c", "7a", "7b", "7c", "8a", "8b", "9a", "9b"]]


def run(args):
    return main(args)


@pytest.fixture
def solves(monkeypatch):
    """The steady-state solves of the sweep and threshold pipelines, counted."""
    calls = []
    solve = steerlab.analysis.steady_state

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr("steerlab.analysis.steady_state", counting)
    return calls


class TestSteadyCommand:
    def test_equilibrium_point(self, capsys):
        code = run(["steady", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--kappa", "3", "--gamma", "0.01", "--ta", "0.5", "--tb", "0.5"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["transport"]["current_b"]) < 1e-12
        assert abs(rep["transport"]["sigma"]) < 1e-12
        assert rep["transport"]["observable"] == "energy"
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
        assert rep["transport"]["observable"] == "particle-number"

    @pytest.mark.parametrize("params,stat,a,b", [
        ((1.0, 1.0, 3.0), "bose", (0.4, 0.0), (0.6, 0.0)),
        ((1.3, 0.7, 1.0), "bose", (0.45, 0.0), (0.65, 0.0)),
        ((1.2, 0.8, 0.6), "fermi", (0.15, 0.8), (0.15, 1.2)),
    ])
    def test_eigen_populations_match_projection(self, params, stat, a, b, capsys):
        # strong-bose, weak-bose and weak-fermi: the reported weights on
        # (|00>, |11>, psi-, psi+) against projections of the local state
        eps_a, eps_b, kappa = params
        code = run(["steady", f"--stat={stat}", f"--eps-a={eps_a}", f"--eps-b={eps_b}",
                    f"--kappa={kappa}", f"--ta={a[0]}", f"--mua={a[1]}",
                    f"--tb={b[0]}", f"--mub={b[1]}"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        local = np.array(rep["state_local_basis"]) @ [1, 1j]
        statistics = Statistics(stat)
        g = sl.build_generator(sl.Cells.of([(sl.SystemParams(*params, 0.01),
                                             sl.ReservoirSpec(statistics, *a),
                                             sl.ReservoirSpec(statistics, *b))]))
        oracle = eigen_populations(local, steerlab.generator.dense(g)[1], g.cells.setup[0] == 2)
        got = rep["correlations"]["eigen_populations"]
        assert np.max(np.abs(np.subtract(got, oracle))) <= 1e-15

    def test_config_error_exit_code(self, capsys):
        assert run(["steady", "--kappa", "-1"]) == 2

    @pytest.mark.parametrize("flag", ["--kappa=nan", "--gamma=inf", "--ta=inf"])
    def test_non_finite_parameter_rejected(self, flag, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy could warn
            assert run(["steady", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--stat=bose"],
                                       ["--stat=fermi", "--kappa=1", "--mua=1", "--mub=1"]])
    def test_subnormal_temperature_rejected(self, flags, capsys):
        # 1/T overflows: sigma once came out nan, after three RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["steady", *flags, "--ta=1e-320", "--tb=1e-320"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: temperature too small: T=1e-320 makes 1/T or " \
                               "(eps-mu)/T overflow\n"

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

    def test_bosonic_mu_rejected(self, solves, capsys):
        # a nonzero bosonic mu is an error, not silently set to 0
        assert run(["steady", "--stat", "bose", "--mua", "0.5", "--mub", "-0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and solves == []
        assert captured.err == "error: bosonic reservoirs must have mu = 0\n"

    @pytest.mark.parametrize("target,exc", [
        ("steady_state", DegenerateSteadyStateError),
        ("classify", InternalConsistencyError),
    ])
    def test_internal_error_exit_code(self, target, exc, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise exc("planted defect")
        monkeypatch.setattr(f"steerlab.analysis.{target}", fail)
        assert run(["steady"]) == EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "planted defect" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["steady"],
        ["sweep", "--axis-x=tbar", "--x-min=0.3", "--x-max=0.6", "--nx=2",
         "--axis-y=kappa", "--y-min=2.5", "--y-max=3", "--ny=2"],
        ["threshold", "--criterion=two-way", "--bracket-lo=2.003", "--bracket-hi=2.3"],
    ], ids=["steady", "sweep", "threshold"])
    def test_fault_on_positive_state_is_internal(self, argv, monkeypatch, tmp_path, capsys):
        # a classification fault on a positive state is a defect of the
        # program, never a masked cell or an input error
        classify = steerlab.analysis.classify

        def faulty(x, dual=True):
            c = classify(x, dual)
            return c._replace(fault=np.zeros_like(c.fault))
        monkeypatch.setattr("steerlab.analysis.classify", faulty)
        assert run([*argv, f"--out={tmp_path / 'out'}"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: internal: classification fault on a positive "
                                       "state at kappa ")
        assert captured.err.endswith(": negative population beyond tolerance\n")
        assert list(tmp_path.iterdir()) == []


# requests that the gate rejects, per command, and the error each names: a
# subnormal temperature, strong-coupling fermions, a bosonic mu and kappa <= 0
# (for threshold also as the bracket's low end); thresholds-table builds no
# cells, so its point meets the input rules and steady's temperature rule alone
THRESHOLD_FLAGS = ["--criterion=two-way", "--bracket-lo=2.003", "--bracket-hi=2.3"]
GATED_INPUTS = {
    "subnormal-t": (["--ta=1e-320"], "temperature too small: T=1e-320"),
    "strong-fermi": (["--stat=fermi", "--mua=1", "--mub=1"],
                     "strong-coupling fermionic setup unsupported"),
    "bose-mu": (["--mub=-0.3"], "bosonic reservoirs must have mu = 0"),
    "kappa": (["--kappa=0"], "kappa must be > 0, got 0.0"),
}
GATED_REQUESTS = {
    **{f"steady-{name}": (["steady", *flags], message)
       for name, (flags, message) in GATED_INPUTS.items()},
    **{f"evolve-{name}": (["evolve", "--t-final=1", "--dt=0.01", *flags], message)
       for name, (flags, message) in GATED_INPUTS.items()},
    **{f"threshold-{name}": (["threshold", *THRESHOLD_FLAGS, *flags], message)
       for name, (flags, message) in GATED_INPUTS.items()},
    "threshold-bracket": (["threshold", "--criterion=two-way", "--bracket-lo=0",
                           "--bracket-hi=2.3"], "threshold bracket must satisfy 0 < lo < hi"),
    "thresholds-table-bose-mu": (["thresholds-table", *GATED_INPUTS["bose-mu"][0]],
                                 GATED_INPUTS["bose-mu"][1]),
    "thresholds-table-kappa": (["thresholds-table", "--kappa=-1"], "kappa must be > 0, got -1.0"),
    # the closed forms would read inf; steady's message for the same input
    "thresholds-table-subnormal-t": (["thresholds-table", "--ta=1e-320", "--tb=1e-320"],
                                     "temperature too small: T=1e-320 makes 1/T or (eps-mu)/T "
                                     "overflow"),
    **{f"evolve-{name}": (["evolve", "--t-final=1", "--dt=0.01", flag],
                          "t_final and dt must be positive and finite")
       for name, flag in [("t-final-zero", "--t-final=0"), ("dt-zero", "--dt=0"),
                          ("dt-inf", "--dt=inf"), ("t-final-nan", "--t-final=nan")]},
    "evolve-custom-no-matrix": (["evolve", "--t-final=1", "--dt=0.01", "--initial=custom"],
                                "custom initial state requires a 'matrix' entry"),
}
# custom initial states that evolve rejects, each written to the JSON file
# of --initial-matrix, and the error each names
MIXED = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
GATED_MATRICES = {
    "non-hermitian": ([[0.25, 0.1, 0, 0], *MIXED[1:]], "density matrix not Hermitian within 1e-12"),
    "trace-2": ([[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)],
                "density matrix trace must be 1 within 1e-12"),
    "nan": ([[math.nan, 0, 0, 0], *MIXED[1:]], "density matrix entries must be finite"),
    "complex-nan": ([*MIXED[:3], [0, 0, 0, [0.25, math.nan]]],
                    "density matrix entries must be finite"),
}
GATED_REQUESTS.update({f"evolve-matrix-{name}": (["evolve", "--t-final=1", "--dt=0.01",
                                                  "--initial=custom"], message, matrix)
                       for name, (matrix, message) in GATED_MATRICES.items()})


class TestGateBeforeComputation:
    @pytest.mark.parametrize("name", GATED_REQUESTS)
    def test_rejected_before_any_kernel(self, name, monkeypatch, tmp_path, capsys):
        # the request exits 2 in one error line, and no eigensystem or rate
        # set is computed for it
        calls = []
        for kernel in ("eigensystem", "rate_set"):
            def counting(*args, kernel=kernel, original=getattr(steerlab.generator, kernel)):
                calls.append(kernel)
                return original(*args)
            monkeypatch.setattr(f"steerlab.generator.{kernel}", counting)
        argv, message, *matrix = GATED_REQUESTS[name]
        if matrix:
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"matrix": matrix[0]}))
            argv = [*argv, f"--initial-matrix={path}"]
        out = tmp_path / "out"
        assert run([*argv, f"--out={out}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert calls == [] and not out.exists()


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
        assert lines[0] == ("x,y,entangled,steer_ab,steer_ba,bell,margin_ent,margin_ab,"
                            "margin_ba,margin_bell,current_b,sigma,positivity_ok")
        assert len(lines) == 5
        # row-major in (y, x): first two rows share y
        rows = [line.split(",") for line in lines[1:]]
        assert rows[0][1] == rows[1][1]
        assert rows[0][0] != rows[1][0]
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["masked_cells"] == 0
        assert manifest["version"] == sl.__version__
        # solver diagnostics of the sweep follow the outputs
        assert list(manifest)[-2:] == ["outputs", "diagnostics"]
        diag = manifest["diagnostics"]
        assert list(diag) == ["max_residual", "min_eigenvalue", "min_null_space_ratio",
                              "cross_checked_cells"]
        # both classification routes ran and agreed on all four cells
        assert diag["cross_checked_cells"] == 4
        assert 0 <= diag["max_residual"] <= 1e-10
        assert diag["min_eigenvalue"] >= -1e-9
        # |det| over the Hadamard bound: 0.223 here, at least 0.0117 on every preset
        assert float(diag["min_null_space_ratio"]) >= 1e-3
        assert f"sha256:" in list(manifest["outputs"].values())[0]

    def test_fermionic_temperature_axis(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["sweep", "--stat", "fermi", "--axis-x", "ta", "--x-min", "0.1",
                    "--x-max", "0.3", "--nx", "2", "--axis-y", "kappa", "--y-min", "0.5",
                    "--y-max", "0.6", "--ny", "2"])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        sigma = np.array([float(ln.split(",")[FIELDS.index("sigma")])
                          for ln in lines[1:]])
        assert np.all(np.isfinite(sigma)) and np.all(sigma >= -1e-12)

    def test_mu_axes(self, tmp_path, capsys):
        out = tmp_path / "mu.csv"
        code = run(["sweep", "--stat=fermi", "--eps-a=1.5", "--eps-b=0.5", "--kappa=0.6",
                    "--ta=0.15", "--tb=0.3", "--axis-x=mua", "--x-min=0.2", "--x-max=1.4",
                    "--nx=2", "--axis-y=mub", "--y-min=-0.5", "--y-max=0.9", "--ny=2",
                    f"--out={out}"])
        assert code == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.20000000000000001", "-0.5"], ["1.3999999999999999", "-0.5"],
                        ["0.20000000000000001", "0.90000000000000002"],
                        ["1.3999999999999999", "0.90000000000000002"]]

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
        rows = [dict(zip(FIELDS, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert [r["positivity_ok"] for r in rows] == ["0", "1", "1", "1"]
        cell = rows[0]
        assert all(math.isnan(float(cell[k]))
                   for k in ("margin_ent", "margin_ab", "margin_ba", "margin_bell"))
        assert run(["steady", *point, "--ta", "0.124", "--tb", "0.02"]) == 3
        transport = json.loads(capsys.readouterr().out)["transport"]
        assert float(cell["current_b"]) == transport["current_b"]
        assert float(cell["sigma"]) == transport["sigma"]

    def test_stage_timings(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run(["sweep", "--preset=fig2", "--nx=3", "--ny=2", f"--out={out}"]) == 0
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert list(manifest) == ["config", "version", "timing_seconds", "stage_seconds",
                                  "masked_cells", "outputs", "diagnostics"]
        stages = manifest["stage_seconds"]
        assert list(stages) == ["sweep2d", "render", "write"]
        assert all(v >= 0 for v in stages.values())
        assert sum(stages.values()) <= manifest["timing_seconds"]


def synthetic_columns(nx: int, ny: int) -> dict[str, np.ndarray]:
    """Row-major FIELDS columns of an nx x ny grid: every pattern of the four
    verdict flags with both positivity values, masked cells (nan margins),
    +-inf, signed zeros, subnormals and values over the whole float range."""
    rng = np.random.default_rng(nx * 100 + ny)
    n = nx * ny
    code = rng.permutation(np.arange(n) % 32)
    values = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-300, 300, (6, n))
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, -2.2250738585072014e-308, -4.9406564584124654e-324,
               1 / 3, 1e16, 123456789.0]
    for row in values:
        row[rng.choice(n, len(special), replace=False)] = special
    values[:4, code == 0] = math.nan   # masked: no verdicts, no margins
    xs = np.linspace(0.1, 2.3, nx) / 3
    ys = np.linspace(-1.0, 1.0, ny) * math.pi
    ys[0] = -0.0
    flags = [(code >> bit & 1).astype(bool) for bit in (4, 3, 2, 1)]
    return dict(zip(FIELDS, (np.tile(xs, ny), np.repeat(ys, nx), *flags, *values,
                             (code & 1).astype(bool))))


class TestCsvText:
    """cli.csv_text against the former writer, conftest.csv_text_oracle."""

    @pytest.mark.parametrize("nx,ny", [(8, 5), (3, 11)])
    def test_synthetic_columns(self, nx, ny):
        columns = synthetic_columns(nx, ny)
        codes = sum(columns[name].astype(int) << bit for bit, name in
                    enumerate(["positivity_ok", "bell", "steer_ba", "steer_ab", "entangled"]))
        assert sorted(set(codes.tolist())) == list(range(32))
        assert csv_text(columns, nx) == csv_text_oracle(columns).encode()

    @pytest.mark.parametrize("name", ["fig8b", "fig3c", "fig9b"])
    def test_presets(self, name, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["sweep", f"--preset={name}", f"--out={out}"]) == 0
        region = sweep2d(load_preset_config(name))
        assert out.read_bytes() == csv_text_oracle(region.columns).encode()

    def test_one_row_blocks_and_masked_cells(self):
        # nx > BLOCK_CELLS makes every sweep2d block one row; the cold
        # corner of this grid violates positivity, and some of its cells
        # fail classification, whence nan margins
        cfg = SweepConfig(
            axis_x=Axis.TA, x_range=(0.124, 0.5), nx=2049, axis_y=Axis.TB, y_range=(0.02, 0.5),
            ny=2, system=sl.SystemParams(1.8, 0.2, 3.0, 0.01), statistics=Statistics.BOSE,
            t_a=0.5, t_b=0.5)
        region = sweep2d(cfg)
        masked = ~region.columns["positivity_ok"]
        assert 0 < np.count_nonzero(masked) < cfg.nx
        assert np.isnan(region.columns["margin_ent"][masked]).any()
        assert csv_text(region.columns, cfg.nx) == csv_text_oracle(region.columns).encode()

    def test_masked_sweep(self, tmp_path, capsys):
        # the grid of TestSweepCommand.test_positivity_violating_cell_is_masked
        out = tmp_path / "masked.csv"
        assert run(["sweep", "--stat=bose", "--eps-a=1.8", "--eps-b=0.2", "--kappa=3",
                    "--gamma=0.01", "--axis-x=ta", "--x-min=0.124", "--x-max=0.5", "--nx=2",
                    "--axis-y=tb", "--y-min=0.02", "--y-max=0.5", "--ny=2",
                    f"--out={out}"]) == 0
        region = sweep2d(SweepConfig(
            axis_x=Axis.TA, x_range=(0.124, 0.5), nx=2, axis_y=Axis.TB, y_range=(0.02, 0.5),
            ny=2, system=sl.SystemParams(1.8, 0.2, 3.0, 0.01), statistics=Statistics.BOSE,
            t_a=0.5, t_b=0.5))
        assert region.masked_count() == 1
        assert out.read_bytes() == csv_text_oracle(region.columns).encode()


def test_g17_text_matches_per_value_format(monkeypatch):
    # g17_rows against '%.17g' per value over several chunks of a corpus that
    # spans every branch: notation, sign, carry, exponent guess and fallback,
    # and the texts of the full 24 bytes
    exact = []
    fallback = steerlab.g17._exact
    monkeypatch.setattr(steerlab.g17, "_exact", lambda v: exact.append(v) or fallback(v))
    rng = np.random.default_rng(27)
    patterns = np.frombuffer(rng.bytes(8 * 8000), np.float64)
    magnitudes = 10.0 ** rng.uniform(-300, 300, 8000) * rng.choice([-1.0, 1.0], 8000)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    dyadic = rng.integers(1, 2 ** 53, 4000) * 2.0 ** -rng.integers(1, 60, 4000)
    tie, out_of_range = 1234567890123456.75, 1e300
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-280, -1e-280, 1e280,
               -1e280, 1e17, 99999999999999999.0, 1e16, 1e-4, 1e-5, tie, out_of_range,
               -2.2250738585072014e-308, -4.9406564584124654e-324]
    corpus = np.concatenate([
        patterns, magnitudes, powers, -powers, np.nextafter(powers, math.inf),
        np.nextafter(powers, -math.inf), rng.integers(0, 10 ** 17, 4000).astype(float),
        np.arange(-1000.0, 1000.0), dyadic, special])
    assert len(corpus) > 4 * steerlab.g17.CHUNK
    rows = g17_rows(corpus)
    assert rows.shape == (len(corpus), 24) and rows.dtype == np.uint8
    # each row is the text up to its first NUL, and only NULs follow
    for row, v in zip(map(bytes, rows), corpus.tolist()):
        text, _, rest = row.partition(b"\0")
        assert text == b"%.17g" % v and rest == bytes(len(rest)), (v, row)
    # the tie and the out-of-range value went to the fallback, and of the
    # finite values within the range only those whose digits after the 17th
    # lie within 1e-6 of a tie, or exact powers of ten, which sit on the
    # boundary of the exponent guess
    assert tie in exact and out_of_range in exact

    def uncertified(v):
        scaled = Decimal(abs(v)).scaleb(16 - Decimal(abs(v)).adjusted())
        return scaled == 10 ** 16 or abs(scaled - int(scaled) - Decimal("0.5")) < Decimal("1e-6")

    assert all(uncertified(v) for v in exact if 1e-280 <= abs(v) <= 1e280)
    assert len(exact) < len(corpus) // 10


class TestNoWorkerOptions:
    @pytest.mark.parametrize("mode", ["steady", "sweep", "threshold", "evolve",
                                      "thresholds-table"])
    def test_jobs_flag_rejected(self, mode, capsys):
        with pytest.raises(SystemExit) as exc:
            run([mode, "--jobs", "2"])
        assert exc.value.code == 2

    def test_jobs_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        assert run(["steady", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jobs" in err and err.count("\n") == 1


class TestConfigFile:
    @pytest.mark.parametrize("doc", ["[1, 2]", "3", '"x"', "[]", "null", "0", '""', "false"])
    def test_non_object_rejected(self, doc, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(doc)
        assert run(["steady", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: a config must be a JSON object\n"

    def test_integer_too_large_for_a_float_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"system": {"kappa": 1%s}}' % ("0" * 400))
        assert run(["steady", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("nx", ["2.0", "true"])
    def test_grid_size_must_be_an_integer(self, nx, tmp_path, capsys):
        # an integral float once passed and np.linspace raised a TypeError
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sweep": {"axis_x": "tbar", "x_range": [0.3, 0.6], "nx": %s, '
                       '"axis_y": "kappa", "y_range": [2.5, 3.0], "ny": 2}}' % nx)
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: $.sweep.nx: expected an integer >= 2, got " \
                               f"{json.loads(nx)!r}\n"
        assert not (tmp_path / "g.csv").exists()

    def test_config_and_preset_are_exclusive(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert run(["sweep", "--config", str(cfg), "--preset", "fig2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --config and --preset are mutually exclusive\n"

    def test_no_schema_library_imported(self, tmp_path):
        # a flag-only request and a config-file request, in a fresh interpreter
        cfg = tmp_path / "c.json"
        cfg.write_text('{"system": {"kappa": 2.5}}')
        code = ("import sys; from steerlab.cli import main; "
                f"main(['steady', '--out', {str(tmp_path / 'a.json')!r}]); "
                f"main(['steady', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'b.json')!r}]); "
                "print('jsonschema' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0 and done.stdout == "False\n", done.stderr
        assert (tmp_path / "a.json").exists() and (tmp_path / "b.json").exists()


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

    @pytest.mark.parametrize("argv", [["steady"], ["sweep", "--preset=fig2", "--nx=2", "--ny=2"],
                                      ["thresholds-table"]])
    def test_timing_ignores_wall_clock_steps(self, argv, tmp_path, monkeypatch, capsys):
        # a wall clock stepped back an hour at every read leaves the manifest's
        # timing a small positive duration
        steps = iter(range(1000))
        monkeypatch.setattr(time, "time", lambda: 1e9 - 3600.0 * next(steps))
        out = tmp_path / "out"
        assert run(argv + [f"--out={out}"]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert 0 <= manifest["timing_seconds"] < 60

    def test_format_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert run(["thresholds-table", "--config", str(cfg)]) == 2
        assert "format" in capsys.readouterr().err

    def test_per_reservoir_gamma_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": {"gamma_a": 0.02}}))
        assert run(["thresholds-table", "--config", str(cfg)]) == 2
        assert "gamma_a" in capsys.readouterr().err


    def test_failed_rename_leaves_no_tmp(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "table.json"
        out.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", fail)
        assert run(["thresholds-table", f"--out={out}"]) == 2
        assert "rename refused" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["table.json"]
        assert out.read_text() == "old\n"

    def test_manifest_digest_is_of_the_bytes_written(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(["evolve", "--t-final=0.1", "--dt=0.01", f"--out={out}"]) == 0
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["outputs"] == {str(out): f"sha256:{digest}"}


class TestNonFiniteSweep:
    def test_nan_range_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis_x": "tbar", "x_range": [float("nan"), 0.6], "nx": 2,
            "axis_y": "kappa", "y_range": [2.5, 3.0], "ny": 2}}))
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
        assert not (tmp_path / "g.csv").exists()


# sweeps whose first offending cell lies on a later row, and a grid too large
# to allocate: each is rejected before any row is solved
REJECTED_SWEEPS = {
    "strong-fermi": (["--stat=fermi", "--mua=1", "--mub=1", "--axis-x=tbar", "--x-min=0.1",
                      "--x-max=0.5", "--axis-y=kappa", "--y-min=0.02", "--y-max=2.5"],
                     "strong-coupling fermionic setup unsupported"),
    "negative-temperature": (["--ta=2", "--tb=2", "--axis-x=delta_t", "--x-min=-1",
                              "--x-max=1", "--axis-y=tbar", "--y-min=2", "--y-max=0.2"],
                             "temperature must be > 0"),
    "bose-floor": (["--axis-x=kappa", "--x-min=2.5", "--x-max=3", "--axis-y=ta",
                    "--y-min=0.5", "--y-max=1e10"], "bosonic occupation diverges"),
    # every T is positive, and T_A = tbar - delta_t/2 = 1.66e-316 on row 1
    "subnormal-temperature": (["--axis-x=tbar", "--x-min=1e-300", "--x-max=1",
                               "--axis-y=delta_t", "--y-min=0",
                               "--y-max=1.9999999999999997e-300"],
                              "temperature too small: T=1.6578092e-316"),
    # 1e15 x values alone need 7 PiB, more than a 128 TiB address space, so
    # the allocation fails at once and never touches memory
    "unallocatable": (["--axis-x=tbar", "--x-min=0.3", "--x-max=0.6",
                       "--nx=1000000000000000", "--axis-y=kappa", "--y-min=2.5",
                       "--y-max=3", "--ny=2"],
                      "a grid of 1000000000000000x2 cells cannot be allocated"),
}


class TestSweepValidation:
    def test_bosonic_mu_in_config_rejected(self, solves, tmp_path, capsys):
        cfg, out = tmp_path / "c.json", tmp_path / "g.csv"
        cfg.write_text(json.dumps({
            "reservoirs": {"statistics": "bose", "ta": 0.5, "tb": 0.5, "mua": 0.5},
            "sweep": {"axis_x": "tbar", "x_range": [0.3, 0.6], "nx": 2,
                      "axis_y": "kappa", "y_range": [2.5, 3.0], "ny": 2}}))
        assert run(["sweep", "--config", str(cfg), f"--out={out}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bosonic reservoirs must have mu = 0\n"
        assert not out.exists() and solves == []

    @pytest.mark.parametrize("name", REJECTED_SWEEPS)
    def test_rejected_before_any_computation(self, name, solves, tmp_path, capsys):
        flags, message = REJECTED_SWEEPS[name]
        out = tmp_path / "g.csv"
        assert run(["sweep", *flags, f"--out={out}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists() and solves == []

    def test_difference_axis_over_level_axis_accepted(self, solves, tmp_path, capsys):
        # T = tbar -/+ delta_t/2 >= 0.5 on every cell, whatever --ta and --tb are
        out = tmp_path / "g.csv"
        assert run(["sweep", "--axis-x=tbar", "--x-min=1", "--x-max=2", "--nx=3",
                    "--axis-y=delta_t", "--y-min=-1", "--y-max=1", "--ny=3",
                    f"--out={out}"]) == 0
        # the 3x3 grid is one block of whole rows: one solve
        assert len(out.read_text().splitlines()) == 10 and len(solves) == 1
        cfg = SweepConfig(axis_x=Axis.TBAR, x_range=(1.0, 2.0), nx=3, axis_y=Axis.DELTA_T,
                          y_range=(-1.0, 1.0), ny=3, system=sl.SystemParams(1.0, 1.0, 3.0, 0.01),
                          statistics=Statistics.BOSE, t_a=0.5, t_b=0.5)
        assert_rows_equal_points(cfg, range(3))


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

    def test_unequal_temperatures_have_no_closed_form(self, capsys):
        code = run(["threshold", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--gamma", "0.01", "--ta", "0.05", "--tb", "0.06",
                    "--criterion", "two-way", "--bracket-lo", "2.003",
                    "--bracket-hi", "2.3"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["found"] is True
        assert rep["analytic"] is None and "relative_deviation" not in rep

    def test_empty_bracket_result(self, capsys):
        code = run(["threshold", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                    "--gamma", "0.01", "--ta", "0.05", "--tb", "0.05",
                    "--criterion", "two-way", "--bracket-lo", "0.3",
                    "--bracket-hi", "0.9"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["found"] is False and rep["kappa_threshold"] is None


    @pytest.mark.parametrize("lo,hi", [("3", "0.5"), ("1", "1"), ("0.5", "inf"),
                                       ("nan", "1"), ("0", "1")])
    def test_bad_bracket_rejected_before_any_solve(self, lo, hi, solves, capsys):
        code = run(["threshold", "--criterion=two-way", f"--bracket-lo={lo}",
                    f"--bracket-hi={hi}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: threshold bracket must satisfy 0 < lo < hi < inf")
        assert solves == []

    def test_non_positive_states_in_bracket_exit_positivity(self, capsys):
        # the bisection walks to the level crossing at kappa = 1.2, where the
        # weak-phase steady states are not positive
        code = run(["threshold", "--eps-a=1.8", "--eps-b=0.2", "--ta=0.1", "--tb=0.3",
                    "--criterion=b->a", "--bracket-lo=0.5", "--bracket-hi=8"])
        assert code == EXIT_POSITIVITY == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: steady state at kappa 1.1")
        assert " not positive (min eigenvalue -" in captured.err

    def test_non_monotone_margin_rejected(self, monkeypatch, capsys):
        # margins that change sign twice on the pre-scan: +, +, +, -, -, -, +, +
        monkeypatch.setattr("steerlab.analysis._margins", lambda cells, criterion: [
            (-1.0) ** (i // 3) for i in range(len(cells.theta))])
        assert run(["threshold", *THRESHOLD_FLAGS]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: margin not monotone on bracket (2.003, 2.3): "
                                "2 sign changes\n")


class TestThresholdsTable:
    def test_table(self, capsys):
        code = run(["thresholds-table", "--stat", "fermi", "--eps-a", "1",
                    "--eps-b", "1", "--ta", "0.05", "--tb", "0.05",
                    "--mua", "1", "--mub", "1"])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["kappa_resonant_two_way"] == pytest.approx(0.15606446, rel=1e-6)

    def test_unequal_temperatures_rejected(self, capsys):
        assert run(["thresholds-table", "--ta", "0.1", "--tb", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def trajectory_csv_oracle(times, vectors) -> str:
    """The former trajectory writer, one "%.17g" per value, kept as the oracle."""
    def fmt(v):
        return "%.17g" % v
    lines = ["t,rho_gg,rho_e1e1,rho_e2e2,rho_e3e3,re_coh,im_coh"]
    for t, v in zip(times, vectors):
        row = (float(t), v[0].real, v[1].real, v[2].real, v[3].real, v[4].real, v[4].imag)
        lines.append(",".join(fmt(x) for x in row))
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("flags", [
        ["--stat=bose", "--kappa=1", "--gamma=0.05", "--ta=0.5", "--tb=0.7",
         "--t-final=3.73", "--dt=0.05"],
        ["--stat=bose", "--kappa=3", "--ta=0.4", "--tb=0.6", "--initial=maximally-mixed",
         "--t-final=1.2345", "--dt=0.02"],
        ["--stat=fermi", "--eps-a=1.5", "--eps-b=0.5", "--kappa=0.6", "--gamma=0.02",
         "--ta=0.15", "--tb=0.3", "--mua=1", "--mub=0.8", "--t-final=2.01", "--dt=0.03"],
    ], ids=["weak-bose", "strong-bose", "weak-fermi"])
    def test_csv_matches_per_value_writer(self, flags, tmp_path, capsys, monkeypatch):
        # t_final is not a multiple of dt, so the last step is a shortened one;
        # the CSV is the per-value text of the trajectory that evolve returned
        out = tmp_path / "t.csv"
        returned = []

        def spy(*args, **kwargs):
            returned.append(sl.evolve(*args, **kwargs))
            return returned[-1]
        monkeypatch.setattr("steerlab.cli.evolve", spy)
        assert run(["evolve", *flags, f"--out={out}"]) == 0
        [(times, vectors)] = returned
        assert out.read_bytes() == trajectory_csv_oracle(times, vectors).encode()

    def test_large_dt_finishes(self, tmp_path, capsys):
        # dt only spaces the output: 5.0 is 150 times 0.1/||M||_inf here
        out = tmp_path / "t.csv"
        code = run(["evolve", "--stat", "bose", "--kappa", "3",
                    "--ta", "0.5", "--tb", "0.5",
                    "--initial", "maximally-mixed", "--t-final", "10", "--dt", "5.0",
                    "--out", str(out)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 2
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "5", "10"]

    def test_unresolved_growth_exits_internal(self, tmp_path, capsys):
        # at kappa = 1e300 rounding gives a coherence mode a real part near
        # +2.6e268, which would overflow; no file is written
        out = tmp_path / "t.csv"
        assert run(["evolve", "--kappa=1e300", "--t-final=1", "--dt=0.1", f"--out={out}"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: internal: evolution matrix out of the")
        assert "mode growth 2.6" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_diagnostics_of_the_cell(self, tmp_path, capsys):
        # the block a sweep manifest ends with, for the one cell evolved
        out = tmp_path / "t.csv"
        assert run(["evolve", "--stat=bose", "--eps-a=1.8", "--eps-b=0.2", "--kappa=3",
                    "--gamma=0.01", "--ta=0.4", "--tb=0.6", "--t-final=1", "--dt=0.1",
                    f"--out={out}"]) == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert list(manifest)[-2:] == ["outputs", "diagnostics"]
        _, st, c, _ = pipeline(sl.Cells.of([(sl.SystemParams(1.8, 0.2, 3.0, 0.01),
                                             sl.ReservoirSpec(Statistics.BOSE, 0.4),
                                             sl.ReservoirSpec(Statistics.BOSE, 0.6))]))
        assert manifest["diagnostics"] == {"max_residual": st.residual[0].item(),
                                           "min_eigenvalue": st.min_eigenvalue[0].item(),
                                           "min_null_space_ratio": st.null_ratio[0].item(),
                                           "cross_checked_cells": int(c.checked.sum())}

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

    def test_nan_matrix_rejected(self, tmp_path, capsys):
        # nan fails every tolerance comparison, so it once passed as a state
        mat = {"matrix": [[float("nan"), 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.5, 0],
                          [0, 0, 0, 0]]}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(mat))
        code = run(["evolve", "--kappa", "1", "--gamma", "0.05",
                    "--initial", "custom", "--initial-matrix", str(mpath),
                    "--t-final", "1", "--dt", "0.01", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"rows": [[1, 0, 0, 0]]}, "'matrix' key"),
        ({"matrix": [1, 2]}, "matrix"),
        ({"matrix": [[{"re": 1}, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
         "matrix"),
    ])
    def test_malformed_matrix_file_rejected(self, doc, message, tmp_path, capsys):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(doc))
        code = run(["evolve", "--kappa", "1", "--gamma", "0.05",
                    "--initial", "custom", "--initial-matrix", str(mpath),
                    "--t-final", "1", "--dt", "0.01", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--t-final=0", "--dt=0"])
    def test_zero_time_rejected(self, flag, tmp_path, capsys):
        code = run(["evolve", "--t-final=1", "--dt=0.01", flag,
                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "t_final and dt must be positive and finite" in captured.err

    def test_unallocatable_trajectory_rejected(self, tmp_path, capsys):
        # the 1e14 step times alone need 728 TiB, more than a 128 TiB address
        # space, so the allocation fails at once and never touches memory
        code = run(["evolve", "--kappa", "1", "--gamma", "0.05", "--initial", "ground-local",
                    "--t-final", "1e12", "--dt", "0.01", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "1e+14 steps" in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_is_schema_valid(self, name):
        ref = resources.files("steerlab.presets").joinpath(name + ".json")
        cfg = json.loads(ref.read_text())
        check_config(cfg)
        assert_well_typed(cfg)
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

    @pytest.mark.parametrize("kind", ["shipped-through-path", "traversal", "absolute"])
    def test_preset_path_rejected(self, kind, tmp_path, capsys):
        # a config outside the package that would run, named as a preset
        (tmp_path / "evil.json").write_text("{}")
        presets = os.path.join(os.path.dirname(sl.__file__), "presets")
        name = {"shipped-through-path": "../presets/fig8b",
                "traversal": os.path.relpath(tmp_path / "evil", presets),
                "absolute": os.fspath(tmp_path / "evil")}[kind]
        assert run(["steady", "--preset", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown preset {name!r}\n"

    def test_preset_runs_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code = run(["sweep", "--preset", "fig2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(FIELDS)
        assert len(lines) == 101 * 101 + 1
        manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
        assert manifest["masked_cells"] == 0


def preset_point_argv(name: str, seed: int) -> list[str]:
    """steady at a seeded cell of a preset's grid, as flags."""
    cfg = load_preset_config(name)
    rng = np.random.default_rng(seed)
    x = cfg.x_values()[rng.integers(cfg.nx)]
    y = cfg.y_values()[rng.integers(cfg.ny)]
    p, ra, rb = grid_point(cfg, x, y)
    values = {"eps-a": p.eps_a, "eps-b": p.eps_b, "kappa": p.kappa, "gamma": p.gamma,
              "ta": ra.temperature, "tb": rb.temperature, "mua": ra.mu, "mub": rb.mu}
    return ["steady", f"--stat={cfg.statistics.value}",
            *(f"--{flag}={float(v)!r}" for flag, v in values.items())]


class TestStateReport:
    """steady's two states against the former construction,
    conftest.state_entries_oracle, in the text of every value, the sign of
    every zero included."""

    @pytest.mark.parametrize("argv", [["steady"]] + [preset_point_argv(name, 7)
                                                     for name in PRESETS])
    def test_report_text(self, argv, capsys):
        assert run(argv) == 0
        text = capsys.readouterr().out
        cfg = resolve_config(build_parser().parse_args(argv))
        _, ss, _, _ = pipeline(sl.Cells.of([_build_objects(cfg)]))
        energy, local = state_entries_oracle(ss.vector6[0], ss.local_x[0])
        assert f'"state_energy_basis": {dumps_fixed(energy)},' in text
        assert f'"state_local_basis": {dumps_fixed(local)},' in text

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 0.25, math.nan, -math.inf])
                    | st.floats(), min_size=24, max_size=24))
    def test_any_entries(self, values):
        # x's populations carry imaginary parts here, which neither reads
        v, x = np.array(values).view(complex).reshape(2, 6)
        assert repr(_state_entries(v, x)) == repr(list(state_entries_oracle(v, x)))


def test_state_entries_of_negative_zeros():
    # each -0.0 of the local state reads 0.0, as in the former complex sum,
    # and the energy-basis state keeps the signs of v
    v = x = np.full(6, complex(-0.0, -0.0))
    assert repr(_state_entries(v, x)) == repr(list(state_entries_oracle(v, x)))


# JSON documents of every kind of value: Python and numpy scalars, strings
# with non-ASCII text, nan and inf, and nested lists of floats alone
FIXED_SCALARS = (st.floats() | st.floats().map(np.float64) | st.booleans().map(np.bool_)
                 | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64) | st.integers()
                 | st.booleans() | st.none() | st.text(max_size=6))
FLOAT_LISTS = st.recursive(st.floats(), lambda inner: st.lists(inner, max_size=4), max_leaves=12)
FIXED_DOCS = st.recursive(
    FIXED_SCALARS | FLOAT_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24)


class NoJSONText(Exception):
    """A value that JSON has no text for."""


def parsed(doc):
    """doc as its JSON text parses back: tuples as lists, keys as strings and
    float64 scalars as floats; NoJSONText if it holds nan, inf or another
    numpy scalar."""
    if isinstance(doc, dict):
        return {str(k): parsed(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [parsed(v) for v in doc]
    if isinstance(doc, float) and math.isfinite(doc):
        return float(doc)
    if doc is None or type(doc) in (bool, int, str):
        return doc
    raise NoJSONText


def assert_round_trip(doc):
    """dumps_fixed(doc) is one line that parses to doc's values, each float
    bit for bit, the sign of zero included; a doc that JSON has no text for
    raises InternalConsistencyError."""
    try:
        want = parsed(doc)
    except NoJSONText:
        with pytest.raises(InternalConsistencyError):
            dumps_fixed(doc)
        return
    text = dumps_fixed(doc)
    assert "\n" not in text and repr(json.loads(text)) == repr(want)


def no_constants(name):
    raise AssertionError(f"{name} in JSON text")


def same_bits(got, value) -> bool:
    """Whether a parsed report value is the float value, bit for bit, or its
    string where it is nan or inf."""
    value = float(value)
    return repr(got) == repr(value if math.isfinite(value) else str(value))


class TestFixedFormat:
    def test_dumps_fixed_floats(self):
        text = dumps_fixed({"a": 1.0 / 3.0, "b": [True, None, "s"], "c": -0.0, "d": 1.0})
        assert text == '{"a": 0.3333333333333333, "b": [true, null, "s"], "c": -0.0, "d": 1.0}'

    @pytest.mark.parametrize("argv", [
        *(preset_point_argv(name, seed) for seed, name in enumerate(PRESETS)),
        ["steady", "--stat=fermi", "--mua=1", "--mub=1.2", "--kappa=0.6", "--ta=0.15"],
        ["steady", "--kappa=2.2", "--ta=0.05", "--tb=0.7"],
        ["threshold", "--ta=0.05", "--tb=0.05", "--criterion=two-way",
         "--bracket-lo=2.003", "--bracket-hi=2.3"],
        ["threshold", "--criterion=two-way", "--bracket-lo=0.3", "--bracket-hi=0.9"],
        ["threshold", "--ta=0.3", "--tb=0.7", "--criterion=entanglement",
         "--bracket-lo=0.1", "--bracket-hi=4"],
        ["thresholds-table"],
        ["evolve", "--t-final=2", "--dt=0.02"],
        ["sweep", "--axis-x=tbar", "--x-min=0.3", "--x-max=0.6", "--nx=3",
         "--axis-y=kappa", "--y-min=2.5", "--y-max=3", "--ny=3"],
        ["sweep", "--preset=fig9b"],
    ])
    def test_documents_match_oracle(self, argv, tmp_path, capsys):
        # every document a command writes (report, evolve summary and
        # manifest) is the writer's text of the values it parses to, with no
        # NaN or Infinity; a sweep's output and evolve's trajectory are CSV
        out = tmp_path / "out"
        assert run([*argv, f"--out={out}"]) == 0
        texts = [(tmp_path / "out.manifest.json").read_text()]
        if argv[0] == "evolve":
            texts.append(capsys.readouterr().out)
        elif argv[0] != "sweep":
            texts.append(out.read_text())
        for text in texts:
            assert text == dumps_fixed(json.loads(text, parse_constant=no_constants)) + "\n"
        if argv[0] != "steady":
            return
        # the report's floats are the pipeline's
        report = json.loads(texts[1])
        _, ss, c, transport = pipeline(sl.Cells.of([_build_objects(resolve_config(
            build_parser().parse_args(argv)))]))
        energy, local = state_entries_oracle(ss.vector6[0], ss.local_x[0])
        pairs = [(report["residual"], ss.residual[0]),
                 (report["min_eigenvalue"], ss.min_eigenvalue[0]),
                 *zip(np.ravel(report["state_energy_basis"]).tolist(), np.ravel(energy)),
                 *zip(np.ravel(report["state_local_basis"]).tolist(), np.ravel(local)),
                 *((report["transport"][k], v[0])
                   for k, v in zip(("current_a", "current_b", "sigma"), transport))]
        corr = report["correlations"]
        pairs += [(corr[k], getattr(c, k)[0])
                  for k in ("margin_ent", "margin_ab", "margin_ba", "margin_bell")]
        assert [(got, value) for got, value in pairs if not same_bits(got, value)] == []
        # the populations are the energy-basis ones, in another order
        assert (sorted(map(repr, corr["eigen_populations"]))
                == sorted(map(repr, ss.vector6[0, :4].real.tolist())))

    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"empty": {}, "list": [], "nested": {"deeper": {"x": []}}},
        [float("nan"), 1.0, float("inf"), -float("inf"), -0.0],
        [[1.0, float("nan")], [0.1, -0.0], [5e-324, 1.7976931348623157e308]],
        [[[0.5, 0.0], [0.0, float("nan")]], [[-0.0, 0.0], [0.25, -1e-300]]],
        [[[0.5, 0.0], [0.0, 0.0]], [[-0.0, 0.0], [float("-inf"), 0.0]]],
        [[[1.0]], [], [[]], [[2.0, 3.0], []]],
        [np.float64(0.1), np.float32(0.1), np.int64(-3), np.bool_(True), np.bool_(False),
         np.float64("nan"), np.float64("-inf"), np.float64(-0.0), np.int32(7)],
        {"b": True, "f": False, "n": None, "s": "text \"q\"", "i": 10 ** 20, "neg": -7},
        {"k\u00e9y \u2192 \U0001d53c": "v\u00e4l\u00fce \u03c1", "\n\t": ["\x00"]},
        (1.0, 2.0, (3.0, [4.0, True])),
        [1.0, 2, 3.0],
        [True, 1.0],
        [[1.0, 2.0], [3.0, np.float64(4.0)]],
        {"m": [[[0.25, -0.0], [1e-300, 3.0]], [[np.float64(2.0), 1.0]]],
         1: np.float64("-inf"), "x": np.array(0.5)[()]},
    ])
    def test_values_match_oracle(self, doc):
        assert_round_trip(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=FIXED_DOCS)
    def test_drawn_documents_match_oracle(self, doc):
        assert_round_trip(doc)

    def test_non_finite_values_are_strings(self, capsys):
        # T = 1e308 overflows the high-temperature closed form
        assert run(["thresholds-table", "--ta=1e308", "--tb=1e308"]) == 0
        text = capsys.readouterr().out
        assert '"kappa_high_two_way": "inf"' in text
        assert json.loads(text, parse_constant=no_constants)["kappa_high_two_way"] == "inf"

    def test_leaked_nan_is_internal(self, monkeypatch, capsys):
        # a nan that reaches the writer exits 4 and writes no JSON
        def leaky(v, x):
            energy, local = state_entries(v, x)
            energy[0][0][0] = math.nan
            return energy, local
        state_entries = _state_entries
        monkeypatch.setattr("steerlab.cli._state_entries", leaky)
        assert run(["steady"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ") and captured.err.count("\n") == 1


def flag_values(kind) -> st.SearchStrategy:
    """Flag texts for a config key's kind, valid ones and near misses."""
    numbers = st.floats().map(repr) | st.integers().map(str)
    if isinstance(kind, tuple):
        return st.sampled_from(kind) | st.just("nosuch")
    if kind in (NUMBER, RANGE):
        return numbers | st.just("x")
    if kind == COUNT:
        return st.integers(-3, 200).map(str) | st.just("2.0")
    return st.text("abc./", min_size=1, max_size=4)


@st.composite
def mode_argv(draw):
    """A mode and a set of its flags, as --flag=value or --flag value."""
    mode = draw(st.sampled_from(MODES))
    keys = [("--config", STRING), ("--preset", STRING)] + [
        (flag, k.kind) for k in _MODE_FLAGS[mode]
        for flag in (k.flag if k.kind == RANGE else (k.flag,))]
    argv = [mode]
    for flag, kind in draw(st.lists(st.sampled_from(keys), unique=True, max_size=8)):
        value = draw(flag_values(kind))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestParserDispatch:
    @settings(max_examples=100, deadline=None)
    @given(argv=mode_argv())
    def test_mode_parser_matches_full_parser(self, argv):
        # main's Namespace, taken at resolve_config, against the full parser's
        seen = []

        def capture(args):
            seen.append(args)
            raise ConfigurationError("stop")
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()):
            mp.setattr("steerlab.cli.resolve_config", capture)
            try:
                want = build_parser().parse_args(argv)
            except SystemExit as exc:
                with pytest.raises(SystemExit) as got:
                    main(argv)
                assert got.value.code == exc.code
                return
            assert main(argv) == 2
        # reprs, so that a nan value compares equal to itself
        assert repr(seen) == repr([want])

    @pytest.mark.parametrize("argv, code", [
        ([], 2), (["nosuch"], 2), (["-h"], 0), (["steady", "-h"], 0),
        (["--preset=fig2", "steady"], 2),
    ])
    def test_exit_codes(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code

    def test_unknown_flag_names_flag_and_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["steady", "--bogus=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: steerlab steady ") and "--bogus" in err

    def test_parser_built_once_per_main(self, monkeypatch, capsys):
        calls = []
        build = build_parser

        def counting():
            calls.append(1)
            return build()
        monkeypatch.setattr("steerlab.cli.build_parser", counting)
        assert main(["thresholds-table"]) == 0
        with pytest.raises(SystemExit):
            main(["nosuch"])
        assert len(calls) == 2


# numeric values the fuzz test draws for every flag, including the invalid ones
FUZZ_VALUES = st.sampled_from([0.0, -1.0, 0.01, 0.5, 1.0, 2.0, 3.0, 1e300,
                               float("nan"), float("inf"), float("-inf")])


@st.composite
def cli_argv(draw):
    """An argv for one subcommand with every numeric flag drawn."""
    mode = draw(st.sampled_from(["steady", "sweep", "threshold", "evolve",
                                 "thresholds-table"]))
    argv = [mode, f"--stat={draw(st.sampled_from(['bose', 'fermi']))}"]
    values = {flag: draw(FUZZ_VALUES)
              for flag in ("eps-a", "eps-b", "kappa", "gamma", "ta", "mua", "mub")}
    # equal temperatures half of the time, so that the closed forms are reached
    values["tb"] = draw(st.one_of(st.just(values["ta"]), FUZZ_VALUES))
    argv += [f"--{flag}={value!r}" for flag, value in values.items()]
    if mode == "sweep":
        argv += [f"--axis-x={draw(st.sampled_from(['tbar', 'kappa', 'delta_t']))}",
                 f"--axis-y={draw(st.sampled_from(['ta', 'kappa', 'mubar']))}",
                 f"--nx={draw(st.integers(-1, 3))}", f"--ny={draw(st.integers(-1, 3))}"]
        for flag in ("x-min", "x-max", "y-min", "y-max"):
            argv.append(f"--{flag}={draw(FUZZ_VALUES)!r}")
    elif mode == "threshold":
        argv += [f"--criterion={draw(st.sampled_from(['two-way', 'entanglement', 'bell']))}",
                 f"--bracket-lo={draw(FUZZ_VALUES)!r}", f"--bracket-hi={draw(FUZZ_VALUES)!r}"]
    elif mode == "evolve":
        # at most 200 steps: t_final from {0.5, 2}, dt from {0.01, 0.05, ...}
        argv += [f"--t-final={draw(st.sampled_from([0.0, -1.0, 0.5, 2.0, float('nan'), float('inf')]))!r}",
                 f"--dt={draw(st.sampled_from([0.0, -1.0, 0.01, 0.05, float('nan'), float('inf')]))!r}"]
    return argv


class TestMainFuzz:
    @settings(max_examples=150, deadline=None)
    @given(argv=cli_argv())
    # bar_eps**2 in the closed-form table overflowed a Python float
    @example(argv=["thresholds-table", "--eps-a=1e300", "--eps-b=1.0"])
    def test_main_returns_an_exit_code(self, argv, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz") / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + [f"--out={out}"])
        assert code in (0, 2, 3, 4)


# JSON leaves for the config fuzz: every JSON type, and the statistics names
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.sampled_from(["bose", "fermi"]))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=6)
# the keys of each section of the config, and the top-level keys with none
SECTION_KEYS = {name: list(SECTIONS.get(name, []))
                for name in [*SECTIONS[""], *SECTIONS] if name}
# values of each kind of config key, and near misses of it: bools, integral
# floats, counts below 2, pairs of the wrong length and ragged matrices
NUMBERS = st.floats() | st.integers()
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
VALID = {
    NUMBER: NUMBERS,
    COUNT: st.integers(2, 5),
    RANGE: PAIRS,
    MATRIX: st.lists(st.lists(NUMBERS | PAIRS, min_size=4, max_size=4), min_size=4, max_size=4),
}
NEAR_MISSES = {
    NUMBER: st.booleans() | st.text(max_size=2),
    COUNT: st.integers(max_value=1) | st.integers(2, 5).map(float) | st.booleans(),
    RANGE: st.lists(NUMBERS | st.booleans(), max_size=3),
    MATRIX: st.lists(st.lists(NUMBERS | st.lists(NUMBERS | st.booleans(), max_size=3),
                              min_size=3, max_size=5), min_size=3, max_size=5),
}


def key_values(section, name):
    """Values for a config key: seven in eight of its kind, the rest near
    misses or any JSON value."""
    kind = SECTIONS[section][name].kind
    valid = st.sampled_from(kind) if isinstance(kind, tuple) else VALID[kind]
    invalid = NEAR_MISSES.get(kind, st.nothing()) | JSON_VALUES
    return st.integers(0, 7).flatmap(lambda i: valid if i else invalid)


@st.composite
def config_document(draw):
    """Any JSON value, or an object over up to two of the config's sections
    whose values are arbitrary or, more often, objects over all or some of
    the section's keys, with values from key_values."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON_VALUES)
    doc = {}
    for name in draw(st.lists(st.sampled_from(list(SECTION_KEYS)), unique=True, max_size=2)):
        keys = SECTION_KEYS[name]
        if not keys or draw(st.integers(0, 3)) == 0:
            doc[name] = draw(JSON_VALUES)
            continue
        if draw(st.integers(0, 3)) == 0:
            keys = draw(st.lists(st.sampled_from(keys), unique=True))
        doc[name] = {key: draw(key_values(name, key)) for key in keys}
    return doc


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(is_number, v))


def assert_well_typed(cfg: dict) -> None:
    """An accepted config has the shape the commands read, checked here apart
    from the table that the checker walks."""
    mode = cfg["mode"]
    assert set(cfg) <= {"mode", "out", "system", "reservoirs", "sweep", "threshold", "evolve"}
    assert mode in cfg or mode in ("steady", "thresholds-table")
    assert isinstance(cfg.get("out", ""), str)
    system, res = cfg["system"], cfg["reservoirs"]
    assert sorted(system) == ["eps_a", "eps_b", "gamma", "kappa"]
    assert all(map(is_number, system.values()))
    assert res["statistics"] in [s.value for s in Statistics]
    assert {"ta", "tb"} <= set(res) <= {"statistics", "ta", "tb", "mua", "mub"}
    assert all(is_number(v) for k, v in res.items() if k != "statistics")
    if "sweep" in cfg:
        sw = cfg["sweep"]
        assert sorted(sw) == ["axis_x", "axis_y", "nx", "ny", "x_range", "y_range"]
        axes = [a.value for a in Axis]
        assert sw["axis_x"] in axes and sw["axis_y"] in axes
        assert type(sw["nx"]) is int and type(sw["ny"]) is int
        assert sw["nx"] >= 2 and sw["ny"] >= 2
        assert is_pair(sw["x_range"]) and is_pair(sw["y_range"])
    if "threshold" in cfg:
        th = cfg["threshold"]
        assert sorted(th) == ["bracket", "criterion"]
        assert th["criterion"] in [c.value for c in Criterion] and is_pair(th["bracket"])
    if "evolve" in cfg:
        ev = cfg["evolve"]
        assert {"initial", "t_final", "dt"} <= set(ev) <= {"initial", "t_final", "dt", "basis",
                                                           "matrix"}
        assert ev["initial"] in ("ground-local", "maximally-mixed", "custom")
        assert is_number(ev["t_final"]) and is_number(ev["dt"])
        assert ev.get("basis", "local") in ("local", "energy")
        matrix = ev.get("matrix", [[0] * 4] * 4)
        assert isinstance(matrix, list) and len(matrix) == 4
        for row in matrix:
            assert isinstance(row, list) and len(row) == 4
            assert all(is_number(v) or is_pair(v) for v in row)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(["steady", "thresholds-table"]), doc=config_document())
    def test_main_returns_an_exit_code(self, mode, doc, tmp_path_factory):
        folder = tmp_path_factory.mktemp("fuzz")
        (folder / "c.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([mode, f"--config={folder / 'c.json'}", f"--out={folder / 'out'}"])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["sweep", "threshold", "evolve"]), doc=config_document())
    def test_accepted_configs_are_well_typed(self, mode, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "checked.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = resolve_config(build_parser().parse_args([mode, f"--config={path}"]))
        except ConfigurationError:
            return
        assert_well_typed(cfg)
