"""Self-tests of the benchmark: the gate, the input generators and the tracer.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import gate
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from steerlab import cli  # noqa: E402

REF = gate.Reference(run.REFERENCE)


def _grid_outputs(ref: dict) -> tuple[str, str]:
    """CSV and manifest text as `sweep` writes them, from reference values."""
    lines = [",".join(gate.GRID_COLUMNS)]
    for flags, values in zip(ref["flags"], ref["values"]):
        e, ab, ba, bell, pos = (str(int(f)) for f in flags)
        v = ["%.17g" % x for x in values]
        lines.append(",".join(["0", "0", e, ab, ba, bell, *v[:4], v[4], v[5], pos]))
    text = "\n".join(lines) + "\n"
    manifest = json.dumps({"masked_cells": 0, "outputs": {"g.csv": f"sha256:{gate.sha256(text)}"}})
    return text, manifest


def _point_report(flags, method, values) -> dict:
    v = [float(x) for x in values]
    return {
        "residual": 1e-17, "min_eigenvalue": v[7], "positivity_ok": bool(flags[4]),
        "correlations": {
            "entangled": bool(flags[0]), "steer_a_to_b": bool(flags[1]),
            "steer_b_to_a": bool(flags[2]), "bell": bool(flags[3]),
            "margin_ent": v[0], "margin_ab": v[1], "margin_ba": v[2], "margin_bell": v[3],
            "method": method, "eigen_populations": v[8:12],
        },
        "transport": {"current_a": v[4], "current_b": v[5], "sigma": v[6]},
    }


@pytest.fixture(scope="module")
def grid_ref():
    return REF.grid("fig8b")


def test_gate_accepts_reference_grid(grid_ref):
    assert gate.check_grid(*_grid_outputs(grid_ref), grid_ref) == []


def test_gate_counts_flipped_flag(grid_ref):
    flipped = dict(grid_ref, flags=grid_ref["flags"].copy())
    flipped["flags"][5000, 0] ^= 1
    bad = gate.check_grid(*_grid_outputs(flipped), grid_ref)
    assert any("flag columns differ" in b for b in bad)


@pytest.mark.parametrize("delta, fails", [(1e-9, True), (-1e-9, True), (1e-13, False)])
def test_gate_margin_tolerance(grid_ref, delta, fails):
    moved = dict(grid_ref, values=grid_ref["values"].copy())
    moved["values"][123, gate.GRID_VALUES.index("margin_ab")] += delta
    bad = gate.check_grid(*_grid_outputs(moved), grid_ref)
    assert bool(bad) is fails


def test_gate_point_reference():
    flags, method, values = REF.point(0)
    assert gate.check_point(0, json.dumps(_point_report(flags, method, values)), REF.point(0)) == []
    flipped = list(flags)
    flipped[0] = not flipped[0]
    assert gate.check_point(0, json.dumps(_point_report(flipped, method, values)), REF.point(0))
    moved = values.copy()
    moved[gate.POINT_VALUES.index("margin_ba")] += 1e-9
    assert gate.check_point(0, json.dumps(_point_report(flags, method, moved)), REF.point(0))
    assert gate.check_point(3, "", REF.point(0)) == ["exit code 3"]


def test_gate_threshold_root_tolerance():
    op = next(workloads.threshold_stream(REF.seed))
    found, (root, analytic) = REF.threshold(0)

    def report(r):
        return json.dumps({"found": found, "kappa_threshold": r, "bracket": [r - 1e-11, r + 1e-11],
                           "analytic": {op.meta["analytic_key"]: analytic}})

    assert gate.check_threshold(0, report(root), op.meta, REF.threshold(0)) == []
    assert gate.check_threshold(0, report(root + 1e-11), op.meta, REF.threshold(0)) == []
    assert gate.check_threshold(0, report(root + 1e-9), op.meta, REF.threshold(0))


def test_runner_counts_a_perturbed_output_as_failed(monkeypatch):
    runner = run.Runner("point", REF.seed, cli, REF, run.OUT)
    op = next(runner._stream())
    assert runner.run_op(op)[0]
    real = cli.main

    def perturbed(argv):
        rc, text, _, _ = run.call_main(types.SimpleNamespace(main=real), argv)
        report = json.loads(text)
        report["correlations"]["margin_ab"] += 1e-9
        sys.stdout.write(json.dumps(report))
        return rc

    monkeypatch.setattr(cli, "main", perturbed)
    assert not runner.run_op(op)[0]
    assert "margin_ab" in runner.failures[-1]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_point_stream_covers_every_setup_and_preset(seed):
    presets = workloads.load_presets(run.SRC)
    ops = list(itertools.islice(workloads.point_stream(seed, presets), len(presets)))
    assert {op.meta["preset"] for op in ops} == set(presets)
    assert {op.meta["setup"] for op in ops} == set(workloads.SETUPS)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_threshold_stream_covers_every_criterion_and_setup(seed):
    ops = list(itertools.islice(workloads.threshold_stream(seed), len(workloads.REGIMES)))
    assert {op.meta["criterion"] for op in ops} == set(workloads.CRITERIA)
    assert {op.meta["setup"] for op in ops} == set(workloads.SETUPS)


def test_streams_are_seeded():
    def head(seed):
        return [op.argv for op in itertools.islice(workloads.threshold_stream(seed), 20)]
    assert head(4) == head(4) and head(4) != head(5)


def test_reference_inputs_match_the_generators():
    n = REF.count("point")
    ops = itertools.islice(workloads.point_stream(REF.seed, workloads.load_presets(run.SRC)), n)
    assert gate.argv_digest(list(ops)) == REF.argv_digest("point")
    ops = itertools.islice(workloads.threshold_stream(REF.seed), REF.count("threshold"))
    assert gate.argv_digest(list(ops)) == REF.argv_digest("threshold")


def test_traced_outputs_are_bit_identical(tmp_path):
    presets = workloads.load_presets(run.SRC)
    ops = list(itertools.islice(workloads.point_stream(3, presets), 6))
    ops += list(itertools.islice(workloads.threshold_stream(3), 3))
    out = tmp_path / "small.csv"
    sweep = ("sweep", "--stat=fermi", "--eps-a=1.5", "--eps-b=0.5", "--kappa=0.6",
             "--ta=0.15", "--tb=0.15", "--mua=1", "--mub=1",
             "--axis-x=mubar", "--x-min=0", "--x-max=2", "--nx=4",
             "--axis-y=delta_mu", "--y-min=-3.5", "--y-max=3.5", "--ny=4", f"--out={out}")

    def outputs():
        texts = [run.call_main(cli, op.argv)[1] for op in ops]
        assert run.call_main(cli, sweep)[0] == 0
        return texts + [out.read_text()]

    plain = outputs()
    tracer = spans.Tracer()
    originals = cli.build_parser, cli.sweep2d
    with spans.installed(tracer):
        with tracer.span("bench.request"):
            traced = outputs()
    assert traced == plain
    assert (cli.build_parser, cli.sweep2d) == originals
    names = set(tracer.names)
    assert {"cli.build_parser", "cli.output", "analysis.sweep2d", "analysis.threshold_kappa",
            "correlations.classify", "model.derive_params", "steady.steady_state"} <= names
    assert tracer.counts["correlations.classify.dual"] and tracer.counts["correlations.classify.single"]
    dur, self_t = tracer.self_times()
    roots = dur[np.frombuffer(tracer.parent, dtype=np.int64) < 0].sum()
    assert self_t.sum() == pytest.approx(roots, rel=1e-9)
    assert (self_t >= -1e-9).all()


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "point",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
