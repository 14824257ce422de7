"""Command-line front end: single-point reports, sweeps, thresholds, dynamics.

Configs are JSON (schema-validated before any computation); grids and
trajectories are CSV.  Every file output is written via write-then-rename and
accompanied by a manifest carrying the resolved config echo, version, timing,
masked-cell count and output checksums.  Floats are rendered with %.17g so
identical configs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .analysis import (
    Axis,
    Criterion,
    SweepConfig,
    analytic_thresholds,
    run_point,
    sweep2d,
    threshold_kappa,
)
from .errors import ConfigurationError, DegenerateSteadyStateError, InternalConsistencyError
from .generator import build_generator
from .model import STATE_POSITIONS, Basis, DensityMatrix4, SystemParams
from .rates import Cells, ReservoirSpec, Statistics
from .steady import evolve, steady_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_INTERNAL = 4

_NUMBER = {"type": "number"}
_RANGE = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
# four rows of four entries, each a number or a [re, im] pair
_ROW = {"type": "array", "items": {"anyOf": [_NUMBER, _RANGE]}, "minItems": 4, "maxItems": 4}
_MATRIX = {"type": "array", "items": _ROW, "minItems": 4, "maxItems": 4}
_AXES = [a.value for a in Axis]

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "system", "reservoirs"],
    "properties": {
        "mode": {"enum": ["steady", "sweep", "threshold", "evolve", "thresholds-table"]},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eps_a", "eps_b", "kappa", "gamma"],
            "properties": {
                "eps_a": _NUMBER, "eps_b": _NUMBER, "kappa": _NUMBER,
                "gamma": _NUMBER,
            },
        },
        "reservoirs": {
            "type": "object",
            "additionalProperties": False,
            "required": ["statistics", "ta", "tb"],
            "properties": {
                "statistics": {"enum": ["bose", "fermi"]},
                "ta": _NUMBER, "tb": _NUMBER, "mua": _NUMBER, "mub": _NUMBER,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axis_x", "x_range", "nx", "axis_y", "y_range", "ny"],
            "properties": {
                "axis_x": {"enum": _AXES}, "x_range": _RANGE,
                "nx": {"type": "integer", "minimum": 2},
                "axis_y": {"enum": _AXES}, "y_range": _RANGE,
                "ny": {"type": "integer", "minimum": 2},
            },
        },
        "threshold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["criterion", "bracket"],
            "properties": {
                "criterion": {"enum": [c.value for c in Criterion]},
                "bracket": _RANGE,
            },
        },
        "evolve": {
            "type": "object",
            "additionalProperties": False,
            "required": ["initial", "t_final", "dt"],
            "properties": {
                "initial": {"enum": ["ground-local", "maximally-mixed", "custom"]},
                "matrix": _MATRIX,
                "basis": {"enum": ["local", "energy"]},
                "t_final": _NUMBER, "dt": _NUMBER,
            },
        },
        "out": {"type": "string"},
    },
}

CSV_COLUMNS = [
    "x", "y", "entangled", "steer_ab", "steer_ba", "bell",
    "margin_ent", "margin_ab", "margin_ba", "margin_bell",
    "current_b", "sigma", "positivity_ok",
]
# one grid cell: %.17g floats, 0/1 flags
CSV_ROW = "%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def fmt(v: float) -> str:
    return "%.17g" % v


def dumps_fixed(obj, indent: int = 0) -> str:
    """JSON text with %.17g floats, for byte-reproducible outputs."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * indent
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: {dumps_fixed(v, indent + 2)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        # a flat list of finite Python floats is one join; "n" marks nan or inf
        if all(type(v) is float for v in obj):
            items = ", ".join(["%.17g" % v for v in obj])
            if "n" not in items:
                return "[" + items + "]"
        return "[" + ", ".join([dumps_fixed(v, indent) for v in obj]) + "]"
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt(obj) if math.isfinite(obj) else json.dumps(str(obj))
    return json.dumps(obj)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse makes a help
    formatter for every argument, which costs milliseconds per build."""
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="Steady states of two dissipatively coupled qubits: "
                    "correlations, transport, and phase diagrams.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("steady", "sweep", "threshold", "evolve", "thresholds-table"):
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="JSON config file (overrides flags)")
        sp.add_argument("--preset", help="named preset shipped with the package, e.g. fig8a")
        sp.add_argument("--out", help="output file path")
        sp.add_argument("--eps-a", type=float, default=1.0)
        sp.add_argument("--eps-b", type=float, default=1.0)
        sp.add_argument("--kappa", type=float, default=3.0)
        sp.add_argument("--gamma", type=float, default=0.01)
        sp.add_argument("--stat", choices=["bose", "fermi"], default="bose")
        sp.add_argument("--ta", type=float, default=0.5)
        sp.add_argument("--tb", type=float, default=0.5)
        sp.add_argument("--mua", type=float, default=0.0)
        sp.add_argument("--mub", type=float, default=0.0)
        if mode == "sweep":
            sp.add_argument("--axis-x", choices=_AXES)
            sp.add_argument("--x-min", type=float)
            sp.add_argument("--x-max", type=float)
            sp.add_argument("--nx", type=int, default=101)
            sp.add_argument("--axis-y", choices=_AXES)
            sp.add_argument("--y-min", type=float)
            sp.add_argument("--y-max", type=float)
            sp.add_argument("--ny", type=int, default=101)
        if mode == "threshold":
            sp.add_argument("--criterion", choices=[c.value for c in Criterion])
            sp.add_argument("--bracket-lo", type=float)
            sp.add_argument("--bracket-hi", type=float)
        if mode == "evolve":
            sp.add_argument("--initial",
                            choices=["ground-local", "maximally-mixed", "custom"],
                            default="ground-local")
            sp.add_argument("--initial-matrix", help="JSON file with a 4x4 matrix")
            sp.add_argument("--initial-basis", choices=["local", "energy"],
                            default="local")
            sp.add_argument("--t-final", type=float)
            sp.add_argument("--dt", type=float)
    return parser


def _flags_to_config(args: argparse.Namespace) -> dict:
    cfg: dict = {
        "mode": args.mode,
        "system": {
            "eps_a": args.eps_a, "eps_b": args.eps_b,
            "kappa": args.kappa, "gamma": args.gamma,
        },
        "reservoirs": {
            "statistics": args.stat, "ta": args.ta, "tb": args.tb,
            "mua": args.mua, "mub": args.mub,
        },
    }
    if args.out:
        cfg["out"] = args.out
    if args.mode == "sweep" and args.axis_x and args.axis_y:
        cfg["sweep"] = {
            "axis_x": args.axis_x, "x_range": [args.x_min, args.x_max], "nx": args.nx,
            "axis_y": args.axis_y, "y_range": [args.y_min, args.y_max], "ny": args.ny,
        }
    if args.mode == "threshold" and args.criterion:
        cfg["threshold"] = {
            "criterion": args.criterion,
            "bracket": [args.bracket_lo, args.bracket_hi],
        }
    if args.mode == "evolve" and args.t_final is not None and args.dt is not None:
        ev = {"initial": args.initial, "t_final": args.t_final, "dt": args.dt,
              "basis": args.initial_basis}
        if args.initial_matrix:
            with open(args.initial_matrix) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or "matrix" not in doc:
                raise ConfigurationError(
                    f"{args.initial_matrix}: expected a JSON object with a 'matrix' key")
            ev["matrix"] = doc["matrix"]
        cfg["evolve"] = ev
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge flag-level config with a config file or preset (file wins)."""
    cfg = _flags_to_config(args)
    if args.config and args.preset:
        raise ConfigurationError("--config and --preset are mutually exclusive")
    overlay = None
    if args.config:
        with open(args.config) as fh:
            overlay = json.load(fh)
    elif args.preset:
        ref = resources.files("steerlab.presets").joinpath(args.preset + ".json")
        if not ref.is_file():
            raise ConfigurationError(f"unknown preset {args.preset!r}")
        overlay = json.loads(ref.read_text())
    if overlay:
        for key, val in overlay.items():
            if isinstance(val, dict):
                cfg.setdefault(key, {}).update(val)
            else:
                cfg[key] = val
    cfg["mode"] = args.mode
    # flags that must win over presets when given explicitly
    if args.out:
        cfg["out"] = args.out
    from jsonschema import Draft202012Validator  # deferred: slow to import
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg),
                    key=lambda e: e.json_path)
    if errors:
        raise ConfigurationError(
            "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        )
    section = {"sweep": "sweep", "threshold": "threshold", "evolve": "evolve"}
    needed = section.get(cfg["mode"])
    if needed and needed not in cfg:
        raise ConfigurationError(
            f"mode {cfg['mode']!r} needs a {needed!r} section "
            "(from flags or the config file)"
        )
    return cfg


def _build_objects(cfg: dict) -> tuple[SystemParams, ReservoirSpec, ReservoirSpec]:
    s = cfg["system"]
    system = SystemParams(
        eps_a=s["eps_a"], eps_b=s["eps_b"], kappa=s["kappa"], gamma=s["gamma"],
    )
    r = cfg["reservoirs"]
    stat = Statistics(r["statistics"])
    mua = r.get("mua", 0.0) if stat is Statistics.FERMI else 0.0
    mub = r.get("mub", 0.0) if stat is Statistics.FERMI else 0.0
    return system, ReservoirSpec(stat, r["ta"], mua), ReservoirSpec(stat, r["tb"], mub)


def _density_entries(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _atomic_write(path: str, text: str) -> str:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(cfg: dict, text: str, started: float, masked: int = 0,
          default_out: str | None = None, diagnostics: dict | None = None) -> str | None:
    """Write text to the configured output and its manifest, or print it.

    diagnostics, if given, goes into the manifest after the outputs.
    Returns the path written, or None when the text went to stdout.
    """
    out = cfg.get("out") or default_out
    if not out:
        sys.stdout.write(text)
        return None
    digest = _atomic_write(out, text)
    manifest = {
        "config": cfg,
        "version": __version__,
        "timing_seconds": time.time() - started,
        "masked_cells": masked,
        "outputs": {out: f"sha256:{digest}"},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    _atomic_write(out + ".manifest.json", dumps_fixed(manifest) + "\n")
    return out


def _analytic(system: SystemParams, ra: ReservoirSpec,
              rb: ReservoirSpec) -> dict[str, float] | None:
    """Closed-form thresholds, defined for equal reservoir temperatures only (else None)."""
    if ra.temperature != rb.temperature:
        return None
    return analytic_thresholds(
        bar_eps=0.5 * (system.eps_a + system.eps_b),
        temperature=ra.temperature,
        delta_eps=system.eps_a - system.eps_b,
        statistics=ra.statistics,
        mu_bar=0.5 * (ra.mu + rb.mu),
    )


def cmd_steady(cfg: dict) -> int:
    started = time.time()
    g, st, c, (current_a, current_b, sigma) = run_point(*_build_objects(cfg))
    positive = bool(st.positive[0])
    # positions of |00>, |11>, psi-, psi+ among the energy-basis populations
    eigen_order = STATE_POSITIONS[int(g.cells.strong[0])][[0, 3, 1, 2]]
    correlations = None if c.fault[0] >= 0 else {
        "entangled": c.entangled[0], "margin_ent": c.margin_ent[0],
        "steer_a_to_b": c.steer_a_to_b[0], "margin_ab": c.margin_ab[0],
        "steer_b_to_a": c.steer_b_to_a[0], "margin_ba": c.margin_ba[0],
        "bell": c.bell[0], "margin_bell": c.margin_bell[0],
        "method": c.method.value,
        "eigen_populations": st.vector6[0, eigen_order].real.tolist(),
    }
    bose = g.cells.statistics is Statistics.BOSE
    report = {
        "state_energy_basis": _density_entries(st.energy[0]),
        "state_local_basis": _density_entries(st.local[0]),
        "residual": st.residual[0],
        "min_eigenvalue": st.min_eigenvalue[0],
        "positivity_ok": positive,
        "correlations": correlations,
        "transport": {
            "current_a": current_a[0], "current_b": current_b[0], "sigma": sigma[0],
            "observable": "energy" if bose else "particle-number",
        },
    }
    _emit(cfg, dumps_fixed(report) + "\n", started, masked=0 if positive else 1)
    return EXIT_OK if positive else EXIT_POSITIVITY


def cmd_sweep(cfg: dict) -> int:
    started = time.time()
    system, ra, rb = _build_objects(cfg)
    sw = cfg["sweep"]
    sweep_cfg = SweepConfig(
        axis_x=Axis(sw["axis_x"]), x_range=tuple(sw["x_range"]), nx=sw["nx"],
        axis_y=Axis(sw["axis_y"]), y_range=tuple(sw["y_range"]), ny=sw["ny"],
        system=system, statistics=ra.statistics,
        t_a=ra.temperature, t_b=rb.temperature, mu_a=ra.mu, mu_b=rb.mu,
    )
    region = sweep2d(sweep_cfg)
    rows = zip(*(col.tolist() for col in region.columns.values()))
    text = "".join([",".join(CSV_COLUMNS) + "\n"] + [CSV_ROW % row for row in rows])
    masked = region.masked_count()
    out = _emit(cfg, text, started, masked, default_out="sweep.csv",
                diagnostics=region.diagnostics)
    print(f"wrote {out}: {sweep_cfg.nx}x{sweep_cfg.ny} cells, {masked} masked")
    return EXIT_OK


def cmd_threshold(cfg: dict) -> int:
    started = time.time()
    system, ra, rb = _build_objects(cfg)
    th = cfg["threshold"]
    criterion = Criterion(th["criterion"])
    result = threshold_kappa(system, ra, rb, criterion, tuple(th["bracket"]))
    analytic = _analytic(system, ra, rb)
    report = {
        "criterion": criterion.value,
        "found": result.found,
        "kappa_threshold": result.kappa_threshold,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "margin_at_root": result.margin_at_root,
        "analytic": analytic,
    }
    if result.found and analytic is not None:
        report["relative_deviation"] = {
            key: (result.kappa_threshold - val) / val if val != 0 else float("nan")
            for key, val in analytic.items()
        }
    _emit(cfg, dumps_fixed(report) + "\n", started)
    return EXIT_OK


def cmd_thresholds_table(cfg: dict) -> int:
    started = time.time()
    system, ra, rb = _build_objects(cfg)
    table = _analytic(system, ra, rb)
    if table is None:
        raise ConfigurationError(
            f"closed-form thresholds need equal temperatures, got T_A={ra.temperature}, "
            f"T_B={rb.temperature}")
    _emit(cfg, dumps_fixed(table) + "\n", started)
    return EXIT_OK


def _initial_state(cfg_ev: dict) -> DensityMatrix4:
    kind = cfg_ev["initial"]
    if kind == "ground-local":
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        return DensityMatrix4(entries=m, basis=Basis.LOCAL)
    if kind == "maximally-mixed":
        return DensityMatrix4(entries=np.eye(4, dtype=complex) / 4, basis=Basis.LOCAL)
    raw = cfg_ev.get("matrix")
    if raw is None:
        raise ConfigurationError("custom initial state requires a 'matrix' entry")
    m = np.array([[complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                   for v in row] for row in raw])
    return DensityMatrix4(entries=m, basis=Basis(cfg_ev.get("basis", "local")))


def cmd_evolve(cfg: dict) -> int:
    started = time.time()
    g = build_generator(Cells.of([_build_objects(cfg)]))
    ev = cfg["evolve"]
    rho0 = _initial_state(ev)
    traj = evolve(g, rho0, t_final=ev["t_final"], dt=ev["dt"])
    st = steady_state(g.total, g.vectors)
    final_gap = float(np.max(np.abs(traj.vectors[-1] - st.vector6[0])))
    lines = ["t,rho_gg,rho_e1e1,rho_e2e2,rho_e3e3,re_coh,im_coh"]
    for row in traj.csv_rows():
        lines.append(",".join(fmt(v) for v in row))
    _emit(cfg, "\n".join(lines) + "\n", started, default_out="trajectory.csv")
    summary = {
        "steps": len(traj.times) - 1,
        "trace_drift": traj.trace_drift(),
        "final_distance_to_steady": final_gap,
        "converged_1e8": final_gap < 1e-8,
    }
    sys.stdout.write(dumps_fixed(summary) + "\n")
    return EXIT_OK


_DISPATCH = {
    "steady": cmd_steady,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "evolve": cmd_evolve,
    "thresholds-table": cmd_thresholds_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _DISPATCH[args.mode](cfg)
    # defects of the computation, not of the input
    except (DegenerateSteadyStateError, InternalConsistencyError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
