"""Command-line front end: single-point reports, sweeps, thresholds, dynamics.

Configs are JSON (checked against CONFIG_KEYS before any computation); grids and
trajectories are CSV.  Every file output is written via write-then-rename and
accompanied by a manifest carrying the resolved config echo, version, timing,
masked-cell count and output checksums.  JSON text is json.dumps on one line,
floats as repr, and nan, inf and -inf as the strings "nan", "inf" and "-inf";
CSV floats are %.17g.  Identical configs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .analysis import (
    FIELDS,
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
from .model import STATE_POSITIONS, VEC6_ENTRIES, X_ENTRIES, Basis, DensityMatrix4, SystemParams
from .rates import Cells, ReservoirSpec, Statistics, check_inputs, scaled_energy
from .steady import evolve, steady_state

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSITIVITY = 3
EXIT_INTERNAL = 4

MODES = ("steady", "sweep", "threshold", "evolve", "thresholds-table")

# The kinds of config value, each named by what it accepts; a tuple of
# strings is a choice among them.  Types are strict: a bool is no number, and
# an integer is an int, never an integral float.
NUMBER = "a number"
COUNT = "an integer >= 2"
RANGE = "two numbers"
MATRIX = "four rows of four numbers or [re, im] pairs"
STRING = "a string"

Key = collections.namedtuple("Key", "section name kind required flag default", defaults=[None])
# Every config key, in the order the flags' config lists them.  Keys of
# section "" sit at the top level, and a section named after a mode is that
# mode's own: only it has the section's flags, and it needs the section.  A
# RANGE has two flags, for its low and its high end; a MATRIX flag names a
# JSON file whose "matrix" key holds it.
CONFIG_KEYS = (
    Key("", "mode", MODES, True, None),
    Key("system", "eps_a", NUMBER, True, "--eps-a", 1.0),
    Key("system", "eps_b", NUMBER, True, "--eps-b", 1.0),
    Key("system", "kappa", NUMBER, True, "--kappa", 3.0),
    Key("system", "gamma", NUMBER, True, "--gamma", 0.01),
    Key("reservoirs", "statistics", tuple(s.value for s in Statistics), True, "--stat", "bose"),
    Key("reservoirs", "ta", NUMBER, True, "--ta", 0.5),
    Key("reservoirs", "tb", NUMBER, True, "--tb", 0.5),
    Key("reservoirs", "mua", NUMBER, False, "--mua", 0.0),
    Key("reservoirs", "mub", NUMBER, False, "--mub", 0.0),
    Key("", "out", STRING, False, "--out"),
    Key("sweep", "axis_x", tuple(a.value for a in Axis), True, "--axis-x"),
    Key("sweep", "x_range", RANGE, True, ("--x-min", "--x-max")),
    Key("sweep", "nx", COUNT, True, "--nx", 101),
    Key("sweep", "axis_y", tuple(a.value for a in Axis), True, "--axis-y"),
    Key("sweep", "y_range", RANGE, True, ("--y-min", "--y-max")),
    Key("sweep", "ny", COUNT, True, "--ny", 101),
    Key("threshold", "criterion", tuple(c.value for c in Criterion), True, "--criterion"),
    Key("threshold", "bracket", RANGE, True, ("--bracket-lo", "--bracket-hi")),
    Key("evolve", "initial", ("ground-local", "maximally-mixed", "custom"), True, "--initial",
        "ground-local"),
    Key("evolve", "t_final", NUMBER, True, "--t-final"),
    Key("evolve", "dt", NUMBER, True, "--dt"),
    Key("evolve", "basis", tuple(b.value for b in Basis), False, "--initial-basis", "local"),
    Key("evolve", "matrix", MATRIX, False, "--initial-matrix"),
)
# the keys of each section, "" (the top level) first
SECTIONS = {section: {k.name: k for k in CONFIG_KEYS if k.section == section}
            for section in dict.fromkeys(k.section for k in CONFIG_KEYS)}
# the keys of the top level: its own and the sections
_TOP_KEYS = {*SECTIONS[""], *SECTIONS} - {""}
# the keys each mode has flags for
_MODE_FLAGS = {mode: [k for k in CONFIG_KEYS
                      if k.flag and (k.section == mode or k.section not in MODES)]
               for mode in MODES}

# one grid cell in the FIELDS columns: the x and y text, the four verdict
# flags' text, the six %.17g values and the positivity flag's text
CSV_ROW = "%s%s%s%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
# the text of the four verdict flags, "1,0,1,0," and so on, at 8 entangled +
# 4 steer_ab + 2 steer_ba + bell; of positivity_ok, at positivity_ok
FLAG_TEXT = tuple("%d,%d,%d,%d," % (k >> 3, k >> 2 & 1, k >> 1 & 1, k & 1) for k in range(16))
POSITIVITY_TEXT = ("0\n", "1\n")
# one trajectory step: t, the four populations, the e1-e2 coherence's re and im
TRAJECTORY_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def dumps_fixed(obj) -> str:
    """The JSON text of every report, summary and manifest, one format per
    version: json.dumps on one line, floats as repr.  JSON has no nan or inf,
    and _finite makes strings of the values that may be either; a nan or inf
    that leaks in anyway, or a value json cannot render (a numpy bool or
    integer), is a defect raised as InternalConsistencyError, and no invalid
    JSON is written."""
    try:
        return json.dumps(obj, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InternalConsistencyError(f"no JSON text for a value: {exc}") from None


def _finite(v: float) -> float | str:
    """v, or "nan", "inf" or "-inf" in its place."""
    return v if math.isfinite(v) else str(v)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: argparse makes a help
    formatter for every argument, which costs milliseconds per build.  Its
    `mode_parsers` maps each mode to that mode's own parser."""
    parser = argparse.ArgumentParser(
        prog="steerlab",
        description="Steady states of two dissipatively coupled qubits: "
                    "correlations, transport, and phase diagrams.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="JSON config file (overrides flags)")
        sp.add_argument("--preset", help="named preset shipped with the package, e.g. fig8a")
        for k in _MODE_FLAGS[mode]:
            choices = k.kind if isinstance(k.kind, tuple) else None
            convert = float if k.kind in (NUMBER, RANGE) else int if k.kind == COUNT else None
            for flag in k.flag if k.kind == RANGE else (k.flag,):
                sp.add_argument(flag, type=convert, choices=choices, default=k.default)
    parser.mode_parsers = sub.choices
    return parser


def _flag(args: argparse.Namespace, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _flags_to_config(args: argparse.Namespace) -> dict:
    """The config the flags give, in the order of CONFIG_KEYS.  The mode's
    own section is left out, for a config file to supply, unless the flags
    give each of its required keys that has neither a default nor two flags."""
    cfg: dict = {"mode": args.mode}
    keys = _MODE_FLAGS[args.mode]
    if any(k.section == args.mode and k.required and k.default is None and k.kind != RANGE
           and _flag(args, k.flag) is None for k in keys):
        keys = [k for k in keys if k.section != args.mode]
    for k in keys:
        value = ([_flag(args, f) for f in k.flag] if k.kind == RANGE
                 else _flag(args, k.flag))
        if value is None:
            continue
        if k.kind == MATRIX:
            with open(value) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or "matrix" not in doc:
                raise ConfigurationError(f"{value}: expected a JSON object with a 'matrix' key")
            value = doc["matrix"]
        (cfg.setdefault(k.section, {}) if k.section else cfg)[k.name] = value
    return cfg


def _is_kind(value, kind) -> bool:
    """Whether a JSON value is of a config kind."""
    if isinstance(kind, tuple):
        return value in kind
    if kind == NUMBER:
        return type(value) is float or type(value) is int
    if kind == COUNT:
        return type(value) is int and value >= 2
    if kind == RANGE:
        return type(value) is list and len(value) == 2 and all(
            _is_kind(v, NUMBER) for v in value)
    if kind == MATRIX:
        return type(value) is list and len(value) == 4 and all(
            type(row) is list and len(row) == 4
            and all(_is_kind(v, NUMBER) or _is_kind(v, RANGE) for v in row) for row in value)
    return type(value) is str


def check_config(cfg: dict) -> None:
    """Check a config against CONFIG_KEYS: raise one ConfigurationError that
    names every unknown key, missing key, value not of its key's kind, and a
    missing section of the mode."""
    errors = []
    for section, keys in SECTIONS.items():
        doc, path = cfg, "$"
        if section:
            if section not in cfg:
                if section == cfg["mode"] or section not in MODES:
                    errors.append(f"mode {cfg['mode']!r} needs a {section!r} section "
                                  "(from flags or the config file)")
                continue
            doc, path = cfg[section], f"$.{section}"
            if type(doc) is not dict:
                errors.append(f"{path}: expected an object, got {doc!r}")
                continue
        errors += [f"{path}.{name}: unknown key" for name in doc
                   if name not in (keys if section else _TOP_KEYS)]
        for name, k in keys.items():
            if name not in doc:
                if k.required:
                    errors.append(f"{path}.{name}: missing")
            elif not _is_kind(doc[name], k.kind):
                expected = k.kind if isinstance(k.kind, str) else "one of " + ", ".join(k.kind)
                errors.append(f"{path}.{name}: expected {expected}, got {doc[name]!r}")
    if errors:
        raise ConfigurationError("; ".join(errors))


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge flag-level config with a config file or preset (file wins), then
    check the result."""
    cfg = _flags_to_config(args)
    if args.config and args.preset:
        raise ConfigurationError("--config and --preset are mutually exclusive")
    overlay = {}
    if args.config:
        with open(args.config) as fh:
            overlay = json.load(fh)
        if not isinstance(overlay, dict):
            raise ConfigurationError(f"{args.config}: a config must be a JSON object")
    elif args.preset:
        # only the name of a shipped preset, never a path
        presets = {ref.name: ref for ref in resources.files("steerlab.presets").iterdir()}
        ref = presets.get(args.preset + ".json")
        if ref is None:
            raise ConfigurationError(f"unknown preset {args.preset!r}")
        overlay = json.loads(ref.read_text())
    for key, val in overlay.items():
        # a section merges into the flags' section; anything else replaces
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    cfg["mode"] = args.mode
    # flags that must win over presets when given explicitly
    if args.out:
        cfg["out"] = args.out
    check_config(cfg)
    return cfg


def _build_objects(cfg: dict) -> tuple[SystemParams, ReservoirSpec, ReservoirSpec]:
    """The request's point, unchecked: Cells.build checks the cells of it."""
    s, r = cfg["system"], cfg["reservoirs"]
    system = SystemParams(s["eps_a"], s["eps_b"], s["kappa"], s["gamma"])
    stat = Statistics(r["statistics"])
    return system, ReservoirSpec(stat, r["ta"], r["mua"]), ReservoirSpec(stat, r["tb"], r["mub"])


def _checked_objects(cfg: dict) -> tuple[SystemParams, ReservoirSpec, ReservoirSpec]:
    """The request's point for a command whose cells are not that point
    (sweep, threshold, thresholds-table): it meets the input rules of
    Cells.build (rates.check_inputs) even where no cell uses a value, such as
    the fixed value of a swept parameter or threshold's kappa."""
    system, ra, rb = _build_objects(cfg)
    check_inputs(np.array([*system, ra.temperature, rb.temperature, ra.mu, rb.mu], dtype=float),
                 ra.statistics)
    return system, ra, rb


def _state_layout() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where _state_entries puts the values of v and x: the slots of its
    (2, 4, 4, 2) buffer (the energy-basis state of v, then the local-basis
    state of x), and for each slot its sign and the index of its value among
    v's and then x's entries as re, im in sequence (x's from 12)."""
    slot = np.arange(64).reshape(2, 4, 4, 2)
    (vi, vj), (xi, xj) = VEC6_ENTRIES, X_ENTRIES
    slots = (slot[0, vi, vj].ravel(),           # v's entries
             slot[1, xi[:4], xj[:4], 0],        # x's populations, real
             slot[1, xi[4:], xj[4:]].ravel(),   # rho23 and rho14
             slot[1, xj[4:], xi[4:]].ravel())   # rho32 and rho41, their conjugates
    return (np.concatenate(slots), np.r_[0:12, 12:20:2, 20:24, 20:24],
            np.r_[np.ones(20), 1.0, -1.0, 1.0, -1.0])


_STATE_SLOTS, _STATE_SOURCES, _STATE_SIGNS = _state_layout()


def _state_entries(v: np.ndarray, x: np.ndarray) -> list:
    """The energy-basis state of the six entries v and the local-basis state
    of the X entries x (rho11, rho22, rho33, rho44, rho23, rho14), both
    contiguous complex (6,) rows, as two 4x4 lists of [re, im] pairs of
    Python floats."""
    m = np.zeros(64)
    m[_STATE_SLOTS] = (np.concatenate((v.view(float), x.view(float)))[_STATE_SOURCES]
                       * _STATE_SIGNS)
    # a -0.0 of the local state reads 0.0, as when it was summed as
    # rho + rho^H + diag(populations) in complex arithmetic
    m[32:] += 0.0
    return m.reshape(2, 4, 4, 2).tolist()


def csv_text(columns: dict[str, np.ndarray], nx: int) -> str:
    """The sweep CSV of a row-major grid's FIELDS columns, nx cells per row.

    Only the six values go through %.17g per cell: each x and y value is
    formatted once, and the flags are read from FLAG_TEXT and POSITIVITY_TEXT.
    One % formats every row, CSV_ROW repeated once per row over the rows'
    fields in sequence.
    """
    xs = ["%.17g," % v for v in columns["x"][:nx].tolist()]
    ys = ["%.17g," % v for v in columns["y"][::nx].tolist()]
    flags = (8 * columns["entangled"] + 4 * columns["steer_ab"] + 2 * columns["steer_ba"]
             + columns["bell"]).tolist()
    rows = zip(xs * len(ys), [y for y in ys for _ in xs], map(FLAG_TEXT.__getitem__, flags),
               *(columns[name].tolist() for name in FIELDS[6:12]),
               map(POSITIVITY_TEXT.__getitem__, columns["positivity_ok"].tolist()))
    return (",".join(FIELDS) + "\n"
            + CSV_ROW * len(flags) % tuple(itertools.chain.from_iterable(rows)))


def _atomic_write(path: str, text: str) -> str:
    """Write text to path by write-then-rename and return the sha256 of the
    bytes written; on failure no temporary file is left behind."""
    data = text.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _emit(cfg: dict, text: str, started: float, masked: int = 0,
          default_out: str | None = None, diagnostics: dict | None = None,
          stages: dict | None = None) -> str | None:
    """Write text to the configured output and its manifest, or print it.

    stages, if given, maps the stages run so far to their seconds; the
    manifest's stage_seconds adds "write", the seconds of writing the output.
    diagnostics, if given, goes into the manifest after the outputs.
    Returns the path written, or None when the text went to stdout.
    """
    out = cfg.get("out") or default_out
    if not out:
        sys.stdout.write(text)
        return None
    writing = time.perf_counter()
    digest = _atomic_write(out, text)
    done = time.perf_counter()
    manifest = {
        "config": cfg,
        "version": __version__,
        "timing_seconds": done - started,
    }
    if stages is not None:
        manifest["stage_seconds"] = {**stages, "write": done - writing}
    manifest["masked_cells"] = masked
    manifest["outputs"] = {out: f"sha256:{digest}"}
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
    started = time.perf_counter()
    g, st, c, (current_a, current_b, sigma) = run_point(*_build_objects(cfg))
    positive = bool(st.positive[0])
    # positions of |00>, |11>, psi-, psi+ among the energy-basis populations
    eigen_order = STATE_POSITIONS[int(g.cells.setup[0] == 2)][[0, 3, 1, 2]]
    correlations = None if c.fault[0] >= 0 else {
        "entangled": c.entangled[0].item(), "margin_ent": c.margin_ent[0].item(),
        "steer_a_to_b": c.steer_a_to_b[0].item(), "margin_ab": c.margin_ab[0].item(),
        "steer_b_to_a": c.steer_b_to_a[0].item(), "margin_ba": c.margin_ba[0].item(),
        "bell": c.bell[0].item(), "margin_bell": _finite(c.margin_bell[0].item()),
        "method": c.method.value,
        "eigen_populations": st.vector6[0, eigen_order].real.tolist(),
    }
    bose = g.cells.statistics is Statistics.BOSE
    energy_state, local_state = _state_entries(st.vector6[0], st.local_x[0])
    report = {
        "state_energy_basis": energy_state,
        "state_local_basis": local_state,
        "residual": st.residual[0].item(),
        "min_eigenvalue": st.min_eigenvalue[0].item(),
        "positivity_ok": positive,
        "correlations": correlations,
        "transport": {
            "current_a": current_a[0].item(), "current_b": current_b[0].item(),
            "sigma": sigma[0].item(),
            "observable": "energy" if bose else "particle-number",
        },
    }
    _emit(cfg, dumps_fixed(report) + "\n", started, masked=0 if positive else 1)
    return EXIT_OK if positive else EXIT_POSITIVITY


def cmd_sweep(cfg: dict) -> int:
    started = time.perf_counter()
    system, ra, rb = _checked_objects(cfg)
    sw = cfg["sweep"]
    sweep_cfg = SweepConfig(
        axis_x=Axis(sw["axis_x"]), x_range=tuple(sw["x_range"]), nx=sw["nx"],
        axis_y=Axis(sw["axis_y"]), y_range=tuple(sw["y_range"]), ny=sw["ny"],
        system=system, statistics=ra.statistics,
        t_a=ra.temperature, t_b=rb.temperature, mu_a=ra.mu, mu_b=rb.mu,
    )
    sweeping = time.perf_counter()
    region = sweep2d(sweep_cfg)
    rendering = time.perf_counter()
    text = csv_text(region.columns, sweep_cfg.nx)
    stages = {"sweep2d": rendering - sweeping, "render": time.perf_counter() - rendering}
    masked = region.masked_count()
    out = _emit(cfg, text, started, masked, default_out="sweep.csv",
                diagnostics=region.diagnostics, stages=stages)
    print(f"wrote {out}: {sweep_cfg.nx}x{sweep_cfg.ny} cells, {masked} masked")
    return EXIT_OK


def cmd_threshold(cfg: dict) -> int:
    started = time.perf_counter()
    system, ra, rb = _checked_objects(cfg)
    th = cfg["threshold"]
    criterion = Criterion(th["criterion"])
    result = threshold_kappa(system, ra, rb, criterion, tuple(th["bracket"]))
    analytic = _analytic(system, ra, rb)
    margin = result.margin_at_root
    report = {
        "criterion": criterion.value,
        "found": result.found,
        "kappa_threshold": result.kappa_threshold,
        "bracket": list(result.bracket),
        "iterations": result.iterations,
        "margin_at_root": None if margin is None else _finite(margin),
        "analytic": None if analytic is None else {k: _finite(v) for k, v in analytic.items()},
    }
    if result.found and analytic is not None:
        report["relative_deviation"] = {
            key: _finite((result.kappa_threshold - val) / val if val != 0 else math.nan)
            for key, val in analytic.items()
        }
    _emit(cfg, dumps_fixed(report) + "\n", started)
    return EXIT_OK


def cmd_thresholds_table(cfg: dict) -> int:
    started = time.perf_counter()
    system, ra, rb = _checked_objects(cfg)
    # the temperature rule of steady, at bar_eps: the closed forms hold bar_eps / T
    scaled_energy(np.array([ra.temperature, rb.temperature]), np.array([ra.mu, rb.mu]),
                  0.5 * (system.eps_a + system.eps_b))
    table = _analytic(system, ra, rb)
    if table is None:
        raise ConfigurationError(
            f"closed-form thresholds need equal temperatures, got T_A={ra.temperature}, "
            f"T_B={rb.temperature}")
    _emit(cfg, dumps_fixed({k: _finite(v) for k, v in table.items()}) + "\n", started)
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
    started = time.perf_counter()
    g = build_generator(Cells.of([_build_objects(cfg)]))
    ev = cfg["evolve"]
    rho0 = _initial_state(ev)
    times, vectors = evolve(g, rho0, t_final=ev["t_final"], dt=ev["dt"])
    st = steady_state(g)
    final_gap = float(np.max(np.abs(vectors[-1] - st.vector6[0])))
    rows = np.column_stack([times, vectors[:, :4].real, vectors[:, 4].real, vectors[:, 4].imag])
    text = "t,rho_gg,rho_e1e1,rho_e2e2,rho_e3e3,re_coh,im_coh\n" + "".join(
        [TRAJECTORY_ROW % tuple(row) for row in rows.tolist()])
    _emit(cfg, text, started, default_out="trajectory.csv")
    summary = {
        "steps": len(times) - 1,
        "trace_drift": float(np.max(np.abs(vectors[:, :4].real.sum(axis=1) - 1.0))),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # a request that names its mode first is parsed by that mode's parser
    # alone; the full parser would scan every option and pass them on to it
    mode_parser = parser.mode_parsers.get(argv[0]) if argv else None
    if mode_parser is None:
        args = parser.parse_args(argv)
    else:
        args = mode_parser.parse_args(argv[1:], argparse.Namespace(mode=argv[0]))
    try:
        cfg = resolve_config(args)
        return _DISPATCH[args.mode](cfg)
    # defects of the computation, not of the input
    except (DegenerateSteadyStateError, InternalConsistencyError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # OverflowError: a JSON integer too large for a float
    except (ConfigurationError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
