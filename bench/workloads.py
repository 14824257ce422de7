"""Seeded inputs for the three benchmark workloads, as `steerlab` argument lists.

The program only ever receives the argv built here; nothing in this module
imports steerlab, so the inputs stay the same whatever the package does.

* grid      -- three shipped presets at full size, run unchanged;
* point     -- `steady` on parameter sets drawn inside the presets' ranges;
* threshold -- `threshold` on the bisection regimes the acceptance tests use.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
# one preset per generator branch: strong-bose, weak-bose, weak-fermi
GRID_PRESETS = ("fig8b", "fig3c", "fig9b")
SETUPS = ("weak-bose", "weak-fermi", "strong-bose")
CRITERIA = ("a->b", "b->a", "two-way", "entanglement", "bell")
# draws closer than this (relative to bar_eps) to the level crossing are
# redrawn: the package rejects couplings at the crossing itself
BOUNDARY_CLEARANCE = 1e-3

# closed-form threshold constants (same expressions as steerlab.analysis)
LN43 = math.log(4.0 / 3.0)
_SQRT3 = math.sqrt(3.0)
KAPPA_HIGH_SLOPE, KAPPA_HIGH_CURV = 3.121, 0.347
ENT_COEFF = 2.0 * math.log(1.0 + math.sqrt(2.0))
BELL_SLOPE = 2.0 * math.log(1.0 / (math.sqrt(2.0) - 1.0))
BELL_RESONANT_COEFF = 2.0 * math.log(3.0 + 2.0 * math.sqrt(2.0))
FERMI_RESONANT_COEFF = 2.0 * math.acosh((_SQRT3 + 2.0 * math.sqrt(3.0 + 3.0 * _SQRT3)) / 3.0)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call and what the benchmark needs to check it."""

    index: int
    kind: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)


def _num(v: float) -> str:
    return repr(float(v))


def _system_flags(stat, eps_a, eps_b, kappa, gamma, ta, tb, mua, mub) -> list[str]:
    # --flag=value keeps negative values from reading as options
    return [
        f"--stat={stat}", f"--eps-a={_num(eps_a)}", f"--eps-b={_num(eps_b)}",
        f"--kappa={_num(kappa)}", f"--gamma={_num(gamma)}",
        f"--ta={_num(ta)}", f"--tb={_num(tb)}",
        f"--mua={_num(mua)}", f"--mub={_num(mub)}",
    ]


def load_presets(src_dir: Path) -> dict[str, dict]:
    """Every shipped preset config, by name."""
    folder = Path(src_dir) / "steerlab" / "presets"
    return {p.stem: json.loads(p.read_text()) for p in sorted(folder.glob("*.json"))}


def setup_of(stat: str, eps_a: float, eps_b: float, kappa: float) -> str:
    if stat == "fermi":
        return "weak-fermi"
    return "strong-bose" if kappa > 2.0 * math.sqrt(eps_a * eps_b) else "weak-bose"


def grid_ops(out_dir: Path) -> list[Op]:
    """One pass of the grid workload: each preset sweep writes into out_dir."""
    return [
        Op(i, "grid", ("sweep", "--preset", name, "--out", str(Path(out_dir) / f"{name}.csv")),
           {"preset": name, "out": str(Path(out_dir) / f"{name}.csv")})
        for i, name in enumerate(GRID_PRESETS)
    ]


def _preset_point(cfg: dict, x: float, y: float) -> dict:
    """Parameters at (x, y) of a preset grid, composed as SweepConfig.point does:
    level-setting axes first, difference axes second."""
    s, r, sw = cfg["system"], cfg["reservoirs"], cfg["sweep"]
    p = {"kappa": s["kappa"], "ta": r["ta"], "tb": r["tb"],
         "mua": r.get("mua", 0.0), "mub": r.get("mub", 0.0)}
    pairs = sorted([(sw["axis_x"], x), (sw["axis_y"], y)],
                   key=lambda a: a[0] in ("delta_t", "delta_mu"))
    for axis, v in pairs:
        if axis == "tbar":
            p["ta"] = p["tb"] = v
        elif axis == "mubar":
            p["mua"] = p["mub"] = v
        elif axis == "delta_t":
            mean = 0.5 * (p["ta"] + p["tb"])
            p["ta"], p["tb"] = mean - 0.5 * v, mean + 0.5 * v
        elif axis == "delta_mu":
            mean = 0.5 * (p["mua"] + p["mub"])
            p["mua"], p["mub"] = mean - 0.5 * v, mean + 0.5 * v
        else:  # kappa, ta, tb, mua, mub
            p[axis] = v
    if r["statistics"] == "bose":
        p["mua"] = p["mub"] = 0.0
    return p


def point_stream(seed: int, presets: dict[str, dict]):
    """Endless `steady` requests; every block of len(presets) requests visits
    each preset once, in seeded order, at a uniform draw inside its ranges."""
    rng = random.Random(f"point:{seed}")
    names = sorted(presets)
    index = 0
    while True:
        order = names[:]
        rng.shuffle(order)
        for name in order:
            cfg = presets[name]
            s, sw, stat = cfg["system"], cfg["sweep"], cfg["reservoirs"]["statistics"]
            boundary = 2.0 * math.sqrt(s["eps_a"] * s["eps_b"])
            bar_eps = 0.5 * (s["eps_a"] + s["eps_b"])
            while True:
                x = rng.uniform(*sw["x_range"])
                y = rng.uniform(*sw["y_range"])
                p = _preset_point(cfg, x, y)
                if abs(p["kappa"] - boundary) > BOUNDARY_CLEARANCE * bar_eps:
                    break
            argv = ["steady"] + _system_flags(
                stat, s["eps_a"], s["eps_b"], p["kappa"], s["gamma"],
                p["ta"], p["tb"], p["mua"], p["mub"])
            yield Op(index, "point", tuple(argv), {
                "preset": name,
                "setup": setup_of(stat, s["eps_a"], s["eps_b"], p["kappa"]),
            })
            index += 1


@dataclass(frozen=True)
class Regime:
    """A threshold regime: fixed system, a temperature range, and the
    closed-form prediction the bracket is placed around."""

    name: str
    setup: str
    criterion: str
    stat: str
    eps_a: float
    eps_b: float
    mu: float
    t_range: tuple[float, float]
    analytic_key: str

    def prediction(self, t: float) -> float:
        bar = 0.5 * (self.eps_a + self.eps_b)
        delta = self.eps_a - self.eps_b
        sym = 2.0 * abs(bar - self.mu) + LN43 * t
        if self.name == "bose-high-t-two-way":
            return KAPPA_HIGH_SLOPE * t + KAPPA_HIGH_CURV * bar ** 2 / t
        if self.name == "fermi-resonant-two-way":
            return FERMI_RESONANT_COEFF * t
        if self.name == "fermi-resonant-bell":
            return BELL_RESONANT_COEFF * t
        if self.criterion == "entanglement":
            return ENT_COEFF * t
        if self.criterion == "bell":
            return 2.0 * bar + BELL_SLOPE * t
        if self.criterion == "a->b":
            return sym + 2.0 * delta * t / sym
        if self.criterion == "b->a":
            return sym - 2.0 * delta * t / sym
        return sym

    def bracket(self, t: float) -> tuple[float, float]:
        pred = self.prediction(t)
        if self.setup == "strong-bose" and self.name != "bose-high-t-two-way":
            # low-temperature thresholds sit just above the level crossing:
            # the bracket starts above it and reaches well past the prediction
            boundary = 2.0 * math.sqrt(self.eps_a * self.eps_b)
            lo = boundary + 0.05 * t
            return lo, lo + 3.0 * (pred - boundary) + 2.0 * t
        if self.name == "fermi-resonant-two-way":
            return 0.3 * pred, 3.0 * pred
        return 0.6 * pred, 1.4 * pred


REGIMES = (
    Regime("bose-low-t-two-way", "strong-bose", "two-way", "bose", 1.0, 1.0, 0.0, (0.01, 0.1),
           "kappa_low_two_way"),
    Regime("bose-high-t-two-way", "strong-bose", "two-way", "bose", 1.0, 1.0, 0.0, (3.0, 10.0),
           "kappa_high_two_way"),
    Regime("fermi-resonant-two-way", "weak-fermi", "two-way", "fermi", 1.0, 1.0, 1.0, (0.02, 0.05),
           "kappa_resonant_two_way"),
    Regime("bose-detuned-a->b", "strong-bose", "a->b", "bose", 1.05, 0.95, 0.0, (0.03, 0.07),
           "kappa_low_a_to_b"),
    Regime("bose-detuned-b->a", "strong-bose", "b->a", "bose", 1.05, 0.95, 0.0, (0.03, 0.07),
           "kappa_low_b_to_a"),
    Regime("bose-entanglement", "weak-bose", "entanglement", "bose", 1.0, 1.0, 0.0, (0.2, 0.7),
           "kappa_ent"),
    Regime("bose-low-t-bell", "strong-bose", "bell", "bose", 1.0, 1.0, 0.0, (0.01, 0.1),
           "kappa_bell_low"),
    Regime("fermi-resonant-bell", "weak-fermi", "bell", "fermi", 1.0, 1.0, 1.0, (0.02, 0.05),
           "kappa_bell_resonant"),
)


def threshold_stream(seed: int):
    """Endless `threshold` requests; every block of len(REGIMES) requests
    visits each regime once, in seeded order, at a uniform temperature."""
    rng = random.Random(f"threshold:{seed}")
    index = 0
    while True:
        order = list(REGIMES)
        rng.shuffle(order)
        for reg in order:
            t = rng.uniform(*reg.t_range)
            lo, hi = reg.bracket(t)
            argv = ["threshold"] + _system_flags(
                reg.stat, reg.eps_a, reg.eps_b, 0.5 * (lo + hi), 0.01,
                t, t, reg.mu, reg.mu,
            ) + [f"--criterion={reg.criterion}",
                 f"--bracket-lo={_num(lo)}", f"--bracket-hi={_num(hi)}"]
            yield Op(index, "threshold", tuple(argv), {
                "regime": reg.name, "setup": reg.setup, "criterion": reg.criterion,
                "bracket": (lo, hi), "analytic_key": reg.analytic_key,
                "bar_eps": 0.5 * (reg.eps_a + reg.eps_b),
            })
            index += 1
