"""Phase-diagram sweeps, threshold root-finding, and closed-form thresholds.

Every sweep cell runs the full pipeline (generator -> steady state ->
classification -> transport); cells are independent work items, so grids can
be evaluated by a process pool with results merged by index, deterministic
for any worker count.
"""
from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .correlations import classify
from .generator import build_generator
from .model import SystemParams
from .rates import ReservoirSpec, Statistics
from .steady import steady_state
from .transport import transport_report

SQRT3 = math.sqrt(3.0)
# closed-form threshold constants
LN43 = math.log(4.0 / 3.0)
KAPPA_HIGH_SLOPE = 3.121          # high-temperature linear rate
KAPPA_HIGH_CURV = 0.347           # high-temperature 1/T coefficient
ENT_COEFF = 2.0 * math.log(1.0 + math.sqrt(2.0))
BELL_SLOPE = 2.0 * math.log(1.0 / (math.sqrt(2.0) - 1.0))
BELL_RESONANT_COEFF = 2.0 * math.log(3.0 + 2.0 * math.sqrt(2.0))
FERMI_RESONANT_COEFF = 2.0 * math.acosh((SQRT3 + 2.0 * math.sqrt(3.0 + 3.0 * SQRT3)) / 3.0)
DETUNING_ONE_WAY = (4.0 * SQRT3 - 6.0) / 3.0


class Axis(enum.Enum):
    KAPPA = "kappa"
    TBAR = "tbar"
    MUBAR = "mubar"
    DELTA_T = "delta_t"
    DELTA_MU = "delta_mu"
    TA = "ta"
    TB = "tb"
    MUA = "mua"
    MUB = "mub"


_MU_AXES = {Axis.MUBAR, Axis.DELTA_MU, Axis.MUA, Axis.MUB}


@dataclass(frozen=True)
class SweepConfig:
    """A 2D grid over two axes with everything else held fixed.

    t_a/t_b (and mu_a/mu_b for fermionic setups) provide the non-swept
    reservoir values; DELTA_T / DELTA_MU axes keep the configured mean fixed.
    """

    axis_x: Axis
    x_range: tuple[float, float]
    nx: int
    axis_y: Axis
    y_range: tuple[float, float]
    ny: int
    system: SystemParams
    statistics: Statistics
    t_a: float
    t_b: float
    mu_a: float = 0.0
    mu_b: float = 0.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid sizes must be >= 2")
        if self.axis_x is self.axis_y:
            raise ValueError("sweep axes must differ")
        if self.statistics is Statistics.BOSE:
            for ax in (self.axis_x, self.axis_y):
                if ax in _MU_AXES:
                    raise ValueError(f"axis {ax} requires a fermionic setup")
        self._validate_ranges()

    def _validate_ranges(self):
        bar_eps = 0.5 * (self.system.eps_a + self.system.eps_b)
        boundary = 2.0 * math.sqrt(self.system.eps_a * self.system.eps_b)
        for axis, (lo, hi), n in ((self.axis_x, self.x_range, self.nx),
                                  (self.axis_y, self.y_range, self.ny)):
            if axis is Axis.KAPPA:
                values = np.linspace(lo, hi, n)
                if np.min(np.abs(values - boundary)) <= 1e-6 * bar_eps:
                    raise ValueError(
                        f"kappa grid touches the phase boundary at {boundary}")
                if min(lo, hi) <= 0:
                    raise ValueError("kappa values must be positive")
            elif axis in (Axis.TBAR, Axis.TA, Axis.TB) and min(lo, hi) <= 0:
                raise ValueError("temperatures must be positive")
            elif axis is Axis.DELTA_T:
                mean = 0.5 * (self.t_a + self.t_b)
                if mean - 0.5 * max(abs(lo), abs(hi)) <= 0:
                    raise ValueError(
                        "temperature-difference range drives a temperature "
                        "non-positive")

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)

    def point(self, x: float, y: float) -> tuple[SystemParams, ReservoirSpec, ReservoirSpec]:
        system = self.system
        t_a, t_b, mu_a, mu_b = self.t_a, self.t_b, self.mu_a, self.mu_b
        pairs = [(self.axis_x, x), (self.axis_y, y)]
        # level-setting axes first, difference axes second, so that e.g. a
        # MUBAR x DELTA_MU grid composes as mean and difference
        pairs.sort(key=lambda p: p[0] in (Axis.DELTA_T, Axis.DELTA_MU))
        for axis, v in pairs:
            if axis is Axis.KAPPA:
                system = replace(system, kappa=v)
            elif axis is Axis.TBAR:
                t_a = t_b = v
            elif axis is Axis.DELTA_T:
                mean = 0.5 * (t_a + t_b)
                t_a, t_b = mean - 0.5 * v, mean + 0.5 * v
            elif axis is Axis.TA:
                t_a = v
            elif axis is Axis.TB:
                t_b = v
            elif axis is Axis.MUBAR:
                mu_a = mu_b = v
            elif axis is Axis.DELTA_MU:
                mean = 0.5 * (mu_a + mu_b)
                mu_a, mu_b = mean - 0.5 * v, mean + 0.5 * v
            elif axis is Axis.MUA:
                mu_a = v
            else:
                mu_b = v
        if self.statistics is Statistics.BOSE:
            mu_a = mu_b = 0.0
        ra = ReservoirSpec(self.statistics, t_a, mu_a)
        rb = ReservoirSpec(self.statistics, t_b, mu_b)
        return system, ra, rb


@dataclass(frozen=True)
class GridCell:
    """Full pipeline output at one grid point."""

    x: float
    y: float
    entangled: bool
    steer_ab: bool
    steer_ba: bool
    bell: bool
    margin_ent: float
    margin_ab: float
    margin_ba: float
    margin_bell: float
    current_b: float
    sigma: float
    positivity_ok: bool


@dataclass(frozen=True)
class RegionMap:
    """Row-major grid of cells: y is the outer loop, x the inner one."""

    config: SweepConfig
    cells: tuple[GridCell, ...]

    def cell(self, ix: int, iy: int) -> GridCell:
        return self.cells[iy * self.config.nx + ix]

    def masked_count(self) -> int:
        return sum(1 for c in self.cells if not c.positivity_ok)


def run_point(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec):
    """Generator, steady state, dual-route classification and transport at one point.

    Returns (generator, steady result, report, transport).  A state that
    violates positivity may fail classification; its report is then None
    (the cell is masked).  A classification error on a positive state is
    re-raised.
    """
    g = build_generator(system, ra, rb)
    ss = steady_state(g)
    try:
        rep = classify(ss.state_local, eig=g.eig)
    except ValueError:
        if ss.positivity_ok:
            raise
        rep = None
    return g, ss, rep, transport_report(g, ss)


def evaluate_point(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec,
                   x: float = 0.0, y: float = 0.0) -> GridCell:
    _, ss, rep, tr = run_point(system, ra, rb)
    if rep is None:
        flags, margins = (False,) * 4, (float("nan"),) * 4
    else:
        flags = (rep.entangled, rep.steer_a_to_b, rep.steer_b_to_a, rep.bell)
        margins = (rep.margin_ent, rep.margin_ab, rep.margin_ba, rep.margin_bell)
    return GridCell(x, y, *flags, *margins, tr.current_b, tr.sigma, ss.positivity_ok)


def _eval_cell(args: tuple[SweepConfig, float, float]) -> GridCell:
    config, x, y = args
    system, ra, rb = config.point(x, y)
    return evaluate_point(system, ra, rb, x=x, y=y)


def sweep2d(config: SweepConfig, jobs: int = 1) -> RegionMap:
    """Evaluate the grid; row-major in (y, x); deterministic for any jobs."""
    tasks = [(config, float(x), float(y))
             for y in config.y_values() for x in config.x_values()]
    if jobs > 1:
        chunk = max(1, len(tasks) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = tuple(pool.map(_eval_cell, tasks, chunksize=chunk))
    else:
        cells = tuple(_eval_cell(t) for t in tasks)
    return RegionMap(config=config, cells=cells)


class Criterion(enum.Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"
    TWO_WAY = "two-way"
    ENTANGLEMENT = "entanglement"
    BELL = "bell"


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection result for a coupling-strength threshold."""

    criterion: Criterion
    found: bool
    kappa_threshold: float | None
    bracket: tuple[float, float]
    iterations: int
    margin_at_root: float | None


def _margin(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec,
            criterion: Criterion) -> float:
    """Criterion margin at one point through the single-route classification."""
    g = build_generator(system, ra, rb)
    rep = classify(steady_state(g).state_local, dual=False)
    if criterion is Criterion.A_TO_B:
        return rep.margin_ab
    if criterion is Criterion.B_TO_A:
        return rep.margin_ba
    if criterion is Criterion.TWO_WAY:
        return min(rep.margin_ab, rep.margin_ba)
    if criterion is Criterion.ENTANGLEMENT:
        return rep.margin_ent
    return rep.margin_bell


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> tuple[float, float, int]:
    """Halve [lo, hi] around the sign change of f until it is at most tol wide.

    f_lo is f(lo); returns the final (lo, hi) and the number of halvings.
    """
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations


def threshold_kappa(
    template: SystemParams,
    ra: ReservoirSpec,
    rb: ReservoirSpec,
    criterion: Criterion,
    bracket: tuple[float, float],
    rel_tol: float = 1e-10,
    prescan: int = 8,
) -> ThresholdResult:
    """Bisect the classification margin over kappa inside the bracket.

    An 8-point pre-scan locates the sign change and rejects non-monotone
    margins (more than one crossing).  No sign change is a result, not an
    error.
    """

    def margin(k: float) -> float:
        return _margin(replace(template, kappa=k), ra, rb, criterion)

    bar_eps = 0.5 * (template.eps_a + template.eps_b)
    ks = np.linspace(bracket[0], bracket[1], prescan)
    ms = [margin(float(k)) for k in ks]
    crossings = [i for i in range(len(ks) - 1) if (ms[i] > 0) != (ms[i + 1] > 0)]
    if not crossings:
        return ThresholdResult(criterion, False, None, bracket, 0, None)
    if len(crossings) > 1:
        raise ValueError(f"margin not monotone on bracket {bracket}: "
                         f"{len(crossings)} sign changes")
    i = crossings[0]
    lo, hi, iterations = _bisect(margin, float(ks[i]), float(ks[i + 1]), ms[i],
                                 rel_tol * bar_eps)
    root = 0.5 * (lo + hi)
    return ThresholdResult(criterion, True, root, (lo, hi), iterations, margin(root))


def analytic_thresholds(
    bar_eps: float,
    temperature: float,
    delta_eps: float = 0.0,
    statistics: Statistics = Statistics.BOSE,
    mu_bar: float = 0.0,
) -> dict[str, float]:
    """Closed-form threshold couplings for the given regime.

    Low-/high-temperature and resonant/off-resonant variants are all
    evaluated; the caller picks the ones matching its regime.
    """
    t = temperature
    out: dict[str, float] = {
        "kappa_ent": ENT_COEFF * t,
        "delta_eps_one_way": DETUNING_ONE_WAY * bar_eps,
    }
    if statistics is Statistics.BOSE:
        sym = 2.0 * bar_eps + LN43 * t
        out["kappa_low_two_way"] = sym
        out["kappa_high_two_way"] = KAPPA_HIGH_SLOPE * t + KAPPA_HIGH_CURV * bar_eps**2 / t
        out["kappa_bell_low"] = 2.0 * bar_eps + BELL_SLOPE * t
        out["kappa_low_a_to_b"] = sym + 2.0 * delta_eps * t / sym
        out["kappa_low_b_to_a"] = sym - 2.0 * delta_eps * t / sym
    else:
        gap = abs(bar_eps - mu_bar)
        sym = 2.0 * gap + LN43 * t
        sgn = math.copysign(1.0, bar_eps - mu_bar) if bar_eps != mu_bar else 0.0
        out["kappa_low_two_way"] = sym
        out["kappa_resonant_two_way"] = FERMI_RESONANT_COEFF * t
        out["kappa_bell_resonant"] = BELL_RESONANT_COEFF * t
        out["kappa_bell_low"] = 2.0 * gap + BELL_SLOPE * t
        out["kappa_low_a_to_b"] = sym + sgn * 2.0 * delta_eps * t / sym
        out["kappa_low_b_to_a"] = sym - sgn * 2.0 * delta_eps * t / sym
    return out


@dataclass(frozen=True)
class HierarchyViolation:
    ix: int
    iy: int
    reason: str


def hierarchy_check(m: RegionMap) -> list[HierarchyViolation]:
    """Bell cells must be two-way steerable; steerable cells entangled.

    Positivity-masked cells are skipped (they are excluded from region
    statistics); the masked count is reported separately.
    """
    violations = []
    for iy in range(m.config.ny):
        for ix in range(m.config.nx):
            c = m.cell(ix, iy)
            if not c.positivity_ok:
                continue
            if c.bell and not (c.steer_ab and c.steer_ba):
                violations.append(HierarchyViolation(ix, iy, "bell without two-way steering"))
            if (c.steer_ab or c.steer_ba) and not c.entangled:
                violations.append(HierarchyViolation(ix, iy, "steerable but not entangled"))
    return violations


@dataclass(frozen=True)
class BoundaryFit:
    """Straight-line fit T_A + T_B = c of the entanglement boundary."""

    found: bool
    c_fitted: float | None
    c_predicted: float
    rel_deviation: float | None
    n_points: int
    spread: float | None


def entanglement_boundary_fit(m: RegionMap, band_ratio: float = 0.25) -> BoundaryFit:
    """Fit the entanglement boundary on a TA x TB map near the diagonal.

    Boundary points are margin_ent sign changes between adjacent cells,
    refined by bisection in T_A to 1e-4 of the axis range; only points with
    |T_A - T_B| below band_ratio times the mean enter the fit.  The
    prediction is kappa / ln(1+sqrt(2)).
    """
    if not (m.config.axis_x is Axis.TA and m.config.axis_y is Axis.TB):
        raise ValueError("boundary fit expects axis_x=TA, axis_y=TB")
    c_pred = 2.0 * m.config.system.kappa / ENT_COEFF
    xs = m.config.x_values()
    cell_w = xs[1] - xs[0]
    refine_tol = 1e-4 * (m.config.x_range[1] - m.config.x_range[0])
    sums = []
    for iy, y in enumerate(m.config.y_values()):
        for ix in range(m.config.nx - 1):
            a, b = m.cell(ix, iy), m.cell(ix + 1, iy)
            if (a.margin_ent > 0) == (b.margin_ent > 0):
                continue
            frac = a.margin_ent / (a.margin_ent - b.margin_ent)
            x_est = xs[ix] + frac * (xs[ix + 1] - xs[ix])
            if abs(x_est - y) > band_ratio * 0.5 * (x_est + y) + cell_w:
                continue
            lo, hi, _ = _bisect(
                lambda x: _margin(*m.config.point(x, float(y)), Criterion.ENTANGLEMENT),
                float(xs[ix]), float(xs[ix + 1]), a.margin_ent, refine_tol)
            x_cross = 0.5 * (lo + hi)
            if abs(x_cross - y) <= band_ratio * 0.5 * (x_cross + y):
                sums.append(x_cross + y)
    if not sums:
        return BoundaryFit(False, None, c_pred, None, 0, None)
    c_fit = float(np.mean(sums))
    return BoundaryFit(
        found=True,
        c_fitted=c_fit,
        c_predicted=c_pred,
        rel_deviation=abs(c_fit - c_pred) / c_pred,
        n_points=len(sums),
        spread=float(np.std(sums)),
    )
