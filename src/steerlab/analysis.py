"""Phase-diagram sweeps, threshold root-finding, and closed-form thresholds.

Every cell runs the same pipeline (generator -> steady state ->
classification -> transport) through array kernels over a leading cell axis.
A sweep evaluates its grid one row of fixed y at a time and a threshold
search a few couplings at a time; a single point (`run_point`, `steerlab
steady`) is the one-cell batch.
"""
from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .correlations import XSTATE_FAULTS, classify
from .errors import InternalConsistencyError
from .generator import build_generator
from .model import SystemParams
from .rates import Cells, ReservoirSpec, Statistics
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
        if not all(map(math.isfinite, (*self.x_range, *self.y_range, self.t_a, self.t_b,
                                       self.mu_a, self.mu_b))):
            raise ValueError("sweep ranges and reservoir values must be finite")
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

    def _compose(self, x, y):
        """(kappa, t_a, t_b, mu_a, mu_b) at x and y, elementwise over arrays.

        Level-setting axes apply first and difference axes second, so that
        e.g. a MUBAR x DELTA_MU grid composes as mean and difference.
        """
        kappa = self.system.kappa
        t_a, t_b, mu_a, mu_b = self.t_a, self.t_b, self.mu_a, self.mu_b
        pairs = sorted([(self.axis_x, x), (self.axis_y, y)],
                       key=lambda p: p[0] in (Axis.DELTA_T, Axis.DELTA_MU))
        for axis, v in pairs:
            if axis is Axis.KAPPA:
                kappa = v
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
        return kappa, t_a, t_b, mu_a, mu_b

    def point(self, x: float, y: float) -> tuple[SystemParams, ReservoirSpec, ReservoirSpec]:
        kappa, t_a, t_b, mu_a, mu_b = self._compose(x, y)
        system = self.system
        if Axis.KAPPA in (self.axis_x, self.axis_y):
            system = replace(system, kappa=kappa)
        return (system, ReservoirSpec(self.statistics, t_a, mu_a),
                ReservoirSpec(self.statistics, t_b, mu_b))

    def row_cells(self, y: float) -> Cells:
        """The cells of the grid row at y, built from the x vector.

        A cell that point() would reject (only a temperature can fail, as a
        level axis may drive a difference axis' temperature non-positive) is
        rejected by point() itself: the first one raises its own error.
        """
        x, s = self.x_values(), self.system
        eps_a, eps_b, gamma, kappa, t_a, t_b, mu_a, mu_b = np.array(np.broadcast_arrays(
            x, s.eps_a, s.eps_b, s.gamma, *self._compose(x, y))[1:], dtype=float)
        ok = (t_a > 0) & (t_b > 0) & np.isfinite([t_a, t_b, mu_a, mu_b]).all(axis=0)
        if not ok.all():
            self.point(float(x[np.argmin(ok)]), y)
        return Cells.build(eps_a, eps_b, kappa, gamma, np.stack([t_a, t_b], axis=-1),
                           np.stack([mu_a, mu_b], axis=-1), self.statistics)


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


# GridCell fields, in the order of the CSV columns
FIELDS = tuple(f.name for f in fields(GridCell))


@dataclass(frozen=True)
class RegionMap:
    """Row-major grid of cells (y outer, x inner) as one (ny*nx,) array per
    GridCell field, which `cell` and `cells` view as GridCells; diagnostics
    holds the worst steady-state solver values over the grid (see sweep2d)."""

    config: SweepConfig
    columns: dict[str, np.ndarray]
    diagnostics: dict[str, float] = field(default_factory=dict)

    def cell(self, ix: int, iy: int) -> GridCell:
        i = iy * self.config.nx + ix
        return GridCell(*(col[i].item() for col in self.columns.values()))

    @property
    def cells(self) -> tuple[GridCell, ...]:
        """Every cell in row-major order, one GridCell each."""
        return tuple(GridCell(*row) for row in zip(*(c.tolist() for c in self.columns.values())))

    def masked_count(self) -> int:
        return int(np.count_nonzero(~self.columns["positivity_ok"]))


def _pipeline(cells: Cells):
    """Generator, steady state, dual-route classification and transport of
    cells as one batch: (generator, steady state, classification,
    (current_a, current_b, sigma)).

    A state that violates positivity may fail classification; its cell is
    then masked (flags False, margins nan).  A classification fault on a
    positive state raises.
    """
    g = build_generator(cells)
    st = steady_state(g.total, g.vectors)
    c = classify(st.local)
    bad = (c.fault >= 0) & st.positive
    if np.count_nonzero(bad):
        raise ValueError(XSTATE_FAULTS[c.fault[np.argmax(bad)]])
    return g, st, c, transport_report(g, st)


def run_point(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec):
    """The pipeline of _pipeline at one point, as the one-cell batch
    Cells.of([(system, ra, rb)]); callers read row 0 of each result."""
    return _pipeline(Cells.of([(system, ra, rb)]))


def _columns(x: np.ndarray, y: float, st, c, transport) -> tuple:
    """The GridCell columns, in FIELDS order, of a pipeline result at the x
    values x and one y."""
    return (x, np.full(len(x), y), c.entangled, c.steer_a_to_b, c.steer_b_to_a, c.bell,
            c.margin_ent, c.margin_ab, c.margin_ba, c.margin_bell, *transport[1:],
            st.positive)


def _row(config: SweepConfig, y: float):
    """The columns of one grid row of fixed y, evaluated as one batch, and
    the row's (largest residual, smallest eigenvalue, smallest null-space ratio)."""
    _, st, c, transport = _pipeline(config.row_cells(y))
    return (_columns(config.x_values(), y, st, c, transport),
            (st.residual.max(), st.min_eigenvalue.min(), st.null_ratio.min()))


def sweep2d(config: SweepConfig) -> RegionMap:
    """Evaluate the grid one row at a time; row-major in (y, x).

    The map's diagnostics are the largest steady-state residual, the most
    negative minimum eigenvalue and the smallest null-space ratio s_1/s_0
    over all cells, masked ones included.
    """
    rows, worst = zip(*(_row(config, y) for y in config.y_values().tolist()))
    worst = np.array(worst)
    m = RegionMap(config, dict(zip(FIELDS, map(np.concatenate, zip(*rows)))), {
        "max_residual": float(worst[:, 0].max()),
        "min_eigenvalue": float(worst[:, 1].min()),
        "min_null_space_ratio": float(worst[:, 2].min()),
    })
    # `steerlab steady` at a grid point runs the same kernels on a one-cell
    # batch; the first cell of every sweep confirms that a batch of one and
    # a row give the same bits
    first = m.cell(0, 0)
    point = GridCell(*(col[0].item() for col in _columns(
        np.array([first.x]), first.y, *run_point(*config.point(first.x, first.y))[1:])))
    if not np.array_equal(astuple(point), astuple(first), equal_nan=True):
        raise InternalConsistencyError(
            f"single-point pipeline gives {point}, the sweep row gives {first}")
    return m


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


def _criterion_margin(rep, criterion: Criterion):
    """The margin of a criterion from a classification."""
    if criterion is Criterion.A_TO_B:
        return rep.margin_ab
    if criterion is Criterion.B_TO_A:
        return rep.margin_ba
    if criterion is Criterion.TWO_WAY:
        return np.minimum(rep.margin_ab, rep.margin_ba)
    if criterion is Criterion.ENTANGLEMENT:
        return rep.margin_ent
    return rep.margin_bell


def _margins(points, criterion: Criterion) -> list[float]:
    """Criterion margins of N points as one batch, through the single-route
    classification; a state that fails classification raises."""
    g = build_generator(Cells.of(points))
    c = classify(steady_state(g.total, g.vectors).local, dual=False)
    fault = c.fault >= 0
    if np.count_nonzero(fault):
        raise ValueError(XSTATE_FAULTS[c.fault[np.argmax(fault)]])
    return _criterion_margin(c, criterion).tolist()


def _margin(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec,
            criterion: Criterion) -> float:
    """Criterion margin at one point: _margins of the one-cell batch."""
    return _margins([(system, ra, rb)], criterion)[0]


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> tuple[float, float, int]:
    """Halve [lo, hi] around the sign change of f until it is at most tol wide.

    f maps a list of points to their values.  While two more halvings are
    due, one call evaluates the midpoint together with the midpoints of both
    halves, one of which is the next midpoint; the brackets are exactly those
    of halving one point at a time.  f_lo is f(lo); returns the final
    (lo, hi) and the number of halvings.
    """
    iterations = 0
    known: dict[float, float] = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            points = [mid]
            if 0.5 * (hi - lo) > tol:
                points += [0.5 * (lo + mid), 0.5 * (mid + hi)]
            known = dict(zip(points, f(points)))
        f_mid = known[mid]
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

    An 8-point pre-scan, evaluated as one batch, locates the sign change and
    rejects non-monotone margins (more than one crossing).  No sign change is
    a result, not an error.
    """

    def margins(ks: list[float]) -> list[float]:
        return _margins([(replace(template, kappa=k), ra, rb) for k in ks], criterion)

    bar_eps = 0.5 * (template.eps_a + template.eps_b)
    ks = np.linspace(bracket[0], bracket[1], prescan).tolist()
    ms = margins(ks)
    crossings = [i for i in range(len(ks) - 1) if (ms[i] > 0) != (ms[i + 1] > 0)]
    if not crossings:
        return ThresholdResult(criterion, False, None, bracket, 0, None)
    if len(crossings) > 1:
        raise ValueError(f"margin not monotone on bracket {bracket}: "
                         f"{len(crossings)} sign changes")
    i = crossings[0]
    lo, hi, iterations = _bisect(margins, ks[i], ks[i + 1], ms[i], rel_tol * bar_eps)
    root = 0.5 * (lo + hi)
    return ThresholdResult(criterion, True, root, (lo, hi), iterations,
                           _margin(replace(template, kappa=root), ra, rb, criterion))


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
        out["kappa_high_two_way"] = KAPPA_HIGH_SLOPE * t + KAPPA_HIGH_CURV * bar_eps * bar_eps / t
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
    c = m.columns
    bell = c["positivity_ok"] & c["bell"] & ~(c["steer_ab"] & c["steer_ba"])
    unentangled = c["positivity_ok"] & (c["steer_ab"] | c["steer_ba"]) & ~c["entangled"]
    violations = []
    for i in np.flatnonzero(bell | unentangled).tolist():
        iy, ix = divmod(i, m.config.nx)
        if bell[i]:
            violations.append(HierarchyViolation(ix, iy, "bell without two-way steering"))
        if unentangled[i]:
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
    margins = m.columns["margin_ent"].reshape(m.config.ny, m.config.nx).tolist()
    sums = []
    for y, row in zip(m.config.y_values(), margins):
        for ix in range(m.config.nx - 1):
            a, b = row[ix], row[ix + 1]
            if (a > 0) == (b > 0):
                continue
            frac = a / (a - b)
            x_est = xs[ix] + frac * (xs[ix + 1] - xs[ix])
            if abs(x_est - y) > band_ratio * 0.5 * (x_est + y) + cell_w:
                continue
            lo, hi, _ = _bisect(
                lambda points: _margins([m.config.point(x, float(y)) for x in points],
                                        Criterion.ENTANGLEMENT),
                float(xs[ix]), float(xs[ix + 1]), a, refine_tol)
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
