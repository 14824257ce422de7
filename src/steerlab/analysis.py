"""Phase-diagram sweeps, threshold root-finding, and closed-form thresholds.

Every cell runs the same pipeline (generator -> steady state ->
classification -> transport) through array kernels over a leading cell axis.
A sweep evaluates its grid in blocks of whole rows, about BLOCK_CELLS cells
per batch, and a threshold search a tree and a predicted path of bisection
midpoints at a time; a single point (`steerlab steady`) is the one-cell batch.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlations import XSTATE_FAULTS, classify
from .generator import build_generator
from .model import SystemParams
from .rates import Cells, ReservoirSpec, Statistics, shared_statistics
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

    t_a/t_b and mu_a/mu_b provide the non-swept reservoir values; DELTA_T /
    DELTA_MU axes keep the configured mean fixed.
    Construction composes the whole grid once, and Cells.build checks it:
    `grid` holds its Cells over (ny, nx) axes, `grid[iy]` is row iy, and
    `grid[iy, ix]` a block.
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
        # a non-finite or overflowing axis composes to values that the gate
        # rejects, with no numpy warning on the way
        try:
            with np.errstate(all="ignore"):
                grid = self.cells(self.x_values(), self.y_values()[:, None])
        except MemoryError:
            raise ValueError(
                f"a grid of {self.nx}x{self.ny} cells cannot be allocated") from None
        object.__setattr__(self, "grid", grid)

    def cells(self, x, y) -> Cells:
        """Cells at x and y, elementwise over their broadcast shape."""
        kappa, t_a, t_b, mu_a, mu_b = self._compose(x, y)
        return Cells.build(self.system.eps_a, self.system.eps_b, kappa, self.system.gamma,
                           t_a, t_b, mu_a, mu_b, self.statistics)

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
        return kappa, t_a, t_b, mu_a, mu_b


class GridCell(NamedTuple):
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
FIELDS = GridCell._fields


class RegionMap(NamedTuple):
    """Row-major grid of cells (y outer, x inner) as one (ny*nx,) array per
    GridCell field, which `cells` views as GridCells; diagnostics
    holds the worst steady-state solver values over the grid (see sweep2d)."""

    config: SweepConfig
    columns: dict[str, np.ndarray]
    diagnostics: dict[str, float]

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
    st = steady_state(g)
    c = classify(st.local_x)
    bad = (c.fault >= 0) & st.positive
    if np.count_nonzero(bad):
        raise ValueError(XSTATE_FAULTS[c.fault[np.argmax(bad)]])
    return g, st, c, transport_report(g, st)


def run_point(system: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec):
    """The pipeline of _pipeline at one point, as the one-cell batch
    Cells.of([(system, ra, rb)]); callers read row 0 of each result."""
    return _pipeline(Cells.of([(system, ra, rb)]))


# cells per sweep batch, in whole rows; larger batches raise peak RSS (README.md)
BLOCK_CELLS = 2048


def sweep2d(config: SweepConfig) -> RegionMap:
    """Evaluate the grid in blocks of whole rows, one batch each; row-major in (y, x).

    The map's diagnostics are the largest steady-state residual, the most
    negative minimum eigenvalue and the smallest null-space ratio (see
    steady.steady_state) over all cells, masked ones included.
    """
    iy, ix = np.divmod(np.arange(config.nx * config.ny), config.nx)
    step = max(1, BLOCK_CELLS // config.nx) * config.nx

    def block(b: int) -> tuple:
        # a function, so that a block's arrays are freed before the next is built
        _, st, c, transport = _pipeline(config.grid[iy[b:b + step], ix[b:b + step]])
        return (c.entangled, c.steer_a_to_b, c.steer_b_to_a, c.bell, c.margin_ent, c.margin_ab,
                c.margin_ba, c.margin_bell, *transport[1:], st.positive, st.residual,
                st.min_eigenvalue, st.null_ratio)
    blocks = [block(b) for b in range(0, len(iy), step)]
    *columns, residual, eigenvalue, ratio = map(np.concatenate, zip(*blocks))
    columns = dict(zip(FIELDS, (config.x_values()[ix], config.y_values()[iy], *columns)))
    return RegionMap(config, columns, {"max_residual": float(residual.max()),
                                       "min_eigenvalue": float(eigenvalue.min()),
                                       "min_null_space_ratio": float(ratio.min())})


class Criterion(enum.Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"
    TWO_WAY = "two-way"
    ENTANGLEMENT = "entanglement"
    BELL = "bell"


class ThresholdResult(NamedTuple):
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


def _margins(cells: Cells, criterion: Criterion) -> list[float]:
    """Criterion margins of cells as one batch, through the single-route
    classification; a state that fails classification raises."""
    g = build_generator(cells)
    c = classify(steady_state(g).local_x, dual=False)
    fault = c.fault >= 0
    if np.count_nonzero(fault):
        raise ValueError(XSTATE_FAULTS[c.fault[np.argmax(fault)]])
    return _criterion_margin(c, criterion).tolist()


# levels of the dyadic midpoint tree that one bisection batch evaluates
BISECT_DEPTH = 4
# threshold_kappa: bracket width at which bisection stops, relative to
# bar_eps, and the points of the pre-scan that locates the sign change
THRESHOLD_REL_TOL = 1e-10
PRESCAN_POINTS = 8


def _midpoints(lo: float, hi: float, tol: float, depth: int, x: float | None,
               rising: bool) -> list[float]:
    """Midpoints of [lo, hi] and of its nested halves, in preorder: of every
    interval depth levels deep, below that of the halves on the path to x (at x
    itself the upper one if rising, as _bisect takes when f(lo) <= 0 = f(x)),
    and the root of every half at most tol wide."""
    mid = 0.5 * (lo + hi)
    if not (hi - lo > tol and lo < mid < hi):
        return [mid]
    up = None if x is None else (mid <= x if rising else mid < x)
    points = [mid]
    for a, b, on_path in ((lo, mid, up is False), (mid, hi, up is True)):
        if depth > 1 or on_path or not b - a > tol:
            points += _midpoints(a, b, tol, depth - 1, x if on_path else None, rising)
    return points


def _bisect(f, lo: float, hi: float, f_lo: float, f_hi: float,
            tol: float) -> tuple[float, float, int, float]:
    """Halve [lo, hi] around the sign change of f until it is at most tol wide
    or no float lies inside.

    f maps a list of points to their values; f_lo and f_hi are f(lo) and f(hi).
    One call of f evaluates the _midpoints of the bracket BISECT_DEPTH levels
    deep and along the path to an estimate x of the sign change: the inverse
    polynomial through the four known points nearest the midpoint, at f = 0
    (the secant root in the first call), or the midpoint if that is not inside
    the bracket.  The points are the same 0.5*(a+b) halvings, so the brackets
    are exactly those of halving one point at a time; x only chooses which are
    evaluated.  The full levels bound the calls by max(1, ceil(iterations /
    BISECT_DEPTH)); as every interval brings the roots of its final halves, no
    call holds the root r = 0.5*(lo+hi) of the final bracket alone, and a right
    x needs one call.  Returns the final (lo, hi), the halving count and f(r).
    """
    iterations = 0
    known = {lo: f_lo, hi: f_hi}
    while True:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            near = [(p, known[p]) for p in sorted(known, key=lambda p: abs(p - mid))[:4]]
            x = mid
            if len({g for _, g in near}) == len(near):
                x = sum(p * math.prod(g / (g - f_p) for q, g in near if q != p)
                        for p, f_p in near)
            points = _midpoints(lo, hi, tol, BISECT_DEPTH, x if lo <= x <= hi else mid,
                                not f_lo > 0)
            known.update(zip(points, f(points)))
        f_mid = known[mid]
        if not (hi - lo > tol and lo < mid < hi):
            return lo, hi, iterations, f_mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iterations += 1


def threshold_kappa(
    template: SystemParams,
    ra: ReservoirSpec,
    rb: ReservoirSpec,
    criterion: Criterion,
    bracket: tuple[float, float],
) -> ThresholdResult:
    """Bisect the classification margin over kappa inside the bracket.

    The bracket must satisfy 0 < lo < hi < inf, checked before any solve, so
    every coupling evaluated is positive and finite.  A pre-scan of
    PRESCAN_POINTS points, evaluated as one batch, locates the sign change and
    rejects non-monotone margins (more than one crossing).  _bisect then
    halves the bracket down to THRESHOLD_REL_TOL * bar_eps in at most
    max(1, ceil(iterations / BISECT_DEPTH)) batches (2.1 on average and 3 at
    most over the benchmark's first 1,000 seed-0 requests), the last of which
    holds the root and gives margin_at_root.  Each batch is one Cells.build
    over the vector of its couplings.  No sign change is a result, not an error.
    """
    if not 0 < bracket[0] < bracket[1] < math.inf:
        raise ValueError(f"threshold bracket must satisfy 0 < lo < hi < inf, got {bracket}")
    stat = shared_statistics((ra, rb))

    def margins(ks: list[float]) -> list[float]:
        return _margins(Cells.build(template.eps_a, template.eps_b, np.array(ks), template.gamma,
                                    ra.temperature, rb.temperature, ra.mu, rb.mu, stat),
                        criterion)

    tol = THRESHOLD_REL_TOL * 0.5 * (template.eps_a + template.eps_b)
    ks = np.linspace(bracket[0], bracket[1], PRESCAN_POINTS).tolist()
    ms = margins(ks)
    crossings = [i for i in range(len(ks) - 1) if (ms[i] > 0) != (ms[i + 1] > 0)]
    if not crossings:
        return ThresholdResult(criterion, False, None, bracket, 0, None)
    if len(crossings) > 1:
        raise ValueError(f"margin not monotone on bracket {bracket}: "
                         f"{len(crossings)} sign changes")
    i = crossings[0]
    lo, hi, iterations, margin = _bisect(margins, ks[i], ks[i + 1], ms[i], ms[i + 1], tol)
    return ThresholdResult(criterion, True, 0.5 * (lo + hi), (lo, hi), iterations, margin)


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
