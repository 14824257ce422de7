"""The one pipeline, phase-diagram sweeps, threshold bisection, closed forms.

`pipeline` chains the stages of every cell (generator -> steady state ->
classification -> transport) through array kernels over a leading cell
axis.  A sweep runs it in blocks of whole rows, about BLOCK_CELLS cells per
batch; a point (`steerlab steady`, `evolve`) is the one-cell batch.  A
threshold search evaluates a tree and a predicted path of bisection
midpoints at a time, through the single-route `_margins`.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlations import XSTATE_FAULTS, classify
from .errors import ConfigurationError, InternalConsistencyError, PositivityError
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


# the Cells.build parameters each axis sets, and whether it is a difference
# axis: a level axis writes its value to them, a difference axis moves its
# pair about the pair's mean
AXIS_PARAMS = {
    Axis.KAPPA: (("kappa",), False), Axis.TBAR: (("t_a", "t_b"), False),
    Axis.MUBAR: (("mu_a", "mu_b"), False), Axis.DELTA_T: (("t_a", "t_b"), True),
    Axis.DELTA_MU: (("mu_a", "mu_b"), True), Axis.TA: (("t_a",), False),
    Axis.TB: (("t_b",), False), Axis.MUA: (("mu_a",), False), Axis.MUB: (("mu_b",), False),
}


@dataclass(frozen=True)
class SweepConfig:
    """A 2D grid over two axes with everything else held fixed.

    t_a/t_b and mu_a/mu_b provide the non-swept reservoir values; DELTA_T /
    DELTA_MU axes keep the configured mean fixed.
    Construction composes the whole grid once, and Cells.build checks it:
    `grid` holds its Cells on one row-major cell axis (y outer, x inner), so
    rows a to b-1 are the slice `grid[a * nx:b * nx]`, a view (a sweep2d block).
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
        for ax in (self.axis_x, self.axis_y):
            if self.statistics is Statistics.BOSE and {"mu_a", "mu_b"} & set(AXIS_PARAMS[ax][0]):
                raise ValueError(f"axis {ax} requires a fermionic setup")
        # a non-finite or overflowing axis composes to values that the gate
        # rejects, with no numpy warning on the way
        try:
            with np.errstate(all="ignore"):
                grid = self.cells(*self.points())
        except MemoryError:
            raise ValueError(
                f"a grid of {self.nx}x{self.ny} cells cannot be allocated") from None
        object.__setattr__(self, "grid", grid)

    def cells(self, x, y) -> Cells:
        """Cells at x and y, elementwise over their broadcast shape."""
        return Cells.build(**self._compose(x, y), statistics=self.statistics)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of every grid cell, row-major (y outer, x inner)."""
        return np.tile(self.x_values(), self.ny), np.repeat(self.y_values(), self.nx)

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)

    def _compose(self, x, y) -> dict:
        """The Cells.build parameters at x and y, by name, elementwise over arrays.

        Level axes apply first and difference axes second (AXIS_PARAMS), so
        that e.g. a MUBAR x DELTA_MU grid composes as mean and difference.
        """
        p = {**self.system._asdict(), "t_a": self.t_a, "t_b": self.t_b,
             "mu_a": self.mu_a, "mu_b": self.mu_b}
        for axis, v in sorted([(self.axis_x, x), (self.axis_y, y)],
                              key=lambda pair: AXIS_PARAMS[pair[0]][1]):
            names, difference = AXIS_PARAMS[axis]
            if difference:
                a, b = names
                mean = 0.5 * (p[a] + p[b])
                p[a], p[b] = mean - 0.5 * v, mean + 0.5 * v
            else:
                p.update(dict.fromkeys(names, v))
        return p


# the CSV columns of a sweep, in order
FIELDS = ("x", "y", "entangled", "steer_ab", "steer_ba", "bell", "margin_ent", "margin_ab",
          "margin_ba", "margin_bell", "current_b", "sigma", "positivity_ok")


class RegionMap(NamedTuple):
    """Row-major grid of cells (y outer, x inner) as one (ny*nx,) array per
    FIELDS column; diagnostics holds the worst solver values and the
    cross-checked cell count (see sweep2d)."""

    config: SweepConfig
    columns: dict[str, np.ndarray]
    diagnostics: dict[str, float]

    @property
    def cells(self) -> tuple[tuple, ...]:
        """Every cell in row-major order, one row tuple in FIELDS order each."""
        return tuple(zip(*(c.tolist() for c in self.columns.values())))

    def masked_count(self) -> int:
        return int(np.count_nonzero(~self.columns["positivity_ok"]))


def _raise_fault(cells: Cells, st, c, bad: np.ndarray) -> None:
    """Raise for the first classification fault of bad, named by its coupling:
    PositivityError if its state is not positive, else a defect."""
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        where = f"at kappa {2.0 * cells.omega[i] * math.sin(cells.theta[i]):.9g}"
        if not st.positive[i]:
            raise PositivityError(f"steady state {where} not positive "
                                  f"(min eigenvalue {st.min_eigenvalue[i]:.3g})")
        raise InternalConsistencyError(f"classification fault on a positive state {where}: "
                                       f"{XSTATE_FAULTS[c.fault[i]]}")


def pipeline(cells: Cells):
    """Generator, steady state, dual-route classification and transport of
    cells as one batch: (generator, steady state, classification,
    (current_a, current_b, sigma)).  A single point is the one-cell batch
    Cells.of([(system, ra, rb)]), and its callers read row 0 of each result.

    A state that violates positivity may fail classification; its cell is
    then masked (flags False, margins nan).  A classification fault on a
    positive state is a defect: it raises InternalConsistencyError.
    """
    g = build_generator(cells)
    st = steady_state(g)
    c = classify(st.local_x)
    _raise_fault(cells, st, c, (c.fault >= 0) & st.positive)
    return g, st, c, transport_report(g, st)


def rectification(p: SystemParams, base: ReservoirSpec, delta: float) -> float:
    """Heat-current asymmetry |I(+dT)| / |I(-dT)| under mirrored temperature bias.

    A ratio above 1 means the flow driven by the hotter B reservoir exceeds
    the mirrored flow, i.e. conduction from reservoir A toward B is the
    blocked direction.
    """
    if base.statistics is not Statistics.BOSE:
        raise ConfigurationError("rectification is defined for the bosonic setup")
    if delta <= 0 or delta >= 2 * base.temperature:
        raise ValueError("need 0 < delta < 2*T so both temperatures stay positive")
    lo = ReservoirSpec(Statistics.BOSE, base.temperature - 0.5 * delta)
    hi = ReservoirSpec(Statistics.BOSE, base.temperature + 0.5 * delta)
    # forward: T_B > T_A; backward: T_A > T_B
    forward, backward = pipeline(Cells.of([(p, lo, hi), (p, hi, lo)]))[3][1]
    return float(abs(forward) / abs(backward))


# cells per sweep batch, in whole rows; larger batches raise peak RSS (README.md)
BLOCK_CELLS = 2048


def diagnostics(residual: np.ndarray, min_eigenvalue: np.ndarray, null_ratio: np.ndarray,
                checked: np.ndarray) -> dict:
    """A manifest's diagnostics of N cells, masked ones included: the largest
    steady-state residual, the most negative minimum eigenvalue, the smallest
    null-space ratio (see steady.steady_state) and the cross-checked cells."""
    return {"max_residual": float(residual.max()), "min_eigenvalue": float(min_eigenvalue.min()),
            "min_null_space_ratio": float(null_ratio.min()),
            "cross_checked_cells": int(np.count_nonzero(checked))}


def sweep2d(config: SweepConfig) -> RegionMap:
    """Evaluate the grid in blocks of whole rows, one batch each; row-major in (y, x).

    A block is max(1, BLOCK_CELLS // nx) rows of config.grid, a slice of its
    cell axis that copies no field.  The map's diagnostics are those of all
    its cells.
    """
    nx = config.nx
    rows = max(1, BLOCK_CELLS // nx)

    def block(iy: int) -> tuple:
        # a function, so that a block's arrays are freed before the next is built
        _, st, c, transport = pipeline(config.grid[iy * nx:(iy + rows) * nx])
        return (c.entangled, c.steer_a_to_b, c.steer_b_to_a, c.bell, c.margin_ent, c.margin_ab,
                c.margin_ba, c.margin_bell, *transport[1:], st.positive, st.residual,
                st.min_eigenvalue, st.null_ratio, c.checked)
    blocks = [block(iy) for iy in range(0, config.ny, rows)]
    *columns, residual, eigenvalue, ratio, checked = map(np.concatenate, zip(*blocks))
    columns = dict(zip(FIELDS, (*config.points(), *columns)))
    return RegionMap(config, columns, diagnostics(residual, eigenvalue, ratio, checked))


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


# the Classification margin fields of each criterion; a criterion of two
# fields is their elementwise minimum, and _margins returns a one-field
# criterion's array as it is (functools.reduce), with no pass over it
CRITERION_FIELDS = {
    Criterion.A_TO_B: ("margin_ab",), Criterion.B_TO_A: ("margin_ba",),
    Criterion.TWO_WAY: ("margin_ab", "margin_ba"), Criterion.ENTANGLEMENT: ("margin_ent",),
    Criterion.BELL: ("margin_bell",),
}


def _margins(cells: Cells, criterion: Criterion) -> list[float]:
    """Criterion margins of cells as one batch, through the single-route
    classification; any classification fault raises (_raise_fault)."""
    g = build_generator(cells)
    st = steady_state(g)
    c = classify(st.local_x, dual=False)
    _raise_fault(cells, st, c, c.fault >= 0)
    margins = functools.reduce(np.minimum, [getattr(c, f) for f in CRITERION_FIELDS[criterion]])
    return margins.tolist()


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
    evaluated; the caller picks the ones matching its regime.  Only
    kappa_high_two_way (bose) and the resonant keys (fermi) differ by
    statistics; bosonic reservoirs have mu_bar = 0, else ValueError.
    """
    if statistics is Statistics.BOSE and mu_bar != 0:
        raise ValueError("bosonic reservoirs must have mu = 0")
    t = temperature
    gap = abs(bar_eps - mu_bar)
    sym = 2.0 * gap + LN43 * t
    sgn = math.copysign(1.0, bar_eps - mu_bar) if bar_eps != mu_bar else 0.0
    split = sgn * 2.0 * delta_eps * t / sym
    own = ({"kappa_high_two_way": KAPPA_HIGH_SLOPE * t + KAPPA_HIGH_CURV * bar_eps * bar_eps / t}
           if statistics is Statistics.BOSE else
           {"kappa_resonant_two_way": FERMI_RESONANT_COEFF * t,
            "kappa_bell_resonant": BELL_RESONANT_COEFF * t})
    return {"kappa_ent": ENT_COEFF * t, "delta_eps_one_way": DETUNING_ONE_WAY * bar_eps,
            "kappa_low_two_way": sym, **own, "kappa_bell_low": 2.0 * gap + BELL_SLOPE * t,
            "kappa_low_a_to_b": sym + split, "kappa_low_b_to_a": sym - split}
