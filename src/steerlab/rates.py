"""Reservoir occupation functions and the dissipative rate parameters.

The two reservoirs couple through sigma_x of their qubit, which in the energy
basis drives only two transition energies eps_minus and eps_plus.  All
dissipative matrix entries are built from the stimulated rates (p, q, s, t)
plus spontaneous weights; each carries a per-reservoir split so downstream
code can attribute currents to a single reservoir.

Rates are evaluated for N cells at once, as arrays over a leading cell axis
(`rate_arrays`); `rate_set` and `occupation` run the same code at a single
cell.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .model import DerivedParams, SystemParams, derive_arrays

# Bose occupation rejected below this multiple of T (divergence guard)
BOSE_EPS_FLOOR = 1e-9


class Statistics(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"


@dataclass(frozen=True)
class ReservoirSpec:
    """One reservoir: statistics, temperature (k_B = 1) and chemical potential.

    Bosonic reservoirs carry mu = 0.
    """

    statistics: Statistics
    temperature: float
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and math.isfinite(self.mu)):
            raise ValueError(f"temperature and mu must be finite, got "
                             f"{self.temperature} and {self.mu}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.statistics is Statistics.BOSE and self.mu != 0.0:
            raise ValueError("bosonic reservoirs must have mu = 0")


def occupations(statistics: Statistics, temperature: np.ndarray, mu: np.ndarray,
                eps: np.ndarray) -> np.ndarray:
    """Mean occupations of reservoir modes at energies eps, elementwise.

    Bose: 1/(exp((eps-mu)/T) - 1), requires eps > 0 and rejects eps below
    1e-9*T where the occupation diverges.  Fermi: 1/(exp((eps-mu)/T) + 1),
    valid for any eps.
    """
    x = (eps - mu) / temperature
    if statistics is Statistics.BOSE:
        low = eps <= BOSE_EPS_FLOOR * temperature
        if np.count_nonzero(low):
            raise ValueError(
                f"bosonic occupation diverges: eps={np.broadcast_to(eps, low.shape)[low][0]}"
                f" <= {BOSE_EPS_FLOOR}*T"
            )
        return np.where(x > 700.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700.0)))
    # logistic form keeps the Fermi tails accurate down to underflow
    e = np.exp(-np.minimum(np.abs(x), 745.0))
    return np.where(x >= 0, e, 1.0) / (1.0 + e)


def occupation(r: ReservoirSpec, eps: float) -> float:
    """Mean occupation of one reservoir mode at energy eps (see occupations)."""
    return occupations(r.statistics, *np.array([[r.temperature], [r.mu], [eps]],
                                                dtype=float)).item()


@dataclass(frozen=True)
class TransitionEnergies:
    """The two sigma_x-driven transition energies, both strictly positive."""

    eps_minus: float
    eps_plus: float


def _transition(bar_eps, omega):
    """(eps_minus, eps_plus): the lower one is bar_eps - omega in the weak phase
    and omega - bar_eps in the strong phase, i.e. |bar_eps - omega|."""
    return abs(bar_eps - omega), bar_eps + omega


def transition_energies(d: DerivedParams) -> TransitionEnergies:
    """The two transition energies of one system (see _transition)."""
    eps_minus, eps_plus = _transition(d.bar_eps, d.omega)
    return TransitionEnergies(eps_minus=eps_minus, eps_plus=eps_plus)


# columns of RateSet.coefficients, one row per reservoir
COEFFICIENTS = ("p", "q", "s", "t", "spont_plus", "spont_minus", "spont_coh")


@dataclass(frozen=True)
class RateSet:
    """Rate parameters entering the evolution matrices, with per-reservoir split.

    coefficients[..., j, :] holds reservoir j's (p_j, q_j, s_j, t_j,
    spont_plus_j, spont_minus_j, spont_coh_j) in the order of COEFFICIENTS;
    the leading axes, if any, run over cells.  p = p_a + p_b and
    q = q_a + q_b are the stimulated rates at eps_plus and eps_minus.  s_j,
    t_j are the sum/difference combinations weighting the
    population<->coherence couplings.  The spontaneous weights split the bare
    weight (total gamma per transition) between the reservoirs with the same
    angular factors as p and q; spont_coh_j = (gamma/2) sin(theta) is the
    spontaneous coherence weight of the strong phase.
    """

    coefficients: np.ndarray
    theta: float
    statistics: Statistics

    def _get(self, j: int, name: str):
        return self.coefficients[..., j, COEFFICIENTS.index(name)]

    p_a = property(lambda self: self._get(0, "p"))
    p_b = property(lambda self: self._get(1, "p"))
    q_a = property(lambda self: self._get(0, "q"))
    q_b = property(lambda self: self._get(1, "q"))
    s_a = property(lambda self: self._get(0, "s"))
    s_b = property(lambda self: self._get(1, "s"))
    t_a = property(lambda self: self._get(0, "t"))
    t_b = property(lambda self: self._get(1, "t"))
    spont_plus_a = property(lambda self: self._get(0, "spont_plus"))
    spont_plus_b = property(lambda self: self._get(1, "spont_plus"))
    spont_minus_a = property(lambda self: self._get(0, "spont_minus"))
    spont_minus_b = property(lambda self: self._get(1, "spont_minus"))
    p = property(lambda self: self.p_a + self.p_b)
    q = property(lambda self: self.q_a + self.q_b)


@dataclass(frozen=True)
class Cells:
    """Per-cell inputs of the array kernels, over leading cell axes.

    The derived parameters of each cell's system (model.derive_arrays) come
    with its coupling constant gamma and its reservoirs' temperature and mu,
    the latter two as (..., 2) arrays: reservoir A, reservoir B.  All cells
    share one statistics.  `build` takes parameter arrays (a sweep row builds
    them from its axis vectors), `of` stacks N points along one axis, and
    `at` holds a single cell with no cell axis, which is how the
    single-point functions call the kernels.
    """

    bar_eps: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    strong: np.ndarray
    gamma: np.ndarray
    temperature: np.ndarray
    mu: np.ndarray
    statistics: Statistics

    @classmethod
    def build(cls, eps_a, eps_b, kappa, gamma, temperature: np.ndarray, mu: np.ndarray,
              statistics: Statistics) -> Cells:
        """Cells from system parameters of equal shape and (..., 2) reservoir
        temperatures and mu, derived by model.derive_arrays like every cell."""
        bar_eps, _, omega, theta, strong = derive_arrays(eps_a, eps_b, kappa)
        return cls(bar_eps, omega, theta, strong, gamma, temperature, mu, statistics)

    @classmethod
    def of(cls, points: Sequence[tuple[SystemParams, ReservoirSpec, ReservoirSpec]]) -> Cells:
        stat = points[0][1].statistics
        if any(r.statistics is not stat for _, ra, rb in points for r in (ra, rb)):
            raise ConfigurationError("reservoirs must share statistics (both bose or both fermi)")
        # one contiguous row per parameter
        columns = np.array([(p.eps_a, p.eps_b, p.kappa, p.gamma, ra.temperature,
                             rb.temperature, ra.mu, rb.mu) for p, ra, rb in points],
                           dtype=float).T.copy()
        return cls.build(*columns[:4], columns[4:6].T.copy(), columns[6:8].T.copy(), stat)

    @classmethod
    def at(cls, p: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec) -> Cells:
        if ra.statistics is not rb.statistics:
            raise ConfigurationError("reservoirs must share statistics (both bose or both fermi)")
        return cls.build(np.float64(p.eps_a), np.float64(p.eps_b), np.float64(p.kappa),
                         np.float64(p.gamma), np.array([ra.temperature, rb.temperature], float),
                         np.array([ra.mu, rb.mu], float), ra.statistics)


def rate_arrays(c: Cells) -> RateSet:
    """Rate parameters of cells, as a RateSet over their cell axes."""
    eps = np.empty(c.theta.shape + (2,))
    eps[..., 1], eps[..., 0] = _transition(c.bar_eps, c.omega)
    # n[..., j, k]: reservoir j's occupation at eps_plus (k=0) and eps_minus (k=1)
    n = occupations(c.statistics, c.temperature[..., None], c.mu[..., None], eps[..., None, :])
    half = 0.5 * c.theta
    cos, sin = np.cos(half), np.sin(half)
    cos2, sin2 = cos * cos, sin * sin
    # spontaneous weights gamma * (angular factor) of (eps_plus, eps_minus);
    # reservoir A couples with (cos^2, sin^2), reservoir B with (sin^2, cos^2)
    spont = np.empty(c.theta.shape + (2, 2))
    spont[..., 0, 0] = spont[..., 1, 1] = c.gamma * cos2
    spont[..., 0, 1] = spont[..., 1, 0] = c.gamma * sin2
    half_sin = (0.5 * c.gamma * np.sin(c.theta))[..., None]
    coefficients = np.empty(c.theta.shape + (2, len(COEFFICIENTS)))
    coefficients[..., 0:2] = spont * n
    coefficients[..., 2] = half_sin * (n[..., 0] + n[..., 1])
    coefficients[..., 3] = half_sin * (n[..., 0] - n[..., 1])
    coefficients[..., 4:6] = spont
    coefficients[..., 6] = half_sin
    return RateSet(coefficients, c.theta, c.statistics)


def rate_set(p: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec) -> RateSet:
    """Rate parameters of one reservoir pair of equal statistics: rate_arrays
    at a single cell."""
    rs = rate_arrays(Cells.at(p, ra, rb))
    return RateSet(rs.coefficients, float(rs.theta), rs.statistics)
