"""Reservoir occupation functions and the dissipative rate parameters.

The two reservoirs couple through sigma_x of their qubit, which in the energy
basis drives only two transition energies eps_minus and eps_plus.  All
dissipative matrix entries are built from the stimulated rates (p, q, s, t)
plus spontaneous weights; each carries a per-reservoir split so downstream
code can attribute currents to a single reservoir.

Rates are evaluated for N cells at once, over a leading cell axis
(`rate_set`); a single point is the one-cell batch.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .model import SystemParams, derive_params

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
    valid for any eps.  Both reject a temperature so small that 1/T or
    (eps-mu)/T overflows, since the transport's 1/T would then be inf.
    """
    with np.errstate(over="ignore"):
        x = (eps - mu) / temperature
        overflow = ~(np.isfinite(x) & np.isfinite(1.0 / temperature))
    if np.count_nonzero(overflow):
        raise ValueError(
            f"temperature too small: T={np.broadcast_to(temperature, overflow.shape)[overflow][0]}"
            " makes 1/T or (eps-mu)/T overflow")
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


def transition_energies(bar_eps, omega):
    """(eps_minus, eps_plus), the two sigma_x-driven transition energies,
    elementwise: the lower one is bar_eps - omega in the weak phase and
    omega - bar_eps in the strong phase, i.e. |bar_eps - omega|."""
    return abs(bar_eps - omega), bar_eps + omega


def shared_statistics(reservoirs: Sequence[ReservoirSpec]) -> Statistics:
    """The statistics of reservoirs, which must all share it."""
    stat = reservoirs[0].statistics
    if any(r.statistics is not stat for r in reservoirs):
        raise ConfigurationError("reservoirs must share statistics (both bose or both fermi)")
    return stat


# rate coefficients of one reservoir, in the order of rate_set's last axis
COEFFICIENTS = ("p", "q", "s", "t", "spont_plus", "spont_minus", "spont_coh")


@dataclass(frozen=True, eq=False)
class Cells:
    """Per-cell inputs of the array kernels, over leading cell axes.

    The derived parameters of each cell's system (model.derive_params) come
    with its coupling constant gamma and its reservoirs' temperature and mu,
    the latter two as (..., 2) arrays: reservoir A, reservoir B.  All cells
    share one statistics.  `build` takes parameters that broadcast together
    (a sweep builds its (ny, nx) grid from its axis vectors, and indexing it
    gives a row; a threshold batch is a kappa vector) and `of` stacks N
    points along one axis; a single point is `Cells.of([(p, ra, rb)])`, and
    its callers read row 0 of every stage.
    Cells compare and hash by identity.
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
    def build(cls, eps_a, eps_b, kappa, gamma, t_a, t_b, mu_a, mu_b,
              statistics: Statistics) -> Cells:
        """Cells of the parameters, each a scalar or an array, over their
        broadcast shape, derived by model.derive_params like every cell."""
        values = (eps_a, eps_b, kappa, gamma, t_a, t_b, mu_a, mu_b)
        # one buffer, one parameter per entry of its last axis
        columns = np.empty(np.broadcast(*values).shape + (len(values),))
        for i, v in enumerate(values):
            columns[..., i] = v
        bar_eps, _, omega, theta, strong = derive_params(columns[..., 0], columns[..., 1],
                                                      columns[..., 2])
        return cls(bar_eps, omega, theta, strong, columns[..., 3], columns[..., 4:6],
                   columns[..., 6:8], statistics)

    @classmethod
    def of(cls, points: Sequence[tuple[SystemParams, ReservoirSpec, ReservoirSpec]]) -> Cells:
        """Cells of N points along one axis."""
        stat = shared_statistics([r for _, ra, rb in points for r in (ra, rb)])
        columns = np.array([(p.eps_a, p.eps_b, p.kappa, p.gamma, ra.temperature,
                             rb.temperature, ra.mu, rb.mu) for p, ra, rb in points], dtype=float)
        return cls.build(*columns.T, stat)

    def __getitem__(self, index) -> Cells:
        """The cells at index of the leading cell axes, e.g. one row of a grid."""
        return Cells(self.bar_eps[index], self.omega[index], self.theta[index],
                     self.strong[index], self.gamma[index], self.temperature[index],
                     self.mu[index], self.statistics)


def cell_occupations(c: Cells) -> np.ndarray:
    """Occupations (..., 2, 2) of cells: [..., j, k] is reservoir j's at
    eps_plus (k=0) and eps_minus (k=1); see occupations."""
    eps = np.empty(c.theta.shape + (2,))
    eps[..., 1], eps[..., 0] = transition_energies(c.bar_eps, c.omega)
    return occupations(c.statistics, c.temperature[..., None], c.mu[..., None], eps[..., None, :])


def rate_set(c: Cells) -> np.ndarray:
    """Rate coefficients of cells, (..., 2, len(COEFFICIENTS)) over their cell axes.

    [..., j, :] holds reservoir j's (p_j, q_j, s_j, t_j, spont_plus_j,
    spont_minus_j, spont_coh_j) in the order of COEFFICIENTS; j = 0 is
    reservoir A.  p = p_a + p_b and q = q_a + q_b are the stimulated rates at
    eps_plus and eps_minus.  s_j, t_j are the sum/difference combinations
    weighting the population<->coherence couplings.  The spontaneous weights
    split the bare weight (total gamma per transition) between the reservoirs
    with the same angular factors as p and q; spont_coh_j = (gamma/2)
    sin(theta) is the spontaneous coherence weight of the strong phase.
    """
    n = cell_occupations(c)
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
    return coefficients
