"""Reservoir occupation functions and the dissipative rate parameters.

The two reservoirs couple through sigma_x of their qubit, which in the energy
basis drives only two transition energies eps_minus and eps_plus.  All
dissipative matrix entries are built from the stimulated rates (p, q, s, t)
plus spontaneous weights; each carries a per-reservoir split so downstream
code can attribute currents to a single reservoir.

Rates are evaluated for N cells at once, over a leading cell axis
(`rate_set`); a single point is the one-cell batch.  `Cells.build` is the one
gate of every input: it checks each rule of a cell once per build, and no
later stage checks again.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import SystemParams, derive_params, eigen_weights

# Bose occupation rejected below this multiple of T (divergence guard)
BOSE_EPS_FLOOR = 1e-9


class Statistics(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"


class ReservoirSpec(NamedTuple):
    """One reservoir: statistics, temperature (k_B = 1) and chemical potential.

    Bosonic reservoirs carry mu = 0.  A record only: Cells.build checks the
    values of the cells it builds from it.
    """

    statistics: Statistics
    temperature: float
    mu: float = 0.0


def occupations(statistics: Statistics, temperature: np.ndarray, mu: np.ndarray,
                eps: np.ndarray) -> np.ndarray:
    """Mean occupations of reservoir modes at energies eps, elementwise.

    Bose: 1/(exp((eps-mu)/T) - 1), requires eps > 0.  Fermi:
    1/(exp((eps-mu)/T) + 1), valid for any eps.  Rejects a temperature so
    small that 1/T or (eps-mu)/T overflows, since the transport's 1/T would
    then be inf, then a Bose eps at or below BOSE_EPS_FLOOR*T, where the
    occupation diverges; each names its first entry in C order.
    """
    x = scaled_energy(temperature, mu, eps)
    if statistics is Statistics.BOSE:
        low = eps <= BOSE_EPS_FLOOR * temperature
        if np.count_nonzero(low):
            raise ValueError(
                f"bosonic occupation diverges: eps={np.broadcast_to(eps, low.shape)[low][0]}"
                f" <= {BOSE_EPS_FLOOR}*T"
            )
        # exp(-x) is the occupation only where expm1(x) would overflow
        if x.max(initial=0.0) <= 700.0:
            return 1.0 / np.expm1(x)
        return np.where(x > 700.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700.0)))
    # logistic form keeps the Fermi tails accurate down to underflow
    e = np.exp(-np.minimum(np.abs(x), 745.0))
    return np.where(x >= 0, e, 1.0) / (1.0 + e)


def scaled_energy(temperature: np.ndarray, mu: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(eps - mu) / T, rejecting a T for which 1/T or (eps-mu)/T overflows."""
    with np.errstate(over="ignore"):
        x = (eps - mu) / temperature
        overflow = ~(np.isfinite(x) & np.isfinite(1.0 / temperature))
    if np.count_nonzero(overflow):
        raise ValueError(
            f"temperature too small: T={np.broadcast_to(temperature, overflow.shape)[overflow][0]}"
            " makes 1/T or (eps-mu)/T overflow")
    return x


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


def check_inputs(columns: np.ndarray, statistics: Statistics) -> None:
    """The input rules of Cells.build on its (..., 8) columns (eps_a, eps_b,
    kappa, gamma, T_A, T_B, mu_A, mu_B), in this order: eps_a, eps_b, kappa
    and gamma finite; eps_a >= eps_b > 0; kappa > 0; gamma > 0; then for
    reservoir A and then B: T and mu finite, T > 0, and mu = 0 if bosonic.

    The first rule that any cell breaks raises, naming the first such cell
    in C order.
    """
    bose = statistics is Statistics.BOSE
    # a valid batch costs these whole-batch tests alone
    if (np.isfinite(columns).all() and (columns[..., 0] >= columns[..., 1]).all()
            and (columns[..., 1:6] > 0).all() and not (bose and columns[..., 6:].any())):
        return
    finite = np.isfinite(columns)
    eps_a, eps_b, kappa, gamma = np.moveaxis(columns[..., :4], -1, 0)
    rules = [(~finite[..., i], f"{name} must be finite, got {{{i}}}")
             for i, name in enumerate(("eps_a", "eps_b", "kappa", "gamma"))]
    rules += [(~((eps_a >= eps_b) & (eps_b > 0)),
               "require eps_a >= eps_b > 0, got eps_a={0}, eps_b={1}"),
              (kappa <= 0, "kappa must be > 0, got {2}"),
              (gamma <= 0, "gamma must be > 0, got {3}")]
    for t in (4, 5):
        rules += [(~(finite[..., t] & finite[..., t + 2]),
                   f"temperature and mu must be finite, got {{{t}}} and {{{t + 2}}}"),
                  (columns[..., t] <= 0, f"temperature must be > 0, got {{{t}}}"),
                  ((columns[..., t + 2] != 0) & bose, "bosonic reservoirs must have mu = 0")]
    for broken, message in rules:
        if broken.any():
            cell = columns[np.unravel_index(np.argmax(broken), broken.shape)]
            raise ValueError(message.format(*cell.tolist()))


WEAK_BOSE, WEAK_FERMI, STRONG_BOSE = range(3)  # Cells.setup codes, in generator._TEMPLATES order


def _setup_codes(strong: np.ndarray, statistics: Statistics) -> np.ndarray:
    """The setup code of each cell (WEAK_BOSE, WEAK_FERMI or STRONG_BOSE);
    the strong-coupling fermionic setup is rejected."""
    if statistics is Statistics.FERMI:
        if np.count_nonzero(strong):
            raise ConfigurationError(
                "strong-coupling fermionic setup unsupported (tunnelling is weak)"
            )
        return np.full(np.shape(strong), WEAK_FERMI)
    return np.where(strong, STRONG_BOSE, WEAK_BOSE)


@dataclass(frozen=True, eq=False)
class Cells:
    """Per-cell inputs of the array kernels, over leading cell axes.

    The derived parameters of each cell's system (model.derive_params and
    eigen_weights) come with its setup code (WEAK_BOSE, WEAK_FERMI or
    STRONG_BOSE, the strong phase), its coupling constant gamma,
    its reservoirs' temperature and mu, the latter two as (..., 2) arrays:
    reservoir A, reservoir B, and their occupations (..., 2, 2): [..., j, k]
    is reservoir j's at eps_plus (k=0) and eps_minus (k=1).  All cells share
    one statistics.  `build` takes parameters that broadcast together (a
    sweep builds its grid on one row-major cell axis, and slicing it gives a
    block of rows; a threshold batch is a kappa vector) and `of` stacks N
    points along one axis; a single point is `Cells.of([(p, ra, rb)])`, and
    its callers read row 0 of every stage.  Cells compare and hash by
    identity.
    """

    bar_eps: np.ndarray
    omega: np.ndarray
    theta: np.ndarray
    eigen_weights: np.ndarray
    setup: np.ndarray
    gamma: np.ndarray
    temperature: np.ndarray
    mu: np.ndarray
    occupations: np.ndarray
    statistics: Statistics

    @classmethod
    def build(cls, eps_a, eps_b, kappa, gamma, t_a, t_b, mu_a, mu_b,
              statistics: Statistics) -> Cells:
        """Cells of the parameters, each a scalar or an array, over their
        broadcast shape: the gate of every cell.

        Each rule is checked once over all cells, in this order, and the
        first one broken raises at its first cell in C order: check_inputs,
        the level-crossing exclusion of model.derive_params, the
        strong-coupling fermionic rejection, then the temperature and Bose
        floors of occupations.  gamma > 0.1*eps_b warns.
        """
        values = (eps_a, eps_b, kappa, gamma, t_a, t_b, mu_a, mu_b)
        # one buffer, one parameter per entry of its last axis
        columns = np.empty(np.broadcast(*values).shape + (len(values),))
        for i, v in enumerate(values):
            columns[..., i] = v
        return cls._of_columns(columns, statistics)

    @classmethod
    def of(cls, points: Sequence[tuple[SystemParams, ReservoirSpec, ReservoirSpec]]) -> Cells:
        """Cells of N points along one axis, checked as build checks them."""
        stat = shared_statistics([r for _, ra, rb in points for r in (ra, rb)])
        return cls._of_columns(np.array([(*p, ra.temperature, rb.temperature, ra.mu, rb.mu)
                                         for p, ra, rb in points], dtype=float), stat)

    @classmethod
    def _of_columns(cls, columns: np.ndarray, statistics: Statistics) -> Cells:
        """The gate of build, on its (..., 8) buffer of parameters."""
        check_inputs(columns, statistics)
        if np.count_nonzero(columns[..., 3] > 0.1 * columns[..., 1]):
            warnings.warn("gamma > 0.1*eps_b: weak system-reservoir coupling assumption "
                          "is questionable", stacklevel=3)
        bar_eps, _, omega, theta, strong = derive_params(columns[..., 0], columns[..., 1],
                                                      columns[..., 2])
        setup = _setup_codes(strong, statistics)
        temperature, mu = columns[..., 4:6], columns[..., 6:8]
        eps = np.empty(theta.shape + (2,))
        eps[..., 1], eps[..., 0] = transition_energies(bar_eps, omega)
        n = occupations(statistics, temperature[..., None], mu[..., None], eps[..., None, :])
        return cls(bar_eps, omega, theta, eigen_weights(theta), setup, columns[..., 3],
                   temperature, mu, n, statistics)

    def __getitem__(self, index) -> Cells:
        """The cells at index of the leading cell axes, e.g. a block of a grid."""
        return Cells(self.bar_eps[index], self.omega[index], self.theta[index],
                     self.eigen_weights[index], self.setup[index], self.gamma[index],
                     self.temperature[index], self.mu[index], self.occupations[index],
                     self.statistics)


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
    n = c.occupations
    cos2, sin2 = c.eigen_weights[..., 1] ** 2, c.eigen_weights[..., 2] ** 2
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
