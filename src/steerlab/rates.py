"""Reservoir occupation functions and the dissipative rate parameters.

The two reservoirs couple through sigma_x of their qubit, which in the energy
basis drives only two transition energies eps_minus and eps_plus.  All
dissipative matrix entries are built from the stimulated rates (p, q, s, t)
plus spontaneous weights; each carries a per-reservoir split so downstream
code can attribute currents to a single reservoir.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .model import DerivedParams, Phase, SystemParams, derive_params

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
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.statistics is Statistics.BOSE and self.mu != 0.0:
            raise ValueError("bosonic reservoirs must have mu = 0")


def occupation(r: ReservoirSpec, eps: float) -> float:
    """Mean occupation of a reservoir mode at energy eps.

    Bose: 1/(exp((eps-mu)/T) - 1), requires eps > 0 and rejects eps below
    1e-9*T where the occupation diverges.  Fermi: 1/(exp((eps-mu)/T) + 1),
    valid for any eps.
    """
    x = (eps - r.mu) / r.temperature
    if r.statistics is Statistics.BOSE:
        if eps <= BOSE_EPS_FLOOR * r.temperature:
            raise ValueError(
                f"bosonic occupation diverges: eps={eps} <= {BOSE_EPS_FLOOR}*T"
            )
        if x > 700.0:
            return math.exp(-x)
        return 1.0 / math.expm1(x)
    # logistic form keeps the Fermi tails accurate down to underflow
    if x >= 0:
        e = math.exp(-min(x, 745.0))
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(max(x, -745.0)))


@dataclass(frozen=True)
class TransitionEnergies:
    """The two sigma_x-driven transition energies, both strictly positive."""

    eps_minus: float
    eps_plus: float


def transition_energies(d: DerivedParams) -> TransitionEnergies:
    """Weak phase: (bar_eps - omega, bar_eps + omega); strong phase the lower
    one becomes omega - bar_eps."""
    eps_plus = d.bar_eps + d.omega
    if d.phase is Phase.WEAK:
        eps_minus = d.bar_eps - d.omega
    else:
        eps_minus = d.omega - d.bar_eps
    return TransitionEnergies(eps_minus=eps_minus, eps_plus=eps_plus)


@dataclass(frozen=True)
class RateSet:
    """Rate parameters entering the evolution matrices, with per-reservoir split.

    p = p_a + p_b and q = q_a + q_b are the stimulated rates at eps_plus and
    eps_minus.  s_j, t_j are the sum/difference combinations weighting the
    population<->coherence couplings.  The spont_* entries split the bare
    spontaneous-emission weight (total gamma per transition) between the
    reservoirs with the same angular factors as p and q.
    """

    p: float
    q: float
    s_a: float
    s_b: float
    t_a: float
    t_b: float
    p_a: float
    p_b: float
    q_a: float
    q_b: float
    spont_plus_a: float
    spont_plus_b: float
    spont_minus_a: float
    spont_minus_b: float
    theta: float
    statistics: Statistics


def rate_set(p: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec) -> RateSet:
    """Evaluate all rate parameters for a reservoir pair of equal statistics."""
    if ra.statistics is not rb.statistics:
        raise ConfigurationError("reservoirs must share statistics (both bose or both fermi)")
    d = derive_params(p)
    tr = transition_energies(d)
    ga = gb = p.gamma
    c2 = math.cos(d.theta / 2) ** 2
    s2 = math.sin(d.theta / 2) ** 2
    sin_th = math.sin(d.theta)
    na_plus = occupation(ra, tr.eps_plus)
    na_minus = occupation(ra, tr.eps_minus)
    nb_plus = occupation(rb, tr.eps_plus)
    nb_minus = occupation(rb, tr.eps_minus)
    p_a = ga * c2 * na_plus
    p_b = gb * s2 * nb_plus
    q_a = ga * s2 * na_minus
    q_b = gb * c2 * nb_minus
    return RateSet(
        p=p_a + p_b,
        q=q_a + q_b,
        s_a=0.5 * ga * sin_th * (na_plus + na_minus),
        s_b=0.5 * gb * sin_th * (nb_plus + nb_minus),
        t_a=0.5 * ga * sin_th * (na_plus - na_minus),
        t_b=0.5 * gb * sin_th * (nb_plus - nb_minus),
        p_a=p_a,
        p_b=p_b,
        q_a=q_a,
        q_b=q_b,
        spont_plus_a=ga * c2,
        spont_plus_b=gb * s2,
        spont_minus_a=ga * s2,
        spont_minus_b=gb * c2,
        theta=d.theta,
        statistics=ra.statistics,
    )
