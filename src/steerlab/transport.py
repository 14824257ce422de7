"""Steady-state currents per reservoir and the entropy production rate.

Currents are evaluated in the energy basis, where both the Hamiltonian and
the excitation-number operator are diagonal, by tracing the per-reservoir
dissipator action against the observable.  Positive current means flow from
that reservoir into the system.  `transport_arrays` evaluates N cells at once
over a leading cell axis; `transport_report` runs it at a single cell.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .generator import Generator, build_generator
from .model import SystemParams
from .rates import Cells, ReservoirSpec, Statistics
from .steady import SteadyResult, steady_state

CURRENT_RESIDUAL_TOL = 1e-8


class Observable(enum.Enum):
    ENERGY = "energy"
    PARTICLE_NUMBER = "particle-number"


@dataclass(frozen=True)
class TransportReport:
    """Per-reservoir currents and entropy production rate.

    current_a + current_b = 0 in any steady state (continuity); sigma
    vanishes at equilibrium and is nonnegative otherwise.
    """

    current_a: float
    current_b: float
    sigma: float
    observable: Observable


def transport_arrays(parts: np.ndarray, energies: np.ndarray, numbers: np.ndarray,
                     cells: Cells, vector6: np.ndarray, residual: np.ndarray):
    """(current_a, current_b, sigma) of steady states over leading cell axes.

    parts (..., 2, 6, 6) are the dissipative parts of reservoirs A and B;
    energies and numbers (..., 4) the energy-basis eigenvalues of H and of
    the excitation number.

    Reservoir j moves the populations at the rate d_j = (D_j v)[:4], which
    carries the energy current J^E_j = d_j . E and the particle current
    J^N_j = d_j . N.  The reported current is J^E (bosonic) or J^N
    (fermionic).  The entropy production is
    sigma = -sum_j (J^E_j - mu_j J^N_j) / T_j, evaluated with continuity
    (J_a = -J_b) as J^E_B (1/T_A - 1/T_B) + J^N_B (mu_B/T_B - mu_A/T_A).
    """
    bad = residual > CURRENT_RESIDUAL_TOL
    if np.count_nonzero(bad):
        raise ValueError(
            f"state residual {np.max(residual):.3g} too large for a steady state"
        )
    # the parts are real, so Re(D_j v) = D_j Re(v)
    d = (parts[..., :4, :] @ vector6.real[..., None, :, None])[..., 0]
    je = (d * energies[..., None, :]).sum(axis=-1)
    jn = (d * numbers[..., None, :]).sum(axis=-1)
    t, mu = cells.temperature, cells.mu
    sigma = (je[..., 1] * (1.0 / t[..., 0] - 1.0 / t[..., 1])
             + jn[..., 1] * (mu[..., 1] / t[..., 1] - mu[..., 0] / t[..., 0]))
    current = je if cells.statistics is Statistics.BOSE else jn
    return current[..., 0], current[..., 1], sigma


def transport_report(g: Generator, rho_ss: SteadyResult) -> TransportReport:
    """Steady currents and the entropy production rate of one generator:
    transport_arrays at a single cell."""
    current_a, current_b, sigma = transport_arrays(
        np.stack([g.res_a_part, g.res_b_part]), g.eig.energies, g.eig.number_eigenvalues(),
        Cells.at(g.params, g.reservoir_a, g.reservoir_b), rho_ss.vector6,
        np.float64(rho_ss.residual))
    observable = (Observable.ENERGY if g.rates.statistics is Statistics.BOSE
                  else Observable.PARTICLE_NUMBER)
    return TransportReport(float(current_a), float(current_b), float(sigma), observable)


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
    t_lo = base.temperature - 0.5 * delta
    t_hi = base.temperature + 0.5 * delta
    forward = _heat_current_b(p, t_lo, t_hi)   # T_B > T_A
    backward = _heat_current_b(p, t_hi, t_lo)  # T_A > T_B
    return abs(forward) / abs(backward)


def _heat_current_b(p: SystemParams, t_a: float, t_b: float) -> float:
    ra = ReservoirSpec(Statistics.BOSE, t_a)
    rb = ReservoirSpec(Statistics.BOSE, t_b)
    g = build_generator(p, ra, rb)
    return transport_report(g, steady_state(g)).current_b
