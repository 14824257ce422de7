"""Assembly of the 6x6 evolution matrices acting on the nonzero state entries.

In the energy basis the reduced state keeps only six entries, ordered

    (rho_gg, rho_e1e1, rho_e2e2, rho_e3e3, rho_e1e2, rho_e2e1).

The generator splits additively into a coherent part (the +/- i*Omega entries,
Omega = 2*omega) and one dissipative part per reservoir, built entry by entry
from the rate parameters.  Summed over the two reservoirs the parts reproduce
the printed weak-bosonic, weak-fermionic and strong-bosonic matrices; the
split itself assigns the spontaneous weights with the same angular factors as
the stimulated rates (see rates.RateSet).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import DerivedParams, EigenSystem, Phase, SystemParams, derive_params, eigensystem
from .rates import RateSet, ReservoirSpec, Statistics, rate_set

VEC6_TOL = 1e-12


class Setup(enum.Enum):
    WEAK_BOSE = "weak-bose"
    WEAK_FERMI = "weak-fermi"
    STRONG_BOSE = "strong-bose"


@dataclass(frozen=True)
class Generator:
    """Evolution matrix with its additive decomposition and build context."""

    total: np.ndarray
    coherent_part: np.ndarray
    res_a_part: np.ndarray
    res_b_part: np.ndarray
    setup: Setup
    params: SystemParams
    derived: DerivedParams
    eig: EigenSystem
    rates: RateSet
    reservoir_a: ReservoirSpec
    reservoir_b: ReservoirSpec


def _weak_bose_part(pj, qj, sj, tj, wp, wm, sign):
    gj = wp + wm
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = -2 * (pj + qj)
    m[0, 1] = 2 * (wm + qj)
    m[0, 2] = 2 * (wp + pj)
    m[1, 0] = 2 * qj
    m[1, 1] = -2 * (wm + qj + pj)
    m[1, 3] = 2 * (wp + pj)
    m[2, 0] = 2 * pj
    m[2, 2] = -2 * (wp + pj + qj)
    m[2, 3] = 2 * (wm + qj)
    m[3, 1] = 2 * pj
    m[3, 2] = 2 * qj
    m[3, 3] = -2 * (gj + pj + qj)
    m[0, 4] = m[0, 5] = sign * sj
    m[1, 4] = m[1, 5] = -sign * tj
    m[2, 4] = m[2, 5] = sign * tj
    m[3, 4] = m[3, 5] = -sign * sj
    m[4, 0] = m[5, 0] = sign * sj
    m[4, 1] = m[5, 1] = sign * tj
    m[4, 2] = m[5, 2] = -sign * tj
    m[4, 3] = m[5, 3] = -sign * sj
    m[4, 4] = m[5, 5] = -(gj + 2 * pj + 2 * qj)
    return m


def _weak_fermi_part(pj, qj, sj, wp, wm, sign):
    gj = wp + wm
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = -2 * (pj + qj)
    m[0, 1] = 2 * (wm - qj)
    m[0, 2] = 2 * (wp - pj)
    m[1, 0] = 2 * qj
    m[1, 1] = -2 * (wm - qj + pj)
    m[1, 3] = 2 * (wp - pj)
    m[2, 0] = 2 * pj
    m[2, 2] = -2 * (wp - pj + qj)
    m[2, 3] = 2 * (wm - qj)
    m[3, 1] = 2 * pj
    m[3, 2] = 2 * qj
    m[3, 3] = -2 * (gj - pj - qj)
    m[0, 4] = m[0, 5] = -sign * sj
    m[1, 4] = m[1, 5] = sign * sj
    m[2, 4] = m[2, 5] = sign * sj
    m[3, 4] = m[3, 5] = -sign * sj
    m[4, :4] = m[5, :4] = sign * sj
    m[4, 4] = m[5, 5] = -gj
    return m


def _strong_bose_part(pj, qj, sj, tj, wp, wm, theta_sin_half_gj):
    # population block identical to the weak bosonic one; the couplings become
    # sums augmented by spontaneous sin(theta) weights
    m = _weak_bose_part(pj, qj, sj, tj, wp, wm, sign=0.0)
    uj = theta_sin_half_gj  # (gamma_j/2) sin(theta)
    m[0, 4] = m[0, 5] = -(sj + 2 * uj)
    m[1, 4] = m[1, 5] = tj + uj
    m[2, 4] = m[2, 5] = -tj + uj
    m[3, 4] = m[3, 5] = sj
    m[4, 0] = m[5, 0] = -sj
    m[4, 1] = m[5, 1] = -tj + uj
    m[4, 2] = m[5, 2] = tj + uj
    m[4, 3] = m[5, 3] = sj + 2 * uj
    return m


def build_generator(p: SystemParams, ra: ReservoirSpec, rb: ReservoirSpec) -> Generator:
    """Build the evolution matrix for the setup selected by (phase, statistics).

    The strong-coupling fermionic combination is not supported.
    """
    d = derive_params(p)
    rs = rate_set(p, ra, rb)
    if d.phase is Phase.STRONG and rs.statistics is Statistics.FERMI:
        raise ConfigurationError(
            "strong-coupling fermionic setup unsupported (tunnelling is weak)"
        )
    eig = eigensystem(p)
    if rs.statistics is Statistics.FERMI:
        setup = Setup.WEAK_FERMI
        part_a = _weak_fermi_part(rs.p_a, rs.q_a, rs.s_a, rs.spont_plus_a, rs.spont_minus_a, -1.0)
        part_b = _weak_fermi_part(rs.p_b, rs.q_b, rs.s_b, rs.spont_plus_b, rs.spont_minus_b, +1.0)
    elif d.phase is Phase.WEAK:
        setup = Setup.WEAK_BOSE
        part_a = _weak_bose_part(rs.p_a, rs.q_a, rs.s_a, rs.t_a, rs.spont_plus_a, rs.spont_minus_a, -1.0)
        part_b = _weak_bose_part(rs.p_b, rs.q_b, rs.s_b, rs.t_b, rs.spont_plus_b, rs.spont_minus_b, +1.0)
    else:
        setup = Setup.STRONG_BOSE
        u = 0.5 * p.gamma * np.sin(d.theta)
        part_a = _strong_bose_part(rs.p_a, rs.q_a, rs.s_a, rs.t_a, rs.spont_plus_a, rs.spont_minus_a, u)
        part_b = _strong_bose_part(rs.p_b, rs.q_b, rs.s_b, rs.t_b, rs.spont_plus_b, rs.spont_minus_b, u)
    coherent = np.zeros((6, 6), dtype=complex)
    omega_entry = 2.0 * d.omega
    coherent[4, 4] = 1j * omega_entry
    coherent[5, 5] = -1j * omega_entry
    total = coherent + part_a + part_b
    for m in (total, coherent, part_a, part_b):
        m.setflags(write=False)
    return Generator(
        total=total,
        coherent_part=coherent,
        res_a_part=part_a,
        res_b_part=part_b,
        setup=setup,
        params=p,
        derived=d,
        eig=eig,
        rates=rs,
        reservoir_a=ra,
        reservoir_b=rb,
    )


def apply_generator(g: Generator, v: np.ndarray) -> np.ndarray:
    """Time derivative of a 6-entry state vector: total @ v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (6,):
        raise ValueError(f"state vector must have shape (6,), got {v.shape}")
    return g.total @ v


def reservoir_part(g: Generator, which: str) -> np.ndarray:
    """Dissipative part attributed to reservoir 'A' or 'B'."""
    key = which.upper()
    if key == "A":
        return g.res_a_part
    if key == "B":
        return g.res_b_part
    raise ValueError(f"reservoir must be 'A' or 'B', got {which!r}")


def to_vector6(rho_energy: np.ndarray) -> tuple[np.ndarray, float]:
    """Project an energy-basis 4x4 matrix onto the 6-entry representation.

    Returns the vector and the largest magnitude among the discarded entries
    (g<->e and e<->e3 coherences, which the dynamics never populates).
    """
    m = np.asarray(rho_energy, dtype=complex)
    v = np.array([m[0, 0], m[1, 1], m[2, 2], m[3, 3], m[1, 2], m[2, 1]])
    mask = np.ones((4, 4), dtype=bool)
    mask[np.diag_indices(4)] = False
    mask[1, 2] = mask[2, 1] = False
    leak = float(np.max(np.abs(m[mask])))
    return v, leak


def from_vector6(v: np.ndarray) -> np.ndarray:
    """Embed a 6-entry vector into the energy-basis 4x4 matrix."""
    v = np.asarray(v, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = v[0], v[1], v[2], v[3]
    m[1, 2], m[2, 1] = v[4], v[5]
    return m


def hermitize_vector6(v: np.ndarray) -> np.ndarray:
    """Real populations and a conjugate coherence pair, from their mean."""
    coh = 0.5 * (v[4] + np.conj(v[5]))
    return np.array([v[0].real, v[1].real, v[2].real, v[3].real, coh, np.conj(coh)],
                    dtype=complex)


def validate_state_vector6(v: np.ndarray, tol: float = VEC6_TOL) -> None:
    """Check the representation invariants of a physical 6-entry state."""
    v = np.asarray(v, dtype=complex)
    pops = v[:4]
    if np.max(np.abs(pops.imag)) > tol:
        raise ValueError("population entries must be real within 1e-12")
    if abs(pops.real.sum() - 1.0) > tol:
        raise ValueError("population entries must sum to 1 within 1e-12")
    if abs(v[5] - np.conj(v[4])) > tol:
        raise ValueError("entry 6 must equal conj(entry 5) within 1e-12")
