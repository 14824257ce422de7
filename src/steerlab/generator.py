"""Assembly of the 6x6 evolution matrices acting on the nonzero state entries.

In the energy basis the reduced state keeps only six entries, ordered

    (rho_gg, rho_e1e1, rho_e2e2, rho_e3e3, rho_e1e2, rho_e2e1).

The generator splits additively into a coherent part (the +/- i*Omega entries,
Omega = 2*omega) and one dissipative part per reservoir, built entry by entry
from the rate parameters.  Summed over the two reservoirs the parts reproduce
the printed weak-bosonic, weak-fermionic and strong-bosonic matrices; the
split itself assigns the spontaneous weights with the same angular factors as
the stimulated rates (see rates.rate_set).

Each part is linear in its reservoir's rate coefficients, so it is evaluated
once, on unit coefficients, into constant templates; a generator is then the
coefficient-weighted sum of its setup's templates.  `build_generator` builds
N generators at once over a leading cell axis; a single point is the
one-cell batch.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .model import eigensystem
from .rates import COEFFICIENTS, Cells, Statistics, rate_set


class Setup(enum.Enum):
    WEAK_BOSE = "weak-bose"
    WEAK_FERMI = "weak-fermi"
    STRONG_BOSE = "strong-bose"


def _weak_bose_part(pj, qj, sj, tj, wp, wm, sign):
    gj = wp + wm
    m = np.zeros((6, 6))
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
    m = np.zeros((6, 6))
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


# setup codes index this tuple and the first axis of _TEMPLATES
SETUPS = (Setup.WEAK_BOSE, Setup.WEAK_FERMI, Setup.STRONG_BOSE)


def _templates() -> np.ndarray:
    """(setup, reservoir, coefficient, 6, 6): each part on unit coefficients.

    Coefficients follow rates.COEFFICIENTS; reservoir A carries sign -1 and
    B sign +1 in the weak-phase couplings.
    """
    out = np.zeros((len(SETUPS), 2, len(COEFFICIENTS), 6, 6))
    for k, (pj, qj, sj, tj, wp, wm, uj) in enumerate(np.eye(len(COEFFICIENTS))):
        for j, sign in enumerate((-1.0, 1.0)):
            out[0, j, k] = _weak_bose_part(pj, qj, sj, tj, wp, wm, sign)
            out[1, j, k] = _weak_fermi_part(pj, qj, sj, wp, wm, sign)
            out[2, j, k] = _strong_bose_part(pj, qj, sj, tj, wp, wm, uj)
    out.setflags(write=False)
    return out


_TEMPLATES = _templates()


def setup_codes(strong: np.ndarray, statistics: Statistics) -> np.ndarray:
    """Index into SETUPS per cell; the strong-coupling fermionic setup is rejected."""
    if statistics is Statistics.FERMI:
        if np.count_nonzero(strong):
            raise ConfigurationError(
                "strong-coupling fermionic setup unsupported (tunnelling is weak)"
            )
        return np.ones(np.shape(strong), dtype=int)
    return np.where(strong, 2, 0)


class GeneratorArrays(NamedTuple):
    """N generators over the leading cell axis, with what later stages need.

    total = coherent part + parts[:, 0] + parts[:, 1], where the coherent
    part holds only the +/- i*Omega entries of the coherence pair.
    """

    total: np.ndarray      # (N, 6, 6)
    parts: np.ndarray      # (N, 2, 6, 6): reservoir A, reservoir B
    energies: np.ndarray   # (N, 4)
    vectors: np.ndarray    # (N, 4, 4)
    numbers: np.ndarray    # (N, 4) excitation numbers
    cells: Cells


def build_generator(cells: Cells) -> GeneratorArrays:
    """Build the evolution matrices of N cells for the setup of each cell.

    The strong-coupling fermionic combination is not supported.
    """
    setup = setup_codes(cells.strong, cells.statistics)
    energies, vectors, numbers = eigensystem(cells.bar_eps, cells.omega, cells.theta,
                                             cells.strong)
    parts = (rate_set(cells)[..., None, None] * _TEMPLATES[setup]).sum(axis=-3)
    total = parts[..., 0, :, :] + parts[..., 1, :, :] + 0j
    omega_entry = 2.0 * cells.omega
    total[..., 4, 4] += 1j * omega_entry
    total[..., 5, 5] -= 1j * omega_entry
    return GeneratorArrays(total, parts, energies, vectors, numbers, cells)


# flat (4x4) positions of the six entries
_VEC6_FLAT = [0, 5, 10, 15, 6, 9]


def to_vector6(rho_energy: np.ndarray) -> tuple[np.ndarray, float]:
    """Project an energy-basis 4x4 matrix onto the 6-entry representation.

    Returns the vector and the largest magnitude among the discarded entries
    (g<->e and e<->e3 coherences, which the dynamics never populates).
    """
    m = np.asarray(rho_energy, dtype=complex).reshape(16)
    return m[_VEC6_FLAT], float(np.max(np.abs(np.delete(m, _VEC6_FLAT))))


def from_vector6(v: np.ndarray) -> np.ndarray:
    """Embed 6-entry vectors (..., 6) into energy-basis 4x4 matrices (..., 4, 4)."""
    v = np.asarray(v, dtype=complex)
    m = np.zeros(v.shape[:-1] + (16,), dtype=complex)
    m[..., _VEC6_FLAT] = v
    return m.reshape(v.shape[:-1] + (4, 4))


# entry order of the Hermitian conjugate of a 6-entry vector
_VEC6_ADJOINT = [0, 1, 2, 3, 5, 4]


def hermitize_vector6(v: np.ndarray) -> np.ndarray:
    """Real populations and a conjugate coherence pair, from their mean; (..., 6)."""
    return 0.5 * (v + v[..., _VEC6_ADJOINT].conj())
