"""Assembly of the 6x6 evolution matrices acting on the nonzero state entries.

In the energy basis the reduced state keeps only six entries, ordered

    (rho_gg, rho_e1e1, rho_e2e2, rho_e3e3, rho_e1e2, rho_e2e1).

The generator splits additively into a coherent part (the +/- i*Omega entries,
Omega = 2*omega) and one dissipative part per reservoir.  One rule builds every
part: a population block shared by all setups, in which fermions flip the sign
of the stimulated terms, plus the coherence pair's coupling column and row
from a per-setup table.  Summed over the two reservoirs the parts reproduce
the printed weak-bosonic, weak-fermionic and strong-bosonic matrices; the
split itself assigns the spontaneous weights with the same angular factors as
the stimulated rates (see rates.rate_set).

Each part is linear in its reservoir's rate coefficients, so it is evaluated
once, on unit coefficients, into constant templates; a generator is then the
coefficient-weighted sum of its setup's templates, one einsum per setup in a
batch that adds them in order (a BLAS matmul may not).  `build_generator`
builds N generators at once over a leading cell axis; a single point is the
one-cell batch.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .model import eigensystem
from .rates import COEFFICIENTS, Cells, rate_set


class Setup(enum.Enum):
    WEAK_BOSE = "weak-bose"
    WEAK_FERMI = "weak-fermi"
    STRONG_BOSE = "strong-bose"


# Cells.setup codes index this tuple and the first axis of _TEMPLATES
SETUPS = (Setup.WEAK_BOSE, Setup.WEAK_FERMI, Setup.STRONG_BOSE)


def _part(setup, sign, p, q, s, t, wp, wm, u):
    """One reservoir's dissipative part of setup's generator, linear in the
    rate coefficients p, q, s, t, wp, wm and u (rates.COEFFICIENTS).

    sign is -1 for reservoir A and +1 for B in the weak-phase couplings; u is
    the strong phase's spontaneous coherence weight (gamma_j/2) sin(theta).
    """
    z = -1.0 if setup is Setup.WEAK_FERMI else 1.0
    g = wp + wm
    m = np.zeros((6, 6))
    m[:4, :4] = [[-2 * (p + q), 2 * (wm + z * q), 2 * (wp + z * p), 0],
                 [2 * q, -2 * (wm + z * q + p), 0, 2 * (wp + z * p)],
                 [2 * p, 0, -2 * (wp + z * p + q), 2 * (wm + z * q)],
                 [0, 2 * p, 2 * q, -2 * (g + z * (p + q))]]
    m[4, 4] = m[5, 5] = -(g + (1 + z) * (p + q))
    # (column, row) of the coupling table; only the weak-phase ones carry sign
    column, row = (1.0 if setup is Setup.STRONG_BOSE else sign) * np.array({
        Setup.WEAK_BOSE: ((s, -t, t, -s), (s, t, -t, -s)),
        Setup.WEAK_FERMI: ((-s, s, s, -s), (s, s, s, s)),
        Setup.STRONG_BOSE: ((-(s + 2 * u), t + u, -t + u, s), (-s, -t + u, t + u, s + 2 * u)),
    }[setup])
    # rows 4 and 5 share one row, and columns 4 and 5 one column, off the
    # diagonal: steady.steady_state relies on this shape
    m[:4, 4] = m[:4, 5] = column
    m[4, :4] = m[5, :4] = row
    return m


def _templates() -> np.ndarray:
    """(setup, reservoir, coefficient, 6, 6): each part on unit coefficients,
    which follow rates.COEFFICIENTS."""
    out = np.array([[[_part(setup, sign, *unit) for unit in np.eye(len(COEFFICIENTS)).tolist()]
                     for sign in (-1.0, 1.0)] for setup in SETUPS])
    out.setflags(write=False)
    return out


_TEMPLATES = _templates()


class GeneratorArrays(NamedTuple):
    """N generators over the leading cell axis, with what later stages need.

    total = coherent part + parts[:, 0] + parts[:, 1], where the coherent
    part holds only the +/- i*Omega entries of the coherence pair.
    """

    total: np.ndarray      # (N, 6, 6)
    parts: np.ndarray      # (N, 2, 6, 6): reservoir A, reservoir B
    energies: np.ndarray   # (N, 4)
    vectors: np.ndarray    # (N, 4, 4) real eigenvector columns
    numbers: np.ndarray    # (N, 4) excitation numbers
    cells: Cells


def build_generator(cells: Cells) -> GeneratorArrays:
    """Build the evolution matrices of N cells for the setup of each cell
    (Cells.setup; Cells.build rejects the strong-coupling fermionic one)."""
    energies, vectors, numbers = eigensystem(cells.bar_eps, cells.omega, cells.theta,
                                             cells.strong)
    rates = rate_set(cells)
    # one contraction per setup in the batch, with that setup's templates: one
    # setup's covers every cell, and each further setup redoes its own cells,
    # so a one-setup batch (every preset grid) pays for no mask
    codes = set(cells.setup.ravel().tolist())
    parts = np.einsum("...rk,rkij->...rij", rates, _TEMPLATES[codes.pop()])
    for code in codes:
        at = cells.setup == code
        parts[at] = np.einsum("nrk,rkij->nrij", rates[at], _TEMPLATES[code])
    total = np.add(parts[..., 0, :, :], parts[..., 1, :, :], dtype=complex)
    total[..., 4, 4] += 2j * cells.omega
    total[..., 5, 5] -= 2j * cells.omega
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
