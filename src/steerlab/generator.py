"""Assembly of the evolution matrices acting on the nonzero state entries.

In the energy basis the reduced state keeps only six entries, ordered

    (rho_gg, rho_e1e1, rho_e2e2, rho_e3e3, rho_e1e2, rho_e2e1).

The generator splits additively into a coherent part (the +/- i*Omega entries,
Omega = 2*omega) and one dissipative part per reservoir.  One rule builds every
part: a population block P shared by all setups, in which fermions flip the
sign of the stimulated terms, the coherence pair's coupling column B and row C
from a per-setup table, and the pair's diagonal d.  Summed over the two
reservoirs the parts reproduce the printed weak-bosonic, weak-fermionic and
strong-bosonic matrices [[P, B, B], [C, d + i*Omega, 0], [C, 0, d - i*Omega]];
the split itself assigns the spontaneous weights with the same angular factors
as the stimulated rates (see rates.rate_set).  Parts and sums are kept in the
compact real layout [[P, B], [C, d]], and `dense` gives one cell's 6x6 matrix.

Each part is linear in its reservoir's rate coefficients, so it is evaluated
once, on unit coefficients, into constant templates; a generator is then the
coefficient-weighted sum of its setup's templates, one einsum per setup in a
batch that adds them in order (a BLAS matmul may not).  `build_generator`
builds N generators at once over a leading cell axis; a single point is the
one-cell batch.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import EXCITATIONS, VEC6_ENTRIES, eigensystem, eigenvectors
from .rates import COEFFICIENTS, STRONG_BOSE, WEAK_BOSE, WEAK_FERMI, Cells, rate_set


def _part(setup, sign, p, q, s, t, wp, wm, u):
    """One reservoir's dissipative part [[P, B], [C, d]] of setup's generator,
    linear in the rate coefficients p, q, s, t, wp, wm and u (rates.COEFFICIENTS).

    sign is -1 for reservoir A and +1 for B in the weak-phase couplings; u is
    the strong phase's spontaneous coherence weight (gamma_j/2) sin(theta).
    """
    z = -1.0 if setup == WEAK_FERMI else 1.0
    g = wp + wm
    m = np.zeros((5, 5))
    m[:4, :4] = [[-2 * (p + q), 2 * (wm + z * q), 2 * (wp + z * p), 0],
                 [2 * q, -2 * (wm + z * q + p), 0, 2 * (wp + z * p)],
                 [2 * p, 0, -2 * (wp + z * p + q), 2 * (wm + z * q)],
                 [0, 2 * p, 2 * q, -2 * (g + z * (p + q))]]
    m[4, 4] = -(g + (1 + z) * (p + q))
    # (column B, row C) of the coupling table; only the weak-phase ones carry sign
    m[:4, 4], m[4, :4] = (1.0 if setup == STRONG_BOSE else sign) * np.array({
        WEAK_BOSE: ((s, -t, t, -s), (s, t, -t, -s)),
        WEAK_FERMI: ((-s, s, s, -s), (s, s, s, s)),
        STRONG_BOSE: ((-(s + 2 * u), t + u, -t + u, s), (-s, -t + u, t + u, s + 2 * u)),
    }[setup])
    return m


# (setup, reservoir, coefficient, 5, 5): each part on unit rates.COEFFICIENTS
_TEMPLATES = np.array([[[_part(setup, sign, *unit) for unit in np.eye(len(COEFFICIENTS)).tolist()]
                        for sign in (-1.0, 1.0)] for setup in (WEAK_BOSE, WEAK_FERMI, STRONG_BOSE)])
_TEMPLATES.setflags(write=False)


class GeneratorArrays(NamedTuple):
    """N generators over the leading cell axis, with what later stages need:
    parts (reservoir A, B) and their sum total in the compact layout, and
    local_map, which carries vector6 to local_x (model.eigensystem)."""

    total: np.ndarray      # (N, 5, 5)
    parts: np.ndarray      # (N, 2, 5, 5)
    energies: np.ndarray   # (N, 4)
    local_map: np.ndarray  # (N, 6, 6) real
    numbers: np.ndarray    # (N, 4) excitation numbers
    cells: Cells


def _one_setup(code: int, cells: Cells, rates: np.ndarray) -> tuple:
    """(parts, energies, local_map, numbers) of cells, all of setup code."""
    phase = int(code == STRONG_BOSE)
    energies, local_map = eigensystem(cells.bar_eps, cells.omega, cells.eigen_weights, phase)
    numbers = np.empty_like(energies)
    numbers[...] = EXCITATIONS[phase]
    return np.einsum("...rk,rkij->...rij", rates, _TEMPLATES[code]), energies, local_map, numbers


def build_generator(cells: Cells) -> GeneratorArrays:
    """Build the evolution matrices of N cells for the setup of each cell
    (Cells.setup; Cells.build rejects the strong-coupling fermionic one)."""
    rates = rate_set(cells)
    # one pass per setup in the batch: the first covers every cell (an empty
    # batch takes weak-bose's) and each further setup redoes its own cells,
    # so a one-setup batch (every preset grid block, every point) masks nothing
    first, *rest = set(cells.setup.ravel().tolist()) or {WEAK_BOSE}
    parts, energies, local_map, numbers = _one_setup(first, cells, rates)
    for code in rest:
        at = cells.setup == code
        parts[at], energies[at], local_map[at], numbers[at] = _one_setup(code, cells[at], rates[at])
    return GeneratorArrays(parts[..., 0, :, :] + parts[..., 1, :, :], parts, energies,
                           local_map, numbers, cells)


def dense(g: GeneratorArrays) -> tuple[np.ndarray, np.ndarray]:
    """The complex 6x6 generator and real 4x4 eigenvector columns of one cell g."""
    k, omega = g.total[0], g.cells.omega[0]
    m = np.zeros((6, 6), dtype=complex)
    m[:5, :5], m[:4, 5], m[5, :4] = k, k[:4, 4], k[4, :4]
    m[4, 4], m[5, 5] = k[4, 4] + 2j * omega, k[4, 4] - 2j * omega
    return m, eigenvectors(g.cells.eigen_weights[0], g.cells.setup[0] == STRONG_BOSE)


# flat (4x4) positions of the six entries
_VEC6_FLAT = np.ravel_multi_index(VEC6_ENTRIES, (4, 4))


def to_vector6(rho_energy: np.ndarray) -> tuple[np.ndarray, float]:
    """Project an energy-basis 4x4 matrix onto the 6-entry representation.

    Returns the vector and the largest magnitude among the discarded entries
    (g<->e and e<->e3 coherences, which the dynamics never populates).
    """
    m = np.asarray(rho_energy, dtype=complex).reshape(16)
    return m[_VEC6_FLAT], float(np.max(np.abs(np.delete(m, _VEC6_FLAT))))
