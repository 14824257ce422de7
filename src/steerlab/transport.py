"""Steady-state currents per reservoir and the entropy production rate.

Currents are evaluated in the energy basis, where both the Hamiltonian and
the excitation-number operator are diagonal, by tracing the per-reservoir
dissipator action against the observable.  Positive current means flow from
that reservoir into the system.  `transport_report` evaluates N cells at once
over a leading cell axis; a single point is the one-cell batch.
"""
from __future__ import annotations

import numpy as np

from .generator import GeneratorArrays
from .rates import Statistics
from .steady import POPULATION_RATE, SteadyArrays


def transport_report(g: GeneratorArrays, st: SteadyArrays):
    """(current_a, current_b, sigma) of the steady states st of generators g,
    each an array over the cell axis.

    Reservoir j moves the populations at the rate d_j = P_j p + 2 B_j Re(c) of
    its part g.parts[:, j] and v = (p, c, c*), which carries the energy
    current J^E_j = d_j . E and the particle current J^N_j = d_j . N (E and N
    the energy-basis eigenvalues of H and of the excitation number).  The
    reported current is J^E (bosonic) or J^N (fermionic).  The entropy
    production is sigma = -sum_j (J^E_j - mu_j J^N_j) / T_j, evaluated with
    continuity (J_a = -J_b) as J^E_B (1/T_A - 1/T_B) + J^N_B (mu_B/T_B - mu_A/T_A).
    current_a + current_b = 0 in any steady state; sigma vanishes at
    equilibrium and is nonnegative otherwise.
    """
    # over whole contiguous parts, and row 4 dropped: einsum is slower on a view
    d = np.einsum("...rij,...j->...ri", g.parts,
                  st.vector6.real[..., :5] * POPULATION_RATE)[..., :4]
    je = np.einsum("...ri,...i->...r", d, g.energies)
    jn = np.einsum("...ri,...i->...r", d, g.numbers)
    t, mu = g.cells.temperature, g.cells.mu
    sigma = (je[..., 1] * (1.0 / t[..., 0] - 1.0 / t[..., 1])
             + jn[..., 1] * (mu[..., 1] / t[..., 1] - mu[..., 0] / t[..., 0]))
    current = je if g.cells.statistics is Statistics.BOSE else jn
    return current[..., 0], current[..., 1], sigma
