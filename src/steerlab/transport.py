"""Steady-state currents per reservoir and the entropy production rate.

Currents are evaluated in the energy basis, where both the Hamiltonian and
the excitation-number operator are diagonal, by tracing the per-reservoir
dissipator action against the observable.  Positive current means flow from
that reservoir into the system.  `transport_report` evaluates N cells at once
over a leading cell axis; a single point is the one-cell batch.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .generator import GeneratorArrays, build_generator
from .model import SystemParams
from .rates import Cells, ReservoirSpec, Statistics
from .steady import SteadyArrays, steady_state

CURRENT_RESIDUAL_TOL = 1e-8


def transport_report(g: GeneratorArrays, st: SteadyArrays):
    """(current_a, current_b, sigma) of the steady states st of generators g,
    each an array over the cell axis.

    Reservoir j moves the populations at the rate d_j = (D_j v)[:4], with
    D_j = g.parts[:, j] its dissipative part, which carries the energy
    current J^E_j = d_j . E and the particle current J^N_j = d_j . N (E and N
    the energy-basis eigenvalues of H and of the excitation number).  The
    reported current is J^E (bosonic) or J^N (fermionic).  The entropy
    production is sigma = -sum_j (J^E_j - mu_j J^N_j) / T_j, evaluated with
    continuity (J_a = -J_b) as J^E_B (1/T_A - 1/T_B) + J^N_B (mu_B/T_B - mu_A/T_A).
    current_a + current_b = 0 in any steady state; sigma vanishes at
    equilibrium and is nonnegative otherwise.
    """
    bad = st.residual > CURRENT_RESIDUAL_TOL
    if np.count_nonzero(bad):
        raise ValueError(
            f"state residual {np.max(st.residual):.3g} too large for a steady state"
        )
    # the parts are real, so Re(D_j v) = D_j Re(v)
    d = (g.parts[..., :4, :] @ st.vector6.real[..., None, :, None])[..., 0]
    je = (d * g.energies[..., None, :]).sum(axis=-1)
    jn = (d * g.numbers[..., None, :]).sum(axis=-1)
    t, mu = g.cells.temperature, g.cells.mu
    sigma = (je[..., 1] * (1.0 / t[..., 0] - 1.0 / t[..., 1])
             + jn[..., 1] * (mu[..., 1] / t[..., 1] - mu[..., 0] / t[..., 0]))
    current = je if g.cells.statistics is Statistics.BOSE else jn
    return current[..., 0], current[..., 1], sigma


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
    lo = ReservoirSpec(Statistics.BOSE, base.temperature - 0.5 * delta)
    hi = ReservoirSpec(Statistics.BOSE, base.temperature + 0.5 * delta)
    # forward: T_B > T_A; backward: T_A > T_B
    g = build_generator(Cells.of([(p, lo, hi), (p, hi, lo)]))
    forward, backward = transport_report(g, steady_state(g.total, g.vectors))[1]
    return float(abs(forward) / abs(backward))
