"""Symmetries of the pipeline on drawn batches.

Exchanging the two baths of identical qubits (eps_a = eps_b) swaps the two
steering directions and the two currents, and keeps entanglement, Bell
nonlocality and the entropy production.  Reflecting the mean chemical
potential of fermionic baths at one temperature about bar_eps (the
particle-hole map) swaps the steering directions and keeps entanglement,
Bell nonlocality, current_b and sigma.

Bounds come from a seeded scan over the ranges drawn here: three seeds of
20,000 cells for each setup under exchange and for the reflection.  Each is
about ten times the worst deviation found:
* margins, which are O(1) (the populations sum to 1), absolute: worst 3.8e-15
  under exchange (hot Bose baths) and 9.2e-16 under the reflection;
* currents relative to `scales`: worst 5.2e-16 and 2.9e-16;
* sigma relative to `scales`: worst 3.7e-16 and 1.4e-16;
* no flag and no positivity verdict differed.
"""
import math

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import steerlab as sl
from steerlab.analysis import pipeline
from steerlab.generator import GeneratorArrays
from steerlab.rates import STRONG_BOSE, WEAK_BOSE, WEAK_FERMI, Statistics

CELLS = 64
# no shrinking: a failing batch is reported as drawn, since shrinking 64-cell
# arrays takes minutes and keeps every cell
PHASES = (Phase.explicit, Phase.reuse, Phase.generate)
MARGIN_TOL = 5e-14
CURRENT_TOL = 5e-15
SIGMA_TOL = 5e-15


def column(draw, lo, hi, log=False):
    """CELLS values drawn uniformly over [lo, hi], or log-uniformly."""
    bounds = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = draw(arrays(np.float64, CELLS, elements=st.floats(*bounds), fill=st.nothing()))
    return np.exp(values) if log else values


def scales(g: GeneratorArrays) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the size of the terms that the currents and sigma sum: the
    largest entry of either bath part times the largest energy (energy
    currents) or excitation number (particle currents), and for sigma these
    times the affinities' terms 1/T_j and |mu_j|/T_j."""
    parts = np.abs(g.parts).max(axis=(-3, -2, -1))
    energy = parts * np.abs(g.energies).max(axis=-1)
    number = parts * np.abs(g.numbers).max(axis=-1)
    t, mu = g.cells.temperature, g.cells.mu
    sigma = energy * (1.0 / t).sum(axis=-1) + number * (np.abs(mu) / t).sum(axis=-1)
    return (energy if g.cells.statistics is Statistics.BOSE else number), sigma


def assert_mirrored(one, other, swap_currents: bool) -> None:
    """The pipeline results one and other of mirrored batches: positivity
    equal, steering directions swapped, entanglement, Bell and sigma kept, and
    the currents swapped (swap_currents) or current_b kept."""
    g1, st1, c1, (ia1, ib1, sigma1) = one
    g2, st2, c2, (ia2, ib2, sigma2) = other
    assert np.array_equal(st1.positive, st2.positive)
    for a, b in [(c1.entangled, c2.entangled), (c1.bell, c2.bell),
                 (c1.steer_a_to_b, c2.steer_b_to_a), (c1.steer_b_to_a, c2.steer_a_to_b)]:
        assert np.array_equal(a, b)
    pos = st1.positive
    for a, b in [(c1.margin_ent, c2.margin_ent), (c1.margin_bell, c2.margin_bell),
                 (c1.margin_ab, c2.margin_ba), (c1.margin_ba, c2.margin_ab)]:
        assert np.all(np.abs(a - b)[pos] <= MARGIN_TOL)
    current, sigma = np.maximum(scales(g1), scales(g2))
    pairs = [(ia1, ib2), (ib1, ia2)] if swap_currents else [(ib1, ib2)]
    for a, b in pairs:
        assert np.all(np.abs(a - b) <= CURRENT_TOL * current)
    assert np.all(np.abs(sigma1 - sigma2) <= SIGMA_TOL * sigma)


@st.composite
def exchange_batches(draw):
    """CELLS cells of one setup with eps_a = eps_b log-uniform over [0.2, 5],
    kappa/(2 eps) in [0.1, 0.9] (weak) or [1.1, 2.5] (strong), gamma/eps
    log-uniform over [1e-4, 0.05], T_j/eps log-uniform over [0.05, 20] and
    fermionic mu_j/eps in [-1, 3]: the arguments of Cells.build."""
    setup = draw(st.sampled_from((WEAK_BOSE, WEAK_FERMI, STRONG_BOSE)))
    eps = column(draw, 0.2, 5.0, log=True)
    ratio = column(draw, *((1.1, 2.5) if setup == STRONG_BOSE else (0.1, 0.9)))
    t_a, t_b = (eps * column(draw, 0.05, 20.0, log=True) for _ in "ab")
    stat = Statistics.FERMI if setup == WEAK_FERMI else Statistics.BOSE
    mu_a, mu_b = ((eps * column(draw, -1.0, 3.0) for _ in "ab") if stat is Statistics.FERMI
                  else (0.0, 0.0))
    return (eps, eps, 2 * eps * ratio, eps * column(draw, 1e-4, 0.05, log=True),
            t_a, t_b, mu_a, mu_b, stat)


@settings(max_examples=30, deadline=None, phases=PHASES)
@given(exchange_batches())
def test_bath_exchange_of_identical_qubits(args):
    eps_a, eps_b, kappa, gamma, t_a, t_b, mu_a, mu_b, stat = args
    one = pipeline(sl.Cells.build(*args))
    other = pipeline(sl.Cells.build(eps_a, eps_b, kappa, gamma, t_b, t_a, mu_b, mu_a, stat))
    assert_mirrored(one, other, swap_currents=True)


@st.composite
def particle_hole_batches(draw):
    """CELLS fermionic cells at T_A = T_B: eps_a log-uniform over [0.2, 5],
    eps_b/eps_a in [0.3, 1], kappa/(2 sqrt(eps_a eps_b)) in [0.1, 0.9],
    gamma/eps_b log-uniform over [1e-4, 0.05], T/bar_eps log-uniform over
    [0.05, 20], mubar/bar_eps in [-1, 3] and delta_mu/bar_eps in [-2, 2];
    (system columns, T, bar_eps, mubar, delta_mu)."""
    eps_a = column(draw, 0.2, 5.0, log=True)
    eps_b = eps_a * column(draw, 0.3, 1.0)
    bar_eps = 0.5 * (eps_a + eps_b)
    system = (eps_a, eps_b, 2 * np.sqrt(eps_a * eps_b) * column(draw, 0.1, 0.9),
              eps_b * column(draw, 1e-4, 0.05, log=True))
    return (system, bar_eps * column(draw, 0.05, 20.0, log=True), bar_eps,
            bar_eps * column(draw, -1.0, 3.0), bar_eps * column(draw, -2.0, 2.0))


@settings(max_examples=30, deadline=None, phases=PHASES)
@given(particle_hole_batches())
def test_fermionic_particle_hole_reflection(args):
    # mubar -> 2 bar_eps - mubar with delta_mu = mu_A - mu_B kept; at one
    # temperature only (with T_A != T_B the margins differ by up to 0.18)
    system, t, bar_eps, mubar, delta_mu = args

    def at(mu):
        return pipeline(sl.Cells.build(*system, t, t, mu + 0.5 * delta_mu,
                                       mu - 0.5 * delta_mu, Statistics.FERMI))
    assert_mirrored(at(mubar), at(2 * bar_eps - mubar), swap_currents=False)
