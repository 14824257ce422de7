"""Steady-state solve and exact time evolution.

The steady state is the null vector of the 6x6 evolution matrix, normalized to
unit population sum.  Eliminating the coherence pair leaves one real 4x4 solve
for the populations, and the state is Hermitian by construction.  Its six
energy-basis entries map onto the six X entries of the local basis, so the
state stays a 6-entry vector in both bases.  Positivity of the resulting
density matrix is reported, never silently repaired.  `steady_state` solves N
generators at once over a leading cell axis; a single point is the one-cell
batch.  With M constant, `evolve` gives the exact solution of dv/dt = M v from
one eigendecomposition of the 6x6 M.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError, InternalConsistencyError
from .generator import GeneratorArrays, dense, to_vector6
from .model import POSITIVITY_TOL, lower_eigenvalue

RESIDUAL_TOL = 1e-10
# floor of the null-space certificate: |det| over the Hadamard bound of the
# bordered population matrix (see steady_state)
NULL_TOL = 8 * np.finfo(float).eps
# evolve's range (README.md): eigenvectors of condition number at most COND_MAX,
# whose change of basis rounds by about COND_MAX eps = 2.2e-10, and no mode that
# grows by more than GROWTH_MAX over the run, as rounding moves the zero
# eigenvalue of a dissipative M by about eps max|M|
COND_MAX, GROWTH_MAX = 1e6, 1e-8
# right-hand side e_0 of the bordered population solve, broadcast over the cells
_E0 = np.eye(4, 1)
# (p, Re c) times this is (p, 2 Re c), on which [P, B] gives P p + 2 B Re(c)
POPULATION_RATE = np.array([1.0, 1.0, 1.0, 1.0, 2.0])


class SteadyArrays(NamedTuple):
    """Steady states of N cells over the leading cell axis.

    Each state has six independent entries in either basis: vector6 holds
    them in the energy basis (generator order), local_x the X entries of the
    local basis (the diagonal, rho23 and rho14; rho32 and rho41 are their
    conjugates, and every other entry is 0).
    """

    vector6: np.ndarray    # (N, 6) energy basis
    residual: np.ndarray   # (N,)
    local_x: np.ndarray    # (N, 6) local basis: rho11, rho22, rho33, rho44, rho23, rho14
    min_eigenvalue: np.ndarray
    positive: np.ndarray
    null_ratio: np.ndarray  # (N,) |det| / Hadamard bound of the bordered matrix


def _first(bad: np.ndarray) -> int | None:
    return int(np.argmax(bad)) if np.count_nonzero(bad) else None


def min_eigenvalue_energy(v: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the energy-basis states of Hermitian 6-entry
    vectors (..., 6): the populations p_g, p_e3 and the lower eigenvalue of
    the e1-e2 block [[a, c], [c*, b]]."""
    p = v[..., :4].real
    block = lower_eigenvalue(p[..., 1], p[..., 2], np.hypot(v[..., 4].real, v[..., 4].imag))
    return np.minimum(np.minimum(p[..., 0], p[..., 3]), block)


def steady_state(g: GeneratorArrays) -> SteadyArrays:
    """Solve M|rho> = 0 for the N generators g by one real 4x4 solve each.

    In g.total = [[P, B], [C, d]] the coherence pair couples to the populations
    p through B and C, with diagonal -z, -z*, z = -(d + i*Omega).  So c =
    (C.p)/z, and p spans the null space of the real A = P + 2 Re(1/z) B C^T.
    Trace preservation makes row 0 of A redundant: replaced by ones and solved
    for e_0 it gives p at unit sum, and v = (p, c, c*) is Hermitian.  The null
    space must be one-dimensional: null_ratio, |det| of the bordered matrix
    over its Hadamard bound (the product of its row norms), must exceed
    NULL_TOL, and the bound must be finite and nonzero, else
    DegenerateSteadyStateError is raised; so for a residual max|M v| (P p + 2 B
    Re c, C.p - z c) above RESIDUAL_TOL * max(1, |z|, max|g.total|), reported
    absolute.  Any other array shape raises ValueError before any arithmetic.
    """
    total = g.total
    if total.ndim != 3 or total.shape[1:] != (5, 5):
        raise ValueError(f"steady_state expects (N, 5, 5) generators, got {total.shape}")
    z, row = -2j * g.cells.omega - total[:, 4, 4], total[:, 4, :4]
    # 2 Re(1/z) B: the populations' feedback through the eliminated pair
    column = (2.0 * (1.0 / z).real)[:, None] * total[:, :4, 4]
    bordered = total[:, :4, :4] + column[:, :, None] * row[:, None, :]
    bordered[:, 0] = 1.0
    bound = np.sqrt(np.einsum("nij,nij->ni", bordered, bordered)).prod(axis=-1)
    # an underflowed bound (gamma far below rounding) or a non-finite one
    i = _first(~((bound > 0.0) & (bound < math.inf)))
    if i is not None:
        raise DegenerateSteadyStateError(
            f"steady-state generator out of range: the Hadamard bound of its bordered "
            f"population matrix is {bound[i]:.3g}")
    ratio = np.abs(np.linalg.det(bordered)) / bound
    i = _first(~(ratio > NULL_TOL))
    if i is not None:
        raise DegenerateSteadyStateError(
            f"null space ill-conditioned: |det| of the bordered population matrix is "
            f"{ratio[i]:.3g} of its Hadamard bound, at most {NULL_TOL:.3g}")
    p = np.linalg.solve(bordered, _E0)[..., 0]
    coupled = np.einsum("ni,ni->n", row, p)
    c = coupled / z
    v = np.concatenate([p, c[:, None], c.conj()[:, None]], axis=1)
    rates = np.einsum("nij,nj->ni", total[:, :4], v.real[:, :5] * POPULATION_RATE)
    residual = np.maximum(np.abs(rates).max(axis=1), np.abs(coupled - z * c))
    over = ~(residual <= RESIDUAL_TOL)
    if np.count_nonzero(over):
        # rounding in M v grows with the entries of M (hot Bose reservoirs);
        # the scale is computed only for cells over the absolute tolerance
        cells = np.flatnonzero(over)
        tol = RESIDUAL_TOL * np.maximum(np.maximum(1.0, np.abs(z[cells])),
                                        np.abs(total[cells]).max(axis=(-2, -1)))
        i = _first(~(residual[cells] <= tol))
        if i is not None:
            raise DegenerateSteadyStateError(
                f"steady-state residual {residual[cells[i]]:.3g} exceeds "
                f"{RESIDUAL_TOL} * max(1, max|M|) = {tol[i]:.3g}")
    # the real map W; Im v is (0, 0, 0, 0, Im c, -Im c), and W[:, :4, 4] equals
    # W[:, :4, 5], so only rho23 and rho14 have an imaginary part
    w = g.local_map
    local_x = np.zeros((len(total), 6), dtype=complex)
    np.einsum("nka,na->nk", w, v.real, out=local_x.real)
    local_x.imag[:, 4:] = (w[:, 4:, 4] - w[:, 4:, 5]) * c.imag[:, None]
    min_eig = min_eigenvalue_energy(v)
    return SteadyArrays(v, residual, local_x, min_eig, min_eig >= -POSITIVITY_TOL, ratio)


def check_evolution(rho0, t_final: float, dt: float) -> np.ndarray:
    """rho0 as a complex array, once it meets evolve's input rules, in this
    order: 4x4, finite, Hermitian and of unit trace within 1e-12 (positivity
    is not required), then t_final and dt positive and finite."""
    m = np.asarray(rho0, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {m.shape}")
    # nan fails every tolerance comparison below, so it is rejected here
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise ValueError("density matrix not Hermitian within 1e-12")
    trace = m.trace()
    if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
        raise ValueError("density matrix trace must be 1 within 1e-12")
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise ValueError("t_final and dt must be positive and finite")
    return m


def evolve(g: GeneratorArrays, rho0: np.ndarray, t_final: float,
           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact solution V exp(wt) V^-1 v0 of dv/dt = M v, for the one-cell
    generator g with M = V diag(w) V^-1: the read-only times (n+1,) and 6-entry
    state vectors (n+1, 6) of the energy basis, from rho0 (4, 4) in it.

    Every step but the last, which ends at t_final, is dt, which only spaces
    the output.  Entries of rho0 outside the 6-entry subspace beyond 1e-12 are
    dropped with a warning.  Inputs that fail check_evolution and a trajectory
    too long to allocate raise ValueError, a generator out of the range of
    COND_MAX and GROWTH_MAX InternalConsistencyError.
    """
    rho0 = check_evolution(rho0, t_final, dt)
    v, leak = to_vector6(rho0)
    if leak > 1e-12:
        warnings.warn(
            f"initial state has non-representable coherences (max {leak:.3g}); "
            "projecting onto the 6-entry subspace",
            stacklevel=2,
        )
    n_steps = t_final / dt
    try:
        # at least one step, however short t_final is against dt
        n_steps = max(1, int(math.ceil(n_steps - 1e-12)))
        times = np.zeros(n_steps + 1)
        powers = np.empty((n_steps, 6), dtype=complex)
        vectors = np.empty((n_steps + 1, 6), dtype=complex)
    except (OverflowError, MemoryError, ValueError):
        raise ValueError(f"a trajectory of {n_steps:.6g} steps cannot be allocated") from None
    w, basis = np.linalg.eig(dense(g)[0])
    cond, growth = np.linalg.cond(basis), w.real.max() * t_final
    if not (cond <= COND_MAX and growth <= GROWTH_MAX):
        raise InternalConsistencyError(
            f"evolution matrix out of the propagator's range: eigenvector condition number "
            f"{cond:.3g} (limit {COND_MAX:.3g}), mode growth {growth:.3g} (limit {GROWTH_MAX:.3g})")
    times[1:n_steps] = np.add.accumulate(np.full(n_steps - 1, dt))
    last = min(dt, t_final - times[n_steps - 1])
    times[n_steps] = times[n_steps - 1] + last
    # row k of powers is exp(w dt)^(k+1), one cumprod down the rows, and the
    # last is exp(w t_n); the modes V^-1 v0 scale the columns of V^T
    np.cumprod(np.broadcast_to(np.exp(w * dt), (n_steps - 1, 6)), axis=0, out=powers[:-1])
    powers[-1] = np.exp(w * times[-1])
    vectors[0] = v
    np.matmul(powers, np.linalg.solve(basis, v)[:, None] * basis.T, out=vectors[1:])
    times.setflags(write=False)
    vectors.setflags(write=False)
    return times, vectors
