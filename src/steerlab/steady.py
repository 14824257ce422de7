"""Steady-state solve and time evolution.

The steady state is the null vector of the 6x6 evolution matrix, normalized to
unit population sum.  Eliminating the coherence pair leaves one real 4x4 solve
for the populations, and the state is Hermitian by construction.  Its six
energy-basis entries map onto the six X entries of the local basis, so the
state stays a 6-entry vector in both bases.  Positivity of the resulting
density matrix is reported, never silently repaired.  `steady_state` solves N
generators at once over a leading cell axis; a single point is the one-cell
batch.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSteadyStateError
from .generator import GeneratorArrays, to_vector6
from .model import Basis, DensityMatrix4, POSITIVITY_TOL, basis_change, lower_eigenvalue

RESIDUAL_TOL = 1e-10
# floor of the null-space certificate: |det| over the Hadamard bound of the
# bordered population matrix (see steady_state)
NULL_TOL = 8 * np.finfo(float).eps
# stability bound on the fixed RK4 step: dt <= DT_SAFETY / ||M||_inf
DT_SAFETY = 0.1
# flat positions in the 4x4 eigenvector columns V of the factors V[i, a] and
# V[j, b] of the map from vector6 to local_x: row k is the X entry (i, j), in
# the order rho11, rho22, rho33, rho44, rho23, rho14, and column l the entry
# (a, b) of vector6
_LEFT, _RIGHT = (4 * np.array([[0, 1, 2, 3, 1, 0], [0, 1, 2, 3, 2, 3]])[..., None]
                 + np.array([[0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]])[:, None, :])
# right-hand side e_0 of the bordered population solve, broadcast over the cells
_E0 = np.eye(4, 1)


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


def steady_state(total: np.ndarray, vectors: np.ndarray) -> SteadyArrays:
    """Solve M|rho> = 0 for N matrices (N,6,6) by one real 4x4 solve each.

    vectors (N,4,4), the real eigenvector columns V, carry each state to the
    local basis: local_x entry (i, j) is the sum over the six entries v_ab of
    vector6 of V[i,a] V[j,b] v_ab, one real linear map.  In every template the
    coherence pair couples to the populations p through one real column B
    (M[:4,4] = M[:4,5]) and one real row C (M[4,:4] = M[5,:4]), with diagonal
    -z, -z*, z = G - iW.  So c = (C.p)/z, and p spans the null space of the real
    A = P + 2 Re(1/z) B C^T.  Trace preservation makes row 0 of A redundant:
    replaced by ones and solved for e_0 it gives p at unit sum, and v = (p, c, c*)
    is Hermitian.  The null space must be one-dimensional: null_ratio, |det| of
    the bordered matrix over its Hadamard bound (the product of its row norms,
    so invariant under row scaling), must exceed NULL_TOL, and the bound must be
    finite and nonzero, else DegenerateSteadyStateError is raised.  So it is for
    a residual max|M v| above RESIDUAL_TOL * max(1, max|M|), which also catches
    a generator outside the template shape; the reported residual is absolute.
    Any other array shape raises ValueError before any arithmetic.
    """
    if total.ndim != 3 or total.shape[1:] != (6, 6) or vectors.shape != (len(total), 4, 4):
        raise ValueError(f"steady_state expects (N, 6, 6) generators and (N, 4, 4) vectors, "
                         f"got {total.shape} and {vectors.shape}")
    z, row = -total[:, 4, 4], total[:, 4, :4].real
    # 2 Re(1/z) B: the populations' feedback through the eliminated pair
    column = (2.0 * (1.0 / z).real)[:, None] * total[:, :4, 4].real
    bordered = total[:, :4, :4].real + column[:, :, None] * row[:, None, :]
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
    c = np.einsum("ni,ni->n", row, p) / z
    v = np.concatenate([p, c[:, None], c.conj()[:, None]], axis=1)
    residual = np.abs(total @ v[..., None]).max(axis=(-2, -1))
    over = ~(residual <= RESIDUAL_TOL)
    if np.count_nonzero(over):
        # rounding in M v grows with the entries of M (hot Bose reservoirs);
        # the scale is computed only for cells over the absolute tolerance
        cells = np.flatnonzero(over)
        tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(total[cells]).max(axis=(-2, -1)))
        i = _first(~(residual[cells] <= tol))
        if i is not None:
            raise DegenerateSteadyStateError(
                f"steady-state residual {residual[cells[i]]:.3g} exceeds "
                f"{RESIDUAL_TOL} * max(1, max|M|) = {tol[i]:.3g}")
    # the real map W; Im v is (0, 0, 0, 0, Im c, -Im c), and W[:, :4, 4] equals
    # W[:, :4, 5], so only rho23 and rho14 have an imaginary part
    flat = vectors.reshape(len(total), 16)
    w = np.take(flat, _LEFT, axis=1) * np.take(flat, _RIGHT, axis=1)
    local_x = np.zeros((len(total), 6), dtype=complex)
    np.einsum("nka,na->nk", w, v.real, out=local_x.real)
    local_x.imag[:, 4:] = (w[:, 4:, 4] - w[:, 4:, 5]) * c.imag[:, None]
    min_eig = min_eigenvalue_energy(v)
    return SteadyArrays(v, residual, local_x, min_eig, min_eig >= -POSITIVITY_TOL, ratio)


def max_stable_dt(g: GeneratorArrays) -> float:
    """The stability bound 0.1/||M||_inf of the one-cell generator g."""
    norm_inf = float(np.max(np.abs(g.total[0]).sum(axis=1)))
    return DT_SAFETY / norm_inf


def evolve(g: GeneratorArrays, rho0: DensityMatrix4, t_final: float,
           dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step 4th-order integration of dv/dt = M v, for the
    one-cell generator g: the read-only times (n+1,) and 6-entry state
    vectors (n+1, 6) of the energy basis, starting at rho0.

    The initial state must live in the 6-entry subspace; entries outside it
    beyond 1e-12 are dropped with a warning.  Steps larger than the stability
    bound 0.1/||M||_inf are rejected, and so is a trajectory too long to
    allocate.
    """
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise ValueError("t_final and dt must be positive and finite")
    dt_max = max_stable_dt(g)
    if dt > dt_max:
        raise ValueError(f"dt={dt} unstable: maximum stable dt is {dt_max:.6g}")
    if rho0.basis is not Basis.ENERGY:
        rho0 = basis_change(rho0, Basis.ENERGY, g.vectors[0])
    v, leak = to_vector6(rho0.entries)
    if leak > 1e-12:
        warnings.warn(
            f"initial state has non-representable coherences (max {leak:.3g}); "
            "projecting onto the 6-entry subspace",
            stacklevel=2,
        )
    m = g.total[0]
    n_steps = t_final / dt
    try:
        # at least one step, however short t_final is against dt
        n_steps = max(1, int(math.ceil(n_steps - 1e-12)))
        times = np.empty(n_steps + 1)
        vectors = np.empty((n_steps + 1, 6), dtype=complex)
    except (OverflowError, MemoryError, ValueError):
        raise ValueError(f"a trajectory of {n_steps:.6g} steps cannot be allocated") from None
    times[0] = 0.0
    vectors[0] = v
    t = 0.0
    for i in range(n_steps):
        step = min(dt, t_final - t)
        k1 = m @ v
        k2 = m @ (v + 0.5 * step * k1)
        k3 = m @ (v + 0.5 * step * k2)
        k4 = m @ (v + step * k3)
        v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step
        times[i + 1] = t
        vectors[i + 1] = v
    times.setflags(write=False)
    vectors.setflags(write=False)
    return times, vectors
