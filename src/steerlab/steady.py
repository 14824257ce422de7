"""Steady-state solve, time evolution, and the analytic equilibrium solution.

The steady state is the null vector of the 6x6 evolution matrix, normalized to
unit population sum and symmetrized.  Positivity of the resulting density
matrix is reported, never silently repaired.  `steady_state` solves N
generators at once over a leading cell axis; a single point is the one-cell
batch.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DegenerateSteadyStateError
from .generator import GeneratorArrays, from_vector6, hermitize_vector6, to_vector6
from .model import (
    Basis,
    DensityMatrix4,
    POSITIVITY_TOL,
    SystemParams,
    basis_change,
    conjugate,
    eigensystem,
)
from .rates import Cells, ReservoirSpec, Statistics, cell_occupations

RESIDUAL_TOL = 1e-10
EPS = np.finfo(float).eps
# stability bound on the fixed RK4 step: dt <= DT_SAFETY / ||M||_inf
DT_SAFETY = 0.1


class SteadyArrays(NamedTuple):
    """Steady states of N cells over the leading cell axis."""

    vector6: np.ndarray    # (N, 6)
    residual: np.ndarray   # (N,)
    energy: np.ndarray     # (N, 4, 4) energy basis
    local: np.ndarray      # (N, 4, 4) local basis
    min_eigenvalue: np.ndarray
    positive: np.ndarray
    null_ratio: np.ndarray  # (N,) s_1/s_0, the two smallest singular values of M


def _first(bad: np.ndarray) -> int | None:
    return int(np.argmax(bad)) if np.count_nonzero(bad) else None


# the trace row (unit population sum) that replaces row 0 of each M
_TRACE_ROW = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def min_eigenvalue_energy(v: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the energy-basis states of Hermitian 6-entry
    vectors (..., 6): the populations p_g, p_e3 and the lower eigenvalue
    (a+b)/2 - hypot((a-b)/2, |c|) of the e1-e2 block [[a, c], [c*, b]]."""
    p = v[..., :4].real
    a, b = p[..., 1], p[..., 2]
    block = 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.hypot(v[..., 4].real, v[..., 4].imag))
    return np.minimum(np.minimum(p[..., 0], p[..., 3]), block)


def steady_state(total: np.ndarray, vectors: np.ndarray) -> SteadyArrays:
    """Solve M|rho> = 0 for N matrices (N,6,6) by a bordered linear solve.

    vectors (N,4,4) carry each state to the local basis.  Trace preservation
    makes row 0 of M minus the sum of rows 1-3, so replacing it by the trace
    row (1,1,1,1,0,0) and solving for e_0 gives the null vector with unit
    population sum; it is then Hermitized.  The null space must be
    one-dimensional: the two smallest singular values s_0 <= s_1 of M must
    satisfy s_1 >= 10 s_0 (the 10x rule once applied to the two smallest
    eigenvalue magnitudes) and s_1 > 6 eps s_max (above rounding), else
    DegenerateSteadyStateError is raised, as it is for a singular bordered
    matrix (a null vector without population).  null_ratio reports s_1/s_0.
    The residual max|M v| must be at most RESIDUAL_TOL * max(1, max|M|), else
    DegenerateSteadyStateError is raised too; the reported residual is absolute.
    """
    bordered = total.copy()
    bordered[:, 0, :] = _TRACE_ROW
    try:
        sv = np.linalg.svd(total, compute_uv=False)
        smallest, second = sv[:, -1], sv[:, -2]
        # a nan fails too, and so does an s_1 at the rounding level of M,
        # where the ratio of two rounding errors says nothing
        i = _first(~(second >= 10.0 * smallest) | (second <= 6 * EPS * sv[:, 0]))
        if i is not None:
            raise DegenerateSteadyStateError(
                f"null space ill-conditioned: singular values s_0={smallest[i]:.3g}, "
                f"s_1={second[i]:.3g}")
        v = np.linalg.solve(bordered, np.broadcast_to(np.eye(6, 1), (len(total), 6, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            f"steady-state solve failed ({exc}): a non-finite generator, or a null "
            "vector with vanishing population sum") from None
    v = hermitize_vector6(v)
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
    energy = from_vector6(v)
    min_eig = min_eigenvalue_energy(v)
    with np.errstate(divide="ignore"):
        ratio = second / smallest
    return SteadyArrays(v, residual, energy, conjugate(energy, vectors, to_local=True),
                        min_eig, min_eig >= -POSITIVITY_TOL, ratio)


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
        n_steps = int(math.ceil(n_steps - 1e-12))
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


@dataclass(frozen=True)
class EquilibriumState:
    """Closed-form equilibrium steady state in both bases."""

    energy: DensityMatrix4
    local: DensityMatrix4


def equilibrium_analytic(p: SystemParams, r: ReservoirSpec) -> EquilibriumState:
    """Analytic equilibrium solution of p with both qubits at reservoir r,
    from the closed-form populations.

    Bosonic phases carry the normalization R = (1+2p)(1+2q) with p, q the
    occupations at eps_plus, eps_minus; the fermionic (weak phase only)
    populations are the grand-canonical products.
    """
    c = Cells.of([(p, r, r)])
    _, vectors, _ = eigensystem(c.bar_eps, c.omega, c.theta, c.strong)
    theta = c.theta.item()
    np_, nq = cell_occupations(c)[0, 0].tolist()
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    sin_th = math.sin(theta)
    if r.statistics is Statistics.BOSE:
        norm = (1 + 2 * np_) * (1 + 2 * nq)
        diag = np.array([(1 + np_) * (1 + nq), (1 + np_) * nq, (1 + nq) * np_, np_ * nq])
        diag /= norm
        if not c.strong[0]:
            local_diag = [
                diag[0],
                (s2 * np_ + c2 * nq + np_ * nq) / norm,
                (c2 * np_ + s2 * nq + np_ * nq) / norm,
                diag[3],
            ]
            rho23 = sin_th * (np_ - nq) / (2 * norm)
        else:
            local_diag = [
                diag[1],
                (c2 * (1 + np_ + nq) + np_ * nq) / norm,
                (s2 * (1 + np_ + nq) + np_ * nq) / norm,
                diag[2],
            ]
            rho23 = -sin_th * (1 + np_ + nq) / (2 * norm)
    else:
        if c.strong[0]:
            raise ConfigurationError("fermionic setup supports the weak phase only")
        diag = np.array([(1 - np_) * (1 - nq), (1 - np_) * nq, (1 - nq) * np_, np_ * nq])
        local_diag = [
            diag[0],
            s2 * np_ + c2 * nq - np_ * nq,
            c2 * np_ + s2 * nq - np_ * nq,
            diag[3],
        ]
        rho23 = sin_th * (np_ - nq) / 2
    energy = DensityMatrix4(entries=np.diag(diag.astype(complex)), basis=Basis.ENERGY)
    m_local = np.diag(np.array(local_diag, dtype=complex))
    m_local[1, 2] = rho23
    m_local[2, 1] = np.conj(rho23)
    local = DensityMatrix4(entries=m_local, basis=Basis.LOCAL)
    # cross-route sanity: the two closed forms must be basis changes of each other
    back = basis_change(energy, Basis.LOCAL, vectors[0]).entries
    mismatch = np.max(np.abs(back - local.entries))
    if mismatch > 1e-12:
        raise AssertionError(f"analytic equilibrium bases disagree by {mismatch:.3g}")
    return EquilibriumState(energy=energy, local=local)
