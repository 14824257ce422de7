"""Steady-state solve, time evolution, and the analytic equilibrium solution.

The steady state is the null vector of the 6x6 evolution matrix, normalized to
unit population sum and symmetrized.  Positivity of the resulting density
matrix is reported, never silently repaired.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateSteadyStateError
from .generator import Generator, from_vector6, hermitize_vector6, to_vector6
from .model import (
    Basis,
    DensityMatrix4,
    Phase,
    POSITIVITY_TOL,
    SystemParams,
    basis_change,
    derive_params,
    eigensystem,
)
from .rates import ReservoirSpec, Statistics, occupation, transition_energies

RESIDUAL_TOL = 1e-10
# stability bound on the fixed RK4 step: dt <= DT_SAFETY / ||M||_inf
DT_SAFETY = 0.1


@dataclass(frozen=True)
class SteadyResult:
    """Steady state in both bases plus solver diagnostics."""

    state_energy: DensityMatrix4
    state_local: DensityMatrix4
    vector6: np.ndarray
    residual: float
    min_eigenvalue: float
    positivity_ok: bool


def steady_state(g: Generator) -> SteadyResult:
    """Solve M|rho> = 0 by full eigendecomposition of the 6x6 matrix.

    The eigenvalue of smallest magnitude is taken as the null direction; its
    vector is normalized to unit population sum and Hermitized.  A second
    eigenvalue within 10x of the smallest magnitude flags a degenerate null
    space.
    """
    eigvals, eigvecs = np.linalg.eig(g.total)
    order = np.argsort(np.abs(eigvals))
    smallest, second = np.abs(eigvals[order[0]]), np.abs(eigvals[order[1]])
    if second < 10.0 * smallest:
        raise DegenerateSteadyStateError(
            f"null space ill-conditioned: |lambda_0|={smallest:.3g}, "
            f"|lambda_1|={second:.3g}"
        )
    v = eigvecs[:, order[0]]
    pop_sum = v[:4].sum()
    if abs(pop_sum) < 1e-300:
        raise DegenerateSteadyStateError("null vector has vanishing population sum")
    v = hermitize_vector6(v / pop_sum)
    residual = float(np.max(np.abs(g.total @ v)))
    if residual > RESIDUAL_TOL:
        raise DegenerateSteadyStateError(
            f"steady-state residual {residual:.3g} exceeds {RESIDUAL_TOL}"
        )
    state_energy = DensityMatrix4(entries=from_vector6(v), basis=Basis.ENERGY)
    state_local = basis_change(state_energy, Basis.LOCAL, g.eig)
    min_eig = state_energy.min_eigenvalue()
    v.setflags(write=False)
    return SteadyResult(
        state_energy=state_energy,
        state_local=state_local,
        vector6=v,
        residual=residual,
        min_eigenvalue=min_eig,
        positivity_ok=bool(min_eig >= -POSITIVITY_TOL),
    )


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory of the 6-entry state vector."""

    times: np.ndarray
    vectors: np.ndarray
    generator: Generator

    def state(self, i: int, basis: Basis = Basis.ENERGY) -> DensityMatrix4:
        rho = DensityMatrix4(entries=from_vector6(hermitize_vector6(self.vectors[i])),
                             basis=Basis.ENERGY)
        if basis is Basis.LOCAL:
            rho = basis_change(rho, Basis.LOCAL, self.generator.eig)
        return rho

    def final_state(self, basis: Basis = Basis.ENERGY) -> DensityMatrix4:
        return self.state(len(self.times) - 1, basis)

    def trace_drift(self) -> float:
        return float(np.max(np.abs(self.vectors[:, :4].real.sum(axis=1) - 1.0)))

    def csv_rows(self):
        """Rows (t, rho_gg, rho_e1e1, rho_e2e2, rho_e3e3, re_coh, im_coh)."""
        for t, v in zip(self.times, self.vectors):
            yield (
                float(t),
                v[0].real, v[1].real, v[2].real, v[3].real,
                v[4].real, v[4].imag,
            )


def max_stable_dt(g: Generator) -> float:
    norm_inf = float(np.max(np.abs(g.total).sum(axis=1)))
    return DT_SAFETY / norm_inf


def evolve(g: Generator, rho0: DensityMatrix4, t_final: float, dt: float) -> Trajectory:
    """Classic fixed-step 4th-order integration of dv/dt = M v.

    The initial state must live in the 6-entry subspace; entries outside it
    beyond 1e-12 are dropped with a warning.  Steps larger than the stability
    bound 0.1/||M||_inf are rejected.
    """
    if t_final <= 0 or dt <= 0:
        raise ValueError("t_final and dt must be positive")
    dt_max = max_stable_dt(g)
    if dt > dt_max:
        raise ValueError(f"dt={dt} unstable: maximum stable dt is {dt_max:.6g}")
    if rho0.basis is not Basis.ENERGY:
        rho0 = basis_change(rho0, Basis.ENERGY, g.eig)
    v, leak = to_vector6(rho0.entries)
    if leak > 1e-12:
        warnings.warn(
            f"initial state has non-representable coherences (max {leak:.3g}); "
            "projecting onto the 6-entry subspace",
            stacklevel=2,
        )
    m = g.total
    n_steps = int(math.ceil(t_final / dt - 1e-12))
    times = np.empty(n_steps + 1)
    vectors = np.empty((n_steps + 1, 6), dtype=complex)
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
    return Trajectory(times=times, vectors=vectors, generator=g)


@dataclass(frozen=True)
class EquilibriumState:
    """Closed-form equilibrium steady state in both bases."""

    energy: DensityMatrix4
    local: DensityMatrix4


def _same_reservoir(ra: ReservoirSpec, rb: ReservoirSpec) -> bool:
    return (
        ra.statistics is rb.statistics
        and math.isclose(ra.temperature, rb.temperature, rel_tol=1e-12, abs_tol=0.0)
        and math.isclose(ra.mu, rb.mu, rel_tol=1e-12, abs_tol=1e-300)
    )


def equilibrium_analytic(
    p: SystemParams, r: ReservoirSpec, rb: ReservoirSpec | None = None
) -> EquilibriumState:
    """Analytic equilibrium solution from the closed-form populations.

    Bosonic phases carry the normalization R = (1+2p)(1+2q) with p, q the
    occupations at eps_plus, eps_minus; the fermionic (weak phase only)
    populations are the grand-canonical products.  A second reservoir, if
    given, must match the first exactly.
    """
    if rb is not None and not _same_reservoir(r, rb):
        raise ConfigurationError("equilibrium_analytic requires identical reservoirs")
    d = derive_params(p)
    eig = eigensystem(p)
    tr = transition_energies(d)
    np_, nq = occupation(r, tr.eps_plus), occupation(r, tr.eps_minus)
    c2 = math.cos(d.theta / 2) ** 2
    s2 = math.sin(d.theta / 2) ** 2
    sin_th = math.sin(d.theta)
    if r.statistics is Statistics.BOSE:
        norm = (1 + 2 * np_) * (1 + 2 * nq)
        diag = np.array([(1 + np_) * (1 + nq), (1 + np_) * nq, (1 + nq) * np_, np_ * nq])
        diag /= norm
        if d.phase is Phase.WEAK:
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
        if d.phase is not Phase.WEAK:
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
    m_local = np.zeros((4, 4), dtype=complex)
    for i, val in enumerate(local_diag):
        m_local[i, i] = val
    m_local[1, 2] = rho23
    m_local[2, 1] = np.conj(rho23)
    local = DensityMatrix4(entries=m_local, basis=Basis.LOCAL)
    # cross-route sanity: the two closed forms must be basis changes of each other
    mismatch = np.max(np.abs(basis_change(energy, Basis.LOCAL, eig).entries - local.entries))
    if mismatch > 1e-12:
        raise AssertionError(f"analytic equilibrium bases disagree by {mismatch:.3g}")
    return EquilibriumState(energy=energy, local=local)
