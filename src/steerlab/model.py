"""Two-qubit XY model: Hamiltonian, eigensystem, phases, basis changes.

Conventions used throughout the package:

* local product basis ordered (|00>, |01>, |10>, |11>), first slot qubit A,
  |0> the lower level of each qubit (hbar = 1);
* energy basis ordered (g, e1, e2, e3) ascending in energy;
* eigenvector global phases fixed so the |01> amplitude is real nonnegative.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PhaseBoundaryError

# tolerance for Hermiticity / unit trace of density matrices
HERM_TOL = 1e-12
# eigenvalues above -POSITIVITY_TOL count as positive semidefinite
POSITIVITY_TOL = 1e-9
# relative exclusion window around the level crossing kappa = 2 sqrt(eps_a eps_b)
BOUNDARY_REL_TOL = 1e-6


class Basis(enum.Enum):
    LOCAL = "local"
    ENERGY = "energy"


@dataclass(frozen=True)
class SystemParams:
    """Bare model parameters, all in the same energy units.

    eps_a, eps_b : level splittings of qubits A and B (eps_a >= eps_b > 0)
    kappa        : XY exchange coupling between the qubits (> 0)
    gamma        : constant spectral-function value shared by both reservoirs
    """

    eps_a: float
    eps_b: float
    kappa: float
    gamma: float

    def __post_init__(self):
        for name in ("eps_a", "eps_b", "kappa", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.eps_a >= self.eps_b > 0):
            raise ValueError(
                f"require eps_a >= eps_b > 0, got eps_a={self.eps_a}, eps_b={self.eps_b}"
            )
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.gamma > 0.1 * self.eps_b:
            warnings.warn(
                "gamma > 0.1*eps_b: weak system-reservoir coupling assumption "
                "is questionable",
                stacklevel=2,
            )


def derive_params(eps_a, eps_b, kappa):
    """(bar_eps, delta_eps, omega, theta, strong) elementwise over cell arrays.

    bar_eps = (eps_a+eps_b)/2, delta_eps = eps_a-eps_b, omega =
    hypot(delta_eps, kappa)/2 (half the gap of the entangled pair).  Strong
    phase iff kappa > 2*sqrt(eps_a*eps_b), equivalently omega > bar_eps;
    theta = atan2(kappa, delta_eps), pi/2 exactly for degenerate qubits.  The
    first coupling at the phase boundary is rejected.
    """
    bar_eps = 0.5 * (eps_a + eps_b)
    delta_eps = eps_a - eps_b
    boundary = 2.0 * np.sqrt(eps_a * eps_b)
    near = np.abs(kappa - boundary) <= BOUNDARY_REL_TOL * bar_eps
    if np.count_nonzero(near):
        k, b, c = list(np.broadcast(kappa, bar_eps, boundary))[np.argmax(near)]
        raise PhaseBoundaryError(
            f"kappa={k} within {BOUNDARY_REL_TOL * b:.3g} of the "
            f"level crossing at {c}; lower transition energy vanishes there"
        )
    omega = 0.5 * np.hypot(delta_eps, kappa)
    return bar_eps, delta_eps, omega, np.arctan2(kappa, delta_eps), kappa > boundary


# excitation numbers in the (g, e1, e2, e3) order of the weak (row 0) and the
# strong (row 1) phase
EXCITATIONS = np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 2.0, 1.0]])


# positions of |00>, psi-, psi+ and |11> in the (g, e1, e2, e3) order of the
# weak (row 0) and the strong (row 1) phase
STATE_POSITIONS = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])


def _eigen_templates() -> tuple[np.ndarray, np.ndarray]:
    """Per phase, energies = bar_eps * E[0] + omega * E[1] and eigenvector
    columns = V[0] + cos(theta/2) V[1] + sin(theta/2) V[2]; returns (E, V)."""
    energy = np.array([[[-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]],
                       [[0.0, -1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]])
    vectors = np.zeros((2, 3, 4, 4))
    for phase, (g, m, p, e) in enumerate(STATE_POSITIONS):
        vectors[phase, 0, 0, g] = vectors[phase, 0, 3, e] = 1.0
        vectors[phase, 1, 1, m] = vectors[phase, 1, 2, p] = 1.0
        vectors[phase, 2, 2, m], vectors[phase, 2, 1, p] = -1.0, 1.0
    return energy, vectors


_ENERGY, _VECTORS = _eigen_templates()


def eigensystem(bar_eps: np.ndarray, omega: np.ndarray, theta: np.ndarray,
                strong: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies (..., 4), real eigenvector columns (..., 4, 4) and excitation
    numbers (..., 4) over leading cell axes.

    The entangled pair is
        psi_minus = cos(theta/2)|01> - sin(theta/2)|10>   (energy -omega)
        psi_plus  = sin(theta/2)|01> + cos(theta/2)|10>   (energy +omega)
    with |00> at -bar_eps and |11> at +bar_eps.  Weak-phase ordering is
    (|00>, psi-, psi+, |11>); strong-phase ordering (psi-, |00>, |11>, psi+).
    """
    half = 0.5 * theta
    c, s = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    # the majority phase's templates cover every cell, and cells of the other
    # phase are redone by mask, so a one-phase batch copies no template per cell
    n_strong = np.count_nonzero(strong)
    phase = int(2 * n_strong > strong.size)
    energy, vectors = _ENERGY[phase], _VECTORS[phase]
    energies = bar_eps[..., None] * energy[0] + omega[..., None] * energy[1]
    columns = vectors[0] + c * vectors[1] + s * vectors[2]
    if 0 < n_strong < strong.size:
        at = strong != phase
        energy, vectors = _ENERGY[1 - phase], _VECTORS[1 - phase]
        energies[at] = bar_eps[at, None] * energy[0] + omega[at, None] * energy[1]
        columns[at] = vectors[0] + c[at] * vectors[1] + s[at] * vectors[2]
    return energies, columns, EXCITATIONS[strong.astype(int)]


@dataclass(frozen=True)
class DensityMatrix4:
    """4x4 density matrix with an explicit basis tag.

    Finite entries, Hermiticity and unit trace are enforced at construction;
    positivity is queried separately because Bloch-Redfield states may
    (slightly) violate it and that must be reported, not rejected.
    """

    entries: np.ndarray
    basis: Basis

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got {m.shape}")
        # nan fails every tolerance comparison below, so it is rejected here
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise ValueError("density matrix not Hermitian within 1e-12")
        trace = m.trace()
        if abs(trace.real - 1.0) > HERM_TOL or abs(trace.imag) > HERM_TOL:
            raise ValueError("density matrix trace must be 1 within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def lower_eigenvalue(a, b, c_abs):
    """(a+b)/2 - hypot((a-b)/2, |c|), the lower eigenvalue of the Hermitian
    blocks [[a, c], [c*, b]], elementwise."""
    return 0.5 * (a + b) - np.hypot(0.5 * (a - b), c_abs)


def basis_change(rho: DensityMatrix4, target: Basis, vectors: np.ndarray) -> DensityMatrix4:
    """Orthogonal conjugation between the local and energy bases, Hermitized.

    With V the real (4, 4) eigenvector columns, rho_local = V rho_energy V^T.
    """
    if rho.basis is target:
        return rho
    v = vectors if target is Basis.LOCAL else vectors.T
    m = v @ rho.entries @ v.T
    return DensityMatrix4(entries=0.5 * (m + m.conj().T), basis=target)
