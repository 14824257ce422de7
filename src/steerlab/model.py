"""Two-qubit XY model: Hamiltonian, eigensystem, phases, basis changes.

Conventions used throughout the package:

* local product basis ordered (|00>, |01>, |10>, |11>), first slot qubit A,
  |0> the lower level of each qubit (hbar = 1);
* energy basis ordered (g, e1, e2, e3) ascending in energy;
* eigenvector global phases fixed so the |01> amplitude is real nonnegative.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

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


class SystemParams(NamedTuple):
    """Bare model parameters, all in the same energy units.

    eps_a, eps_b : level splittings of qubits A and B (eps_a >= eps_b > 0)
    kappa        : XY exchange coupling between the qubits (> 0)
    gamma        : constant spectral-function value shared by both reservoirs

    A record only: rates.Cells.build checks the values of the cells it
    builds from it.
    """

    eps_a: float
    eps_b: float
    kappa: float
    gamma: float


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
X_ENTRIES = ([0, 1, 2, 3, 1, 0], [0, 1, 2, 3, 2, 3])     # (row, column) of local_x
VEC6_ENTRIES = ([0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1])  # and of vector6's entries


def _eigen_templates() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per phase, energies = bar_eps E[0] + omega E[1], eigenvector columns V =
    f @ T for eigen_weights f, and W[k, l] = V[i_k, a_l] V[j_k, b_l] = (f f^T).ravel()
    @ L (X_ENTRIES, VEC6_ENTRIES); (E, T, L).  Each sum has one term: exact."""
    energy = np.array([[[-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0]],
                       [[0.0, -1.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]])
    vectors = np.zeros((2, 3, 4, 4))
    for phase, (g, m, p, e) in enumerate(STATE_POSITIONS):
        vectors[phase, 0, 0, g] = vectors[phase, 0, 3, e] = 1.0
        vectors[phase, 1, 1, m] = vectors[phase, 1, 2, p] = 1.0
        vectors[phase, 2, 2, m], vectors[phase, 2, 1, p] = -1.0, 1.0
    (i, j), (a, b) = np.array(X_ENTRIES)[..., None], np.array(VEC6_ENTRIES)[:, None]
    pairs = vectors[:, :, None, i, a] * vectors[:, None, :, j, b]
    return energy, vectors, pairs.reshape(2, 9, 36)


_ENERGY, _VECTORS, _LOCAL_MAP = _eigen_templates()


def eigen_weights(theta: np.ndarray) -> np.ndarray:
    """The eigenvector templates' weights (1, cos(theta/2), sin(theta/2)), (..., 3)."""
    return np.stack([np.ones_like(theta), np.cos(0.5 * theta), np.sin(0.5 * theta)], axis=-1)


def eigensystem(bar_eps: np.ndarray, omega: np.ndarray, weights: np.ndarray,
                strong: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energies (..., 4), local maps (..., 6, 6) and excitation numbers
    (..., 4) over leading cell axes, for eigen_weights(theta) weights.

    The entangled pair is
        psi_minus = cos(theta/2)|01> - sin(theta/2)|10>   (energy -omega)
        psi_plus  = sin(theta/2)|01> + cos(theta/2)|10>   (energy +omega)
    with |00> at -bar_eps and |11> at +bar_eps.  Weak-phase ordering is
    (|00>, psi-, psi+, |11>); strong-phase ordering (psi-, |00>, |11>, psi+).
    The real local map takes vector6 v to local_x, sum_ab V[i,a] V[j,b] v_ab.
    """
    products = (weights[..., :, None] * weights[..., None, :]).reshape(strong.shape + (9,))
    # the majority phase's templates cover every cell, and cells of the other
    # phase are redone by mask, so a one-phase batch copies no template per cell
    n_strong = np.count_nonzero(strong)
    phase = int(2 * n_strong > strong.size)
    energy = _ENERGY[phase]
    energies = bar_eps[..., None] * energy[0] + omega[..., None] * energy[1]
    local_map = np.dot(products, _LOCAL_MAP[phase])
    if 0 < n_strong < strong.size:
        at, energy = strong != phase, _ENERGY[1 - phase]
        energies[at] = bar_eps[at, None] * energy[0] + omega[at, None] * energy[1]
        local_map[at] = np.dot(products[at], _LOCAL_MAP[1 - phase])
    return energies, local_map.reshape(strong.shape + (6, 6)), EXCITATIONS[strong.astype(int)]


def eigenvectors(weights: np.ndarray, strong: np.ndarray) -> np.ndarray:
    """Real eigenvector columns (..., 4, 4), in the order of eigensystem."""
    return np.einsum("...t,...tij->...ij", weights, _VECTORS[np.asarray(strong, dtype=int)])


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
