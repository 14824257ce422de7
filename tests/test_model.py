import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.errors import PhaseBoundaryError
from steerlab.model import VEC6_ENTRIES, X_ENTRIES, Basis, eigen_weights, eigenvectors

from conftest import Phase, hamiltonian_matrix, random_system


def system_strategy():
    return st.builds(
        lambda eps_b, ratio, kfrac, gamma: sl.SystemParams(
            eps_a=eps_b * ratio, eps_b=eps_b,
            kappa=2 * math.sqrt(eps_b * eps_b * ratio) * kfrac, gamma=gamma),
        eps_b=st.floats(0.3, 2.0),
        ratio=st.floats(1.0, 3.0),
        kfrac=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 2.5)),
        gamma=st.floats(1e-4, 0.02),
    )


def derive(p: sl.SystemParams):
    """(bar_eps, delta_eps, omega, theta, strong) of one system."""
    return sl.derive_params(*np.array([p.eps_a, p.eps_b, p.kappa]))


def eigen(p: sl.SystemParams):
    """(energies, eigenvector columns, excitation numbers) of one system."""
    bar_eps, _, omega, theta, strong = derive(p)
    energies, _, numbers = sl.eigensystem(bar_eps, omega, eigen_weights(theta), strong)
    return energies, eigenvectors(eigen_weights(theta), strong), numbers


def product_map(vectors: np.ndarray) -> np.ndarray:
    """Oracle of the local map: V[i,a] V[j,b] for the X entries (i, j) and
    the vector6 entries (a, b), by indexing the eigenvector columns V."""
    (i, j), (a, b) = np.array(X_ENTRIES)[..., None], np.array(VEC6_ENTRIES)[:, None]
    return vectors[..., i, a] * vectors[..., j, b]


class TestDeriveParams:
    def test_symmetric_case(self):
        bar_eps, delta_eps, omega, theta, strong = derive(sl.SystemParams(1, 1, 1, 0.01))
        assert bar_eps == 1 and delta_eps == 0
        assert omega == pytest.approx(0.5, abs=1e-15)
        assert theta == pytest.approx(math.pi / 2, abs=1e-15)
        assert not strong

    def test_detuned_case(self):
        bar_eps, delta_eps, omega, theta, strong = derive(sl.SystemParams(1.5, 0.5, 1.0, 0.01))
        assert bar_eps == 1 and delta_eps == 1
        assert omega == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert not strong  # 1 < 2*sqrt(0.75) = 1.73205

    def test_strong_phase(self):
        assert derive(sl.SystemParams(1, 1, 3, 0.01))[4]

    def test_boundary_rejected(self):
        with pytest.raises(PhaseBoundaryError):
            derive(sl.SystemParams(1, 1, 2.0 + 1e-8, 0.01))

    def test_invalid_params_rejected(self):
        # the record holds any value; the cells built from it are checked
        r = sl.ReservoirSpec(sl.Statistics.BOSE, 0.5)
        for p, message in ((sl.SystemParams(0.5, 1.0, 1.0, 0.01), "require eps_a >= eps_b"),
                           (sl.SystemParams(1.0, 1.0, -1.0, 0.01), "kappa must be > 0"),
                           (sl.SystemParams(1.0, 1.0, 1.0, 0.0), "gamma must be > 0")):
            with pytest.raises(ValueError, match=message):
                sl.Cells.of([(p, r, r)])

    def test_large_gamma_warns(self):
        r = sl.ReservoirSpec(sl.Statistics.BOSE, 0.5)
        with pytest.warns(UserWarning, match="gamma > 0.1"):
            sl.Cells.of([(sl.SystemParams(1.0, 1.0, 1.0, 0.5), r, r)])

    def test_theta_decreases_with_detuning(self):
        kappa = 1.3
        thetas = []
        for delta in (0.0, 0.2, 0.5, 1.0, 1.5):
            p = sl.SystemParams(1 + delta / 2, 1 - delta / 2, kappa, 0.01)
            thetas.append(derive(p)[3])
        assert all(a > b for a, b in zip(thetas, thetas[1:]))


class TestHamiltonian:
    def test_uncoupled_limit(self):
        h = hamiltonian_matrix(sl.SystemParams(1, 1, 1e-13, 0.01))
        assert np.allclose(h, np.diag([-1, 0, 0, 1]), atol=1e-12)

    def test_detuned_spectrum(self):
        h = hamiltonian_matrix(sl.SystemParams(1.5, 0.5, 1.0, 0.01))
        vals = np.linalg.eigvalsh(h)
        expected = [-1, -math.sqrt(2) / 2, math.sqrt(2) / 2, 1]
        assert np.allclose(vals, expected, atol=1e-12)

    def test_central_block_eigenvalues(self):
        h = hamiltonian_matrix(sl.SystemParams(1, 1, 1, 0.01))
        block = h[1:3, 1:3]
        assert np.allclose(np.linalg.eigvalsh(block), [-0.5, 0.5], atol=1e-14)

    def test_hermitian_exactly(self):
        h = hamiltonian_matrix(sl.SystemParams(1.2, 0.7, 0.9, 0.01))
        assert np.array_equal(h, h.conj().T)


class TestEigensystem:
    def test_maximally_entangled_at_symmetric(self):
        _, vectors, _ = eigen(sl.SystemParams(1, 1, 1, 0.01))
        psi_minus = vectors[:, 1]
        assert np.allclose(psi_minus, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0],
                           atol=1e-12)

    def test_small_kappa_limit(self):
        _, vectors, _ = eigen(sl.SystemParams(1.5, 0.5, 1e-6, 0.01))
        # psi- -> |01> as the coupling vanishes
        assert abs(vectors[1, 1]) == pytest.approx(1.0, abs=1e-6)

    def test_detuned_amplitudes(self):
        _, vectors, _ = eigen(sl.SystemParams(1.5, 0.5, 1.0, 0.01))
        psi_minus = vectors[:, 1]
        assert psi_minus[1].real == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
        assert psi_minus[2].real == pytest.approx(-math.sin(math.pi / 8), abs=1e-12)

    def test_orderings(self):
        weak, _, _ = eigen(sl.SystemParams(1, 1, 1, 0.01))
        assert np.allclose(weak, [-1, -0.5, 0.5, 1], atol=1e-14)
        strong, vectors, _ = eigen(sl.SystemParams(1, 1, 3, 0.01))
        assert np.allclose(strong, [-1.5, -1, 1, 1.5], atol=1e-14)
        # strong-phase ground state is the singlet
        assert abs(vectors[1, 0]) > 0.7 and abs(vectors[0, 0]) < 1e-14

    def test_number_eigenvalues(self):
        _, _, weak = eigen(sl.SystemParams(1.3, 0.7, 1.0, 0.01))
        assert np.allclose(weak, [0, 1, 1, 2], atol=1e-14)
        _, _, strong = eigen(sl.SystemParams(1.3, 0.7, 3.0, 0.01))
        assert np.allclose(strong, [1, 0, 2, 1], atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(system_strategy())
    def test_eigen_relation(self, p):
        h = hamiltonian_matrix(p)
        energies, vectors, _ = eigen(p)
        for k in range(4):
            v = vectors[:, k]
            assert np.max(np.abs(h @ v - energies[k] * v)) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(system_strategy())
    def test_real_orthonormal_columns(self, p):
        _, vectors, _ = eigen(p)
        assert vectors.dtype == np.float64
        assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) <= 1e-15

    def test_real_orthonormal_columns_batched(self):
        # both phases in one (3, 4) batch
        rng = np.random.default_rng(18)
        kappa = np.where(np.arange(12).reshape(3, 4) % 2 == 1, rng.uniform(2.5, 5.0, (3, 4)),
                         rng.uniform(0.05, 1.5, (3, 4)))
        bar_eps, _, omega, theta, strong = sl.derive_params(1.0, rng.uniform(0.6, 1.0, (3, 4)),
                                                           kappa)
        assert np.count_nonzero(strong) == 6
        vectors = eigenvectors(eigen_weights(theta), strong)
        assert vectors.dtype == np.float64 and vectors.shape == (3, 4, 4, 4)
        gram = np.swapaxes(vectors, -1, -2) @ vectors
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(system_strategy())
    def test_local_map_is_eigenvector_product(self, p):
        # each entry of the map is one monomial of cos and sin(theta/2), so the
        # template sum has the bits of the product of the columns
        bar_eps, _, omega, theta, strong = derive(p)
        _, local_map, _ = sl.eigensystem(bar_eps, omega, eigen_weights(theta), strong)
        want = product_map(eigenvectors(eigen_weights(theta), strong))
        assert local_map.shape == (6, 6) and local_map.tobytes() == want.tobytes()

    def test_local_map_batched(self):
        # both phases in one (3, 4) batch, against the one-cell maps
        rng = np.random.default_rng(22)
        kappa = np.where(np.arange(12).reshape(3, 4) % 3 == 1, rng.uniform(2.5, 5.0, (3, 4)),
                         rng.uniform(0.05, 1.5, (3, 4)))
        bar_eps, _, omega, theta, strong = sl.derive_params(1.0, rng.uniform(0.6, 1.0, (3, 4)),
                                                           kappa)
        assert np.count_nonzero(strong) == 4
        weights = eigen_weights(theta)
        energies, local_map, _ = sl.eigensystem(bar_eps, omega, weights, strong)
        assert local_map.shape == (3, 4, 6, 6)
        assert local_map.tobytes() == product_map(eigenvectors(weights, strong)).tobytes()
        for i in np.ndindex(3, 4):
            one = sl.eigensystem(bar_eps[i][None], omega[i][None], weights[i][None],
                                 strong[i][None])
            assert energies[i].tobytes() == one[0][0].tobytes()
            assert local_map[i].tobytes() == one[1][0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(system_strategy())
    def test_phase_matches_ground_state(self, p):
        energies, _, _ = eigen(p)
        _, _, omega, _, strong = derive(p)
        singlet_first = abs(energies[0] + omega) < 1e-12
        assert singlet_first == strong


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError):
            sl.DensityMatrix4(entries=m, basis=Basis.LOCAL)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            sl.DensityMatrix4(entries=np.eye(4, dtype=complex), basis=Basis.LOCAL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.25, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            sl.DensityMatrix4(entries=m, basis=Basis.LOCAL)


class TestBasisChange:
    def test_maximally_mixed_invariant(self, rng):
        p = random_system(rng, Phase.WEAK)
        _, vectors, _ = eigen(p)
        rho = sl.DensityMatrix4(entries=np.eye(4, dtype=complex) / 4, basis=Basis.LOCAL)
        out = sl.basis_change(rho, Basis.ENERGY, vectors)
        assert np.allclose(out.entries, np.eye(4) / 4, atol=1e-14)

    def test_ground_state_weak_phase(self):
        p = sl.SystemParams(1.2, 0.8, 1.0, 0.01)
        _, vectors, _ = eigen(p)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        rho_g = sl.DensityMatrix4(entries=m, basis=Basis.ENERGY)
        local = sl.basis_change(rho_g, Basis.LOCAL, vectors)
        assert local.entries[0, 0].real == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(system_strategy(), st.integers(0, 2**32 - 1))
    def test_round_trip_and_isometry(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= rho.trace().real
        rho = sl.DensityMatrix4(entries=rho, basis=Basis.LOCAL)
        _, vectors, _ = eigen(p)
        there = sl.basis_change(rho, Basis.ENERGY, vectors)
        back = sl.basis_change(there, Basis.LOCAL, vectors)
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-13
        assert np.linalg.norm(there.entries) == pytest.approx(
            np.linalg.norm(rho.entries), abs=1e-13)
        assert np.allclose(np.sort(np.linalg.eigvalsh(there.entries)),
                           np.sort(np.linalg.eigvalsh(rho.entries)), atol=1e-13)
