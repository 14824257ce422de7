import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.cli import build_parser, cmd_evolve, resolve_config
from steerlab.errors import PhaseBoundaryError
from steerlab.generator import dense
from steerlab.model import (
    EXCITATIONS,
    VEC6_ENTRIES,
    X_ENTRIES,
    derive_params,
    eigen_weights,
    eigensystem,
    eigenvectors,
)
from steerlab.steady import check_evolution

from conftest import Phase, eigen_weights_oracle, hamiltonian_matrix, random_system


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
    return derive_params(*np.array([p.eps_a, p.eps_b, p.kappa]))


def eigen(p: sl.SystemParams):
    """(energies, eigenvector columns, excitation numbers) of one system, in
    the ordering of its phase."""
    bar_eps, _, omega, theta, strong = derive(p)
    energies, _ = eigensystem(bar_eps, omega, eigen_weights(theta), int(strong))
    return energies, eigenvectors(eigen_weights(theta), strong), EXCITATIONS[int(strong)]


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
        # the number operator n_A + n_B is diagonal on the columns, with the
        # excitation numbers on its diagonal
        for kappa, want in ((1.0, [0, 1, 1, 2]), (3.0, [1, 0, 2, 1])):
            _, vectors, numbers = eigen(sl.SystemParams(1.3, 0.7, kappa, 0.01))
            assert np.array_equal(numbers, want)
            n = vectors.T @ np.diag([0.0, 1.0, 1.0, 2.0]) @ vectors
            assert np.max(np.abs(n - np.diag(numbers))) <= 1e-14

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
        bar_eps, _, omega, theta, strong = derive_params(1.0, rng.uniform(0.6, 1.0, (3, 4)),
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
        _, local_map = eigensystem(bar_eps, omega, eigen_weights(theta), int(strong))
        want = product_map(eigenvectors(eigen_weights(theta), strong))
        assert local_map.shape == (6, 6) and local_map.tobytes() == want.tobytes()

    def test_local_map_batched(self):
        # each phase's templates over a (3, 4) batch with cells of both
        # phases, against the eigenvector products and the one-cell maps
        rng = np.random.default_rng(22)
        kappa = np.where(np.arange(12).reshape(3, 4) % 3 == 1, rng.uniform(2.5, 5.0, (3, 4)),
                         rng.uniform(0.05, 1.5, (3, 4)))
        bar_eps, _, omega, theta, strong = derive_params(1.0, rng.uniform(0.6, 1.0, (3, 4)),
                                                           kappa)
        assert np.count_nonzero(strong) == 4
        weights = eigen_weights(theta)
        for phase in (0, 1):
            energies, local_map = eigensystem(bar_eps, omega, weights, phase)
            assert local_map.shape == (3, 4, 6, 6)
            want = product_map(eigenvectors(weights, np.full((3, 4), phase)))
            assert local_map.tobytes() == want.tobytes()
            for i in np.ndindex(3, 4):
                one = eigensystem(bar_eps[i][None], omega[i][None], weights[i][None], phase)
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
    """evolve's state rules, held by steady.check_evolution."""

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="not Hermitian within 1e-12"):
            check_evolution(m, 1.0, 0.01)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace must be 1 within 1e-12"):
            check_evolution(np.eye(4, dtype=complex), 1.0, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.25, np.nan)])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            check_evolution(m, 1.0, 0.01)


class _Captured(Exception):
    pass


def evolve_start(p: sl.SystemParams, initial: str, matrix=None, basis="local"):
    """The energy-basis initial state and the generator that `steerlab
    evolve` hands to steady.evolve, at p with both baths at T = 0.5, for an
    --initial kind (a custom matrix in the given basis)."""
    argv = ["evolve", *(f"--{flag}={float(value)!r}" for flag, value in
                        zip(("eps-a", "eps-b", "kappa", "gamma"), p)),
            f"--initial={initial}", "--t-final=1", "--dt=0.01"]
    cfg = resolve_config(build_parser().parse_args(argv))
    if matrix is not None:
        cfg["evolve"].update(basis=basis, matrix=[[[z.real, z.imag] for z in row]
                                                  for row in matrix.tolist()])

    def capture(g, rho0, t_final, dt):
        raise _Captured(g, rho0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("steerlab.cli.evolve", capture)
        with pytest.raises(_Captured) as caught:
            cmd_evolve(cfg)
    g, rho0 = caught.value.args
    return rho0, g


class TestBasisChange:
    """The local-to-energy rotation of `steerlab evolve`'s initial state."""

    def test_maximally_mixed_invariant(self, rng):
        rho, _ = evolve_start(random_system(rng, Phase.WEAK), "maximally-mixed")
        assert np.allclose(rho, np.eye(4) / 4, atol=1e-14)

    def test_ground_state_weak_phase(self):
        # the weak phase's ground state g is |00>
        rho, _ = evolve_start(sl.SystemParams(1.2, 0.8, 1.0, 0.01), "ground-local")
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(system_strategy(), st.integers(0, 2**32 - 1))
    def test_round_trip_and_isometry(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= rho.trace().real
        there, g = evolve_start(p, "custom", rho, "local")
        vectors = dense(g)[1]
        assert np.array_equal(vectors, eigen(p)[1])
        back = vectors @ there @ vectors.T
        assert np.max(np.abs(back - rho)) < 1e-13
        assert np.linalg.norm(there) == pytest.approx(np.linalg.norm(rho), abs=1e-13)
        assert np.allclose(np.sort(np.linalg.eigvalsh(there)),
                           np.sort(np.linalg.eigvalsh(rho)), atol=1e-13)

    def test_energy_basis_state_is_not_rotated(self, rng):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho[1, 2], rho[2, 1] = 0.05 + 0.02j, 0.05 - 0.02j
        there, _ = evolve_start(random_system(rng, Phase.STRONG), "custom", rho, "energy")
        assert np.array_equal(there, rho)


class TestEigenWeights:
    """eigen_weights writes into one (..., 3) buffer the bits that the
    former np.stack form joined (conftest.eigen_weights_oracle)."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           st.sampled_from([(-1,), (-1, 1), (1, -1, 1)]))
    def test_matches_stack_form(self, values, shape):
        theta = np.array(values).reshape(shape)
        got, want = eigen_weights(theta), eigen_weights_oracle(theta)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_scalar_and_strided(self):
        for theta in (np.float64(1.25), np.array(0.5), np.linspace(0, math.pi, 20)[::3],
                      np.linspace(0, math.pi, 24).reshape(4, 6).T):
            want = eigen_weights_oracle(theta)
            assert eigen_weights(theta).tobytes() == want.tobytes()
            assert eigen_weights(theta).shape == want.shape
