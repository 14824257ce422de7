import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.errors import ConfigurationError
from steerlab.generator import (
    _TEMPLATES,
    SETUPS,
    Setup,
    dense,
    to_vector6,
)
from steerlab.analysis import BLOCK_CELLS
from steerlab.model import EXCITATIONS, eigensystem
from steerlab.rates import Statistics, rate_set
from steerlab.steady import steady_state

from conftest import (
    Phase,
    batches,
    cell,
    columns,
    equilibrium_analytic,
    from_vector6,
    generator_oracle,
    load_preset_config,
    occupation,
    one_cell,
    random_system,
    rates,
    unpack,
)

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI
SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def generator(p, ra, rb):
    """The generator of one point, as the one-cell batch."""
    return sl.build_generator(sl.Cells.of([(p, ra, rb)]))


def coherent_part(g) -> np.ndarray:
    """The +/- i*Omega entries of a one-cell generator, Omega = 2*omega."""
    omega = 2 * g.cells.omega[0]
    return np.diag([0, 0, 0, 0, 1j * omega, -1j * omega])


def printed_matrix(params, ra, rb, setup: Setup) -> np.ndarray:
    """The evolution matrix transcribed directly from its printed form,
    independent of the per-reservoir assembly in the package."""
    rs = rates(params, ra, rb)
    gam = params.gamma
    p, q = rs.p, rs.q
    sa, sb, ta, tb = rs.s_a, rs.s_b, rs.t_a, rs.t_b
    _, _, half_omega, theta, _ = sl.derive_params(
        *np.array([params.eps_a, params.eps_b, params.kappa]))
    omega = 2 * half_omega
    m = np.zeros((6, 6), dtype=complex)
    if setup is Setup.WEAK_BOSE:
        m[:4, :4] = [
            [-2 * (p + q), 2 * (gam + q), 2 * (gam + p), 0],
            [2 * q, -2 * (gam + p + q), 0, 2 * (gam + p)],
            [2 * p, 0, -2 * (gam + p + q), 2 * (gam + q)],
            [0, 2 * p, 2 * q, -2 * (2 * gam + p + q)],
        ]
        for col in (4, 5):
            m[0, col], m[1, col], m[2, col], m[3, col] = sb - sa, ta - tb, tb - ta, sa - sb
        for row in (4, 5):
            m[row, 0], m[row, 1], m[row, 2], m[row, 3] = sb - sa, tb - ta, ta - tb, sa - sb
        m[4, 4] = 1j * omega - 2 * (gam + p + q)
        m[5, 5] = -1j * omega - 2 * (gam + p + q)
    elif setup is Setup.WEAK_FERMI:
        m[:4, :4] = [
            [-2 * (p + q), 2 * (gam - q), 2 * (gam - p), 0],
            [2 * q, -2 * (gam + p - q), 0, 2 * (gam - p)],
            [2 * p, 0, -2 * (gam - p + q), 2 * (gam - q)],
            [0, 2 * p, 2 * q, -2 * (2 * gam - p - q)],
        ]
        for col in (4, 5):
            m[0, col], m[1, col], m[2, col], m[3, col] = sa - sb, sb - sa, sb - sa, sa - sb
        for row in (4, 5):
            m[row, :4] = sb - sa
        m[4, 4] = 1j * omega - 2 * gam
        m[5, 5] = -1j * omega - 2 * gam
    else:
        sin_th = math.sin(theta)
        m[:4, :4] = [
            [-2 * (p + q), 2 * (gam + q), 2 * (gam + p), 0],
            [2 * q, -2 * (gam + p + q), 0, 2 * (gam + p)],
            [2 * p, 0, -2 * (gam + p + q), 2 * (gam + q)],
            [0, 2 * p, 2 * q, -2 * (2 * gam + p + q)],
        ]
        for col in (4, 5):
            m[0, col] = -sa - sb - 2 * gam * sin_th
            m[1, col] = ta + tb + gam * sin_th
            m[2, col] = -ta - tb + gam * sin_th
            m[3, col] = sa + sb
        for row in (4, 5):
            m[row, 0] = -sa - sb
            m[row, 1] = -ta - tb + gam * sin_th
            m[row, 2] = ta + tb + gam * sin_th
            m[row, 3] = sa + sb + 2 * gam * sin_th
        m[4, 4] = 1j * omega - 2 * (gam + p + q)
        m[5, 5] = -1j * omega - 2 * (gam + p + q)
    return m


def redfield_dissipator_6x6(p: sl.SystemParams, r: sl.ReservoirSpec, which: str,
                            g: sl.GeneratorArrays) -> np.ndarray:
    """Textbook non-secular dissipator for one reservoir, projected onto the
    6-entry representation, in the eigenbasis of the one-cell generator g.
    Independent route used to validate the printed matrices and the
    per-reservoir split."""
    energies, vectors = g.energies[0], dense(g)[1]
    s_local = np.kron(SX, I2) if which == "A" else np.kron(I2, SX)
    s = vectors.conj().T @ s_local @ vectors
    gam = p.gamma
    freqs: dict[float, np.ndarray] = {}
    for i in range(4):
        for j in range(4):
            if i == j or abs(s[i, j]) < 1e-14:
                continue
            w = round(float(energies[j] - energies[i]), 12)
            a = np.zeros((4, 4), dtype=complex)
            a[i, j] = s[i, j]
            freqs[w] = freqs.get(w, 0) + a

    def half_rate(w):
        n = occupation(r, abs(w))
        if r.statistics is BOSE:
            return gam * (1 + n) if w > 0 else gam * n
        return gam * (1 - n) if w > 0 else gam * n

    def apply(rho):
        out = np.zeros((4, 4), dtype=complex)
        for w, aw in freqs.items():
            for w2, aw2 in freqs.items():
                term = aw @ rho @ aw2.conj().T
                out += half_rate(w) * (term - aw2.conj().T @ aw @ rho)
                out += half_rate(w2) * (term - rho @ aw2.conj().T @ aw)
        return out

    idx = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)]
    cols = []
    for (i, j) in idx:
        e = np.zeros((4, 4), dtype=complex)
        e[i, j] = 1.0
        out = apply(e)
        cols.append([out[a, b] for (a, b) in idx])
    return np.array(cols).T


CASES = [
    (sl.SystemParams(1.5, 0.5, 1.0, 0.01), BOSE, (0.5, 0.0), (0.3, 0.0), Setup.WEAK_BOSE),
    (sl.SystemParams(1.8, 0.2, 3.0, 0.01), BOSE, (0.7, 0.0), (0.3, 0.0), Setup.STRONG_BOSE),
    (sl.SystemParams(1.2, 0.8, 0.6, 0.01), FERMI, (0.15, 0.6), (0.15, 1.4), Setup.WEAK_FERMI),
]


class TestBuildGenerator:
    @pytest.mark.parametrize("p,stat,a,b,setup", CASES)
    def test_matches_printed_form(self, p, stat, a, b, setup):
        ra, rb = sl.ReservoirSpec(stat, *a), sl.ReservoirSpec(stat, *b)
        g = generator(p, ra, rb)
        assert SETUPS[g.cells.setup[0]] is setup
        assert np.max(np.abs(dense(g)[0] - printed_matrix(p, ra, rb, setup))) < 1e-15

    @pytest.mark.parametrize("p,stat,a,b,setup", CASES)
    def test_coherence_pair_shape(self, p, stat, a, b, setup):
        # the shape of the compact layout, in the printed form: one real row
        # and one real column shared by the pair, and a diagonal -z, -z*
        m = printed_matrix(p, sl.ReservoirSpec(stat, *a), sl.ReservoirSpec(stat, *b), setup)
        assert np.array_equal(m[4, :4], m[5, :4]) and np.array_equal(m[:4, 4], m[:4, 5])
        assert not np.any(m[:4].imag) and not np.any(m[4:, :4].imag)
        assert m[4, 5] == m[5, 4] == 0 and m[5, 5] == np.conj(m[4, 4])

    def test_strong_fermi_rejected(self):
        p = sl.SystemParams(1, 1, 3, 0.01)
        r = sl.ReservoirSpec(FERMI, 0.2, 1.0)
        with pytest.raises(ConfigurationError):
            generator(p, r, r)

    @pytest.mark.parametrize("p,stat,a,b,setup", CASES)
    def test_decomposition_sums_to_total(self, p, stat, a, b, setup):
        g = generator(p, sl.ReservoirSpec(stat, *a), sl.ReservoirSpec(stat, *b))
        parts = unpack(g.parts[0])
        resum = coherent_part(g) + parts[0] + parts[1]
        assert np.max(np.abs(resum - dense(g)[0])) < 1e-14

    @pytest.mark.parametrize("setup,shape", [
        *[pytest.param(setup, shape, id=f"{setup}-shape{i}")
          for setup in SETUPS for i, shape in enumerate([(1,), (3, 4)])],
        pytest.param("mixed-bose", (12,), id="mixed-bose-shape0"),
        pytest.param("mixed-bose", (3, 4), id="mixed-bose-shape1"),
    ])
    def test_parts_match_product_sum(self, setup, shape):
        # the einsum assembly against the broadcast product-sum of the rate
        # coefficients and the compact templates: the same bits, signs of zeros
        # included, at N = 1 and on a 2-D batch, and on batches that
        # interleave weak-bose and strong-bose cells; temperatures from 2e-3
        # (occupations underflow to 0) up to 3
        rng = np.random.default_rng(14)
        t_a, t_b = np.exp(rng.uniform(math.log(2e-3), math.log(3.0), (2,) + shape))
        if setup is Setup.WEAK_FERMI:
            mu_a, mu_b = rng.uniform(-1.0, 3.0, (2,) + shape)
            cells = sl.Cells.build(1.5, 0.5, rng.uniform(0.1, 1.4, shape), 0.01, t_a, t_b,
                                   mu_a, mu_b, FERMI)
        else:
            strong = (setup is Setup.STRONG_BOSE if setup != "mixed-bose" else
                      rng.permutation(np.arange(math.prod(shape)) % 2).reshape(shape) == 1)
            kappa = np.where(strong, rng.uniform(2.5, 5.0, shape), rng.uniform(0.1, 1.5, shape))
            cells = sl.Cells.build(rng.uniform(1.0, 1.4, shape), 1.0, kappa, 0.01, t_a, t_b,
                                   0.0, 0.0, BOSE)
        codes = cells.setup
        if setup == "mixed-bose":
            assert np.array_equal(codes, np.where(strong, 2, 0))
            assert set(codes.ravel().tolist()) == {0, 2}
        else:
            assert np.all(codes == SETUPS.index(setup))
        want = (rate_set(cells)[..., None, None] * _TEMPLATES[codes]).sum(axis=-3)
        got = sl.build_generator(cells).parts
        assert got.shape == shape + (2, 5, 5)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=60, deadline=None)
    @given(g=batches())
    def test_compact_layout_matches_dense_oracle(self, g):
        # weak-bose, strong-bose and weak-fermi cells: the compact parts are the
        # leading 5x5 blocks of the former dense product-sum, bit for bit and
        # signs of zeros included; the dense parts repeat B, C and d in row and
        # column 5 and hold 0 at (4, 5) and (5, 4), so the layout loses nothing;
        # and entries that no template of a setup touches are +0
        parts, total = generator_oracle(g.cells)
        compact = parts[..., :5, :5]
        assert np.array_equal(g.parts, compact)
        assert np.array_equal(np.signbit(g.parts), np.signbit(compact))
        assert np.array_equal(unpack(g.parts), parts)
        assert np.all(parts[..., 4, 5] == 0) and np.all(parts[..., 5, 4] == 0)
        untouched = np.broadcast_to(~np.any(_TEMPLATES, axis=2)[g.cells.setup], g.parts.shape)
        assert np.count_nonzero(untouched) and np.all(g.parts[untouched] == 0)
        assert not np.any(np.signbit(g.parts[untouched]))
        assert np.array_equal(g.total, g.parts[:, 0] + g.parts[:, 1])
        for i in range(len(g.total)):
            # the dense one-cell matrix is the former complex total, bit for bit
            m, vectors = dense(cell(g, i))
            assert m.tobytes() == total[i].tobytes()
            assert vectors.tobytes() == columns(g)[i].tobytes()

    @pytest.mark.parametrize("kappa", [[1.5, 2.5, 3.0, 0.5, 4.0], [2.5, 1.5, 0.5, 3.0, 1.0]],
                             ids=["weak-first", "strong-first"])
    def test_mixed_phase_batch_matches_one_cell_batches(self, kappa):
        # couplings on both sides of the crossing 2 sqrt(eps_a eps_b) = 2, with
        # the first cell and the majority in opposite phases: one setup's
        # pass covers the batch and the other's redoes its own cells
        t_a, t_b = [0.4, 0.7, 1.1, 0.3, 2.0], [0.9, 0.2, 0.6, 1.5, 0.5]
        g = sl.build_generator(sl.Cells.build(1.0, 1.0, np.array(kappa), 0.01,
                                              np.array(t_a), np.array(t_b), 0.0, 0.0, BOSE))
        assert 0 < np.count_nonzero(g.cells.setup == 2) < len(kappa)
        for i in range(len(kappa)):
            one = sl.build_generator(sl.Cells.build(1.0, 1.0, np.array(kappa[i:i + 1]), 0.01,
                                                    np.array(t_a[i:i + 1]),
                                                    np.array(t_b[i:i + 1]), 0.0, 0.0, BOSE))
            for name in ("energies", "local_map", "numbers", "total", "parts"):
                # bit for bit, signs of zeros included
                got, want = getattr(g, name)[i], getattr(one, name)[0]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            # and so are the steady state and the currents of the cell
            st, st_one = steady_state(g), steady_state(one)
            currents, currents_one = sl.transport_report(g, st), sl.transport_report(one, st_one)
            for got, want in [(st.vector6[i], st_one.vector6[0]),
                              (st.local_x[i], st_one.local_x[0]),
                              *[(c[i], c_one[0]) for c, c_one in zip(currents, currents_one)]]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_pass_per_setup(self, monkeypatch):
        # each setup code present in a batch is evaluated once, with its
        # phase's eigensystem: a sweep block and a point are one setup, a
        # kappa batch across the crossing two
        calls = []

        def spy(bar_eps, omega, weights, phase):
            calls.append((phase, bar_eps.shape))
            return eigensystem(bar_eps, omega, weights, phase)
        monkeypatch.setattr("steerlab.generator.eigensystem", spy)
        cfg = load_preset_config("fig8b")  # strong-bose
        block = cfg.grid[:BLOCK_CELLS // cfg.nx * cfg.nx]
        point = sl.Cells.of([(sl.SystemParams(1.0, 1.0, 1.0, 0.01),
                              sl.ReservoirSpec(BOSE, 0.5), sl.ReservoirSpec(BOSE, 0.7))])
        kappa = sl.Cells.build(1.0, 1.0, np.array([1.5, 2.5, 3.0, 0.5, 4.0]), 0.01, 0.5, 0.7,
                               0.0, 0.0, BOSE)
        for cells, phases in [(block, [1]), (point, [0]), (kappa, [0, 1])]:
            calls.clear()
            g = sl.build_generator(cells)
            # one call per setup, the first over the whole batch
            assert sorted(p for p, _ in calls) == phases and calls[0][1] == cells.theta.shape
            # the excitation numbers of each cell's phase
            assert g.numbers.tobytes() == EXCITATIONS[(cells.setup == 2).astype(int)].tobytes()

    @pytest.mark.parametrize("p,stat,a,b,setup", CASES)
    def test_trace_preservation(self, p, stat, a, b, setup):
        g = generator(p, sl.ReservoirSpec(stat, *a), sl.ReservoirSpec(stat, *b))
        col_sums = dense(g)[0][:4, :].sum(axis=0)
        assert np.max(np.abs(col_sums)) < 1e-12

    def test_coherent_part_content(self):
        # the total minus both reservoir parts holds only +/- i*Omega
        p = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.5)
        g = generator(p, r, r)
        expected = np.zeros((6, 6), dtype=complex)
        # Omega = 2 omega = hypot(eps_a - eps_b, kappa)
        expected[4, 4] = 1j * math.sqrt(2)
        expected[5, 5] = -1j * math.sqrt(2)
        coherent = dense(g)[0] - unpack(g.parts[0, 0]) - unpack(g.parts[0, 1])
        assert np.max(np.abs(coherent - expected)) < 1e-15

    def test_equilibrium_weak_block_decoupling(self):
        for stat in (BOSE, FERMI):
            p = sl.SystemParams(1.4, 0.6, 1.0, 0.01)
            r = sl.ReservoirSpec(stat, 0.5, 0.8 if stat is FERMI else 0.0)
            m = dense(generator(p, r, r))[0]
            assert np.max(np.abs(m[:4, 4:])) == 0.0
            assert np.max(np.abs(m[4:, :4])) == 0.0

    def test_strong_bose_spontaneous_coupling_terms(self):
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.4)
        m = dense(generator(p, r, r))[0]
        # theta = atan2(kappa, eps_a - eps_b)
        rs, sin_th = rates(p, r, r), math.sin(math.atan2(3.0, 1.6))
        assert m[0, 4] == pytest.approx(-rs.s_a - rs.s_b - 2 * 0.01 * sin_th, rel=1e-13)
        assert m[1, 4] == pytest.approx(rs.t_a + rs.t_b + 0.01 * sin_th, rel=1e-13)
        assert m[4, 3] == pytest.approx(rs.s_a + rs.s_b + 2 * 0.01 * sin_th, rel=1e-13)

    def test_reservoir_part_independence(self):
        # the A part must not change when only T_B moves
        p = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        ra = sl.ReservoirSpec(BOSE, 0.5)
        g1 = generator(p, ra, sl.ReservoirSpec(BOSE, 0.3))
        g2 = generator(p, ra, sl.ReservoirSpec(BOSE, 0.9))
        assert np.array_equal(g1.parts[0, 0], g2.parts[0, 0])
        assert not np.array_equal(g1.parts[0, 1], g2.parts[0, 1])

    def test_strong_bose_parts_match_textbook_redfield(self):
        # the independent eigenoperator construction reproduces the printed
        # strong-phase matrix including its per-reservoir decomposition
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        ra, rb = sl.ReservoirSpec(BOSE, 0.3), sl.ReservoirSpec(BOSE, 0.7)
        g = generator(p, ra, rb)
        parts = unpack(g.parts[0])
        assert np.max(np.abs(redfield_dissipator_6x6(p, ra, "A", g) - parts[0])) < 1e-14
        assert np.max(np.abs(redfield_dissipator_6x6(p, rb, "B", g) - parts[1])) < 1e-14

    @pytest.mark.parametrize("p,stat,a,b,setup", CASES)
    def test_population_blocks_match_textbook_redfield(self, p, stat, a, b, setup):
        # population sector agrees with the independent construction in every
        # setup (the printed weak-phase coupling blocks intentionally differ)
        ra, rb = sl.ReservoirSpec(stat, *a), sl.ReservoirSpec(stat, *b)
        g = generator(p, ra, rb)
        da = redfield_dissipator_6x6(p, ra, "A", g)
        db = redfield_dissipator_6x6(p, rb, "B", g)
        assert np.max(np.abs(da[:4, :4] - g.parts[0, 0, :4, :4])) < 1e-13
        assert np.max(np.abs(db[:4, :4] - g.parts[0, 1, :4, :4])) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_null_space_unique(self, seed):
        rng = np.random.default_rng(seed)
        phase = Phase.WEAK if rng.random() < 0.5 else Phase.STRONG
        p = random_system(rng, phase)
        stat = BOSE if phase is Phase.STRONG or rng.random() < 0.5 else FERMI
        mu = rng.uniform(-0.5, 2.0) if stat is FERMI else 0.0
        ra = sl.ReservoirSpec(stat, rng.uniform(0.1, 2.0), mu)
        rb = sl.ReservoirSpec(stat, rng.uniform(0.1, 2.0), mu)
        m = dense(generator(p, ra, rb))[0]
        eigvals = np.sort(np.abs(np.linalg.eigvals(m)))
        assert eigvals[0] < 1e-12 * max(1.0, np.abs(m).max())
        assert eigvals[1] > 100 * eigvals[0]


class TestApplyAndVectors:
    def test_steady_vector_annihilated(self):
        p = sl.SystemParams(1.3, 0.7, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.5)
        g, st = one_cell(p, r, r)
        assert np.max(np.abs(dense(g)[0] @ st.vector6[0])) < 1e-12

    @pytest.mark.parametrize("p,stat,t,mu", [
        (sl.SystemParams(1.5, 0.5, 1.0, 0.01), BOSE, 0.5, 0.0),
        (sl.SystemParams(1.8, 0.2, 3.0, 0.01), BOSE, 0.4, 0.0),
        (sl.SystemParams(1.2, 0.8, 0.6, 0.01), FERMI, 0.15, 0.9),
    ])
    def test_analytic_equilibrium_in_null_space(self, p, stat, t, mu):
        # the closed-form equilibrium state is annihilated independently of
        # the numerical solver
        r = sl.ReservoirSpec(stat, t, mu)
        m = dense(generator(p, r, r))[0]
        ana = equilibrium_analytic(p, r)
        v, leak = to_vector6(ana.energy.entries)
        assert leak == 0.0
        assert np.max(np.abs(m @ v)) < 1e-12

    def test_coherent_block_action(self):
        p = sl.SystemParams(1.3, 0.7, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.5)
        g = generator(p, r, r)
        c = 0.3 + 0.1j
        v = np.array([0, 0, 0, 0, c, np.conj(c)])
        out = (dense(g)[0] - unpack(g.parts[0, 0]) - unpack(g.parts[0, 1])) @ v
        omega = 2 * g.cells.omega[0]
        assert out[4] == pytest.approx(1j * omega * c)
        assert out[5] == pytest.approx(-1j * omega * np.conj(c))

    def test_population_sum_conserved(self, rng):
        p = random_system(rng, Phase.WEAK)
        r = sl.ReservoirSpec(BOSE, 0.5)
        m = dense(generator(p, r, r))[0]
        pops = rng.dirichlet(np.ones(4))
        c = rng.normal() * 0.05 + 1j * rng.normal() * 0.05
        v = np.array([*pops, c, np.conj(c)])
        dv = m @ v
        assert abs(dv[:4].sum()) < 1e-12
        # hermiticity propagates: entry 6 stays conj of entry 5
        assert abs(dv[5] - np.conj(dv[4])) < 1e-13

    def test_vector6_round_trip(self):
        v = np.array([0.4, 0.3, 0.2, 0.1, 0.05 + 0.02j, 0.05 - 0.02j])
        back, leak = to_vector6(from_vector6(v))
        assert np.array_equal(back, v) and leak == 0.0
