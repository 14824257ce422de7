import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab import correlations
from steerlab.cli import main
from steerlab.correlations import (
    MARGIN_TOL,
    PPT_TOL,
    Method,
    _closed_margins,
    _ppt_margins,
    _rho14_inert,
    _x_rows,
    check_hierarchy,
    xstate_faults,
)
from steerlab.errors import InternalConsistencyError
from steerlab.generator import dense
from steerlab.rates import Statistics

from conftest import (
    Direction,
    Phase,
    _oracle_ppt_margins,
    _oracle_x_entries,
    assert_same_classification,
    classify_oracle,
    dense_local,
    depolarized,
    eigen_populations,
    one_cell,
    ppt_margins,
    random_system,
    row0,
    werner_matrix,
    x_vector,
)

SQ3 = math.sqrt(3)


def xstate(rho):
    """The X rows (6, 1) of one local-basis state."""
    return _x_rows(x_vector(rho)[None])


def classify(rho, dual=True):
    """Row 0 of the classification of rho as the one-cell batch."""
    return row0(sl.classify(x_vector(rho[None]), dual=dual))


def factors(rows):
    """(f_a, f_b) of the steering inequalities of the one-cell X rows (6, 1),
    read back from the closed-form margins |rho23|^2 - (f_a +/- f_b)."""
    _, m_ab, m_ba, _ = _closed_margins(rows)[:, 0]
    coh2 = rows[4, 0] * rows[4, 0]
    return coh2 - 0.5 * (m_ab + m_ba), 0.5 * (m_ba - m_ab)


def steering_map(rho, direction):
    """The partially depolarized state whose entanglement witnesses steering."""
    return depolarized(rho)[1 if direction is Direction.A_TO_B else 2]


def ppt(m):
    """(entangled, margin) of a (4, 4) state by the partial transpose."""
    margin = ppt_margins(m)[0]
    return margin > PPT_TOL, margin


def general_steering(rho, direction):
    return ppt(steering_map(rho, direction))


def closed_steering(rows):
    """((A->B flag, margin), (B->A flag, margin)) from the closed forms, of
    the one-cell X rows (6, 1)."""
    _, m_ab, m_ba, _ = _closed_margins(rows)[:, 0]
    return (m_ab > MARGIN_TOL, m_ab), (m_ba > MARGIN_TOL, m_ba)


def closed_bell(rows):
    margin = _closed_margins(rows)[3, 0]
    return margin > MARGIN_TOL, margin


def x_matrix(pops, rho23=0.0, rho14=0.0):
    """The local-basis X state with populations pops and coherences rho23, rho14."""
    m = np.diag(np.asarray(pops, dtype=complex))
    m[1, 2], m[2, 1] = rho23, np.conj(rho23)
    m[0, 3], m[3, 0] = rho14, np.conj(rho14)
    return m


def xstate_strategy(with_rho14=False):
    """Random valid X states with a consistent coherence rho23, and rho14 = 0
    unless with_rho14, which draws |rho14| up to sqrt(rho11 rho44)."""
    def build(pops, coh_frac, phase, outer_frac, outer_phase):
        pops = np.array(pops) / sum(pops)
        coh = coh_frac * math.sqrt(pops[1] * pops[2]) * np.exp(1j * phase)
        outer = outer_frac * math.sqrt(pops[0] * pops[3]) * np.exp(1j * outer_phase)
        return x_matrix(pops, coh, outer)
    return st.builds(
        build,
        st.tuples(*[st.floats(0.01, 1.0) for _ in range(4)]),
        st.floats(0.0, 0.999),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 1.0) if with_rho14 else st.just(0.0),
        st.floats(0.0, 2 * math.pi),
    )


class TestExtractXState:
    def test_identity_over_four(self):
        rho = np.eye(4, dtype=complex) / 4
        rows = xstate(rho)
        assert rows.shape == (6, 1) and rows.flags.c_contiguous
        assert rows[:4, 0].tolist() == [0.25] * 4
        assert rows[4:, 0].tolist() == [0.0, 0.0]

    def test_rows_are_populations_and_moduli(self):
        x = np.array([[0.4, 0.3, 0.2, 0.1, 0.3 - 0.4j, -0.05j]])
        assert _x_rows(x)[:, 0].tolist() == [0.4, 0.3, 0.2, 0.1, 0.5, 0.05]

    def test_steady_states_are_x(self, rng):
        for phase in (Phase.WEAK, Phase.STRONG):
            p = random_system(rng, phase)
            r = sl.ReservoirSpec(Statistics.BOSE, 0.5)
            g, ss = one_cell(p, r, sl.ReservoirSpec(Statistics.BOSE, 0.7))
            x_vector(dense_local(ss.vector6, dense(g)[1]))   # raises on a non-X entry
            assert not xstate_faults(_x_rows(ss.local_x)).any()


class TestSteeringMap:
    def test_pure_product_state(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        out = steering_map(m, Direction.A_TO_B)
        c = (3 - SQ3) / 3
        expected = np.diag([1 / SQ3 + c / 2, 0, c / 2, 0])
        assert np.allclose(out, expected, atol=1e-14)
        flag, _ = ppt(out)
        assert not flag

    def test_identity_fixed_point(self):
        rho = np.eye(4, dtype=complex) / 4
        out = steering_map(rho, Direction.B_TO_A)
        assert np.allclose(out, np.eye(4) / 4, atol=1e-15)

    def test_werner_rescaling(self):
        w = 0.8
        out = steering_map(werner_matrix(w), Direction.A_TO_B)
        assert np.allclose(out, werner_matrix(w / SQ3), atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(xstate_strategy(), st.sampled_from(list(Direction)))
    def test_output_is_valid_state(self, rho, direction):
        out = steering_map(rho, direction)
        assert abs(out.trace() - 1) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12

    @settings(max_examples=30, deadline=None)
    @given(xstate_strategy(), st.sampled_from(list(Direction)))
    def test_double_application_weakens_margins(self, rho, direction):
        once = steering_map(rho, direction)
        twice = steering_map(once, direction)
        _, m1 = ppt(once)
        _, m2 = ppt(twice)
        assert m2 <= m1 + 1e-12


class TestPPT:
    def test_bell_state(self):
        flag, margin = ppt(werner_matrix(1.0))
        assert flag and margin == pytest.approx(0.5, abs=1e-12)

    def test_product_states_not_entangled(self, rng):
        probs = rng.dirichlet(np.ones(4))
        rho = np.diag(probs.astype(complex))
        flag, _ = ppt(rho)
        assert not flag

    def test_werner_boundary(self):
        _, margin = ppt(werner_matrix(1 / 3))
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestBlockTest:
    """The exact X-state block test against the dense eigvalsh oracle."""

    @settings(max_examples=100, deadline=None)
    @given(xstate_strategy(with_rho14=True))
    def test_matches_oracle(self, rho):
        got = _ppt_margins(xstate(rho))[:, 0]
        assert np.max(np.abs(got - ppt_margins(rho))) < 1e-13

    def test_matches_oracle_over_a_batch(self, rng):
        pops = rng.dirichlet(np.ones(4), size=64)
        phases = np.exp(2j * np.pi * rng.random((2, 64)))
        rho23 = rng.random(64) * np.sqrt(pops[:, 1] * pops[:, 2]) * phases[0]
        rho14 = rng.random(64) * np.sqrt(pops[:, 0] * pops[:, 3]) * phases[1]
        m = np.array([x_matrix(*args) for args in zip(pops, rho23, rho14)])
        got = _ppt_margins(_x_rows(x_vector(m)))
        assert got.shape == (3, 64)
        assert np.max(np.abs(got - ppt_margins(m).T)) < 1e-13

    def test_phi_plus_falls_back_to_block_test(self):
        # |Phi+> = (|00> + |11>)/sqrt(2): all coherence in rho14
        m = x_matrix([0.5, 0, 0, 0.5], rho14=0.5)
        rep = classify(m)
        assert rep.method is Method.GENERAL_PPT
        assert rep.entangled and rep.steer_a_to_b and rep.steer_b_to_a
        assert rep.margin_ent == pytest.approx(0.5, abs=1e-15)
        got = (rep.margin_ent, rep.margin_ab, rep.margin_ba)
        assert np.max(np.abs(np.subtract(got, ppt_margins(m)))) < 1e-15
        assert not rep.bell and math.isnan(rep.margin_bell)

    def test_rotated_bell_state_is_rejected(self):
        # a Hadamard on qubit A takes |psi-> out of the X pattern; classify
        # takes X entries only, so x_vector, which builds them, rejects it
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        u = np.kron(h, np.eye(2))
        m = u @ werner_matrix(1.0) @ u.conj().T
        assert ppt_margins(m)[0] == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="X states only"):
            x_vector(m)


class TestClosedForms:
    def test_bell_state_factors_and_margins(self):
        x = xstate(werner_matrix(1.0))
        f_a, f_b = factors(x)
        assert f_a == pytest.approx((2 - SQ3) / 8, abs=1e-14)
        assert f_b == pytest.approx(0.0, abs=1e-15)
        (ab, m_ab), (ba, m_ba) = closed_steering(x)
        assert ab and ba
        assert m_ab == pytest.approx(0.25 - (2 - SQ3) / 8, abs=1e-14)
        assert m_ab == m_ba

    def test_symmetric_populations_give_symmetric_verdicts(self):
        m = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
        m[1, 2] = m[2, 1] = 0.2
        x = xstate(m)
        (_, m_ab), (_, m_ba) = closed_steering(x)
        assert m_ab == pytest.approx(m_ba, abs=1e-15)

    def test_regime_guard(self):
        m = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
        m[1, 2] = m[2, 1] = 0.1
        m[0, 3] = m[3, 0] = 0.05
        # rho14 not negligible: classify leaves the closed forms for the general route
        assert not _rho14_inert(xstate(m))[0]
        assert classify(m).method is Method.GENERAL_PPT

    def test_werner_steering_threshold(self):
        w_threshold = 1 / SQ3
        for w, expect in ((w_threshold - 1e-6, False), (w_threshold + 1e-6, True)):
            x = xstate(werner_matrix(w))
            (ab, _), (ba, _) = closed_steering(x)
            assert ab == expect and ba == expect

    def test_werner_bell_threshold(self):
        for w, expect in ((1 / math.sqrt(2) - 1e-6, False), (1 / math.sqrt(2) + 1e-6, True)):
            x = xstate(werner_matrix(w))
            flag, _ = closed_bell(x)
            assert flag == expect

    def test_bell_state_is_nonlocal(self):
        x = xstate(werner_matrix(1.0))
        flag, margin = closed_bell(x)
        # both branches fire; the second one (populations fully inside the
        # coherent block) carries the larger slack 1/4
        assert flag and margin == pytest.approx(0.25, abs=1e-14)

    def test_identity_not_nonlocal(self):
        rho = np.eye(4, dtype=complex) / 4
        flag, _ = closed_bell(xstate(rho))
        assert not flag


class TestGeneralSteering:
    def test_werner_thresholds(self):
        assert general_steering(werner_matrix(0.6), Direction.A_TO_B)[0]
        assert general_steering(werner_matrix(0.6), Direction.B_TO_A)[0]
        assert not general_steering(werner_matrix(0.5), Direction.A_TO_B)[0]
        assert ppt(werner_matrix(0.5))[0]   # entangled yet unsteerable

    def test_separable_diagonal_not_steerable(self, rng):
        probs = rng.dirichlet(np.ones(4))
        rho = np.diag(probs.astype(complex))
        assert not general_steering(rho, Direction.A_TO_B)[0]
        assert not general_steering(rho, Direction.B_TO_A)[0]

    @settings(max_examples=50, deadline=None)
    @given(xstate_strategy())
    def test_closed_form_agrees_with_general(self, rho):
        x = xstate(rho)
        (ab, m_ab), (ba, m_ba) = closed_steering(x)
        for direction, flag, margin in ((Direction.A_TO_B, ab, m_ab),
                                        (Direction.B_TO_A, ba, m_ba)):
            gflag, gmargin = general_steering(rho, direction)
            if abs(margin) > 1e-9 and abs(gmargin) > 1e-9:
                assert flag == gflag


class TestClassify:
    @pytest.mark.parametrize("w,ent,steer,bell", [
        (0.3, False, False, False),
        (0.5, True, False, False),
        (0.65, True, True, False),
        (0.75, True, True, True),
    ])
    def test_werner_ladder(self, w, ent, steer, bell):
        rep = classify(werner_matrix(w))
        assert rep.entangled == ent
        assert rep.steer_a_to_b == steer and rep.steer_b_to_a == steer
        assert rep.bell == bell
        assert rep.method is Method.BOTH

    def test_margin_signs_match_flags(self):
        rep = classify(werner_matrix(0.65))
        assert (rep.margin_ent > 0) == rep.entangled
        assert (rep.margin_ab > 0) == rep.steer_a_to_b
        assert (rep.margin_bell > 0) == rep.bell

    def test_eigen_populations_and_sign_law(self):
        # f_b = (1/4)(p00 - p11)(p- - p+) cos(theta) in the strong phase
        p = sl.SystemParams(1.3, 0.7, 3.0, 0.01)
        r = sl.ReservoirSpec(Statistics.BOSE, 0.4)
        g, ss = one_cell(p, r, r)
        rep = row0(sl.classify(ss.local_x))
        local = dense_local(ss.vector6[0], dense(g)[1])
        p00, p11, pm, pp = eigen_populations(local, dense(g)[1], g.cells.setup[0] == 2)
        _, f_b = factors(_x_rows(ss.local_x[:1]))
        law = 0.25 * (p00 - p11) * (pm - pp) * math.cos(g.cells.theta[0])
        assert f_b == pytest.approx(law, abs=1e-10)
        assert f_b > 0   # eps_a > eps_b favors steering B -> A
        assert rep.margin_ba > rep.margin_ab

    def test_sign_law_with_coherence_correction_weak(self):
        # weak phase out of equilibrium needs the Re(coherence) term
        p = sl.SystemParams(1.3, 0.7, 1.0, 0.01)
        g, ss = one_cell(p, sl.ReservoirSpec(Statistics.BOSE, 0.45),
                         sl.ReservoirSpec(Statistics.BOSE, 0.65))
        local = dense_local(ss.vector6[0], dense(g)[1])
        p00, p11, pm, pp = eigen_populations(local, dense(g)[1], g.cells.setup[0] == 2)
        _, f_b = factors(_x_rows(ss.local_x[:1]))
        theta = g.cells.theta[0]
        correction = 2 * math.sin(theta) * ss.vector6[0, 4].real
        law = 0.25 * (p00 - p11) * ((pm - pp) * math.cos(theta) + correction)
        assert f_b == pytest.approx(law, abs=1e-10)

    def test_dense_state_raises(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        m /= m.trace().real
        # classify takes X entries only; x_vector, which builds them, rejects m
        with pytest.raises(ValueError, match="X states only"):
            x_vector(m)

    def test_general_margins_match_explicit_construction(self, rng):
        half = np.eye(2) / 2
        depol = 1 / SQ3
        for _ in range(50):
            # populations of at least 0.025 and |rho14| of at least half its
            # bound keep rho14 non-inert, so the block test alone classifies
            pops = rng.uniform(0.1, 1.0, 4)
            pops /= pops.sum()
            phases = np.exp(2j * np.pi * rng.random(2))
            m = x_matrix(pops,
                         rng.uniform(0.0, 1.0) * math.sqrt(pops[1] * pops[2]) * phases[0],
                         rng.uniform(0.5, 1.0) * math.sqrt(pops[0] * pops[3]) * phases[1])
            rho_a = np.array([[m[2 * i, 2 * j] + m[2 * i + 1, 2 * j + 1] for j in range(2)]
                              for i in range(2)])
            rho_b = np.array([[m[i, j] + m[2 + i, 2 + j] for j in range(2)] for i in range(2)])
            expected = []
            for s in (m, depol * m + (1 - depol) * np.kron(half, rho_b),
                      depol * m + (1 - depol) * np.kron(rho_a, half)):
                pt = np.empty((4, 4), dtype=complex)
                for i, j, k, l in np.ndindex(2, 2, 2, 2):
                    pt[2 * i + j, 2 * k + l] = s[2 * i + l, 2 * k + j]
                expected.append(-np.linalg.eigvalsh(pt)[0])
            rep = classify(m)
            assert rep.method is Method.GENERAL_PPT
            got = (rep.margin_ent, rep.margin_ab, rep.margin_ba)
            assert np.max(np.abs(np.subtract(got, expected))) < 1e-14

    def test_small_rho14_keeps_closed_form(self):
        # |rho14| at 1% of |rho23| cannot flip a verdict: closed form, cross-checked
        m = np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex)
        m[1, 2] = m[2, 1] = 0.35
        m[0, 3] = m[3, 0] = 0.0035
        (ab, m_ab), (ba, m_ba) = closed_steering(xstate(m))
        rep = classify(m)
        assert rep.method is Method.BOTH
        assert ab and ba
        assert (rep.steer_a_to_b, rep.margin_ab) == (ab, m_ab)
        assert (rep.steer_b_to_a, rep.margin_ba) == (ba, m_ba)

    def test_dual_disabled_keeps_closed_form(self):
        rep = classify(werner_matrix(0.9), dual=False)
        assert rep.method is Method.X_CLOSED_FORM
        assert rep.bell

    @pytest.mark.parametrize("code,m", [
        (0, x_matrix([0.6, 0.5, -0.1, 0.0])),
        (1, x_matrix([0.3, 0.3, 0.3, 0.3])),
        (2, x_matrix([0.25] * 4, rho23=0.3)),
        (3, x_matrix([0.25] * 4, rho14=0.3j)),
    ])
    def test_dual_disabled_masks_a_faulty_cell(self, code, m):
        # the faulty cell is the only one the closed form leaves out, and no
        # cell runs the block test alone
        good = werner_matrix(0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sl.classify(x_vector(np.array([good, m])), dual=False)
        assert rep.fault.tolist() == [-1, code]
        assert rep.method is Method.X_CLOSED_FORM
        alone = sl.classify(x_vector(good[None]), dual=False)
        for flag, margin in ((rep.entangled, rep.margin_ent), (rep.steer_a_to_b, rep.margin_ab),
                             (rep.steer_b_to_a, rep.margin_ba), (rep.bell, rep.margin_bell)):
            assert not flag[1] and math.isnan(margin[1])
        for k in range(8):
            assert rep[k][0] == alone[k][0]

    def test_hierarchy_assert_fires_on_inconsistent_report(self):
        # steerable A->B but not entangled; Bell without two-way steering
        with pytest.raises(InternalConsistencyError, match="steerable but not entangled"):
            check_hierarchy([False, True, False, False])
        with pytest.raises(InternalConsistencyError, match="Bell nonlocal"):
            check_hierarchy([np.array([True, True]), np.array([True, True]),
                             np.array([True, False]), np.array([False, True])])

    def test_model_states_hierarchy(self, rng):
        # full pipeline states across both phases keep the strict hierarchy
        for _ in range(20):
            phase = Phase.STRONG if rng.random() < 0.5 else Phase.WEAK
            p = random_system(rng, phase)
            stat = Statistics.BOSE if phase is Phase.STRONG or rng.random() < 0.5 else Statistics.FERMI
            mu = rng.uniform(0.0, 2.0) if stat is Statistics.FERMI else 0.0
            ra = sl.ReservoirSpec(stat, rng.uniform(0.1, 1.5), mu)
            rb = sl.ReservoirSpec(stat, rng.uniform(0.1, 1.5), mu)
            _, ss = one_cell(p, ra, rb)
            if not ss.positive[0]:
                continue
            rep = row0(sl.classify(ss.local_x))   # raises on violation
            if rep.bell:
                assert rep.steer_a_to_b and rep.steer_b_to_a
            if rep.steer_a_to_b or rep.steer_b_to_a:
                assert rep.entangled


# --------------------------------------------------------------------------
# The cross-check: a planted route-2 disagreement raises, through the CLI too
# --------------------------------------------------------------------------

VERDICTS = ("entanglement", "steering A->B", "steering B->A")


def flip_route2(monkeypatch, k: int, cell: int) -> None:
    """Replace route 2 (correlations._ppt_margins) by one that flips verdict
    k (entanglement, A->B, B->A) of the given cell of each batch that has
    it, to a margin of 0.5 against it, far outside the 1e-9 band."""
    route2 = correlations._ppt_margins

    def flipped(rows):
        g = route2(rows)
        if cell < g.shape[1]:
            g[k, cell] = -0.5 if g[k, cell] > PPT_TOL else 0.5
        return g
    monkeypatch.setattr(correlations, "_ppt_margins", flipped)


def band_batch(k: int) -> np.ndarray:
    """Three closed-form cells: cell 0 with verdict k's closed margin within
    1e-9 of its threshold (the Werner state at that threshold), cells 1 and
    2 steerable both ways with every margin far from it."""
    w0 = 1 / 3 if k == 0 else 1 / SQ3
    return x_vector(np.array([werner_matrix(w) for w in (w0, 0.65, 0.9)]))


class TestCrossCheck:
    @pytest.mark.parametrize("k", range(3))
    def test_planted_disagreement_raises(self, k, monkeypatch):
        x = band_batch(k)
        want = sl.classify(x)
        assert want.method is Method.BOTH and want.checked.tolist() == [True] * 3
        assert abs(want[2 * k + 1][0]) < 1e-9
        flag, margin = want[2 * k][1], want[2 * k + 1][1]
        flip_route2(monkeypatch, k, 1)
        with pytest.raises(InternalConsistencyError) as err:
            sl.classify(x)
        assert str(err.value) == (f"{VERDICTS[k]}: closed form says {flag} "
                                  f"(margin {margin:.3g}), general route says {not flag}")

    @pytest.mark.parametrize("k", range(3))
    def test_disagreement_inside_the_band_is_kept(self, k, monkeypatch):
        # cell 0's closed margin is within 1e-9 of its threshold, so a flipped
        # route-2 verdict there is no defect: the closed-form verdicts stand
        x = band_batch(k)
        want = sl.classify(x)
        flip_route2(monkeypatch, k, 0)
        got = sl.classify(x)
        for a, b in zip(got, want):
            assert a is b if isinstance(b, Method) else a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", range(3))
    def test_steady_exits_internal(self, k, monkeypatch, capsys):
        flip_route2(monkeypatch, k, 0)
        assert main(["steady"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: internal: {VERDICTS[k]}: closed form says ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("k", range(3))
    def test_sweep_exits_internal_and_writes_nothing(self, k, tmp_path, monkeypatch, capsys):
        flip_route2(monkeypatch, k, 1)
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--stat", "bose", "--eps-a", "1", "--eps-b", "1",
                     "--gamma", "0.01", "--ta", "0.5", "--tb", "0.5",
                     "--axis-x", "tbar", "--x-min", "0.3", "--x-max", "0.6", "--nx", "2",
                     "--axis-y", "kappa", "--y-min", "2.5", "--y-max", "3.0", "--ny", "2",
                     "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: internal: {VERDICTS[k]}: closed form says ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCheckedCells:
    def test_all_but_the_block_test_and_faulty_cells(self):
        # one cell that only the block test classifies (|Phi+>), one faulty
        # cell and three that both routes classify
        cells = [werner_matrix(0.3), x_matrix([0.5, 0, 0, 0.5], rho14=0.5), werner_matrix(0.65),
                 x_matrix([0.25] * 4, rho23=0.3), werner_matrix(0.9)]
        x = x_vector(np.array(cells))
        rep = sl.classify(x)
        assert rep.method is Method.GENERAL_PPT and rep.fault.tolist() == [-1, -1, -1, 2, -1]
        assert rep.checked.tolist() == [True, False, True, False, True]
        assert np.count_nonzero(rep.checked) == len(cells) - 2
        assert not sl.classify(x, dual=False).checked.any()


# --------------------------------------------------------------------------
# classify against classify_oracle, the former classify, bit for bit
# --------------------------------------------------------------------------

# kinds of drawn X states: valid with rho14 = 0, valid with an inert rho14,
# valid with a large rho14 (block test alone), each XSTATE_FAULTS violation,
# a closed-form margin (entanglement, A->B, B->A, Bell) within 1e-12 of
# MARGIN_TOL, a block-test entanglement margin within 1e-12 of PPT_TOL on a
# block-test cell and on a closed-form cell, and a population sum within
# 1e-15 of the 1e-12 tolerance of XSTATE_FAULTS[1]
KINDS = ("valid", "inert-rho14", "large-rho14", "fault-0", "fault-1", "fault-2", "fault-3",
         "margin-ent", "margin-ab", "margin-ba", "margin-bell", "ppt-open", "ppt-closed",
         "sum-edge")


def draw_x(rng: np.random.Generator, kinds: np.ndarray) -> np.ndarray:
    """X entries (N, 6) of one drawn state per entry of kinds (indices into
    KINDS)."""
    n = len(kinds)
    # Dirichlet(2, 2, 2, 2) populations: valid X states whose CHSH verdict
    # outruns the steering criteria (a hierarchy error) are about 5 in 10^6
    pops = rng.dirichlet(np.full(4, 2.0), size=n)
    r23 = rng.random(n) * np.sqrt(pops[:, 1] * pops[:, 2])
    r14 = np.zeros(n)
    kind = np.asarray(KINDS)[kinds]
    near = rng.uniform(-1e-12, 1e-12, n)
    # states with rho11, rho44 in [0.06, 0.09] and rho22 ~ rho33: rho22 rho33
    # > 0.16 and the CHSH threshold min(1/8, (1 - u^2)/4) > 0.1 both lie
    # above the steering thresholds (< 0.08), so |rho23| can reach each
    # threshold below in a valid state that keeps the hierarchy
    on = np.char.startswith(kind, "margin-") | (kind == "ppt-closed")
    outer = rng.uniform(0.06, 0.09, (2, on.sum()))
    split = rng.uniform(0.45, 0.55, on.sum()) * (1 - outer.sum(axis=0))
    pops[on] = np.stack([outer[0], split, 1 - outer.sum(axis=0) - split, outer[1]], axis=1)
    p11, p22, p33, p44 = pops.T
    u = 2.0 * (p22 + p33) - 1.0
    # MARGIN_TOL + near on one closed-form margin |rho23|^2 - t, with t set
    # by the populations: rho11 rho44, f_a +/- f_b or the CHSH threshold
    f_a = ((2 + SQ3) / 2 * p11 * p44 + (2 - SQ3) / 2 * p22 * p33
           + 0.25 * (p11 + p44) * (p22 + p33))
    f_b = 0.25 * (p11 - p44) * (p22 - p33)
    chsh = np.minimum(0.125, 0.25 - 0.25 * u * u)
    for name, t in (("margin-ent", p11 * p44), ("margin-ab", f_a + f_b),
                    ("margin-ba", f_a - f_b), ("margin-bell", chsh)):
        on = kind == name
        r23[on] = np.sqrt(t[on] + MARGIN_TOL + near[on])
    # the block [[rho11, rho23], [rho23*, rho44]] with lower eigenvalue
    # -(PPT_TOL + near): hypot((rho11 - rho44)/2, |rho23|) = (rho11 + rho44)/2 + PPT_TOL + near
    on = kind == "ppt-closed"
    half_sum, half_diff = 0.5 * (p11 + p44), 0.5 * (p11 - p44)
    r23[on] = np.sqrt((half_sum[on] + PPT_TOL + near[on]) ** 2 - half_diff[on] ** 2)
    # and the block [[rho22, rho14], [rho14*, rho33]] likewise, with rho11
    # rho44 large enough for that rho14
    on = kind == "ppt-open"
    pops[on] = [0.35, 0.15, 0.15, 0.35] + rng.uniform(-0.02, 0.02, (on.sum(), 1)) * [1, -1, -1, 1]
    p11, p22, p33, p44 = pops.T
    r14[on] = np.sqrt((0.5 * (p22[on] + p33[on]) + PPT_TOL + near[on]) ** 2
                      - (0.5 * (p22[on] - p33[on])) ** 2)
    r23[on] = rng.random(on.sum()) * np.sqrt(p22[on] * p33[on])
    on = kind == "inert-rho14"
    r14[on] = 1e-3 * rng.random(on.sum()) * np.minimum(r23[on], np.sqrt(p11[on] * p44[on]))
    on = kind == "large-rho14"
    r14[on] = rng.uniform(0.3, 1.0, on.sum()) * np.sqrt(p11[on] * p44[on])
    on = kind == "fault-2"
    r23[on] = 1.01 * np.sqrt(p22[on] * p33[on]) + 1e-4
    on = kind == "fault-3"
    r14[on] = 1.01 * np.sqrt(p11[on] * p44[on]) + 1e-4
    x = np.empty((n, 6), dtype=complex)
    x[:, :4] = pops
    x[:, 4] = r23 * np.exp(2j * np.pi * rng.random(n))
    x[:, 5] = r14 * np.exp(2j * np.pi * rng.random(n))
    # a population below -1e-9 with the sum kept, and a sum 1e-9 off 1
    on = kind == "fault-0"
    x[on, 0] += 1e-6
    x[on, 2] -= x[on, 2].real + 1e-6
    x[kind == "fault-1", 0] += 1e-9
    on = kind == "sum-edge"
    x[on, 0] += 1e-12 * rng.uniform(1 - 1e-3, 1 + 1e-3, on.sum())
    return x


def assert_classify_matches_oracle(x: np.ndarray) -> None:
    for dual in (True, False):
        try:
            want = classify_oracle(x, dual)
        except InternalConsistencyError as exc:
            with pytest.raises(InternalConsistencyError) as err:
                sl.classify(x, dual)
            assert str(err.value) == str(exc)
            continue
        assert_same_classification(sl.classify(x, dual), want)


class TestOracle:
    def test_block_test_matches_oracle_bits(self):
        # route 2's margins reach the output only on block-test cells; compare
        # them on every cell, over the batch sizes whose products differ
        rng = np.random.default_rng(2)
        for size in [*range(1, 65), 101, 2020] * 3:
            x = draw_x(rng, rng.choice([0, 1, 2], size))
            want = _oracle_ppt_margins(_oracle_x_entries(x))
            assert _ppt_margins(_x_rows(x)).tobytes() == want.T.tobytes(), size

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([1, 8, 48, 2020]),
           kinds=st.sets(st.sampled_from(range(len(KINDS))), min_size=1))
    @example(seed=0, size=0, kinds={0})
    def test_drawn_batches_match_oracle(self, seed, size, kinds):
        rng = np.random.default_rng(seed)
        drawn = rng.choice(sorted(kinds), size)
        x = draw_x(rng, drawn)
        assert_classify_matches_oracle(x)

    def test_every_kind_is_drawn_as_meant(self):
        # the states of each kind take the path they are drawn for
        rng = np.random.default_rng(1)
        for k, kind in enumerate(KINDS):
            rep = sl.classify(draw_x(rng, np.full(200, k)), dual=False)
            if kind.startswith("fault-"):
                assert (rep.fault == int(kind[-1])).all(), kind
                continue
            if kind == "sum-edge":
                assert 0 < np.count_nonzero(rep.fault == 1) < 200, kind
                continue
            assert (rep.fault < 0).all(), kind
            open_ = kind in ("large-rho14", "ppt-open")
            assert rep.method is (Method.GENERAL_PPT if open_ else Method.X_CLOSED_FORM), kind
            margin = {"margin-ent": rep.margin_ent, "margin-ab": rep.margin_ab,
                      "margin-ba": rep.margin_ba, "margin-bell": rep.margin_bell,
                      "ppt-open": rep.margin_ent}.get(kind)
            if margin is not None:
                tol = PPT_TOL if kind == "ppt-open" else MARGIN_TOL
                assert np.abs(margin - tol).max() < 1.1e-12, kind
                assert 0 < np.count_nonzero(margin > tol) < 200, kind
