import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.correlations import (
    MARGIN_TOL,
    PPT_TOL,
    Method,
    _closed_margins,
    _ppt_margins,
    _rho14_inert,
    _x_entries,
    check_hierarchy,
    xstate_fault,
)
from steerlab.errors import InternalConsistencyError
from steerlab.generator import dense
from steerlab.rates import Statistics

from conftest import (
    Direction,
    Phase,
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
    """The X entries of one local-basis state."""
    return _x_entries(x_vector(rho))


def classify(rho, dual=True):
    """Row 0 of the classification of rho as the one-cell batch."""
    return row0(sl.classify(x_vector(rho[None]), dual=dual))


def factors(x):
    """(f_a, f_b) of the steering inequalities, read back from the closed-form
    margins |rho23|^2 - (f_a +/- f_b)."""
    _, m_ab, m_ba, _ = _closed_margins(x)
    coh2 = x.rho23 * x.rho23
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


def closed_steering(x):
    """((A->B flag, margin), (B->A flag, margin)) from the closed forms."""
    _, m_ab, m_ba, _ = _closed_margins(x)
    return (m_ab > MARGIN_TOL, m_ab), (m_ba > MARGIN_TOL, m_ba)


def closed_bell(x):
    margin = _closed_margins(x)[3]
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
        x = xstate(rho)
        assert x.rho11 == x.rho22 == x.rho33 == x.rho44 == 0.25
        assert x.rho23 == 0 and x.rho14 == 0

    def test_steady_states_are_x(self, rng):
        for phase in (Phase.WEAK, Phase.STRONG):
            p = random_system(rng, phase)
            r = sl.ReservoirSpec(Statistics.BOSE, 0.5)
            g, ss = one_cell(p, r, sl.ReservoirSpec(Statistics.BOSE, 0.7))
            x_vector(dense_local(ss.vector6, dense(g)[1]))   # raises on a non-X entry
            assert xstate_fault(_x_entries(ss.local_x))[0] == -1


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
        got = _ppt_margins(xstate(rho))
        assert np.max(np.abs(got - ppt_margins(rho))) < 1e-13

    def test_matches_oracle_over_a_batch(self, rng):
        pops = rng.dirichlet(np.ones(4), size=64)
        phases = np.exp(2j * np.pi * rng.random((2, 64)))
        rho23 = rng.random(64) * np.sqrt(pops[:, 1] * pops[:, 2]) * phases[0]
        rho14 = rng.random(64) * np.sqrt(pops[:, 0] * pops[:, 3]) * phases[1]
        m = np.array([x_matrix(*args) for args in zip(pops, rho23, rho14)])
        got = _ppt_margins(_x_entries(x_vector(m)))
        assert got.shape == (64, 3)
        assert np.max(np.abs(got - ppt_margins(m))) < 1e-13

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
        assert not _rho14_inert(xstate(m))
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
        _, f_b = factors(_x_entries(ss.local_x[0]))
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
        _, f_b = factors(_x_entries(ss.local_x[0]))
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
            check_hierarchy(False, True, False, False)
        with pytest.raises(InternalConsistencyError, match="Bell nonlocal"):
            check_hierarchy(np.array([True, True]), np.array([True, True]),
                            np.array([True, False]), np.array([False, True]))

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
