import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
import steerlab.rates as rates_module
from steerlab.errors import ConfigurationError
from steerlab.rates import Statistics

from conftest import occupation, rates

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def transitions(p):
    """(eps_minus, eps_plus) of one system."""
    bar_eps, _, omega, _, _ = sl.derive_params(*np.array([p.eps_a, p.eps_b, p.kappa]))
    return sl.transition_energies(bar_eps, omega)


class TestOccupation:
    def test_fermi_at_mu(self):
        r = sl.ReservoirSpec(FERMI, 0.3, mu=1.2)
        assert occupation(r, 1.2) == pytest.approx(0.5, abs=1e-15)

    def test_bose_values(self):
        r = sl.ReservoirSpec(BOSE, 1.0)
        assert occupation(r, 1.0) == pytest.approx(1 / (math.e - 1), rel=1e-12)
        r = sl.ReservoirSpec(BOSE, 0.5)
        assert occupation(r, 1.0) == pytest.approx(1 / (math.e**2 - 1), rel=1e-12)

    def test_bose_guard(self):
        r = sl.ReservoirSpec(BOSE, 1.0)
        with pytest.raises(ValueError):
            occupation(r, 1e-10)
        with pytest.raises(ValueError):
            occupation(r, -0.5)

    def test_bose_small_energy_asymptote(self):
        # n ~ T/eps within 1% for eps < 0.01 T
        r = sl.ReservoirSpec(BOSE, 2.0)
        for eps in (0.02, 0.005, 0.001):
            n = occupation(r, eps)
            assert abs(n - r.temperature / eps) / (r.temperature / eps) < 0.01

    def test_no_overflow_at_extreme_ratio(self):
        assert occupation(sl.ReservoirSpec(BOSE, 1e-3), 1.0) == 0.0
        assert 0.0 <= occupation(sl.ReservoirSpec(FERMI, 1e-3, mu=0.0), 1.0) < 1e-300
        assert occupation(sl.ReservoirSpec(FERMI, 1e-3, mu=2.0), 1.0) == pytest.approx(1.0)

    def test_reservoir_validation(self):
        with pytest.raises(ValueError):
            sl.ReservoirSpec(BOSE, -1.0)
        with pytest.raises(ValueError):
            sl.ReservoirSpec(BOSE, 1.0, mu=0.3)

    @pytest.mark.parametrize("stat, temperature, eps, message", [
        (BOSE, 1e-320, 1.0, "temperature too small: T=1e-320 makes"),
        (FERMI, 1e-3, 1e306, "temperature too small: T=0.001 makes"),
        (BOSE, 1.0, 1e-10, "bosonic occupation diverges: eps=1e-10 <= 1e-09"),
        # both faults: the overflow is named first
        (BOSE, 1e-320, -1.0, "temperature too small"),
    ])
    def test_checks_apart_from_values(self, stat, temperature, eps, message):
        args = (stat, np.array([temperature]), np.array([0.0]), np.array([eps]))
        for check in (rates_module.check_occupations, rates_module.occupations):
            with pytest.raises(ValueError, match=message):
                check(*args)

    def test_check_cells_is_cell_occupations_without_values(self, monkeypatch):
        cells = sl.Cells.build(1.0, 1.0, np.array([0.5, 3.0]), 0.01, np.array([0.5, 1e-320]),
                               0.5, 0.0, 0.0, BOSE)
        with pytest.raises(ValueError) as want:
            rates_module.cell_occupations(cells)
        with pytest.raises(ValueError) as got:
            rates_module.check_cells(cells)
        assert str(got.value) == str(want.value)
        monkeypatch.setattr(rates_module, "occupations", None)
        assert rates_module.check_cells(cells[:1]) is None

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0.01, 10.0))
    def test_ranges(self, t, eps):
        assert occupation(sl.ReservoirSpec(BOSE, t), eps) > 0
        f = occupation(sl.ReservoirSpec(FERMI, t, mu=1.0), eps)
        assert 0.0 < f < 1.0


class TestTransitionEnergies:
    def test_weak_symmetric(self):
        assert transitions(sl.SystemParams(1, 1, 1, 0.01)) == pytest.approx((0.5, 1.5),
                                                                            abs=1e-14)

    def test_strong_symmetric(self):
        assert transitions(sl.SystemParams(1, 1, 3, 0.01)) == pytest.approx((0.5, 2.5),
                                                                            abs=1e-14)

    def test_small_kappa_limit(self):
        eps_minus, eps_plus = transitions(sl.SystemParams(1, 1, 1e-5, 0.01))
        assert eps_minus == pytest.approx(1.0, abs=1e-5)
        assert eps_plus == pytest.approx(1.0, abs=1e-5)


class TestRateSet:
    def test_mixed_statistics_rejected(self):
        p = sl.SystemParams(1, 1, 1, 0.01)
        with pytest.raises(ConfigurationError):
            rates(p, sl.ReservoirSpec(BOSE, 1.0), sl.ReservoirSpec(FERMI, 1.0))

    def test_equilibrium_symmetry(self):
        p = sl.SystemParams(1.4, 0.6, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.7)
        rs = rates(p, r, r)
        assert rs.s_a == pytest.approx(rs.s_b, abs=1e-15)
        assert rs.t_a == pytest.approx(rs.t_b, abs=1e-15)

    def test_symmetric_qubit_rates(self):
        p = sl.SystemParams(1, 1, 1, 0.01)
        ra, rb = sl.ReservoirSpec(BOSE, 0.5), sl.ReservoirSpec(BOSE, 0.8)
        rs = rates(p, ra, rb)
        eps_minus, eps_plus = transitions(p)
        expected_p = 0.01 * (occupation(ra, eps_plus) + occupation(rb, eps_plus)) / 2
        expected_q = 0.01 * (occupation(ra, eps_minus) + occupation(rb, eps_minus)) / 2
        assert rs.p == pytest.approx(expected_p, rel=1e-14)
        assert rs.q == pytest.approx(expected_q, rel=1e-14)

    def test_regression_fixture(self):
        # theta = pi/4, bosonic, T_A=0.5, T_B=0.3: direct evaluation of the
        # defining formulas, independent of the implementation internals
        p = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        ra, rb = sl.ReservoirSpec(BOSE, 0.5), sl.ReservoirSpec(BOSE, 0.3)
        rs = rates(p, ra, rb)
        w = math.sqrt(2) / 2
        ep, em = 1 + w, 1 - w
        nap = 1 / math.expm1(ep / 0.5)
        nam = 1 / math.expm1(em / 0.5)
        nbp = 1 / math.expm1(ep / 0.3)
        nbm = 1 / math.expm1(em / 0.3)
        c2, s2 = math.cos(math.pi / 8) ** 2, math.sin(math.pi / 8) ** 2
        sin_th = math.sin(math.pi / 4)
        assert rs.p == pytest.approx(0.01 * (c2 * nap + s2 * nbp), rel=1e-13)
        assert rs.q == pytest.approx(0.01 * (s2 * nam + c2 * nbm), rel=1e-13)
        assert rs.s_a == pytest.approx(0.005 * sin_th * (nap + nam), rel=1e-13)
        assert rs.s_b == pytest.approx(0.005 * sin_th * (nbp + nbm), rel=1e-13)
        assert rs.t_a == pytest.approx(0.005 * sin_th * (nap - nam), rel=1e-13)
        assert rs.t_b == pytest.approx(0.005 * sin_th * (nbp - nbm), rel=1e-13)

    def test_split_sums(self):
        p = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        rs = rates(p, sl.ReservoirSpec(FERMI, 0.2, 0.5), sl.ReservoirSpec(FERMI, 0.4, 1.1))
        assert rs.p == pytest.approx(rs.p_a + rs.p_b, rel=1e-15)
        assert rs.q == pytest.approx(rs.q_a + rs.q_b, rel=1e-15)
        assert rs.spont_plus_a + rs.spont_plus_b == pytest.approx(0.01, rel=1e-15)
        assert rs.spont_minus_a + rs.spont_minus_b == pytest.approx(0.01, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.1, 1.4),
           st.booleans())
    def test_t_bounded_by_s(self, ta, tb, kappa, fermi):
        p = sl.SystemParams(1.2, 0.8, kappa, 0.01)
        stat = FERMI if fermi else BOSE
        rs = rates(p, sl.ReservoirSpec(stat, ta), sl.ReservoirSpec(stat, tb))
        assert rs.t_a <= rs.s_a + 1e-15 and rs.t_b <= rs.s_b + 1e-15
        assert rs.p >= 0 and rs.q >= 0
        assert rs.s_a >= 0 and rs.s_b >= 0

    def test_rates_vanish_as_kappa_to_zero(self):
        r = sl.ReservoirSpec(BOSE, 0.5)
        s_values = []
        for kappa in (0.5, 0.1, 0.01):
            rs = rates(sl.SystemParams(1.5, 0.5, kappa, 0.005), r, r)
            s_values.append(rs.s_a)
        assert s_values[0] > s_values[1] > s_values[2]
        assert s_values[2] < 1e-4
