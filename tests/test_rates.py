import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import steerlab as sl
import steerlab.rates as rates_module
from steerlab.errors import ConfigurationError
from steerlab.model import derive_params
from steerlab.rates import Statistics, transition_energies

from conftest import bose_where_oracle, occupation, rates

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def transitions(p):
    """(eps_minus, eps_plus) of one system."""
    bar_eps, _, omega, _, _ = derive_params(*np.array([p.eps_a, p.eps_b, p.kappa]))
    return transition_energies(bar_eps, omega)


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
        # the records hold any value; the cells built from them are checked
        p, r = sl.SystemParams(1.0, 1.0, 1.0, 0.01), sl.ReservoirSpec(BOSE, 1.0)
        with pytest.raises(ValueError, match="temperature must be > 0"):
            sl.Cells.of([(p, sl.ReservoirSpec(BOSE, -1.0), r)])
        with pytest.raises(ValueError, match="bosonic reservoirs must have mu = 0"):
            sl.Cells.of([(p, sl.ReservoirSpec(BOSE, 1.0, mu=0.3), r)])

    @pytest.mark.parametrize("stat, temperature, eps, message", [
        (BOSE, 1e-320, 1.0, "temperature too small: T=1e-320 makes"),
        (FERMI, 1e-3, 1e306, "temperature too small: T=0.001 makes"),
        (BOSE, 1.0, 1e-10, "bosonic occupation diverges: eps=1e-10 <= 1e-09"),
        # both faults: the overflow is named first
        (BOSE, 1e-320, -1.0, "temperature too small"),
    ])
    def test_checks_apart_from_values(self, stat, temperature, eps, message):
        with pytest.raises(ValueError, match=message):
            rates_module.occupations(stat, np.array([temperature]), np.array([0.0]),
                                     np.array([eps]))

    def test_build_stores_occupations(self, monkeypatch):
        # Cells.build computes each cell's occupations at its transition
        # energies once; rate_set reads them and computes none
        ts = np.array([0.5, 0.7])
        cells = sl.Cells.build(1.0, 1.0, np.array([0.5, 3.0]), 0.01, ts, 0.4, 0.0, 0.0, BOSE)
        assert cells.occupations.shape == (2, 2, 2)
        eps_minus, eps_plus = transition_energies(cells.bar_eps, cells.omega)
        for i, t_a in enumerate(ts.tolist()):
            for j, t in enumerate((t_a, 0.4)):
                r = sl.ReservoirSpec(BOSE, t)
                assert cells.occupations[i, j].tolist() == [occupation(r, eps_plus[i]),
                                                             occupation(r, eps_minus[i])]
        want = rates_module.rate_set(cells)
        monkeypatch.setattr(rates_module, "occupations", None)
        assert np.array_equal(rates_module.rate_set(cells), want)
        assert np.array_equal(rates_module.rate_set(cells[1:]), want[1:])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0.01, 10.0))
    def test_ranges(self, t, eps):
        assert occupation(sl.ReservoirSpec(BOSE, t), eps) > 0
        f = occupation(sl.ReservoirSpec(FERMI, t, mu=1.0), eps)
        assert 0.0 < f < 1.0


# scaled energies (eps - mu) / T near the 700 at which the Bose occupation
# turns to exp(-x), and ratios eps / T just above the Bose floor
NEAR_700 = st.floats(699.0, 701.0)
NEAR_FLOOR = st.floats(1.0 + 2.0 ** -40, 1.01).map(lambda f: f * rates_module.BOSE_EPS_FLOOR)


class TestOccupationPaths:
    """Bose occupations take 1/expm1(x) alone unless a scaled energy x
    exceeds 700; either way they are the bits of the former np.where form
    (conftest.bose_where_oracle).  The rejections name the same first cell."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.one_of(NEAR_700, NEAR_FLOOR, st.floats(1e-3, 50.0)),
                              st.floats(1e-3, 1e3)), min_size=1, max_size=12))
    @example([(700.0, 1.0)])
    @example([(700.0, 1.0), (float(np.nextafter(700.0, 701.0)), 1.0)])
    @example([(float(np.nextafter(700.0, 0.0)), 3.0), (1e-9 * (1 + 2.0 ** -40), 0.5)])
    def test_bose_matches_where_form(self, cells):
        ratio, t = np.array(cells).T
        eps = ratio * t
        assume((eps > rates_module.BOSE_EPS_FLOOR * t).all())
        x = rates_module.scaled_energy(t, 0.0, eps)
        got = rates_module.occupations(BOSE, t, np.zeros_like(t), eps)
        assert got.tobytes() == bose_where_oracle(x).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-800.0, 800.0), st.floats(1e-3, 1e3),
                              st.floats(-2.0, 2.0)), min_size=1, max_size=12))
    def test_fermi_logistic_form(self, cells):
        ratio, t, mu = np.array(cells).T
        eps = mu + ratio * t
        x = rates_module.scaled_energy(t, mu, eps)
        e = np.exp(-np.minimum(np.abs(x), 745.0))
        want = np.where(x >= 0, e, 1.0) / (1.0 + e)
        assert rates_module.occupations(FERMI, t, mu, eps).tobytes() == want.tobytes()

    def test_empty_batch(self):
        assert rates_module.occupations(BOSE, np.ones(0), np.zeros(0), np.ones(0)).shape == (0,)

    @pytest.mark.parametrize("stat, temperature, eps, message", [
        (BOSE, [[1.0, 5e-324], [1e-320, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
         "temperature too small: T=5e-324 makes 1/T or (eps-mu)/T overflow"),
        (FERMI, [[1.0, 1.0], [2e-310, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
         "temperature too small: T=2e-310 makes 1/T or (eps-mu)/T overflow"),
        (BOSE, [[1.0, 1.0], [1.0, 1.0]], [[800.0, 1e-10], [1e-12, 1.0]],
         "bosonic occupation diverges: eps=1e-10 <= 1e-09*T"),
        (BOSE, [[1.0, 1.0], [1.0, 1.0]], [[0.5, 701.0], [-1.0, 0.0]],
         "bosonic occupation diverges: eps=-1.0 <= 1e-09*T"),
    ])
    def test_rejections_name_first_cell(self, stat, temperature, eps, message):
        with pytest.raises(ValueError) as exc:
            rates_module.occupations(stat, np.array(temperature), np.zeros((2, 2)), np.array(eps))
        assert str(exc.value) == message


# one field of a valid bosonic cell set to a bad value, and the gate's error
GATE_BASE = dict(eps_a=1.0, eps_b=1.0, kappa=1.0, gamma=0.01, t_a=0.5, t_b=0.5, mu_a=0.0,
                 mu_b=0.0)
GATE_CASES = [
    ("kappa", -1.0, BOSE, "kappa must be > 0, got -1.0"),
    ("kappa", 0.0, BOSE, "kappa must be > 0, got 0.0"),
    ("gamma", -0.01, BOSE, "gamma must be > 0, got -0.01"),
    ("gamma", 0.0, FERMI, "gamma must be > 0, got 0.0"),
    ("eps_b", 1.5, BOSE, "require eps_a >= eps_b > 0, got eps_a=1.0, eps_b=1.5"),
    ("eps_b", 0.0, BOSE, "require eps_a >= eps_b > 0, got eps_a=1.0, eps_b=0.0"),
    ("eps_b", -0.5, FERMI, "require eps_a >= eps_b > 0, got eps_a=1.0, eps_b=-0.5"),
    ("t_a", -0.5, BOSE, "temperature must be > 0, got -0.5"),
    ("t_b", 0.0, FERMI, "temperature must be > 0, got 0.0"),
    ("eps_a", math.nan, BOSE, "eps_a must be finite, got nan"),
    ("eps_b", math.inf, BOSE, "eps_b must be finite, got inf"),
    ("kappa", math.inf, BOSE, "kappa must be finite, got inf"),
    ("gamma", -math.inf, FERMI, "gamma must be finite, got -inf"),
    ("t_a", math.nan, BOSE, "temperature and mu must be finite, got nan and 0.0"),
    ("t_b", math.inf, BOSE, "temperature and mu must be finite, got inf and 0.0"),
    ("mu_a", math.nan, FERMI, "temperature and mu must be finite, got 0.5 and nan"),
    ("mu_b", -math.inf, FERMI, "temperature and mu must be finite, got 0.5 and -inf"),
    ("mu_a", 0.3, BOSE, "bosonic reservoirs must have mu = 0"),
    ("mu_b", -0.3, BOSE, "bosonic reservoirs must have mu = 0"),
]


def gate_point(values, stat):
    """The records of one point with GATE_BASE's fields."""
    return (sl.SystemParams(values["eps_a"], values["eps_b"], values["kappa"], values["gamma"]),
            sl.ReservoirSpec(stat, values["t_a"], values["mu_a"]),
            sl.ReservoirSpec(stat, values["t_b"], values["mu_b"]))


class TestGate:
    """Cells.build is the one check of every input: each bad field is
    rejected there, with the same error from Cells.of, before any value is
    derived."""

    @pytest.mark.parametrize("field, bad, stat, message", GATE_CASES)
    def test_bad_field_rejected(self, field, bad, stat, message, monkeypatch):
        values = {**GATE_BASE, field: bad}
        point = gate_point(values, stat)
        # the bad value also at cells 1 and 2 of three, the second one doubled
        # where that changes it: the first bad cell is named
        column = {**GATE_BASE, field: np.array([GATE_BASE[field], bad, 2 * bad if bad else bad])}
        monkeypatch.setattr(rates_module, "derive_params", None)
        for build in (lambda: sl.Cells.build(*values.values(), stat),
                      lambda: sl.Cells.of([point]),
                      lambda: sl.Cells.build(*column.values(), stat)):
            with pytest.raises(ValueError) as rejected:
                build()
            assert str(rejected.value) == message

    @pytest.mark.parametrize("broken, message", [
        # every rule of the system comes before those of the reservoirs
        ({"kappa": -1.0, "t_a": -1.0}, "kappa must be > 0"),
        ({"eps_a": math.nan, "kappa": -1.0}, "eps_a must be finite"),
        ({"gamma": 0.0, "eps_b": 2.0}, "require eps_a >= eps_b > 0"),
        # reservoir A before reservoir B
        ({"t_b": math.nan, "t_a": -1.0}, "temperature must be > 0, got -1.0"),
        # the input rules before the level crossing and the occupations
        ({"kappa": 2.0, "mu_a": 0.5}, "bosonic reservoirs must have mu = 0"),
        ({"kappa": 2.0, "t_a": 1e-320}, "kappa=2.0 within"),
    ])
    def test_rule_order(self, broken, message):
        values = {**GATE_BASE, **broken}
        with pytest.raises(ValueError, match=message):
            sl.Cells.build(*values.values(), BOSE)

    def test_rules_before_cells(self):
        # a rule broken by a later cell comes before a later rule broken by
        # an earlier one
        with pytest.raises(ValueError, match="temperature must be > 0, got -1.0"):
            sl.Cells.build(1.0, 1.0, np.array([1.0, 1.0]), 0.01, np.array([1e-320, -1.0]), 0.5,
                           0.0, 0.0, BOSE)

    def test_strong_fermi_rejected(self):
        with pytest.raises(ConfigurationError, match="strong-coupling fermionic"):
            sl.Cells.build(1.0, 1.0, np.array([1.0, 3.0]), 0.01, 0.5, 0.5, 1.0, 1.0, FERMI)


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
