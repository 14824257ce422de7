from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.errors import ConfigurationError
from steerlab.rates import Statistics
from steerlab.steady import steady_state
from steerlab.transport import transport_report

from conftest import Phase, batches, one_cell, random_system, transport_oracle, unpack

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def pipeline(p, ta, tb, stat=BOSE, mua=0.0, mub=0.0):
    """One-cell generator, steady state, and row 0 of its transport."""
    g, ss = one_cell(p, sl.ReservoirSpec(stat, ta, mua), sl.ReservoirSpec(stat, tb, mub))
    current_a, current_b, sigma = transport_report(g, ss)
    return g, ss, SimpleNamespace(current_a=current_a[0], current_b=current_b[0],
                                  sigma=sigma[0])


class TestCurrents:
    def test_equilibrium_zero(self):
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        _, _, tr = pipeline(p, 0.5, 0.5)
        assert abs(tr.current_a) < 1e-12 and abs(tr.current_b) < 1e-12
        assert abs(tr.sigma) < 1e-12

    def test_hot_b_drives_positive_current(self):
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        _, _, tr = pipeline(p, 0.4, 0.6)
        assert tr.current_b > 0 and tr.sigma > 0

    def test_continuity_random_points(self, rng):
        for _ in range(25):
            phase = Phase.STRONG if rng.random() < 0.5 else Phase.WEAK
            stat = BOSE if phase is Phase.STRONG or rng.random() < 0.5 else FERMI
            p = random_system(rng, phase)
            mu_a = rng.uniform(-0.5, 2.0) if stat is FERMI else 0.0
            mu_b = rng.uniform(-0.5, 2.0) if stat is FERMI else 0.0
            t = rng.uniform(0.1, 1.0)
            tb = t if stat is FERMI else rng.uniform(0.1, 1.0)
            _, _, tr = pipeline(p, t, tb, stat, mu_a, mu_b)
            assert abs(tr.current_a + tr.current_b) < 1e-12
            assert tr.sigma > -1e-12

    def test_fermionic_current_sign_and_saturation(self):
        # Delta mu > 0 drives particles in from B; current saturates far out
        p = sl.SystemParams(1.0, 1.0, 0.6, 0.01)
        currents = []
        for dmu in (0.5, 2.0, 4.0):
            _, _, tr = pipeline(p, 0.15, 0.15, FERMI, 1 - dmu / 2, 1 + dmu / 2)
            assert tr.current_b > 0
            currents.append(tr.current_b)
        assert currents[1] > currents[0]
        assert abs(currents[2] - currents[1]) < 0.2 * (currents[1] - currents[0])

    def test_non_steady_input_rejected(self):
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        g, ss, _ = pipeline(p, 0.4, 0.6)
        bad = ss._replace(residual=np.array([1e-6]))
        with pytest.raises(ValueError):
            transport_report(g, bad)


class TestEntropyProduction:
    def test_linear_response_quadratic_sigma(self):
        # sigma(dT)/dT^2 approaches a constant near equilibrium
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        ratios = []
        for dt in (0.02, 0.01, 0.005):
            _, _, tr = pipeline(p, 0.5 - dt / 2, 0.5 + dt / 2)
            ratios.append(tr.sigma / dt**2)
        assert ratios[0] == pytest.approx(ratios[2], rel=1e-3)

    def test_near_equilibrium_current_is_linear(self):
        # I_B vs dT on |dT| <= 0.02 Tbar fits a line with R^2 > 0.999
        p = sl.SystemParams(1.4, 0.6, 3.0, 0.01)
        tbar = 0.5
        dts = np.linspace(-0.02 * tbar, 0.02 * tbar, 9)
        currents = []
        for dt in dts:
            _, _, tr = pipeline(p, tbar - dt / 2, tbar + dt / 2)
            currents.append(tr.current_b)
        currents = np.array(currents)
        coeffs = np.polyfit(dts, currents, 1)
        resid = currents - np.polyval(coeffs, dts)
        ss_tot = np.sum((currents - currents.mean()) ** 2)
        assert 1 - np.sum(resid**2) / ss_tot > 0.999

    @settings(max_examples=60, deadline=None)
    @given(system=st.sampled_from([(1.0, 1.0, 0.6), (1.3, 0.7, 0.9)]),
           ta=st.floats(0.05, 1.5), tb=st.floats(0.05, 1.5),
           mua=st.floats(-0.5, 2.5), mub=st.floats(-0.5, 2.5),
           equal_t=st.booleans())
    def test_fermionic_sigma_any_bias(self, system, ta, tb, mua, mub, equal_t):
        # thermoelectric bias: unequal temperatures and chemical potentials
        if equal_t:
            tb = ta
        p = sl.SystemParams(*system, 0.01)
        _, _, tr = pipeline(p, ta, tb, FERMI, mua, mub)
        assert tr.sigma >= -1e-12
        assert abs(tr.current_a + tr.current_b) < 1e-12
        if equal_t:
            # the particle-current form sigma = I_B (mu_B - mu_A) / T
            assert abs(tr.sigma - tr.current_b * (mub - mua) / ta) < 1e-12

    def test_fermionic_sigma_value(self):
        p = sl.SystemParams(1.0, 1.0, 0.6, 0.01)
        _, _, tr = pipeline(p, 0.15, 0.15, FERMI, 0.8, 1.2)
        assert tr.sigma == pytest.approx(tr.current_b * 0.4 / 0.15, rel=1e-12)
        assert tr.sigma > 0

    def test_regression_fixture_strong_bose(self):
        # frozen pipeline value: dT=0.2, Tbar=0.5, kappa=3, gamma=0.01
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        _, _, tr = pipeline(p, 0.4, 0.6)
        assert tr.sigma > 0
        assert tr.sigma == pytest.approx(4.938016231508446e-04, rel=1e-9)


class TestOracle:
    """transport_report's einsum contractions against the former matmul and
    multiply-and-sum (conftest.transport_oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(g=batches())
    def test_matches_matmul_oracle(self, g):
        ss = steady_state(g)
        got, want = transport_report(g, ss), transport_oracle(g, ss)
        # the two differ only in summation order: each J is a sum over the
        # terms E_i D_ij v_j (or N_i D_ij v_j), so both lie within a few eps of
        # the sum of their magnitudes; 16 eps of it is the bound, fixed from the
        # dtype (d_i itself may cancel to rounding, e.g. at T_A = T_B)
        eps = np.finfo(float).eps
        terms = np.abs(unpack(g.parts)[..., :4, :]) * np.abs(ss.vector6.real)[..., None, None, :]
        s_e = np.einsum("...rij,...i->...r", terms, np.abs(g.energies))
        s_n = np.einsum("...rij,...i->...r", terms, g.numbers)
        scale = s_e if g.cells.statistics is BOSE else s_n
        for j in (0, 1):
            assert np.all(np.abs(got[j] - want[j]) <= 16 * eps * scale[..., j])
        t, mu = g.cells.temperature, g.cells.mu
        sigma_scale = (np.abs(1.0 / t[..., 0] - 1.0 / t[..., 1]) * s_e[..., 1]
                       + np.abs(mu[..., 1] / t[..., 1] - mu[..., 0] / t[..., 0]) * s_n[..., 1])
        assert np.all(np.abs(got[2] - want[2]) <= 16 * eps * sigma_scale)


class TestRectification:
    def test_symmetric_ratio_is_one(self):
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        ratio = sl.rectification(p, sl.ReservoirSpec(BOSE, 0.5), 0.4)
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_detuned_ratio_differs_from_one(self):
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        ratio = sl.rectification(p, sl.ReservoirSpec(BOSE, 0.5), 0.4)
        assert abs(ratio - 1.0) > 0.05

    def test_ratio_against_direct_currents(self):
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        _, _, fwd = pipeline(p, 0.3, 0.7)
        _, _, bwd = pipeline(p, 0.7, 0.3)
        ratio = sl.rectification(p, sl.ReservoirSpec(BOSE, 0.5), 0.4)
        assert ratio == pytest.approx(abs(fwd.current_b) / abs(bwd.current_b), rel=1e-12)

    def test_fermionic_rejected(self):
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        with pytest.raises(ConfigurationError):
            sl.rectification(p, sl.ReservoirSpec(FERMI, 0.5, 1.0), 0.4)

    def test_bias_bounds(self):
        p = sl.SystemParams(1.8, 0.2, 3.0, 0.01)
        with pytest.raises(ValueError):
            sl.rectification(p, sl.ReservoirSpec(BOSE, 0.5), 1.5)
