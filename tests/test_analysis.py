import math

import numpy as np
import pytest

import steerlab as sl
from steerlab.analysis import (
    FIELDS,
    Axis,
    BoundaryFit,
    Criterion,
    GridCell,
    RegionMap,
    SweepConfig,
    analytic_thresholds,
    entanglement_boundary_fit,
    hierarchy_check,
    run_point,
    sweep2d,
    threshold_kappa,
)
from steerlab.errors import PhaseBoundaryError
from steerlab.rates import Cells, Statistics

from conftest import PRESET_NAMES, assert_rows_equal_points, load_preset_config

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def small_sweep(**overrides):
    base = dict(
        axis_x=Axis.TBAR, x_range=(0.1, 0.8), nx=7,
        axis_y=Axis.KAPPA, y_range=(2.1, 3.5), ny=5,
        system=sl.SystemParams(1.0, 1.0, 3.0, 0.01),
        statistics=BOSE, t_a=0.5, t_b=0.5,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_sweep(nx=1)
        with pytest.raises(ValueError):
            small_sweep(axis_x=Axis.KAPPA)
        with pytest.raises(ValueError):
            small_sweep(axis_x=Axis.MUBAR)   # mu axis on a bosonic setup

    def test_descending_range_reaching_nonpositive_rejected(self):
        # the first such cell raises point()'s own error
        with pytest.raises(ValueError, match="temperature must be > 0"):
            small_sweep(axis_x=Axis.TA, x_range=(0.5, -0.1))
        with pytest.raises(ValueError, match="kappa must be > 0"):
            small_sweep(axis_y=Axis.KAPPA, y_range=(3.5, -0.5))

    def test_point_application(self):
        cfg = small_sweep()
        system, ra, rb = cfg.point(0.3, 2.5)
        assert system.kappa == 2.5
        assert ra.temperature == rb.temperature == 0.3

    def test_delta_axes_keep_mean(self):
        cfg = small_sweep(axis_x=Axis.DELTA_T, x_range=(-0.4, 0.4))
        _, ra, rb = cfg.point(0.2, 3.0)
        assert ra.temperature == pytest.approx(0.4)
        assert rb.temperature == pytest.approx(0.6)

    def test_mubar_with_delta_mu_composes(self):
        cfg = small_sweep(
            axis_x=Axis.MUBAR, x_range=(0.0, 2.0),
            axis_y=Axis.DELTA_MU, y_range=(-1.0, 1.0),
            statistics=FERMI, t_a=0.15, t_b=0.15,
            system=sl.SystemParams(1.5, 0.5, 0.6, 0.01),
        )
        _, ra, rb = cfg.point(0.8, 0.5)
        assert ra.mu == pytest.approx(0.55)
        assert rb.mu == pytest.approx(1.05)


class TestRowCells:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_rows_equal_stacked_points(self, name):
        # the grid is built from the axis vectors; the points one at a time
        cfg = load_preset_config(name)
        assert cfg.grid.theta.shape == (cfg.ny, cfg.nx)
        assert_rows_equal_points(cfg, (0, cfg.ny // 2, cfg.ny - 1))

    def test_rejections_match_point(self):
        # a level axis can drive a difference axis' temperature non-positive,
        # which only shows cell by cell
        kwargs = dict(axis_x=Axis.DELTA_T, x_range=(-0.4, 0.4), nx=5, axis_y=Axis.TBAR)
        valid = small_sweep(**kwargs, y_range=(0.3, 0.8))
        with pytest.raises(ValueError) as from_point:
            for x in valid.x_values().tolist():
                valid.point(x, 0.1)
        with pytest.raises(ValueError) as from_config:
            small_sweep(**kwargs, y_range=(0.1, 0.8))
        assert str(from_config.value) == str(from_point.value)
        assert "temperature must be > 0" in str(from_config.value)

    def test_phase_boundary_rejected(self):
        # kappa = 2 sqrt(eps_a eps_b) fixed, over a temperature grid
        system, r = sl.SystemParams(1.0, 1.0, 2.0, 0.01), sl.ReservoirSpec(BOSE, 0.2)
        with pytest.raises(PhaseBoundaryError) as from_point:
            Cells.of([(system, r, r)])
        with pytest.raises(PhaseBoundaryError) as from_config:
            small_sweep(axis_x=Axis.TA, x_range=(0.2, 0.4), axis_y=Axis.TB,
                        y_range=(0.2, 0.4), system=system)
        assert str(from_config.value) == str(from_point.value)


class TestSweep2d:
    def test_grid_complete_and_row_major(self):
        cfg = small_sweep(nx=4, ny=3)
        m = sweep2d(cfg)
        assert len(m.cells) == 12
        xs = cfg.x_values()
        ys = cfg.y_values()
        assert m.cells[0].x == xs[0] and m.cells[0].y == ys[0]
        assert m.cells[3].x == xs[3] and m.cells[3].y == ys[0]
        assert m.cells[4].x == xs[0] and m.cells[4].y == ys[1]
        assert m.cell(2, 1).x == xs[2] and m.cell(2, 1).y == ys[1]

    def test_point_matches_row(self):
        # a row is one batch of the array kernels; run_point is a batch of one,
        # and both give the same bits on strong-bose, weak-bose and weak-fermi grids
        grids = [
            small_sweep(nx=4, ny=3),
            small_sweep(nx=4, ny=3, system=sl.SystemParams(1.3, 0.7, 1.0, 0.01),
                        y_range=(0.5, 1.5)),
            small_sweep(nx=4, ny=3, axis_x=Axis.MUBAR, x_range=(0.0, 2.0),
                        axis_y=Axis.DELTA_MU, y_range=(-1.0, 1.0), statistics=FERMI,
                        t_a=0.15, t_b=0.15, system=sl.SystemParams(1.5, 0.5, 0.6, 0.01)),
        ]
        for cfg in grids:
            m = sweep2d(cfg)
            for ix, iy in ((0, 0), (3, 0), (1, 1), (2, 2), (3, 2)):
                cell = m.cell(ix, iy)
                _, ss, c, (_, current_b, sigma) = run_point(*cfg.point(cell.x, cell.y))
                got = (c.entangled[0], c.steer_a_to_b[0], c.steer_b_to_a[0], c.bell[0],
                       ss.positive[0], c.margin_ent[0], c.margin_ab[0], c.margin_ba[0],
                       c.margin_bell[0], current_b[0], sigma[0])
                want = (cell.entangled, cell.steer_ab, cell.steer_ba, cell.bell,
                        cell.positivity_ok, cell.margin_ent, cell.margin_ab, cell.margin_ba,
                        cell.margin_bell, cell.current_b, cell.sigma)
                assert np.array_equal(got, want, equal_nan=True), (cfg.statistics, ix, iy)

    def test_hierarchy_on_real_grid(self):
        m = sweep2d(small_sweep())
        assert hierarchy_check(m) == []
        assert m.masked_count() == 0


class TestHierarchyCheck:
    def _cell(self, **kw):
        base = dict(x=0.0, y=0.0, entangled=True, steer_ab=True, steer_ba=True,
                    bell=False, margin_ent=0.1, margin_ab=0.1, margin_ba=0.1,
                    margin_bell=-0.1, current_b=0.0, sigma=0.0, positivity_ok=True)
        base.update(kw)
        return GridCell(**base)

    def _map(self, cfg, cells):
        return RegionMap(cfg, {f: np.array([getattr(c, f) for c in cells]) for f in FIELDS})

    def test_planted_violation_found(self):
        cfg = small_sweep(nx=2, ny=2)
        cells = [self._cell() for _ in range(4)]
        cells[2] = self._cell(bell=True, steer_ab=False)
        m = self._map(cfg, cells)
        violations = hierarchy_check(m)
        assert len(violations) == 1
        assert (violations[0].ix, violations[0].iy) == (0, 1)

    def test_steerable_unentangled_found(self):
        cfg = small_sweep(nx=2, ny=2)
        cells = [self._cell() for _ in range(4)]
        cells[1] = self._cell(entangled=False, steer_ab=True, steer_ba=False)
        m = self._map(cfg, cells)
        assert len(hierarchy_check(m)) == 1

    def test_masked_cells_skipped(self):
        cfg = small_sweep(nx=2, ny=2)
        cells = [self._cell() for _ in range(4)]
        cells[0] = self._cell(bell=True, steer_ab=False, positivity_ok=False)
        m = self._map(cfg, cells)
        assert hierarchy_check(m) == []
        assert m.masked_count() == 1


class TestThresholdKappa:
    def test_entanglement_threshold_exact(self):
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.5)
        res = threshold_kappa(p, r, r, Criterion.ENTANGLEMENT, (0.4, 1.4))
        assert res.found
        expected = 2 * math.log(1 + math.sqrt(2)) * 0.5
        assert res.kappa_threshold == pytest.approx(expected, rel=1e-9)
        assert abs(res.margin_at_root) < 1e-9
        assert res.bracket[0] <= res.kappa_threshold <= res.bracket[1]

    def test_no_crossing_is_a_result(self):
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.05)
        res = threshold_kappa(p, r, r, Criterion.ENTANGLEMENT, (0.5, 1.0))
        assert not res.found and res.kappa_threshold is None

    def test_two_way_uses_weaker_direction(self):
        p = sl.SystemParams(1.05, 0.95, 2.1, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.05)
        res_two = threshold_kappa(p, r, r, Criterion.TWO_WAY, (1.999, 2.2))
        res_ab = threshold_kappa(p, r, r, Criterion.A_TO_B, (1.999, 2.2))
        assert res_two.kappa_threshold == pytest.approx(res_ab.kappa_threshold, abs=1e-8)


class TestAnalyticThresholds:
    def test_reference_values(self):
        out = analytic_thresholds(bar_eps=1.0, temperature=1.0)
        assert out["kappa_ent"] == pytest.approx(2 * math.log(1 + math.sqrt(2)), abs=1e-12)
        assert out["kappa_ent"] == pytest.approx(1.762747, abs=1e-6)
        assert out["delta_eps_one_way"] == pytest.approx(0.309401, abs=1e-6)
        assert out["kappa_low_two_way"] == pytest.approx(2 + math.log(4 / 3), abs=1e-12)

    def test_low_temperature_hierarchy(self):
        out = analytic_thresholds(bar_eps=1.0, temperature=0.05)
        assert out["kappa_bell_low"] > out["kappa_low_two_way"] > out["kappa_ent"]

    def test_fermionic_values(self):
        out = analytic_thresholds(bar_eps=1.0, temperature=0.05,
                                  statistics=FERMI, mu_bar=1.0)
        coeff = 2 * math.acosh((math.sqrt(3) + 2 * math.sqrt(3 + 3 * math.sqrt(3))) / 3)
        assert out["kappa_resonant_two_way"] == pytest.approx(coeff * 0.05, rel=1e-12)
        assert out["kappa_bell_resonant"] == pytest.approx(
            2 * math.log(3 + 2 * math.sqrt(2)) * 0.05, rel=1e-12)
        assert out["kappa_bell_resonant"] > out["kappa_resonant_two_way"] > out["kappa_ent"]
        off = analytic_thresholds(bar_eps=1.0, temperature=0.05,
                                  statistics=FERMI, mu_bar=0.4)
        assert off["kappa_low_two_way"] == pytest.approx(1.2 + math.log(4 / 3) * 0.05, rel=1e-12)
        assert off["kappa_bell_low"] > off["kappa_low_two_way"] > off["kappa_ent"]

    def test_asymmetric_split_signs(self):
        bos = analytic_thresholds(bar_eps=1.0, temperature=0.05, delta_eps=0.1)
        assert bos["kappa_low_b_to_a"] < bos["kappa_low_two_way"] < bos["kappa_low_a_to_b"]
        # fermionic split flips across the resonance
        below = analytic_thresholds(bar_eps=1.0, temperature=0.05, delta_eps=0.1,
                                    statistics=FERMI, mu_bar=0.5)
        above = analytic_thresholds(bar_eps=1.0, temperature=0.05, delta_eps=0.1,
                                    statistics=FERMI, mu_bar=1.5)
        assert below["kappa_low_b_to_a"] < below["kappa_low_a_to_b"]
        assert above["kappa_low_a_to_b"] < above["kappa_low_b_to_a"]


class TestBoundaryFit:
    def test_fit_matches_prediction(self):
        cfg = SweepConfig(
            axis_x=Axis.TA, x_range=(0.8, 2.6), nx=41,
            axis_y=Axis.TB, y_range=(0.8, 2.6), ny=41,
            system=sl.SystemParams(1.0, 1.0, 3.0, 0.01),
            statistics=BOSE, t_a=0.5, t_b=0.5,
        )
        m = sweep2d(cfg)
        fit = entanglement_boundary_fit(m)
        assert fit.found and fit.n_points > 5
        assert fit.rel_deviation < 0.05
        # equilibrium diagonal point sits on the boundary within a grid cell
        t_eq = 3.0 / (2 * math.log(1 + math.sqrt(2)))
        cell = (2.6 - 0.8) / 40
        assert abs(fit.c_fitted / 2 - t_eq) < 2 * cell

    def test_missing_boundary(self):
        cfg = SweepConfig(
            axis_x=Axis.TA, x_range=(0.1, 0.3), nx=5,
            axis_y=Axis.TB, y_range=(0.1, 0.3), ny=5,
            system=sl.SystemParams(1.0, 1.0, 3.0, 0.01),
            statistics=BOSE, t_a=0.5, t_b=0.5,
        )
        fit = entanglement_boundary_fit(sweep2d(cfg))
        assert not fit.found

    def test_axis_guard(self):
        m = sweep2d(small_sweep(nx=3, ny=3))
        with pytest.raises(ValueError):
            entanglement_boundary_fit(m)
