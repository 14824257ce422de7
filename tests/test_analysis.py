import math
from types import SimpleNamespace

import numpy as np
import pytest

import steerlab as sl
from steerlab import analysis
from steerlab.analysis import (
    FIELDS,
    Axis,
    Criterion,
    SweepConfig,
    ThresholdResult,
    analytic_thresholds,
    run_point,
    sweep2d,
    threshold_kappa,
)
from steerlab.correlations import check_hierarchy
from steerlab.errors import ConfigurationError, InternalConsistencyError, PhaseBoundaryError
from steerlab.rates import Cells, Statistics

from conftest import (
    PRESET_NAMES,
    assert_cells_equal,
    assert_rows_equal_points,
    entanglement_boundary_fit,
    gather_block,
    grid_point,
    grid_row,
    load_preset_config,
)

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
        # a bosonic mu is rejected, not swept at mu = 0 in its place
        with pytest.raises(ValueError, match="bosonic reservoirs must have mu = 0"):
            small_sweep(mu_a=0.3)
        with pytest.raises(ValueError, match="bosonic reservoirs must have mu = 0"):
            small_sweep(mu_b=-0.3)

    def test_descending_range_reaching_nonpositive_rejected(self):
        # the first such cell raises the error of a point with its values
        with pytest.raises(ValueError, match="temperature must be > 0"):
            small_sweep(axis_x=Axis.TA, x_range=(0.5, -0.1))
        with pytest.raises(ValueError, match="kappa must be > 0"):
            small_sweep(axis_y=Axis.KAPPA, y_range=(3.5, -0.5))

    def test_gate_runs_once_per_sweep(self, monkeypatch):
        # construction checks the whole grid and computes its occupations in
        # Cells.build; the blocks of sweep2d check and compute neither again
        cfg = load_preset_config("fig8b")
        for name in ("check_inputs", "derive_params", "occupations"):
            monkeypatch.setattr(f"steerlab.rates.{name}", None)
        assert len(sweep2d(cfg).columns["x"]) == cfg.nx * cfg.ny
        monkeypatch.undo()
        with pytest.raises(ValueError, match="temperature too small: T=1e-320"):
            small_sweep(axis_x=Axis.TA, x_range=(1e-320, 0.5))

    def test_point_application(self):
        cfg = small_sweep()
        system, ra, rb = grid_point(cfg, 0.3, 2.5)
        assert system.kappa == 2.5
        assert ra.temperature == rb.temperature == 0.3

    def test_delta_axes_keep_mean(self):
        cfg = small_sweep(axis_x=Axis.DELTA_T, x_range=(-0.4, 0.4))
        _, ra, rb = grid_point(cfg, 0.2, 3.0)
        assert ra.temperature == pytest.approx(0.4)
        assert rb.temperature == pytest.approx(0.6)

    def test_mubar_with_delta_mu_composes(self):
        cfg = small_sweep(
            axis_x=Axis.MUBAR, x_range=(0.0, 2.0),
            axis_y=Axis.DELTA_MU, y_range=(-1.0, 1.0),
            statistics=FERMI, t_a=0.15, t_b=0.15,
            system=sl.SystemParams(1.5, 0.5, 0.6, 0.01),
        )
        _, ra, rb = grid_point(cfg, 0.8, 0.5)
        assert ra.mu == pytest.approx(0.55)
        assert rb.mu == pytest.approx(1.05)


class TestRowCells:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_rows_equal_stacked_points(self, name):
        # the grid is built from the axis vectors; the points one at a time
        cfg = load_preset_config(name)
        assert cfg.grid.theta.shape == (cfg.ny * cfg.nx,)
        assert_rows_equal_points(cfg, (0, cfg.ny // 2, cfg.ny - 1))

    def test_rejections_match_point(self):
        # a level axis can drive a difference axis' temperature non-positive,
        # which only shows cell by cell
        kwargs = dict(axis_x=Axis.DELTA_T, x_range=(-0.4, 0.4), nx=5, axis_y=Axis.TBAR)
        valid = small_sweep(**kwargs, y_range=(0.3, 0.8))
        with pytest.raises(ValueError) as from_point:
            Cells.of([grid_point(valid, x, 0.1) for x in valid.x_values().tolist()])
        with pytest.raises(ValueError) as from_config:
            small_sweep(**kwargs, y_range=(0.1, 0.8))
        assert str(from_config.value) == str(from_point.value)
        assert "temperature must be > 0" in str(from_config.value)

    def test_cells_off_the_grid_equal_points(self):
        # the boundary fit's bisection points: an x vector between grid cells at one y
        cfg = small_sweep(axis_x=Axis.TA, x_range=(0.8, 2.6), axis_y=Axis.TB,
                          y_range=(0.8, 2.6))
        xs, y = [0.81, 1.3333333333333333, 2.599999], cfg.y_values()[2]
        assert_cells_equal(cfg.cells(np.array(xs), y),
                           Cells.of([grid_point(cfg, x, float(y)) for x in xs]))

    def test_phase_boundary_rejected(self):
        # kappa = 2 sqrt(eps_a eps_b) fixed, over a temperature grid
        system, r = sl.SystemParams(1.0, 1.0, 2.0, 0.01), sl.ReservoirSpec(BOSE, 0.2)
        with pytest.raises(PhaseBoundaryError) as from_point:
            Cells.of([(system, r, r)])
        with pytest.raises(PhaseBoundaryError) as from_config:
            small_sweep(axis_x=Axis.TA, x_range=(0.2, 0.4), axis_y=Axis.TB,
                        y_range=(0.2, 0.4), system=system)
        assert str(from_config.value) == str(from_point.value)


class TestCellsBuild:
    """Cells.build over the broadcast shape of scalar and array parameters
    gives the bits of Cells.of over the same points."""

    bose = (sl.ReservoirSpec(BOSE, 0.4), sl.ReservoirSpec(BOSE, 0.6))

    def test_kappa_vector(self):
        # a threshold batch: couplings on both sides of the level crossing
        system, ra, rb = sl.SystemParams(1.3, 0.7, 1.0, 0.01), *self.bose
        ks = np.linspace(0.2, 3.0, 15)
        assert_cells_equal(Cells.build(1.3, 0.7, ks, 0.01, 0.4, 0.6, 0.0, 0.0, BOSE),
                           Cells.of([(system._replace(kappa=k), ra, rb) for k in ks.tolist()]))

    def test_grid(self):
        # an (ny, nx) grid from an x row and a y column, fermionic
        ta, mua = np.linspace(0.1, 0.5, 4), np.linspace(0.5, 1.5, 3)[:, None]
        cells = Cells.build(1.5, 0.5, 0.6, 0.01, ta, 0.3, mua, 0.8, FERMI)
        assert cells.theta.shape == (3, 4) and cells.temperature.shape == (3, 4, 2)
        system, rb = sl.SystemParams(1.5, 0.5, 0.6, 0.01), sl.ReservoirSpec(FERMI, 0.3, 0.8)
        for iy, mu in enumerate(mua[:, 0].tolist()):
            assert_cells_equal(cells[iy], Cells.of([(system, sl.ReservoirSpec(FERMI, t, mu), rb)
                                                    for t in ta.tolist()]))

    def test_one_point(self):
        system, ra, rb = sl.SystemParams(1.0, 1.0, 3.0, 0.01), *self.bose
        assert_cells_equal(Cells.build(1.0, 1.0, np.array([3.0]), 0.01, 0.4, 0.6, 0.0, 0.0, BOSE),
                           Cells.of([(system, ra, rb)]))

    def test_empty_batch(self):
        # no cell: every stage of the pipeline returns empty arrays
        g, st, c, transport = analysis._pipeline(
            Cells.build(1.0, 1.0, np.array([]), 0.01, 0.4, 0.6, 0.0, 0.0, BOSE))
        assert g.total.shape == (0, 5, 5) and g.numbers.shape == (0, 4)
        assert st.vector6.shape == (0, 6) and c.entangled.shape == (0,)
        assert [t.shape for t in transport] == [(0,)] * 3


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
        # cell (ix, iy) = (2, 1) is row-major entry 1 * 4 + 2
        assert m.columns["x"][6] == xs[2] and m.columns["y"][6] == ys[1]

    def test_point_matches_row(self, monkeypatch):
        # a block of rows is one batch of the array kernels, a row is another
        # and run_point a batch of one; all give the same bits on strong-bose,
        # weak-bose and weak-fermi grids, whatever the block size: one block,
        # a ragged last block (8: rows 0-1, then row 2) and a row wider than a
        # block (3: one row per block)
        grids = [
            small_sweep(nx=4, ny=3),
            small_sweep(nx=4, ny=3, system=sl.SystemParams(1.3, 0.7, 1.0, 0.01),
                        y_range=(0.5, 1.5)),
            small_sweep(nx=4, ny=3, axis_x=Axis.MUBAR, x_range=(0.0, 2.0),
                        axis_y=Axis.DELTA_MU, y_range=(-1.0, 1.0), statistics=FERMI,
                        t_a=0.15, t_b=0.15, system=sl.SystemParams(1.5, 0.5, 0.6, 0.01)),
        ]
        pipeline, batches = analysis._pipeline, []

        def counting(cells):
            batches.append(cells.theta.shape)
            return pipeline(cells)
        monkeypatch.setattr(analysis, "_pipeline", counting)
        for block, sizes in ((analysis.BLOCK_CELLS, [(12,)]), (8, [(8,), (4,)]),
                             (3, [(4,), (4,), (4,)])):
            monkeypatch.setattr(analysis, "BLOCK_CELLS", block)
            for cfg in grids:
                batches.clear()
                m = sweep2d(cfg)
                assert batches == sizes, (block, cfg.statistics)
                worst = []
                for iy in range(cfg.ny):
                    _, ss, c, (_, current_b, sigma) = pipeline(grid_row(cfg, iy))
                    worst.append((ss.residual.max(), ss.min_eigenvalue.min(),
                                  ss.null_ratio.min()))
                    row = (cfg.x_values(), np.full(cfg.nx, cfg.y_values()[iy]), c.entangled,
                           c.steer_a_to_b, c.steer_b_to_a, c.bell, c.margin_ent, c.margin_ab,
                           c.margin_ba, c.margin_bell, current_b, sigma, ss.positive)
                    for name, want in zip(FIELDS, row):
                        got = m.columns[name][iy * cfg.nx:(iy + 1) * cfg.nx]
                        assert got.dtype == want.dtype, name
                        assert np.array_equal(got, want, equal_nan=True), (block, name, iy)
                residual, eigenvalue, ratio = zip(*worst)
                assert m.diagnostics == {"max_residual": max(residual),
                                         "min_eigenvalue": min(eigenvalue),
                                         "min_null_space_ratio": min(ratio)}
                for ix, iy in ((0, 0), (3, 0), (1, 1), (2, 2), (3, 2)):
                    cell = SimpleNamespace(**{k: c[iy * cfg.nx + ix].item()
                                              for k, c in m.columns.items()})
                    _, ss, c, (_, current_b, sigma) = run_point(*grid_point(cfg, cell.x, cell.y))
                    got = (c.entangled[0], c.steer_a_to_b[0], c.steer_b_to_a[0], c.bell[0],
                           ss.positive[0], c.margin_ent[0], c.margin_ab[0], c.margin_ba[0],
                           c.margin_bell[0], current_b[0], sigma[0])
                    want = (cell.entangled, cell.steer_ab, cell.steer_ba, cell.bell,
                            cell.positivity_ok, cell.margin_ent, cell.margin_ab,
                            cell.margin_ba, cell.margin_bell, cell.current_b, cell.sigma)
                    assert np.array_equal(got, want, equal_nan=True), (block, ix, iy)

    def test_hierarchy_on_real_grid(self):
        m = sweep2d(small_sweep())
        check_hierarchy(*(m.columns[k] for k in ("entangled", "steer_ab", "steer_ba", "bell")))
        assert m.masked_count() == 0


def assert_same_bits(got, want, where=()) -> None:
    """Two pipeline outputs (nested tuples of arrays, Cells and enums) agree
    in the dtype, shape and bytes of every array."""
    if isinstance(want, Cells):
        assert_cells_equal(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_bits(a, b, where + (getattr(want, "_fields", range(len(want)))[i],))
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert got is want, where


class TestSweepBlocks:
    """sweep2d's blocks are views of whole rows of config.grid, and give the
    bits of the former blocks, gathered by row and column indices
    (conftest.gather_block)."""

    @pytest.mark.parametrize("cfg", [
        # one phase: weak-bose throughout
        small_sweep(axis_x=Axis.TA, x_range=(0.2, 0.9), axis_y=Axis.TB, y_range=(0.3, 1.1),
                    system=sl.SystemParams(1.0, 1.0, 1.0, 0.01)),
        # mixed: kappa crosses the level crossing at 2
        small_sweep(axis_y=Axis.KAPPA, y_range=(1.05, 3.55), ny=6),
        # nx > BLOCK_CELLS: one row per block
        small_sweep(nx=2049, ny=2),
        # 2048 // 300 = 6 rows per block, then a ragged block of 2 rows
        small_sweep(axis_y=Axis.KAPPA, y_range=(1.05, 3.55), nx=300, ny=8),
    ], ids=["one-phase", "mixed-phase", "one-row-blocks", "ragged"])
    def test_views_match_gather(self, cfg, monkeypatch):
        pipeline, blocks = analysis._pipeline, []

        def recording(cells):
            blocks.append(cells)
            return pipeline(cells)
        monkeypatch.setattr(analysis, "_pipeline", recording)
        sweep2d(cfg)
        rows = max(1, analysis.BLOCK_CELLS // cfg.nx)
        assert [b.theta.shape for b in blocks] == [
            (min(rows, cfg.ny - iy) * cfg.nx,) for iy in range(0, cfg.ny, rows)]
        start = 0
        for block in blocks:
            for name in ("bar_eps", "omega", "theta", "eigen_weights", "setup", "gamma",
                         "temperature", "mu", "occupations"):
                assert np.shares_memory(getattr(block, name), getattr(cfg.grid, name)), name
            size = len(block.theta)
            assert_same_bits(pipeline(block), pipeline(gather_block(cfg, start, size)))
            start += size
        assert start == cfg.nx * cfg.ny
        if cfg.ny == 6:
            assert 0 < np.count_nonzero(cfg.grid.setup == 2) < cfg.grid.setup.size


class TestHierarchyCheck:
    """check_hierarchy, the one hierarchy rule, on flag columns: classify runs
    it on every cell of every batch, so no map that sweep2d returns breaks it."""

    def _flags(self, **planted):
        # four cells that meet the hierarchy, with the planted flags on cell 2
        columns = {"entangled": np.full(4, True), "steer_ab": np.full(4, True),
                   "steer_ba": np.full(4, True), "bell": np.full(4, False)}
        for name, value in planted.items():
            columns[name][2] = value
        return columns.values()

    def test_planted_violation_found(self):
        check_hierarchy(*self._flags())
        with pytest.raises(InternalConsistencyError, match="Bell nonlocal but not two-way"):
            check_hierarchy(*self._flags(bell=True, steer_ab=False))

    def test_steerable_unentangled_found(self):
        with pytest.raises(InternalConsistencyError, match="steerable but not entangled"):
            check_hierarchy(*self._flags(entangled=False, steer_ab=True, steer_ba=False))


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

    @pytest.mark.parametrize("bracket", [(3.0, 0.5), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                         (0.5, math.inf), (math.nan, 1.0)])
    def test_bad_bracket_rejected(self, bracket):
        p, r = sl.SystemParams(1.0, 1.0, 1.0, 0.01), sl.ReservoirSpec(BOSE, 0.5)
        with pytest.raises(ValueError, match="0 < lo < hi < inf"):
            threshold_kappa(p, r, r, Criterion.ENTANGLEMENT, bracket)

    def test_mixed_statistics_rejected(self):
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.01)
        with pytest.raises(ConfigurationError, match="share statistics"):
            threshold_kappa(p, sl.ReservoirSpec(BOSE, 0.5), sl.ReservoirSpec(FERMI, 0.5),
                            Criterion.ENTANGLEMENT, (0.4, 1.4))

    def test_tolerance_below_float_spacing_ends(self):
        # 1e-10 * bar_eps = 1e-14 is below the float spacing near kappa = 1763,
        # so the bracket stops at adjacent floats
        p, r = sl.SystemParams(1e-4, 1e-4, 1.0, 1e-6), sl.ReservoirSpec(BOSE, 1000.0)
        res = threshold_kappa(p, r, r, Criterion.ENTANGLEMENT, (10.0, 10000.0))
        lo, hi = res.bracket
        assert res.found and hi == math.nextafter(lo, math.inf)
        assert res.kappa_threshold == pytest.approx(2 * math.log(1 + math.sqrt(2)) * 1000.0,
                                                    rel=1e-6)

    def test_two_way_uses_weaker_direction(self):
        p = sl.SystemParams(1.05, 0.95, 2.1, 0.01)
        r = sl.ReservoirSpec(BOSE, 0.05)
        res_two = threshold_kappa(p, r, r, Criterion.TWO_WAY, (1.999, 2.2))
        res_ab = threshold_kappa(p, r, r, Criterion.A_TO_B, (1.999, 2.2))
        assert res_two.kappa_threshold == pytest.approx(res_ab.kappa_threshold, abs=1e-8)


def halving(f, lo, hi, f_lo, f_hi, tol):
    """Bisection halving one point at a time, one call of f per point, and f
    at the root of the final bracket: the oracle of analysis._bisect."""
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f([mid])[0]
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations, f([0.5 * (lo + hi)])[0]


def halving_threshold(template, ra, rb, criterion, bracket, rel_tol=1e-10, prescan=8):
    """threshold_kappa with every margin the one-cell batch of
    template._replace(kappa=k), halving one point at a time."""
    def margins(ks):
        return [analysis._margins(Cells.of([(template._replace(kappa=k), ra, rb)]),
                                  criterion)[0] for k in ks]

    ks = np.linspace(bracket[0], bracket[1], prescan).tolist()
    ms = margins(ks)
    crossings = [i for i in range(len(ks) - 1) if (ms[i] > 0) != (ms[i + 1] > 0)]
    if not crossings:
        return ThresholdResult(criterion, False, None, bracket, 0, None)
    i = crossings[0]
    tol = rel_tol * 0.5 * (template.eps_a + template.eps_b)
    lo, hi, iterations, margin = halving(margins, ks[i], ks[i + 1], ms[i], ms[i + 1], tol)
    return ThresholdResult(criterion, True, 0.5 * (lo + hi), (lo, hi), iterations, margin)


# (eps_a, eps_b, statistics, T, mu, bracket) per setup and criterion, and
# whether the criterion has a threshold there
_DETUNED_WEAK = (1.25, 0.75, BOSE, 0.05, 0.0, (1.6, 1.936))
THRESHOLD_CASES = {
    ("strong-bose", Criterion.TWO_WAY): ((1.0, 1.0, BOSE, 0.05, 0.0, (2.003, 2.3)), True),
    ("strong-bose", Criterion.A_TO_B): ((1.05, 0.95, BOSE, 0.05, 0.0, (1.999, 2.2)), True),
    ("strong-bose", Criterion.B_TO_A): ((1.05, 0.95, BOSE, 0.05, 0.0, (1.999, 2.2)), True),
    ("strong-bose", Criterion.ENTANGLEMENT): ((1.0, 1.0, BOSE, 2.0, 0.0, (2.05, 6.0)), True),
    ("strong-bose", Criterion.BELL): ((1.0, 1.0, BOSE, 0.05, 0.0, (2.003, 2.3)), True),
    ("weak-bose", Criterion.TWO_WAY): (_DETUNED_WEAK, False),
    ("weak-bose", Criterion.A_TO_B): (_DETUNED_WEAK, False),
    ("weak-bose", Criterion.B_TO_A): (_DETUNED_WEAK, True),
    ("weak-bose", Criterion.ENTANGLEMENT): ((1.0, 1.0, BOSE, 0.5, 0.0, (0.4, 1.4)), True),
    ("weak-bose", Criterion.BELL): (_DETUNED_WEAK, False),
    ("weak-fermi", Criterion.TWO_WAY): ((1.0, 1.0, FERMI, 0.03, 1.0, (0.02, 0.3)), True),
    ("weak-fermi", Criterion.A_TO_B): ((1.1, 0.9, FERMI, 0.03, 0.5, (0.02, 1.9)), True),
    ("weak-fermi", Criterion.B_TO_A): ((1.1, 0.9, FERMI, 0.03, 0.5, (0.02, 1.9)), True),
    ("weak-fermi", Criterion.ENTANGLEMENT): ((1.0, 1.0, FERMI, 0.03, 1.0, (0.02, 0.3)), True),
    ("weak-fermi", Criterion.BELL): ((1.0, 1.0, FERMI, 0.03, 1.0, (0.02, 0.3)), True),
}


# f(x, lo, hi, root) with a sign change at root, for a good and for poor
# estimates of the root
def _linear(x, lo, hi, root):
    return x - root


def _kink(x, lo, hi, root):
    # min of two lines, kinked just above the root, like the two-way criterion
    return min(x - root, 0.1 * (x - root) + 1e-3 * (hi - lo))


def _step(x, lo, hi, root):
    return -1.0 if x < root else 1.0


def _tent(x, lo, hi, root):
    # f(lo) == f(hi): sign changes 0.3 (hi - lo) either side of the middle
    return 0.3 * (hi - lo) - abs(x - 0.5 * (lo + hi))


BISECT_CASES = [
    (0.0, 1.0, 0.3, 1e-10), (1.0, 2.0, 1.7, 0.25), (1.0, 2.0, 1.2, 0.2),
    (-3.0, 5.0, 0.0, 1e-3), (2.003, 2.3, 2.0143, 2.0e-10), (0.0, 1.0, 0.5, 2.0),
    # 8 and 28 halvings: the root lies one level below a full tree
    (0.0, 1.0, 0.123, 0.005), (0.0, 1.0, 0.61, 5e-9),
]


def bisection_batches(shape, lo, hi, root, tol) -> list[int]:
    """The sizes of _bisect's calls of f on shape, whose result must equal
    the halving oracle's, within the bounds every f meets."""
    f_lo, f_hi = shape(lo, lo, hi, root), shape(hi, lo, hi, root)
    calls = []

    def f(points):
        calls.append(len(points))
        return [shape(x, lo, hi, root) for x in points]
    got = analysis._bisect(f, lo, hi, f_lo, f_hi, tol)
    want = halving(f, lo, hi, f_lo, f_hi, tol)
    assert got == want
    iterations = got[2]
    batches = calls[:-(iterations + 1)]
    assert len(batches) <= max(1, math.ceil(iterations / analysis.BISECT_DEPTH))
    assert len(batches) == 1 or batches[-1] > 1   # never a batch for the root alone
    return batches


class TestDyadicBisection:
    @pytest.mark.parametrize("lo,hi,root,tol", BISECT_CASES)
    def test_matches_halving_one_point_at_a_time(self, lo, hi, root, tol):
        # a linear f: the first estimate is the root, so one batch reaches it
        assert len(bisection_batches(_linear, lo, hi, root, tol)) == 1

    @pytest.mark.parametrize("shape", [_kink, _step, _tent])
    @pytest.mark.parametrize("lo,hi,root,tol", BISECT_CASES)
    def test_poor_estimate_matches_halving(self, lo, hi, root, tol, shape):
        bisection_batches(shape, lo, hi, root, tol)

    def test_stops_when_no_float_lies_inside(self):
        lo, hi, _, _ = analysis._bisect(lambda points: [x - 1.3 for x in points],
                                        1.0, 2.0, -0.3, 0.7, 1e-300)
        assert hi == math.nextafter(lo, math.inf) and lo <= 1.3 <= hi

    @pytest.mark.parametrize("case", THRESHOLD_CASES,
                             ids=[f"{setup}-{c.value}" for setup, c in THRESHOLD_CASES])
    def test_threshold_matches_halving(self, case, monkeypatch):
        (eps_a, eps_b, stat, t, mu, bracket), found = THRESHOLD_CASES[case]
        p, r = sl.SystemParams(eps_a, eps_b, 1.0, 0.01), sl.ReservoirSpec(stat, t, mu)
        want = halving_threshold(p, r, r, case[1], bracket)
        batches = []
        build = analysis.build_generator

        def counting(cells):
            batches.append(cells.theta.shape[0])
            return build(cells)
        monkeypatch.setattr(analysis, "build_generator", counting)
        got = threshold_kappa(p, r, r, case[1], bracket)
        assert got == want and got.found is found
        # the pre-scan, then bisection batches that each serve BISECT_DEPTH
        # halvings or more; the last one holds the root with other points
        bisection = batches[1:]
        assert batches[0] == 8
        assert len(bisection) <= max(1, math.ceil(got.iterations / analysis.BISECT_DEPTH))
        assert len(bisection) <= 4
        assert not bisection or bisection[-1] > 1
        if found:
            assert bisection and got.iterations > 20

    def test_boundary_fit_matches_halving(self, monkeypatch):
        cfg = SweepConfig(
            axis_x=Axis.TA, x_range=(0.8, 2.6), nx=13, axis_y=Axis.TB, y_range=(0.8, 2.6),
            ny=13, system=sl.SystemParams(1.0, 1.0, 3.0, 0.01), statistics=BOSE,
            t_a=0.5, t_b=0.5)
        m = sweep2d(cfg)
        got = entanglement_boundary_fit(m)
        monkeypatch.setattr(analysis, "_bisect", halving)
        want = entanglement_boundary_fit(m)
        assert got.found and got.n_points >= 3 and got == want


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
