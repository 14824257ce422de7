"""Shared oracles and fixtures.

The Gibbs / grand-canonical constructions here deliberately avoid the package
pipeline (direct diagonalization of H) so equilibrium comparisons are a true
dual route.
"""
from __future__ import annotations

import contextlib
import enum
import json
import math
import warnings
from dataclasses import dataclass, fields
from importlib import resources
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

import steerlab as sl
from steerlab import analysis
from steerlab.analysis import ENT_COEFF, FIELDS, Axis, Criterion, RegionMap, SweepConfig
from steerlab.correlations import MARGIN_TOL, PPT_TOL, Method
from steerlab.errors import ConfigurationError, InternalConsistencyError
from steerlab.generator import _TEMPLATES, GeneratorArrays, dense
from steerlab.model import VEC6_ENTRIES, eigenvectors, lower_eigenvalue
from steerlab.rates import COEFFICIENTS, Statistics, occupations, rate_set
from steerlab.steady import SteadyArrays

_acceptance_log: list[tuple[int, str, bool, str]] = []


def record_criterion(num: int, description: str, passed: bool, detail: str = "") -> None:
    _acceptance_log.append((num, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_log:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, desc, ok, detail in sorted(_acceptance_log):
        status = "PASS" if ok else "FAIL"
        line = f"[{num:02d}] {status}  {desc}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


class Phase(enum.Enum):
    WEAK = "weak"
    STRONG = "strong"


class Direction(enum.Enum):
    """The steering direction: which party steers which."""

    A_TO_B = "a->b"
    B_TO_A = "b->a"


def hamiltonian_matrix(p: sl.SystemParams) -> np.ndarray:
    """4x4 Hamiltonian in the local basis (|00>, |01>, |10>, |11>), the
    oracle of the closed-form eigensystem.

    Diagonal (-bar_eps, -delta_eps/2, +delta_eps/2, +bar_eps), with the
    exchange kappa/2 connecting |01> and |10>.
    """
    bar_eps = 0.5 * (p.eps_a + p.eps_b)
    delta_eps = p.eps_a - p.eps_b
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = -bar_eps
    h[1, 1] = -0.5 * delta_eps
    h[2, 2] = +0.5 * delta_eps
    h[3, 3] = +bar_eps
    h[1, 2] = h[2, 1] = 0.5 * p.kappa
    return h


def gibbs_local(p: sl.SystemParams, beta: float, mu: float = 0.0) -> np.ndarray:
    """exp(-beta (H - mu N)) / Z via direct diagonalization, local basis."""
    h = hamiltonian_matrix(p)
    n = np.diag([0.0, 1.0, 1.0, 2.0])
    w, v = np.linalg.eigh(h - mu * n)
    weights = np.exp(-beta * (w - w.min()))
    rho = (v * weights) @ v.conj().T
    return rho / rho.trace().real


def werner_matrix(w: float) -> np.ndarray:
    """w |psi-><psi-| + (1-w)/4 * identity in the local basis."""
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return w * np.outer(psi, psi.conj()) + (1 - w) * np.eye(4) / 4


# weight of rho in the partially depolarizing map, and of the reduced state
DEPOL = 1 / np.sqrt(3)
DEPOL_REST = (3 - np.sqrt(3)) / 3


def depolarized(m: np.ndarray) -> np.ndarray:
    """Oracle: rho and its A->B and B->A partially depolarized maps, stacked
    as dense (..., 3, 4, 4).

    A->B gives rho/sqrt(3) + (1 - 1/sqrt(3)) (1/2 (x) rho_B); B->A mirrors the
    construction onto qubit B's slot.  In the (a, b, a', b') view of rho the
    reduced states are the partial traces, and 1/2 (x) rho_B adds rho_B/2 to
    the blocks a = a' (rho_A (x) 1/2 adds rho_A/2 where b = b').
    """
    lead = m.shape[:-2]
    t = m.reshape(lead + (2, 2, 2, 2))
    rest_b = DEPOL_REST * (0.5 * (t[..., 0, :, 0, :] + t[..., 1, :, 1, :]))
    rest_a = DEPOL_REST * (0.5 * (t[..., :, 0, :, 0] + t[..., :, 1, :, 1]))
    out = np.empty(lead + (3, 2, 2, 2, 2), dtype=complex)
    out[..., 0, :, :, :, :] = t
    out[..., 1:, :, :, :, :] = DEPOL * t[..., None, :, :, :, :]
    for k in range(2):
        out[..., 1, k, :, k, :] += rest_b
        out[..., 2, :, k, :, k] += rest_a
    return out.reshape(lead + (3, 4, 4))


def partial_transpose_b(m: np.ndarray) -> np.ndarray:
    """Transpose qubit B of a (..., 4, 4) array of two-qubit matrices."""
    lead = m.shape[:-2]
    return m.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def ppt_margins(m: np.ndarray) -> np.ndarray:
    """Oracle of the X-state block test, for any (..., 4, 4) state:
    -(smallest partial-transpose eigenvalue) of rho, its A->B map and its
    B->A map, by dense eigvalsh, as (..., 3)."""
    return -np.linalg.eigvalsh(partial_transpose_b(depolarized(m)))[..., 0]


# rows and columns of the X entries rho11, rho22, rho33, rho44, rho23, rho14
X_ROWS, X_COLUMNS = [0, 1, 2, 3, 1, 0], [0, 1, 2, 3, 2, 3]
# entries an X state may carry: the diagonal and the anti-diagonal
X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def x_vector(m: np.ndarray) -> np.ndarray:
    """The X entries (..., 6) that classify takes, of dense local-basis X
    states (..., 4, 4); a non-X entry above 1e-10 raises ValueError."""
    m = np.asarray(m, dtype=complex)
    non_x = np.abs(m[..., ~X_PATTERN]).max()
    if non_x > 1e-10:
        raise ValueError(f"classify takes X states only; a non-X entry reads {non_x:.3g}")
    return m[..., X_ROWS, X_COLUMNS]


def from_vector6(v: np.ndarray) -> np.ndarray:
    """Embed 6-entry vectors (..., 6) into energy-basis 4x4 matrices (..., 4, 4)."""
    v = np.asarray(v, dtype=complex)
    m = np.zeros(v.shape[:-1] + (4, 4), dtype=complex)
    m[..., VEC6_ENTRIES[0], VEC6_ENTRIES[1]] = v
    return m


def dense_local(v: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Oracle of SteadyArrays.local_x: the dense local-basis states
    V from_vector6(v) V^dagger (..., 4, 4) of 6-entry vectors v (..., 6), by
    matmul over the eigenvector columns V (..., 4, 4)."""
    return vectors @ from_vector6(v) @ vectors.conj().swapaxes(-1, -2)


def columns(g: GeneratorArrays) -> np.ndarray:
    """The real eigenvector columns (N, 4, 4) of the cells of generators g."""
    return eigenvectors(g.cells.eigen_weights, g.cells.setup == 2)


def cell(g: GeneratorArrays, i: int) -> GeneratorArrays:
    """Row i of the generators g, as a one-cell batch."""
    return g._replace(**{k: v[i:i + 1] for k, v in g._asdict().items()})


def unpack(k: np.ndarray) -> np.ndarray:
    """The real 6x6 matrices (..., 6, 6) on the six entries of compact
    [[P, B], [C, d]] arrays (..., 5, 5): [[P, B, B], [C, d, 0], [C, 0, d]],
    without the coherent part."""
    m = np.zeros(k.shape[:-2] + (6, 6))
    m[..., :5, :5] = k
    m[..., :4, 5], m[..., 5, :4], m[..., 5, 5] = k[..., :4, 4], k[..., 4, :4], k[..., 4, 4]
    return m


def generator_oracle(cells: sl.Cells) -> tuple[np.ndarray, np.ndarray]:
    """The former dense assembly, as the oracle of the compact layout: the
    bath parts (..., 2, 6, 6) as the broadcast product-sum of the rate
    coefficients and the 6x6 templates of each cell's setup, and the total
    (..., 6, 6), their sum in complex arithmetic plus the +/- i*Omega
    entries, Omega = 2 omega."""
    templates = unpack(np.asarray(_TEMPLATES))[cells.setup]
    parts = (rate_set(cells)[..., None, None] * templates).sum(axis=-3)
    total = np.add(parts[..., 0, :, :], parts[..., 1, :, :], dtype=complex)
    total[..., 4, 4] += 2j * cells.omega
    total[..., 5, 5] -= 2j * cells.omega
    return parts, total


# stability bound on a fixed RK4 step, dt <= DT_SAFETY / ||M||_inf: it sets
# the output spacing of the long evolve runs
DT_SAFETY = 0.1


def max_stable_dt(g: GeneratorArrays) -> float:
    """The stability bound 0.1/||M||_inf of the one-cell generator g."""
    return DT_SAFETY / float(np.max(np.abs(dense(g)[0]).sum(axis=1)))


def random_system(rng: np.random.Generator, phase: Phase,
                  gamma_range=(1e-3, 0.05)) -> sl.SystemParams:
    """Random valid parameters safely inside the requested phase."""
    eps_b = rng.uniform(0.3, 1.5)
    eps_a = eps_b * rng.uniform(1.0, 3.0)
    boundary = 2.0 * np.sqrt(eps_a * eps_b)
    if phase is Phase.WEAK:
        kappa = boundary * rng.uniform(0.1, 0.9)
    else:
        kappa = boundary * rng.uniform(1.1, 2.5)
    gamma = rng.uniform(*gamma_range)
    return sl.SystemParams(eps_a=eps_a, eps_b=eps_b, kappa=kappa, gamma=gamma)


@contextlib.contextmanager
def gamma_warning_ignored():
    """Ignore the gamma > 0.1*eps_b UserWarning of Cells.build, which drawn
    systems (gamma up to 0.05, eps_b down to 0.3) raise on purpose; every
    other warning keeps its filter."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"gamma > 0\.1\*eps_b", UserWarning)
        yield


def one_cell(p: sl.SystemParams, ra: sl.ReservoirSpec, rb: sl.ReservoirSpec):
    """Generator and steady state of one point, as the one-cell batch."""
    g = sl.build_generator(sl.Cells.of([(p, ra, rb)]))
    return g, sl.steady_state(g)


@st.composite
def batches(draw):
    """Generators of up to 16 cells of one statistics: bosonic batches mix the
    weak and the strong phase, fermionic ones are weak (the only phase the
    fermionic setup supports)."""
    stat = draw(st.sampled_from([Statistics.BOSE, Statistics.FERMI]))
    n = draw(st.integers(1, 16))

    def column(*ranges):
        return np.array(draw(st.lists(st.one_of(*(st.floats(*r) for r in ranges)),
                                      min_size=n, max_size=n)))
    eps_b = column((0.3, 1.5))
    eps_a = eps_b * column((1.0, 3.0))
    ratio = column((0.1, 0.9), (1.1, 2.5)) if stat is Statistics.BOSE else column((0.1, 0.9))
    mu_a, mu_b = ((column((-0.5, 2.0)), column((-0.5, 2.0))) if stat is Statistics.FERMI
                  else (0.0, 0.0))
    with gamma_warning_ignored():
        cells = sl.Cells.build(eps_a, eps_b, ratio * 2.0 * np.sqrt(eps_a * eps_b),
                               column((5e-3, 0.05)), column((0.05, 2.0)), column((0.05, 2.0)),
                               mu_a, mu_b, stat)
    return sl.build_generator(cells)


def transport_oracle(g: GeneratorArrays, ss: SteadyArrays):
    """Oracle of transport.transport_report, its former form: d_j = (D_j v)[:4]
    by a stacked matmul over the dense 6x6 parts D_j, and J^E, J^N by
    multiply-and-sum; returns (current_a, current_b, sigma)."""
    d = (unpack(g.parts)[..., :4, :] @ ss.vector6.real[..., None, :, None])[..., 0]
    je = (d * g.energies[..., None, :]).sum(axis=-1)
    jn = (d * g.numbers[..., None, :]).sum(axis=-1)
    t, mu = g.cells.temperature, g.cells.mu
    sigma = (je[..., 1] * (1.0 / t[..., 0] - 1.0 / t[..., 1])
             + jn[..., 1] * (mu[..., 1] / t[..., 1] - mu[..., 0] / t[..., 0]))
    current = je if g.cells.statistics is Statistics.BOSE else jn
    return current[..., 0], current[..., 1], sigma


# entry order of the Hermitian conjugate of a 6-entry vector
VEC6_ADJOINT = [0, 1, 2, 3, 5, 4]


def hermitize_vector6(v: np.ndarray) -> np.ndarray:
    """Real populations and a conjugate coherence pair, from their mean; (..., 6)."""
    return 0.5 * (v + v[..., VEC6_ADJOINT].conj())


def rates(p, ra, rb) -> SimpleNamespace:
    """The rate coefficients of one point by name, with suffix _a or _b for
    the reservoir, plus the totals p and q."""
    rs = rate_set(sl.Cells.of([(p, ra, rb)]))[0]
    out = {f"{name}_{j}": rs[k, i] for k, j in enumerate("ab")
           for i, name in enumerate(COEFFICIENTS)}
    return SimpleNamespace(**out, p=out["p_a"] + out["p_b"], q=out["q_a"] + out["q_b"])


def occupation(r: sl.ReservoirSpec, eps: float) -> float:
    """The occupation of reservoir r's mode at energy eps, from the kernel
    rates.occupations on one-element arrays."""
    return occupations(r.statistics, np.array([r.temperature]), np.array([r.mu]),
                       np.array([float(eps)])).item()


def row0(batch):
    """A batch result (a NamedTuple) with each array field read at row 0."""
    return batch._replace(**{k: v[0] for k, v in batch._asdict().items()
                             if isinstance(v, np.ndarray)})


def eigen_populations(local: np.ndarray, vectors: np.ndarray, strong: bool) -> np.ndarray:
    """Oracle: weights of a local-basis state on (|00>, |11>, psi-, psi+), by
    projecting onto the eigenvector columns (in the phase's (g, e1, e2, e3)
    order)."""
    pops = np.einsum("ik,ij,jk->k", vectors.conj(), local, vectors).real
    return pops[[1, 2, 0, 3]] if strong else pops[[0, 3, 1, 2]]


@dataclass(frozen=True)
class EquilibriumState:
    """Closed-form equilibrium steady state in both bases (the c02 oracle)."""

    energy: np.ndarray
    local: np.ndarray


def equilibrium_analytic(p: sl.SystemParams, r: sl.ReservoirSpec) -> EquilibriumState:
    """Oracle: the analytic equilibrium solution of p with both qubits at
    reservoir r, from the closed-form populations.

    Bosonic phases carry the normalization R = (1+2p)(1+2q) with p, q the
    occupations at eps_plus, eps_minus; the fermionic (weak phase only)
    populations are the grand-canonical products.
    """
    c = sl.Cells.of([(p, r, r)])
    vectors = eigenvectors(c.eigen_weights, c.setup == 2)
    theta = c.theta.item()
    np_, nq = c.occupations[0, 0].tolist()
    c2 = math.cos(theta / 2) ** 2
    s2 = math.sin(theta / 2) ** 2
    sin_th = math.sin(theta)
    if r.statistics is Statistics.BOSE:
        norm = (1 + 2 * np_) * (1 + 2 * nq)
        diag = np.array([(1 + np_) * (1 + nq), (1 + np_) * nq, (1 + nq) * np_, np_ * nq])
        diag /= norm
        if c.setup[0] != 2:
            local_diag = [
                diag[0],
                (s2 * np_ + c2 * nq + np_ * nq) / norm,
                (c2 * np_ + s2 * nq + np_ * nq) / norm,
                diag[3],
            ]
            rho23 = sin_th * (np_ - nq) / (2 * norm)
        else:
            local_diag = [
                diag[1],
                (c2 * (1 + np_ + nq) + np_ * nq) / norm,
                (s2 * (1 + np_ + nq) + np_ * nq) / norm,
                diag[2],
            ]
            rho23 = -sin_th * (1 + np_ + nq) / (2 * norm)
    else:
        if c.setup[0] == 2:
            raise ConfigurationError("fermionic setup supports the weak phase only")
        diag = np.array([(1 - np_) * (1 - nq), (1 - np_) * nq, (1 - nq) * np_, np_ * nq])
        local_diag = [
            diag[0],
            s2 * np_ + c2 * nq - np_ * nq,
            c2 * np_ + s2 * nq - np_ * nq,
            diag[3],
        ]
        rho23 = sin_th * (np_ - nq) / 2
    energy = np.diag(diag.astype(complex))
    local = np.diag(np.array(local_diag, dtype=complex))
    local[1, 2] = rho23
    local[2, 1] = np.conj(rho23)
    # cross-route sanity: the two closed forms must be basis changes of each
    # other, rho_local = V rho_energy V^T
    back = vectors[0] @ energy @ vectors[0].T
    mismatch = np.max(np.abs(back - local))
    if mismatch > 1e-12:
        raise AssertionError(f"analytic equilibrium bases disagree by {mismatch:.3g}")
    return EquilibriumState(energy=energy, local=local)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


PRESET_NAMES = ["fig2", "fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b",
                "fig5c", "fig6a", "fig6b", "fig6c", "fig7a", "fig7b", "fig7c",
                "fig8a", "fig8b", "fig9a", "fig9b"]


def load_preset_config(name: str) -> SweepConfig:
    ref = resources.files("steerlab.presets").joinpath(name + ".json")
    cfg = json.loads(ref.read_text())
    s, r, sw = cfg["system"], cfg["reservoirs"], cfg["sweep"]
    return SweepConfig(
        axis_x=Axis(sw["axis_x"]), x_range=tuple(sw["x_range"]), nx=sw["nx"],
        axis_y=Axis(sw["axis_y"]), y_range=tuple(sw["y_range"]), ny=sw["ny"],
        system=sl.SystemParams(s["eps_a"], s["eps_b"], s["kappa"], s["gamma"]),
        statistics=Statistics(r["statistics"]),
        t_a=r["ta"], t_b=r["tb"], mu_a=r.get("mua", 0.0), mu_b=r.get("mub", 0.0),
    )


def assert_cells_equal(got: sl.Cells, want: sl.Cells) -> None:
    """got and want agree in the dtype, shape and bits of every field."""
    for f in fields(sl.Cells):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "statistics":
            assert a is b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name


def compose_oracle(cfg: SweepConfig, x, y):
    """(kappa, t_a, t_b, mu_a, mu_b) at x and y of cfg's grid, elementwise over
    arrays: one branch per axis, level axes first and difference axes second,
    independent of analysis.AXIS_PARAMS."""
    kappa = cfg.system.kappa
    t_a, t_b, mu_a, mu_b = cfg.t_a, cfg.t_b, cfg.mu_a, cfg.mu_b
    pairs = sorted([(cfg.axis_x, x), (cfg.axis_y, y)],
                   key=lambda p: p[0] in (Axis.DELTA_T, Axis.DELTA_MU))
    for axis, v in pairs:
        if axis is Axis.KAPPA:
            kappa = v
        elif axis is Axis.TBAR:
            t_a = t_b = v
        elif axis is Axis.DELTA_T:
            mean = 0.5 * (t_a + t_b)
            t_a, t_b = mean - 0.5 * v, mean + 0.5 * v
        elif axis is Axis.TA:
            t_a = v
        elif axis is Axis.TB:
            t_b = v
        elif axis is Axis.MUBAR:
            mu_a = mu_b = v
        elif axis is Axis.DELTA_MU:
            mean = 0.5 * (mu_a + mu_b)
            mu_a, mu_b = mean - 0.5 * v, mean + 0.5 * v
        elif axis is Axis.MUA:
            mu_a = v
        else:
            mu_b = v
    return kappa, t_a, t_b, mu_a, mu_b


def grid_point(cfg: SweepConfig, x: float, y: float):
    """(system, ra, rb) of the point at x and y of cfg's grid, composed by
    compose_oracle."""
    kappa, t_a, t_b, mu_a, mu_b = compose_oracle(cfg, x, y)
    return (cfg.system._replace(kappa=kappa), sl.ReservoirSpec(cfg.statistics, t_a, mu_a),
            sl.ReservoirSpec(cfg.statistics, t_b, mu_b))


def grid_row(cfg: SweepConfig, iy: int) -> sl.Cells:
    """Row iy of cfg's grid, a slice of its row-major cell axis."""
    return cfg.grid[iy * cfg.nx:(iy + 1) * cfg.nx]


def assert_rows_equal_points(cfg: SweepConfig, rows) -> None:
    """Grid row iy of cfg, for each iy in rows, equals the Cells.of of its
    points in the dtype, shape and bits of every field."""
    xs, ys = cfg.x_values().tolist(), cfg.y_values().tolist()
    for iy in rows:
        assert_cells_equal(grid_row(cfg, iy),
                           sl.Cells.of([grid_point(cfg, x, ys[iy]) for x in xs]))


# entanglement_boundary_fit: largest |T_A - T_B| of a fitted point, relative
# to the mean temperature
BOUNDARY_BAND = 0.25


class BoundaryFit(NamedTuple):
    """Straight-line fit T_A + T_B = c of the entanglement boundary."""

    found: bool
    c_fitted: float | None
    c_predicted: float
    rel_deviation: float | None
    n_points: int
    spread: float | None


def entanglement_boundary_fit(m: RegionMap) -> BoundaryFit:
    """Fit the entanglement boundary on a TA x TB map near the diagonal (the
    paper's T_A + T_B = 2 kappa / ENT_COEFF, checked by fig8a).

    Boundary points are margin_ent sign changes between adjacent cells,
    refined by analysis._bisect in T_A to 1e-4 of the axis range; only points
    with |T_A - T_B| below BOUNDARY_BAND times the mean enter the fit.  The
    prediction is kappa / ln(1+sqrt(2)).
    """
    if not (m.config.axis_x is Axis.TA and m.config.axis_y is Axis.TB):
        raise ValueError("boundary fit expects axis_x=TA, axis_y=TB")
    c_pred = 2.0 * m.config.system.kappa / ENT_COEFF
    xs = m.config.x_values()
    cell_w = xs[1] - xs[0]
    refine_tol = 1e-4 * (m.config.x_range[1] - m.config.x_range[0])
    margins = m.columns["margin_ent"].reshape(m.config.ny, m.config.nx).tolist()
    sums = []
    for y, row in zip(m.config.y_values(), margins):
        for ix in range(m.config.nx - 1):
            a, b = row[ix], row[ix + 1]
            if (a > 0) == (b > 0):
                continue
            frac = a / (a - b)
            x_est = xs[ix] + frac * (xs[ix + 1] - xs[ix])
            if abs(x_est - y) > BOUNDARY_BAND * 0.5 * (x_est + y) + cell_w:
                continue
            lo, hi, _, _ = analysis._bisect(
                lambda points: analysis._margins(m.config.cells(np.array(points), y),
                                                 Criterion.ENTANGLEMENT),
                float(xs[ix]), float(xs[ix + 1]), a, b, refine_tol)
            x_cross = 0.5 * (lo + hi)
            if abs(x_cross - y) <= BOUNDARY_BAND * 0.5 * (x_cross + y):
                sums.append(x_cross + y)
    if not sums:
        return BoundaryFit(False, None, c_pred, None, 0, None)
    c_fit = float(np.mean(sums))
    return BoundaryFit(
        found=True,
        c_fitted=c_fit,
        c_predicted=c_pred,
        rel_deviation=abs(c_fit - c_pred) / c_pred,
        n_points=len(sums),
        spread=float(np.std(sums)),
    )


# one grid cell in the FIELDS columns: %.17g floats, 0/1 flags
CSV_ROW = "%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


def csv_text_oracle(columns: dict[str, np.ndarray]) -> str:
    """The former sweep CSV writer, one %-format of all 13 fields per row."""
    rows = zip(*(col.tolist() for col in columns.values()))
    return "".join([",".join(FIELDS) + "\n"] + [CSV_ROW % row for row in rows])


def state_entries_oracle(v: np.ndarray, x: np.ndarray) -> tuple[list, list]:
    """The former point-report states: the energy-basis state of the six
    entries v by from_vector6 and the local-basis state of the X entries x
    summed as rho + rho^H + diag(populations) in complex arithmetic, each
    split into [re, im] pairs by np.stack."""
    local = np.zeros((4, 4), dtype=complex)
    local[[1, 0], [2, 3]] = x[4:]
    local = local + local.conj().T + np.diag(x[:4].real)
    return tuple(np.stack([m.real, m.imag], axis=-1).tolist()
                 for m in (from_vector6(v), local))


def gather_block(cfg: SweepConfig, start: int, size: int) -> sl.Cells:
    """The cells start to start+size-1 of cfg's grid in row-major order,
    gathered by their indices: a copy of every field, as the former sweep2d
    blocks were."""
    return cfg.grid[np.arange(start, start + size)]


def bose_where_oracle(x: np.ndarray) -> np.ndarray:
    """The former Bose occupations of scaled energies x: exp(-x) above 700
    and 1/expm1(x) at or below it, chosen elementwise by np.where."""
    return np.where(x > 700.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 700.0)))


def eigen_weights_oracle(theta: np.ndarray) -> np.ndarray:
    """The former model.eigen_weights: 1, cos(theta/2) and sin(theta/2) joined
    by np.stack, (..., 3)."""
    return np.stack([np.ones_like(theta), np.cos(0.5 * theta), np.sin(0.5 * theta)], axis=-1)


# --------------------------------------------------------------------------
# classify_oracle: the former classify, which took each X entry as its own
# (N,) array (an XState) and classified column by column.  Its helpers are
# those of that version with an _oracle prefix; their bodies are unchanged.
# --------------------------------------------------------------------------

_ORACLE_DEPOL = 1.0 / math.sqrt(3.0)
_ORACLE_MAP_DIAGONALS = np.hstack([np.eye(4)] + [
    _ORACLE_DEPOL * np.eye(4) + 0.5 * (3.0 - math.sqrt(3.0)) / 3.0 * np.kron(*pair)
    for pair in ((np.ones((2, 2)), np.eye(2)), (np.eye(2), np.ones((2, 2))))])
_ORACLE_COHERENCE_SCALE = np.array([1.0, _ORACLE_DEPOL, _ORACLE_DEPOL])


class OracleXState(NamedTuple):
    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho23: float
    rho14: float


class OracleClassification(NamedTuple):
    """The former Classification: the fields of today's, without checked."""

    entangled: np.ndarray
    margin_ent: np.ndarray
    steer_a_to_b: np.ndarray
    margin_ab: np.ndarray
    steer_b_to_a: np.ndarray
    margin_ba: np.ndarray
    bell: np.ndarray
    margin_bell: np.ndarray
    method: Method
    fault: np.ndarray


def _oracle_xstate_fault(x) -> np.ndarray:
    r23, r14 = abs(x.rho23), abs(x.rho14)
    failed = (
        (x.rho11 < -1e-9) | (x.rho22 < -1e-9) | (x.rho33 < -1e-9) | (x.rho44 < -1e-9),
        abs(x.rho11 + x.rho22 + x.rho33 + x.rho44 - 1.0) > 1e-12,
        r23 * r23 > x.rho22 * x.rho33 + 1e-9,
        r14 * r14 > x.rho11 * x.rho44 + 1e-9,
    )
    fault = np.full(np.shape(failed[0]), -1)
    if np.count_nonzero(failed[0] | failed[1] | failed[2] | failed[3]):
        for code in reversed(range(len(failed))):
            fault = np.where(failed[code], code, fault)
    return fault


def _oracle_x_entries(x: np.ndarray) -> OracleXState:
    # [()] turns the entries of a single (6,) vector into numpy scalars
    pops, rho23, rho14 = x[..., :4].real, x[..., 4], x[..., 5]
    return OracleXState(pops[..., 0][()], pops[..., 1][()], pops[..., 2][()], pops[..., 3][()],
                        np.hypot(rho23.real, rho23.imag)[()], np.hypot(rho14.real, rho14.imag)[()])


def _oracle_ppt_margins(x: OracleXState) -> np.ndarray:
    pops = np.stack([x.rho11, x.rho22, x.rho33, x.rho44], axis=-1)
    d = (pops @ _ORACLE_MAP_DIAGONALS).reshape(pops.shape[:-1] + (3, 4))
    r23 = np.multiply.outer(abs(x.rho23), _ORACLE_COHERENCE_SCALE)
    r14 = np.multiply.outer(abs(x.rho14), _ORACLE_COHERENCE_SCALE)
    return -np.minimum(lower_eigenvalue(d[..., 0], d[..., 3], r23),
                       lower_eigenvalue(d[..., 1], d[..., 2], r14))


def _oracle_rho14_inert(x: OracleXState):
    r14 = abs(x.rho14)
    branch = r14 * r14 <= 1e-3 * x.rho22 * x.rho33 + 1e-18
    small = r14 <= np.maximum(0.01 * abs(x.rho23), 5e-3)
    return branch & small


def _oracle_closed_margins(x: OracleXState):
    r23 = abs(x.rho23)
    coh2 = r23 * r23
    # population functionals of the steering inequalities
    f_a = (
        (2 + math.sqrt(3)) / 2 * x.rho11 * x.rho44
        + (2 - math.sqrt(3)) / 2 * x.rho22 * x.rho33
        + 0.25 * (x.rho11 + x.rho44) * (x.rho22 + x.rho33)
    )
    f_b = 0.25 * (x.rho11 - x.rho44) * (x.rho22 - x.rho33)
    u = 2.0 * (x.rho22 + x.rho33) - 1.0
    bell = np.maximum(coh2 - 0.125, coh2 - (0.25 - 0.25 * u * u))
    return coh2 - x.rho11 * x.rho44, coh2 - (f_a + f_b), coh2 - (f_a - f_b), bell


def _oracle_check_hierarchy(entangled, steer_a_to_b, steer_b_to_a, bell) -> None:
    if np.count_nonzero(bell > (steer_a_to_b & steer_b_to_a)):
        raise InternalConsistencyError(
            "hierarchy violated: Bell nonlocal but not two-way steerable"
        )
    if np.count_nonzero((steer_a_to_b | steer_b_to_a) > entangled):
        raise InternalConsistencyError(
            "hierarchy violated: steerable but not entangled"
        )


def classify_oracle(x: np.ndarray, dual: bool = True) -> OracleClassification:
    """The former correlations.classify of the X entries (..., 6)."""
    x = _oracle_x_entries(x)
    fault = _oracle_xstate_fault(x)
    closed = (fault < 0) & _oracle_rho14_inert(x)
    # the block test alone where the closed form does not apply; a faulty
    # state gets no verdict
    run = (fault < 0) & ~closed
    margins = list(_oracle_closed_margins(x))
    flags = [c > MARGIN_TOL for c in margins]
    general = _oracle_ppt_margins(x) if dual or np.count_nonzero(~closed) else None
    if np.count_nonzero(~closed):
        for k in range(3):
            g = np.where(run, general[..., k], np.nan)
            flags[k] = np.where(closed, flags[k], g > PPT_TOL)
            margins[k] = np.where(closed, margins[k], g)
        flags[3] = closed & flags[3]
        margins[3] = np.where(closed, margins[3], np.nan)
    if dual:
        _oracle_cross_check(closed, margins, general)
    _oracle_check_hierarchy(*flags)
    if np.count_nonzero(run):
        method = Method.GENERAL_PPT
    else:
        method = Method.BOTH if dual else Method.X_CLOSED_FORM
    return OracleClassification(flags[0], margins[0], flags[1], margins[1], flags[2], margins[2],
                                flags[3], margins[3], method, fault)


def _oracle_cross_check(closed: np.ndarray, closed_margins, general: np.ndarray) -> None:
    for k, name in enumerate(("entanglement", "steering A->B", "steering B->A")):
        c, g = closed_margins[k], general[..., k][()]
        # the entanglement margins are on different scales; only the
        # closed-form one is tested against the 1e-9 band
        sure = abs(c) > 1e-9 if k == 0 else (abs(c) > 1e-9) & (abs(g) > 1e-9)
        bad = closed & ((c > MARGIN_TOL) != (g > PPT_TOL)) & sure
        if np.count_nonzero(bad):
            i = np.argmax(np.reshape(bad, -1))
            c, g = np.reshape(c, -1)[i], np.reshape(g, -1)[i]
            raise InternalConsistencyError(
                f"{name}: closed form says {bool(c > MARGIN_TOL)} (margin {c:.3g}), "
                f"general route says {bool(g > PPT_TOL)}"
            )


def assert_same_classification(got, want) -> None:
    """got (a Classification) and want (an OracleClassification) agree bit
    for bit in all ten fields of want: the same method, and arrays of the
    same dtype and shape with nan at the same places and the same bytes
    elsewhere."""
    assert got.method is want.method
    for name in OracleClassification._fields:
        if name == "method":
            continue
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        nan = np.isnan(b) if b.dtype.kind == "f" else np.zeros(b.shape, dtype=bool)
        if b.dtype.kind == "f":
            assert np.array_equal(np.isnan(a), nan), name
        assert a[~nan].tobytes() == b[~nan].tobytes(), name
