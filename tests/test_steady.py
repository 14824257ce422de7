import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steerlab as sl
from steerlab.analysis import pipeline
from steerlab.cli import EXIT_INTERNAL, main
from steerlab.errors import (ConfigurationError, DegenerateSteadyStateError,
                             InternalConsistencyError)
from steerlab.generator import dense
from steerlab.rates import Statistics
from steerlab.steady import COND_MAX, NULL_TOL, min_eigenvalue_energy, steady_state

from conftest import (
    X_PATTERN,
    Phase,
    batches,
    columns,
    dense_local,
    equilibrium_analytic,
    from_vector6,
    gamma_warning_ignored,
    gibbs_local,
    hermitize_vector6,
    max_stable_dt,
    one_cell,
    random_system,
    rates,
    x_vector,
)

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def make(p, ta, tb, stat=BOSE, mua=0.0, mub=0.0):
    """One-cell generator and steady state."""
    return one_cell(p, sl.ReservoirSpec(stat, ta, mua), sl.ReservoirSpec(stat, tb, mub))


def energy_state(ss) -> np.ndarray:
    """The energy-basis state of a one-cell steady state."""
    return from_vector6(ss.vector6[0])


class TestSteadyState:
    def test_equilibrium_matches_analytic_weak_bose(self):
        p = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        g, ss = make(p, 0.5, 0.5)
        ana = equilibrium_analytic(p, sl.ReservoirSpec(BOSE, 0.5))
        assert np.max(np.abs(ss.local_x[0] - x_vector(ana.local))) < 1e-10
        assert np.max(np.abs(from_vector6(ss.vector6[0]) - ana.energy)) < 1e-10
        assert ss.residual[0] < 1e-10 and ss.positive[0]

    def test_symmetric_equilibrium_population_symmetry(self):
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.01)
        _, ss = make(p, 0.5, 0.5)
        x = ss.local_x[0]
        assert x[1].real == pytest.approx(x[2].real, abs=1e-14)

    def test_nonequilibrium_coherence_grows_from_zero(self):
        p = sl.SystemParams(1.1, 0.9, 1.0, 0.01)
        cohs = []
        for dt in (0.0, 0.05, 0.1, 0.2):
            _, ss = make(p, 0.5 - dt / 2, 0.5 + dt / 2)
            cohs.append(abs(ss.vector6[0, 4]))
        assert cohs[0] < 1e-12
        assert all(a < b for a, b in zip(cohs, cohs[1:]))

    def test_population_gamma_independence_equilibrium(self):
        # block decoupling makes equilibrium populations exactly gamma-free
        base = dict(eps_a=1.4, eps_b=0.6, kappa=1.0)
        pops = []
        for gamma in (0.01, 0.001):
            p = sl.SystemParams(**base, gamma=gamma)
            _, ss = make(p, 0.5, 0.5)
            pops.append(ss.vector6[0, :4].real)
        assert np.max(np.abs(pops[0] - pops[1])) < 1e-10

    def test_population_gamma_dependence_is_second_order(self):
        # out of equilibrium the coherence feedback shifts populations at
        # O(gamma^2): differences shrink quadratically under gamma -> gamma/10
        base = dict(eps_a=1.4, eps_b=0.6, kappa=1.0)
        pops = {}
        for gamma in (0.01, 0.001, 0.0001):
            p = sl.SystemParams(**base, gamma=gamma)
            _, ss = make(p, 0.4, 0.7)
            pops[gamma] = ss.vector6[0, :4].real
        d1 = np.max(np.abs(pops[0.01] - pops[0.001]))
        d2 = np.max(np.abs(pops[0.001] - pops[0.0001]))
        assert d1 < 1e-4
        assert d2 < 1e-6
        assert d2 < 0.05 * d1

    def test_fermionic_coherence_closed_form(self):
        # fermionic steady coherence is (s_B - s_A) / (2 gamma - i Omega):
        # the coherence row couples to the unit population sum only
        p = sl.SystemParams(1.2, 0.8, 0.6, 0.01)
        g, ss = make(p, 0.15, 0.15, FERMI, mua=0.4, mub=1.3)
        rs = rates(p, sl.ReservoirSpec(FERMI, 0.15, 0.4), sl.ReservoirSpec(FERMI, 0.15, 1.3))
        omega = 2 * g.cells.omega[0]
        expected = (rs.s_b - rs.s_a) / (2 * p.gamma - 1j * omega)
        assert ss.vector6[0, 4] == pytest.approx(expected, rel=1e-10)

    def test_all_setups_match_gibbs(self, rng):
        for phase, stat in ((Phase.WEAK, BOSE), (Phase.STRONG, BOSE), (Phase.WEAK, FERMI)):
            p = random_system(rng, phase)
            t = rng.uniform(0.2, 1.5)
            mu = rng.uniform(-0.5, 2.0) if stat is FERMI else 0.0
            g, ss = make(p, t, t, stat, mu, mu)
            oracle = gibbs_local(p, 1.0 / t, mu)
            assert np.max(np.abs(ss.local_x[0] - x_vector(oracle))) < 1e-10


class TestLocalX:
    """local_x, the real linear map of vector6, against the dense oracle
    V from_vector6(v) V^dagger."""

    @settings(max_examples=60, deadline=None)
    @given(g=batches())
    def test_matches_dense_oracle(self, g):
        s = steady_state(g)
        local = dense_local(s.vector6, columns(g))
        assert np.count_nonzero(local[:, ~X_PATTERN]) == 0
        assert np.max(np.abs(s.local_x - x_vector(local))) <= 1e-15

    @pytest.mark.parametrize("params,stat,a,b", [
        ((1.0, 1.0, 3.0), BOSE, (0.4, 0.0), (0.6, 0.0)),
        ((1.3, 0.7, 1.0), BOSE, (0.45, 0.0), (0.65, 0.0)),
        ((1.2, 0.8, 0.6), FERMI, (0.15, 0.4), (0.15, 1.3)),
    ], ids=["strong-bose", "weak-bose", "weak-fermi"])
    def test_report_local_state(self, params, stat, a, b, capsys):
        # the steady report builds the only dense states of the program
        eps_a, eps_b, kappa = params
        assert main(["steady", f"--stat={stat.value}", f"--eps-a={eps_a}", f"--eps-b={eps_b}",
                     f"--kappa={kappa}", "--gamma=0.01", f"--ta={a[0]}", f"--mua={a[1]}",
                     f"--tb={b[0]}", f"--mub={b[1]}"]) == 0
        rep = json.loads(capsys.readouterr().out)
        local = np.array(rep["state_local_basis"]) @ [1, 1j]
        g, ss = make(sl.SystemParams(*params, 0.01), a[0], b[0], stat, a[1], b[1])
        energy = np.array(rep["state_energy_basis"]) @ [1, 1j]
        assert np.array_equal(energy, from_vector6(ss.vector6[0]))
        assert np.array_equal(local, local.conj().T)
        assert np.count_nonzero(local[~X_PATTERN]) == 0
        assert np.max(np.abs(local - dense_local(ss.vector6[0], dense(g)[1]))) <= 1e-15


def exact_null_vector(total: np.ndarray) -> np.ndarray:
    """The bordered 6x6 solve of one generator in exact rational arithmetic
    from its float64 entries, rounded once: row 0 replaced by the trace row
    (1,1,1,1,0,0), solved for e_0 as the real 12x12 system [[Re, -Im], [Im,
    Re]] by Gauss-Jordan elimination over fractions.Fraction."""
    m = np.array(total, dtype=complex)
    m[0] = [1, 1, 1, 1, 0, 0]
    real = np.block([[m.real, -m.imag], [m.imag, m.real]]).tolist()
    a = [[Fraction(x) for x in row] + [Fraction(i == 0)] for i, row in enumerate(real)]
    for k in range(12):
        pivot = next(i for i in range(k, 12) if a[i][k] != 0)
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(12):
            if i != k and a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x = np.array([float(row[12] / row[k]) for k, row in enumerate(a)])
    return x[:6] + 1j * x[6:]


@st.composite
def generators(draw):
    """Generators of all three setups over the ranges the presets use and beyond."""
    setup = draw(st.sampled_from(["weak-bose", "weak-fermi", "strong-bose"]))
    eps_b = draw(st.floats(0.3, 1.5))
    eps_a = eps_b * draw(st.floats(1.0, 3.0))
    boundary = 2.0 * math.sqrt(eps_a * eps_b)
    ratio = draw(st.floats(1.1, 2.5) if setup == "strong-bose" else st.floats(0.1, 0.9))
    gamma = draw(st.floats(5e-3, 0.05))
    stat = FERMI if setup == "weak-fermi" else BOSE
    ta, tb = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    mua, mub = (draw(st.floats(-0.5, 2.0)), draw(st.floats(-0.5, 2.0))) if stat is FERMI \
        else (0.0, 0.0)
    p = sl.SystemParams(eps_a, eps_b, ratio * boundary, gamma)
    with gamma_warning_ignored():
        cells = sl.Cells.of([(p, sl.ReservoirSpec(stat, ta, mua), sl.ReservoirSpec(stat, tb, mub))])
    return sl.build_generator(cells)


# a strong-bose corner cell (eps 0.3046875, kappa 1.1 times the crossing, gamma
# 0.046875, T 1.5/1.0) where the former np.linalg.eig oracle was 1.31e-13 off the
# exact solve, and the bordered solve 1.24e-14
with gamma_warning_ignored():
    EIG_OFF_CELL = sl.build_generator(sl.Cells.of([
        (sl.SystemParams(0.3046875, 0.3046875, 1.1 * 0.609375, 0.046875),
         sl.ReservoirSpec(BOSE, 1.5), sl.ReservoirSpec(BOSE, 1.0))]))


class TestBorderedSolve:
    @settings(max_examples=150, deadline=None)
    @given(g=generators())
    @example(g=EIG_OFF_CELL)
    def test_matches_exact_solve(self, g):
        s = steady_state(g)
        assert np.max(np.abs(s.vector6[0] - exact_null_vector(dense(g)[0]))) <= 1e-13
        # |det| over the Hadamard bound: 3.6e-4 at its smallest over these ranges,
        # at the corner eps_a = eps_b = 0.3, kappa 1.1 times the crossing,
        # gamma = 0.05 and T = 2, where one transition is 20 times faster
        assert s.null_ratio[0] >= 1e-4

    @settings(max_examples=150, deadline=None)
    @given(g=generators())
    def test_closed_form_min_eigenvalue(self, g):
        s = steady_state(g)
        assert abs(s.min_eigenvalue[0] - np.linalg.eigvalsh(from_vector6(s.vector6))[0, 0]) <= 1e-14

    def test_closed_form_min_eigenvalue_of_non_positive_states(self, rng):
        v = rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))
        v = hermitize_vector6(v)
        expected = np.linalg.eigvalsh(from_vector6(v))[:, 0]
        assert np.max(np.abs(min_eigenvalue_energy(v) - expected)) <= 1e-14
        assert (expected < 0).any()

    def test_two_dimensional_null_space_rejected(self):
        g, _ = make(sl.SystemParams(1.2, 0.8, 1.0, 0.01), 0.4, 0.6)
        # two decoupled trace-preserving blocks: populations {g, e1} and {e2, e3}
        m = np.zeros((5, 5))
        m[:2, :2] = [[-1.0, 2.0], [1.0, -2.0]]
        m[2:4, 2:4] = [[-3.0, 1.0], [3.0, -1.0]]
        m[4, 4] = -1.0
        with pytest.raises(DegenerateSteadyStateError, match="null space"):
            steady_state(g._replace(total=m[None]))

    @pytest.mark.parametrize("shape", [(2, 2), (20, 101)])
    def test_batch_of_other_shape_rejected(self, shape):
        # build_generator takes any leading cell axes; steady_state one
        kappa = np.linspace(0.5, 0.8, math.prod(shape)).reshape(shape)
        g = sl.build_generator(sl.Cells.build(1.0, 1.0, kappa, 0.01, 0.5, 0.5, 0.0, 0.0, BOSE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"got \({shape[0]}, {shape[1]}, 5, 5\)"):
                steady_state(g)

    def test_singular_bordered_matrix_exits_internal(self, monkeypatch, capsys):
        # a generator that is not trace preserving, P = -1 with the pair
        # decoupled: the bordered solve gives |g><g|, which is no null vector,
        # so the state fails the residual rule
        real = sl.build_generator

        def planted(*args):
            g = real(*args)
            return g._replace(total=-np.eye(5)[None])
        monkeypatch.setattr("steerlab.analysis.build_generator", planted)
        assert main(["steady"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal:") and captured.err.count("\n") == 1


class TestResidualTolerance:
    # rounding in M v grows with the entries of M, about gamma * T / eps here
    HOT = ["--kappa=2.5", "--ta=1e8"]

    def test_hot_reservoir_accepted(self, capsys):
        assert main(["steady", *self.HOT]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert 1e-10 < rep["residual"] < 1e-8   # reported as it is, absolute

    def test_hot_sweep_accepted(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["sweep", "--axis-x=kappa", "--x-min=2.5", "--x-max=3", "--nx=3",
                     "--axis-y=ta", "--y-min=0.5", "--y-max=2e8", "--ny=3",
                     f"--out={out}"]) == 0
        assert len(out.read_text().splitlines()) == 10

    @pytest.mark.parametrize("flags", [[], HOT], ids=["cold", "hot"])
    def test_wrong_solve_exits_internal(self, flags, monkeypatch, capsys):
        solve = np.linalg.solve

        def off_by_1e6(a, b):
            # the solve with its first population 1e-6 off, no longer a null vector
            return solve(a, b) + 1e-6 * np.eye(4, 1)
        monkeypatch.setattr(np.linalg, "solve", off_by_1e6)
        assert main(["steady", *flags]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: steady-state residual")


def exact_trajectory(m: np.ndarray, v0: np.ndarray, times) -> np.ndarray:
    """expm(M t) v0 of one 6x6 generator at each of the times, in 30-digit
    arithmetic from the same float64 M, v0 and t."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in m])
        x0 = mpmath.matrix([mpmath.mpc(complex(x)) for x in v0])
        return np.array([[complex(x) for x in mpmath.expm(a * mpmath.mpf(float(t))) * x0]
                         for t in times])


class TestExtremeScales:
    # entries of M far from 1: rates near gamma = 1e-100, a coherence
    # frequency near 2 kappa = 2e300
    @pytest.mark.parametrize("flags", [["--gamma=1e-100"], ["--kappa=1e300"]],
                             ids=["tiny-gamma", "huge-kappa"])
    def test_matches_exact_solve(self, flags, monkeypatch, capsys):
        solved = []

        def recording(g):
            solved.append((g, steady_state(g)))
            return solved[-1][1]
        monkeypatch.setattr("steerlab.analysis.steady_state", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["steady", *flags]) == 0
        [(g, s)] = solved
        assert np.max(np.abs(s.vector6[0] - exact_null_vector(dense(g)[0]))) <= 1e-15
        assert s.null_ratio[0] > NULL_TOL

    def test_underflowed_generator_exits_internal(self, capsys):
        # gamma = 1e-300: the product of the bordered row norms underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["steady", "--gamma=1e-300"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal: steady-state generator out of range: the Hadamard bound "
            "of its bordered population matrix is 0\n")


class TestEvolve:
    def test_steady_state_is_fixed_point(self):
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        g, ss = make(p, 0.4, 0.6)
        _, vectors = sl.evolve(g, energy_state(ss), t_final=50.0, dt=0.02)
        assert np.max(np.abs(vectors - ss.vector6[0])) < 1e-10

    def test_ground_state_converges_to_gibbs(self):
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.05)
        g, ss = make(p, 0.5, 0.5)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        v = dense(g)[1]
        # |00><00| of the local basis, in the energy basis V^T rho V
        _, vectors = sl.evolve(g, v.T @ m @ v, t_final=20 / 0.05, dt=0.02)
        final = dense_local(hermitize_vector6(vectors[-1]), v)
        assert np.max(np.abs(final - gibbs_local(p, 2.0))) < 1e-8
        assert np.max(np.abs(vectors[:, :4].real.sum(axis=1) - 1.0)) < 1e-10

    def test_large_dt_matches_exact_solution(self):
        # dt only spaces the output: dt = 10, 300 times 0.1/||M||_inf here, is
        # one exact step, shortened to t_final
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        g, _ = make(p, 0.4, 0.6)
        v0 = np.array([0.25, 0.25, 0.25, 0.25, 0, 0], dtype=complex)
        times, vectors = sl.evolve(g, np.eye(4, dtype=complex) / 4, t_final=1.0, dt=10.0)
        assert times.tolist() == [0.0, 1.0]
        assert np.max(np.abs(vectors - exact_trajectory(dense(g)[0], v0, times))) <= 1e-14

    def test_near_jordan_generator_rejected(self, monkeypatch, capsys):
        # a planted 2x2 block [[-1, 1], [1e-14, -1]] among the populations:
        # eigenvalues -1 +/- 1e-7 with eigenvectors (1, +/-1e-7), condition
        # number about 2e7; the library raises before building the trajectory
        # and the command exits 4 with one line
        g, _ = make(sl.SystemParams(1.0, 1.0, 3.0, 0.01), 0.4, 0.6)
        total = np.zeros_like(g.total)
        total[0, :2, :2] = [[-1.0, 1.0], [1e-14, -1.0]]
        planted = g._replace(total=total)
        assert np.linalg.cond(np.linalg.eig(dense(planted)[0])[1]) > 10 * COND_MAX
        with pytest.raises(InternalConsistencyError, match="condition number"):
            sl.evolve(planted, np.eye(4, dtype=complex) / 4, t_final=1.0, dt=0.1)
        def planting(cells):
            g, *rest = pipeline(cells)
            return (g._replace(total=total), *rest)
        monkeypatch.setattr("steerlab.cli.pipeline", planting)
        assert main(["evolve", "--t-final=1", "--dt=0.1"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: evolution matrix out of the "
                                       "propagator's range: eigenvector condition number")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("rho0,t_final,dt,message", [
        (np.eye(4) / 2, 1.0, 0.01, "trace must be 1"),
        (np.eye(3) / 3, 1.0, 0.01, "must be 4x4"),
        (np.eye(4) / 4, math.nan, 0.01, "positive and finite"),
        (np.eye(4) / 4, 1.0, math.inf, "positive and finite"),
    ])
    def test_rejects_bad_inputs(self, rho0, t_final, dt, message):
        # the library call holds the command's input rules
        g, _ = make(sl.SystemParams(1.0, 1.0, 3.0, 0.01), 0.4, 0.6)
        with pytest.raises(ValueError, match=message):
            sl.evolve(g, rho0, t_final=t_final, dt=dt)

    def test_coherent_only_unitary_limit(self):
        # zeroed dissipators: coherence rotates at Omega with constant modulus
        p = sl.SystemParams(1.3, 0.7, 1.0, 0.01)
        g, _ = make(p, 0.5, 0.5)
        omega = 2 * g.cells.omega[0]
        g0 = g._replace(total=np.zeros_like(g.total), parts=np.zeros_like(g.parts))
        assert np.array_equal(dense(g0)[0], np.diag([0, 0, 0, 0, 1j * omega, -1j * omega]))
        v0 = np.array([0.4, 0.3, 0.2, 0.1, 0.1 + 0.05j, 0.1 - 0.05j])
        times, vectors = sl.evolve(g0, from_vector6(v0), t_final=5.0, dt=0.01)
        mags = np.abs(vectors[:, 4])
        assert np.max(np.abs(mags - abs(v0[4]))) < 1e-9
        expected = v0[4] * np.exp(1j * omega * times[-1])
        assert vectors[-1, 4] == pytest.approx(expected, rel=1e-7)

    def test_projection_warns_on_unrepresentable_state(self):
        # |01><01| in the strong phase needs g<->e3 coherence
        p = sl.SystemParams(1.0, 1.0, 3.0, 0.01)
        g, _ = make(p, 0.5, 0.5)
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 1.0
        v = dense(g)[1]
        with pytest.warns(UserWarning, match="projecting"):
            sl.evolve(g, v.T @ m @ v, t_final=1.0, dt=0.01)

    def test_array_result_schema(self):
        # t_final not a multiple of dt: the last step is shortened to land on it
        p = sl.SystemParams(1.0, 1.0, 1.0, 0.01)
        g, ss = make(p, 0.5, 0.5)
        times, vectors = sl.evolve(g, energy_state(ss), t_final=0.12, dt=0.05)
        assert times.shape == (4,) and vectors.shape == (4, 6) and vectors.dtype == complex
        assert times.tolist() == [0.0, 0.05, 0.1, 0.1 + (0.12 - 0.1)]
        assert not times.flags.writeable and not vectors.flags.writeable

    @pytest.mark.parametrize("t_final", [0.12, 40.0, 100.01])
    def test_matches_stepwise_oracle(self, t_final):
        # every step of the trajectory against the 30-digit expm(M t) v0 at the
        # step's own time: 3, 800 and 2,001 steps, the last one 0.02, 0.05 and
        # 0.01 long; sampled at the first, middle and last two steps
        g, _ = make(sl.SystemParams(1.3, 0.7, 1.0, 0.02), 0.3, 0.9)
        v0 = np.array([0.4, 0.3, 0.2, 0.1, 0.1 + 0.05j, 0.1 - 0.05j])
        times, vectors = sl.evolve(g, from_vector6(v0), t_final=t_final, dt=0.05)
        steps = {0.12: 3, 40.0: 800, 100.01: 2001}[t_final]
        assert len(times) == steps + 1
        rows = [0, 1, steps // 2, steps - 1, steps]
        want = exact_trajectory(dense(g)[0], v0, times[rows])
        assert np.max(np.abs(vectors[rows] - want)) <= 1e-14

    @pytest.mark.parametrize("t_final", [1e-14, 1e-300, 0.05 * (1 - 1e-13), 0.12])
    def test_last_time_is_t_final(self, t_final):
        # a run shorter than 1e-12 steps takes one step, not none
        g, ss = make(sl.SystemParams(1.0, 1.0, 1.0, 0.01), 0.5, 0.5)
        times, vectors = sl.evolve(g, energy_state(ss), t_final=t_final, dt=0.05)
        assert len(times) >= 2 and times[-1] == t_final and len(vectors) == len(times)


class TestEquilibriumAnalytic:
    def test_zero_temperature_limits(self):
        p_weak = sl.SystemParams(1.5, 0.5, 1.0, 0.01)
        ana = equilibrium_analytic(p_weak, sl.ReservoirSpec(BOSE, 0.01))
        assert ana.local[0, 0].real == pytest.approx(1.0, abs=1e-10)

        p_strong = sl.SystemParams(1.5, 0.5, 3.0, 0.01)
        theta = math.atan2(p_strong.kappa, p_strong.eps_a - p_strong.eps_b)
        ana = equilibrium_analytic(p_strong, sl.ReservoirSpec(BOSE, 0.02))
        m = ana.local
        assert m[1, 2].real == pytest.approx(-math.sin(theta) / 2, abs=1e-9)
        assert m[1, 1].real == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-9)
        assert m[2, 2].real == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-9)

    def test_gibbs_oracle_all_setups(self, rng):
        for phase, stat, mu in ((Phase.WEAK, BOSE, 0.0), (Phase.STRONG, BOSE, 0.0),
                                (Phase.WEAK, FERMI, 0.9)):
            p = random_system(rng, phase)
            t = rng.uniform(0.2, 1.5)
            ana = equilibrium_analytic(p, sl.ReservoirSpec(stat, t, mu))
            assert np.max(np.abs(ana.local - gibbs_local(p, 1 / t, mu))) < 1e-10

    def test_strong_fermi_rejected(self):
        p = sl.SystemParams(1, 1, 3, 0.01)
        with pytest.raises(ConfigurationError):
            equilibrium_analytic(p, sl.ReservoirSpec(FERMI, 0.2, 1.0))


def test_long_time_evolution_matches_null_space(rng):
    p = random_system(rng, Phase.WEAK, gamma_range=(5e-3, 0.02))
    g, ss = make(p, 0.45, 0.65)
    dt = 0.9 * max_stable_dt(g)
    # I/4 is the same matrix in every basis
    _, vectors = sl.evolve(g, np.eye(4, dtype=complex) / 4, t_final=20 / p.gamma, dt=dt)
    assert np.max(np.abs(vectors[-1] - ss.vector6[0])) < 1e-8
