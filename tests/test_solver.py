"""Flow solver: conservation, positivity, the sup bound, and the exact oracle."""

import math
from pathlib import Path

import numpy as np
import pytest

from entroflow import (
    DataPoint,
    Dataset,
    ScalarField,
    SolverConfig,
    SolverDiagnosticError,
    arctan_sigmoid,
    build_grid,
    build_potential,
    constant_field,
    init_state,
    integrate,
    load_config,
    normalize_gibbs,
    ou_relative_density,
    saturating_squared_loss,
    step,
    evolve,
)
from entroflow.solver import Stepper, solver_backend

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# unequal node counts and off-center boxes, so no two axes share a basis
ANISOTROPIC = [((9, 13), (-4.0, -5.0), (5.0, 3.0)),
               ((7, 9, 11), (-4.0, -3.0, -5.0), (3.0, 5.0, 4.0))]


@pytest.fixture(scope="module")
def ou_gibbs():
    g = build_grid(1, -6, 6, 401)
    return normalize_gibbs(build_potential(None, None, None, 1.0, 1.0, g))


@pytest.fixture(scope="module")
def coarse_gibbs():
    g = build_grid(1, -6, 6, 101)
    return normalize_gibbs(build_potential(None, None, None, 1.0, 1.0, g))


def weighted_mass(state):
    op = state.gibbs.operator()
    return op.inner(state.w.values, np.ones_like(state.w.values))


class TestInitState:
    def test_constant_rescales_to_inverse_mass(self, coarse_gibbs):
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 3.7))
        np.testing.assert_allclose(state.w.values, 1.0, rtol=1e-12)
        assert state.t == 0.0

    def test_shifted_gaussian_mass_exactly_one(self, coarse_gibbs):
        w0 = ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0)
        state = init_state(coarse_gibbs, w0)
        assert weighted_mass(state) == pytest.approx(1.0, abs=1e-14)

    def test_negative_entry_rejected(self, coarse_gibbs):
        vals = np.ones(coarse_gibbs.grid.num_nodes)
        vals[3] = -1e-3
        with pytest.raises(ValueError):
            init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, vals))

    def test_zero_mass_rejected(self, coarse_gibbs):
        with pytest.raises(ValueError):
            init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 0.0))


class TestStep:
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_equilibrium_is_stationary(self, coarse_gibbs, scheme):
        """The unit density is a fixed point: constants are in the kernel."""
        cfg = SolverConfig(dt=1e-2, t_final=1.0, scheme=scheme)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        for _ in range(5):
            state = step(state, cfg)
        np.testing.assert_allclose(state.w.values, 1.0, rtol=0, atol=1e-12)

    def test_mass_conserved_over_thousand_steps(self, coarse_gibbs):
        cfg = SolverConfig(dt=1e-3, t_final=1.0)
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        for _ in range(1000):
            state = step(state, cfg)
        assert abs(weighted_mass(state) - 1.0) <= 1e-8

    def test_positivity_and_sup_bound(self, coarse_gibbs):
        """Implicit Euler keeps w nonnegative and contracts its range."""
        rng = np.random.default_rng(19)
        bumps = np.exp(rng.normal(scale=1.5, size=coarse_gibbs.grid.num_nodes))
        state = init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, bumps))
        cfg = SolverConfig(dt=5e-3, t_final=1.0)
        prev_max = np.max(state.w.values)
        prev_min = np.min(state.w.values)
        for _ in range(100):
            state = step(state, cfg)
            cur_max = np.max(state.w.values)
            cur_min = np.min(state.w.values)
            assert cur_min >= -1e-12
            assert cur_max <= prev_max * (1 + 1e-10)
            assert cur_min >= prev_min * (1 - 1e-10) - 1e-12
            prev_max, prev_min = cur_max, cur_min

    def test_mean_tracks_exact_solution(self, ou_gibbs):
        """Grid mean of the evolved measure against the contraction oracle."""
        cfg = SolverConfig(dt=1e-3, t_final=1.0)
        state = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        state, n = evolve(state, cfg)
        assert n == 1000
        x = ou_gibbs.grid.nodes[:, 0]
        mean = integrate(ScalarField(ou_gibbs.grid, x * state.w.values), weight=ou_gibbs.gamma)
        assert mean == pytest.approx(0.5 * math.exp(-1.0), rel=1e-2)

    def test_nonconvergence_diagnostic(self, coarse_gibbs):
        cfg = SolverConfig(dt=50.0, t_final=100.0, linear_tol=1e-14, max_linear_iters=1)
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        with pytest.raises(SolverDiagnosticError) as exc_info:
            step(state, cfg)
        assert exc_info.value.residual > 0


class TestEvolve:
    def test_zero_horizon_calls_observer_once(self, coarse_gibbs):
        cfg = SolverConfig(dt=1e-3, t_final=0.0)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        times = []
        final, n = evolve(state, cfg, observer=lambda t, w: times.append(t))
        assert times == [0.0]
        assert n == 0
        assert np.array_equal(final.w.values, state.w.values)

    def test_observer_cadence(self, coarse_gibbs):
        cfg = SolverConfig(dt=1e-2, t_final=1.0, record_every=7)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        times = []
        _, n = evolve(state, cfg, observer=lambda t, w: times.append(t))
        assert n == 100
        # t=0, every 7th step, plus the final step
        expected = 1 + 100 // 7 + 1
        assert len(times) == expected
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)

    def test_observer_cadence_divides_evenly(self, coarse_gibbs):
        """The final record is not duplicated when the cadence divides the steps."""
        cfg = SolverConfig(dt=1e-2, t_final=1.0, record_every=10)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        times = []
        evolve(state, cfg, observer=lambda t, w: times.append(t))
        assert len(times) == 11
        assert len(set(times)) == len(times)

    def test_fractional_final_step(self, coarse_gibbs):
        cfg = SolverConfig(dt=3e-3, t_final=0.01)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        final, n = evolve(state, cfg)
        assert n == 4
        assert final.t == pytest.approx(0.01)


class TestCrankNicolson:
    def test_warns_on_undershoot(self, coarse_gibbs):
        """A spike with a large step makes the trapezoidal update oscillate
        below zero, which must be reported."""
        vals = np.zeros(coarse_gibbs.grid.num_nodes)
        vals[50] = 1.0
        state = init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, vals))
        cfg = SolverConfig(dt=0.5, t_final=1.0, scheme="crank-nicolson")
        with pytest.warns(RuntimeWarning, match="crank-nicolson"):
            step(state, cfg)

    def test_smooth_data_stays_positive(self, coarse_gibbs):
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        cfg = SolverConfig(dt=1e-2, t_final=0.1, scheme="crank-nicolson")
        final, _ = evolve(state, cfg)
        assert np.min(final.w.values) > 0


class TestThreeDimensions:
    def test_flow_conserves_in_3d(self):
        g = build_grid(3, -4, 4, 17)
        gibbs = normalize_gibbs(build_potential(None, None, None, 1.0, 1.0, g))
        state = init_state(gibbs, ou_relative_density(g, 0.3, 1.0, 1.0, 0.0))
        sup0 = np.max(state.w.values)
        final, n = evolve(state, SolverConfig(dt=5e-3, t_final=0.05))
        assert n == 10
        assert abs(weighted_mass(final) - 1.0) <= 1e-8
        assert np.min(final.w.values) >= 0
        assert np.max(final.w.values) <= sup0 * (1 + 1e-10)


def gaussian_gibbs(n, lo, hi, lam=1.0, tau=1.0):
    g = build_grid(len(n), lo, hi, n)
    return normalize_gibbs(build_potential(None, None, None, lam, tau, g))


class TestFastDiagonalization:
    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("n,lo,hi", ANISOTROPIC)
    def test_matches_dense_solve(self, n, lo, hi, scheme):
        """Two full steps and a remainder step against dense solves of the step system.

        The random density is rough, so Crank-Nicolson undershoots zero here
        (and warns); the comparison holds all the same.
        """
        gibbs = gaussian_gibbs(n, lo, hi, lam=2.0, tau=0.7)
        op = gibbs.operator()
        assert solver_backend(op) == "fastdiag"
        d, stiff = op.node_mass, op.stiffness.toarray()
        w0 = np.exp(np.random.default_rng(5).normal(size=op.grid.num_nodes))
        cfg = SolverConfig(dt=1e-2, t_final=0.025, scheme=scheme)
        ref = w0
        for dt in (1e-2, 1e-2, 0.5e-2):
            coef = dt if scheme == "implicit-euler" else 0.5 * dt
            rhs = d * ref if scheme == "implicit-euler" else d * ref - coef * (stiff @ ref)
            ref = np.linalg.solve(np.diag(d) + coef * stiff, rhs)
        final, n_steps = evolve(init_state(gibbs, ScalarField(op.grid, w0)), cfg)
        ref /= op.inner(w0, np.ones_like(w0))  # init_state scales to unit mass
        assert n_steps == 3
        assert np.max(np.abs(final.w.values - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_mass_drift_3d(self, scheme):
        gibbs = gaussian_gibbs((17, 17, 17), -6.0, 6.0)
        op = gibbs.operator()
        state = init_state(gibbs, ou_relative_density(op.grid, 0.5, 1.0, 1.0, 0.0))
        masses = []
        _, n_steps = evolve(state, SolverConfig(dt=1e-2, t_final=5.0, scheme=scheme, record_every=1),
                            observer=lambda t, w: masses.append(op.inner(w.values, np.ones_like(w.values))))
        assert n_steps == 500
        assert max(abs(m - 1.0) for m in masses) <= 1e-12

    def test_crank_nicolson_warns_on_3d_spike(self):
        gibbs = gaussian_gibbs((13, 13, 13), -4.0, 4.0)
        vals = np.zeros(gibbs.grid.num_nodes)
        vals[gibbs.grid.num_nodes // 2] = 1.0
        state = init_state(gibbs, ScalarField(gibbs.grid, vals))
        with pytest.warns(RuntimeWarning, match="crank-nicolson"):
            step(state, SolverConfig(dt=0.5, t_final=1.0, scheme="crank-nicolson"))


class TestBackendSelection:
    @pytest.mark.parametrize("n,lo,hi", ANISOTROPIC)
    def test_gaussian_weights_take_fast_diagonalization(self, n, lo, hi):
        assert solver_backend(gaussian_gibbs(n, lo, hi).operator()) == "fastdiag"

    def test_dataset_weight_takes_pcg(self):
        gibbs = load_config(CONFIGS / "atoms2d.toml").build_gibbs()
        assert solver_backend(gibbs.operator()) == "pcg"

    def test_one_dimensional_weights_take_pcg(self, coarse_gibbs):
        data = Dataset(points=(DataPoint(z=(), y=0.3, weight=1.0),))
        g = coarse_gibbs.grid
        with_data = build_potential(data, saturating_squared_loss(), arctan_sigmoid(), 1.0, 1.0, g)
        for gibbs in (coarse_gibbs, with_data):
            op = gibbs.operator()
            assert solver_backend(op) == "pcg"
            assert Stepper(op, 1e-2, SolverConfig(dt=1e-2, t_final=1.0)).backend == "pcg"


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_final=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_final=1.0, scheme="leapfrog")
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, t_final=1.0, linear_tol=0.0)
