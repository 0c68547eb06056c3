"""Flow solver: conservation, positivity, the sup bound, and the exact oracle."""

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    Dataset,
    GibbsField,
    ScalarField,
    SolverConfig,
    SolverDiagnosticError,
    arctan_sigmoid,
    build_grid,
    build_potential,
    constant_field,
    fisher,
    init_state,
    integrate,
    load_config,
    make_shannon,
    ou_relative_density,
    resolve_config,
    saturating_squared_loss,
    evolve,
)
from entroflow.grid import WeightedOperator
from entroflow.potential import certified_envelope, default_box
from entroflow.solver import (
    CHEBYSHEV_DEGREES_PER_STEP,
    CHEBYSHEV_MAX_DEGREE,
    Stepper,
    _tridiagonal_scans,
    chebyshev_series,
    solver_backend,
    spectrum_bound,
)
from entroflow.verify import run_verification

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# unequal node counts and off-center boxes, so no two axes share a basis
ANISOTROPIC = [((9, 13), (-4.0, -5.0), (5.0, 3.0)),
               ((7, 9, 11), (-4.0, -3.0, -5.0), (3.0, 5.0, 4.0))]


@pytest.fixture(scope="module")
def ou_gibbs():
    g = build_grid(1, -6, 6, 401)
    return build_potential(None, None, None, 1.0, 1.0, g)


@pytest.fixture(scope="module")
def atoms9_gibbs():
    """The three-atom dataset weight on a 9x9 grid: 2-d and not a product, so it takes
    PCG with records of one step and the Chebyshev expansion with longer ones."""
    cfg = resolve_config({
        "dataset": "three_atoms.csv", "z_min": [-1.0], "z_max": [1.0], "y_min": 0.0,
        "y_max": 1.0, "lambda": 1.0, "tau": 1.0, "grid.dim": 2, "grid.lo": [-5.0, -5.0],
        "grid.hi": [5.0, 5.0], "grid.n": [9, 9], "solver.dt": 0.05, "solver.t_final": 0.6,
    }, base_dir=CONFIGS)
    return cfg.build_gibbs()


@pytest.fixture(scope="module")
def product2d_gibbs():
    """A Gaussian weight on an anisotropic 9x13 grid: a product, so it takes fast diagonalization."""
    return gaussian_gibbs(*ANISOTROPIC[0])


@pytest.fixture(scope="module")
def coarse_gibbs():
    g = build_grid(1, -6, 6, 101)
    return build_potential(None, None, None, 1.0, 1.0, g)


def weighted_mass(state):
    op = state.gibbs.operator()
    return op.inner(state.w.values, np.ones_like(state.w.values))


class TestInitState:
    def test_constant_rescales_to_inverse_mass(self, coarse_gibbs):
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 3.7))
        np.testing.assert_allclose(state.w.values, 1.0, rtol=1e-12)

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
        cfg = SolverConfig(dt=1e-2, t_final=0.05, scheme=scheme)
        state = init_state(coarse_gibbs, constant_field(coarse_gibbs.grid, 1.0))
        state, n = evolve(state, cfg)
        assert n == 5
        np.testing.assert_allclose(state.w.values, 1.0, rtol=0, atol=1e-12)

    def test_mass_conserved_over_thousand_steps(self, coarse_gibbs):
        cfg = SolverConfig(dt=1e-3, t_final=1.0)
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        state, n = evolve(state, cfg)
        assert n == 1000
        assert abs(weighted_mass(state) - 1.0) <= 1e-8

    def test_positivity_and_sup_bound(self, coarse_gibbs):
        """Implicit Euler keeps w nonnegative and contracts its range."""
        rng = np.random.default_rng(19)
        bumps = np.exp(rng.normal(scale=1.5, size=coarse_gibbs.grid.num_nodes))
        state = init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, bumps))
        cfg = SolverConfig(dt=5e-3, t_final=0.5, record_every=1)
        trajectory = []
        _, n = evolve(state, cfg, observer=lambda t, w: trajectory.append(w.values))
        assert n == 100 and len(trajectory) == 101
        prev_max = np.max(trajectory[0])
        prev_min = np.min(trajectory[0])
        for w in trajectory[1:]:
            cur_max = np.max(w)
            cur_min = np.min(w)
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

    def test_nonconvergence_diagnostic(self, atoms9_gibbs):
        cfg = SolverConfig(dt=50.0, t_final=100.0, linear_tol=1e-14, max_linear_iters=1)
        state = init_state(atoms9_gibbs, ou_relative_density(atoms9_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        with pytest.raises(SolverDiagnosticError) as exc_info:
            evolve(state, cfg)
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
        times = []
        _, n = evolve(state, cfg, observer=lambda t, w: times.append(t))
        assert n == 4
        assert times[-1] == pytest.approx(0.01)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(n_steps=st.integers(0, 30), every=st.integers(1, 12), fractional=st.booleans())
    def test_observer_schedule(self, coarse_gibbs, product2d_gibbs, atoms9_gibbs,
                               n_steps, every, fractional):
        """Records at time 0, after every ``record_every``-th step and after the
        final step once; the steps taken and the final state are the same to
        the bit whether anyone observes, on every backend."""
        for gibbs, dt, backend in ((coarse_gibbs, 0.25, "tridiag"), (product2d_gibbs, 0.25, "fastdiag"),
                                   (atoms9_gibbs, 0.01, "pcg" if every == 1 else "chebyshev")):
            t_final = (n_steps + (0.5 if fractional else 0.0)) * dt
            cfg = SolverConfig(dt=dt, t_final=t_final, record_every=every)
            assert solver_backend(gibbs.operator(), cfg) == backend
            state = init_state(gibbs, ou_relative_density(gibbs.grid, 0.5, 1.0, 1.0, 0.0))
            records = []
            final, n = evolve(state, cfg, observer=lambda t, w: records.append((t, w)))
            unobserved, n_unobserved = evolve(state, cfg)
            assert n == n_unobserved == n_steps + fractional
            expected = [0.0] + [j * dt for j in range(every, n_steps + 1, every)]
            if fractional or n_steps % every:
                expected.append(t_final)
            assert [t for t, _ in records] == expected
            assert records[-1][0] == t_final and records[-1][1] is final.w
            assert np.array_equal(unobserved.w.values, final.w.values)


class TestCrankNicolson:
    def test_warns_on_undershoot(self, coarse_gibbs):
        """A spike with a large step makes the trapezoidal update oscillate
        below zero, which must be reported."""
        vals = np.zeros(coarse_gibbs.grid.num_nodes)
        vals[50] = 1.0
        state = init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, vals))
        cfg = SolverConfig(dt=0.5, t_final=0.5, scheme="crank-nicolson")
        with pytest.warns(RuntimeWarning, match="crank-nicolson"):
            evolve(state, cfg)

    def test_warns_at_first_undershoot_only(self, coarse_gibbs):
        """40 undershooting steps of a narrow bump give one warning, attributed to
        the caller of ``evolve``, not one per step."""
        x = coarse_gibbs.grid.nodes[:, 0]
        bump = np.exp(-0.5 * (x - 0.5) ** 2 / 0.01) / coarse_gibbs.gamma.values
        state = init_state(coarse_gibbs, ScalarField(coarse_gibbs.grid, bump))
        cfg = SolverConfig(dt=0.5, t_final=20.0, scheme="crank-nicolson", record_every=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(state, cfg, observer=lambda t, w: None)
        assert [str(w.message).startswith("crank-nicolson step produced") for w in caught] == [True]
        assert caught[0].filename == __file__

    def test_smooth_data_stays_positive(self, coarse_gibbs):
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        cfg = SolverConfig(dt=1e-2, t_final=0.1, scheme="crank-nicolson")
        final, _ = evolve(state, cfg)
        assert np.min(final.w.values) > 0


class TestThreeDimensions:
    def test_flow_conserves_in_3d(self):
        g = build_grid(3, -4, 4, 17)
        gibbs = build_potential(None, None, None, 1.0, 1.0, g)
        state = init_state(gibbs, ou_relative_density(g, 0.3, 1.0, 1.0, 0.0))
        sup0 = np.max(state.w.values)
        final, n = evolve(state, SolverConfig(dt=5e-3, t_final=0.05))
        assert n == 10
        assert abs(weighted_mass(final) - 1.0) <= 1e-8
        assert np.min(final.w.values) >= 0
        assert np.max(final.w.values) <= sup0 * (1 + 1e-10)


def gaussian_gibbs(n, lo, hi, lam=1.0, tau=1.0):
    g = build_grid(len(n), lo, hi, n)
    return build_potential(None, None, None, lam, tau, g)


def dataset_gibbs_1d(grid):
    """A one-atom dataset weight with no features: a 1-d parameter space."""
    data = Dataset(z=[[]], y=[0.3], weight=[1.0])
    return build_potential(data, saturating_squared_loss(), arctan_sigmoid(), 1.0, 1.0, grid)


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
        cfg = SolverConfig(dt=1e-2, t_final=0.025, scheme=scheme)
        assert solver_backend(op, cfg) == "fastdiag"
        d, stiff = op.node_mass, op.stiffness.toarray()
        w0 = np.exp(np.random.default_rng(5).normal(size=op.grid.num_nodes))
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

    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("n,lo,hi", ANISOTROPIC)
    def test_jump_matches_single_steps(self, n, lo, hi, scheme):
        """``advance(w, k)`` is ``k`` single advances up to roundoff, and with
        ``k = 1`` it is the one-step mode scale bit for bit, cached power or not."""
        op = gaussian_gibbs(n, lo, hi, lam=2.0, tau=0.7).operator()
        stepper = Stepper(op, 1e-2, SolverConfig(dt=1e-2, t_final=1.0, scheme=scheme))
        w = np.exp(np.random.default_rng(11).normal(size=op.grid.num_nodes))
        modes = stepper._modes((stepper.mass * w).reshape(stepper.shape), stepper.forward)
        one_step = w + stepper._modes(stepper.change * modes, stepper.back).ravel()
        assert np.array_equal(stepper.advance(w), one_step)
        for k in (2, 7, 50):
            ref = w
            for _ in range(k):
                ref = stepper.advance(ref)
            assert np.max(np.abs(stepper.advance(w, k) - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(stepper.advance(w, 1), one_step)

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_jump_keeps_constants(self, scheme):
        """The change over ``k`` steps is exactly zero on the constant mode, so
        a constant stays constant up to the roundoff of the mode products."""
        op = gaussian_gibbs((7, 9, 11), (-4.0, -3.0, -5.0), (3.0, 5.0, 4.0)).operator()
        stepper = Stepper(op, 1e-2, SolverConfig(dt=1e-2, t_final=1.0, scheme=scheme))
        ones = np.ones(op.grid.num_nodes)
        for k in (2, 7, 50):
            x = stepper.advance(ones, k)
            assert stepper.jump[0] == k and stepper.jump[1].flat[0] == 0.0
            assert np.max(np.abs(x - 1.0)) <= 1e-12

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_mass_drift_3d_jumps(self, scheme):
        """500 steps in jumps of 25 conserve mass as single steps do."""
        gibbs = gaussian_gibbs((17, 17, 17), -6.0, 6.0)
        op = gibbs.operator()
        state = init_state(gibbs, ou_relative_density(op.grid, 0.5, 1.0, 1.0, 0.0))
        masses = []
        _, n_steps = evolve(state, SolverConfig(dt=1e-2, t_final=5.0, scheme=scheme, record_every=25),
                            observer=lambda t, w: masses.append(op.inner(w.values, np.ones_like(w.values))))
        assert n_steps == 500 and len(masses) == 21
        assert max(abs(m - 1.0) for m in masses) <= 1e-12

    def test_one_forward_product_per_trajectory(self, monkeypatch):
        """One forward product for the start state and one back product per
        record interval: each jump carries the modes of the state it returns
        to the next.  The remainder step's own stepper takes one of each."""
        calls = []
        modes = Stepper._modes
        monkeypatch.setattr(Stepper, "_modes", lambda self, *a: calls.append(1) or modes(self, *a))
        gibbs = gaussian_gibbs((9, 13), (-4.0, -5.0), (5.0, 3.0))
        state = init_state(gibbs, ou_relative_density(gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        times = []
        _, n_steps = evolve(state, SolverConfig(dt=1e-2, t_final=1.005, record_every=7),
                            observer=lambda t, w: times.append(t))
        assert n_steps == 101
        assert len(calls) == (1 + math.ceil(100 / 7)) + 2 == 18
        assert len(times) == 1 + 100 // 7 + 1

    @pytest.mark.parametrize("n,scheme,every", [((17, 17, 17), "crank-nicolson", 3),
                                                ((15, 19, 13), "implicit-euler", 5)])
    def test_records_match_the_one_shot_map(self, n, scheme, every):
        """Every record of a run lies within 1e-11 of its own ``max |w|`` of the
        one-shot ``advance(w0, every * i)``.  Re-projecting every recorded state
        onto the modes accumulated roundoff to 2.0e-10 (Crank-Nicolson) and
        9.9e-11 (implicit Euler) here; carrying the modes gives 2.9e-13 and 1.7e-13."""
        gibbs = gaussian_gibbs(n, -6.0, 6.0)
        op = gibbs.operator()
        state = init_state(gibbs, ou_relative_density(op.grid, 0.5, 1.0, 1.0, 0.0))
        cfg = SolverConfig(dt=1e-2, t_final=1.5, scheme=scheme, record_every=every)
        records = []
        evolve(state, cfg, observer=lambda t, w: records.append(w.values))
        assert len(records) == 150 // every + 1
        for i, w in enumerate(records[1:], 1):
            ref = Stepper(op, cfg.dt, cfg).advance(state.w.values, every * i)
            assert np.max(np.abs(w - ref)) <= 1e-11 * np.max(np.abs(ref)), i

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_changed_state_is_projected_afresh(self, scheme):
        """A jump from the last returned state with one entry changed in place
        is a fresh stepper's jump from that array, bit for bit.  Unchanged, the
        state takes its carried modes, which differ from a fresh projection."""
        op = gaussian_gibbs(*ANISOTROPIC[1]).operator()
        cfg = SolverConfig(dt=1e-2, t_final=1.0, scheme=scheme, record_every=3)
        w = np.exp(np.random.default_rng(3).normal(size=op.grid.num_nodes))
        stepper, twin = Stepper(op, cfg.dt, cfg), Stepper(op, cfg.dt, cfg)
        x = stepper.advance(stepper.advance(w, 3), 3)
        y = twin.advance(twin.advance(w, 3), 3)
        assert not np.array_equal(twin.advance(y, 3), Stepper(op, cfg.dt, cfg).advance(y, 3))
        x[17] *= 1.0 + 1e-9
        assert np.array_equal(stepper.advance(x, 3), Stepper(op, cfg.dt, cfg).advance(x, 3))

    def test_long_run_stays_off_subnormal_modes(self):
        """Modes that decay for thousands of steps are zeroed before they
        reach the subnormal floats; the mass and the constant state stay."""
        op = gaussian_gibbs((9, 13), (-4.0, -5.0), (5.0, 3.0)).operator()
        cfg = SolverConfig(dt=1e-2, t_final=1.0, scheme="crank-nicolson", record_every=3)
        stepper = Stepper(op, cfg.dt, cfg)
        w = np.exp(np.random.default_rng(2).normal(size=op.grid.num_nodes))
        x = w
        for _ in range(2000):
            x = stepper.advance(x, 3)
        modes = np.abs(stepper.last_modes[stepper.last_modes != 0.0])
        assert np.min(modes) >= np.finfo(float).tiny
        mean = op.inner(w, 1.0) / op.inner(np.ones_like(w), 1.0)
        assert np.max(np.abs(x - mean)) <= 1e-12 * mean

    def test_crank_nicolson_warns_on_3d_spike(self):
        gibbs = gaussian_gibbs((13, 13, 13), -4.0, 4.0)
        vals = np.zeros(gibbs.grid.num_nodes)
        vals[gibbs.grid.num_nodes // 2] = 1.0
        state = init_state(gibbs, ScalarField(gibbs.grid, vals))
        with pytest.warns(RuntimeWarning, match="crank-nicolson"):
            evolve(state, SolverConfig(dt=0.5, t_final=0.5, scheme="crank-nicolson"))


class TestConjugateGradients:
    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("dt", [0.05, 1.0])
    def test_matches_dense_solve(self, atoms9_gibbs, dt, scheme):
        """One PCG step against ``np.linalg.solve`` of ``(D + coef L) y = D w``,
        and ``2 y - w`` for Crank-Nicolson, in the D-norm: pointwise, the far
        tail is only as good as the energy-norm stopping test."""
        op = atoms9_gibbs.operator()
        stepper = Stepper(op, dt, SolverConfig(dt=dt, t_final=1.0, scheme=scheme, record_every=1))
        assert stepper.backend == "pcg"
        w = np.exp(np.random.default_rng(5).normal(size=op.grid.num_nodes))
        a = np.diag(op.node_mass) + stepper.coef * op.stiffness.toarray()
        ref = np.linalg.solve(a, op.node_mass * w)
        if scheme == "crank-nicolson":
            ref = 2.0 * ref - w
        err = stepper.advance(w) - ref
        assert math.sqrt(op.inner(err, err) / op.inner(ref, ref)) <= 1e-11

    def test_tail_spike_keeps_the_mass(self, atoms3d_gibbs):
        """PCG stops on the residual's sum too, which is the step's mass change:
        a spike at a corner node of a 3-d dataset grid keeps its mass to 1e-10
        (the residual norm alone let it drift by 4.6e-6 over these 9 steps)."""
        op = atoms3d_gibbs.operator()
        cfg = SolverConfig(dt=1e-2, t_final=0.09, record_every=3)
        assert solver_backend(op, cfg) == "pcg"
        state = init_state(atoms3d_gibbs, ScalarField(op.grid, point_and_box_inputs(op.grid)["tail"]))
        masses = []
        _, n_steps = evolve(state, cfg, observer=lambda t, w: masses.append(op.inner(w.values, 1.0)))
        assert n_steps == 9 and len(masses) == 4
        assert max(abs(m - 1.0) for m in masses) <= 1e-10


def abs_system(op, coef, v):
    """``(D + coef |L|) |v|``: the size of the terms that make up ``A v`` at each node."""
    size = (op.node_mass + coef * op.stiffness_diagonal) * np.abs(v)
    (s,), (cond,) = op.strides, op.axis_cond
    size[:-s] += coef * cond * np.abs(v[s:])
    size[s:] += coef * cond * np.abs(v[:-s])
    return size


def one_dimensional_operator(kind, log_gamma):
    """The operator of a 1-d weight: ``exp(log_gamma)`` at the nodes, a dataset
    weight, or the Gaussian at tau = 0.01, which spans 270 decades over 15 nodes."""
    if kind == "random":
        g = build_grid(1, -3.0, 3.0, len(log_gamma))
        return WeightedOperator(g, ScalarField(g, np.exp(np.array(log_gamma) - max(log_gamma))))
    if kind == "dataset":
        return dataset_gibbs_1d(build_grid(1, -6.0, 6.0, 41)).operator()
    return gaussian_gibbs((15,), -5.0, 5.0, lam=0.5, tau=0.01).operator()


class TestTridiagonal:
    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["random", "dataset", "cold"]),
           log_gamma=st.lists(st.floats(-300.0, 0.0), min_size=3, max_size=60),
           dt=st.floats(1e-3, 1e4), scheme=st.sampled_from(["implicit-euler", "crank-nicolson"]),
           seed=st.integers(0, 2**16))
    def test_solve_residual_below_roundoff(self, kind, log_gamma, dt, scheme, seed):
        """The residual of ``A x = b``, applied edge by edge, is roundoff.

        It is measured against the size of the terms that make up
        ``b = A x``, which is ``b`` itself up to a factor that grows with
        ``dt / h^2``; for ``dt <= 0.1`` it is also below 1e-14 of ``b``.
        With implicit Euler ``b = D w`` and ``x`` are positive, and the bound
        holds node by node, in the far tail as well: that needs pivots
        computed without cancellation once ``dt / h^2`` is large.
        """
        op = one_dimensional_operator(kind, log_gamma)
        cfg = SolverConfig(dt=dt, t_final=1.0, scheme=scheme)
        assert solver_backend(op, cfg) == "tridiag"
        stepper = Stepper(op, dt, cfg)
        w = np.exp(np.random.default_rng(seed).normal(size=op.grid.num_nodes))
        x = stepper.advance(w)
        coef, mass = stepper.coef, op.node_mass
        b = mass * w
        if scheme == "crank-nicolson":
            b -= coef * op.apply_stiffness(w)
        residual = np.abs(coef * op.apply_stiffness(x) + mass * x - b)
        size = abs_system(op, coef, x)
        assert np.max(residual) <= 1e-14 * np.max(size)
        if dt <= 0.1:
            assert np.max(residual) <= 1e-14 * np.max(np.abs(b))
        if scheme == "implicit-euler":
            assert np.all(x > 0)
            assert np.all(residual <= 1e-14 * size)

    @pytest.mark.parametrize("kind", ["random", "dataset", "cold"])
    def test_implicit_euler_keeps_sign(self, kind):
        """A nonnegative density with zeros stays nonnegative, however wide the weight."""
        # neighbouring random weights 250 decades apart
        op = one_dimensional_operator(kind, [0.0, -575.0] * 12 + [0.0])
        n = op.grid.num_nodes
        w = np.zeros(n)
        w[[0, n // 2, n - 1]] = [1.0, 1e-300, 5.0]
        for dt in (1e-3, 1.0, 1e3):
            x = Stepper(op, dt, SolverConfig(dt=dt, t_final=1.0)).advance(w)
            assert np.all(x >= 0.0) and np.all(np.isfinite(x))

    def test_pivots_exact_to_roundoff(self):
        """The pivots match the exact rational LDL^T pivots of the float system to
        1e-14, at a step size where ``a_i - off^2 / piv`` in floats is off by 1e-8."""
        g = build_grid(1, -3.0, 3.0, 25)
        op = WeightedOperator(g, ScalarField(g, np.exp(np.r_[np.zeros(12), np.full(13, -460.0)])))
        mass, off = op.node_mass, 1e8 * op.axis_cond[0]
        piv, *_ = _tridiagonal_scans(mass, off)
        m, c = [Fraction(v) for v in mass], [Fraction(v) for v in off] + [Fraction(0)]
        exact = [m[0] + c[0]]
        for i in range(1, len(m)):
            exact.append(m[i] + c[i - 1] + c[i] - c[i - 1] ** 2 / exact[-1])
        assert max(abs(p / float(e) - 1.0) for p, e in zip(piv, exact)) <= 1e-14

    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    def test_matches_dense_solve(self, coarse_gibbs):
        op = coarse_gibbs.operator()
        w = np.exp(np.random.default_rng(3).normal(size=op.grid.num_nodes))
        for scheme in ("implicit-euler", "crank-nicolson"):
            stepper = Stepper(op, 0.05, SolverConfig(dt=0.05, t_final=1.0, scheme=scheme))
            a = np.diag(op.node_mass) + stepper.coef * op.stiffness.toarray()
            b = op.node_mass * w
            if scheme == "crank-nicolson":
                b = 2.0 * b - a @ w
            ref = np.linalg.solve(a, b)
            assert np.max(np.abs(stepper.advance(w) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.filterwarnings("ignore:crank-nicolson step produced")
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_advance_k_is_k_steps(self, coarse_gibbs, atoms9_gibbs, scheme):
        """The scans and PCG take ``advance(w, k)`` one step at a time, bit for bit;
        the Chebyshev jump is 7 dense steps to 1e-12 of ``max |w|``."""
        for gibbs, backend in ((coarse_gibbs, "tridiag"), (atoms9_gibbs, "pcg")):
            cfg = SolverConfig(dt=0.05, t_final=1.0, scheme=scheme, record_every=1)
            stepper = Stepper(gibbs.operator(), 0.05, cfg)
            assert stepper.backend == backend
            w = np.exp(np.random.default_rng(7).normal(size=gibbs.grid.num_nodes))
            ref = w
            for _ in range(7):
                ref = stepper.advance(ref)
            assert np.array_equal(stepper.advance(w, 7), ref)
        op = atoms9_gibbs.operator()  # w is its density from the loop's last pass
        stepper = Stepper(op, 0.05, SolverConfig(dt=0.05, t_final=1.0, scheme=scheme))
        assert stepper.backend == "chebyshev"
        step = dense_step(op, stepper.coef, stepper.crank_nicolson)
        ref = w
        for _ in range(7):
            ref = step @ ref
        assert np.max(np.abs(stepper.advance(w, 7) - ref)) <= 1e-12 * np.max(np.abs(w))

    def test_mass_drift_on_bundled_config(self):
        """3000 implicit-Euler steps of configs/ou_shannon.toml conserve mass to 1e-12."""
        cfg = load_config(CONFIGS / "ou_shannon.toml")
        gibbs = cfg.build_gibbs()
        op = gibbs.operator()
        masses = []
        _, n_steps = evolve(init_state(gibbs, cfg.initial_density(gibbs)), cfg,
                            observer=lambda t, w: masses.append(op.inner(w.values, 1.0)))
        assert n_steps == 3000 and solver_backend(op, cfg) == "tridiag"
        assert max(abs(m - 1.0) for m in masses) <= 1e-12


def dataset_gibbs_3d(n):
    """A three-atom dataset weight with two features on its automatic box: 3-d, not a product."""
    data = Dataset(z=[[-0.5, 0.3], [0.0, -0.4], [0.6, 0.1]], y=[0.2, 0.8, 0.5], weight=[0.1] * 3)
    loss = saturating_squared_loss()
    lo, hi = default_box(1.0, 1.0, 3, m_envelope=certified_envelope(data, loss))
    return build_potential(data, loss, arctan_sigmoid(), 1.0, 1.0, build_grid(3, lo, hi, n))


def random_operator(n, seed):
    """The operator of a random weight, ``exp`` of a standard normal per node: not a product."""
    g = build_grid(len(n), -3.0, 3.0, n)
    return WeightedOperator(g, ScalarField(g, np.exp(np.random.default_rng(seed).normal(size=g.num_nodes))))


def dense_step(op, coef, crank_nicolson):
    """One step as a dense matrix: ``(D + coef L)^{-1} D`` by ``np.linalg.solve``, or ``2 (.) - I``."""
    a = np.diag(op.node_mass) + coef * op.stiffness.toarray()
    step = np.linalg.solve(a, np.diag(op.node_mass))
    return 2.0 * step - np.eye(len(step)) if crank_nicolson else step


@pytest.fixture(scope="module")
def atoms3d_gibbs():
    return dataset_gibbs_3d((41, 41, 41))


def point_and_box_inputs(grid):
    """A spike at the centre node, a spike at a corner node and the indicator of ``[-1, 1]^d``."""
    centre, tail = np.zeros(grid.num_nodes), np.zeros(grid.num_nodes)
    centre[grid.num_nodes // 2] = tail[0] = 1.0
    box = (np.max(np.abs(grid.nodes), axis=1) <= 1.0).astype(float)
    return {"centre": centre, "tail": tail, "box": box}


class TestChebyshev:
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("weight", ["random-2d", "random-3d", "atoms9", "dataset-3d"])
    def test_matches_dense_steps(self, atoms9_gibbs, weight, scheme):
        """1, 7 and 50 steps in one jump against the same steps by dense solves,
        to 1e-12 of ``max |w|``, on small weights that are not products."""
        op = {"random-2d": lambda: random_operator((9, 13), 1),
              "random-3d": lambda: random_operator((7, 9, 11), 2),
              "atoms9": atoms9_gibbs.operator,
              "dataset-3d": lambda: dataset_gibbs_3d((7, 9, 11)).operator()}[weight]()
        dt = 1e-2
        stepper = Stepper(op, dt, SolverConfig(dt=dt, t_final=1.0, scheme=scheme, record_every=50))
        assert stepper.backend == "chebyshev"
        step = dense_step(op, stepper.coef, stepper.crank_nicolson)
        w = np.random.default_rng(3).normal(size=op.grid.num_nodes)
        ref, done = w, 0
        for k in (1, 7, 50):
            for _ in range(k - done):
                ref = step @ ref
            done = k
            assert np.max(np.abs(stepper._chebyshev(w, k) - ref)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_constants_and_mass_kept(self, scheme):
        """``p(-1) = 1``: a constant stays constant and the mass stays put, to roundoff."""
        op = random_operator((9, 13), 4)
        stepper = Stepper(op, 1e-2, SolverConfig(dt=1e-2, t_final=1.0, scheme=scheme, record_every=50))
        w = np.exp(np.random.default_rng(6).normal(size=op.grid.num_nodes))
        for k in (1, 7, 50):
            assert np.max(np.abs(stepper._chebyshev(np.ones_like(w), k) - 1.0)) <= 1e-13
            assert abs(op.inner(stepper._chebyshev(w, k), 1.0) / op.inner(w, 1.0) - 1.0) <= 1e-14
            assert np.polynomial.chebyshev.chebval(-1.0, stepper.series[k]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("inputs", ["centre", "tail", "box"])
    @pytest.mark.parametrize("case", ["atoms2d", "atoms2d-dt1e-2", "atoms3d"])
    def test_records_stay_nonnegative(self, monkeypatch, atoms3d_gibbs, case, inputs):
        """Every recorded state of a spike or a box indicator is >= -1e-12, and the
        mass moves by at most 1e-12 when no PCG fallback ran.  The tail spike with
        ``dt = 1e-2`` and 50-step records dips to about -6e-4 in the far tail by
        the series alone (its peak is 3e24): PCG steps redo those records."""
        if case == "atoms3d":
            gibbs, cfg = atoms3d_gibbs, SolverConfig(dt=1e-2, t_final=1.0, record_every=10)
        else:
            gibbs = load_config(CONFIGS / "atoms2d.toml").build_gibbs()
            dt, every = (1e-3, 10) if case == "atoms2d" else (1e-2, 50)
            cfg = SolverConfig(dt=dt, t_final=10 * every * dt, record_every=every)
        op = gibbs.operator()
        assert solver_backend(op, cfg) == "chebyshev"
        solves = []
        pcg = Stepper._pcg
        monkeypatch.setattr(Stepper, "_pcg", lambda self, w: solves.append(1) or pcg(self, w))
        state = init_state(gibbs, ScalarField(gibbs.grid, point_and_box_inputs(gibbs.grid)[inputs]))
        records = []
        _, n_steps = evolve(state, cfg, observer=lambda t, w: records.append(w.values))
        assert n_steps == 10 * cfg.record_every and len(records) == 11
        assert min(float(np.min(w)) for w in records) >= -1e-12
        assert bool(solves) == (case == "atoms2d-dt1e-2" and inputs == "tail")
        if not solves:
            assert max(abs(op.inner(w, 1.0) - 1.0) for w in records) <= 1e-12

    def test_mass_drift_over_2000_steps(self):
        """2000 steps of configs/atoms2d.toml on a 41^2 grid keep the mass to 1e-12."""
        cfg = load_config(CONFIGS / "atoms2d.toml")
        cfg.grid = build_grid(2, cfg.grid.lo, cfg.grid.hi, (41, 41))
        cfg.t_final = 2.0
        gibbs = cfg.build_gibbs()
        op = gibbs.operator()
        assert solver_backend(op, cfg) == "chebyshev"
        masses = []
        _, n_steps = evolve(init_state(gibbs, cfg.initial_density(gibbs)), cfg,
                            observer=lambda t, w: masses.append(op.inner(w.values, 1.0)))
        assert n_steps == 2000
        assert max(abs(m - 1.0) for m in masses) <= 1e-12

    @pytest.mark.parametrize("t_final", [1.0, 1.025])
    def test_observer_does_not_change_the_jumps(self, atoms9_gibbs, t_final):
        """Without an observer the run takes the same ``record_every``-step jumps
        (and the same remainder step): the final state is the same to the bit."""
        cfg = SolverConfig(dt=0.05, t_final=t_final, record_every=7)
        assert solver_backend(atoms9_gibbs.operator(), cfg) == "chebyshev"
        state = init_state(atoms9_gibbs, ou_relative_density(atoms9_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        observed, n_steps = evolve(state, cfg, observer=lambda t, w: None)
        final, _ = evolve(state, cfg)
        assert n_steps == 20 + (t_final > 1.0)
        assert np.array_equal(final.w.values, observed.w.values)

    def test_crank_nicolson_undershoot_is_redone_by_pcg(self, atoms9_gibbs):
        """A Crank-Nicolson record below zero is redone by PCG steps from the same
        start: the state and the warning are those of the PCG backend."""
        op = atoms9_gibbs.operator()
        w = np.zeros(op.grid.num_nodes)
        w[0] = 1.0
        states = {}
        for every in (1, 9):
            stepper = Stepper(op, 0.125, SolverConfig(dt=0.125, t_final=1.0, scheme="crank-nicolson",
                                                      record_every=every))
            assert stepper.backend == ("pcg" if every == 1 else "chebyshev")
            with pytest.warns(RuntimeWarning, match="crank-nicolson"):
                states[every] = stepper.advance(w, 9)
        assert np.min(stepper._chebyshev(w, 9)) < -1e-4
        np.testing.assert_array_equal(states[9], states[1])


class TestBackendSelection:
    @pytest.mark.parametrize("n,lo,hi", ANISOTROPIC)
    def test_gaussian_weights_take_fast_diagonalization(self, n, lo, hi):
        cfg = SolverConfig(dt=1e-2, t_final=1.0)
        assert solver_backend(gaussian_gibbs(n, lo, hi).operator(), cfg) == "fastdiag"

    def test_dataset_weight_takes_pcg(self, atoms9_gibbs):
        """A dataset weight takes PCG for records of one step, as the ``ATOMS_9``
        CLI input has them, and the Chebyshev expansion for the bundled config's
        records of 10 steps."""
        cfg = SolverConfig(dt=0.05, t_final=0.6, record_every=1)
        assert solver_backend(atoms9_gibbs.operator(), cfg) == "pcg"
        cfg = load_config(CONFIGS / "atoms2d.toml")
        op = cfg.build_gibbs().operator()
        assert solver_backend(op, cfg) == "chebyshev"
        cfg.record_every = 1
        assert solver_backend(op, cfg) == "pcg"

    def test_cold_weight_takes_pcg_past_the_degree_cap(self):
        """At tau = 0.05 on a hand-set box the spectrum bound is 4e11: no series
        below the degree cap fits a record, however long, so PCG takes it."""
        cfg = resolve_config({
            "dataset": "three_atoms.csv", "z_min": [-1.0], "z_max": [1.0], "y_min": 0.0,
            "y_max": 1.0, "lambda": 1.0, "tau": 0.05, "grid.dim": 2, "grid.lo": [-5.0, -5.0],
            "grid.hi": [5.0, 5.0], "grid.n": [21, 21], "solver.dt": 1e-3, "solver.t_final": 1.0,
            "solver.record_every": 500,
        }, base_dir=CONFIGS)
        op = cfg.build_gibbs().operator()
        assert spectrum_bound(op) > 1e11
        assert chebyshev_series(cfg.dt * spectrum_bound(op), 500, False) is None
        assert solver_backend(op, cfg) == "pcg"
        assert CHEBYSHEV_MAX_DEGREE < CHEBYSHEV_DEGREES_PER_STEP * 500  # the rule alone allows more

    def test_stiffness_is_reference_only(self, monkeypatch):
        """No backend's evolve nor run_verification assembles the sparse matrix."""
        ops = []
        operator = GibbsField.operator
        monkeypatch.setattr(GibbsField, "operator", lambda self: ops.append(operator(self)) or ops[-1])
        gibbs = gaussian_gibbs((7, 9, 11), (-4.0, -3.0, -5.0), (3.0, 5.0, 4.0))
        state = init_state(gibbs, ou_relative_density(gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        evolve(state, SolverConfig(dt=1e-2, t_final=0.05, record_every=1),
               observer=lambda t, w: fisher(w, gibbs, make_shannon(1.0)))
        atoms = load_config(CONFIGS / "atoms2d.toml")
        atoms.t_final = 0.02
        gibbs = atoms.build_gibbs()
        evolve(init_state(gibbs, constant_field(gibbs.grid, 1.0)), atoms)
        atoms_pcg = load_config(CONFIGS / "atoms2d.toml")
        atoms_pcg.t_final, atoms_pcg.record_every = 0.005, 1
        ou3d = resolve_config({
            "lambda": 1.0, "tau": 1.0, "grid.dim": 3, "grid.lo": [-4.0, -3.0, -5.0],
            "grid.hi": [3.0, 5.0, 4.0], "grid.n": [7, 9, 11], "solver.dt": 1e-2,
            "solver.t_final": 0.05, "initial.kind": "gaussian", "initial.mean": [0.5, 0.0, 0.0],
        })
        backends = set()
        for cfg in (ou3d, atoms, atoms_pcg):
            run_verification(cfg)
            backends.add(solver_backend(ops[-1], cfg))
        assert backends == {"fastdiag", "chebyshev", "pcg"}
        assert not any("stiffness" in vars(op) for op in ops)

        op = gibbs.operator()
        n = op.grid.n
        edges = (n[0] - 1) * n[1] + n[0] * (n[1] - 1)
        assert op.stiffness.nnz == op.grid.num_nodes + 2 * edges

    def test_one_dimensional_weights_take_tridiag(self, coarse_gibbs):
        cfg = SolverConfig(dt=1e-2, t_final=1.0)
        for gibbs in (coarse_gibbs, dataset_gibbs_1d(coarse_gibbs.grid)):
            op = gibbs.operator()
            assert solver_backend(op, cfg) == "tridiag"
            assert Stepper(op, 1e-2, cfg).backend == "tridiag"


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
