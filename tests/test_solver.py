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
from entroflow.solver import Stepper, _tridiagonal_scans, solver_backend
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
    """The three-atom dataset weight on a 9x9 grid: 2-d and not a product, so it takes PCG."""
    cfg = resolve_config({
        "dataset": "three_atoms.csv", "z_min": [-1.0], "z_max": [1.0], "y_min": 0.0,
        "y_max": 1.0, "lambda": 1.0, "tau": 1.0, "grid.dim": 2, "grid.lo": [-5.0, -5.0],
        "grid.hi": [5.0, 5.0], "grid.n": [9, 9], "solver.dt": 0.05, "solver.t_final": 0.6,
    }, base_dir=CONFIGS)
    return cfg.build_gibbs()


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
        final, n = evolve(state, cfg)
        assert n == 4
        assert final.t == pytest.approx(0.01)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(n_steps=st.integers(0, 30), every=st.integers(1, 12), fractional=st.booleans(),
           observe=st.booleans())
    def test_observer_schedule(self, coarse_gibbs, n_steps, every, fractional, observe):
        """Records at time 0, after every ``record_every``-th step and after the
        final step once; the steps taken and the final state do not depend on
        whether anyone observes."""
        dt = 0.25
        t_final = (n_steps + (0.5 if fractional else 0.0)) * dt
        cfg = SolverConfig(dt=dt, t_final=t_final, record_every=every)
        state = init_state(coarse_gibbs, ou_relative_density(coarse_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        records = []
        final, n = evolve(state, cfg, observer=(lambda t, w: records.append((t, w))) if observe else None)
        assert n == n_steps + fractional
        assert final.t == t_final
        if observe:
            expected = [0.0] + [j * dt for j in range(every, n_steps + 1, every)]
            if fractional or n_steps % every:
                expected.append(t_final)
            assert [t for t, _ in records] == expected
            assert records[-1][1] is final.w
        else:
            observed, _ = evolve(state, cfg, observer=lambda t, w: None)
            assert np.array_equal(final.w.values, observed.w.values)


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

    @pytest.mark.parametrize("observe", [True, False])
    def test_two_mode_products_per_record(self, monkeypatch, observe):
        """One forward and one back product per record interval, one pair for a
        run without an observer, and one pair for the remainder step."""
        calls = []
        modes = Stepper._modes
        monkeypatch.setattr(Stepper, "_modes", lambda self, *a: calls.append(1) or modes(self, *a))
        gibbs = gaussian_gibbs((9, 13), (-4.0, -5.0), (5.0, 3.0))
        state = init_state(gibbs, ou_relative_density(gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        times = []
        _, n_steps = evolve(state, SolverConfig(dt=1e-2, t_final=1.005, record_every=7),
                            observer=(lambda t, w: times.append(t)) if observe else None)
        assert n_steps == 101
        intervals = math.ceil(100 / 7) if observe else 1
        assert len(calls) == 2 * (intervals + 1)
        if observe:
            assert len(times) == 1 + 100 // 7 + 1

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
        stepper = Stepper(op, dt, SolverConfig(dt=dt, t_final=1.0, scheme=scheme))
        assert stepper.backend == "pcg"
        w = np.exp(np.random.default_rng(5).normal(size=op.grid.num_nodes))
        a = np.diag(op.node_mass) + stepper.coef * op.stiffness.toarray()
        ref = np.linalg.solve(a, op.node_mass * w)
        if scheme == "crank-nicolson":
            ref = 2.0 * ref - w
        err = stepper.advance(w) - ref
        assert math.sqrt(op.inner(err, err) / op.inner(ref, ref)) <= 1e-11


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
        assert solver_backend(op) == "tridiag"
        stepper = Stepper(op, dt, SolverConfig(dt=dt, t_final=1.0, scheme=scheme))
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
        """The scans and PCG take ``advance(w, k)`` one step at a time, bit for bit."""
        for gibbs, backend in ((coarse_gibbs, "tridiag"), (atoms9_gibbs, "pcg")):
            stepper = Stepper(gibbs.operator(), 0.05, SolverConfig(dt=0.05, t_final=1.0, scheme=scheme))
            assert stepper.backend == backend
            w = np.exp(np.random.default_rng(7).normal(size=gibbs.grid.num_nodes))
            ref = w
            for _ in range(7):
                ref = stepper.advance(ref)
            assert np.array_equal(stepper.advance(w, 7), ref)

    def test_mass_drift_on_bundled_config(self):
        """3000 implicit-Euler steps of configs/ou_shannon.toml conserve mass to 1e-12."""
        cfg = load_config(CONFIGS / "ou_shannon.toml")
        gibbs = cfg.build_gibbs()
        op = gibbs.operator()
        masses = []
        _, n_steps = evolve(init_state(gibbs, cfg.initial_density(gibbs)), cfg.solver_config(),
                            observer=lambda t, w: masses.append(op.inner(w.values, 1.0)))
        assert n_steps == 3000 and solver_backend(op) == "tridiag"
        assert max(abs(m - 1.0) for m in masses) <= 1e-12


class TestBackendSelection:
    @pytest.mark.parametrize("n,lo,hi", ANISOTROPIC)
    def test_gaussian_weights_take_fast_diagonalization(self, n, lo, hi):
        assert solver_backend(gaussian_gibbs(n, lo, hi).operator()) == "fastdiag"

    def test_dataset_weight_takes_pcg(self):
        gibbs = load_config(CONFIGS / "atoms2d.toml").build_gibbs()
        assert solver_backend(gibbs.operator()) == "pcg"

    def test_stiffness_is_reference_only(self, monkeypatch):
        """Neither backend's evolve nor run_verification assembles the sparse matrix."""
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
        evolve(init_state(gibbs, constant_field(gibbs.grid, 1.0)), atoms.solver_config())
        ou3d = resolve_config({
            "lambda": 1.0, "tau": 1.0, "grid.dim": 3, "grid.lo": [-4.0, -3.0, -5.0],
            "grid.hi": [3.0, 5.0, 4.0], "grid.n": [7, 9, 11], "solver.dt": 1e-2,
            "solver.t_final": 0.05, "initial.kind": "gaussian", "initial.mean": [0.5, 0.0, 0.0],
        })
        for cfg in (ou3d, atoms):
            run_verification(cfg)
        assert {solver_backend(op) for op in ops} == {"fastdiag", "pcg"}
        assert not any("stiffness" in vars(op) for op in ops)

        op = gibbs.operator()
        n = op.grid.n
        edges = (n[0] - 1) * n[1] + n[0] * (n[1] - 1)
        assert op.stiffness.nnz == op.grid.num_nodes + 2 * edges

    def test_one_dimensional_weights_take_tridiag(self, coarse_gibbs):
        for gibbs in (coarse_gibbs, dataset_gibbs_1d(coarse_gibbs.grid)):
            op = gibbs.operator()
            assert solver_backend(op) == "tridiag"
            assert Stepper(op, 1e-2, SolverConfig(dt=1e-2, t_final=1.0)).backend == "tridiag"


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
