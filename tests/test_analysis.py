"""Energies, dissipation, ratio bounds, minimizer and duality certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    Dataset,
    EnergyRecord,
    GibbsField,
    ScalarField,
    SolverConfig,
    arctan_sigmoid,
    build_grid,
    build_potential,
    compute_minimizer,
    constant_field,
    dissipation_check,
    duality_lower_bound,
    energy,
    evolve,
    fisher,
    fit_decay_rate,
    init_state,
    lambda_rate,
    make_shannon,
    make_tsallis,
    ou_oracle,
    ou_relative_density,
    saturating_squared_loss,
    snapshot,
    sobolev_ratio,
)
from entroflow.entropy import DOMAIN_FLOOR
from entroflow.solver import Stepper


@pytest.fixture(scope="module")
def ou_gibbs():
    g = build_grid(1, -6, 6, 401)
    return build_potential(None, None, None, 1.0, 1.0, g)


@pytest.fixture(scope="module")
def atom_gibbs():
    """Perturbed potential from three weighted atoms, parameter dimension 2."""
    data = Dataset(z=[[-0.5], [0.0], [0.6]], y=[0.2, 0.8, 0.5], weight=[0.1, 0.1, 0.1])
    g = build_grid(2, -7, 7, 61)
    return build_potential(data, saturating_squared_loss(), arctan_sigmoid(), 1.0, 1.0, g)


def random_weight_gibbs(grid, rng, tau=1.0):
    """A Gibbs field whose weight is random at every node (not normalized)."""
    gamma = ScalarField(grid, np.exp(rng.normal(size=grid.num_nodes)))
    return GibbsField(grid=grid, gamma=gamma, Z=1.0, Z_raw=1.0, m_grid=0.0, m_envelope=0.0,
                      lam=1.0, tau=tau)


GENERATORS = [make_shannon(0.7), make_tsallis(1.5, 1.0), make_tsallis(2.5, 0.5),
              make_tsallis(4.0, 2.0)]


def random_positive_density(gibbs, rng, roughness=0.6, modes=4):
    """Smooth strictly positive unit-mass density from random cosine modes."""
    g = gibbs.grid
    field = np.zeros(g.num_nodes)
    for a in range(g.dim):
        x = (g.nodes[:, a] - g.lo[a]) / (g.hi[a] - g.lo[a])
        for k in range(1, modes + 1):
            amp = roughness * rng.normal() / k
            field += amp * np.cos(math.pi * k * x)
    w = np.exp(field)
    op = gibbs.operator()
    mass = op.inner(w, np.ones_like(w))
    return ScalarField(g, w / mass)


class TestEnergy:
    def test_equilibrium_energy_is_zero(self, ou_gibbs):
        w = constant_field(ou_gibbs.grid, 1.0)
        assert energy(w, ou_gibbs, make_shannon(1.0)) == 0.0
        assert energy(w, ou_gibbs, make_tsallis(2.0, 1.0)) == 0.0

    def test_translate_matches_gaussian_relative_entropy(self, ou_gibbs):
        # KL of two unit-variance Gaussians a distance 0.5 apart is 0.125
        w0 = ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0)
        state = init_state(ou_gibbs, w0)
        assert energy(state.w, ou_gibbs, make_shannon(1.0)) == pytest.approx(0.125, abs=1e-4)

    def test_quadratic_generator_expansion(self, ou_gibbs):
        """For the quadratic generator the energy of 1 + a*g is exactly a^2 <g, g>."""
        rng = np.random.default_rng(6)
        op = ou_gibbs.operator()
        g_vals = rng.normal(size=ou_gibbs.grid.num_nodes)
        ones = np.ones_like(g_vals)
        g_vals -= op.inner(g_vals, ones) / op.inner(ones, ones)
        a = 0.01
        w = ScalarField(ou_gibbs.grid, 1.0 + a * g_vals)
        expected = a * a * op.inner(g_vals, g_vals)
        assert energy(w, ou_gibbs, make_tsallis(2.0, 1.0)) == pytest.approx(expected, rel=1e-12)

    def test_negative_density_rejected(self, ou_gibbs):
        vals = np.ones(ou_gibbs.grid.num_nodes)
        vals[0] = -0.1
        with pytest.raises(ValueError):
            energy(ScalarField(ou_gibbs.grid, vals), ou_gibbs, make_shannon(1.0))

    def test_solver_roundoff_dip_tolerated(self, ou_gibbs):
        vals = np.ones(ou_gibbs.grid.num_nodes)
        vals[0] = -1e-13
        val = energy(ScalarField(ou_gibbs.grid, vals), ou_gibbs, make_shannon(1.0))
        assert np.isfinite(val) and val >= 0.0


class TestFisher:
    def test_constant_has_no_dissipation(self, ou_gibbs):
        assert fisher(constant_field(ou_gibbs.grid, 1.0), ou_gibbs, make_shannon(1.0)) == 0.0

    def test_translate_saturates_twice_the_rate(self, ou_gibbs):
        """Fisher over energy hits 2*lam/tau on a Gaussian translate."""
        w = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0)).w
        gen = make_shannon(1.0)
        ratio = fisher(w, ou_gibbs, gen) / energy(w, ou_gibbs, gen)
        assert ratio == pytest.approx(2.0, rel=2e-2)

    def test_first_order_convergence_in_h(self):
        """Fisher of the translate converges to m^2 under grid refinement."""
        exact = 0.25
        errors = []
        for n in (101, 201, 401):
            g = build_grid(1, -6, 6, n)
            gibbs = build_potential(None, None, None, 1.0, 1.0, g)
            w = init_state(gibbs, ou_relative_density(g, 0.5, 1.0, 1.0, 0.0)).w
            errors.append(abs(fisher(w, gibbs, make_shannon(1.0)) - exact))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) > 0.9

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: f"{g.family}-{g.q}")
    @pytest.mark.parametrize("n", [(30,), (9, 7), (5, 4, 6)], ids=lambda n: f"{len(n)}d")
    def test_is_phi1_against_the_stiffness(self, n, gen):
        """Summation by parts: the edge sum equals ``<phi'(max(w, DOMAIN_FLOOR)), L w>``."""
        g = build_grid(len(n), -1.0, [1.0 + 0.2 * a for a in range(len(n))], n)
        rng = np.random.default_rng(len(n))
        gibbs = random_weight_gibbs(g, rng, gen.tau)
        for _ in range(5):
            w = np.exp(1.5 * rng.normal(size=g.num_nodes))
            stiffness_w = gibbs.operator().apply_stiffness(w)
            direct = np.dot(gen.phi1(np.maximum(w, DOMAIN_FLOOR)), stiffness_w)
            assert fisher(ScalarField(g, w), gibbs, gen) == pytest.approx(direct, rel=1e-12)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(n=st.lists(st.integers(3, 9), min_size=1, max_size=2),
           gen=st.sampled_from(GENERATORS + [make_tsallis(2.0, 1.0)]), seed=st.integers(0, 2**32))
    def test_implicit_euler_step_falls_by_at_least_dt_fisher(self, n, gen, seed):
        """One implicit-Euler step ``D (y - w) = -dt L y`` has ``E(w) - E(y) >= dt F(y)``.

        By convexity ``E(w) - E(y) >= <phi'(y), D (w - y)> = dt <phi'(y), L y>``,
        which is the Fisher term at ``y``.  The slack, 1e-10 of ``E(w)``, covers the
        roundoff of the two energies and the PCG residual of the 2-d random
        weights; the margin itself is second order in ``y - w``.  The seed draws
        the weight, ``dt`` in [1e-3, 10] and a density spread over decades.
        """
        g = build_grid(len(n), -1.0, 1.0, n)
        rng = np.random.default_rng(seed)
        gibbs = random_weight_gibbs(g, rng, gen.tau)
        dt = 10.0 ** rng.uniform(-3.0, 1.0)
        w = ScalarField(g, np.exp(rng.uniform(0.1, 3.0) * rng.normal(size=g.num_nodes)))
        y = ScalarField(g, Stepper(gibbs.operator(), dt, SolverConfig(dt=dt, t_final=dt))
                        .advance(w.values))
        drop = energy(w, gibbs, gen) - energy(y, gibbs, gen)
        assert drop >= dt * fisher(y, gibbs, gen) - 1e-10 * energy(w, gibbs, gen)


class TestDissipation:
    def test_stationary_trajectory(self, ou_gibbs):
        gen = make_shannon(1.0)
        w = constant_field(ou_gibbs.grid, 1.0)
        records = [snapshot(t, w, ou_gibbs, gen) for t in (0.0, 0.1, 0.2)]
        report = dissipation_check(records)
        assert report.monotone
        assert all(r.energy == 0.0 and r.fisher == 0.0 for r in records)

    def test_energy_derivative_matches_fisher(self, ou_gibbs):
        gen = make_shannon(1.0)
        cfg = SolverConfig(dt=1e-3, t_final=0.5, record_every=10)
        state = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        records = []
        evolve(state, cfg, observer=lambda t, w: records.append(snapshot(t, w, ou_gibbs, gen)))
        report = dissipation_check(records)
        assert report.max_rel_error <= 0.05
        assert report.monotone

    def test_needs_three_records(self, ou_gibbs):
        gen = make_shannon(1.0)
        w = constant_field(ou_gibbs.grid, 1.0)
        with pytest.raises(ValueError):
            dissipation_check([snapshot(0.0, w, ou_gibbs, gen)])


class TestTheoreticalRate:
    def test_closed_form_values(self):
        assert lambda_rate(1.0, 1.0, 0.0) == 2.0
        assert lambda_rate(1.0, 1.0, math.log(2.0)) == pytest.approx(0.5)
        assert lambda_rate(2.0, 0.5, 0.0) == pytest.approx(8.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lambda_rate(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            lambda_rate(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            lambda_rate(1.0, 1.0, -0.1)


class TestSobolevRatio:
    def test_constant_density_degenerate(self, ou_gibbs):
        assert sobolev_ratio(constant_field(ou_gibbs.grid, 1.0), ou_gibbs, make_shannon(1.0)) is None

    def test_translate_saturates_bakry_emery(self, ou_gibbs):
        w = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0)).w
        ratio = sobolev_ratio(w, ou_gibbs, make_shannon(1.0))
        assert ratio == pytest.approx(0.5, rel=2e-2)

    @pytest.mark.parametrize("gen", [make_shannon(1.0), make_tsallis(2.0, 1.0)])
    def test_random_densities_respect_bound(self, ou_gibbs, gen):
        rng = np.random.default_rng(53)
        bound = 0.5  # exp(0) * tau / (2 lam)
        for _ in range(100):
            w = random_positive_density(ou_gibbs, rng)
            ratio = sobolev_ratio(w, ou_gibbs, gen)
            assert ratio is None or ratio <= bound

    def test_perturbed_bound_with_data_term(self, atom_gibbs):
        rng = np.random.default_rng(59)
        gen = make_shannon(1.0)
        bound = math.exp(2.0 * atom_gibbs.m_grid / atom_gibbs.tau) * 0.5
        for _ in range(50):
            w = random_positive_density(atom_gibbs, rng)
            ratio = sobolev_ratio(w, atom_gibbs, gen)
            assert ratio is None or ratio <= bound

    def test_perturbation_degrades_by_at_most_the_envelope(self, atom_gibbs):
        """Ratios on the perturbed weight exceed the clean bound by < exp(2M/tau)."""
        rng = np.random.default_rng(61)
        gen = make_shannon(1.0)
        factor = math.exp(2.0 * atom_gibbs.m_grid / atom_gibbs.tau)
        for _ in range(20):
            w = random_positive_density(atom_gibbs, rng)
            ratio = sobolev_ratio(w, atom_gibbs, gen)
            if ratio is not None:
                assert ratio <= factor * 0.5 * (1 + 1e-12)


class TestMinimizer:
    def test_normalized_minimizer_is_unit(self, ou_gibbs):
        w_star, e_star = compute_minimizer(ou_gibbs, make_shannon(1.0))
        np.testing.assert_allclose(w_star.values, 1.0, rtol=1e-10)
        assert e_star == 0.0

    def test_unnormalized_constant_weight(self):
        """On a flat potential with total mass 2 the floor energy is 2*phi(1/2)."""
        g = build_grid(1, 0, 1, 51)
        gamma = ScalarField(g, np.full(g.num_nodes, 2.0))
        gibbs = GibbsField(
            grid=g, gamma=gamma,
            Z=2.0, Z_raw=2.0, m_grid=0.0, m_envelope=0.0, lam=1.0, tau=1.0,
        )
        w_star, e_star = compute_minimizer(gibbs, make_tsallis(2.0, 1.0))
        np.testing.assert_allclose(w_star.values, 0.5)
        assert e_star == pytest.approx(0.5, rel=1e-12)

    def test_random_densities_never_beat_the_floor(self, atom_gibbs):
        rng = np.random.default_rng(67)
        gen = make_tsallis(1.5, 1.0)
        w_star, e_star = compute_minimizer(atom_gibbs, gen)
        assert energy(w_star, atom_gibbs, gen) == e_star
        for _ in range(50):
            w = random_positive_density(atom_gibbs, rng)
            assert energy(w, atom_gibbs, gen) >= e_star - 1e-10


class TestDuality:
    def test_zero_test_function(self, ou_gibbs):
        w = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.3, 1.0, 1.0, 0.0)).w
        gen = make_shannon(1.0)
        val = duality_lower_bound(constant_field(ou_gibbs.grid, 0.0), w, ou_gibbs, gen)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert val <= energy(w, ou_gibbs, gen)

    @pytest.mark.parametrize("gen", [make_shannon(1.0), make_tsallis(2.0, 1.0),
                                     make_tsallis(3.0, 0.5)])
    def test_fenchel_equality_at_the_gradient(self, ou_gibbs, gen):
        w = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.4, 1.0, 1.0, 0.0)).w
        s = ScalarField(ou_gibbs.grid, gen.phi1(w.values))
        gap = energy(w, ou_gibbs, gen) - duality_lower_bound(s, w, ou_gibbs, gen)
        assert abs(gap) <= 1e-8

    def test_random_bounded_test_functions(self, ou_gibbs):
        rng = np.random.default_rng(71)
        gen = make_shannon(1.0)
        w = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0)).w
        e = energy(w, ou_gibbs, gen)
        for _ in range(50):
            s = ScalarField(ou_gibbs.grid, 2.0 * np.tanh(
                rng.normal(scale=1.5) + rng.normal(scale=0.8) * ou_gibbs.grid.nodes[:, 0]))
            assert duality_lower_bound(s, w, ou_gibbs, gen) <= e + 1e-10


class TestOuOracle:
    def test_initial_values(self):
        assert ou_oracle(0.5, 1.0, 1.0, 0.0) == (0.5, 0.125)

    def test_long_time_limit(self):
        mean, e = ou_oracle(0.5, 1.0, 1.0, 1e3)
        assert mean == pytest.approx(0.0, abs=1e-300)
        assert e == pytest.approx(0.0, abs=1e-300)

    def test_half_life(self):
        mean, _ = ou_oracle(0.5, 2.0, 1.0, math.log(2.0) / 2.0)
        assert mean == pytest.approx(0.25)


class TestFitDecayRate:
    @staticmethod
    def synth_records(rate, e_star, n=60, t_max=6.0):
        t = np.linspace(0.0, t_max, n)
        return [EnergyRecord(t=tk, energy=0.3 * math.exp(-rate * tk) + e_star,
                             fisher=0.0, mass=1.0, w_min=0.0, w_max=1.0) for tk in t]

    def test_exact_exponential_recovered(self):
        report = fit_decay_rate(self.synth_records(1.7, 0.05), 0.05, 1.0)
        assert report.fitted_rate == pytest.approx(1.7, abs=1e-6)
        assert report.fit_residual < 1e-10
        assert report.lambda_theory == 1.0

    def test_window_respects_bounds(self):
        report = fit_decay_rate(self.synth_records(2.0, 0.0), 0.0, 2.0)
        lo, hi = report.fit_window
        # window opens where the excess halves and closes at the noise floor
        assert lo >= math.log(2.0) / 2.0 - 0.15
        assert hi <= 6.0 * math.log(10.0) / 2.0 + 0.15

    def test_too_few_usable_records(self):
        records = self.synth_records(1.0, 0.0, n=5, t_max=1.0)
        with pytest.raises(ValueError):
            fit_decay_rate(records, 0.0, 1.0)

    def test_ou_trajectory_rate(self, ou_gibbs):
        gen = make_shannon(1.0)
        cfg = SolverConfig(dt=1e-3, t_final=3.0, record_every=10)
        state = init_state(ou_gibbs, ou_relative_density(ou_gibbs.grid, 0.5, 1.0, 1.0, 0.0))
        records = []
        evolve(state, cfg, observer=lambda t, w: records.append(snapshot(t, w, ou_gibbs, gen)))
        report = fit_decay_rate(records, 0.0, 2.0)
        assert report.fitted_rate == pytest.approx(2.0, rel=0.05)
        assert report.fitted_rate >= 0.95 * report.lambda_theory
