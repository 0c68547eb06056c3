"""Acceptance suite: analytic-oracle reproduction plus property certificates.

Each test prints one PASS line (on top of its assertions) so a verbose run
reads as a checklist.  The two session fixtures evolve the bundled
configurations once: the exactly solvable quadratic-potential benchmark and
the two-dimensional three-atom potential.  Because the flow itself does not
depend on the entropy generator, one trajectory yields energy records for
every generator at once.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from entroflow import (
    ScalarField,
    SolverConfig,
    build_grid,
    build_potential,
    compute_minimizer,
    dissipation_check,
    duality_lower_bound,
    energy,
    evolve,
    fit_decay_rate,
    init_state,
    integrate,
    lambda_rate,
    legendre_conjugate,
    make_shannon,
    make_tsallis,
    ou_relative_density,
    psi_decompose,
    snapshot,
    sobolev_ratio,
)
from entroflow.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def random_positive_density(gibbs, rng, roughness=0.6, modes=4):
    """Smooth, strictly positive, unit-mass density from random cosine modes."""
    g = gibbs.grid
    field = np.zeros(g.num_nodes)
    for a in range(g.dim):
        x = (g.nodes[:, a] - g.lo[a]) / (g.hi[a] - g.lo[a])
        for k in range(1, modes + 1):
            field += roughness * rng.normal() / k * np.cos(math.pi * k * x)
    w = np.exp(field)
    mass = gibbs.operator().inner(w, np.ones_like(w))
    return ScalarField(g, w / mass)


@pytest.fixture(scope="session")
def ou_run():
    """Solvable benchmark: quadratic potential, translate start, t_final = 3."""
    cfg = load_config(CONFIG_DIR / "ou_shannon.toml")
    gibbs = cfg.build_gibbs()
    gens = {
        "shannon": make_shannon(1.0),
        "tsallis-1.5": make_tsallis(1.5, 1.0),
        "tsallis-2": make_tsallis(2.0, 1.0),
        "tsallis-3": make_tsallis(3.0, 1.0),
    }
    state = init_state(gibbs, cfg.initial_density(gibbs))
    records = {name: [] for name in gens}

    def observer(t, w):
        for name, gen in gens.items():
            records[name].append(snapshot(t, w, gibbs, gen))

    started = time.perf_counter()
    final, steps = evolve(state, cfg, observer=observer)
    elapsed = time.perf_counter() - started
    return {
        "cfg": cfg, "gibbs": gibbs, "gens": gens, "records": records,
        "final": final, "steps": steps, "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def atoms_run():
    """Three-atom potential in two dimensions, t_final = 5."""
    cfg = load_config(CONFIG_DIR / "atoms2d.toml")
    gibbs = cfg.build_gibbs()
    gen = make_shannon(1.0)
    state = init_state(gibbs, cfg.initial_density(gibbs))
    records = []
    started = time.perf_counter()
    final, steps = evolve(state, cfg,
                          observer=lambda t, w: records.append(snapshot(t, w, gibbs, gen)))
    elapsed = time.perf_counter() - started
    return {
        "cfg": cfg, "gibbs": gibbs, "gen": gen, "records": records,
        "final": final, "steps": steps, "elapsed": elapsed,
    }


def test_criterion_01_ou_rate_reproduction(ou_run):
    """Fitted decay rate of the solvable benchmark lands in [1.9, 2.1] in < 60 s."""
    records = ou_run["records"]["shannon"]
    report = fit_decay_rate(records, 0.0, lambda_rate(1.0, 1.0, 0.0))
    assert report.lambda_theory == 2.0
    assert 1.9 <= report.fitted_rate <= 2.1
    assert ou_run["elapsed"] < 60.0
    print(f"\nACCEPTANCE 1 PASS: fitted rate {report.fitted_rate:.4f} in [1.9, 2.1], "
          f"run took {ou_run['elapsed']:.1f} s")


def test_criterion_02_ou_energy_values(ou_run):
    """Energy matches the translated-Gaussian closed form at t = 0, 0.5, 1, 2."""
    records = ou_run["records"]["shannon"]

    def at(t):
        return min(records, key=lambda r: abs(r.t - t))

    e0 = at(0.0)
    assert e0.t == 0.0
    assert e0.energy == pytest.approx(0.125, abs=1e-3)
    for t in (0.5, 1.0, 2.0):
        rec = at(t)
        assert abs(rec.t - t) < 1e-9
        assert rec.energy == pytest.approx(0.125 * math.exp(-2.0 * t), rel=0.02)
    print(f"\nACCEPTANCE 2 PASS: E(0) = {e0.energy:.6f} "
          "and E(t) tracks 0.125*exp(-2t) within 2%")


def _assert_conserved(records, label):
    mass_drift = max(abs(r.mass - 1.0) for r in records)
    min_w = min(r.w_min for r in records)
    sup0 = records[0].w_max
    sup_ok = all(r.w_max <= sup0 * (1 + 1e-10) for r in records)
    assert mass_drift <= 1e-8, f"{label}: mass drift {mass_drift}"
    assert min_w >= -1e-12, f"{label}: negative density {min_w}"
    assert sup_ok, f"{label}: sup bound violated"
    return mass_drift, min_w


def test_criterion_03_conservation_suite(ou_run, atoms_run):
    """Unit mass, nonnegativity, and the sup bound hold at every recorded time."""
    d1, m1 = _assert_conserved(ou_run["records"]["shannon"], "benchmark")
    d2, m2 = _assert_conserved(atoms_run["records"], "three-atom")
    print(f"\nACCEPTANCE 3 PASS: mass drift <= {max(d1, d2):.2e}, "
          f"min density >= {min(m1, m2):.2e}, sup bound holds on both runs")


def test_criterion_04_dissipation_identity(ou_run):
    """Centered dE/dt matches the negated Fisher term within 5% on the benchmark."""
    report = dissipation_check(ou_run["records"]["shannon"])
    assert report.max_rel_error <= 0.05
    assert report.monotone
    print(f"\nACCEPTANCE 4 PASS: max dissipation mismatch {report.max_rel_error:.3%} <= 5%")


def test_criterion_05_sobolev_bound(ou_run, atoms_run):
    """Entropy-to-Fisher ratios respect exp(2M/tau) * tau / (2 lam), with the
    clean bound saturated by Gaussian translates."""
    gen = make_shannon(1.0)
    violations = 0
    checked = 0
    for run, label in ((ou_run, "gaussian"), (atoms_run, "atoms")):
        gibbs = run["gibbs"]
        bound = math.exp(2.0 * gibbs.m_grid / gibbs.tau) * gibbs.tau / (2.0 * gibbs.lam)
        rng = np.random.default_rng(505)
        for _ in range(100):
            w = random_positive_density(gibbs, rng)
            ratio = sobolev_ratio(w, gibbs, gen)
            if ratio is not None:
                checked += 1
                if ratio > bound:
                    violations += 1
    assert violations == 0
    gibbs = ou_run["gibbs"]
    for m0 in (0.3, 0.5, -0.4):
        w = init_state(gibbs, ou_relative_density(gibbs.grid, m0, 1.0, 1.0, 0.0)).w
        ratio = sobolev_ratio(w, gibbs, gen)
        assert ratio == pytest.approx(0.5, rel=0.02)
    print(f"\nACCEPTANCE 5 PASS: 0 of {checked} random densities violate the ratio bound; "
          "translates saturate tau/(2 lam) within 2%")


def test_criterion_06_tsallis_rate_bound(ou_run):
    """Tsallis energies on the benchmark decay at least at 95% of the bound."""
    theory = lambda_rate(1.0, 1.0, 0.0)
    ratios = {}
    for q in (1.5, 2.0, 3.0):
        records = ou_run["records"][f"tsallis-{q:g}"]
        report = fit_decay_rate(records, 0.0, theory)
        assert report.fitted_rate >= 0.95 * theory
        ratios[q] = report.fitted_rate / theory
    print("\nACCEPTANCE 6 PASS: tsallis fitted/guaranteed ratios "
          + ", ".join(f"q={q:g}: {r:.3f}" for q, r in ratios.items()))


def test_criterion_07_nontrivial_potential(atoms_run):
    """Three-atom potential: rate above 95% of the bound and the final state
    within 1e-2 of the minimizer in weighted L1, in under 10 minutes."""
    gibbs = atoms_run["gibbs"]
    theory = lambda_rate(gibbs.lam, gibbs.tau, gibbs.m_grid)
    report = fit_decay_rate(atoms_run["records"], 0.0, theory)
    assert report.fitted_rate >= 0.95 * theory
    w_star, _ = compute_minimizer(gibbs, atoms_run["gen"])
    final = atoms_run["final"]
    l1 = integrate(ScalarField(gibbs.grid, np.abs(final.w.values - w_star.values)),
                   weight=gibbs.gamma)
    assert l1 <= 1e-2
    assert atoms_run["elapsed"] < 600.0
    print(f"\nACCEPTANCE 7 PASS: fitted {report.fitted_rate:.3f} >= 0.95 * {theory:.3f}, "
          f"final L1 distance {l1:.2e} <= 1e-2, run took {atoms_run['elapsed']:.0f} s")


def test_criterion_08_minimizer_certificate(ou_run, atoms_run):
    """No random unit-mass density beats the constant minimizer's energy."""
    worst = math.inf
    for run in (ou_run, atoms_run):
        gibbs = run["gibbs"]
        for gen in (make_shannon(1.0), make_tsallis(2.0, 1.0)):
            w_star, e_star = compute_minimizer(gibbs, gen)
            assert energy(w_star, gibbs, gen) == e_star
            rng = np.random.default_rng(808)
            for _ in range(50):
                w = random_positive_density(gibbs, rng)
                worst = min(worst, energy(w, gibbs, gen) - e_star)
                assert energy(w, gibbs, gen) >= e_star - 1e-10
    print(f"\nACCEPTANCE 8 PASS: min energy excess over the floor {worst:.3e} >= -1e-10")


def test_criterion_09_duality_certificate(ou_run, atoms_run):
    """Fenchel lower bounds never exceed the energy; equality at the gradient."""
    worst_gap = math.inf
    worst_eq = 0.0
    for run in (ou_run, atoms_run):
        gibbs = run["gibbs"]
        rng = np.random.default_rng(909)
        for gen in (make_shannon(1.0), make_tsallis(2.0, 1.0)):
            w = random_positive_density(gibbs, rng)
            e = energy(w, gibbs, gen)
            for _ in range(50):
                amp = rng.uniform(0.2, 2.0)
                sv = amp * np.tanh(rng.normal()
                                   + gibbs.grid.nodes @ rng.normal(scale=0.7, size=gibbs.grid.dim))
                bound = duality_lower_bound(ScalarField(gibbs.grid, sv), w, gibbs, gen)
                worst_gap = min(worst_gap, e - bound)
                assert bound <= e + 1e-10
            s_eq = ScalarField(gibbs.grid, gen.phi1(w.values))
            eq_gap = abs(e - duality_lower_bound(s_eq, w, gibbs, gen))
            worst_eq = max(worst_eq, eq_gap)
            assert eq_gap <= 1e-8
    print(f"\nACCEPTANCE 9 PASS: min duality gap {worst_gap:.3e} >= -1e-10, "
          f"max equality defect {worst_eq:.2e} <= 1e-8")


def test_criterion_10_entropy_unit_suite(ou_run, atoms_run):
    """Generator normalization, chord split, conjugates, and mass finiteness."""
    gens = [make_shannon(1.0), make_shannon(0.5), make_tsallis(1.5, 1.0),
            make_tsallis(2.0, 1.0), make_tsallis(3.0, 2.0)]
    rng = np.random.default_rng(1010)
    for gen in gens:
        assert float(gen.phi(np.array(1.0))) == 0.0
        s = np.geomspace(1e-6, 1e4, 200)
        rebuilt = s * psi_decompose(gen, s) + gen.phi_at_0
        np.testing.assert_allclose(rebuilt, gen.phi(s), rtol=1e-12, atol=1e-12)
        lo = rng.uniform(0.0, 50.0, size=1000)
        hi = lo + rng.uniform(1e-3, 10.0, size=1000)
        assert np.all(np.asarray(psi_decompose(gen, lo)) < np.asarray(psi_decompose(gen, hi)))

    for r in np.linspace(-4.0, 4.0, 33):
        assert legendre_conjugate(make_shannon(1.0), float(r)) == pytest.approx(
            math.exp(r) - 1.0, abs=1e-8, rel=1e-8)
        piecewise = r + r * r / 4.0 if r >= -2.0 else -1.0
        assert legendre_conjugate(make_tsallis(2.0, 1.0), float(r)) == pytest.approx(
            piecewise, abs=1e-8)

    margins = []
    for run in (ou_run, atoms_run):
        gibbs = run["gibbs"]
        assert gibbs.Z_raw <= gibbs.mass_bound()
        margins.append(gibbs.mass_bound() - gibbs.Z_raw)
    print(f"\nACCEPTANCE 10 PASS: generator identities hold; "
          f"mass-bound margins {margins[0]:.2e} and {margins[1]:.2e}")


def _ou_l1_error(n, dt, scheme, t_final=1.0):
    g = build_grid(1, -6, 6, n)
    gibbs = build_potential(None, None, None, 1.0, 1.0, g)
    state = init_state(gibbs, ou_relative_density(g, 0.5, 1.0, 1.0, 0.0))
    final, _ = evolve(state, SolverConfig(dt=dt, t_final=t_final, scheme=scheme))
    exact = ou_relative_density(g, 0.5, 1.0, 1.0, t_final)
    diff = ScalarField(g, np.abs(final.w.values - exact.values))
    return integrate(diff, weight=gibbs.gamma)


def test_criterion_11_discretization_convergence():
    """Weighted L1 error vs the exact solution: ~2nd order in h, ~1st in dt."""
    errs_h = [_ou_l1_error(n, 1e-3, "crank-nicolson") for n in (101, 201, 401)]
    orders_h = [math.log2(errs_h[k] / errs_h[k + 1]) for k in range(2)]
    assert min(orders_h) >= 1.8
    # a fine grid keeps the spatial error floor out of the time-order estimate
    errs_dt = [_ou_l1_error(801, dt, "implicit-euler") for dt in (4e-3, 2e-3, 1e-3)]
    orders_dt = [math.log2(errs_dt[k] / errs_dt[k + 1]) for k in range(2)]
    assert min(orders_dt) >= 0.9
    print(f"\nACCEPTANCE 11 PASS: spatial orders {[f'{o:.2f}' for o in orders_h]}, "
          f"time orders {[f'{o:.2f}' for o in orders_dt]}")


def test_criterion_12_tsallis_energy_values(ou_run):
    """Tsallis energies match the translated-Gaussian closed form at t = 0, 0.5, 1, 2.

    With ``w = exp(lam m x/tau - lam m^2/(2 tau))`` against the Gaussian weight,
    ``integral w^q = exp(q(q-1) lam m^2/(2 tau))``, so the energy is
    ``tau/(q-1) (exp(q(q-1) lam m(t)^2/(2 tau)) - 1)``; the benchmark has
    ``lam = tau = 1`` and ``m(t) = 0.5 e^{-t}``.
    """
    worst = 0.0
    for q in (1.5, 2.0, 3.0):
        records = ou_run["records"][f"tsallis-{q:g}"]
        for t in (0.0, 0.5, 1.0, 2.0):
            rec = min(records, key=lambda r: abs(r.t - t))
            assert abs(rec.t - t) < 1e-9
            m = 0.5 * math.exp(-t)
            exact = math.expm1(q * (q - 1.0) * m * m / 2.0) / (q - 1.0)
            assert rec.energy == pytest.approx(exact, rel=0.02)
            worst = max(worst, abs(rec.energy / exact - 1.0))
    print(f"\nACCEPTANCE 12 PASS: Tsallis q = 1.5, 2, 3 energies within {worst:.2%} "
          "of the closed form (tolerance 2%)")
