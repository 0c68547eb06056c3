"""The verification suite as a library: coverage of the dataset-backed checks."""

import math

import numpy as np
import pytest

from entroflow import build_grid, build_potential
from entroflow.config import resolve_config
from entroflow.verify import _smooth_density, run_verification


@pytest.fixture
def atoms_config(tmp_path):
    csv = tmp_path / "atoms.csv"
    csv.write_text("z_1,y,weight\n-0.5,0.2,0.1\n0.0,0.8,0.1\n0.6,0.5,0.1\n", encoding="utf-8")
    raw = {
        "dataset": str(csv),
        "z_min": [-1.0], "z_max": [1.0], "y_min": 0.0, "y_max": 1.0,
        "lambda": 1.0, "tau": 1.0,
        "entropy.family": "tsallis", "entropy.q": 2.0,
        "grid.dim": 2, "grid.lo": [-6.0], "grid.hi": [6.0], "grid.n": [41],
        "solver.dt": 2e-3, "solver.t_final": 0.2,
        "initial.kind": "gaussian", "initial.mean": [0.3, 0.3],
        "seed": 11,
    }
    return resolve_config(raw, base_dir=tmp_path)


def test_dataset_checks_present_and_passing(atoms_config):
    results = run_verification(atoms_config)
    by_name = {r.name: r for r in results}
    assert "potential.data_term_envelope" in by_name
    assert by_name["potential.data_term_envelope"].margin >= 0
    assert "energy.sobolev_ratio_bound" in by_name
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_margins_are_finite(atoms_config):
    for result in run_verification(atoms_config):
        assert np.isfinite(result.margin)


def test_smooth_density_matches_per_node_formula():
    """Cosines evaluated per axis and broadcast give exactly the per-node densities."""
    g = build_grid(3, (-4.0, -3.0, -5.0), (3.0, 5.0, 4.0), (5, 6, 7))
    gibbs = build_potential(None, None, None, 1.0, 1.0, g)
    rng = np.random.default_rng(17)
    field = np.zeros(g.num_nodes)
    for a in range(g.dim):
        x = (g.nodes[:, a] - g.lo[a]) / (g.hi[a] - g.lo[a])
        for k in range(1, 5):
            field += 0.6 * rng.normal() / k * np.cos(math.pi * k * x)
    w = np.exp(field)
    expected = w / gibbs.operator().inner(w, np.ones_like(w))
    got = _smooth_density(gibbs, np.random.default_rng(17))
    assert np.all(got.values == expected)


@pytest.mark.parametrize("q", [2.5, 2.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_sobolev_detail_names_the_tsallis_proviso(tmp_path, q, seed):
    """phi-Sobolev inequalities need ``1/phi''`` concave (Chafaï 2004), so the ratio
    bound is proved for Tsallis q in (1, 2] only; above q = 2 the detail says so.

    On this 41-node grid seed 1 fails the check and seed 2 passes it, for both q.
    """
    raw = {
        "lambda": 1.0, "tau": 1.0, "entropy.family": "tsallis", "entropy.q": q,
        "grid.dim": 1, "grid.lo": [-6.0], "grid.hi": [6.0], "grid.n": [41],
        "solver.dt": 2e-3, "solver.t_final": 0.2,
        "initial.kind": "gaussian", "initial.mean": [0.5], "seed": seed,
    }
    results = run_verification(resolve_config(raw, base_dir=tmp_path))
    check = next(r for r in results if r.name == "energy.sobolev_ratio_bound")
    assert ("the bound is proved for Tsallis q in (1, 2] only" in check.detail) == (q > 2.0)
