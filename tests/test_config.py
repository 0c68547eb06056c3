"""Config resolution: every flat dict resolves or raises ConfigError, and the
resolved config carries the dataset, so a command parses its CSV once."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import model
from entroflow.cli import main
from entroflow.config import ConfigError, load_config, resolve_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

BASE = {
    "lambda": 1.0, "tau": 1.0, "entropy.family": "shannon",
    "grid.dim": 1, "grid.lo": [-6.0], "grid.hi": [6.0], "grid.n": [31],
    "solver.dt": 1e-2, "solver.t_final": 0.1,
    "initial.kind": "gaussian", "initial.mean": [0.5], "seed": 3,
}
KEYS = [
    "lambda", "tau", "entropy.family", "entropy.q", "grid.dim", "grid.lo", "grid.hi", "grid.n",
    "dataset", "z_min", "z_max", "y_min", "y_max", "activation", "loss",
    "solver.dt", "solver.t_final", "solver.scheme", "solver.record_every",
    "solver.linear_tol", "solver.max_iters", "initial.kind", "initial.mean",
    "initial.stdev", "initial.path", "normalize_gamma", "seed", "output.snapshot_every",
]
# words the resolver gives a meaning to, so that drawn dicts reach past the
# first type error: families, kinds, schemes and a dataset file in CONFIGS
WORDS = ["shannon", "tsallis", "nonconvex-probe", "uniform", "gaussian", "from-file",
         "crank-nicolson", "implicit-euler", "three_atoms.csv", "none", "zero", "tanh-sigmoid"]
scalars = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(), st.integers(),
    st.floats(1e-3, 10.0), st.integers(1, 40), st.booleans(), st.text(max_size=6),
    st.sampled_from(WORDS), st.none(),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    drawn=st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=8)), values,
                          max_size=5),
    dropped=st.sets(st.sampled_from(sorted(BASE)), max_size=2),
)
def test_every_dict_resolves_or_raises_config_error(drawn, dropped):
    raw = {k: v for k, v in BASE.items() if k not in dropped}
    raw.update(drawn)
    try:
        cfg = resolve_config(raw, base_dir=CONFIGS)
    except ConfigError:
        return
    numbers = [cfg.lam, cfg.tau, cfg.dt, cfg.t_final, cfg.linear_tol, cfg.initial_stdev,
               *cfg.grid.lo, *cfg.grid.hi, *cfg.initial_mean]
    assert all(math.isfinite(x) for x in numbers)
    assert set(raw) <= set(KEYS)


def test_integral_floats_read_as_integers():
    """1e3 is an integer; 2.5 and true are rejected (tests/test_cli.py)."""
    cfg = resolve_config({**BASE, "solver.max_iters": 1e3, "grid.n": [31.0], "seed": 3.0})
    assert (cfg.max_linear_iters, cfg.grid.n, cfg.seed) == (1000, (31,), 3)
    assert isinstance(cfg.max_linear_iters, int) and isinstance(cfg.seed, int)


def test_verify_and_run_parse_the_dataset_once(tmp_path, monkeypatch):
    """resolve_config reads the CSV; run and verify use the dataset it built."""
    calls = []
    load = model.load_dataset_csv
    monkeypatch.setattr(model, "load_dataset_csv", lambda *a: calls.append(a) or load(*a))
    cfg = tmp_path / "atoms.toml"
    cfg.write_text((CONFIGS / "atoms2d.toml").read_text(encoding="utf-8")
                   .replace('"three_atoms.csv"', repr(str(CONFIGS / "three_atoms.csv")))
                   .replace("grid.n = [101, 101]", "grid.n = [31, 31]")
                   .replace("solver.t_final = 5.0", "solver.t_final = 0.02"), encoding="utf-8")
    for command in ("verify", "run"):
        calls.clear()
        assert main(["--config", str(cfg), "--out", str(tmp_path / command), command]) == 0
        assert len(calls) == 1, command


def _benchmark_workloads(monkeypatch) -> dict:
    """``WORKLOADS`` of ``benchmarks/run.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location("benchmark_run", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["ou1d", "atoms2d_snap", "ou3d_cn", "atoms2d.toml"])
def test_benchmark_and_bundled_configs_load(tmp_path, monkeypatch, name):
    """Every config the benchmark writes, and each bundled one, resolves and
    builds its Gibbs weight: a key the benchmark writes that the resolver
    rejects would turn every benchmark operation into exit 2."""
    if name.endswith(".toml"):
        path = CONFIGS / name
    else:
        path = _benchmark_workloads(monkeypatch)[name].write_config(tmp_path, 42)
    gibbs = load_config(path).build_gibbs()
    assert abs(gibbs.Z - 1.0) <= 1e-10
