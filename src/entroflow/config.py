"""Run configuration: a flat, human-editable key = value format.

A config file is a sequence of ``key = value`` lines with ``#`` comments.
Values are strings (optionally quoted), booleans, numbers, or bracketed
lists; dotted keys group related settings.  Files written this way with
quoted strings and bracketed lists are also valid TOML, so editors highlight
them nicely.  A ``.json`` file holding one flat object with the same keys is
accepted as an alternative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import model as model_mod
from .grid import Grid, ScalarField, build_grid, field_from_csv
from .potential import (
    GibbsField,
    build_potential,
    certified_envelope,
    default_box,
    normalize_gibbs,
)
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed configuration file or inconsistent settings."""


def _parse_scalar(token: str):
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a dict."""
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            out[key] = [_parse_scalar(t) for t in inner.split(",") if t.strip()] if inner else []
        else:
            out[key] = _parse_scalar(value)
    return out


def load_config_dict(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: JSON config must be a flat object")
        return raw
    return parse_config_text(text)


@dataclass
class RunConfig:
    """Everything one experiment needs, resolved and validated."""

    lam: float
    tau: float
    entropy_family: str
    entropy_q: float | None
    entropy_tau: float
    grid_dim: int
    grid_lo: list[float]
    grid_hi: list[float]
    grid_n: list[int]
    dt: float
    t_final: float
    scheme: str
    record_every: int
    linear_tol: float
    max_linear_iters: int
    dataset_path: str | None
    z_lo: list[float] | None
    z_hi: list[float] | None
    y_lo: float | None
    y_hi: float | None
    activation: str
    loss: str
    initial_kind: str
    initial_mean: list[float]
    initial_stdev: float
    initial_path: str | None
    normalize_gamma: bool
    seed: int
    snapshot_every: int = 0
    base_dir: Path = field(default_factory=Path)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            dt=self.dt, t_final=self.t_final, scheme=self.scheme,
            linear_tol=self.linear_tol, record_every=self.record_every,
            max_linear_iters=self.max_linear_iters,
        )

    def entropy_generator(self) -> entropy_mod.EntropyGenerator:
        return entropy_mod.from_config(self.entropy_family, self.entropy_tau, self.entropy_q)

    def build_grid(self) -> Grid:
        return build_grid(self.grid_dim, self.grid_lo, self.grid_hi, self.grid_n)

    def load_dataset(self):
        if self.dataset_path is None:
            return None, None, None
        path = Path(self.dataset_path)
        if not path.is_absolute():
            path = self.base_dir / path
        if not path.exists():
            raise ConfigError(f"dataset file not found: {path}")
        act = model_mod.activation_from_config(self.activation)
        loss = model_mod.loss_from_config(self.loss)
        if self.z_lo is None or self.z_hi is None or self.y_lo is None or self.y_hi is None:
            raise ConfigError("a dataset requires declared feature and label bounds")
        data = model_mod.load_dataset_csv(path, self.z_lo, self.z_hi, self.y_lo, self.y_hi)
        if data.feature_dim != self.grid_dim - 1:
            raise ConfigError(
                f"dataset features have dimension {data.feature_dim}; "
                f"grid dimension {self.grid_dim} requires {self.grid_dim - 1}"
            )
        return data, loss, act

    def build_gibbs(self) -> GibbsField:
        data, loss, act = self.load_dataset()
        fieldv = build_potential(data, loss, act, self.lam, self.tau, self.build_grid())
        if np.min(fieldv.gamma.values) < np.finfo(float).tiny:
            box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(self.grid_lo, self.grid_hi))
            lo, hi = default_box(self.lam, self.tau, self.grid_dim,
                                 m_envelope=certified_envelope(data, loss))
            raise ConfigError(
                f"Gibbs weight exp(-V/tau) underflows on the box {box} at tau = {self.tau:g}; "
                f"choose another box, e.g. the automatic [{lo:g}, {hi:g}] per axis "
                f"(omit grid.lo and grid.hi)"
            )
        if self.normalize_gamma:
            fieldv = normalize_gibbs(fieldv)
        return fieldv

    def initial_density(self, grid: Grid, gibbs: GibbsField) -> ScalarField:
        if self.initial_kind == "uniform":
            return ScalarField(grid, np.ones(grid.num_nodes))
        if self.initial_kind == "gaussian":
            mean = np.asarray(self.initial_mean, dtype=float)
            if mean.size == 1 and grid.dim > 1:
                mean = np.repeat(mean, grid.dim)
            if mean.size != grid.dim:
                raise ConfigError(
                    f"initial.mean has {mean.size} entries for a {grid.dim}-dimensional grid"
                )
            diff = grid.nodes - mean[None, :]
            bump = np.exp(-0.5 * np.sum(diff**2, axis=1) / self.initial_stdev**2)
            return ScalarField(grid, bump / gibbs.gamma.values)
        if self.initial_kind == "from-file":
            if not self.initial_path:
                raise ConfigError("initial.kind = from-file requires initial.path")
            path = Path(self.initial_path)
            if not path.is_absolute():
                path = self.base_dir / path
            if not path.exists():
                raise ConfigError(f"initial density file not found: {path}")
            try:
                w0 = field_from_csv(grid, path)
            except ValueError as exc:
                raise ConfigError(f"initial density file: {exc}") from exc
            mass = gibbs.operator().inner(w0.values, np.ones_like(w0.values))
            if np.any(w0.values < 0) or not mass > 0:
                raise ConfigError(f"initial density file {path}: values must be nonnegative "
                                  f"with positive weighted mass")
            return w0
        raise ConfigError(f"unknown initial density kind {self.initial_kind!r}")


def _get(raw: dict, key: str, default=None, required: bool = False):
    if key in raw:
        return raw[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _as_float_list(value, name: str) -> list[float]:
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        return [float(v) for v in value]
    raise ConfigError(f"{name} must be a number or a list of numbers, got {value!r}")


def resolve_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a flat config dict and resolve it into a RunConfig."""
    try:
        lam = float(_get(raw, "lambda", required=True))
        tau = float(_get(raw, "tau", required=True))
        for key, value in (("lambda", lam), ("tau", tau)):
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        grid_dim = int(_get(raw, "grid.dim", required=True))
        grid_n_raw = _get(raw, "grid.n", required=True)
        grid_n = [int(v) for v in (grid_n_raw if isinstance(grid_n_raw, list) else [grid_n_raw])]

        explicit_box = "grid.lo" in raw and "grid.hi" in raw
        if explicit_box:
            grid_lo = _as_float_list(raw["grid.lo"], "grid.lo")
            grid_hi = _as_float_list(raw["grid.hi"], "grid.hi")
        else:
            grid_lo, grid_hi = [0.0], [0.0]  # placeholder, resolved below

        dataset = _get(raw, "dataset", "none")
        dataset_path = None if dataset in ("none", "", None) else str(dataset)

        entropy_family = str(_get(raw, "entropy.family", "shannon"))
        entropy_q = _get(raw, "entropy.q")
        entropy_q = float(entropy_q) if entropy_q is not None else None
        entropy_tau = float(_get(raw, "entropy.tau", tau))

        initial_mean = _as_float_list(_get(raw, "initial.mean", [0.0]), "initial.mean")
        cfg = RunConfig(
            lam=lam,
            tau=tau,
            entropy_family=entropy_family,
            entropy_q=entropy_q,
            entropy_tau=entropy_tau,
            grid_dim=grid_dim,
            grid_lo=grid_lo,
            grid_hi=grid_hi,
            grid_n=grid_n,
            dt=float(_get(raw, "solver.dt", required=True)),
            t_final=float(_get(raw, "solver.t_final", required=True)),
            scheme=str(_get(raw, "solver.scheme", "implicit-euler")),
            record_every=int(_get(raw, "solver.record_every", 10)),
            linear_tol=float(_get(raw, "solver.linear_tol", 1e-12)),
            max_linear_iters=int(_get(raw, "solver.max_iters", 2000)),
            dataset_path=dataset_path,
            z_lo=_as_float_list(raw["z_min"], "z_min") if "z_min" in raw else None,
            z_hi=_as_float_list(raw["z_max"], "z_max") if "z_max" in raw else None,
            y_lo=float(raw["y_min"]) if "y_min" in raw else None,
            y_hi=float(raw["y_max"]) if "y_max" in raw else None,
            activation=str(_get(raw, "activation", "arctan-sigmoid")),
            loss=str(_get(raw, "loss", "saturating-squared")),
            initial_kind=str(_get(raw, "initial.kind", "uniform")),
            initial_mean=initial_mean,
            initial_stdev=float(_get(raw, "initial.stdev", np.sqrt(tau / lam))),
            initial_path=_get(raw, "initial.path"),
            normalize_gamma=bool(_get(raw, "normalize_gamma", True)),
            seed=int(_get(raw, "seed", 0)),
            snapshot_every=int(_get(raw, "output.snapshot_every", 0)),
            base_dir=base_dir if base_dir is not None else Path.cwd(),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration value: {exc}") from exc

    try:
        # referenced files must exist and parse before any command starts work
        data, loss, _ = cfg.load_dataset()
        if not cfg.initial_stdev > 0:
            raise ConfigError(f"initial.stdev must be positive, got {cfg.initial_stdev}")
        if cfg.initial_kind == "from-file":
            if not cfg.initial_path:
                raise ConfigError("initial.kind = from-file requires initial.path")
            init_path = Path(cfg.initial_path)
            if not init_path.is_absolute():
                init_path = cfg.base_dir / init_path
            if not init_path.exists():
                raise ConfigError(f"initial density file not found: {init_path}")

        if not explicit_box:
            # box wide enough that the relative tail mass stays below 1e-10,
            # accounting for the dataset's certified envelope on the data term
            envelope = certified_envelope(data, loss)
            lo, hi = default_box(lam, tau, grid_dim, m_envelope=envelope)
            cfg.grid_lo, cfg.grid_hi = [lo], [hi]

        if len(cfg.grid_lo) == 1 and grid_dim > 1:
            cfg.grid_lo = cfg.grid_lo * grid_dim
        if len(cfg.grid_hi) == 1 and grid_dim > 1:
            cfg.grid_hi = cfg.grid_hi * grid_dim
        if len(cfg.grid_n) == 1 and grid_dim > 1:
            cfg.grid_n = cfg.grid_n * grid_dim
        # fail fast on constraints the inner modules would reject anyway
        cfg.solver_config()
        cfg.entropy_generator()
        cfg.build_grid()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    return resolve_config(load_config_dict(path), base_dir=path.parent)
