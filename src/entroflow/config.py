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
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from . import model as model_mod
from .grid import Grid, ScalarField, build_grid, field_from_csv
from .potential import GibbsField, build_potential, certified_envelope, default_box
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


# a value runs up to the first '#' outside a quoted string
_VALUE = re.compile(r"""(?:"[^"]*"|'[^']*'|[^#])*""")


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
        value = _VALUE.match(value).group().strip()
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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
    """One experiment, resolved: the objects a run is a fixed function of.

    ``resolve_config`` builds and validates ``grid``, ``generator`` and the
    ``data``, ``loss`` and ``activation`` of the potential (``data`` is
    ``None`` without a dataset), and joins ``initial_path`` onto the config
    file's directory.  The solver settings stay plain numbers, from which
    ``solver_config`` builds a ``SolverConfig``.
    """

    lam: float
    tau: float
    generator: entropy_mod.EntropyGenerator
    grid: Grid
    data: model_mod.Dataset | None
    loss: model_mod.Loss
    activation: model_mod.Activation
    dt: float
    t_final: float
    scheme: str
    record_every: int
    linear_tol: float
    max_linear_iters: int
    initial_kind: str
    initial_mean: list[float]
    initial_stdev: float
    initial_path: Path | None
    seed: int
    snapshot_every: int

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            dt=self.dt, t_final=self.t_final, scheme=self.scheme,
            linear_tol=self.linear_tol, record_every=self.record_every,
            max_linear_iters=self.max_linear_iters,
        )

    def build_gibbs(self) -> GibbsField:
        try:
            return build_potential(self.data, self.loss, self.activation, self.lam, self.tau,
                                   self.grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def initial_density(self, gibbs: GibbsField) -> ScalarField:
        grid = gibbs.grid
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
            try:
                var = self.initial_stdev**2
            except OverflowError as exc:
                raise ConfigError(f"initial.stdev = {self.initial_stdev:g} is too large: "
                                  f"its square overflows") from exc
            with np.errstate(over="ignore"):
                dist2 = np.sum((grid.nodes - mean[None, :])**2, axis=1)
            if not np.all(np.isfinite(dist2)):
                raise ConfigError(f"initial.mean = {mean.tolist()} is too far from the grid: "
                                  f"its squared distance to a node overflows")
            bump = np.exp(-0.5 * dist2 / var)
            if not np.any(bump > 0):
                raise ConfigError("the initial gaussian underflows to 0 at every node")
            return ScalarField(grid, bump / gibbs.gamma.values)
        try:
            w0 = field_from_csv(grid, self.initial_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial density file: {exc}") from exc
        mass = gibbs.operator().inner(w0.values, 1.0)
        if np.any(w0.values < 0) or not mass > 0:
            raise ConfigError(f"initial density file {self.initial_path}: values must be "
                              f"nonnegative with positive weighted mass")
        return w0


_REQUIRED = object()


def _number(raw: dict, key: str, kind=float, default=_REQUIRED, many: bool = False):
    """Pop ``key`` from ``raw`` as a finite ``kind``, or a list of them if ``many``.

    A scalar given for a ``many`` key becomes a one-entry list.  An absent
    key takes ``default``; a ``None`` default stays ``None``.  A boolean is
    no number, and an ``int`` key takes integral floats (``1e3``) only.
    """
    value = raw.pop(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing required config key {key!r}")
    if value is None and default is None:
        return None
    items = value if many and isinstance(value, list) else [value]
    try:
        if any(isinstance(v, bool) or kind is int and isinstance(v, float) and not v.is_integer()
               for v in items):
            raise ValueError(value)
        out = [kind(v) for v in items]
        valid = kind is int or all(math.isfinite(v) for v in out)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {what}{' or a list of them' if many else ''}, "
                          f"got {value!r}")
    return out if many else out[0]


def resolve_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a flat config dict and build the objects it describes.

    Each key is read once; numbers must be finite, and a key that nothing
    reads is an error.  The grid (with the automatic box when ``grid.lo``
    and ``grid.hi`` are omitted), the entropy generator, and the dataset,
    loss and activation of the potential are built here, each checked by
    its own constructor, and kept on the ``RunConfig``.  Relative
    ``dataset`` and ``initial.path`` names are taken from ``base_dir``
    (default: the working directory).  Invalid input raises ``ConfigError``.
    """
    raw = dict(raw)
    base_dir = Path.cwd() if base_dir is None else Path(base_dir)
    try:
        lam, tau = _number(raw, "lambda"), _number(raw, "tau")
        for key, value in (("lambda", lam), ("tau", tau)):
            if not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        if not math.isfinite(tau / lam):  # sqrt(tau/lambda) scales initial.stdev and the box
            raise ConfigError(f"lambda = {lam!r} is too small for tau = {tau!r}: "
                              f"tau/lambda overflows")
        dim = _number(raw, "grid.dim", int)
        if dim not in (1, 2, 3):
            raise ConfigError(f"grid.dim must be 1, 2 or 3, got {dim}")
        lo = _number(raw, "grid.lo", default=None, many=True)
        hi = _number(raw, "grid.hi", default=None, many=True)
        if (lo is None) != (hi is None):
            raise ConfigError("grid.lo and grid.hi must be given together")

        act = model_mod.activation_from_config(str(raw.pop("activation", "arctan-sigmoid")))
        loss = model_mod.loss_from_config(str(raw.pop("loss", "saturating-squared")))
        bounds = [_number(raw, "z_min", default=None, many=True),
                  _number(raw, "z_max", default=None, many=True),
                  _number(raw, "y_min", default=None), _number(raw, "y_max", default=None)]
        dataset, data = raw.pop("dataset", "none"), None
        if dataset not in ("none", "", None):
            if any(b is None for b in bounds):
                raise ConfigError("a dataset requires declared feature and label bounds")
            path = base_dir / str(dataset)
            if not path.is_file():
                raise ConfigError(f"dataset file not found: {path}")
            data = model_mod.load_dataset_csv(path, *bounds)
            if data.feature_dim != dim - 1:
                raise ConfigError(f"dataset features have dimension {data.feature_dim}; "
                                  f"grid dimension {dim} requires {dim - 1}")
        if lo is None:
            # box wide enough that the relative tail mass stays below 1e-10,
            # accounting for the dataset's certified envelope on the data term
            lo, hi = default_box(lam, tau, dim, m_envelope=certified_envelope(data, loss))

        kind, init_path = str(raw.pop("initial.kind", "uniform")), raw.pop("initial.path", None)
        if kind == "from-file":
            if not init_path:
                raise ConfigError("initial.kind = from-file requires initial.path")
            init_path = base_dir / str(init_path)
            if not init_path.is_file():
                raise ConfigError(f"initial density file not found: {init_path}")
        elif kind not in ("uniform", "gaussian"):
            raise ConfigError(f"unknown initial density kind {kind!r}")

        normalize_gamma = raw.pop("normalize_gamma", True)
        if normalize_gamma is not True:  # the flow always runs on the normalized weight
            raise ConfigError(f"normalize_gamma must be true, got {normalize_gamma!r}")
        family = str(raw.pop("entropy.family", "shannon"))
        cfg = RunConfig(
            lam=lam,
            tau=tau,
            generator=entropy_mod.from_config(family, tau, _number(raw, "entropy.q", default=None)),
            grid=build_grid(dim, lo, hi, _number(raw, "grid.n", int, many=True)),
            data=data,
            loss=loss,
            activation=act,
            dt=_number(raw, "solver.dt"),
            t_final=_number(raw, "solver.t_final"),
            scheme=str(raw.pop("solver.scheme", "implicit-euler")),
            record_every=_number(raw, "solver.record_every", int, SolverConfig.record_every),
            linear_tol=_number(raw, "solver.linear_tol", float, SolverConfig.linear_tol),
            max_linear_iters=_number(raw, "solver.max_iters", int, SolverConfig.max_linear_iters),
            initial_kind=kind,
            initial_mean=_number(raw, "initial.mean", float, [0.0], many=True),
            initial_stdev=_number(raw, "initial.stdev", float, np.sqrt(tau / lam)),
            initial_path=init_path if kind == "from-file" else None,
            seed=_number(raw, "seed", int, 0),
            snapshot_every=_number(raw, "output.snapshot_every", int, 0),
        )
        if not cfg.initial_stdev > 0:
            raise ConfigError(f"initial.stdev must be positive, got {cfg.initial_stdev}")
        if cfg.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
        cfg.solver_config()  # SolverConfig checks the solver settings
    except (ValueError, ArithmeticError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if raw:
        raise ConfigError(f"unknown config key(s) {', '.join(repr(k) for k in raw)}")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    return resolve_config(load_config_dict(path), base_dir=path.parent)
