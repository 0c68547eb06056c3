"""Datasets, activations, bounded losses, and the one-hidden-unit network.

The network maps a feature ``z`` to ``x0 * sigma(x' . z)`` where the
parameter vector splits as ``x = (x0, x')``.  Its generalization error
against a weighted dataset is the weighted sum of per-point losses, and it is
globally bounded by ``loss.bound * total_mass`` because every admissible loss
must declare a finite sup norm.  All operations here are pure functions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DataPoint:
    z: np.ndarray
    y: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))
        if self.weight < 0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True)
class Dataset:
    """Weighted atoms of a finite measure on feature-label pairs.

    Weights need not sum to one; ``total_mass`` is their sum and must be
    positive and finite.
    """

    points: tuple[DataPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("dataset must contain at least one point")
        dims = {p.z.size for p in self.points}
        if len(dims) != 1:
            raise ValueError(f"inconsistent feature dimensions in dataset: {sorted(dims)}")
        if not (0.0 < self.total_mass < np.inf):
            raise ValueError(f"total mass must be positive and finite, got {self.total_mass}")

    @property
    def total_mass(self) -> float:
        return float(sum(p.weight for p in self.points))

    @property
    def feature_dim(self) -> int:
        return self.points[0].z.size

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(z, y, weight)`` arrays for vectorized evaluation."""
        z = np.stack([p.z for p in self.points])
        y = np.array([p.y for p in self.points])
        w = np.array([p.weight for p in self.points])
        return z, y, w


@dataclass(frozen=True)
class Activation:
    """Smooth scalar activation."""

    kind: str
    eval: Callable[[np.ndarray], np.ndarray]


def arctan_sigmoid() -> Activation:
    """The smooth bounded activation ``(1 + arctan s) / 2``."""
    return Activation(
        kind="arctan-sigmoid",
        eval=lambda s: 0.5 * (1.0 + np.arctan(s)),
    )


def tanh_sigmoid() -> Activation:
    return Activation(
        kind="tanh-sigmoid",
        eval=lambda s: 0.5 * (1.0 + np.tanh(s)),
    )


def tabulated_activation(s_table, values) -> Activation:
    """Cubic-spline activation through tabulated samples.

    Outside the table the spline is extrapolated.
    """
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(np.asarray(s_table, dtype=float), np.asarray(values, dtype=float))
    return Activation(kind="custom-tabulated", eval=spline)


def activation_from_config(kind: str) -> Activation:
    if kind == "arctan-sigmoid":
        return arctan_sigmoid()
    if kind == "tanh-sigmoid":
        return tanh_sigmoid()
    raise ValueError(f"unknown activation kind {kind!r}")


@dataclass(frozen=True)
class Loss:
    """Bounded loss with a declared global sup norm.

    ``eval(a, b)`` must take values in ``[0, bound]`` for every real ``a``
    and admissible label ``b``.  The boundedness is what makes the data term
    of the potential, and hence the convergence-rate constant, finite.
    """

    kind: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bound: float


def saturating_squared_loss() -> Loss:
    """Default loss ``1 - exp(-(a-b)^2 / 2)``, bounded by 1."""

    def ev(a, b):
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return -np.expm1(-0.5 * d * d)

    return Loss(kind="saturating-squared", eval=ev, bound=1.0)


def zero_loss() -> Loss:
    """Identically-zero loss; turns the data term off entirely."""
    zero = lambda a, b: np.zeros(np.broadcast(np.asarray(a), np.asarray(b)).shape)
    return Loss(kind="zero", eval=zero, bound=0.0)


def loss_from_config(kind: str) -> Loss:
    if kind == "saturating-squared":
        return saturating_squared_loss()
    if kind == "zero":
        return zero_loss()
    raise ValueError(f"unknown loss kind {kind!r}")


def _split_params(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] < 2 and x.shape[1] != 1:
        raise ValueError("parameter vectors need at least the output weight")
    return x[:, 0], x[:, 1:]


def eval_network(x, z, act: Activation):
    """Network output ``x0 * sigma(x' . z)`` for parameters ``x = (x0, x')``.

    ``x`` may be a single parameter vector or a stack of them (one row per
    parameter point); the output is then a scalar or a vector.
    """
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    x0, xp = _split_params(x_arr)
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    if z_arr.size != xp.shape[1]:
        raise ValueError(
            f"feature dimension {z_arr.size} does not match parameter dimension "
            f"{xp.shape[1] + 1} (expected {xp.shape[1]})"
        )
    out = x0 * act.eval(xp @ z_arr)
    return float(out[0]) if single else out


def generalization_error(x, data: Dataset, loss: Loss, act: Activation):
    """Weighted dataset loss of the network at parameters ``x``.

    Accepts a single parameter vector or a stack; the result never exceeds
    ``loss.bound * data.total_mass``.
    """
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    x0, xp = _split_params(x_arr)
    z, y, wgt = data.arrays()
    if z.shape[1] != xp.shape[1]:
        raise ValueError(
            f"dataset feature dimension {z.shape[1]} does not match parameter dimension "
            f"{xp.shape[1] + 1}"
        )
    pre = xp @ z.T                      # (npoints_x, natoms)
    outputs = x0[:, None] * act.eval(pre)
    total = loss.eval(outputs, y[None, :]) @ wgt
    return float(total[0]) if single else total


def load_dataset_csv(path, z_lo, z_hi, y_lo: float, y_hi: float) -> Dataset:
    """Read weighted atoms from a CSV with header ``z_1,...,z_k,y[,weight]``.

    The declared feature box and label interval are enforced on ingestion;
    any out-of-bounds row aborts with its row number.  A missing weight
    column assigns every atom weight ``1/n``.
    """
    z_lo = np.atleast_1d(np.asarray(z_lo, dtype=float))
    z_hi = np.atleast_1d(np.asarray(z_hi, dtype=float))
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader)]
        z_cols = [i for i, c in enumerate(header) if c.startswith("z_")]
        if "y" not in header:
            raise ValueError(f"{path}: header must contain a 'y' column")
        y_col = header.index("y")
        w_col = header.index("weight") if "weight" in header else None
        if len(z_cols) != z_lo.size or len(z_cols) != z_hi.size:
            raise ValueError(
                f"{path}: {len(z_cols)} feature columns but bounds declare {z_lo.size}"
            )
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            z = np.array([float(row[i]) for i in z_cols])
            y = float(row[y_col])
            if np.any(z < z_lo) or np.any(z > z_hi):
                raise ValueError(f"{path}: row {row_no}: feature outside declared bounds")
            if y < y_lo or y > y_hi:
                raise ValueError(f"{path}: row {row_no}: label outside declared bounds")
            w = float(row[w_col]) if w_col is not None else None
            rows.append((z, y, w))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    default_w = 1.0 / len(rows)
    points = tuple(
        DataPoint(z=z, y=y, weight=w if w is not None else default_w) for z, y, w in rows
    )
    return Dataset(points=points)
