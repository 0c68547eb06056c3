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
class Dataset:
    """Weighted atoms of a finite measure on feature-label pairs.

    ``z`` holds one feature row per atom, shape ``(n, k)`` with ``k >= 0``;
    ``y`` and ``weight`` have shape ``(n,)``.  The arrays are validated once
    and stored as read-only copies: ``n >= 1``, every value finite, weights
    nonnegative.  Weights need not sum to one; ``total_mass`` is their sum
    and must be positive and finite.
    """

    z: np.ndarray
    y: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("z", "y", "weight"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.z.ndim != 2 or self.y.shape != (len(self.z),) or self.weight.shape != self.y.shape:
            raise ValueError(f"dataset needs z of shape (n, k) and y, weight of shape (n,), "
                             f"got {self.z.shape}, {self.y.shape}, {self.weight.shape}")
        if not self.y.size:
            raise ValueError("dataset must contain at least one point")
        if not all(np.isfinite(a).all() for a in (self.z, self.y, self.weight)):
            raise ValueError("dataset values must be finite")
        if np.any(self.weight < 0):
            raise ValueError(f"weights must be nonnegative, got {self.weight.min()}")
        if not (0.0 < self.total_mass < np.inf):
            raise ValueError(f"total mass must be positive and finite, got {self.total_mass}")

    @property
    def total_mass(self) -> float:
        # left to right in Python, not np.sum's pairwise order: the automatic box reads every bit
        return float(sum(self.weight.tolist()))

    @property
    def feature_dim(self) -> int:
        return self.z.shape[1]


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


def eval_network(x, z, act: Activation):
    """Network output ``x0 * sigma(x' . z)`` for parameters ``x = (x0, x')``.

    ``x`` is one parameter vector or a stack of them (one row per parameter
    point), and ``z`` one feature vector or a stack (one row per atom).  The
    output has one axis per stack, ``x``'s first: a scalar for two vectors,
    shape ``(m, n)`` for ``m`` parameter points and ``n`` atoms.
    """
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ValueError("parameter vectors need at least the output weight")
    if z.shape[-1] != x.shape[-1] - 1:
        raise ValueError(
            f"feature dimension {z.shape[-1]} does not match parameter dimension "
            f"{x.shape[-1]} (expected {x.shape[-1] - 1})"
        )
    xs = np.atleast_2d(x)
    out = xs[:, :1] * act.eval(xs[:, 1:] @ np.atleast_2d(z).T)
    out = out.reshape(x.shape[:-1] + z.shape[:-1])
    return float(out) if out.ndim == 0 else out


def generalization_error(x, data: Dataset, loss: Loss, act: Activation):
    """Weighted dataset loss of the network at parameters ``x``.

    Accepts a single parameter vector or a stack; the result never exceeds
    ``loss.bound * data.total_mass``.
    """
    total = loss.eval(eval_network(x, data.z, act), data.y) @ data.weight
    return float(total) if np.ndim(total) == 0 else total


def load_dataset_csv(path, z_lo, z_hi, y_lo: float, y_hi: float) -> Dataset:
    """Read weighted atoms from a CSV with header ``z_1,...,z_k,y[,weight]``.

    The declared feature box and label interval are enforced on ingestion
    (a ``nan`` is outside every interval); an empty file, a short row, a
    non-numeric cell or an out-of-bounds row aborts with its row number.  A
    missing weight column assigns every atom weight ``1/n``.
    """
    z_lo = np.atleast_1d(np.asarray(z_lo, dtype=float))
    z_hi = np.atleast_1d(np.asarray(z_hi, dtype=float))
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader, [])]
        if "y" not in header:
            raise ValueError(f"{path}: row 1: header must contain a 'y' column")
        z_cols = [i for i, c in enumerate(header) if c.startswith("z_")]
        if len(z_cols) != z_lo.size or len(z_cols) != z_hi.size:
            raise ValueError(
                f"{path}: {len(z_cols)} feature columns but bounds declare {z_lo.size}"
            )
        cols = z_cols + [header.index(c) for c in ("y", "weight") if c in header]
        values, row_nos = [], []
        for row_no, row in enumerate(reader, start=2):
            if not any(c.strip() for c in row):
                continue
            try:
                values.append([float(row[i]) for i in cols])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: row {row_no}: expected a number in each of the "
                                 f"{len(header)} columns, got {row}") from None
            row_nos.append(row_no)
    if not values:
        raise ValueError(f"{path}: no data rows")
    table = np.array(values)
    k = len(z_cols)
    z, y = table[:, :k], table[:, k]
    for what, ok in (("feature", np.all((z_lo <= z) & (z <= z_hi), axis=1)),
                     ("label", (y_lo <= y) & (y <= y_hi))):
        if not ok.all():
            row_no = row_nos[np.argmin(ok)]
            raise ValueError(f"{path}: row {row_no}: {what} outside declared bounds")
    weight = table[:, k + 1] if table.shape[1] > k + 1 else np.full(len(y), 1.0 / len(y))
    return Dataset(z=z, y=y, weight=weight)
