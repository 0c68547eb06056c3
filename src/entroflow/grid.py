"""Uniform tensor grids, quadrature, and the weighted diffusion operator.

Everything downstream (potential construction, the flow solver, the energy
functionals) lives on a truncated box discretized by a uniform tensor grid
with at most three axes.  Integrals reduce to trapezoidal tensor-product
quadrature, and the generator of the flow is assembled as a weighted graph
Laplacian over grid edges.  The operator is built so that the discrete
summation-by-parts identity holds exactly: it is self-adjoint and negative
semidefinite in the same weighted inner product the quadrature defines, and
constants are exactly in its kernel.  These three structural facts carry all
conservation properties of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse


def _as_tuple(value, dim: int, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1 and dim > 1:
        arr = np.repeat(arr, dim)
    if arr.size != dim:
        raise ValueError(f"{name} must have {dim} entries, got {arr.size}")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the box ``prod_a [lo[a], hi[a]]``.

    Node coordinates along axis ``a`` are ``lo[a] + i * h[a]`` for
    ``i = 0 .. n[a]-1`` with ``h[a] = (hi[a] - lo[a]) / (n[a] - 1)``, so they
    are bit-reproducible from ``(lo, h, index)``.  Fields are stored flat in
    C order (axis 0 slowest).
    """

    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / (k - 1) for a, b, k in zip(self.lo, self.hi, self.n))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis, ``lo + arange(n) * h``."""
        return self.lo[axis] + np.arange(self.n[axis]) * self.h[axis]

    @cached_property
    def nodes(self) -> np.ndarray:
        """All node coordinates, shape ``(num_nodes, dim)``, C order."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight of each node (flat, C order)."""
        axis_w = []
        for a in range(self.dim):
            w = np.full(self.n[a], self.h[a])
            w[0] *= 0.5
            w[-1] *= 0.5
            axis_w.append(w)
        out = axis_w[0]
        for w in axis_w[1:]:
            out = np.multiply.outer(out, w)
        return out.ravel()


def build_grid(dim: int, lo, hi, n) -> Grid:
    """Construct a uniform grid, validating bounds and node counts.

    Parameters
    ----------
    dim : int
        Number of axes, 1 to 3.
    lo, hi : float or sequence of float
        Per-axis box bounds; scalars broadcast to every axis.
    n : int or sequence of int
        Per-axis node counts, at least 3 each.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    lo_t = _as_tuple(lo, dim, "lo")
    hi_t = _as_tuple(hi, dim, "hi")
    n_arr = np.atleast_1d(np.asarray(n, dtype=int))
    if n_arr.size == 1 and dim > 1:
        n_arr = np.repeat(n_arr, dim)
    if n_arr.size != dim:
        raise ValueError(f"n must have {dim} entries, got {n_arr.size}")
    n_t = tuple(int(k) for k in n_arr)
    for a in range(dim):
        if n_t[a] < 3:
            raise ValueError(f"axis {a}: need at least 3 nodes, got {n_t[a]}")
        if not lo_t[a] < hi_t[a]:
            raise ValueError(f"axis {a}: lo must be below hi, got [{lo_t[a]}, {hi_t[a]}]")
    return Grid(dim=dim, lo=lo_t, hi=hi_t, n=n_t)


@dataclass
class ScalarField:
    """One float64 value per grid node, flat in C order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.num_nodes:
            raise ValueError(
                f"field has {self.values.size} values for a grid of {self.grid.num_nodes} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def field_from_function(grid: Grid, fn) -> ScalarField:
    """Sample ``fn`` at the nodes; ``fn`` maps ``(num_nodes, dim)`` to ``(num_nodes,)``."""
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=float))


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.num_nodes, float(value)))


def _check_same_grid(*fields: ScalarField) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("fields live on different grids")
    return g


def integrate(f: ScalarField, weight: ScalarField | None = None) -> float:
    """Trapezoidal tensor-product quadrature of ``f`` (times ``weight``) over the box."""
    if weight is None:
        g = f.grid
        return float(np.dot(f.values, g.quad_weights))
    g = _check_same_grid(f, weight)
    return float(np.dot(f.values * weight.values, g.quad_weights))


class WeightedOperator:
    """Discrete generator ``G`` of the weighted diffusion, plus its inner product.

    The operator acts as ``(G w)_i = (1/m_i) * sum_edges c_e (w_j - w_i)``
    where ``m_i = gamma_i * quad_weight_i`` is the weighted node mass and
    ``c_e = sqrt(gamma_i gamma_j) * t_e / h_axis`` an edge conductance
    (``t_e`` the transversal quadrature weight of the edge).  By construction

    * ``<G w, v> = <w, G v>`` in the inner product ``<a, b> = sum a b m``,
    * ``G 1 = 0`` exactly,
    * ``<G w, w> <= 0`` (summation by parts against the edge form).

    The box boundary is closed with zero weighted flux, so the flow conserves
    ``<w, 1>`` exactly.
    """

    def __init__(self, grid: Grid, gamma: ScalarField):
        if gamma.grid != grid:
            raise ValueError("gamma lives on a different grid")
        if np.any(gamma.values <= 0.0):
            raise ValueError("gamma must be strictly positive at every node")
        self.grid = grid
        self.gamma = gamma
        self.node_mass = gamma.values * grid.quad_weights

        rows_i, rows_j, conds = [], [], []
        g = gamma.values.reshape(grid.n)
        qw = grid.quad_weights.reshape(grid.n)
        idx = np.arange(grid.num_nodes).reshape(grid.n)
        for axis in range(grid.dim):
            h = grid.h[axis]
            sl_lo = [slice(None)] * grid.dim
            sl_hi = [slice(None)] * grid.dim
            sl_lo[axis] = slice(0, -1)
            sl_hi[axis] = slice(1, None)
            i = idx[tuple(sl_lo)].ravel()
            j = idx[tuple(sl_hi)].ravel()
            # transversal weight: strip this axis' own trapezoid factor off
            # the lower endpoint's node weight
            axis_w = np.full(grid.n[axis], h)
            axis_w[0] *= 0.5
            axis_w[-1] *= 0.5
            shape = [1] * grid.dim
            shape[axis] = grid.n[axis]
            axis_w_full = np.broadcast_to(axis_w.reshape(shape), grid.n)
            t = qw[tuple(sl_lo)].ravel() / axis_w_full[tuple(sl_lo)].ravel()
            c = np.sqrt(g[tuple(sl_lo)].ravel() * g[tuple(sl_hi)].ravel()) * t / h
            rows_i.append(i)
            rows_j.append(j)
            conds.append(c)

        self.edge_i = np.concatenate(rows_i)
        self.edge_j = np.concatenate(rows_j)
        self.edge_cond = np.concatenate(conds)

        n = grid.num_nodes
        i, j, c = self.edge_i, self.edge_j, self.edge_cond
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([i, j, j, i])
        vals = np.concatenate([c, c, -c, -c])
        # stiffness matrix of the edge form: w^T L v = sum_e c_e (w_j-w_i)(v_j-v_i)
        self.stiffness = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply the generator: ``G w = -(L w) / m``."""
        return -(self.stiffness @ w) / self.node_mass

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Weighted inner product ``sum_i a_i b_i gamma_i quad_weight_i``."""
        return float(np.dot(a * b, self.node_mass))

    def edge_form(self, w: np.ndarray, v: np.ndarray) -> float:
        """Edge bilinear form ``sum_e c_e (w_j - w_i)(v_j - v_i)``; equals ``<-G w, v>``."""
        dw = w[self.edge_j] - w[self.edge_i]
        dv = v[self.edge_j] - v[self.edge_i]
        return float(np.dot(self.edge_cond * dw, dv))


def field_to_csv(f: ScalarField, path) -> None:
    """Write a field as CSV with columns ``x_1,...,x_d,value``, one row per node."""
    g = f.grid
    header = ",".join(f"x_{a + 1}" for a in range(g.dim)) + ",value"
    rows = np.column_stack([g.nodes, f.values]).tolist()
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def field_from_csv(grid: Grid, path) -> ScalarField:
    """Read a node-per-row CSV (as written by :func:`field_to_csv`) onto ``grid``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if "value" not in header:
            raise ValueError(f"{path}: missing 'value' column")
        col = header.index("value")
        vals = []
        for line in fh:
            line = line.strip()
            if line:
                vals.append(float(line.split(",")[col]))
    if len(vals) != grid.num_nodes:
        raise ValueError(f"{path}: {len(vals)} rows for a grid of {grid.num_nodes} nodes")
    return ScalarField(grid, np.array(vals))
