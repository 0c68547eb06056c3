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

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        return math.prod(self.n)

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
    def csv_coordinates(self) -> tuple[str, tuple[str, ...]]:
        """The header of :func:`field_to_csv` and each node's ``"x_1,...,x_d,"`` row prefix.

        The prefixes are the ``repr`` of each axis coordinate, joined in C
        order; they are the floats of :attr:`nodes`, so the text is the same.
        """
        header = ",".join(f"x_{a + 1}" for a in range(self.dim)) + ",value"
        prefixes = [""]
        for a in range(self.dim):
            texts = [repr(x) + "," for x in self.axis_coords(a).tolist()]
            prefixes = [p + t for p in prefixes for t in texts]
        return header, tuple(prefixes)

    def axis_weights(self, axis: int) -> np.ndarray:
        """Trapezoidal quadrature weights along one axis."""
        w = np.full(self.n[axis], self.h[axis])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weight of each node (flat, C order)."""
        out = self.axis_weights(0)
        for a in range(1, self.dim):
            out = np.multiply.outer(out, self.axis_weights(a))
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
        if not (lo_t[a] < hi_t[a] and math.isfinite(hi_t[a] - lo_t[a])):
            raise ValueError(f"axis {a}: lo must be below hi, both finite, "
                             f"got [{lo_t[a]}, {hi_t[a]}]")
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


def field_from_function(grid: Grid, fn) -> ScalarField:
    """Sample ``fn`` at the nodes; ``fn`` maps ``(num_nodes, dim)`` to ``(num_nodes,)``."""
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=float))


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.num_nodes, float(value)))


def integrate(f: ScalarField, weight: ScalarField | None = None) -> float:
    """Trapezoidal tensor-product quadrature of ``f`` (times ``weight``) over the box."""
    if weight is None:
        return float(np.dot(f.values, f.grid.quad_weights))
    if weight.grid != f.grid:
        raise ValueError("fields live on different grids")
    return float(np.dot(f.values * weight.values, f.grid.quad_weights))


class WeightedOperator:
    """Discrete generator ``G`` of the weighted diffusion, plus its inner product.

    The operator acts as ``(G w)_i = (1/m_i) * sum_edges c_e (w_j - w_i)``
    where ``m_i = gamma_i * quad_weight_i`` is the weighted node mass and
    ``c_e = sqrt(gamma_i gamma_j) * t_e / h_axis`` an edge conductance
    (``t_e`` the transversal quadrature weight of the edge).  This class is
    the only code that knows the edge layout.  The edges along axis ``a``
    join each flat node index ``k`` to ``k + s_a``, with ``s_a = strides[a]``
    the axis' C-order stride, and ``axis_cond[a]`` holds their conductances
    flat, one entry per ``k < num_nodes - s_a``: zero where node ``k`` lies
    on the upper face of axis ``a`` and so has no neighbour ``k + s_a``.
    Every edge sum then runs over the contiguous slices ``w[:-s_a]`` and
    ``w[s_a:]``.  ``apply_stiffness`` gives ``L w`` and ``stiffness_diagonal``
    the diagonal of ``L`` from these arrays; the sparse ``stiffness`` matrix
    is a reference only, assembled (with ``scipy.sparse``) on first read.
    By construction

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
        self.strides = tuple(math.prod(grid.n[a + 1:]) for a in range(grid.dim))

        g, qw = gamma.values, grid.quad_weights
        conds = []
        for axis, s in enumerate(self.strides):
            pos = self._axis_index(axis)
            # transversal weight: strip this axis' own trapezoid factor off
            # the lower endpoint's node weight
            t = qw[:-s] / grid.axis_weights(axis)[pos]
            cond = np.sqrt(g[:-s] * g[s:]) * t / grid.h[axis]
            cond[pos == grid.n[axis] - 1] = 0.0
            conds.append(cond)
        self.axis_cond = tuple(conds)

    def _axis_index(self, axis: int) -> np.ndarray:
        """Index along ``axis`` of each lower edge end ``k < num_nodes - strides[axis]``."""
        s = self.strides[axis]
        return np.arange(self.grid.num_nodes - s) // s % self.grid.n[axis]

    @cached_property
    def stiffness(self):
        """Reference ``scipy.sparse`` CSR matrix of ``L``: ``w^T L w = edge_form(w)``.

        Tests compare ``apply_stiffness`` with it; no solver path reads it.
        """
        from scipy import sparse

        grid = self.grid
        ends = [np.flatnonzero(self._axis_index(a) < grid.n[a] - 1) for a in range(grid.dim)]
        i = np.concatenate(ends)
        j = np.concatenate([k + s for k, s in zip(ends, self.strides)])
        c = np.concatenate([cond[k] for k, cond in zip(ends, self.axis_cond)])
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([i, j, j, i])
        vals = np.concatenate([c, c, -c, -c])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(grid.num_nodes,) * 2)

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        """Diagonal of ``L``: the summed conductances of each node's edges."""
        diag = np.zeros(self.grid.num_nodes)
        for s, cond in zip(self.strides, self.axis_cond):
            diag[:-s] += cond
            diag[s:] += cond
        return diag

    def apply_stiffness(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``L w`` edge by edge, added onto ``out`` in place when it is given.

        Each edge's flux ``c_e (w_j - w_i)`` is subtracted at ``i`` and added at ``j``.
        """
        out = np.zeros_like(w) if out is None else out
        for s, cond in zip(self.strides, self.axis_cond):
            flux = w[s:] - w[:-s]
            flux *= cond
            out[:-s] -= flux
            out[s:] += flux
        return out

    @cached_property
    def axis_eigenbasis(self) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
        """Per-axis generalized eigenpairs ``(mu_a, V_a)`` of a product-form weight.

        When ``dim >= 2`` and ``gamma`` equals the outer product of its axis
        slices through its peak node to 1e-12 relative at every node, the node
        masses and conductances factor over axes:
        ``D = M_0 (x) M_1 (x) ...`` and ``L = sum_a (x)_{b != a} M_b (x) L_a``
        with ``M_a`` the axis mass and ``L_a`` the 1-d stiffness with
        conductances ``sqrt(g_i g_{i+1}) / h_a``.  ``L v = mu D v`` then
        separates into ``L_a V_a = M_a V_a diag(mu_a)`` with
        ``V_a^T M_a V_a = I``, solved by ``eigh`` of the symmetric
        ``M_a^{-1/2} L_a M_a^{-1/2}`` (fast diagonalization).  Returns None
        in 1-d and for weights that are not a product over axes.
        """
        grid = self.grid
        if grid.dim < 2:
            return None
        g = self.gamma.values.reshape(grid.n)
        peak = np.unravel_index(np.argmax(g), grid.n)
        # axis 0's slice keeps the peak value, the others are relative to it
        factors = []
        for axis in range(grid.dim):
            fiber = list(peak)
            fiber[axis] = slice(None)
            factors.append(g[tuple(fiber)] / (g[peak] if axis else 1.0))
        outer = factors[0]
        for f in factors[1:]:
            outer = np.multiply.outer(outer, f)
        if np.max(np.abs(outer - g) / g) > 1e-12:
            return None
        basis = []
        for axis, f in enumerate(factors):
            mass = grid.axis_weights(axis) * f
            cond = np.sqrt(f[:-1] * f[1:]) / grid.h[axis]
            diff = np.diff(np.eye(grid.n[axis]), axis=0)
            stiff = diff.T @ (cond[:, None] * diff)
            root = np.sqrt(mass)
            mu, q = np.linalg.eigh(stiff / np.multiply.outer(root, root))
            mu[0] = 0.0  # the constants span the kernel exactly; eigh leaves roundoff
            basis.append((mu, q / root[:, None]))
        return tuple(basis)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Apply the generator: ``G w = -(L w) / m``."""
        return -self.apply_stiffness(w) / self.node_mass

    def inner(self, a: np.ndarray, b: np.ndarray | float) -> float:
        """Weighted inner product ``sum_i a_i b_i gamma_i quad_weight_i``."""
        return float(np.dot(a * b, self.node_mass))

    def edge_form(self, w: np.ndarray, phi2=None) -> float:
        """Edge quadrature ``sum_e phi2(mid_e) c_e (w_j - w_i)^2``, ``mid_e`` the endpoints' mean.

        Without ``phi2`` (taken as 1) it equals ``<-G w, w>``.
        """
        total = 0.0
        for s, cond in zip(self.strides, self.axis_cond):
            dw = w[s:] - w[:-s]
            if phi2 is not None:
                cond = phi2(0.5 * (w[:-s] + w[s:])) * cond
            total += float(np.vdot(cond, dw * dw))
        return total


def field_to_csv(f: ScalarField, path) -> None:
    """Write a field as CSV with columns ``x_1,...,x_d,value``, one row per node.

    Every number is written with ``repr``, nodes in C order.  The coordinate
    text is built once per grid (:attr:`Grid.csv_coordinates`), so each
    write formats only the values.
    """
    header, prefixes = f.grid.csv_coordinates
    lines = [header] + [p + repr(v) for p, v in zip(prefixes, f.values.tolist())]
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename that onto ``path``: no partial file."""
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
