"""Grid construction, quadrature, and the weighted diffusion operator."""

import math

import numpy as np
import pytest

from entroflow import (
    Dataset,
    GibbsField,
    ScalarField,
    WeightedOperator,
    arctan_sigmoid,
    build_grid,
    build_potential,
    constant_field,
    field_from_csv,
    field_from_function,
    field_to_csv,
    fisher,
    integrate,
    make_tsallis,
    saturating_squared_loss,
)


class TestBuildGrid:
    def test_1d_spacing(self):
        g = build_grid(1, -6, 6, 13)
        assert g.h == (1.0,)
        assert g.num_nodes == 13

    def test_2d_node_count(self):
        g = build_grid(2, (-1, -1), (1, 1), (5, 5))
        assert g.num_nodes == 25

    def test_3d_node_count(self):
        g = build_grid(3, -1, 1, 3)
        assert g.num_nodes == 27

    def test_coords_bit_reproducible(self):
        g = build_grid(1, -3.7, 2.2, 41)
        idx = np.arange(41)
        expected = g.lo[0] + idx * g.h[0]
        assert np.array_equal(g.axis_coords(0), expected)

    def test_rejects_bad_counts_and_bounds(self):
        with pytest.raises(ValueError):
            build_grid(1, 0, 1, 2)
        with pytest.raises(ValueError):
            build_grid(1, 1, 1, 5)
        with pytest.raises(ValueError):
            build_grid(4, 0, 1, 5)


class TestIntegrate:
    def test_constant_exact(self):
        g = build_grid(1, 0, 1, 11)
        assert integrate(constant_field(g, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_matches_analytic(self):
        g = build_grid(1, -6, 6, 401)
        f = field_from_function(g, lambda x: np.exp(-0.5 * x[:, 0] ** 2))
        assert integrate(f) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-6)

    def test_weight_identity(self):
        g = build_grid(1, -2, 2, 31)
        rng = np.random.default_rng(3)
        w = ScalarField(g, rng.uniform(0.5, 2.0, g.num_nodes))
        assert integrate(constant_field(g, 1.0), weight=w) == pytest.approx(integrate(w))

    def test_2d_separable_gaussian(self):
        g = build_grid(2, -6, 6, 201)
        f = field_from_function(g, lambda x: np.exp(-0.5 * np.sum(x**2, axis=1)))
        assert integrate(f) == pytest.approx(2 * math.pi, rel=1e-6)

    def test_second_order_refinement(self):
        """Trapezoid error on a smooth integrand drops at second order in h."""
        exact = math.sqrt(math.pi / 2) * (math.erf(2 / math.sqrt(2)) + math.erf(1 / math.sqrt(2)))
        errors = []
        for n in (51, 101, 201):
            g = build_grid(1, -1, 2, n)
            f = field_from_function(g, lambda x: np.exp(-0.5 * x[:, 0] ** 2))
            errors.append(abs(integrate(f) - exact))
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert min(orders) > 1.9

    def test_grid_mismatch_rejected(self):
        f = constant_field(build_grid(1, 0, 1, 11), 1.0)
        w = constant_field(build_grid(1, 0, 1, 13), 1.0)
        with pytest.raises(ValueError):
            integrate(f, weight=w)


def _edge_form_bruteforce(grid, gamma_vals, w, v):
    """Re-derive the edge bilinear form node by node, independent of assembly."""
    shape = grid.n
    gam = gamma_vals.reshape(shape)
    ww = w.reshape(shape)
    vv = v.reshape(shape)
    axis_weights = []
    for a in range(grid.dim):
        aw = np.full(shape[a], grid.h[a])
        aw[0] *= 0.5
        aw[-1] *= 0.5
        axis_weights.append(aw)
    total = 0.0
    for a in range(grid.dim):
        for idx in np.ndindex(*shape):
            if idx[a] + 1 >= shape[a]:
                continue
            jdx = list(idx)
            jdx[a] += 1
            jdx = tuple(jdx)
            trans = 1.0
            for b in range(grid.dim):
                if b != a:
                    trans *= axis_weights[b][idx[b]]
            cond = math.sqrt(gam[idx] * gam[jdx]) * trans / grid.h[a]
            total += cond * (ww[jdx] - ww[idx]) * (vv[jdx] - vv[idx])
    return total


class TestWeightedOperator:
    def test_uniform_gamma_is_neumann_laplacian(self):
        """With unit weights the operator rows reproduce the 3-point stencil."""
        g = build_grid(1, 0, 1, 6)
        op = WeightedOperator(g, constant_field(g, 1.0))
        h2 = g.h[0] ** 2
        e2 = np.zeros(6)
        e2[2] = 1.0
        row = op.apply(e2)
        np.testing.assert_allclose(row[1], 1.0 / h2, rtol=1e-12)
        np.testing.assert_allclose(row[2], -2.0 / h2, rtol=1e-12)
        np.testing.assert_allclose(row[3], 1.0 / h2, rtol=1e-12)
        # boundary closure: half node mass, one incident edge
        e0 = np.zeros(6)
        e0[0] = 1.0
        np.testing.assert_allclose(op.apply(e0)[0], -2.0 / h2, rtol=1e-12)

    def test_constants_in_kernel(self):
        g = build_grid(2, -1, 1, (9, 7))
        rng = np.random.default_rng(5)
        gamma = ScalarField(g, np.exp(rng.normal(size=g.num_nodes)))
        op = WeightedOperator(g, gamma)
        assert np.max(np.abs(op.apply(np.ones(g.num_nodes)))) < 1e-12

    def test_kernel_is_only_constants(self):
        """Any non-constant field must leave the kernel: the edge form is positive."""
        g = build_grid(1, -1, 1, 17)
        rng = np.random.default_rng(11)
        gamma = ScalarField(g, np.exp(rng.normal(size=17)))
        op = WeightedOperator(g, gamma)
        for _ in range(20):
            w = rng.normal(size=17)
            w -= w.mean()
            if np.max(np.abs(w)) < 1e-12:
                continue
            assert op.edge_form(w, w) > 1e-10

    def test_symmetry_in_weighted_inner_product(self):
        g = build_grid(1, -1, 1, 17)
        rng = np.random.default_rng(7)
        gamma = ScalarField(g, np.exp(rng.normal(size=17)))
        op = WeightedOperator(g, gamma)
        for _ in range(50):
            w = rng.normal(size=17)
            v = rng.normal(size=17)
            lhs = op.inner(op.apply(w), v)
            rhs = op.inner(w, op.apply(v))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(w) * np.linalg.norm(v)

    def test_negative_semidefinite(self):
        g = build_grid(2, -1, 1, (7, 7))
        rng = np.random.default_rng(9)
        gamma = ScalarField(g, np.exp(rng.normal(size=g.num_nodes)))
        op = WeightedOperator(g, gamma)
        for _ in range(100):
            w = rng.normal(size=g.num_nodes)
            assert op.inner(op.apply(w), w) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, (23,)), (2, (7, 9)), (3, (4, 5, 3))])
    def test_summation_by_parts_matches_bruteforce(self, dim, n):
        """<-G w, v> equals the explicitly summed edge form, edge by edge."""
        lo = [-1.0] * dim
        hi = [1.0 + 0.3 * a for a in range(dim)]
        g = build_grid(dim, lo, hi, n)
        rng = np.random.default_rng(13 + dim)
        gamma = ScalarField(g, np.exp(rng.normal(size=g.num_nodes)))
        op = WeightedOperator(g, gamma)
        # a positive w: the Fisher term below reads it as a density
        w = np.exp(rng.normal(size=g.num_nodes))
        v = rng.normal(size=g.num_nodes)
        brute = _edge_form_bruteforce(g, gamma.values, w, v)
        np.testing.assert_allclose(op.inner(-op.apply(w), v), brute, rtol=1e-11)
        np.testing.assert_allclose(op.edge_form(w, v), brute, rtol=1e-11)
        brute_ww = _edge_form_bruteforce(g, gamma.values, w, w)
        np.testing.assert_allclose(op.edge_form(w, w), brute_ww, rtol=1e-11)
        # Tsallis q = 2, tau = 1/2 has phi'(w) = w - 1, so the Fisher term is the edge form
        tau = 0.5
        gibbs = GibbsField(grid=g, gamma=gamma, Z=1.0, Z_raw=1.0, m_grid=0.0, m_envelope=0.0,
                           lam=1.0, tau=tau)
        f = fisher(ScalarField(g, w), gibbs, make_tsallis(2.0, tau))
        np.testing.assert_allclose(f, brute_ww, rtol=1e-11)
        # edge-by-edge L w and Jacobi diagonal against the assembled reference,
        # with this random, a Gaussian and a dataset weight
        data = Dataset(z=[(0.3,) * (dim - 1)], y=[0.6], weight=[0.2])
        for weight in (gamma, build_potential(None, None, None, 1.5, 0.7, g).gamma,
                       build_potential(data, saturating_squared_loss(), arctan_sigmoid(),
                                       1.5, 0.7, g).gamma):
            op_w = WeightedOperator(g, weight)
            ref = op_w.stiffness
            roundoff_scale = abs(ref) @ np.abs(w)
            assert np.all(np.abs(op_w.apply_stiffness(w) - ref @ w) <= 1e-13 * roundoff_scale)
            np.testing.assert_allclose(op_w.stiffness_diagonal, ref.diagonal(), rtol=1e-13)

    def test_rejects_nonpositive_gamma(self):
        g = build_grid(1, 0, 1, 5)
        bad = ScalarField(g, np.array([1.0, 1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            WeightedOperator(g, bad)


def _reference_csv(g, values) -> bytes:
    """The snapshot text as the writer built it before it kept the coordinate
    text per grid: every row re-formatted from ``g.nodes``."""
    header = ",".join(f"x_{a + 1}" for a in range(g.dim)) + ",value"
    rows = np.column_stack([g.nodes, values]).tolist()
    return ("\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n").encode()


def _spread_values(size: int, seed: int) -> np.ndarray:
    """Values over many decades and both signs, led by -0.0, 1e-320 and 1e300."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    vals[:3] = [-0.0, 1e-320, 1e300]
    return vals


class TestFieldCsv:
    def test_roundtrip(self, tmp_path):
        g = build_grid(2, -1, 1, (5, 4))
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.normal(size=g.num_nodes))
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        back = field_from_csv(g, path)
        assert np.array_equal(back.values, f.values)
        header = path.read_text().splitlines()[0]
        assert header == "x_1,x_2,value"

    def test_exact_text_on_3x3(self, tmp_path):
        """Coordinates and values are written with repr, nodes in C order."""
        g = build_grid(2, -1, 1, 3)
        vals = [0.0, -0.0, 0.1, 1.0 / 3.0, -2.5, 1e-320, 1e300, 0.1 + 0.2, 7.0]
        path = tmp_path / "field.csv"
        field_to_csv(ScalarField(g, np.array(vals)), path)
        assert path.read_bytes() == (
            b"x_1,x_2,value\n"
            b"-1.0,-1.0,0.0\n"
            b"-1.0,0.0,-0.0\n"
            b"-1.0,1.0,0.1\n"
            b"0.0,-1.0,0.3333333333333333\n"
            b"0.0,0.0,-2.5\n"
            b"0.0,1.0,1e-320\n"
            b"1.0,-1.0,1e+300\n"
            b"1.0,0.0,0.30000000000000004\n"
            b"1.0,1.0,7.0\n"
        )

    @pytest.mark.parametrize("dim,lo,hi,n", [
        (1, -6.0, 6.0, 13),
        (2, -1.0, 1.0, (5, 4)),
        (3, (-1.0, -2.0, -0.3), (1.0, 2.5, 0.7), (3, 4, 5)),
        (2, -7.0, 7.0, 101),  # coordinates such as -0.41999999999999904 and 8.881784197001252e-16
    ])
    def test_text_matches_reference_writer(self, tmp_path, dim, lo, hi, n):
        g = build_grid(dim, lo, hi, n)
        path = tmp_path / "field.csv"
        vals = _spread_values(g.num_nodes, seed=dim)
        field_to_csv(ScalarField(g, vals), path)
        assert path.read_bytes() == _reference_csv(g, vals)

    def test_grids_of_one_shape_keep_their_own_text(self, tmp_path):
        """Alternate writes on two boxes of one shape: each grid holds its own text."""
        grids = [build_grid(2, -1.0, 1.0, (5, 4)), build_grid(2, (-3.0, 0.1), (0.5, 9.0), (5, 4))]
        path = tmp_path / "field.csv"
        for k in range(4):
            g = grids[k % 2]
            vals = _spread_values(g.num_nodes, seed=k)
            field_to_csv(ScalarField(g, vals), path)
            assert path.read_bytes() == _reference_csv(g, vals)

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        """The CSV is written beside the target and renamed onto it: a write
        that fails before the rename leaves the old file whole, and a write
        that succeeds leaves no temp file."""
        g = build_grid(1, -1, 1, 4)
        path = tmp_path / "w.csv"
        path.write_text("old\n", encoding="utf-8")

        def no_rename(src, dst):
            raise OSError("interrupted")
        with monkeypatch.context() as m:
            m.setattr("entroflow.grid.os.replace", no_rename)
            with pytest.raises(OSError, match="interrupted"):
                field_to_csv(ScalarField(g, np.ones(4)), path)
        assert path.read_text(encoding="utf-8") == "old\n"
        field_to_csv(ScalarField(g, np.ones(4)), path)
        assert field_from_csv(g, path).values.tolist() == [1.0] * 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.csv"]

    def test_nonfinite_rejected(self):
        g = build_grid(1, 0, 1, 5)
        with pytest.raises(ValueError):
            ScalarField(g, np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
