"""Network evaluation, bounded losses, and datasets."""

import math

import numpy as np
import pytest

from entroflow import (
    Dataset,
    arctan_sigmoid,
    eval_network,
    generalization_error,
    load_dataset_csv,
    saturating_squared_loss,
    tanh_sigmoid,
    zero_loss,
)


def single_point(z, y, weight=1.0):
    return Dataset(z=[z], y=[y], weight=[weight])


class TestEvalNetwork:
    def test_zero_output_weight(self):
        assert eval_network((0.0, 1.0), (0.7,), arctan_sigmoid()) == 0.0

    def test_sigmoid_at_zero(self):
        # sigma(0) = 1/2, so the output is half the outer weight
        assert eval_network((2.0, 1.0), (0.0,), arctan_sigmoid()) == pytest.approx(1.0)

    def test_closed_form_value(self):
        expected = 0.5 * (1.0 + math.pi / 4.0)
        assert eval_network((1.0, 1.0), (1.0,), arctan_sigmoid()) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_network((1.0, 1.0), (1.0, 2.0), arctan_sigmoid())

    def test_linear_in_output_weight(self):
        act = tanh_sigmoid()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x0, xp, z, alpha = rng.normal(size=4)
            base = eval_network((x0, xp), (z,), act)
            scaled = eval_network((alpha * x0, xp), (z,), act)
            assert scaled == pytest.approx(alpha * base, abs=1e-12)


class TestLoss:
    def test_saturating_squared_range(self):
        loss = saturating_squared_loss()
        rng = np.random.default_rng(8)
        a = rng.uniform(-20, 20, size=500)
        b = rng.uniform(-2, 2, size=500)
        vals = loss.eval(a, b)
        assert np.all(vals >= 0) and np.all(vals <= loss.bound)

    def test_perfect_fit_is_zero(self):
        loss = saturating_squared_loss()
        assert loss.eval(np.array(1.3), np.array(1.3)) == 0.0


class TestGeneralizationError:
    def test_zero_loss_vanishes(self):
        data = single_point((0.3,), 1.0)
        assert generalization_error((2.0, 1.0), data, zero_loss(), arctan_sigmoid()) == 0.0

    def test_perfect_fit(self):
        # x = (2, 1), z = 0 gives output 1; matching label means zero loss
        data = single_point((0.0,), 1.0)
        val = generalization_error((2.0, 1.0), data, saturating_squared_loss(), arctan_sigmoid())
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_label(self):
        data = single_point((0.0,), 0.0)
        val = generalization_error((2.0, 1.0), data, saturating_squared_loss(), arctan_sigmoid())
        assert val == pytest.approx(1.0 - math.exp(-0.5))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(z=np.zeros((0, 1)), y=[], weight=[])

    @pytest.mark.parametrize("z,y,weight", [
        ([[0.1], [0.2]], [0.5], [1.0, 1.0]),  # two feature rows, one label
        ([[0.1]], [0.5], [1.0, 1.0]),  # two weights for one atom
        ([0.1], [0.5], [1.0]),  # features not one row per atom
        ([[math.nan]], [0.5], [1.0]),
        ([[0.1]], [math.inf], [1.0]),
        ([[0.1]], [0.5], [math.nan]),
    ])
    def test_malformed_arrays_rejected(self, z, y, weight):
        with pytest.raises(ValueError):
            Dataset(z=z, y=y, weight=weight)

    def test_bounded_by_loss_envelope(self):
        """The weighted loss never exceeds bound * total_mass, for any parameters."""
        rng = np.random.default_rng(12)
        loss = saturating_squared_loss()
        act = arctan_sigmoid()
        for _ in range(50):
            n = rng.integers(1, 6)
            z, y, weight = zip(*[(rng.uniform(-1, 1, size=2), rng.uniform(0, 1),
                                  rng.uniform(0.1, 2.0)) for _ in range(n)])
            data = Dataset(z=z, y=y, weight=weight)
            x = rng.normal(scale=5.0, size=(40, 3))
            vals = generalization_error(x, data, loss, act)
            assert np.all(vals >= 0)
            assert np.all(vals <= loss.bound * data.total_mass + 1e-12)


class TestScalarParameterSpace:
    def test_empty_feature_vectors(self):
        """With a one-dimensional parameter space the feature is empty and the
        network reduces to x0 * sigma(0)."""
        data = Dataset(z=[[]], y=[1.0], weight=[1.0])
        assert data.feature_dim == 0
        val = generalization_error((2.0,), data, saturating_squared_loss(), arctan_sigmoid())
        assert val == pytest.approx(0.0, abs=1e-15)  # output 2 * 0.5 = 1 matches the label


class TestDatasetCsv:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_load_with_weights(self, tmp_path):
        path = self._write(tmp_path / "d.csv",
                           "z_1,y,weight\n-0.5,0.2,0.3\n0.5,0.8,0.7\n")
        data = load_dataset_csv(path, [-1.0], [1.0], 0.0, 1.0)
        assert len(data.y) == 2
        assert data.total_mass == pytest.approx(1.0)
        np.testing.assert_allclose(data.z[0], [-0.5])

    def test_default_weight_is_uniform(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "z_1,y\n0.1,0.5\n0.2,0.6\n-0.3,0.4\n")
        data = load_dataset_csv(path, [-1.0], [1.0], 0.0, 1.0)
        assert list(data.weight) == pytest.approx([1 / 3] * 3)

    def test_out_of_bounds_feature_reports_row(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "z_1,y\n0.1,0.5\n3.0,0.5\n")
        with pytest.raises(ValueError, match="row 3"):
            load_dataset_csv(path, [-1.0], [1.0], 0.0, 1.0)

    def test_out_of_bounds_label_reports_row(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "z_1,y\n0.1,7.5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_dataset_csv(path, [-1.0], [1.0], 0.0, 1.0)

    def test_negative_weight_rejected(self, tmp_path):
        path = self._write(tmp_path / "d.csv", "z_1,y,weight\n0.1,0.5,-1.0\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path, [-1.0], [1.0], 0.0, 1.0)
