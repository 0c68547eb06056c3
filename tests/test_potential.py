"""Potential assembly, the data-term bound, and the normalized Gibbs weight."""

import math

import numpy as np
import pytest

from entroflow import (
    Activation,
    Dataset,
    arctan_sigmoid,
    build_grid,
    build_potential,
    certified_envelope,
    default_box,
    generalization_error,
    integrate,
    saturating_squared_loss,
    zero_loss,
)


@pytest.fixture
def atoms_1d():
    """Three weighted atoms with scalar features (parameter dimension 2)."""
    return Dataset(z=[[-0.5], [0.0], [0.6]], y=[0.2, 0.8, 0.5], weight=[0.1, 0.1, 0.1])


class TestBuildPotential:
    def test_pure_regularizer_is_quadratic(self):
        g = build_grid(1, -6, 6, 101)
        f = build_potential(None, None, None, 1.0, 1.0, g)
        np.testing.assert_allclose(f.gamma.values * f.Z_raw, np.exp(-0.5 * g.nodes[:, 0] ** 2),
                                   rtol=1e-14)
        assert f.m_grid == 0.0 and f.m_envelope == 0.0

    def test_gaussian_mass(self):
        g = build_grid(1, -6, 6, 401)
        f = build_potential(None, None, None, 1.0, 1.0, g)
        assert f.Z_raw == pytest.approx(math.sqrt(2 * math.pi), abs=1e-6)

    def test_rejects_bad_parameters(self):
        g = build_grid(1, -6, 6, 11)
        with pytest.raises(ValueError):
            build_potential(None, None, None, 0.0, 1.0, g)
        with pytest.raises(ValueError):
            build_potential(None, None, None, 1.0, -1.0, g)


class TestDataTermBound:
    def test_zero_loss(self, atoms_1d):
        g = build_grid(2, -3, 3, 15)
        assert build_potential(atoms_1d, zero_loss(), arctan_sigmoid(), 1.0, 1.0, g).m_grid == 0.0

    def test_never_exceeds_envelope(self, atoms_1d):
        g = build_grid(2, -6, 6, 41)
        loss, act = saturating_squared_loss(), arctan_sigmoid()
        m = build_potential(atoms_1d, loss, act, 1.0, 1.0, g).m_grid
        assert 0.0 < m <= certified_envelope(atoms_1d, loss) + 1e-15
        assert certified_envelope(atoms_1d, loss) == pytest.approx(0.3)

    def test_zero_activation_fits_everywhere(self):
        """A silent network with zero labels has zero loss at every node."""
        act = Activation("zero", np.zeros_like)
        data = Dataset(z=[[0.2]], y=[0.0], weight=[1.0])
        g = build_grid(2, -3, 3, 15)
        assert build_potential(data, saturating_squared_loss(), act, 1.0, 1.0, g).m_grid == 0.0

    def test_envelope_off_grid(self, atoms_1d):
        """1000 random points inside the box respect the certified bound."""
        rng = np.random.default_rng(41)
        loss, act = saturating_squared_loss(), arctan_sigmoid()
        x = rng.uniform(-6, 6, size=(1000, 2))
        vals = generalization_error(x, atoms_1d, loss, act)
        assert np.all(np.abs(vals) <= loss.bound * atoms_1d.total_mass + 1e-12)


class TestNormalize:
    def test_unit_mass(self):
        for lam, tau in [(1.0, 1.0), (2.0, 0.7)]:
            f = build_potential(None, None, None, lam, tau, build_grid(1, -6, 6, 401))
            assert abs(integrate(f.gamma) - 1.0) <= 1e-10
            assert f.Z == integrate(f.gamma)

    def test_gradient_untouched(self, atoms_1d):
        """Normalization shifts V by a constant, so its gradient cannot change."""
        g = build_grid(2, -5, 5, 21)
        loss, act = saturating_squared_loss(), arctan_sigmoid()
        f = build_potential(atoms_1d, loss, act, 1.0, 1.0, g)
        v = generalization_error(g.nodes, atoms_1d, loss, act) + 0.5 * np.sum(g.nodes**2, axis=1)
        np.testing.assert_allclose(-np.log(f.gamma.values) - v, math.log(f.Z_raw), rtol=0,
                                   atol=1e-12)

    def test_finiteness_bound_on_raw_mass(self, atoms_1d):
        """Total mass stays below exp(M/tau) * (2 pi tau / lam)^(d/2)."""
        loss, act = saturating_squared_loss(), arctan_sigmoid()
        for lam, tau in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
            g = build_grid(2, -8, 8, 81)
            f = build_potential(atoms_1d, loss, act, lam, tau, g)
            assert f.Z_raw <= f.mass_bound()

    def test_underflow_is_rejected(self):
        """At tau = 0.01 exp(-V/tau) underflows on [-6, 6]; the error suggests a box."""
        with pytest.raises(ValueError, match=r"underflows on the box \[-6, 6\] at tau = 0.01; "
                                             r"choose another box, e.g. the automatic"):
            build_potential(None, None, None, 1.0, 0.01, build_grid(1, -6, 6, 15))


class TestDefaultBox:
    def test_tail_below_tolerance(self):
        lo, hi = default_box(1.0, 1.0, 1)
        assert hi > 6.0
        # relative Gaussian tail outside the box
        tail = math.erfc(hi / math.sqrt(2.0))
        assert tail < 1e-10

    def test_scales_with_temperature(self):
        _, hi_hot = default_box(1.0, 4.0, 1)
        _, hi_cold = default_box(1.0, 0.25, 1)
        assert hi_hot == pytest.approx(2 * default_box(1.0, 1.0, 1)[1])
        assert hi_cold == pytest.approx(0.5 * default_box(1.0, 1.0, 1)[1])
