"""Entropy generators: closed forms, chord-slope split, conjugates, assumptions."""

import dataclasses
import math

import numpy as np
import pytest

from entroflow import (
    check_assumptions,
    conjugate_values,
    legendre_conjugate,
    make_nonconvex_probe,
    make_shannon,
    make_tsallis,
    psi_decompose,
)
from entroflow.verify import conjugate_check


def conjugate_bruteforce(gen, r, s_max=100.0, n=2_000_001):
    """Dense-grid supremum of s*r - phi(s), the independent oracle."""
    s = np.linspace(0.0, s_max, n)
    vals = s * r - np.where(s > 0, gen.phi(np.maximum(s, 1e-300)), gen.phi_at_0)
    return float(np.max(vals))


class TestShannon:
    def test_normalization(self):
        assert make_shannon(1.0).phi(np.array(1.0)) == 0.0

    def test_value_at_e(self):
        # s ln s - s + 1 at s = e collapses to 1
        assert make_shannon(1.0).phi(np.array(math.e)) == pytest.approx(1.0, abs=1e-14)

    def test_limit_at_zero(self):
        gen = make_shannon(2.0)
        assert gen.phi_at_0 == 2.0
        assert gen.phi(np.array(0.0)) == pytest.approx(2.0)
        # the limit from above agrees
        assert gen.phi(np.array(1e-14)) == pytest.approx(2.0, rel=1e-10)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            make_shannon(0.0)
        with pytest.raises(ValueError):
            make_shannon(-1.0)


class TestTsallis:
    def test_quadratic_case(self):
        gen = make_tsallis(2.0, 1.0)
        assert gen.phi(np.array(3.0)) == pytest.approx(4.0)
        assert gen.phi_at_0 == 1.0
        assert gen.phi(np.array(0.0)) == pytest.approx(1.0)

    def test_cubic_case(self):
        # tau/(q-1) * (s^q - 1 - q(s-1)) at q=3, tau=2, s=2
        assert make_tsallis(3.0, 2.0).phi(np.array(2.0)) == pytest.approx(4.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_tsallis(1.0, 1.0)
        with pytest.raises(ValueError):
            make_tsallis(2.0, 0.0)

    def test_matches_shannon_near_q_one(self):
        shannon = make_shannon(1.0)
        near = make_tsallis(1.0 + 1e-4, 1.0)
        s = np.linspace(0.1, 10.0, 200)
        assert np.max(np.abs(near.phi(s) - shannon.phi(s))) <= 0.01


@pytest.mark.parametrize("gen", [
    make_shannon(0.5), make_shannon(3.0), make_tsallis(1.0000001, 1.0), make_tsallis(1.5, 0.7),
    make_tsallis(2.0, 1.0), make_tsallis(4.0, 3.0), make_tsallis(1e300, 1.0),
    make_nonconvex_probe(),
], ids=lambda g: f"{g.family}-{g.q}-{g.tau}")
def test_phi_at_zero_is_phi_of_zero(gen):
    """The energy evaluates ``phi(max(w, 0))``: ``phi(0)`` is ``phi_at_0`` to the bit,
    and tiny or roundoff-negative entries give what the special case ``w > 0 ?
    phi(max(w, 1e-300)) : phi_at_0`` gave."""
    assert gen.phi(np.array(0.0)) == gen.phi_at_0
    s = np.array([0.0, -0.0, -1e-13, 5e-324, 1e-310, 1e-300])
    special = np.where(s > 0, gen.phi(np.maximum(s, 1e-300)), gen.phi_at_0)
    np.testing.assert_array_equal(gen.phi(np.maximum(s, 0.0)), special)


class TestChordSlope:
    def test_tsallis_closed_form(self):
        gen = make_tsallis(2.0, 1.0)
        # ((s-1)^2 - 1)/s simplifies to s - 2
        assert psi_decompose(gen, 3.0) == pytest.approx(1.0)
        assert psi_decompose(gen, 0.0) == pytest.approx(-2.0)

    def test_shannon_closed_form(self):
        gen = make_shannon(1.0)
        assert psi_decompose(gen, math.e**2) == pytest.approx(1.0, abs=1e-12)
        assert psi_decompose(gen, 0.0) == -math.inf

    @pytest.mark.parametrize("gen", [make_shannon(1.0), make_tsallis(2.0, 1.0),
                                     make_tsallis(1.5, 0.7), make_tsallis(3.0, 2.0)])
    def test_reconstruction(self, gen):
        """s * psi(s) + phi(0) rebuilds phi to 1e-12 relative on (0, 1e4]."""
        s = np.geomspace(1e-6, 1e4, 300)
        rebuilt = s * psi_decompose(gen, s) + gen.phi_at_0
        exact = gen.phi(s)
        np.testing.assert_allclose(rebuilt, exact, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gen", [make_shannon(0.5), make_tsallis(2.5, 1.3)])
    def test_strictly_increasing(self, gen):
        rng = np.random.default_rng(17)
        lo = rng.uniform(0.0, 50.0, size=1000)
        hi = lo + rng.uniform(1e-3, 10.0, size=1000)
        assert np.all(psi_decompose(gen, lo) < psi_decompose(gen, hi))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            psi_decompose(make_shannon(1.0), -0.5)


class TestLegendreConjugate:
    def test_shannon_closed_form(self):
        gen = make_shannon(1.0)
        assert legendre_conjugate(gen, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert legendre_conjugate(gen, 1.0) == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_tsallis_against_bruteforce(self):
        gen = make_tsallis(2.0, 1.0)
        assert legendre_conjugate(gen, 2.0) == pytest.approx(3.0, rel=1e-10)
        assert legendre_conjugate(gen, -4.0) == pytest.approx(-1.0, rel=1e-10)
        for r in (-3.0, -2.0, -0.5, 0.7, 5.0):
            brute = conjugate_bruteforce(gen, r)
            assert legendre_conjugate(gen, r) == pytest.approx(brute, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("gen", [make_shannon(1.0), make_shannon(2.5),
                                     make_tsallis(2.0, 1.0), make_tsallis(3.0, 0.8)])
    def test_numeric_matches_closed_form(self, gen):
        for r in np.linspace(-5.0, 5.0, 21):
            closed = float(conjugate_values(gen, np.array(r)))
            assert legendre_conjugate(gen, float(r)) == pytest.approx(closed, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("gen", [make_shannon(1.0), make_tsallis(2.0, 1.0),
                                     make_tsallis(1.5, 1.0)])
    def test_fenchel_young(self, gen):
        """s*r <= phi(s) + phi*(r), with equality at r = phi'(s)."""
        rng = np.random.default_rng(23)
        s = rng.uniform(0.01, 20.0, size=50)
        r = rng.uniform(-4.0, 4.0, size=50)
        phi_s = gen.phi(s)
        conj_r = conjugate_values(gen, r)
        assert np.all(s * r <= phi_s + conj_r + 1e-8)
        r_eq = gen.phi1(s)
        gap = phi_s + conjugate_values(gen, r_eq) - s * r_eq
        np.testing.assert_allclose(gap, 0.0, atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            legendre_conjugate(make_shannon(1.0), math.inf)

    def test_maximizer_beyond_two_to_the_200(self):
        """At tau = 0.01 the maximizer e^(r/tau) = e^150 is about 2^216."""
        value = legendre_conjugate(make_shannon(0.01), 1.5)
        assert value == pytest.approx(0.01 * math.expm1(150.0), rel=1e-12)

    def test_closed_form_check_scales_with_the_conjugate(self):
        """Near |phi*| = 5e171 a float resolves 1e156, not the absolute 1e-8."""
        gen = make_shannon(0.01)
        assert conjugate_check(gen).passed
        off = dataclasses.replace(gen, conjugate=lambda r: gen.conjugate(r) * (1.0 + 1e-9))
        assert not conjugate_check(off).passed


class TestAssumptionChecks:
    def test_shannon_passes(self):
        assert check_assumptions(make_shannon(1.0)).all_passed

    @pytest.mark.parametrize("q", [1.0000001, 1.001, 1.5, 2.0, 3.0, 5.0])
    def test_tsallis_passes(self, q):
        """At q = 5 the unscaled second divided differences reached -8.2e-12 by roundoff.

        Near q = 1 the power form ``(s^(q-1) - 1)/(q-1)`` lost the smoothness
        check to cancellation (1.0e-5 at q = 1.001, 3.6e-2 at q = 1.0000001);
        the q-logarithm keeps its digits.
        """
        report = check_assumptions(make_tsallis(q, 1.0))
        assert report.all_passed

    def test_nonconvex_probe_fails_positivity_and_convexity(self):
        report = check_assumptions(make_nonconvex_probe())
        assert not report.all_passed
        failed = report.failed()
        assert "P3-strict-convexity" in failed
        assert "P3-positivity" in failed
