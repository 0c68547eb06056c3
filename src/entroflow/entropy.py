"""Convex entropy generators and their calculus.

A generator is a strictly convex function ``phi`` on ``[0, inf)`` with
``phi(1) = 0``, nonnegative values, and superlinear growth.  Two families are
built in: the Shannon generator ``tau * (s ln s - (s - 1))`` and the Tsallis
family ``tau/(q-1) * (s^q - 1 - q(s-1))`` for ``q > 1``.  The module also
provides the chord-slope split ``phi(s) = s * psi(s) + phi(0)``, numerical
Legendre conjugates with closed-form cross-checks, and a report-style
validator for the structural assumptions the convergence theory needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# the least argument at which the Fisher term and the numerical conjugate evaluate
DOMAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class EntropyGenerator:
    """A convex entropy generator: ``phi``, its derivative ``phi1``, and an
    optional closed-form Legendre conjugate.

    ``phi`` must be finite at 0; ``phi_at_0`` is derived from it.  ``phi1`` may
    diverge at 0 (Shannon's is ``-inf`` there); the Fisher term clamps its
    arguments at ``DOMAIN_FLOOR`` before evaluating it.
    """

    family: str
    tau: float
    phi: Callable[[np.ndarray], np.ndarray]
    phi1: Callable[[np.ndarray], np.ndarray]
    q: float | None = None
    # optional closed-form Legendre conjugate, used as a fast path and as a
    # cross-check for the numerical conjugate
    conjugate: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    @property
    def phi_at_0(self) -> float:
        return float(self.phi(np.array(0.0)))


def make_shannon(tau: float) -> EntropyGenerator:
    """Shannon generator ``tau * (s ln s - (s - 1))`` with ``phi(0) = tau``."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")

    def phi(s):
        s = np.asarray(s, dtype=float)
        return tau * (s * np.log(np.where(s > 0.0, s, 1.0)) - s + 1.0)

    def phi1(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return tau * np.log(s)

    def conj(r):
        r = np.asarray(r, dtype=float)
        return tau * np.expm1(r / tau)

    return EntropyGenerator(
        family="shannon", tau=float(tau), phi=phi, phi1=phi1, conjugate=conj,
    )


def make_tsallis(q: float, tau: float) -> EntropyGenerator:
    """Tsallis generator ``tau/(q-1) * (s^q - 1 - q(s-1))``, ``q > 1``.

    Evaluated as ``tau (s lnq(s) - s + 1)``, ``phi1 = tau q lnq(s)``, through the
    q-logarithm ``expm1((q-1) ln s)/(q-1)``, which keeps its digits as ``q -> 1``.
    """
    if q <= 1:
        raise ValueError(f"q must exceed 1, got {q}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")

    # at a large q the powers overflow to inf or nan, which the energy and the
    # assumption checks reject; each closure gets its own errstate (conj calls phi).
    # log(0) = -inf is meant: it gives lnq(0) = -1/(q-1) and phi(0) = tau exactly
    def quiet(f):
        return np.errstate(over="ignore", invalid="ignore", divide="ignore")(f)

    def lnq(s):
        return np.expm1((q - 1.0) * np.log(s)) / (q - 1.0)

    @quiet
    def phi(s):
        s = np.asarray(s, dtype=float)
        return tau * (s * lnq(s) - s + 1.0)

    @quiet
    def phi1(s):
        return tau * q * lnq(np.asarray(s, dtype=float))

    @quiet
    def conj(r):
        # maximizer solves lnq(s) = r/(tau q); at or below phi1(0) = -tau*q/(q-1)
        # log1p(-1) = -inf puts it at s = 0, with value -phi(0) = -tau
        r = np.asarray(r, dtype=float)
        s_star = np.exp(np.log1p(np.maximum((q - 1.0) * r / (tau * q), -1.0)) / (q - 1.0))
        return s_star * r - phi(s_star)

    return EntropyGenerator(
        family="tsallis", tau=float(tau), q=float(q), phi=phi, phi1=phi1, conjugate=conj,
    )


def make_nonconvex_probe() -> EntropyGenerator:
    """Deliberately invalid generator ``-(s-1)^2``; a fixture for failure paths."""
    return EntropyGenerator(
        family="nonconvex-probe", tau=1.0,
        phi=lambda s: -((np.asarray(s, dtype=float) - 1.0) ** 2),
        phi1=lambda s: -2.0 * (np.asarray(s, dtype=float) - 1.0),
    )


def from_config(family: str, tau: float, q: float | None = None) -> EntropyGenerator:
    """Build a generator from the configuration keys ``entropy.family``, ``entropy.q``, ``tau``."""
    if family == "shannon":
        return make_shannon(tau)
    if family == "tsallis":
        if q is None:
            raise ValueError("tsallis entropy requires entropy.q")
        return make_tsallis(q, tau)
    if family == "nonconvex-probe":
        return make_nonconvex_probe()
    raise ValueError(f"unknown entropy family {family!r}")


def psi_decompose(gen: EntropyGenerator, s) -> np.ndarray | float:
    """Chord slope ``psi(s) = (phi(s) - phi(0)) / s``, with ``phi'(0)`` at 0.

    Splits the generator as ``phi(s) = s * psi(s) + phi(0)`` with ``psi``
    strictly increasing.  At ``s = 0`` the one-sided derivative is returned,
    which is ``-inf`` for the Shannon family.
    """
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise ValueError("psi is defined on s >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        chord = (gen.phi(arr) - gen.phi_at_0) / arr
    at_zero = gen.phi1(np.array(0.0))
    out = np.where(arr > 0, chord, at_zero)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def legendre_conjugate(gen: EntropyGenerator, r: float) -> float:
    """Numerical conjugate ``sup_{s >= 0} (s r - phi(s))``.

    The supremand is concave in ``s``, so the maximizer solves
    ``phi1(s) = r``; it is bracketed by doubling and refined by bisection on
    the increasing ``phi1`` to a relative width of ``1e-14``, for every ``r``
    whose maximizer is a finite float.
    Superlinearity makes the supremum finite for every finite ``r``.
    """
    if not math.isfinite(r):
        raise ValueError(f"conjugate argument must be finite, got {r}")

    def supremand(s):
        return s * r - float(gen.phi(np.array(s)))

    # supremum at the boundary when the slope never reaches r
    if float(gen.phi1(np.array(DOMAIN_FLOOR))) >= r:
        return max(supremand(0.0), supremand(DOMAIN_FLOOR))

    # double up to the largest float: every maximizer that is a float is bracketed
    big = float(np.finfo(float).max)
    s_lo, s_hi = DOMAIN_FLOOR, 1.0
    while float(gen.phi1(np.array(s_hi))) < r:
        if s_hi == big:
            raise ArithmeticError(f"the conjugate maximizer for r={r} exceeds the float range")
        s_lo, s_hi = s_hi, min(2.0 * s_hi, big)

    # invariant: phi1(s_lo) < r <= phi1(s_hi)
    while s_hi - s_lo > 1e-14 * s_hi:
        mid = 0.5 * s_lo + 0.5 * s_hi
        if float(gen.phi1(np.array(mid))) < r:
            s_lo = mid
        else:
            s_hi = mid
    s_star = 0.5 * s_lo + 0.5 * s_hi
    return max(supremand(s_star), supremand(0.0))


def conjugate_values(gen: EntropyGenerator, r) -> np.ndarray:
    """Vectorized conjugate: closed form when available, else pointwise numeric."""
    arr = np.asarray(r, dtype=float)
    if gen.conjugate is not None:
        return np.asarray(gen.conjugate(arr), dtype=float)
    return np.array([legendre_conjugate(gen, float(v)) for v in arr.ravel()]).reshape(arr.shape)


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class AssumptionReport:
    checks: list[AssumptionCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sample fails its check
def check_assumptions(gen: EntropyGenerator) -> AssumptionReport:
    """Validate the structural assumptions on a generator, returning a report.

    Checked on sample grids: smoothness (``phi1`` against centered finite
    differences of ``phi`` on the open half-line), the normalization
    ``phi(1) = 0``, nonnegativity and strict convexity on ``[0, inf)``, and
    superlinear growth of ``phi(s)/s``.
    """
    checks: list[AssumptionCheck] = []

    s_smooth = np.geomspace(1e-3, 1e3, 41)
    eps = 1e-6 * s_smooth
    fd1 = (gen.phi(s_smooth + eps) - gen.phi(s_smooth - eps)) / (2 * eps)
    an1 = gen.phi1(s_smooth)
    rel1 = np.max(np.abs(fd1 - an1) / np.maximum(np.abs(an1), 1.0))
    checks.append(AssumptionCheck(
        "P1-smoothness", bool(rel1 < 1e-5),
        f"max relative derivative mismatch {rel1:.2e} on (0, inf) samples",
    ))

    v1 = float(gen.phi(np.array(1.0)))
    checks.append(AssumptionCheck("P2-normalization", v1 == 0.0, f"phi(1) = {v1!r}"))

    s_pos = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 101)])
    vals = gen.phi(s_pos)
    min_val = float(np.min(vals))
    checks.append(AssumptionCheck(
        "P3-positivity", min_val >= -1e-15, f"min phi on [0, 1e4] samples = {min_val:.3e}",
    ))

    s_conv = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 81)])
    f = gen.phi(s_conv)
    # second divided differences over consecutive triples, relative to the
    # slopes' roundoff scale (|f_a| + |f_b|) / (s_b - s_a): each f carries a
    # few ulps of error, which alone reach about -1e-16 here (Tsallis q = 5)
    ds, fsum = np.diff(s_conv), np.abs(f[1:]) + np.abs(f[:-1])
    rel_d2 = np.diff(np.diff(f) / ds) / (fsum[1:] / ds[1:] + fsum[:-1] / ds[:-1])
    min_rel = float(np.min(rel_d2))
    checks.append(AssumptionCheck(
        "P3-strict-convexity", min_rel > -1e-14,
        f"min second divided difference relative to phi's magnitude = {min_rel:.3e}",
    ))

    s_super = 10.0 ** np.arange(1, 7)
    ratios = gen.phi(s_super) / s_super
    increasing = bool(np.all(np.diff(ratios) > 0))
    checks.append(AssumptionCheck(
        "P4-superlinearity", increasing,
        f"phi(s)/s over s = 10..1e6: {np.array2string(ratios, precision=3)}",
    ))

    return AssumptionReport(checks=checks)
