"""Energy functionals, dissipation, convergence rates, and certificates.

The target energy of a density ``w`` relative to the Gibbs weight is
``sum_i m_i phi(w_i)`` over the operator's node masses; its dissipation
is the Fisher term ``sum_e c_e (w_j - w_i)(phi'(w_j) - phi'(w_i))`` over
the edges, exactly the rate at which the energy falls under ``D w' = -L w``.
This module evaluates both, checks the dissipation identity on recorded
trajectories, computes the guaranteed exponential rate
``2 lam / tau * exp(-2 M / tau)``, certifies the entropy-Sobolev ratio and
the constant minimizer, evaluates duality lower bounds, and fits empirical
decay rates from time series.  A closed-form translated-Gaussian solution of
the quadratic-potential flow serves as the independent oracle throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import DOMAIN_FLOOR, EntropyGenerator, conjugate_values
from .grid import ScalarField, constant_field
from .potential import GibbsField
from .solver import ROUNDOFF_FLOOR, SolverDiagnosticError


@dataclass
class EnergyRecord:
    t: float
    energy: float
    fisher: float
    mass: float
    w_min: float
    w_max: float


@dataclass
class RateReport:
    fitted_rate: float
    lambda_theory: float
    E_star: float
    fit_window: tuple[float, float]
    fit_residual: float

    def to_dict(self) -> dict:
        return {
            "fitted_rate": self.fitted_rate,
            "lambda_theory": self.lambda_theory,
            "E_star": self.E_star,
            "fit_window": list(self.fit_window),
            "fit_residual": self.fit_residual,
        }


def energy(w: ScalarField, gibbs: GibbsField, gen: EntropyGenerator) -> float:
    """The energy ``sum_i m_i phi(w_i)`` over the operator's node masses.

    These are the masses the flow conserves and the Fisher term is exact
    for.  Entries in ``[-ROUNDOFF_FLOOR, 0)`` are solver roundoff, evaluated
    at 0; anything more negative is a genuine sign violation and rejected,
    as is a sum that is not finite (``phi`` overflowed).
    """
    if w.grid != gibbs.grid:
        raise ValueError("density lives on a different grid")
    if np.any(w.values < -ROUNDOFF_FLOOR):
        raise ValueError("density has negative entries")
    e = gibbs.operator().inner(gen.phi(np.maximum(w.values, 0.0)), 1.0)
    if not math.isfinite(e):
        raise ValueError(f"the energy is not finite ({e})")
    return e


def fisher(w: ScalarField, gibbs: GibbsField, gen: EntropyGenerator) -> float:
    """Entropy production ``sum_e c_e (w_j - w_i)(phi'(w_j) - phi'(w_i))`` at ``w``.

    The edge form ``<phi'(w), L w>`` is exactly ``-dE/dt`` under ``D w' = -L w``;
    ``phi'`` is evaluated once per node, at ``max(w, DOMAIN_FLOOR)``.
    """
    if w.grid != gibbs.grid:
        raise ValueError("density lives on a different grid")
    phi1 = gen.phi1(np.maximum(w.values, DOMAIN_FLOOR))
    return max(gibbs.operator().edge_form(w.values, phi1), 0.0)


def snapshot(t: float, w: ScalarField, gibbs: GibbsField, gen: EntropyGenerator) -> EnergyRecord:
    """Bundle the instantaneous energy, dissipation, mass, and range of ``w``."""
    op = gibbs.operator()
    try:
        e = energy(w, gibbs, gen)
    except ValueError as exc:  # w comes from the solver: it went negative or overflows phi
        raise SolverDiagnosticError(f"the state at t = {t:g} has no energy: {exc}") from exc
    return EnergyRecord(
        t=float(t),
        energy=e,
        fisher=fisher(w, gibbs, gen),
        mass=op.inner(w.values, 1.0),
        w_min=float(np.min(w.values)),
        w_max=float(np.max(w.values)),
    )


@dataclass
class DissipationReport:
    max_rel_error: float
    monotone: bool
    worst_increase: float


# the largest record-to-record energy increase that still counts as monotone
MONOTONE_TOL = 1e-11


def dissipation_check(records: list[EnergyRecord]) -> DissipationReport:
    """Compare centered differences of the energy with the negated Fisher term.

    Needs at least three records.  Also reports whether the energy is
    non-increasing record to record (within ``MONOTONE_TOL``).
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records for the dissipation check")
    t = np.array([r.t for r in records])
    e = np.array([r.energy for r in records])
    f = np.array([r.fisher for r in records])
    dedt = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    scale = np.maximum(np.abs(f[1:-1]), 1e-30)
    rel = np.abs(dedt + f[1:-1]) / scale
    increases = np.diff(e)
    worst = float(np.max(increases)) if increases.size else 0.0
    return DissipationReport(
        max_rel_error=float(np.max(rel)),
        monotone=bool(worst <= MONOTONE_TOL),
        worst_increase=worst,
    )


def lambda_rate(lam: float, tau: float, m_bound: float) -> float:
    """Guaranteed exponential decay rate ``2 lam / tau * exp(-2 m / tau)``."""
    if lam <= 0 or tau <= 0:
        raise ValueError(f"lam and tau must be positive, got {lam}, {tau}")
    if m_bound < 0:
        raise ValueError(f"the potential bound must be nonnegative, got {m_bound}")
    return 2.0 * lam / tau * math.exp(-2.0 * m_bound / tau)


def sobolev_ratio(w: ScalarField, gibbs: GibbsField, gen: EntropyGenerator) -> float | None:
    """Energy-to-Fisher ratio of a unit-mass density on the Gibbs weight.

    Returns ``None`` for (near-)constant densities, where both sides vanish.
    The theory bounds the ratio by ``1 / lambda_rate(lam, tau, M)``.
    """
    mass = gibbs.operator().inner(w.values, 1.0)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density must have unit weighted mass, got {mass}")
    f = fisher(w, gibbs, gen)
    if f < 1e-14:
        return None
    return energy(w, gibbs, gen) / f


def compute_minimizer(gibbs: GibbsField, gen: EntropyGenerator) -> tuple[ScalarField, float]:
    """Constant minimizing density ``1/Z`` and its energy.

    Strict convexity plus the unit-mass constraint force the minimizer to be
    constant; its energy equals ``Z * phi(1/Z)``, zero up to roundoff since the
    weight has unit mass ``Z``.  The returned energy is evaluated by the same
    quadrature as :func:`energy`, so the certificate ``energy(w) >= E_star``
    is exact.
    """
    w_star = constant_field(gibbs.grid, 1.0 / gibbs.Z)
    return w_star, energy(w_star, gibbs, gen)


def duality_lower_bound(S: ScalarField, w: ScalarField, gibbs: GibbsField,
                        gen: EntropyGenerator) -> float:
    """Fenchel lower bound ``<S, w> - sum_i m_i phi*(S_i)`` for the energy.

    Never exceeds ``energy(w)``, which sums over the same node masses;
    equality holds at ``S = phi'(w)``.
    """
    if S.grid != gibbs.grid or w.grid != gibbs.grid:
        raise ValueError("fields live on different grids")
    op = gibbs.operator()
    return op.inner(S.values, w.values) - op.inner(conjugate_values(gen, S.values), 1.0)


def ou_oracle(m0: float, lam: float, tau: float, t: float) -> tuple[float, float]:
    """Closed-form mean and Shannon energy of the quadratic-potential flow.

    For the pure quadratic potential the flow maps a translated Gaussian to a
    translated Gaussian: the mean contracts as ``m0 * exp(-lam t / tau)`` and
    the Shannon energy is ``(lam m0^2 / 2) * exp(-2 lam t / tau)``.
    """
    if lam <= 0 or tau <= 0:
        raise ValueError(f"lam and tau must be positive, got {lam}, {tau}")
    mean = m0 * math.exp(-lam * t / tau)
    return mean, 0.5 * lam * mean * mean


def ou_relative_density(grid, m0: float, lam: float, tau: float, t: float) -> ScalarField:
    """Exact relative density of the translated-Gaussian solution at time t.

    Only meaningful against the normalized pure-quadratic Gibbs weight.  The
    translate keeps the stationary covariance ``(tau/lam) I`` and carries
    mean ``m0 * exp(-lam t / tau)`` in every coordinate.
    """
    mean = m0 * math.exp(-lam * t / tau)
    x = grid.nodes
    s2 = tau / lam
    expo = (mean * np.sum(x, axis=1) - 0.5 * grid.dim * mean * mean) / s2
    return ScalarField(grid, np.exp(expo))


# the relative energy excess a rate fit uses: below the initial transient
# at 0.5, above the quadrature noise floor at 1e-6
FIT_WINDOW = (1e-6, 0.5)


def fit_decay_rate(records: list[EnergyRecord], e_star: float, lambda_theory: float) -> RateReport:
    """Least-squares exponential rate of the energy excess over its floor.

    The fit runs on ``ln(energy - e_star)`` against time, restricted to
    records whose relative excess lies inside ``FIT_WINDOW``.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit a rate")
    t = np.array([r.t for r in records])
    excess = np.array([r.energy for r in records]) - e_star
    usable = excess > 0
    if int(np.count_nonzero(usable)) < 10:
        raise ValueError(
            f"only {int(np.count_nonzero(usable))} records lie above the minimum energy; "
            "need at least 10 to fit a rate"
        )
    e0 = excess[0]
    if e0 <= 0:
        raise ValueError("first record is already at the minimum energy")
    rel = excess / e0
    mask = usable & (rel >= FIT_WINDOW[0]) & (rel <= FIT_WINDOW[1])
    if int(np.count_nonzero(mask)) < 2:
        raise ValueError("fewer than 2 records fall inside the fitting window")
    tt = t[mask]
    yy = np.log(excess[mask])
    slope, intercept = np.polyfit(tt, yy, 1)
    resid = yy - (slope * tt + intercept)
    return RateReport(
        fitted_rate=float(-slope),
        lambda_theory=float(lambda_theory),
        E_star=float(e_star),
        fit_window=(float(tt.min()), float(tt.max())),
        fit_residual=float(np.sqrt(np.mean(resid**2))),
    )
