"""Named invariant checks behind the ``verify`` command.

Each check exercises one structural fact the theory guarantees: the data
term stays inside its declared envelope, the Gibbs mass respects the
Gaussian-integral bound, the chord-slope split rebuilds the generator, the
conjugate satisfies Fenchel-Young, energies dominate their duality lower
bounds and the constant-minimizer floor, entropy-to-Fisher ratios respect
the perturbed Sobolev constant, the discrete operator is self-adjoint with
constants in its kernel, and a short trajectory conserves mass, positivity,
and the sup bound.  Failures are reported, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from .analysis import (
    compute_minimizer,
    dissipation_check,
    duality_lower_bound,
    energy,
    lambda_rate,
    snapshot,
    sobolev_ratio,
)
from .config import RunConfig
from .entropy import check_assumptions, conjugate_values, legendre_conjugate, psi_decompose
from .grid import ScalarField
from .potential import certified_envelope
from .solver import ROUNDOFF_FLOOR, evolve, init_state


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "margin": self.margin, "detail": self.detail}


# the random smooth densities: log w is a sum of MODES cosines per axis,
# the k-th with amplitude ROUGHNESS * N(0, 1) / k
ROUGHNESS, MODES = 0.6, 4


def _smooth_density(gibbs, rng) -> ScalarField:
    g = gibbs.grid
    field = np.zeros(g.n)
    for a in range(g.dim):
        # each cosine depends on one coordinate: evaluate on the axis, broadcast
        x = (g.axis_coords(a) - g.lo[a]) / (g.hi[a] - g.lo[a])
        x = x.reshape([-1 if b == a else 1 for b in range(g.dim)])
        for k in range(1, MODES + 1):
            field += ROUGHNESS * rng.normal() / k * np.cos(math.pi * k * x)
    w = np.exp(field).ravel()
    mass = gibbs.operator().inner(w, 1.0)
    return ScalarField(g, w / mass)


def conjugate_check(gen) -> CheckResult:
    """Numeric against closed-form conjugate at 17 points of [-4, 4].

    The tolerance is ``max(1e-8, 1e-12 |closed form|)``: a float holds
    ``|phi*| > 1e8`` only to about 1e-16 relative, which is more than 1e-8
    absolute.  Where ``|phi*| <= 1e4`` the tolerance is plain 1e-8.
    """
    margin, worst = math.inf, 0.0
    for r in np.linspace(-4.0, 4.0, 17):
        closed = float(conjugate_values(gen, np.array(r)))
        gap = abs(legendre_conjugate(gen, float(r)) - closed)
        margin, worst = min(margin, max(1e-8, 1e-12 * abs(closed)) - gap), max(worst, gap)
    return CheckResult(
        "entropy.conjugate_closed_form", margin >= 0.0, margin,
        f"max numeric-vs-closed-form gap {worst:.2e} (tolerance max(1e-8, 1e-12 |phi*|))",
    )


def run_verification(cfg: RunConfig) -> list[CheckResult]:
    """Execute the full invariant suite for one configuration."""
    rng = np.random.default_rng(cfg.seed)
    results: list[CheckResult] = []
    gen, grid = cfg.generator, cfg.grid
    gibbs = cfg.build_gibbs()
    w0 = cfg.initial_density(gibbs)
    op = gibbs.operator()

    # ---- entropy generator structure -------------------------------------
    report = check_assumptions(gen)
    for check in report.checks:
        results.append(CheckResult(
            name=f"entropy.{check.name}", passed=check.passed, margin=0.0,
            detail=check.detail,
        ))
    if not report.all_passed:
        # the remaining checks are meaningless (and divergent) for an
        # invalid generator; report the structural failures and stop
        return results

    s = np.geomspace(1e-6, 1e4, 200)
    rebuilt = s * psi_decompose(gen, s) + gen.phi_at_0
    rel = float(np.max(np.abs(rebuilt - gen.phi(s)) / np.maximum(np.abs(gen.phi(s)), 1e-30)))
    results.append(CheckResult(
        "entropy.chord_reconstruction", rel <= 1e-12, 1e-12 - rel,
        f"max relative reconstruction error {rel:.2e}",
    ))

    lo = rng.uniform(0.0, 50.0, size=1000)
    hi = lo + rng.uniform(1e-3, 10.0, size=1000)
    mono_margin = float(np.min(np.asarray(psi_decompose(gen, hi)) - np.asarray(psi_decompose(gen, lo))))
    results.append(CheckResult(
        "entropy.chord_monotone", mono_margin > 0.0, mono_margin,
        f"min slope increase over 1000 pairs {mono_margin:.3e}",
    ))

    s_fy = rng.uniform(0.01, 20.0, size=200)
    r_fy = rng.uniform(-4.0, 4.0, size=200)
    gap = gen.phi(s_fy) + conjugate_values(gen, r_fy) - s_fy * r_fy
    fy_margin = float(np.min(gap))
    results.append(CheckResult(
        "entropy.fenchel_young", fy_margin >= -1e-8, fy_margin,
        f"min Fenchel-Young gap {fy_margin:.3e}",
    ))

    if gen.conjugate is not None:
        results.append(conjugate_check(gen))

    # ---- data term and Gibbs mass -----------------------------------------
    if cfg.data is not None:
        envelope = certified_envelope(cfg.data, cfg.loss)
        x = np.column_stack([rng.uniform(grid.lo[a], grid.hi[a], size=1000)
                             for a in range(grid.dim)])
        vals = np.abs(model_mod.generalization_error(x, cfg.data, cfg.loss, cfg.activation))
        worst = float(np.max(vals))
        results.append(CheckResult(
            "potential.data_term_envelope", worst <= envelope + 1e-12, envelope - worst,
            f"max |data term| over 1000 random points {worst:.6f} vs envelope {envelope:.6f}",
        ))

    bound = gibbs.mass_bound()
    results.append(CheckResult(
        "potential.mass_finiteness", gibbs.Z_raw <= bound, bound - gibbs.Z_raw,
        f"unnormalized mass {gibbs.Z_raw:.6f} vs bound {bound:.6f}",
    ))

    # ---- discrete operator structure ---------------------------------------
    ones = np.ones(grid.num_nodes)
    kernel_resid = float(np.max(np.abs(op.apply(ones))))
    results.append(CheckResult(
        "operator.constants_in_kernel", kernel_resid <= 1e-10, 1e-10 - kernel_resid,
        f"max |G 1| = {kernel_resid:.2e}",
    ))

    sym_worst = 0.0
    sign_worst = 0.0
    for _ in range(20):
        wv = rng.normal(size=grid.num_nodes)
        vv = rng.normal(size=grid.num_nodes)
        scale = float(np.linalg.norm(wv) * np.linalg.norm(vv))
        sym_worst = max(sym_worst, abs(op.inner(op.apply(wv), vv) - op.inner(wv, op.apply(vv))) / scale)
        sign_worst = max(sign_worst, op.inner(op.apply(wv), wv))
    results.append(CheckResult(
        "operator.self_adjoint", sym_worst <= 1e-12, 1e-12 - sym_worst,
        f"max scaled symmetry defect {sym_worst:.2e}",
    ))
    results.append(CheckResult(
        "operator.negative_semidefinite", sign_worst <= 1e-12, 1e-12 - sign_worst,
        f"max <G w, w> over 20 draws {sign_worst:.2e}",
    ))

    # ---- energy certificates ------------------------------------------------
    w_star, e_star = compute_minimizer(gibbs, gen)
    floor_margin = math.inf
    for _ in range(50):
        w = _smooth_density(gibbs, rng)
        floor_margin = min(floor_margin, energy(w, gibbs, gen) - e_star)
    results.append(CheckResult(
        "energy.minimizer_floor", floor_margin >= -1e-10, floor_margin,
        f"min energy excess over the floor across 50 densities {floor_margin:.3e}",
    ))

    w_ref = _smooth_density(gibbs, rng)
    e_ref = energy(w_ref, gibbs, gen)
    dual_margin = math.inf
    for _ in range(50):
        amp = rng.uniform(0.2, 2.0)
        sv = amp * np.tanh(rng.normal(scale=1.0)
                           + gibbs.grid.nodes @ rng.normal(scale=0.7, size=grid.dim))
        dual_margin = min(dual_margin, e_ref - duality_lower_bound(
            ScalarField(grid, sv), w_ref, gibbs, gen))
    finite_grad = np.all(np.isfinite(gen.phi1(w_ref.values)))
    if finite_grad:
        s_eq = ScalarField(grid, gen.phi1(w_ref.values))
        eq_gap = abs(e_ref - duality_lower_bound(s_eq, w_ref, gibbs, gen))
    else:
        eq_gap = 0.0
    results.append(CheckResult(
        "energy.duality_lower_bound", dual_margin >= -1e-10 and eq_gap <= 1e-8,
        dual_margin,
        f"min duality gap {dual_margin:.3e}; equality defect at the gradient {eq_gap:.2e}",
    ))

    bound_ratio = 1.0 / lambda_rate(gibbs.lam, gibbs.tau, gibbs.m_grid)
    ratio_worst = 0.0
    for _ in range(100):
        w = _smooth_density(gibbs, rng)
        ratio = sobolev_ratio(w, gibbs, gen)
        if ratio is not None:
            ratio_worst = max(ratio_worst, ratio)
    detail = f"max ratio over 100 densities {ratio_worst:.6f} vs bound {bound_ratio:.6f}"
    if ratio_worst > bound_ratio:
        # the bound is the continuum constant; the grid's own gap sits below
        # the continuum gap by O(h^2), which lifts the ratio towards 1/(2 mu_1)
        detail += "; grid h = " + ", ".join(f"{h:.6g}" for h in grid.h)
        if op.axis_eigenbasis is not None:
            mu_1 = min(float(mu[1]) for mu, _ in op.axis_eigenbasis)
            detail += f"; discrete 1/(2 mu_1) = {0.5 / mu_1:.6f}"
    if gen.family == "tsallis" and gen.q > 2.0:
        # phi-Sobolev inequalities need 1/phi'' concave (Chafaï 2004), which is q <= 2
        detail += "; the bound is proved for Tsallis q in (1, 2] only"
    results.append(CheckResult(
        "energy.sobolev_ratio_bound", ratio_worst <= bound_ratio, bound_ratio - ratio_worst,
        detail,
    ))

    # ---- a short trajectory -------------------------------------------------
    short = replace(cfg, t_final=min(cfg.t_final, 200.0 * cfg.dt),
                    record_every=max(1, min(cfg.record_every, 20)))
    records = []
    evolve(init_state(gibbs, w0), short, observer=lambda t, w: records.append(snapshot(t, w, gibbs, gen)))
    mass_drift = max(abs(r.mass - 1.0) for r in records)
    results.append(CheckResult(
        "solver.mass_conservation", mass_drift <= 1e-8, 1e-8 - mass_drift,
        f"max |mass - 1| over {len(records)} records {mass_drift:.2e}",
    ))
    min_w = min(r.w_min for r in records)
    results.append(CheckResult(
        "solver.positivity", min_w >= -ROUNDOFF_FLOOR, min_w + ROUNDOFF_FLOOR,
        f"min density value along the trajectory {min_w:.3e}",
    ))
    sup0 = records[0].w_max
    sup_worst = max(r.w_max for r in records)
    results.append(CheckResult(
        "solver.sup_bound", sup_worst <= sup0 * (1 + 1e-10), sup0 * (1 + 1e-10) - sup_worst,
        f"max density {sup_worst:.6f} vs initial {sup0:.6f}",
    ))
    if len(records) >= 3:
        diss = dissipation_check(records)
        results.append(CheckResult(
            "solver.energy_monotone", diss.monotone, -diss.worst_increase,
            f"worst record-to-record energy increase {diss.worst_increase:.3e}",
        ))
    return results
