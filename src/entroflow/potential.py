"""The linearized potential and its normalized Gibbs reference weight on the grid.

The potential is the generalization error of the network plus a quadratic
regularizer ``(lam/2) |x|^2``; because it does not depend on the evolving
measure, the flow it drives is linear.  The raw weight ``exp(-V / tau)`` has
finite total mass ``Z_raw``, bounded by ``exp(M / tau) * (2 pi tau / lam)^(d/2)``
where ``M`` bounds the data term.  Every flow runs on the Gibbs probability
measure ``gamma = exp(-V / tau) / Z_raw``, the weight the paper's convergence
theorem is stated for; ``build_potential`` alone decides it, and rejects a
box on which the raw weight underflows.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, ScalarField, WeightedOperator, integrate
from .model import Activation, Dataset, Loss, generalization_error


@dataclass
class GibbsField:
    """The normalized Gibbs weight of the potential on the grid.

    Attributes
    ----------
    gamma : ScalarField
        ``exp(-V / tau) / Z_raw`` at the nodes, strictly positive.
    Z : float
        Total mass of ``gamma`` over the box: one up to roundoff.
    Z_raw : float
        Mass of ``exp(-V / tau)``; the finiteness bound applies to it.
    m_grid : float
        Max of ``|data term|`` over the nodes (tight bound, default for the
        theoretical rate).
    m_envelope : float
        Certified global bound ``loss.bound * total_mass`` (valid off-grid).
    """

    grid: Grid
    gamma: ScalarField
    Z: float
    Z_raw: float
    m_grid: float
    m_envelope: float
    lam: float
    tau: float
    _operator: WeightedOperator | None = field(default=None, repr=False)

    def operator(self) -> WeightedOperator:
        """Weighted diffusion operator for the current gamma (cached)."""
        if self._operator is None:
            self._operator = WeightedOperator(self.grid, self.gamma)
        return self._operator

    def mass_bound(self) -> float:
        """Finiteness envelope ``exp(m_grid/tau) * (2 pi tau / lam)^(d/2)`` of ``Z_raw``."""
        gauss = (2.0 * math.pi * self.tau / self.lam) ** (self.grid.dim / 2.0)
        return math.exp(self.m_grid / self.tau) * gauss


def certified_envelope(data: Dataset | None, loss: Loss | None) -> float:
    """Global bound on the data term: ``loss.bound * total_mass``."""
    if data is None or loss is None:
        return 0.0
    return loss.bound * data.total_mass


def build_potential(data: Dataset | None, loss: Loss | None, act: Activation | None,
                    lam: float, tau: float, grid: Grid) -> GibbsField:
    """Sample the potential and its normalized Gibbs weight on the grid.

    With ``data=None`` the potential is the pure quadratic ``(lam/2)|x|^2``
    and the reference weight is a Gaussian.  The weight is
    ``exp(-(V + tau ln Z_raw) / tau)``: shifting ``V`` by a constant leaves
    the flow untouched and makes the total mass one.  Raises ``ValueError``
    for a nonpositive ``lam`` or ``tau``, and when ``exp(-V/tau)`` falls
    below the smallest normal float at some node of the box.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    nodes = grid.nodes
    if data is not None:
        gen_err = generalization_error(nodes, data, loss, act)
    else:
        gen_err = np.zeros(grid.num_nodes)
    m_envelope = certified_envelope(data, loss)
    with np.errstate(over="ignore"):  # V = inf on a huge box: the weight underflows below
        v = gen_err + 0.5 * lam * np.sum(nodes**2, axis=1)
    raw = np.exp(-v / tau)
    if np.min(raw) < np.finfo(float).tiny:
        box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(grid.lo, grid.hi))
        hint = ""
        with contextlib.suppress(OverflowError):  # exp(2M/tau) overflows: no automatic box
            lo, hi = default_box(lam, tau, grid.dim, m_envelope)
            hint = f", e.g. the automatic [{lo:g}, {hi:g}] per axis (omit grid.lo and grid.hi)"
        raise ValueError(f"Gibbs weight exp(-V/tau) underflows on the box {box} at "
                         f"tau = {tau:g}; choose another box{hint}")
    z_raw = integrate(ScalarField(grid, raw))
    gamma = ScalarField(grid, np.exp(-(v + tau * math.log(z_raw)) / tau))
    return GibbsField(
        grid=grid,
        gamma=gamma,
        Z=integrate(gamma),
        Z_raw=z_raw,
        m_grid=max(float(np.max(np.abs(gen_err))), 0.0),
        m_envelope=m_envelope,
        lam=float(lam),
        tau=float(tau),
    )


# the worst-case relative Gibbs mass that the automatic box leaves outside
TAIL_TOL = 1e-10


def default_box(lam: float, tau: float, dim: int, m_envelope: float = 0.0) -> tuple[float, float]:
    """Symmetric truncation box leaving relative Gaussian tail mass below ``TAIL_TOL``.

    The tail of the Gibbs weight outside ``[-R, R]^d`` is controlled by the
    Gaussian envelope with the data term bounded by ``m_envelope``; the
    radius is chosen so the worst-case relative tail stays below
    ``TAIL_TOL``.
    """
    target = TAIL_TOL / (2.0 * dim * math.exp(2.0 * m_envelope / tau))
    # invert the standard normal tail by bisection on erfc
    lo_r, hi_r = 1.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo_r + hi_r)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > target:
            lo_r = mid
        else:
            hi_r = mid
    r = hi_r * math.sqrt(tau / lam)
    return (-r, r)
