"""The linearized potential and its Gibbs reference weight on the grid.

The potential is the generalization error of the network plus a quadratic
regularizer ``(lam/2) |x|^2``; because it does not depend on the evolving
measure, the flow it drives is linear.  The reference weight is
``exp(-V / tau)``, whose total mass is finite and bounded by
``exp(M / tau) * (2 pi tau / lam)^(d/2)`` where ``M`` bounds the data term.
Normalization shifts the potential by a constant, which leaves the flow
untouched while making the total mass exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, ScalarField, WeightedOperator, integrate
from .model import Activation, Dataset, Loss, generalization_error


@dataclass
class GibbsField:
    """Grid-sampled potential and its Gibbs weight.

    Attributes
    ----------
    V : ScalarField
        Potential values at the nodes.
    gamma : ScalarField
        ``exp(-V / tau)`` at the nodes, strictly positive.
    Z : float
        Current total mass of ``gamma`` over the box.
    Z_raw : float
        Mass before any normalization; the finiteness bound applies to it.
    m_grid : float
        Max of ``|data term|`` over the nodes (tight bound, default for the
        theoretical rate).
    m_envelope : float
        Certified global bound ``loss.bound * total_mass`` (valid off-grid).
    """

    grid: Grid
    V: ScalarField
    gamma: ScalarField
    Z: float
    Z_raw: float
    m_grid: float
    m_envelope: float
    lam: float
    tau: float
    normalized: bool = False
    _operator: WeightedOperator | None = field(default=None, repr=False)

    def operator(self) -> WeightedOperator:
        """Weighted diffusion operator for the current gamma (cached)."""
        if self._operator is None:
            self._operator = WeightedOperator(self.grid, self.gamma)
        return self._operator

    def mass_bound(self, use_envelope: bool = False) -> float:
        """Finiteness envelope ``exp(M/tau) * (2 pi tau / lam)^(d/2)``."""
        m = self.m_envelope if use_envelope else self.m_grid
        return math.exp(m / self.tau) * (2.0 * math.pi * self.tau / self.lam) ** (self.grid.dim / 2.0)


def certified_envelope(data: Dataset | None, loss: Loss | None) -> float:
    """Global bound on the data term: ``loss.bound * total_mass``."""
    if data is None or loss is None:
        return 0.0
    return loss.bound * data.total_mass


def build_potential(data: Dataset | None, loss: Loss | None, act: Activation | None,
                    lam: float, tau: float, grid: Grid) -> GibbsField:
    """Sample the potential and Gibbs weight on the grid.

    With ``data=None`` the potential is the pure quadratic ``(lam/2)|x|^2``
    and the reference weight is an (unnormalized) Gaussian.
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
    v = gen_err + 0.5 * lam * np.sum(nodes**2, axis=1)
    gamma = ScalarField(grid, np.exp(-v / tau))
    z = integrate(gamma)
    return GibbsField(
        grid=grid,
        V=ScalarField(grid, v),
        gamma=gamma,
        Z=z,
        Z_raw=z,
        m_grid=max(float(np.max(np.abs(gen_err))), 0.0),
        m_envelope=certified_envelope(data, loss),
        lam=float(lam),
        tau=float(tau),
        normalized=False,
    )


def normalize_gibbs(fieldv: GibbsField) -> GibbsField:
    """Shift the potential so the Gibbs weight has unit mass.

    ``V <- V + tau * ln Z`` rescales ``gamma`` by ``1/Z``; a constant shift
    of ``V`` leaves the flow generated downstream identical.  Applying the
    operation twice is idempotent up to roundoff.
    """
    z = fieldv.Z
    v = ScalarField(fieldv.grid, fieldv.V.values + fieldv.tau * math.log(z))
    gamma = ScalarField(fieldv.grid, np.exp(-v.values / fieldv.tau))
    return GibbsField(
        grid=fieldv.grid,
        V=v,
        gamma=gamma,
        Z=integrate(gamma),
        Z_raw=fieldv.Z_raw,
        m_grid=fieldv.m_grid,
        m_envelope=fieldv.m_envelope,
        lam=fieldv.lam,
        tau=fieldv.tau,
        normalized=True,
    )


def default_box(lam: float, tau: float, dim: int, m_envelope: float = 0.0,
                tail_tol: float = 1e-10) -> tuple[float, float]:
    """Symmetric truncation box leaving relative Gaussian tail mass below tol.

    The tail of the Gibbs weight outside ``[-R, R]^d`` is controlled by the
    Gaussian envelope with the data term bounded by ``m_envelope``; the
    radius is chosen so the worst-case relative tail stays below
    ``tail_tol``.
    """
    target = tail_tol / (2.0 * dim * math.exp(2.0 * m_envelope / tau))
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
