#!/usr/bin/env python3
# The entropy-to-Fisher ratio bound and its sharpness.  On the pure Gaussian
# weight the ratio of any unit-mass density is at most tau/(2*lambda), and
# translated Gaussians attain it.  A bounded data term degrades the constant
# by at most exp(2*M/tau).  On the 401-node grid the translates print about
# 0.50005, a little above the continuum bound 0.5: the grid's own
# constant 1/(2 mu_1) = 0.500055, with mu_1 its spectral gap, is larger.
#
# Usage: python demos/sobolev_sharpness.py
import math

import numpy as np

import entroflow as ef
from entroflow.model import Dataset, arctan_sigmoid, saturating_squared_loss


def random_density(gibbs, rng, modes=4):
    g = gibbs.grid
    field = np.zeros(g.num_nodes)
    for a in range(g.dim):
        x = (g.nodes[:, a] - g.lo[a]) / (g.hi[a] - g.lo[a])
        for k in range(1, modes + 1):
            field += 0.6 * rng.normal() / k * np.cos(math.pi * k * x)
    w = np.exp(field)
    return ef.ScalarField(g, w / gibbs.operator().inner(w, 1.0))


lam = tau = 1.0
gen = ef.make_shannon(tau)
rng = np.random.default_rng(42)

# clean Gaussian reference weight
grid1 = ef.build_grid(1, -6.0, 6.0, 401)
clean = ef.build_potential(None, None, None, lam, tau, grid1)

# the same regularizer plus three weighted atoms
data = Dataset(z=[[-0.5], [0.0], [0.6]], y=[0.2, 0.8, 0.5], weight=[0.1, 0.1, 0.1])
grid2 = ef.build_grid(2, -7.0, 7.0, 61)
perturbed = ef.build_potential(data, saturating_squared_loss(), arctan_sigmoid(), lam, tau,
                               grid2)

for label, gibbs in (("clean Gaussian", clean), ("three-atom potential", perturbed)):
    bound = math.exp(2 * gibbs.m_grid / tau) * tau / (2 * lam)
    ratios = []
    for _ in range(200):
        r = ef.sobolev_ratio(random_density(gibbs, rng), gibbs, gen)
        if r is not None:
            ratios.append(r)
    print(f"{label}: data-term bound M = {gibbs.m_grid:.4f}, ratio bound = {bound:.4f}")
    violations = sum(r > bound for r in ratios)
    print(f"  {len(ratios)} random densities: max ratio {max(ratios):.4f}, "
          f"median {np.median(ratios):.4f}, violations {violations}\n")

print("sharpness on translates (clean weight, ratio -> tau/(2 lambda) = 0.5; the grid's\n"
      "own constant 1/(2 mu_1) = 0.500055 is larger, so they print about 0.50005):")
for m0 in (0.2, 0.4, 0.6):
    w = ef.init_state(clean, ef.ou_relative_density(grid1, m0, lam, tau, 0.0)).w
    print(f"  translate m0 = {m0}: ratio = {ef.sobolev_ratio(w, clean, gen):.6f}")
