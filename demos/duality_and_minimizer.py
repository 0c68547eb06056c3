#!/usr/bin/env python3
# Convexity certificates.  The unique minimizer of the energy over unit-mass
# densities is the constant 1/Z; every density's energy dominates the floor,
# and every bounded test function yields a Fenchel lower bound that touches
# the energy exactly at the generator's derivative.
#
# Usage: python demos/duality_and_minimizer.py
import numpy as np

import entroflow as ef

grid = ef.build_grid(1, -6.0, 6.0, 401)
gibbs = ef.build_potential(None, None, None, 1.0, 1.0, grid)
gen = ef.make_tsallis(2.0, 1.0)
rng = np.random.default_rng(7)

w_star, e_star = ef.compute_minimizer(gibbs, gen)
print(f"minimizer: constant density {w_star.values[0]:.6f}, floor energy {e_star:.6f}\n")

w = ef.init_state(gibbs, ef.ou_relative_density(grid, 0.5, 1.0, 1.0, 0.0)).w
e = ef.energy(w, gibbs, gen)
print(f"energy of the translate: {e:.6f} (>= floor by {e - e_star:.6f})\n")

print("Fenchel lower bounds from random bounded test functions:")
best = -np.inf
for k in range(8):
    amp = rng.uniform(0.2, 2.0)
    s_vals = amp * np.tanh(rng.normal() + rng.normal(scale=0.7) * grid.nodes[:, 0])
    bound = ef.duality_lower_bound(ef.ScalarField(grid, s_vals), w, gibbs, gen)
    best = max(best, bound)
    print(f"  bound {k}: {bound:12.6f}   (gap {e - bound:.6f})")

s_opt = ef.ScalarField(grid, gen.phi1(w.values))
exact = ef.duality_lower_bound(s_opt, w, gibbs, gen)
print(f"\nat the generator's derivative the bound is exact: {exact:.12f} vs {e:.12f}")
print(f"best random bound reached {best:.6f}")
