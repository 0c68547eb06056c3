#!/usr/bin/env python3
# One trajectory, many energies.  The flow itself does not depend on the
# entropy generator, so a single solve yields the decay curve of every
# generator at once.  Each convex generator's energy decays at least at the
# guaranteed rate; near equilibrium they all decay at twice the spectral gap.
#
# Usage: python demos/tsallis_family_rates.py
import entroflow as ef

lam = tau = 1.0
grid = ef.build_grid(1, -6.0, 6.0, 401)
gibbs = ef.build_potential(None, None, None, lam, tau, grid)

generators = {
    "shannon": ef.make_shannon(tau),
    "tsallis q=1.5": ef.make_tsallis(1.5, tau),
    "tsallis q=2": ef.make_tsallis(2.0, tau),
    "tsallis q=3": ef.make_tsallis(3.0, tau),
}

state = ef.init_state(gibbs, ef.ou_relative_density(grid, 0.5, lam, tau, 0.0))
records = {name: [] for name in generators}


def observer(t, w):
    for name, gen in generators.items():
        records[name].append(ef.snapshot(t, w, gibbs, gen))


ef.evolve(state, ef.SolverConfig(dt=1e-3, t_final=3.0, record_every=10), observer=observer)

theory = ef.lambda_rate(lam, tau, 0.0)
print(f"guaranteed rate: {theory:.4f}\n")
print(f"{'generator':>14} {'E(0)':>10} {'fitted rate':>12} {'fitted/guaranteed':>18}")
for name in generators:
    report = ef.fit_decay_rate(records[name], 0.0, theory)
    e0 = records[name][0].energy
    print(f"{name:>14} {e0:10.5f} {report.fitted_rate:12.5f} "
          f"{report.fitted_rate / theory:18.4f}")
