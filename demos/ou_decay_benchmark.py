#!/usr/bin/env python3
# The exactly solvable benchmark: a pure quadratic potential with the Shannon
# generator.  The flow contracts a translated Gaussian onto the Gibbs weight,
# the energy is the relative entropy lambda*m(t)^2/2 with m(t) = m0*exp(-t),
# and the guaranteed decay rate 2*lambda/tau is attained.
#
# Usage: python demos/ou_decay_benchmark.py

import numpy as np

import entroflow as ef

lam = tau = 1.0
m0 = 0.5

grid = ef.build_grid(1, -6.0, 6.0, 401)
gibbs = ef.build_potential(None, None, None, lam, tau, grid)
gen = ef.make_shannon(tau)

state = ef.init_state(gibbs, ef.ou_relative_density(grid, m0, lam, tau, 0.0))
records = []
cfg = ef.SolverConfig(dt=1e-3, t_final=3.0, record_every=10)
ef.evolve(state, cfg, observer=lambda t, w: records.append(ef.snapshot(t, w, gibbs, gen)))

print(f"{'t':>6} {'energy':>12} {'closed form':>12} {'rel err':>10} {'mass-1':>10}")
for r in records[::50]:
    _, exact = ef.ou_oracle(m0, lam, tau, r.t)
    rel = abs(r.energy - exact) / max(exact, 1e-300)
    print(f"{r.t:6.2f} {r.energy:12.6e} {exact:12.6e} {rel:10.2e} {r.mass - 1:10.2e}")

report = ef.fit_decay_rate(records, 0.0, ef.lambda_rate(lam, tau, 0.0))
print(f"\nfitted decay rate : {report.fitted_rate:.5f}")
print(f"guaranteed rate   : {report.lambda_theory:.5f}")
print(f"fit window        : [{report.fit_window[0]:.2f}, {report.fit_window[1]:.2f}]"
      f"  (log-residual rms {report.fit_residual:.1e})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    t = np.array([r.t for r in records])
    e = np.array([r.energy for r in records])
    plt.figure(figsize=(6, 4))
    plt.semilogy(t, e, label="computed energy")
    plt.semilogy(t, 0.125 * np.exp(-2 * t), "--", label="closed form 0.125 e^{-2t}")
    plt.xlabel("t")
    plt.ylabel("energy")
    plt.legend()
    plt.tight_layout()
    plt.savefig("ou_decay_benchmark.png", dpi=150)
    print("\nwrote ou_decay_benchmark.png")
except ImportError:
    pass
