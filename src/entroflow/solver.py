"""Time integration of the weighted diffusion flow.

The evolving unknown is the density of the current measure relative to the
Gibbs weight.  Each implicit-Euler step solves ``(D + dt L) w_new = D w_old``
where ``D`` holds the weighted node masses and ``L`` is the symmetric edge
stiffness matrix; the system matrix is an M-matrix for every step size, so
the update preserves nonnegativity and the max principle structurally, and
conserves the weighted mean exactly because constants are in the kernel of
the generator.  Crank-Nicolson is available for accuracy studies but may
undershoot zero on rough data.

The step system is constant, so it is prepared once per ``(operator, dt,
scheme)`` in a :class:`Stepper`, which picks one of two backends from the
weight itself:

* fast diagonalization (Lynch, Rice & Thomas, 1964) when ``dim >= 2`` and
  the Gibbs weight is a product over axes, as it is without a dataset.  The
  generalized eigenproblem ``L v = mu D v`` then splits into one small dense
  problem per axis, and a step is a diagonal scale between forward and back
  mode products with the axis eigenbases.  The solve is exact up to
  roundoff, in the far tail as well.
* Jacobi-preconditioned conjugate gradients otherwise (1-d, and dataset
  weights).  No matrix is built: each product ``(D + coef L) p`` applies
  ``L`` edge by edge through :meth:`WeightedOperator.apply_stiffness`, and
  the Jacobi diagonal comes from :attr:`WeightedOperator.stiffness_diagonal`.
  Preconditioning is not optional in practice: the node masses span many
  orders of magnitude between the box center and its corners.  The
  preconditioned residual test bounds the error in the energy norm only; in
  the far tail, where the masses are tiny, pointwise values can be off by
  far more than ``linear_tol`` (about 4e-6 relative in ``w_min``/``w_max``
  on a 41^3 Gaussian grid).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import ScalarField, WeightedOperator
from .potential import GibbsField


class SolverDiagnosticError(RuntimeError):
    """An inner solve did not converge (``residual`` is set) or a state went bad; picklable."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message, residual)
        self.residual = residual

    def __str__(self) -> str:
        return self.args[0] + ("" if self.residual is None else f" (residual {self.residual:.3e})")


@dataclass
class SolverConfig:
    dt: float
    t_final: float
    scheme: str = "implicit-euler"
    linear_tol: float = 1e-12
    max_linear_iters: int = 2000
    record_every: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if self.linear_tol <= 0:
            raise ValueError(f"linear_tol must be positive, got {self.linear_tol}")
        if self.scheme not in ("implicit-euler", "crank-nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


@dataclass
class FlowState:
    """Current time and relative density of one trajectory."""

    t: float
    w: ScalarField
    gibbs: GibbsField


def init_state(gibbs: GibbsField, w0: ScalarField) -> FlowState:
    """Rescale a nonnegative initial density to unit weighted mass at t = 0."""
    if w0.grid != gibbs.grid:
        raise ValueError("initial density lives on a different grid")
    if np.any(w0.values < 0):
        raise ValueError("initial density has negative entries")
    mass = gibbs.operator().inner(w0.values, np.ones_like(w0.values))
    if mass <= 0:
        raise ValueError("initial density has zero weighted mass")
    return FlowState(t=0.0, w=ScalarField(gibbs.grid, w0.values / mass), gibbs=gibbs)


def solver_backend(op: WeightedOperator) -> str:
    """``"fastdiag"`` when the weight is a product over axes, else ``"pcg"``."""
    return "pcg" if op.axis_eigenbasis is None else "fastdiag"


class Stepper:
    """One time step of a fixed ``(operator, dt, scheme)``, prepared once.

    ``advance`` maps the node array ``w`` to the next step's array.  Both
    schemes read ``D w`` on the right: implicit Euler solves
    ``(D + dt L) x = D w`` and Crank-Nicolson
    ``(D + dt/2 L) x = (D - dt/2 L) w``.  The backend follows from the weight
    (see :func:`solver_backend`): fast diagonalization is exact up to
    roundoff, Jacobi PCG stops on its preconditioned residual.
    """

    def __init__(self, op: WeightedOperator, dt: float, cfg: SolverConfig):
        self.backend = solver_backend(op)
        self.crank_nicolson = cfg.scheme == "crank-nicolson"
        self.tol = cfg.linear_tol
        self.max_iters = cfg.max_linear_iters
        self.mass = op.node_mass
        self.coef = coef = 0.5 * dt if self.crank_nicolson else dt
        if self.backend == "fastdiag":
            self.shape = op.grid.n
            self.forward = [v.T for _, v in op.axis_eigenbasis]
            self.back = [v for _, v in op.axis_eigenbasis]
            mu = op.axis_eigenbasis[0][0]
            for mu_a, _ in op.axis_eigenbasis[1:]:
                mu = np.add.outer(mu, mu_a)
            # the change of each mode over one step, amplification minus one:
            # exactly zero on the constants, so the step conserves mass
            # however far the eigenvectors are from D-orthonormal
            self.change = -(2.0 if self.crank_nicolson else 1.0) * coef * mu / (1.0 + coef * mu)
        else:
            self.op = op
            self.mass_per_coef = self.mass / coef
            # b, r, z, p and A p, written in place by _pcg
            self.buffers = [np.empty_like(self.mass) for _ in range(5)]
            self.diag = coef * op.stiffness_diagonal + self.mass

    def advance(self, w: np.ndarray) -> np.ndarray:
        """The node array one step after ``w``; warns if Crank-Nicolson undershoots zero."""
        if self.backend == "fastdiag":
            coeffs = self._modes((self.mass * w).reshape(self.shape), self.forward)
            x = w + self._modes(self.change * coeffs, self.back).ravel()
        else:
            x = self._pcg(w)
        if self.crank_nicolson and float(np.min(x)) < -10.0 * self.tol:
            warnings.warn(
                f"crank-nicolson step produced min(w) = {np.min(x):.3e} < 0",
                RuntimeWarning, stacklevel=3,
            )
        return x

    def _modes(self, x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        """Apply ``mats[a]`` to every fiber of ``x`` along axis ``a``."""
        n = self.shape
        for a, m in enumerate(mats):
            lead = math.prod(n[:a])
            if a == len(n) - 1:
                x = x.reshape(lead, n[a]) @ m.T
            else:
                x = np.matmul(m, x.reshape(lead, n[a], -1))
        return x.reshape(n)

    def _system(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``A x = coef (L x + D x / coef)`` into ``out``, with ``L x`` applied edge by edge."""
        np.multiply(self.mass_per_coef, x, out=out)
        self.op.apply_stiffness(x, out=out)
        out *= self.coef
        return out

    def _pcg(self, w: np.ndarray) -> np.ndarray:
        """Solve the step system ``A x = b`` by Jacobi-preconditioned CG from ``x = w``.

        ``b`` is ``D w`` for implicit Euler and ``(D - dt/2 L) w = 2 D w - A w``
        for Crank-Nicolson.  ``A`` is symmetric positive definite;
        convergence is declared on the preconditioned residual norm relative
        to the preconditioned norm of ``b``.  ``b``, ``r``, ``z``, ``p`` and
        ``A p`` live in ``buffers``, prepared once: as fresh arrays on every
        solve, they made the C heap shrink and regrow, at about 100 page
        faults per step on a 101^2 grid.
        """
        b, r, z, p, ap = self.buffers
        diag = self.diag
        np.multiply(self.mass, w, out=b)
        if self.crank_nicolson:
            b *= 2.0
            b -= self._system(w, ap)
        x = w.copy()
        np.subtract(b, self._system(x, ap), out=r)
        target = self.tol * math.sqrt(float(np.dot(b, np.divide(b, diag, out=z))))
        np.divide(r, diag, out=z)
        rho = float(np.dot(r, z))
        if math.sqrt(rho) <= target:
            return x
        p[:] = z
        for _ in range(self.max_iters):
            self._system(p, ap)
            p_ap = float(np.dot(p, ap))
            if not p_ap > 0.0:  # A is positive definite: p vanished below roundoff
                raise SolverDiagnosticError(f"linear solve broke down (p.Ap = {p_ap:.3e})",
                                            residual=math.sqrt(rho))
            alpha = rho / p_ap
            x += alpha * p
            r -= alpha * ap
            np.divide(r, diag, out=z)
            rho_new = float(np.dot(r, z))
            if math.sqrt(rho_new) <= target:
                return x
            p *= rho_new / rho
            p += z
            rho = rho_new
        raise SolverDiagnosticError(
            f"linear solve did not converge within {self.max_iters} iterations",
            residual=math.sqrt(rho),
        )


def evolve(state: FlowState, cfg: SolverConfig, observer=None) -> tuple[FlowState, int]:
    """Run the flow to ``t_final``, reporting to ``observer`` along the way.

    The observer is called with ``(t, w)`` at time 0, after every
    ``record_every``-th step, and after the final step (once, even when the
    step count is a multiple of the cadence).  Returns the final state and
    the number of steps taken.
    """
    op = state.gibbs.operator()
    n_steps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_steps * cfg.dt
    if remainder > 1e-9 * cfg.dt:
        n_extra = 1
    else:
        n_extra = 0
        remainder = 0.0

    grid = state.w.grid
    w, t = state.w, state.t
    if observer is not None:
        observer(0.0, w)
    recorded_last = False
    stepper = Stepper(op, cfg.dt, cfg)
    for k in range(1, n_steps + 1):
        w, t = ScalarField(grid, stepper.advance(w.values)), k * cfg.dt
        recorded_last = False
        if observer is not None and k % cfg.record_every == 0:
            observer(t, w)
            recorded_last = True
    if n_extra:
        w, t = ScalarField(grid, Stepper(op, remainder, cfg).advance(w.values)), cfg.t_final
        recorded_last = False
    if observer is not None and not recorded_last and n_steps + n_extra > 0:
        observer(t, w)
    return FlowState(t=t, w=w, gibbs=state.gibbs), n_steps + n_extra
