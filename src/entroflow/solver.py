"""Time integration of the weighted diffusion flow.

The evolving unknown is the density of the current measure relative to the
Gibbs weight.  Every step solves the one system ``(D + c L) y = D w``,
where ``D`` holds the weighted node masses and ``L`` is the symmetric edge
stiffness matrix.  Implicit Euler takes ``c = dt`` and steps to ``y``; the
system matrix is an M-matrix for every step size, so the update preserves
nonnegativity and the max principle structurally, and conserves the
weighted mean exactly because constants are in the kernel of the
generator.  Crank-Nicolson takes ``c = dt/2`` and steps to ``2 y - w``,
which is exact: ``(D + c L)^{-1} (D - c L) = 2 (D + c L)^{-1} D - I``.  It
is available for accuracy studies but may undershoot zero on rough data.

The step system is constant, so it is prepared once per ``(operator, dt,
scheme)`` in a :class:`Stepper`, which picks one of three backends from the
grid and the weight:

* a tridiagonal LDL^T solve in 1-d, whatever the weight.  The system is
  tridiagonal there; it is factored once, and each of the two bidiagonal
  sweeps of a step runs as a recursive-doubling scan (Stone, J. ACM 20,
  1973) over whole-array slices, about ``log2 n`` vector operations instead
  of a Python loop over the nodes.  Every scan coefficient lies in (0, 1)
  (see :func:`_tridiagonal_scans`), so the solve is exact up to roundoff,
  in the far tail as well.
* fast diagonalization (Lynch, Rice & Thomas, 1964) when ``dim >= 2`` and
  the Gibbs weight is a product over axes, as it is without a dataset.  The
  generalized eigenproblem ``L v = mu D v`` then splits into one small dense
  problem per axis, and a step is a diagonal scale between forward and back
  mode products with the axis eigenbases.  The solve is exact up to
  roundoff, in the far tail as well.  ``k`` steps are the ``k``-th power of
  that diagonal scale, so :func:`evolve` advances a whole record interval
  (the whole run without an observer) with one forward and one back mode
  product, and the Crank-Nicolson undershoot warning sees the recorded
  states only.
* Jacobi-preconditioned conjugate gradients otherwise (dataset weights in
  2-d and 3-d).  No matrix is built: each product ``(D + coef L) p`` applies
  ``L`` edge by edge through :meth:`WeightedOperator.apply_stiffness`, and
  the Jacobi diagonal comes from :attr:`WeightedOperator.stiffness_diagonal`.
  Preconditioning is not optional in practice: the node masses span many
  orders of magnitude between the box center and its corners.  PCG stops
  on the preconditioned residual of ``A y = D w``, which bounds the error
  of ``y`` in the energy norm only; in the far tail, where the masses are
  tiny, pointwise values can be off by far more than ``linear_tol`` (about
  4e-6 relative in ``w_min``/``w_max`` on a 41^3 Gaussian grid).
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
    mass = gibbs.operator().inner(w0.values, 1.0)
    if mass <= 0:
        raise ValueError("initial density has zero weighted mass")
    return FlowState(t=0.0, w=ScalarField(gibbs.grid, w0.values / mass), gibbs=gibbs)


def solver_backend(op: WeightedOperator) -> str:
    """``"tridiag"`` in 1-d, ``"fastdiag"`` for a product-form weight, else ``"pcg"``."""
    if op.grid.dim == 1:
        return "tridiag"
    return "pcg" if op.axis_eigenbasis is None else "fastdiag"


def _tridiagonal_scans(mass: np.ndarray, off: np.ndarray):
    """Pivots and scan coefficients of ``A = D + coef L`` in 1-d, ``off = coef * cond``.

    ``A`` has diagonal ``a_i = m_i + off_{i-1} + off_i`` (``off_{-1} =
    off_{n-1} = 0``) and ``-off_i`` beside it.  Its ``LDL^T`` factors have
    pivots ``piv_i`` and unit lower bidiagonal ``L`` with ``L_{i+1,i} =
    -g_{i+1}``, ``g_{i+1} = off_i / piv_i``, so ``A x = b`` is the forward
    recurrence ``y_i = b_i + g_i y_{i-1}``, the scale ``z = y / piv`` and the
    backward recurrence ``x_i = z_i + g_{i+1} x_{i+1}``.

    Every ``g_i`` lies in (0, 1) (in floats it may round to 1).  Write ``r_i = piv_i - off_i``.  Then
    ``r_0 = m_0 > 0``, and if ``r_i > 0`` then ``piv_i > off_i > 0``, so
    ``g_{i+1} = off_i / piv_i`` is in (0, 1) and

        ``r_{i+1} = a_{i+1} - off_i g_{i+1} - off_{i+1}
                  = m_{i+1} + off_i (1 - g_{i+1}) > 0``.

    By induction every pivot exceeds its ``off_i`` and its node mass.  The
    pivots are computed from ``r_{i+1} = m_{i+1} + off_i r_i / piv_i``,
    which adds positive terms only; the textbook ``a_i - off^2 / piv``
    loses digits to cancellation once ``dt / h^2`` is large.  So every
    product of coefficients lies in (0, 1) as well, and the scans add
    positive terms to positive terms whenever ``b >= 0``: nothing cancels
    or overflows, a product that underflows to 0 stands for a contribution
    below the float range, and implicit Euler maps ``w >= 0`` to
    ``x >= 0``.

    A recurrence ``y_i += g_i y_{i-1}`` runs as a recursive-doubling scan:
    at strides ``s = 1, 2, 4, ...`` below ``n``, ``y[s:] += G_s * y[:-s]``,
    where ``G_s[i - s]`` is the product of ``g`` over the ``s`` positions
    ending at ``i`` (with ``g_0 = 0``).  Returns ``piv`` and the
    ``(s, G_s)`` lists of the forward sweep and of the backward sweep,
    which is the same scan on the reversed array.
    """
    n = mass.size
    m = mass.tolist()
    piv, r = [], m[0]
    for m_next, c in zip(m[1:], off.tolist()):
        piv.append(r + c)
        r = m_next + c * (r / piv[-1])
    piv = np.array(piv + [r])
    g = np.zeros(n)
    g[1:] = off / piv[:-1]
    sweeps = []
    for prod in (g, np.concatenate(([0.0], g[:0:-1]))):
        scan, s = [], 1
        while s < n:
            scan.append((s, prod[s:].copy()))
            prod = np.concatenate((prod[:s], prod[s:] * prod[:-s]))
            s *= 2
        sweeps.append(scan)
    return piv, sweeps[0], sweeps[1]


class Stepper:
    """Time steps of a fixed ``(operator, dt, scheme)``, prepared once.

    ``advance(w, k)`` maps the node array ``w`` to the array ``k`` steps
    later.  Every backend solves ``A y = D w`` with ``A = D + coef L``;
    Crank-Nicolson (``coef = dt/2``) then steps to ``2 y - w``, implicit
    Euler (``coef = dt``) to ``y``.  The backend follows from the grid and
    the weight (see :func:`solver_backend`): the tridiagonal scans and fast
    diagonalization are exact up to roundoff, Jacobi PCG stops on its
    preconditioned residual.  The scans and PCG take the ``k`` steps one by
    one; fast diagonalization jumps over them with one forward and one back
    mode product.  The first Crank-Nicolson state that undershoots zero is
    reported with a warning, later ones are not.
    """

    def __init__(self, op: WeightedOperator, dt: float, cfg: SolverConfig):
        self.backend = solver_backend(op)
        self.crank_nicolson = cfg.scheme == "crank-nicolson"
        self.undershot = False
        self.tol = cfg.linear_tol
        self.max_iters = cfg.max_linear_iters
        self.mass = op.node_mass
        self.coef = coef = 0.5 * dt if self.crank_nicolson else dt
        if self.backend == "tridiag":
            self.piv, self.forward_scan, self.backward_scan = _tridiagonal_scans(
                self.mass, coef * op.axis_cond[0])
        elif self.backend == "fastdiag":
            self.shape = op.grid.n
            self.forward = [v.T for _, v in op.axis_eigenbasis]
            self.back = [v for _, v in op.axis_eigenbasis]
            mu = op.axis_eigenbasis[0][0]
            for mu_a, _ in op.axis_eigenbasis[1:]:
                mu = np.add.outer(mu, mu_a)
            # the change of each mode over one step, amplification minus one
            # (Crank-Nicolson's is twice implicit Euler's at coef): exactly
            # zero on the constants, so the step conserves mass however far
            # the eigenvectors are from D-orthonormal
            self.change = -(2.0 if self.crank_nicolson else 1.0) * coef * mu / (1.0 + coef * mu)
            self.jump = (1, self.change)  # (k, change over k steps), the last k asked for
        else:
            self.op = op  # op and mass_per_coef are read by _system
            self.mass_per_coef = self.mass / coef
            # b, r, z, p and A p, written in place by _pcg
            self.buffers = [np.empty_like(self.mass) for _ in range(5)]
            self.diag = coef * op.stiffness_diagonal + self.mass

    def advance(self, w: np.ndarray, k: int = 1) -> np.ndarray:
        """The node array ``k`` steps after ``w``; warns at the first Crank-Nicolson undershoot.

        Fast diagonalization scales each mode by its change over ``k`` steps,
        ``amp**k - 1`` with ``amp = 1 + change``; that is exactly zero on the
        constants, so the jump conserves mass like one step does.  With
        ``k = 1`` it is the one-step ``change`` itself.  The other backends
        take ``k`` single steps and check each one.
        """
        if self.backend == "fastdiag":
            if self.jump[0] != k:  # one cached power: a run asks for at most two
                self.jump = (k, self.change if k == 1 else (1.0 + self.change) ** k - 1.0)
            coeffs = self._modes((self.mass * w).reshape(self.shape), self.forward)
            x = w + self._modes(self.jump[1] * coeffs, self.back).ravel()
            self._check_sign(x)
            return x
        x = w
        for _ in range(k):
            y = self._tridiag(x) if self.backend == "tridiag" else self._pcg(x)
            x = 2.0 * y - x if self.crank_nicolson else y
            self._check_sign(x)
        return x

    def _check_sign(self, x: np.ndarray) -> None:
        if self.crank_nicolson and not self.undershot and float(np.min(x)) < -10.0 * self.tol:
            self.undershot = True
            warnings.warn(
                f"crank-nicolson step produced min(w) = {np.min(x):.3e} < 0",
                RuntimeWarning, stacklevel=4,
            )

    def _tridiag(self, w: np.ndarray) -> np.ndarray:
        """Solve the 1-d step system ``A y = D w`` by the two prepared scans."""
        x = self.mass * w
        for s, c in self.forward_scan:
            x[s:] += c * x[:-s]
        x /= self.piv
        rev = x[::-1]
        for s, c in self.backward_scan:
            rev[s:] += c * rev[:-s]
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
        """Solve the step system ``A y = D w`` by Jacobi-preconditioned CG from ``y = w``.

        ``A`` is symmetric positive definite; convergence is declared on the
        preconditioned residual norm relative to the preconditioned norm of
        ``b = D w``.  ``b``, ``r``, ``z``, ``p`` and ``A p`` live in
        ``buffers``, prepared once: as fresh arrays on every solve, they
        made the C heap shrink and regrow, at about 100 page faults per step
        on a 101^2 grid.
        """
        b, r, z, p, ap = self.buffers
        diag = self.diag
        np.multiply(self.mass, w, out=b)
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
    step count is a multiple of the cadence).  The stepper advances from
    record to record, or over all full steps at once without an observer;
    a non-finite state raises ``ValueError`` at the next record at the
    latest.  Returns the final state and the number of steps taken.
    """
    op = state.gibbs.operator()
    n_steps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_steps * cfg.dt
    fractional = remainder > 1e-9 * cfg.dt

    grid = state.w.grid
    w, t = state.w, state.t
    if observer is not None:
        observer(0.0, w)
    stepper = Stepper(op, cfg.dt, cfg)
    every = cfg.record_every if observer is not None else max(n_steps, 1)
    for done in range(0, n_steps, every):
        k = min(every, n_steps - done)
        w = ScalarField(grid, stepper.advance(w.values, k))
        t = (done + k) * cfg.dt
        if observer is not None and (k == every or not fractional):
            observer(t, w)
    if fractional:
        w, t = ScalarField(grid, Stepper(op, remainder, cfg).advance(w.values)), cfg.t_final
        if observer is not None:
            observer(t, w)
    return FlowState(t=t, w=w, gibbs=state.gibbs), n_steps + fractional
