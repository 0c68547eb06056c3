"""Time integration of the weighted diffusion flow.

The evolving unknown is the density of the current measure relative to the
Gibbs weight.  Every step solves the one system ``(D + c L) y = D w``,
where ``D`` holds the weighted node masses and ``L`` is the symmetric edge
stiffness matrix.  Implicit Euler takes ``c = dt`` and steps to ``y``; the
system matrix is an M-matrix for every step size, so the update preserves
nonnegativity and the max principle structurally.  Constants are in the
kernel of the generator, so a step conserves the weighted mean to roundoff
(PCG only to its residual, below).  Crank-Nicolson takes ``c = dt/2`` and
steps to ``2 y - w``, which is exact:
``(D + c L)^{-1} (D - c L) = 2 (D + c L)^{-1} D - I``.  It is available for
accuracy studies but may undershoot zero on rough data.

The step system is constant, so it is prepared once per ``(operator, dt,
scheme)`` in a :class:`Stepper`, which picks one of four backends from the
grid, the weight and the record cadence (:func:`solver_backend`):

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
  with one back mode product, and the Crank-Nicolson undershoot warning
  sees the recorded states only.  The stepper carries the modes of the
  state it returned to the next jump, so the forward product runs once per
  trajectory, and once more for any state it did not produce.  Against the
  one-shot map ``advance(w0, 3 n)`` on a 41^3 Crank-Nicolson run recorded
  every 3 steps (the OU Gaussian at mean offsets of +-0.5 per axis), the
  records are off by at most 6.4e-12, where projecting every recorded state
  afresh accumulated up to 1.2e-9.
* a Chebyshev expansion of the ``k``-step map for dataset weights in 2-d
  and 3-d, when a record interval of ``k = record_every`` steps needs a
  series of degree at most ``CHEBYSHEV_DEGREES_PER_STEP * k``.  With
  ``S = D^{-1} L``, ``k`` steps are ``f(c S)`` for the fixed rational
  ``f(s) = (1 + s)^{-k}`` (implicit Euler) or ``((1 - s)/(1 + s))^k``
  (Crank-Nicolson).  The spectrum of ``S`` lies in ``[0, lam]``,
  ``lam = 2 max_i L_ii / m_i`` (Gershgorin, :func:`spectrum_bound`), so
  ``f`` is expanded in Chebyshev polynomials of ``X = (2/lam) S - I``
  (:func:`chebyshev_series`) and applied by Clenshaw's recurrence, one
  ``apply_stiffness`` per degree: the Chebyshev propagator of Tal-Ezer &
  Kosloff (J. Chem. Phys. 81, 1984) for the step map.  The series is exact
  to about 1e-15 of ``max |f|`` on the spectrum (2.7e-15 of ``max |w|``
  against a sparse LU solve of the first 10 steps of
  ``configs/atoms2d.toml``, where PCG is off by 7.0e-7), and ``p(-1) = 1``
  keeps the constants and the mass to roundoff.  A jump
  covers a record interval, so the Crank-Nicolson warning sees recorded
  states only.  A record whose minimum falls below ``-ROUNDOFF_FLOOR``
  (the series' roundoff in the far tail of a spike, or a Crank-Nicolson
  undershoot) is recomputed from the same start by PCG steps, which check
  every step as the PCG backend does.  The degree grows like
  ``sqrt(k c lam)``, and ``lam`` like ``exp(dV / tau) / h^2``: a series
  longer than ``CHEBYSHEV_MAX_DEGREE`` sends a cold weight or a wide
  hand-set box to PCG.

  The rule is measured, per record on one core, against the PCG backend's
  cost (its system products per step times ``k``); each cell is the degree,
  then Chebyshev against PCG milliseconds:

  ======================  ================  ================  ================  ================
  ``c lam``               k = 1             k = 3             k = 10            k = 30
  ======================  ================  ================  ================  ================
  0.66, 101^2 atoms2d     16; 0.74 vs 0.65  19; 0.89 vs 1.92  24; 1.23 vs 5.81  33; 1.73 vs 15.1
  2.0, 101^2 atoms2d      26; 1.26 vs 0.83  30; 1.57 vs 2.60  38; 1.76 vs 9.03  54; 2.42 vs 25.0
  6.6, 101^2 atoms2d      45; 2.04 vs 1.74  51; 2.33 vs 5.06  67; 3.20 vs 17.4  95; 4.63 vs 44.8
  3.2, 41^3 two features  32; 19.1 vs 8.4   37; 23.1 vs 22.6  48; 26.7 vs 74.9
  ======================  ================  ================  ================  ================

  A degree costs about 0.05 ms in 2-d and 0.6 ms in 3-d, a PCG step 5-16
  system products, so parity falls near 13 degrees per step where PCG
  needs the fewest products.  Ten degrees per step picks the faster
  backend in every cell but ``c lam`` = 2.0 and 6.6 at k = 3 (PCG, where
  Chebyshev would save a third to half) and sends the 3-d parity cell to
  PCG.
* Jacobi-preconditioned conjugate gradients otherwise.  No matrix is
  built: each product ``(D + coef L) p`` applies ``L`` edge by edge through
  :meth:`WeightedOperator.apply_stiffness`, and the Jacobi diagonal comes
  from :attr:`WeightedOperator.stiffness_diagonal`.  Preconditioning is not
  optional in practice: the node masses span many orders of magnitude
  between the box center and its corners.  PCG stops on the preconditioned
  residual of ``A y = D w``, which bounds the error of ``y`` in the energy
  norm only; in the far tail, where the masses are tiny, pointwise values
  can be off by far more than ``linear_tol`` (up to 2.0e-6 relative in
  ``w_min``/``w_max`` over the first 1000 steps of ``configs/atoms2d.toml``
  taken by PCG, against a sparse LU solve of the same steps); this error
  applies to PCG inputs only.  Each solve moves the mass by its residual's
  sum, so PCG also stops only once that sum is within ``linear_tol`` of the
  mass: each step keeps the mass to ``linear_tol`` of itself.
  ``linear_tol`` and ``max_linear_iters`` govern this backend (and the
  Chebyshev backend's fallback) only.
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


# a state entry in [-ROUNDOFF_FLOOR, 0) is solver roundoff: the energy reads
# it as 0, and only a Crank-Nicolson state below it warns of an undershoot
ROUNDOFF_FLOOR = 1e-12


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
        if not math.isfinite(self.t_final / self.dt):  # evolve counts the steps
            raise ValueError(f"t_final / dt must be finite, got {self.t_final!r} / {self.dt!r}")
        if self.linear_tol <= 0:
            raise ValueError(f"linear_tol must be positive, got {self.linear_tol}")
        if self.max_linear_iters < 1:
            raise ValueError(f"max_linear_iters must be at least 1, got {self.max_linear_iters}")
        if self.scheme not in ("implicit-euler", "crank-nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


@dataclass
class FlowState:
    """Relative density of one trajectory, and the Gibbs weight it is relative to."""

    w: ScalarField
    gibbs: GibbsField


def init_state(gibbs: GibbsField, w0: ScalarField) -> FlowState:
    """Rescale a nonnegative initial density to unit weighted mass."""
    if w0.grid != gibbs.grid:
        raise ValueError("initial density lives on a different grid")
    if np.any(w0.values < 0):
        raise ValueError("initial density has negative entries")
    mass = gibbs.operator().inner(w0.values, 1.0)
    if mass <= 0:
        raise ValueError("initial density has zero weighted mass")
    return FlowState(w=ScalarField(gibbs.grid, w0.values / mass), gibbs=gibbs)


# the Chebyshev series is fitted at CHEBYSHEV_POINTS points and cut after the
# last coefficient above CHEBYSHEV_TOL (the k-step map is at most 1 in size
# on the spectrum); a series longer than CHEBYSHEV_MAX_DEGREE is not used
CHEBYSHEV_POINTS = 2048
CHEBYSHEV_MAX_DEGREE = 1000
CHEBYSHEV_TOL = 1e-15
# a record of k steps takes the Chebyshev series when its degree is at most
# CHEBYSHEV_DEGREES_PER_STEP * k (see the module docstring for the measurement)
CHEBYSHEV_DEGREES_PER_STEP = 10
# fast diagonalization zeroes a carried mode below MODE_FLOOR times the largest
# projected one: it is far below the roundoff of every entry, and decaying on
# it would pass through the subnormal floats, where arithmetic is slow
MODE_FLOOR = 1e-250


def spectrum_bound(op: WeightedOperator) -> float:
    """Gershgorin's bound ``2 max_i L_ii / m_i`` on the spectrum of ``D^{-1} L``."""
    return 2.0 * float(np.max(op.stiffness_diagonal / op.node_mass))


def chebyshev_series(clam: float, k: int, crank_nicolson: bool) -> np.ndarray | None:
    """Chebyshev coefficients of ``k`` steps on the mapped spectrum, or None past the degree cap.

    ``clam`` is ``coef`` times :func:`spectrum_bound`, so ``s = clam (x + 1)
    / 2`` maps ``x`` in [-1, 1] onto an interval that holds ``coef`` times
    the spectrum of ``D^{-1} L``.  The step map there is ``(1 + s)^{-k}``
    for implicit Euler and ``((1 - s) / (1 + s))^k`` for Crank-Nicolson.
    The coefficients come from one FFT of its values at
    ``CHEBYSHEV_POINTS`` Chebyshev points (a DCT-II).  ``c_0`` is then set
    so that the series is exactly 1 at ``x = -1``, where the constants sit.
    """
    n = CHEBYSHEV_POINTS
    s = 0.5 * clam * (np.cos(np.pi * (np.arange(n) + 0.5) / n) + 1.0)
    f = ((1.0 - s) / (1.0 + s)) ** k if crank_nicolson else (1.0 + s) ** -float(k)
    spectrum = np.fft.rfft(np.concatenate((f, f[::-1])))[:n]
    c = (spectrum * np.exp(-0.5j * np.pi * np.arange(n) / n)).real / n
    above = np.flatnonzero(np.abs(c) > CHEBYSHEV_TOL)
    if above.size == 0 or above[-1] > CHEBYSHEV_MAX_DEGREE:  # unresolved, or too long
        return None
    degree = int(above[-1])
    c = c[:degree + 1]
    c[0] = 1.0 - float(np.dot(c[1:], np.resize([-1.0, 1.0], degree)))
    return c


def _select(op: WeightedOperator, dt: float, cfg: SolverConfig) -> tuple[str, np.ndarray | None]:
    """The backend for steps of ``dt``, and the Chebyshev series of a record if it is chosen."""
    if op.grid.dim == 1:
        return "tridiag", None
    if op.axis_eigenbasis is not None:
        return "fastdiag", None
    k = cfg.record_every
    cn = cfg.scheme == "crank-nicolson"
    series = chebyshev_series((0.5 * dt if cn else dt) * spectrum_bound(op), k, cn)
    if series is None or series.size - 1 > CHEBYSHEV_DEGREES_PER_STEP * k:
        return "pcg", None
    return "chebyshev", series


def solver_backend(op: WeightedOperator, cfg: SolverConfig) -> str:
    """``"tridiag"`` in 1-d, ``"fastdiag"`` for a product-form weight, else
    ``"chebyshev"`` or ``"pcg"`` by the degree a record of ``cfg`` needs."""
    return _select(op, cfg.dt, cfg)[0]


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
    Euler (``coef = dt``) to ``y``.  The backend follows from the grid, the
    weight and ``cfg.record_every`` (see :func:`solver_backend`): the
    tridiagonal scans, fast diagonalization and the Chebyshev series are
    exact up to roundoff, Jacobi PCG stops on its preconditioned residual.
    Fast diagonalization and the Chebyshev series take the ``k`` steps in
    one jump, the scans and PCG one by one; fast diagonalization keeps a
    copy of the state it returned and its modes, so a jump from that state
    skips the forward mode product.  The first Crank-Nicolson state
    below ``-ROUNDOFF_FLOOR`` is reported with a warning, later ones are not.
    """

    def __init__(self, op: WeightedOperator, dt: float, cfg: SolverConfig):
        self.backend, series = _select(op, dt, cfg)
        self.crank_nicolson = cfg.scheme == "crank-nicolson"
        self.undershot = False
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
            # a private copy of the last state advance returned, its modes
            # (None before the first jump) and the floor they are zeroed below
            self.last, self.last_modes, self.mode_floor = np.empty_like(self.mass), None, 0.0
        else:  # PCG, also the Chebyshev backend's fallback
            self.tol, self.max_iters = cfg.linear_tol, cfg.max_linear_iters
            self.op = op  # op and mass_per_coef are read by _system
            self.mass_per_coef = self.mass / coef
            # b, r, z, p and A p, written in place by _pcg (and the first
            # four by _chebyshev)
            self.buffers = [np.empty_like(self.mass) for _ in range(5)]
            self.diag = coef * op.stiffness_diagonal + self.mass
        if self.backend == "chebyshev":
            lam = spectrum_bound(op)
            self.clam = coef * lam
            self.series = {cfg.record_every: series}  # k -> series of k steps
            # 2 X v = (4 / (lam m)) (L v - (lam m / 2) v) for X = (2 / lam) D^-1 L - I
            self.lower = -0.5 * lam * self.mass
            self.scale = -2.0 / self.lower

    def advance(self, w: np.ndarray, k: int = 1) -> np.ndarray:
        """The node array ``k`` steps after ``w``; warns at the first Crank-Nicolson undershoot.

        Fast diagonalization scales each mode by its change over ``k`` steps,
        ``amp**k - 1`` with ``amp = 1 + change``; that is exactly zero on the
        constants, so the jump conserves mass like one step does.  With
        ``k = 1`` it is the one-step ``change`` itself.  The modes of ``w``
        are the carried modes of the last returned state when ``w`` equals
        it bit for bit, else the forward product of ``D w``; the modes of
        the result are those plus their change.  The Chebyshev
        backend jumps the ``k`` steps by one series; a jump below
        ``-ROUNDOFF_FLOOR`` is redone by PCG steps.  The scans and PCG take
        ``k`` single steps and check each one.
        """
        if self.backend == "fastdiag":
            if self.jump[0] != k:  # one cached power: a run asks for at most two
                self.jump = (k, self.change if k == 1 else (1.0 + self.change) ** k - 1.0)
            coeffs = self.last_modes
            if coeffs is None or not np.array_equal(w, self.last):
                coeffs = self._modes((self.mass * w).reshape(self.shape), self.forward)
                self.mode_floor = MODE_FLOOR * float(np.max(np.abs(coeffs)))
            change = self.jump[1] * coeffs
            x = w + self._modes(change, self.back).ravel()
            coeffs += change  # the modes of x, for a jump that starts from it
            coeffs[np.abs(coeffs, out=change) < self.mode_floor] = 0.0
            np.copyto(self.last, x)
            self.last_modes = coeffs
            self._check_sign(x)
            return x
        x = self._chebyshev(w, k) if self.backend == "chebyshev" else None
        # below -ROUNDOFF_FLOOR, a jump is the series' roundoff in the far
        # tail or a Crank-Nicolson undershoot: PCG steps redo it and check each step
        if x is None or float(np.min(x)) < -ROUNDOFF_FLOOR:
            x = w
            for _ in range(k):
                s = self._tridiag(x) if self.backend == "tridiag" else self._pcg(x)
                x = 2.0 * s - x if self.crank_nicolson else s
                self._check_sign(x)
        return x

    def _chebyshev(self, w: np.ndarray, k: int) -> np.ndarray | None:
        """``k`` steps after ``w`` by Clenshaw's recurrence; None past the degree cap.

        With ``p = sum_n c_n T_n`` the series of :func:`chebyshev_series`,
        ``b_n = c_n w + 2 X b_{n+1} - b_{n+2}`` runs down from the degree and
        ``p(X) w = c_0 w + X b_1 - b_2``; each ``X`` is one
        ``apply_stiffness``.  ``X 1 = -1`` exactly and ``p(-1) = 1``, so the
        jump keeps the constants, and the mass, to roundoff.
        """
        if k not in self.series:
            self.series[k] = chebyshev_series(self.clam, k, self.crank_nicolson)
        c = self.series[k]
        if c is None:
            return None
        b1, b2, t, cw = self.buffers[:4]
        b1.fill(0.0)
        b2.fill(0.0)
        for cn in c[:0:-1]:
            # b2 <- c_n w + 2 X b1 - b2, then swap: b1 is the newest term
            np.multiply(self.lower, b1, out=t)
            self.op.apply_stiffness(b1, out=t)
            t *= self.scale
            np.subtract(t, b2, out=b2)
            b2 += np.multiply(cn, w, out=cw)
            b1, b2 = b2, b1
        x = np.multiply(self.lower, b1)
        self.op.apply_stiffness(b1, out=x)
        x *= self.scale
        x *= 0.5
        x -= b2
        x += c[0] * w
        return x

    def _check_sign(self, x: np.ndarray) -> None:
        if self.crank_nicolson and not self.undershot and float(np.min(x)) < -ROUNDOFF_FLOOR:
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
        ``b = D w``, and on the residual's sum relative to ``sum b``: since
        ``1^T L = 0``, ``sum r`` is minus the step's mass change, which the
        norm alone leaves large next to a spike at a tail node, where
        ``diag`` is tiny.  ``b``, ``r``, ``z``, ``p`` and ``A p`` live in
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
        mass_target = self.tol * abs(float(np.sum(b)))
        np.divide(r, diag, out=z)
        rho = float(np.dot(r, z))
        if math.sqrt(rho) <= target and abs(float(np.sum(r))) <= mass_target:
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
            if math.sqrt(rho_new) <= target and abs(float(np.sum(r))) <= mass_target:
                return x
            p *= rho_new / rho
            p += z
            rho = rho_new
        raise SolverDiagnosticError(
            f"linear solve did not converge within {self.max_iters} iterations",
            residual=math.sqrt(rho),
        )


def evolve(state: FlowState, cfg: SolverConfig, observer=None) -> tuple[FlowState, int]:
    """Run the flow from ``state`` for ``t_final``, reporting to ``observer`` along the way.

    The observer is called with ``(t, w)`` at time 0, after every
    ``record_every``-th step, and after the final step (once, even when the
    step count is a multiple of the cadence).  The stepper advances from
    record to record whether or not anyone observes, so the final state
    depends on ``state`` and ``cfg`` only; a non-finite state raises
    ``ValueError`` at the next record at the latest.  Returns the final
    state and the number of steps taken.
    """
    op = state.gibbs.operator()
    n_steps = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_steps * cfg.dt
    fractional = remainder > 1e-9 * cfg.dt

    grid, w, every = state.w.grid, state.w, cfg.record_every
    observe = observer or (lambda t, w: None)
    observe(0.0, w)
    stepper = Stepper(op, cfg.dt, cfg)
    for done in range(0, n_steps, every):
        k = min(every, n_steps - done)
        w = ScalarField(grid, stepper.advance(w.values, k))
        if k == every or not fractional:
            observe((done + k) * cfg.dt, w)
    if fractional:
        w = ScalarField(grid, Stepper(op, remainder, cfg).advance(w.values))
        observe(cfg.t_final, w)
    return FlowState(w=w, gibbs=state.gibbs), n_steps + fractional
