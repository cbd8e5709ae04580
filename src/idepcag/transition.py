"""Continuous-time transition operators built by numerical integration.

For the system x' = A(t)x + B(t)x(gamma(t)) the within-interval propagation
is assembled from three operators anchored at a point ``tau``:

* ``Phi(t, s)``   - fundamental matrix of z' = A(t) z,
* ``J(t, tau)``   - ``I + integral_tau^t Phi(tau, s) B(s) ds``,
* ``E(t, tau)``   - ``Phi(t, tau) J(t, tau)``.

``Phi(tau, s)`` inside J is obtained by integrating the adjoint equation
``Psi' = -Psi A`` alongside, never by inverting dense output.  One interval
is integrated once, anchored at its argument value ``zeta_k``, and the dense
output is cached so monodromy assembly costs p integrations total.

Integration is Dormand-Prince 8(5,3) (scipy ``DOP853``) at the system's
declared tolerances (at tight ones such as the bundled documents' 1e-12
an eighth-order method takes far fewer steps than a fifth-order one).  The
norm integrals of the invertibility diagnostics use a batched adaptive
Gauss-Kronrod 7-15 rule: one vectorized evaluation of the coefficient
matrix per refinement level, over every half-interval of the period.
"""

from __future__ import annotations

import logging
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
# quad is not called here; it stays bound because perfbench/tracing.py patches it by name.
from scipy.integrate import quad, solve_ivp  # noqa: F401

from .linalg import NumericalError, SingularMatrixError, det, inv, norm1
from .model import SystemSpec

__all__ = [
    "IntervalOperators",
    "HypothesisReport",
    "fundamental_matrix",
    "j_matrix",
    "e_matrix",
    "w_local",
    "hypothesis_check",
    "interval_operators",
]

log = logging.getLogger("idepcag")

_DETJ_RTOL = 1e-12


def _run_ivp(rhs, t0, t1, y0, tol, dense=False):
    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="DOP853",
        rtol=tol.ode_rel,
        atol=tol.ode_abs,
        dense_output=dense,
    )
    if not sol.success:
        raise NumericalError(f"integrator failed on [{t0}, {t1}]: {sol.message}")
    return sol


def _flow_rhs(system):
    """RHS of the coupled matrix system [Z' = A Z, Psi' = -Psi A, K' = Psi B]."""
    n = system.n
    n2 = n * n

    def rhs(u, y):
        Au = system.A.eval(u)
        Bu = system.B.eval(u)
        Z = y[:n2].reshape(n, n)
        Psi = y[n2 : 2 * n2].reshape(n, n)
        out = np.empty(3 * n2)
        out[:n2] = (Au @ Z).ravel()
        out[n2 : 2 * n2] = (-Psi @ Au).ravel()
        out[2 * n2 :] = (Psi @ Bu).ravel()
        return out

    return rhs


def _flow_initial(n):
    y0 = np.zeros(3 * n * n)
    y0[: n * n] = np.eye(n).ravel()
    y0[n * n : 2 * n * n] = np.eye(n).ravel()
    return y0


def _split_flow(y, n):
    n2 = n * n
    Z = y[:n2].reshape(n, n)
    K = y[2 * n2 :].reshape(n, n)
    return Z, np.eye(n) + K


def fundamental_matrix(system: SystemSpec, s: float, t: float) -> np.ndarray:
    """Fundamental matrix ``Phi(t, s)`` of z' = A(u) z, ``Phi(s, s) = I``."""
    n = system.n
    if t == s:
        return np.eye(n)

    def rhs(u, y):
        return (system.A.eval(u) @ y.reshape(n, n)).ravel()

    sol = _run_ivp(rhs, s, t, np.eye(n).ravel(), system.tolerances)
    return sol.y[:, -1].reshape(n, n)


def _flow_matrices(system, tau, t):
    """``(Phi(t, tau), J(t, tau), E(t, tau))`` from one integration of the
    coupled flow; all three are the identity at ``t == tau``."""
    n = system.n
    if t == tau:
        return np.eye(n), np.eye(n), np.eye(n)
    sol = _run_ivp(_flow_rhs(system), tau, t, _flow_initial(n), system.tolerances)
    Z, J = _split_flow(sol.y[:, -1], n)
    return Z, J, Z @ J


def j_matrix(system: SystemSpec, tau: float, t: float) -> np.ndarray:
    """``J(t, tau) = I + integral_tau^t Phi(tau, s) B(s) ds``."""
    return _flow_matrices(system, tau, t)[1]


def e_matrix(system: SystemSpec, tau: float, t: float) -> np.ndarray:
    """``E(t, tau) = Phi(t, tau) J(t, tau)``; ``E(tau, tau) = I``."""
    return _flow_matrices(system, tau, t)[2]


@dataclass(frozen=True, eq=False)
class IntervalOperators:
    """Dense-output transition operators for one base interval.

    Anchored at the interval's argument value ``zeta``; evaluation of
    ``Phi(t, zeta)``, ``J(t, zeta)`` and ``E(t, zeta)`` is a dense-output
    lookup for any ``t`` in ``[t_left, t_right]``.
    """

    index: int
    t_left: float
    t_right: float
    zeta: float
    n: int
    _fwd: object  # OdeSolution over [zeta, t_right], or None
    _bwd: object  # OdeSolution over [zeta, t_left], or None
    E_left: np.ndarray
    E_right: np.ndarray
    E_left_inv: np.ndarray
    J_left: np.ndarray
    J_right: np.ndarray

    def _state_at(self, t):
        slack = 1e-9 * max(1.0, abs(self.t_right))
        # Written so that NaN, for which every comparison is false, raises.
        if not self.t_left - slack <= t <= self.t_right + slack:
            raise ValueError(
                f"t = {t!r} outside interval [{self.t_left!r}, {self.t_right!r}]"
            )
        t = min(max(t, self.t_left), self.t_right)
        if t == self.zeta:
            return _flow_initial(self.n)
        branch = self._fwd if t >= self.zeta else self._bwd
        if branch is None:
            return _flow_initial(self.n)
        return branch(t)

    def phi_at(self, t: float) -> np.ndarray:
        return self._state_at(t)[: self.n * self.n].reshape(self.n, self.n).copy()

    def j_at(self, t: float) -> np.ndarray:
        return _split_flow(self._state_at(t), self.n)[1]

    def e_at(self, t: float) -> np.ndarray:
        Z, J = _split_flow(self._state_at(t), self.n)
        return Z @ J

    def e_many(self, ts) -> np.ndarray:
        """``E(t, zeta)`` stacked to shape ``(m, n, n)`` for ``m`` times.

        Agrees with ``e_at`` per time up to roundoff (scipy evaluates a
        block of points as one matrix product), with one dense-output call
        per branch instead of one per time.
        """
        ts = np.asarray(ts, dtype=float)
        slack = 1e-9 * max(1.0, abs(self.t_right))
        outside = ~((ts >= self.t_left - slack) & (ts <= self.t_right + slack))
        if outside.any():
            raise ValueError(
                f"t = {float(ts[outside][0])!r} outside interval "
                f"[{self.t_left!r}, {self.t_right!r}]"
            )
        ts = np.clip(ts, self.t_left, self.t_right)
        n2 = self.n * self.n
        states = np.tile(_flow_initial(self.n), (ts.size, 1))
        for branch, mask in ((self._fwd, ts > self.zeta), (self._bwd, ts < self.zeta)):
            if mask.any():
                states[mask] = branch(ts[mask]).T
        Z = states[:, :n2].reshape(-1, self.n, self.n)
        J = np.eye(self.n) + states[:, 2 * n2 :].reshape(-1, self.n, self.n)
        return Z @ J


def _det_scale(J, n):
    return max(1.0, norm1(J)) ** n


def _build_interval(system, j):
    grid = system.grid
    t_left, t_right = grid.times[j], grid.times[j + 1]
    zeta = grid.args[j]
    n = system.n
    rhs = _flow_rhs(system)
    y0 = _flow_initial(n)
    fwd = _run_ivp(rhs, zeta, t_right, y0, system.tolerances, dense=True).sol if t_right > zeta else None
    bwd = _run_ivp(rhs, zeta, t_left, y0, system.tolerances, dense=True).sol if t_left < zeta else None

    def state(t):
        if t == zeta:
            return y0
        return fwd(t) if t > zeta else bwd(t)

    Z_l, J_l = _split_flow(state(t_left), n)
    Z_r, J_r = _split_flow(state(t_right), n)
    for name, J in (("J(t_k, zeta_k)", J_l), ("J(t_{k+1}, zeta_k)", J_r)):
        if abs(det(J)) <= _DETJ_RTOL * _det_scale(J, n):
            raise SingularMatrixError(
                f"{name} is singular on interval {j}: the argument anchor is "
                f"not invertible (|det| = {abs(det(J)):.3e})"
            )
    E_l = Z_l @ J_l
    E_r = Z_r @ J_r
    return IntervalOperators(
        index=j,
        t_left=t_left,
        t_right=t_right,
        zeta=zeta,
        n=n,
        _fwd=fwd,
        _bwd=bwd,
        E_left=E_l,
        E_right=E_r,
        E_left_inv=inv(E_l),
        J_left=J_l,
        J_right=J_r,
    )


_OPS_CACHE = weakref.WeakKeyDictionary()
_OPS_LOCK = threading.Lock()


def interval_operators(system: SystemSpec):
    """Per-interval operator caches for one period (built once per system).

    Thread-safe, so library callers may analyze systems from several threads.
    """
    with _OPS_LOCK:
        ops = _OPS_CACHE.get(system)
    if ops is None:
        ops = tuple(_build_interval(system, j) for j in range(system.p))
        with _OPS_LOCK:
            _OPS_CACHE[system] = ops
    return ops


def _reduce(system, k):
    """Base interval operators plus the period shift for a global index."""
    m, j = divmod(k, system.p)
    return interval_operators(system)[j], m * system.omega


def w_local(system: SystemSpec, k: int, s: float, t: float) -> np.ndarray:
    """Within-interval propagator ``W(t, s) = E(t, zeta_k) E(s, zeta_k)^{-1}``.

    Both times must lie in the closure of interval ``k`` (global index).
    Raises ``SingularMatrixError`` when ``E(s, zeta_k)`` is singular to
    tolerance, which signals failure of the invertibility regime.
    """
    ops, shift = _reduce(system, k)
    if t == s:
        return np.eye(system.n)
    E_t = ops.e_at(t - shift)
    E_s = ops.e_at(s - shift)
    return E_t @ inv(E_s)


@dataclass(frozen=True)
class HypothesisReport:
    """Integral smallness diagnostics for the invertibility regime.

    Per interval k: ``sigma_k^+ = exp(int_{t_k}^{zeta_k} |A|)`` and
    ``sigma_k^- = exp(int_{zeta_k}^{t_{k+1}} |A|)`` (matrix 1-norm), with
    ``nu_k^+- = sigma_k^+-(A) * ln sigma_k^+-(B)``.  The regime passes when
    both suprema are below 1.  Failure is a warning, not an error: the
    bounds are sufficient, not necessary, and the analysis still checks the
    actual anchors.  Both inverse bounds ``1/(1 - nu^+-)`` are reported
    without asserting which pairing applies to which anchor.
    """

    norm: str
    sigma_plus: tuple
    sigma_minus: tuple
    nu_plus: tuple
    nu_minus: tuple
    sigma: float
    nu_plus_sup: float
    nu_minus_sup: float
    passed: bool
    j_bound_plus: float
    j_bound_minus: float


# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK qk15; Piessens et al., 1983).  The
# samples are the 15 Kronrod nodes plus both ends; the weight rows give the
# Kronrod rule and the 7-point Gauss rule on the odd-numbered nodes.
_GK_NODES = np.array([
    -1.0, -0.991455371120812639, -0.949107912342758525, -0.864864423359769073,
    -0.741531185599394440, -0.586087235467691130, -0.405845151377397167,
    -0.207784955007898468, 0.0, 0.207784955007898468, 0.405845151377397167,
    0.586087235467691130, 0.741531185599394440, 0.864864423359769073,
    0.949107912342758525, 0.991455371120812639, 1.0,
])
_GK_WEIGHTS = np.array([
    [
        0.0, 0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
        0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
        0.204432940075298892, 0.209482141084727828, 0.204432940075298892,
        0.190350578064785410, 0.169004726639267903, 0.140653259715525919,
        0.104790010322250184, 0.063092092629978553, 0.022935322010529225, 0.0,
    ],
    [
        0.0, 0.0, 0.129484966168869693, 0.0, 0.279705391489276668, 0.0,
        0.381830050505118945, 0.0, 0.417959183673469388, 0.0,
        0.381830050505118945, 0.0, 0.279705391489276668, 0.0,
        0.129484966168869693, 0.0, 0.0,
    ],
])
# Per cell between neighbouring samples: the Kronrod rule's largest error on
# |t - u| for u in the cell, divided by the cell's width (5% margin added).
_GK_KINK = np.array([
    0.0090, 0.0161, 0.0228, 0.0281, 0.0323, 0.0353, 0.0371, 0.0371,
    0.0371, 0.0371, 0.0353, 0.0323, 0.0281, 0.0228, 0.0161, 0.0090,
])
_NORM_TOL = 1e-10  # absolute and relative goal of each norm integral
# Most subintervals, over all pieces, of one matrix's norm integrals.  It
# ends the refinement and bounds the memory of a level (at most this many
# 17-sample evaluations of the matrix); |sin(100 pi t)| takes ~2800 on [0, 1].
_GK_LIMIT = 4000


def _norm_samples(matfun, ts):
    """``matfun`` at every time of the array ``ts`` (shape ``(n, n) +
    ts.shape``), its absolute column sums and its matrix 1-norms.  A norm is
    per point bitwise equal to ``linalg.norm1(matfun.eval(t))``, up to the
    one-ulp latitude of integer powers noted on ``MatrixFunction``."""
    M = matfun._eval_many(ts)
    cols = np.abs(M).sum(axis=0)
    return M, cols, cols.max(axis=0)


def _gk15(matfun, lo, hi):
    """Gauss-Kronrod 7-15 of ``|matfun|_1`` on every ``[lo, hi]``: the
    Kronrod values and their error estimates.

    Each subinterval is sampled at its 15 nodes and both ends; a cell is
    the span between two neighbouring samples.  ``|K15 - G7|`` can miss a
    kink of the norm by orders of magnitude, so two bounds are added:

    * kinks, where an entry of the max column changes sign or the max moves
      to another column inside a cell.  A kink of slope jump ``2 s`` costs
      the rule ``s h^2`` times its error on ``|t - u|``, and ``s`` is at
      most the change across the cell (of the entry, or of the difference
      of the two columns) over the cell's width: hence
      ``h * change * _GK_KINK[cell]``;
    * bumps, where a column below the max at both ends of a cell passes it
      in between, as far as its chord and curvature allow.

    A non-finite sample makes its Kronrod value non-finite (the weights
    are positive, the norms are not negative).
    """
    half = 0.5 * (hi - lo)
    ts = (lo + half)[:, None] + half[:, None] * _GK_NODES
    cell = ts[:, 1:] - ts[:, :-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        M, cols, norms = _norm_samples(matfun, ts)
        kronrod, gauss = half * (_GK_WEIGHTS @ norms.T)
        below = cols - norms  # 0 for the max column(s), negative for the others
        top = below == 0
        top_cell = top[..., 1:] | top[..., :-1]
        step = np.abs(M[..., 1:] - M[..., :-1])
        flips = (M[..., 1:] * M[..., :-1] < 0) & top_cell
        change = flips * step
        # In an end cell the error is exactly s d^2 for a kink d from the
        # end, and the entry's chord puts d at |entry at the end| / s.
        edge = np.abs(M[..., [0, -1]])
        change[..., [0, -1]] = np.where(flips[..., [0, -1]], edge**2 / step[..., [0, -1]], 0.0)
        # Where the max moves from column a to column b, the slope jumps by
        # |D'| for D = C_a - C_b, and D changes across the cell by b's gap
        # below the max at the left end plus a's at the right end.
        kinks = change.sum(axis=(0, 1)) - (
            np.where(top[..., 1:], below[..., :-1], 0.0).min(axis=0)
            + np.where(top[..., :-1], below[..., 1:], 0.0).min(axis=0)
        )
        # A column below the max at both ends of a cell can pass it in
        # between by at most its chord plus |curvature| cell^2 / 8.  The
        # second divided differences give curvature / 2 at the samples; a
        # cell takes the larger of its two ends and a safety factor of 4.
        slope = (below[..., 1:] - below[..., :-1]) / cell
        curve = np.abs(slope[..., 1:] - slope[..., :-1]) / (cell[:, 1:] + cell[:, :-1])
        curve = np.concatenate((curve[..., :1], curve, curve[..., -1:]), axis=-1)
        rise = np.maximum(below[..., 1:], below[..., :-1])
        rise += np.maximum(curve[..., 1:], curve[..., :-1]) * cell**2
        rise[top_cell] = 0.0
        # fmax drops the NaN of a cell too narrow to hold two distinct samples.
        bumps = (np.fmax(rise, 0.0) * cell).sum(axis=(0, 2))
        return kronrod, np.abs(kronrod - gauss) + half * (kinks @ _GK_KINK) + bumps


def _norm_integrals(matfun, name, pieces):
    """``integral_a^b |matfun(t)|_1 dt`` for every ``(a, b)`` of ``pieces``.

    All integrals refine together, level by level, and each level evaluates
    ``matfun`` once on the 17 samples of every new subinterval.  An integral
    is done when its summed error estimate is at most
    ``max(_NORM_TOL, _NORM_TOL * I)``; until then each of its subintervals
    whose estimate exceeds its width's share of that goal is bisected.  A
    child's estimate is the larger of its own (``_gk15``) and
    ``|K_parent - (K_left + K_right)| / 2``.  Empty pieces are exactly 0.0,
    and a non-finite sample makes the integral ``inf`` at once.  When the
    next level would take the subintervals past ``_GK_LIMIT``, every
    integral still open stops with a warning.
    """
    starts, ends = np.array(pieces, dtype=float).T
    width = ends - starts
    m = len(pieces)
    owner = np.flatnonzero(width > 0.0)
    lo, hi = starts[owner], ends[owner]
    value, error = _gk15(matfun, lo, hi)
    # Every subinterval stays a leaf until it is bisected, so the sums over
    # an integral's leaves are its value and error estimate at every level.
    while True:
        total = np.bincount(owner, value, m)
        estimate = np.bincount(owner, error, m)
        goal = np.maximum(_NORM_TOL, _NORM_TOL * total)
        # A non-finite total makes the goal inf or NaN, which closes it.
        open_ = estimate > goal
        if not open_.any():
            break
        split = open_[owner] & (error > goal[owner] * (hi - lo) / width[owner])
        n_split = np.count_nonzero(split)
        # n_split == 0 leaves an integral within rounding of its goal.
        if n_split == 0 or owner.size + n_split > _GK_LIMIT:
            for k in np.flatnonzero(open_):
                log.warning(
                    "integral of |%s|_1 over [%r, %r] stopped at %d subintervals "
                    "with error estimate %.3e (goal %.3e)",
                    name, pieces[k][0], pieces[k][1], np.count_nonzero(owner == k),
                    estimate[k], goal[k],
                )
            break
        p_lo, p_hi = lo[split], hi[split]
        mid = 0.5 * (p_lo + p_hi)
        c_value, c_error = _gk15(matfun, np.concatenate((p_lo, mid)), np.concatenate((mid, p_hi)))
        k = mid.size
        drift = 0.5 * np.abs(value[split] - (c_value[:k] + c_value[k:]))
        keep = ~split
        owner = np.concatenate((owner[keep], owner[split], owner[split]))
        lo = np.concatenate((lo[keep], p_lo, mid))
        hi = np.concatenate((hi[keep], mid, p_hi))
        value = np.concatenate((value[keep], c_value))
        error = np.concatenate((error[keep], np.maximum(c_error, np.concatenate((drift, drift)))))
    return np.where(np.isfinite(total), total, math.inf).tolist()


def hypothesis_check(system: SystemSpec) -> HypothesisReport:
    """Evaluate the integral invertibility bounds over one period."""
    grid = system.grid
    halves = []
    for k in range(system.p):
        halves += [(grid.times[k], grid.args[k]), (grid.args[k], grid.times[k + 1])]
    a_int = _norm_integrals(system.A, "A", halves)
    b_int = _norm_integrals(system.B, "B", halves)
    sp = [float(np.exp(v)) for v in a_int[0::2]]
    sm = [float(np.exp(v)) for v in a_int[1::2]]
    # nu is 0 wherever the integral of |B| is, even when sigma overflows.
    nup = [s * b if b else 0.0 for s, b in zip(sp, b_int[0::2])]
    num = [s * b if b else 0.0 for s, b in zip(sm, b_int[1::2])]
    nu_plus_sup = max(nup)
    nu_minus_sup = max(num)
    sigma = max(a * b for a, b in zip(sp, sm))
    # An infinite sigma (a non-finite or overflowing integral of |A|) fails.
    passed = math.isfinite(sigma) and nu_plus_sup < 1.0 and nu_minus_sup < 1.0
    if not passed:
        log.warning(
            "invertibility bounds exceeded (nu+ = %.6g, nu- = %.6g >= 1); "
            "proceeding, anchors are checked directly",
            nu_plus_sup,
            nu_minus_sup,
        )
    return HypothesisReport(
        norm="1-norm",
        sigma_plus=tuple(sp),
        sigma_minus=tuple(sm),
        nu_plus=tuple(nup),
        nu_minus=tuple(num),
        sigma=sigma,
        nu_plus_sup=nu_plus_sup,
        nu_minus_sup=nu_minus_sup,
        passed=passed,
        j_bound_plus=(1.0 / (1.0 - nu_plus_sup)) if nu_plus_sup < 1.0 else float("inf"),
        j_bound_minus=(1.0 / (1.0 - nu_minus_sup)) if nu_minus_sup < 1.0 else float("inf"),
    )
