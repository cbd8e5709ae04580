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
an eighth-order method takes far fewer steps than a fifth-order one);
quadratures for the invertibility diagnostics use adaptive Gauss-Kronrod
(scipy ``quad``).
"""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

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


def _norm_integral(matfun, a, b):
    if b <= a:
        return 0.0
    value, _ = quad(matfun.norm1_at, a, b, epsabs=1e-10, epsrel=1e-10, limit=400)
    return value


def hypothesis_check(system: SystemSpec) -> HypothesisReport:
    """Evaluate the integral invertibility bounds over one period."""
    grid = system.grid
    sp, sm, nup, num = [], [], [], []
    for k in range(system.p):
        t0, t1, zeta = grid.times[k], grid.times[k + 1], grid.args[k]
        a_plus = _norm_integral(system.A, t0, zeta)
        a_minus = _norm_integral(system.A, zeta, t1)
        b_plus = _norm_integral(system.B, t0, zeta)
        b_minus = _norm_integral(system.B, zeta, t1)
        sp.append(float(np.exp(a_plus)))
        sm.append(float(np.exp(a_minus)))
        nup.append(sp[-1] * b_plus)
        num.append(sm[-1] * b_minus)
    nu_plus_sup = max(nup)
    nu_minus_sup = max(num)
    passed = nu_plus_sup < 1.0 and nu_minus_sup < 1.0
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
        sigma=max(a * b for a, b in zip(sp, sm)),
        nu_plus_sup=nu_plus_sup,
        nu_minus_sup=nu_minus_sup,
        passed=passed,
        j_bound_plus=(1.0 / (1.0 - nu_plus_sup)) if nu_plus_sup < 1.0 else float("inf"),
        j_bound_minus=(1.0 / (1.0 - nu_minus_sup)) if nu_minus_sup < 1.0 else float("inf"),
    )
