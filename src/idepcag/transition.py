"""Continuous-time transition operators built by numerical integration.

For the system x' = A(t)x + B(t)x(gamma(t)) the within-interval propagation
is assembled from three operators anchored at a point ``tau``:

* ``Phi(t, s)``   - fundamental matrix of z' = A(t) z,
* ``J(t, tau)``   - ``I + integral_tau^t Phi(tau, s) B(s) ds``,
* ``E(t, tau)``   - ``Phi(t, tau) J(t, tau)``.

With the argument frozen at ``tau`` the system is the linear ODE
``x' = A x + B c``, ``c' = 0``.  The fundamental matrix ``U(t, tau)`` of its
block generator ``H = [[A, B], [0, 0]]`` is ``[[Phi, Phi (J - I)], [0, I]]``,
so ``E = U11 + U12`` and ``J = U11^{-1} (U11 + U12) = I + U11^{-1} U12``.

``U`` comes from the fixed-step sixth-order Magnus integrator on three
Gauss-Legendre nodes per step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
2009, §5).  A pass of ``N`` steps evaluates ``A`` and ``B`` once each on the
nodes of every step, exponentiates all the steps' ``Omega`` in one stacked
degree-15 Taylor exponential (each matrix scaled to a norm of at most 1/2,
then squared back) and chains them by a batched prefix product.  ``N``
starts at 2 and doubles until the node values of ``N`` and ``2N`` steps
agree to ``ode_abs + ode_rel max|U|``; the ``2N`` pass is kept.  Constant
coefficients make every step an exact block exponential (Van Loan, IEEE TAC
1978), so they agree at the first comparison.

An interval is integrated once, from its argument value ``zeta_k`` to both
ends, and its node values are cached; monodromy assembly integrates every
branch of the period in one batch.  Dense output at ``t`` is one partial
Magnus step from the node at or left of ``t``, batched over the query
times.  The norm integrals of the invertibility diagnostics use a batched
adaptive Gauss-Kronrod 7-15 rule: one vectorized evaluation of the
coefficient matrix per refinement level, over every half-interval of the
period.
"""

from __future__ import annotations

import logging
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
# Neither is called here; both stay bound because perfbench/tracing.py patches them by name.
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

# Gauss-Legendre nodes on [0, 1] of one sixth-order Magnus step, and the
# weights that take h H at the nodes to the combinations of _magnus_omega:
# a1, a2, 2 a3, a1 + a3 / 12 (the Gauss rule) and -20 a1 - a3.
_GL3 = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_GL3_COMB = np.array([
    [0.0, 1.0, 0.0],
    [-math.sqrt(15.0) / 3.0, 0.0, math.sqrt(15.0) / 3.0],
    [20.0 / 3.0, -40.0 / 3.0, 20.0 / 3.0],
    [5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0],
    [-10.0 / 3.0, -40.0 / 3.0, -10.0 / 3.0],
]).T
# Taylor coefficients 1/k!, k = 0..15, in Paterson-Stockmeyer blocks:
# row j holds the coefficients of X^0..X^3 that multiply (X^4)^j.
_TAYLOR_PS = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])
_N_START = 2  # steps of the first pass of every segment
_N_MAX = 2**13  # most steps of one segment's pass
_DENSE_BLOCK = 256  # most query times per batch of partial steps
# Smallest relative tolerance the step doubling is asked to meet (scipy's
# floor for its own steppers); below it roundoff decides the comparison.
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _expm_many(M):
    """``exp`` of every matrix of the stack ``M`` (shape ``(..., m, m)``).

    Degree-15 Taylor polynomial (Paterson-Stockmeyer, six products) of
    ``M / 2^s``, with ``s`` per matrix the least that brings its Frobenius
    norm to at most 1/2 (truncation error about 1e-18 relative), then ``s``
    squarings.  A zero matrix gives exactly ``I``.
    """
    shape = M.shape
    # frexp: |M|_F^2 < 2^e, so a scale of 2^-s with s >= e / 2 + 1 leaves at
    # most 1/2.
    s = np.maximum((np.frexp(np.einsum("...ij,...ij->...", M, M))[1] + 3) // 2, 0)
    powers = np.empty((4,) + shape)
    powers[0] = np.eye(shape[-1])
    X = np.multiply(M, np.ldexp(1.0, -s)[..., None, None], out=powers[1])
    np.matmul(X, X, out=powers[2])
    np.matmul(powers[2], X, out=powers[3])
    X4 = powers[2] @ powers[2]
    blocks = (_TAYLOR_PS @ powers.reshape(4, -1)).reshape(powers.shape)
    E = blocks[3]
    for block in blocks[2::-1]:
        E = E @ X4 + block
    for level in range(int(s.max(initial=0))):
        sel = s > level
        E[sel] = E[sel] @ E[sel]
    return E


def _comm(X, Y):
    return X @ Y - Y @ X


def _magnus_omega(A, B, t0, h):
    """Sixth-order Magnus exponents of the steps ``[t0, t0 + h]`` of the
    block generator ``[[A, B], [0, 0]]``: ``t0`` is an array, ``h``
    broadcasts against it, and the result has shape ``t0.shape + (2n, 2n)``.

    With ``H_i = h H(t0 + c_i h)`` on the Gauss nodes ``c_i`` (Blanes,
    Casas, Oteo & Ros 2009, §5): ``a1 = H_2``, ``a2 = sqrt(15)/3 (H_3 - H_1)``,
    ``a3 = 10/3 (H_3 - 2 H_2 + H_1)``, ``C1 = [a1, a2]``,
    ``C2 = -[a1, 2 a3 + C1] / 60`` and
    ``Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240``.
    """
    n = A.n
    ts = t0[..., None] + h[..., None] * _GL3
    # (n, n) + ts.shape, node axis last, to (5,) + t0.shape + (n, n).
    axes = (ts.ndim + 1, *range(2, ts.ndim + 1), 0, 1)
    a = np.zeros((5,) + t0.shape + (2 * n, 2 * n))
    for cols, F in ((slice(0, n), A), (slice(n, 2 * n), B)):
        values = F._eval_many(ts)
        combos = values.reshape(-1, 3) @ _GL3_COMB
        a[..., :n, cols] = combos.reshape(values.shape[:-1] + (5,)).transpose(axes)
    a *= h[..., None, None]
    a1, a2, a3_twice, gauss, left = a
    c1 = _comm(a1, a2)
    c2 = _comm(a1, a3_twice + c1) / -60.0
    return gauss + _comm(left + c1, a2 + c2) / 240.0


def _magnus_pass(A, B, t0, t1, N):
    """Node values ``U(t0 + k h, t0)``, ``k = 0..N``, ``h = (t1 - t0) / N``,
    of every segment: shape ``(S, N + 1, 2n, 2n)``."""
    h = ((t1 - t0) / N)[:, None]
    U = np.empty((t0.size, N + 1, 2 * A.n, 2 * A.n))
    U[:, 0] = np.eye(2 * A.n)
    P = U[:, 1:]
    P[...] = _expm_many(_magnus_omega(A, B, t0[:, None] + h * np.arange(N), h))
    # Prefix products by doubling: afterwards P[:, k] = F_k ... F_1 F_0.
    d = 1
    while d < N:
        P[:, d:] = P[:, d:] @ P[:, :-d]
        d *= 2
    return U


def _magnus(A, B, tol, t0, t1):
    """Fixed-step Magnus integration of ``[[A, B], [0, 0]]`` over every
    segment ``[t0[i], t1[i]]`` (either direction): a list of ``(h, U)``, with
    ``U[k] = U(t0 + k h, t0)`` the node values of the accepted pass.

    Every open segment takes the same ``N``; a segment closes when its node
    values at ``N`` and ``2N`` steps agree, at each node, to
    ``ode_abs + ode_rel max|U|`` (``ode_rel`` floored at ``_RTOL_FLOOR``),
    and keeps the ``2N`` pass.  Raises ``NumericalError`` on a non-finite
    value and when ``N`` would pass ``_N_MAX``.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    rtol = max(tol.ode_rel, _RTOL_FLOOR)
    result = [None] * t0.size
    live = np.arange(t0.size)
    N = _N_START
    # Overflow shows as a non-finite node value, which raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = _magnus_pass(A, B, t0, t1, N)
        while True:
            N *= 2
            fine = _magnus_pass(A, B, t0[live], t1[live], N)
            finite = np.isfinite(fine).all(axis=(1, 2, 3))
            if not finite.all():
                bad = live[~finite][0]
                raise NumericalError(
                    f"transition operator on [{float(t0[bad])!r}, {float(t1[bad])!r}] "
                    "is not finite"
                )
            on_nodes = fine[:, ::2]
            gap = np.abs(on_nodes - coarse).max(axis=(2, 3))
            bound = tol.ode_abs + rtol * np.abs(on_nodes).max(axis=(2, 3))
            done = (gap <= bound).all(axis=1)
            for i in np.flatnonzero(done):
                result[live[i]] = ((t1[live[i]] - t0[live[i]]) / N, fine[i])
            if done.all():
                return result
            if 2 * N > _N_MAX:
                i = np.flatnonzero(~done)[0]
                raise NumericalError(
                    f"Magnus integration on [{float(t0[live[i]])!r}, {float(t1[live[i]])!r}] "
                    f"missed its tolerance at {N} steps (node difference {gap[i].max():.3e})"
                )
            live, coarse = live[~done], fine[~done]


def _fresh_flow(system, s, t):
    """``U(t, s)`` from one fresh integration; the identity at ``t == s``."""
    if t == s:
        return np.eye(2 * system.n)
    (_, U), = _magnus(system.A, system.B, system.tolerances, [s], [t])
    return U[-1]


def fundamental_matrix(system: SystemSpec, s: float, t: float) -> np.ndarray:
    """Fundamental matrix ``Phi(t, s)`` of z' = A(u) z, ``Phi(s, s) = I``."""
    n = system.n
    return _fresh_flow(system, s, t)[:n, :n].copy()


def _phi_j_e(top, n):
    """``(Phi, J, E)`` from the top block rows ``[U11, U12]`` of ``U``:
    ``J = U11^{-1} (U11 + U12) = I + U11^{-1} U12``, which is exactly ``I``
    where ``B`` vanishes (``U12`` then stays exactly zero)."""
    Phi, K = top[..., :n], top[..., n:]
    try:
        J = np.eye(n) + np.linalg.solve(Phi, K)
    except np.linalg.LinAlgError as exc:  # Phi underflowed, as for A = -800 over 1
        raise SingularMatrixError("fundamental matrix singular to working precision") from exc
    return Phi, J, Phi + K


def _flow_matrices(system, tau, t):
    """``(Phi(t, tau), J(t, tau), E(t, tau))`` from one fresh integration;
    all three are the identity at ``t == tau``."""
    return _phi_j_e(_fresh_flow(system, tau, t)[: system.n], system.n)


def j_matrix(system: SystemSpec, tau: float, t: float) -> np.ndarray:
    """``J(t, tau) = I + integral_tau^t Phi(tau, s) B(s) ds``."""
    return _flow_matrices(system, tau, t)[1]


def e_matrix(system: SystemSpec, tau: float, t: float) -> np.ndarray:
    """``E(t, tau) = Phi(t, tau) J(t, tau)``; ``E(tau, tau) = I``."""
    return _flow_matrices(system, tau, t)[2]


@dataclass(frozen=True, eq=False)
class IntervalOperators:
    """Dense-output transition operators for one base interval.

    Anchored at the interval's argument value ``zeta``.  The Magnus nodes of
    both branches, ``zeta`` to ``t_left`` and ``zeta`` to ``t_right``, are
    stored in ascending time with their values ``U(t_i, zeta)``; evaluation
    of ``Phi(t, zeta)``, ``J(t, zeta)`` and ``E(t, zeta)`` at any ``t`` in
    ``[t_left, t_right]`` is one partial Magnus step from the node at or
    left of ``t``.  The step is time-symmetric, so on the branch left of
    ``zeta`` a full step from one node reproduces the next to roundoff.
    """

    index: int
    t_left: float
    t_right: float
    zeta: float
    n: int
    _A: object  # MatrixFunction, for the partial steps
    _B: object
    _times: np.ndarray  # node times, ascending, from t_left to t_right
    _nodes: np.ndarray  # U(t_i, zeta), shape (len(_times), 2n, 2n)
    E_left: np.ndarray
    E_right: np.ndarray
    E_left_inv: np.ndarray
    J_left: np.ndarray
    J_right: np.ndarray

    def _top_many(self, ts):
        """Top block rows ``[U11, U12]`` of ``U(t, zeta)`` for every time of
        ``ts``: shape ``(m, n, 2n)``.  At a node time (``zeta`` included)
        they are the stored node values exactly."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        slack = 1e-9 * max(1.0, abs(self.t_right))
        # Written so that NaN, for which every comparison is false, raises.
        outside = ~((ts >= self.t_left - slack) & (ts <= self.t_right + slack))
        if outside.any():
            raise ValueError(
                f"t = {float(ts[outside][0])!r} outside interval "
                f"[{self.t_left!r}, {self.t_right!r}]"
            )
        ts = np.minimum(np.maximum(ts, self.t_left), self.t_right)
        k = np.searchsorted(self._times, ts, side="right") - 1
        starts = self._times[k]
        top = np.empty((ts.size, self.n, 2 * self.n))
        # In blocks, so the temporaries of a long batch stay small.
        for i in range(0, ts.size, _DENSE_BLOCK):
            at = slice(i, i + _DENSE_BLOCK)
            step = _expm_many(_magnus_omega(self._A, self._B, starts[at], ts[at] - starts[at]))
            np.matmul(step[:, : self.n], self._nodes[k[at]], out=top[at])
        return top

    def phi_at(self, t: float) -> np.ndarray:
        return self._top_many(t)[0, :, : self.n]

    def j_at(self, t: float) -> np.ndarray:
        return _phi_j_e(self._top_many(t)[0], self.n)[1]

    def e_at(self, t: float) -> np.ndarray:
        return self.e_many(t)[0]

    def e_many(self, ts) -> np.ndarray:
        """``E(t, zeta)`` stacked to shape ``(m, n, n)`` for ``m`` times, from
        one batch of partial steps; ``e_at`` is ``e_many`` of one time."""
        top = self._top_many(ts)
        return top[..., : self.n] + top[..., self.n :]


def _det_scale(J, n):
    return max(1.0, norm1(J)) ** n


def _build_intervals(system):
    """``IntervalOperators`` of every base interval, from one batched Magnus
    integration of all branches ``[zeta_k, t_{k+1}]`` and ``[zeta_k, t_k]``."""
    grid = system.grid
    n = system.n
    ends = [(j, end) for j in range(system.p)
            for end in (grid.times[j], grid.times[j + 1]) if end != grid.args[j]]
    flows = _magnus(system.A, system.B, system.tolerances,
                    [grid.args[j] for j, _ in ends], [end for _, end in ends])
    branches = dict(zip(ends, flows))
    ops = []
    for j in range(system.p):
        t_left, t_right, zeta = grid.times[j], grid.times[j + 1], grid.args[j]
        times, nodes = [np.array([zeta])], [np.eye(2 * n)[None]]
        left, right = branches.get((j, t_left)), branches.get((j, t_right))
        if left is not None:
            h, U = left
            times.insert(0, zeta + h * np.arange(len(U) - 1, 0, -1))
            nodes.insert(0, U[:0:-1])
        if right is not None:
            h, U = right
            times.append(zeta + h * np.arange(1, len(U)))
            nodes.append(U[1:])
        times, nodes = np.concatenate(times), np.concatenate(nodes)
        times[0], times[-1] = t_left, t_right
        _, (J_l, J_r), (E_l, E_r) = _phi_j_e(nodes[[0, -1], :n], n)
        for name, J in (("J(t_k, zeta_k)", J_l), ("J(t_{k+1}, zeta_k)", J_r)):
            if abs(det(J)) <= _DETJ_RTOL * _det_scale(J, n):
                raise SingularMatrixError(
                    f"{name} is singular on interval {j}: the argument anchor is "
                    f"not invertible (|det| = {abs(det(J)):.3e})"
                )
        ops.append(IntervalOperators(
            index=j,
            t_left=t_left,
            t_right=t_right,
            zeta=zeta,
            n=n,
            _A=system.A,
            _B=system.B,
            _times=times,
            _nodes=nodes,
            E_left=E_l,
            E_right=E_r,
            E_left_inv=inv(E_l),
            J_left=J_l,
            J_right=J_r,
        ))
    return tuple(ops)


_OPS_CACHE = weakref.WeakKeyDictionary()
_OPS_LOCK = threading.Lock()


def interval_operators(system: SystemSpec):
    """Per-interval operator caches for one period (built once per system).

    Thread-safe, so library callers may analyze systems from several threads.
    """
    with _OPS_LOCK:
        ops = _OPS_CACHE.get(system)
    if ops is None:
        ops = _build_intervals(system)
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
