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
degree-15 Taylor exponential (``linalg._expm_many``) and chains them by a
batched prefix product.  Each segment steps on its own error estimate: it
starts at 2 steps and compares every pass with the next, finer one on the
coarse nodes.  Until the node gaps fall at the sixth-order rate, the finer
pass is kept once the raw gap meets ``ode_abs + ode_rel max|U|``, and the
steps double.  Once they do, the finer pass is kept on the Richardson
estimate of its own error (the gap over ``r^6 - 1`` for a step ratio ``r``,
with a safety factor), and the next step count is the one that estimate
predicts (``_magnus``).  Constant coefficients make every step an exact block
exponential (Van Loan, IEEE TAC 1978), so they agree at the first comparison.

An interval is integrated once, from its argument value ``zeta_k`` to both
ends, and its node values are cached; monodromy assembly integrates every
branch of the period in one batch, and the systems of a sweep template,
which differ only in the value of its parameter, integrate all their
branches in one batch (``build_operators``).  The branches' accepted error estimates
are carried through the assembly of ``X(omega)``, and the batch is repeated
at a tighter tolerance while they move ``X`` by more than ``ode_abs + ode_rel
max|X|`` (``_build_intervals``).  Dense output at ``t`` is one partial
Magnus step from the node at or left of ``t``, batched over the distinct
query times.  The norm integrals of the invertibility diagnostics use a batched
adaptive Gauss-Kronrod 7-15 rule: one vectorized evaluation of the
coefficient matrix per refinement level, over every half-interval of the
period.  As in QUADPACK's ``qagp`` (Piessens et al. 1983), a subinterval
whose error is held up by a kink of the norm (an entry of the max column
changing sign, or the max moving to another column) is split at the kink,
located by a vectorized Illinois search on the bracketing samples, rather
than bisected toward it.  The kink then sits on the end of two children,
where the end-cell bounds of ``_gk15`` charge it ~0 for a sign change and
for a column switch alike.  What no sample sees, a column passing the max
or an entry dipping through zero between two samples, is charged by one
parabola bound on the sampled curvature (``_rises``).  The trig documents
of the benchmark close in 3-8 levels, where bisection took 16-32.  The
Liouville row of ``floquet.structural_residuals`` integrates ``tr A`` with
the same Gauss-Kronrod rule, bisecting only (``_trace_integrals``): the trace
is signed and smooth, and the rule shares nothing with the Magnus layer
whose determinant it checks.

No layer here calls scipy.integrate, and the module does not import it:
with the scipy.optimize, scipy.special and scipy.sparse it pulls in, it
costs about 0.2 s, some 40% of a cold ``import idepcag`` on a 2-vCPU VM.
``quad`` and ``solve_ivp`` are still names of the module, resolved at first
access by the module ``__getattr__`` (PEP 562), because
``perfbench/tracing.py`` patches them by name.
"""

from __future__ import annotations

import logging
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, SingularMatrixError, _expm_many, _gemm, inv, norm1
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
    "build_operators",
    "node_bound",
]

log = logging.getLogger("idepcag")


def __getattr__(name):
    """scipy's ``quad`` and ``solve_ivp``, imported at first access (PEP 562).
    Neither is called here; both stay names of the module because
    ``perfbench/tracing.py`` patches them by name."""
    if name in ("quad", "solve_ivp"):
        import scipy.integrate

        return getattr(scipy.integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
_N_START = 2  # steps of the first pass of every segment
_N_MAX = 2**13  # most steps of one segment's pass (a power of two)
# Margin on the Richardson estimate of an accepted pass's error.
_SAFETY = 4.0
_DENSE_BLOCK = 256  # most query times per batch of partial steps
# Smallest relative tolerance the step control is asked to meet (scipy's
# floor for its own steppers); below it roundoff decides the comparison.
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _comm(X, Y):
    return X @ Y - Y @ X


def _magnus_omega(A, B, t0, h, param=None):
    """Sixth-order Magnus exponents of the steps ``[t0, t0 + h]`` of the
    block generator ``[[A, B], [0, 0]]``: ``t0`` is an array, ``h``
    broadcasts against it, and the result has shape ``t0.shape + (2n, 2n)``.
    ``param``, if given, is the parameter of ``A`` and ``B``, which
    broadcasts against the node times (shape ``t0.shape + (3,)``).

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
        values = F._eval_many(ts, param)
        combos = _gemm(values.reshape(-1, 3), _GL3_COMB)
        a[..., :n, cols] = combos.reshape(values.shape[:-1] + (5,)).transpose(axes)
    a *= h[..., None, None]
    a1, a2, a3_twice, gauss, left = a
    c1 = _comm(a1, a2)
    c2 = _comm(a1, a3_twice + c1) / -60.0
    return gauss + _comm(left + c1, a2 + c2) / 240.0


def _magnus_pass(A, B, t0, t1, N, param=None):
    """Node values ``U(t0 + k h, t0)``, ``k = 0..N``, ``h = (t1 - t0) / N``,
    of every segment: shape ``(S, N + 1, 2n, 2n)``; ``param``, if given,
    is the parameter of ``A`` and ``B`` per segment, shape ``(S, 1, 1)``."""
    h = ((t1 - t0) / N)[:, None]
    U = np.empty((t0.size, N + 1, 2 * A.n, 2 * A.n))
    U[:, 0] = np.eye(2 * A.n)
    P = U[:, 1:]
    P[...] = _expm_many(_magnus_omega(A, B, t0[:, None] + h * np.arange(N), h, param))
    # Prefix products by doubling: afterwards P[:, k] = F_k ... F_1 F_0.
    d = 1
    while d < N:
        P[:, d:] = P[:, d:] @ P[:, :-d]
        d *= 2
    return U


def _magnus(A, B, tol, t0, t1, scale, params):
    """Fixed-step Magnus integration of ``[[A, B], [0, 0]]`` over every
    segment ``[t0[i], t1[i]]`` (either direction): a list of ``(h, U, err)``,
    with ``U[k] = U(t0 + k h, t0)`` the node values of the accepted pass and
    ``err`` the estimate of ``U[-1]``'s error that accepted it.  ``scale``
    and ``params`` hold one value per segment: the factor on its tolerance,
    and the parameter of ``A`` and ``B``.

    Each segment compares its last pass of ``N`` steps with a pass of
    ``M = r N`` steps on the nodes of the first; its error measure is the
    largest node gap over ``scale (ode_abs + ode_rel max|U|)`` (``scale
    ode_rel`` floored at ``_RTOL_FLOOR``).  While the gaps do not yet fall
    at the sixth-order rate, the ``M`` pass is accepted when that measure is
    at most 1, and ``M`` doubles otherwise.  Once the ratio of a segment's
    last two gaps is at least half the ratio that rate gives for its two
    step ratios (32 for two doublings), the error of the ``M`` pass is about the gap over
    ``r^6 - 1`` (Richardson; Hairer, Norsett & Wanner, *Solving ODEs I*,
    §II.4): the pass is accepted when ``_SAFETY`` times that estimate meets
    the tolerance, and otherwise the next ``M`` is the one the estimate
    predicts, rounded up to a power of two, at least ``2M`` and at most
    ``_N_MAX``.  Segments at the same ``(N, M)`` share one pass, and a
    segment's steps depend on its own gaps alone, so its result does not
    depend on the batch.

    A segment whose pass has a non-finite node value, or that stays open at
    ``_N_MAX`` steps, holds its ``NumericalError`` in place of its result;
    the other segments go on.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    size = t0.size
    atol, rtol = scale * tol.ode_abs, np.maximum(scale * tol.ode_rel, _RTOL_FLOOR)
    # Against the (step, node) axes of the times of a pass.
    param = params[:, None, None]

    result = [None] * size
    # Per segment: the steps of its next pass, and the error measure and
    # step ratio of its last comparison (NaN before one).
    steps = [2 * _N_START] * size
    excess = [math.nan] * size
    ratio = [math.nan] * size
    live = list(range(size))
    # Overflow shows as a non-finite node value, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        last = list(_magnus_pass(A, B, t0, t1, _N_START, param))
        while live:
            groups = {}
            for i in live:
                groups.setdefault((len(last[i]) - 1, steps[i]), []).append(i)
            for (N, M), seg in groups.items():
                idx = np.array(seg)
                fine = _magnus_pass(A, B, t0[idx], t1[idx], M, param[idx])
                r = M // N
                on_nodes = fine[:, ::r]
                gap = np.abs(on_nodes - np.stack([last[i] for i in seg])).max(axis=(2, 3))
                bound = atol[idx, None] + rtol[idx, None] * np.abs(on_nodes).max(axis=(2, 3))
                for i, U, finite, worst, node_gap in zip(
                        seg, fine, np.isfinite(fine).all(axis=(1, 2, 3)),
                        (gap / bound).max(axis=1).tolist(), gap.max(axis=1).tolist()):
                    if not finite:
                        result[i] = NumericalError(
                            f"transition operator on [{float(t0[i])!r}, {float(t1[i])!r}] "
                            "is not finite")
                        continue
                    # The rate shows when the measure fell by at least half
                    # of (r_before^6 - 1) / (1 - r^-6); NaN compares false.
                    rate = excess[i] >= 0.5 * (ratio[i] ** 6 - 1.0) / (1.0 - r**-6.0) * worst
                    factor = _SAFETY / (r**6 - 1.0) if rate else 1.0
                    if worst * factor <= 1.0:
                        result[i] = ((t1[i] - t0[i]) / M, U, factor * (last[i][-1] - U[-1]))
                    elif M >= _N_MAX:
                        result[i] = NumericalError(
                            f"Magnus integration on [{float(t0[i])!r}, {float(t1[i])!r}] missed "
                            f"its tolerance at {M} steps (node difference {node_gap:.3e})")
                    else:
                        steps[i] = 2 * M
                        if rate:
                            # The estimate falls as M^-6: the least power of
                            # two that brings it to 1.
                            wanted = min(M * (worst * factor) ** (1.0 / 6.0), _N_MAX)
                            steps[i] = max(2 * M, 2 ** math.ceil(math.log2(wanted)))
                        excess[i], ratio[i], last[i] = worst, r, U
            live = [i for i in live if result[i] is None]
    return result


def _fresh_flows(system, s, t):
    """``U(t_i, s_i)`` for every pair of ``s`` and ``t``, stacked, from one
    fresh batched integration; the first segment that fails, in input order,
    raises its ``NumericalError``.  Each segment closes on its own, so its
    value does not depend on the others; a zero-length segment gives
    exactly ``I``."""
    size = len(s)
    flows = _magnus(system.A, system.B, system.tolerances, s, t,
                    np.ones(size), np.full(size, system.A.param))
    for flow in flows:
        if isinstance(flow, NumericalError):
            raise flow
    return np.stack([U[-1] for _, U, _ in flows])


def fundamental_matrix(system: SystemSpec, s: float, t: float) -> np.ndarray:
    """Fundamental matrix ``Phi(t, s)`` of z' = A(u) z, ``Phi(s, s) = I``."""
    n = system.n
    return _fresh_flows(system, [s], [t])[0, :n, :n].copy()


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
    return _phi_j_e(_fresh_flows(system, [tau], [t])[0, : system.n], system.n)


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

    t_left: float
    t_right: float
    zeta: float
    n: int
    _A: object  # MatrixFunction, for the partial steps
    _B: object
    _times: np.ndarray  # node times, ascending, from t_left to t_right
    _nodes: np.ndarray  # U(t_i, zeta), shape (len(_times), 2n, 2n)
    period_step: np.ndarray  # S_j = (I + C_{j+1}) E(t_right, zeta) E(t_left, zeta)^-1
    E_left_inv: np.ndarray

    def _top_many(self, ts):
        """Top block rows ``[U11, U12]`` of ``U(t, zeta)`` for every time of
        ``ts``: shape ``(m, n, 2n)``.  At a node time (``zeta`` included)
        they are the stored node values exactly.  One partial step serves
        every repeat of a time, and a step's bits do not depend on the
        batch it is taken in, so each row is that of its time alone."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        slack = 1e-9 * max(1.0, abs(self.t_right))
        # Written so that NaN, for which every comparison is false, raises.
        outside = ~((ts >= self.t_left - slack) & (ts <= self.t_right + slack))
        if outside.any():
            raise ValueError(
                f"t = {float(ts[outside][0])!r} outside interval "
                f"[{self.t_left!r}, {self.t_right!r}]"
            )
        ts, inverse = np.unique(np.minimum(np.maximum(ts, self.t_left), self.t_right),
                                return_inverse=True)
        k = np.searchsorted(self._times, ts, side="right") - 1
        starts = self._times[k]
        top = np.empty((ts.size, self.n, 2 * self.n))
        # In blocks, so the temporaries of a long batch stay small.
        for i in range(0, ts.size, _DENSE_BLOCK):
            at = slice(i, i + _DENSE_BLOCK)
            step = _expm_many(_magnus_omega(self._A, self._B, starts[at], ts[at] - starts[at]))
            np.matmul(step[:, : self.n], self._nodes[k[at]], out=top[at])
        return top[inverse]

    def e_at(self, t: float) -> np.ndarray:
        return self.e_many(t)[0]

    def e_many(self, ts) -> np.ndarray:
        """``E(t, zeta)`` stacked to shape ``(m, n, n)`` for ``m`` times, from
        one batch of partial steps; ``e_at`` is ``e_many`` of one time."""
        top = self._top_many(ts)
        return top[..., : self.n] + top[..., self.n :]


def _branch_ends(grid):
    """``(k, end)`` of every non-empty branch ``[zeta_k, t_k or t_{k+1}]``."""
    return [(j, end) for j, zeta in enumerate(grid.args)
            for end in grid.times[j:j + 2] if end != zeta]


def node_bound(n, grid):
    """Most node entries the operators of one system of dimension ``n`` on
    ``grid`` can hold, and so the size a batch's arrays reach per system:
    ``_N_MAX + 1`` node values of ``(2n)^2`` entries on every branch."""
    return len(_branch_ends(grid)) * (_N_MAX + 1) * (2 * n) ** 2


def _interval_pairs(grid, ends, values, empty):
    """Per base interval ``k``, the values ``(left, right)`` of its branches
    to ``t_k`` and ``t_{k+1}``, from ``values[i]`` of the non-empty branch
    ``ends[i] = (k, end)``; ``empty`` stands for an empty branch's identity."""
    by_end = dict(zip(ends, values))
    return [[by_end.get((j, t), empty) for t in grid.times[j:j + 2]] for j in range(grid.p)]


def _period_step(system, j, E_left, E_right):
    """``(S_j, E_left^-1)``: the period step ``S_j = (I + C_{j+1}) E_right
    E_left^-1`` of base interval ``j``, with ``E_left`` inverted by ``linalg.inv``."""
    E_left_inv = inv(E_left)
    return system.impulse_factor(j + 1) @ (E_right @ E_left_inv), E_left_inv


def _monodromy_from_ends(system, ends, E):
    """``X(omega)`` assembled from ``E[i] = E(end, zeta_k)`` of the branches
    ``ends[i] = (k, end)``: the ``_period_step`` of every base interval."""
    X = np.eye(system.n)
    for j, pair in enumerate(_interval_pairs(system.grid, ends, E, np.eye(system.n))):
        X = _period_step(system, j, *pair)[0] @ X
    return X


def _build_intervals(systems):
    """``IntervalOperators`` of every base interval of each of ``systems``,
    or in their place the ``NumericalError`` of a failed build, from one
    batched Magnus integration of all branches ``[zeta_k, t_{k+1}]`` and
    ``[zeta_k, t_k]``.  The systems share their grid, tolerances and
    compiled coefficients, and differ at most in the value of the
    coefficients' parameter (``MatrixFunction.param``, one value for ``A``
    and ``B``).  A system whose branches fail raises the error of the first
    of them in ``_branch_ends`` order.

    Each branch meets the tolerance at its own nodes, but ``X(omega)``
    multiplies the branch ends and inverts the left ones, which can scale
    their errors up by the conditioning of ``E(t_k, zeta_k)``.  So the
    branches' accepted error estimates are carried through the assembly of
    ``X(omega)``; while that moves a system's ``X`` by more than ``ode_abs +
    ode_rel max|X|``, its integration is repeated with every branch's
    tolerance scaled down by twice the excess (``ode_rel`` no lower than
    ``_RTOL_FLOOR``).  Every segment steps on its own gaps, so each system's
    nodes, repeats and errors are those it gets alone.  A system whose
    ``X(omega)``, the product of its cached period steps, is not finite
    fails with a ``NumericalError``."""
    first = systems[0]
    grid, n, tol = first.grid, first.n, first.tolerances
    ends = _branch_ends(grid)
    zeta, end = [grid.args[j] for j, _ in ends], [end for _, end in ends]
    params = np.array([system.A.param for system in systems])
    scale = np.array([1.0] * len(systems))
    out = [None] * len(systems)
    live = np.arange(len(systems))
    while live.size:
        rows = live.repeat(len(ends))
        flows = _magnus(first.A, first.B, tol, zeta * len(live), end * len(live),
                        scale[rows], params[rows])
        again = []
        for k, r in enumerate(live):
            branches = flows[k * len(ends):(k + 1) * len(ends)]
            try:
                for branch in branches:
                    if isinstance(branch, NumericalError):
                        raise branch
                ops = _operators_from_branches(systems[r], ends, branches)
                tops = np.stack([U[-1, :n] + err[:n] for _, U, err in branches])
                # Finite steps can have a product past the float range.
                with np.errstate(over="ignore", invalid="ignore"):
                    X = np.eye(n)
                    for o in ops:
                        X = o.period_step @ X
                    moved = _monodromy_from_ends(systems[r], ends, tops[..., :n] + tops[..., n:])
                if not np.isfinite(X).all():
                    raise NumericalError("X(omega) is not finite: it leaves the float range")
            except NumericalError as exc:
                out[r] = exc
                continue
            excess = np.abs(moved - X).max() / (tol.ode_abs + tol.ode_rel * np.abs(X).max())
            # NaN compares false, so a non-finite estimate ends the loop too.
            if excess > 1.0 and scale[r] * tol.ode_rel > _RTOL_FLOOR:
                scale[r] /= 2.0 * excess
                again.append(r)
            else:
                out[r] = ops
        live = np.array(again, dtype=int)
    return out


def _operators_from_branches(system, ends, branches):
    """``IntervalOperators`` of every base interval from the Magnus results
    ``branches[i] = (h, U, err)`` of the non-empty branches ``ends[i]``.
    Both branches start at ``U(zeta, zeta) = I`` (an empty one is that node
    alone), so the nodes are the left branch reversed, then the right one."""
    grid, n = system.grid, system.n
    empty = (0.0, np.eye(2 * n)[None], None)
    ops = []
    for j, ((h_l, U_l, _), (h_r, U_r, _)) in enumerate(_interval_pairs(grid, ends, branches, empty)):
        t_left, t_right, zeta = grid.times[j], grid.times[j + 1], grid.args[j]
        times = zeta + np.concatenate((h_l * np.arange(len(U_l) - 1, -1, -1),
                                       h_r * np.arange(1, len(U_r))))
        nodes = np.concatenate((U_l[::-1], U_r[1:]))
        times[0], times[-1] = t_left, t_right
        _, (J_l, J_r), E_ends = _phi_j_e(nodes[[0, -1], :n], n)
        for name, J in (("J(t_k, zeta_k)", J_l), ("J(t_{k+1}, zeta_k)", J_r)):
            det = abs(np.linalg.det(J))
            if det <= _DETJ_RTOL * max(1.0, norm1(J)) ** n:
                raise SingularMatrixError(
                    f"{name} is singular on interval {j}: the argument anchor is "
                    f"not invertible (|det| = {det:.3e})"
                )
        period_step, E_left_inv = _period_step(system, j, *E_ends)
        ops.append(IntervalOperators(
            t_left=t_left,
            t_right=t_right,
            zeta=zeta,
            n=n,
            _A=system.A,
            _B=system.B,
            _times=times,
            _nodes=nodes,
            period_step=period_step,
            E_left_inv=E_left_inv,
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
        (error,) = build_operators([system])
        if error is not None:
            raise error
        with _OPS_LOCK:
            ops = _OPS_CACHE[system]
    return ops


def build_operators(systems):
    """Build and cache the operators of every one of ``systems`` that has
    none yet, and return per system the ``NumericalError`` its build raised
    (``interval_operators`` raises it), or None.  The systems of one
    ``model.Template`` that share its compiled coefficients integrate in one
    batch (``_build_intervals``); any others alone."""
    errors = [None] * len(systems)
    batches = {}
    with _OPS_LOCK:
        for i, system in enumerate(systems):
            if system not in _OPS_CACHE:
                shared = (system.A._rows, system.B._rows, system.grid, system.tolerances)
                batches.setdefault(shared, []).append(i)
    for batch in batches.values():
        for i, ops in zip(batch, _build_intervals([systems[i] for i in batch])):
            if isinstance(ops, NumericalError):
                errors[i] = ops
            else:
                with _OPS_LOCK:
                    _OPS_CACHE[systems[i]] = ops
    return errors


def w_local(system: SystemSpec, k: int, s: float, t: float) -> np.ndarray:
    """Within-interval propagator ``W(t, s) = E(t, zeta_k) E(s, zeta_k)^{-1}``.

    Both times must lie in the closure of interval ``k`` (global index).
    Raises ``SingularMatrixError`` when ``E(s, zeta_k)`` is singular to
    tolerance, which signals failure of the invertibility regime.
    """
    m, j = divmod(k, system.p)
    ops = interval_operators(system)[j]
    if t == s:
        return np.eye(system.n)
    E_t, E_s = ops.e_many([t - m * system.omega, s - m * system.omega])
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
# 17-sample evaluations of the matrix); |sin(100 pi t)| takes 200 on [0, 1]
# (~2800 with bisection alone).
_GK_LIMIT = 4000
_TRACE_TOL = 1e-12  # absolute and relative goal of each trace integral
_TRACE_LIMIT = 400  # most subintervals of one trace integral
_KINK_FTOL = 1e-13  # a kink is located where its function is this share of the norm
_KINK_ITER = 60  # most Illinois iterations of one kink search
# Kinks closer than this share of a subinterval's width to one of its ends,
# or to each other, do not split it.
_KINK_GAP = 1e-9


def _norm_samples(matfun, ts):
    """``matfun`` at every time of the array ``ts`` (shape ``(n, n) +
    ts.shape``), its absolute column sums and its matrix 1-norms.  A norm is
    per point bitwise equal to ``linalg.norm1(matfun.eval(t))``, up to the
    one-ulp latitude of integer powers noted on ``MatrixFunction``."""
    M = matfun._eval_many(ts)
    cols = np.abs(M).sum(axis=0)
    return M, cols, cols.max(axis=0)


def _kink_rows(M, cols):
    """The ``n^2`` entries of ``M`` (shape ``(n, n, m)``), its ``n`` column
    sums ``cols`` and a zero row, stacked to shape ``(n^2 + n + 1, m)``: the
    function of a kink is the difference of two rows."""
    m = cols.shape[1]
    return np.concatenate((M.reshape(M.shape[0] ** 2, m), cols, np.zeros((1, m))))


def _gk15(matfun, lo, hi):
    """Gauss-Kronrod 7-15 of ``|matfun|_1`` on every ``[lo, hi]``: the
    Kronrod values, their error estimates, and for ``_kink_brackets`` the
    sample times, entries and column sums with each cell's kink bound and
    the entries that change sign in it (``flips``).

    Each subinterval is sampled at its 15 nodes and both ends; a cell is
    the span between two neighbouring samples.  ``|K15 - G7|`` can miss a
    kink of the norm by orders of magnitude, so two bounds are added:

    * kinks, where an entry of the max column changes sign or the max moves
      to another column inside a cell.  A kink of slope jump ``2 s`` costs
      the rule ``s h^2`` times its error on ``|t - u|``, and ``s`` is at
      most the change across the cell (of the entry, or of the difference
      ``D`` of the two columns) over the cell's width: hence
      ``h * change * _GK_KINK[cell]``.  In an end cell the error is exactly
      ``s d^2`` for a kink ``d`` from the end, and the chord puts ``d`` at
      the value at the end over the slope: ``|entry|`` over the entry's,
      or the gap between the two columns over ``|D'|``.  So a kink on an
      end, where ``_norm_integrals`` splits at a located kink, costs ~0
      (``|D'|`` is the change of ``D`` across the end cell over its width);
    * rises between samples (``_rises``): bumps, where a column below the
      max at both ends of a cell passes it in between, and dips, where an
      entry of the max column keeps its sign at both ends of a cell but
      crosses zero in between.  Each is a function at most 0 at both ends
      (the column's gap below the max, or ``-|entry|``) that rises above 0
      where no sample sees it, and a dip costs the norm twice its area.
      The rules integrate ``0.875 + sin(10 pi t)`` over [0, 1] exactly,
      with no sample in its five dips below zero.

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
        edge = np.abs(M[..., [0, -1]])
        change[..., [0, -1]] = np.where(flips[..., [0, -1]], edge**2 / step[..., [0, -1]], 0.0)
        # Where the max moves from column a to column b, the slope jumps by
        # |D'| for D = C_a - C_b, and D changes across the cell by b's gap
        # below the max at the left end plus a's at the right end (switch
        # holds minus that).  In an end cell the chord puts the switch
        # |gap at the end| / |D'| from the end; fmin drops the NaN of 0 / 0.
        gap_left = np.where(top[..., 1:], below[..., :-1], 0.0).min(axis=0)
        gap_right = np.where(top[..., :-1], below[..., 1:], 0.0).min(axis=0)
        switch = gap_left + gap_right
        switch[:, 0] = np.fmin(gap_left[:, 0] ** 2 / switch[:, 0], 0.0)
        switch[:, -1] = np.fmin(gap_right[:, -1] ** 2 / switch[:, -1], 0.0)
        kinks = change.sum(axis=(0, 1)) - switch
        # Curvature bounds of the entries and of the columns' gaps below the
        # max, in one pass.
        n2 = M.shape[0] ** 2
        curve = _curvature_bound(np.concatenate((M.reshape((n2,) + below.shape[1:]), below)), cell)
        bumps = _rises(below, curve[n2:], cell, ~top_cell)
        dips = 2.0 * _rises(-np.abs(M), curve[:n2].reshape(flips.shape), cell, top_cell & ~flips)
        error = np.abs(kronrod - gauss) + half * (kinks @ _GK_KINK) + bumps + dips
    return kronrod, error, (ts, M, cols, kinks, flips)


def _trace_integrals(matfun, spans):
    """``integral_s^t tr matfun(u) du`` for every ``(s, t)`` of ``spans``:
    signed, so a reversed span gives the negative, and 0.0 on an empty one.

    The Gauss-Kronrod 7-15 rule of ``_gk15`` on the 15 nodes, refined level
    by level over every span at once, one ``_eval_many`` per level on the
    nodes of the new subintervals.  The trace is signed, and smooth where
    the entries are, so ``|K15 - G7|`` is the error estimate and no kink is
    sought: a subinterval is bisected where its estimate exceeds its
    width's share of ``max(_TRACE_TOL, _TRACE_TOL |I|)``.  An integral that
    would pass ``_TRACE_LIMIT`` subintervals stops with a warning.  Constant
    diagonal entries take the closed form ``tr (t - s)``."""
    s, t = np.asarray(spans, dtype=float).reshape(-1, 2).T
    if all(matfun.entries[i][i].is_constant() for i in range(matfun.n)):
        return float(np.trace(matfun.eval(0.0))) * (t - s)

    def rule(a, b):
        half = 0.5 * (b - a)
        ts = (a + half)[:, None] + half[:, None] * _GK_NODES[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            kronrod, gauss = half * (_GK_WEIGHTS[:, 1:-1] @ np.trace(matfun._eval_many(ts)).T)
            return kronrod, np.abs(kronrod - gauss)

    lo, hi = np.minimum(s, t), np.maximum(s, t)
    width = hi - lo
    m = width.size
    owner = np.flatnonzero(width > 0.0)
    a, b = lo[owner], hi[owner]
    value, error = rule(a, b)
    stopped = np.zeros(m, bool)
    while True:
        total = np.bincount(owner, value, m)
        goal = np.maximum(_TRACE_TOL, _TRACE_TOL * np.abs(total))
        # A non-finite total makes the goal inf or NaN, which closes it.
        estimate = np.bincount(owner, error, m)
        open_ = (estimate > goal) & ~stopped
        split = open_[owner] & (error > goal[owner] * (b - a) / width[owner])
        over = open_ & (np.bincount(owner, minlength=m) + np.bincount(owner, split, m) > _TRACE_LIMIT)
        for k in np.flatnonzero(over):
            log.warning("integral of tr over [%r, %r] stopped at %d subintervals with error "
                        "estimate %.3e (goal %.3e)", float(s[k]), float(t[k]), np.count_nonzero(owner == k),
                        estimate[k], goal[k])
        stopped |= over
        split &= ~stopped[owner]
        if not split.any():
            return np.where(t < s, -total, total)
        mid = 0.5 * (a[split] + b[split])
        c_a = np.column_stack((a[split], mid)).ravel()
        c_b = np.column_stack((mid, b[split])).ravel()
        c_value, c_error = rule(c_a, c_b)
        keep = ~split
        owner = np.concatenate((owner[keep], np.repeat(owner[split], 2)))
        a, b = np.concatenate((a[keep], c_a)), np.concatenate((b[keep], c_b))
        value = np.concatenate((value[keep], c_value))
        error = np.concatenate((error[keep], c_error))


def _curvature_bound(x, cell):
    """Per cell, a bound on ``|x''|`` along the last (sample) axis: the
    second divided differences at the samples, the larger at the cell's two
    ends, times a safety factor of 4."""
    slope = (x[..., 1:] - x[..., :-1]) / cell
    curve = 8.0 * np.abs(slope[..., 1:] - slope[..., :-1]) / (cell[:, 1:] + cell[:, :-1])
    curve = np.concatenate((curve[..., :1], curve, curve[..., -1:]), axis=-1)
    return np.maximum(curve[..., 1:], curve[..., :-1])


def _rises(g, K, cell, mask):
    """Per subinterval, a bound on the area by which ``g``, at most 0 at
    both ends of each cell of ``mask``, rises above 0 in between, where no
    sample sees it.

    With ``|g''| <= K`` (``_curvature_bound``), ``g`` is on a cell of width
    ``c`` at most the parabola of second derivative ``-K`` through its two
    ends.  Its vertex lies inside where the chord slope ``|m| < K c / 2``,
    at ``(g0 + g1) / 2 + K c^2 / 8 + m^2 / (2 K)``, and the area above 0 is
    at most that height times ``c``.  Only cells where the chord bound
    ``max(g0, g1) + K c^2 / 8`` reaches above 0 are worked out."""
    near = mask & (np.maximum(g[..., 1:], g[..., :-1]) > -K * cell**2 / 8.0)
    at = np.nonzero(near)
    s, c = at[-2:]
    if not s.size:
        return 0.0
    g0, g1, K, c = g[at], g[at[:-1] + (c + 1,)], K[at], cell[s, c]
    m = (g1 - g0) / c
    rise = K * c * c / 8.0 + m * m / (2.0 * K) + 0.5 * (g0 + g1)
    rise[~(np.abs(m) < 0.5 * K * c)] = 0.0
    return np.bincount(s, np.fmax(rise, 0.0) * c, cell.shape[0])


def _kink_brackets(samples, leaves, share):
    """The kinks bracketed in those cells of the subintervals ``leaves`` of
    one ``_gk15`` call whose kink bound alone exceeds the subinterval's
    ``share`` of the goal: each one's position in ``leaves`` and its
    arguments to ``_locate_kinks`` (``None`` when no cell qualifies).
    Smaller kinks are left to bisection, so columns tied to roundoff,
    which cost nothing, start no search.

    The brackets are the ones ``_gk15`` charges for: an entry of a column
    that is the max at either end of the cell changing sign (the entry
    minus the zero row), and the argmax moving from column ``a`` at the
    left sample to ``b`` at the right (``C_a - C_b``).  Their end values
    are the samples, so no evaluation is needed."""
    ts, M, cols, kinks, flips = samples
    half = 0.5 * (ts[leaves, -1] - ts[leaves, 0])
    s, c = np.nonzero(kinks[leaves] * _GK_KINK > (share / half)[:, None])
    if not s.size:
        return s, None
    leaf, m = leaves[s], s.size
    # Both ends of every hot cell: left ends in the first m columns.
    at = np.concatenate((leaf, leaf)), np.concatenate((c, c + 1))
    rows = _kink_rows(M[:, :, at[0], at[1]], cols[:, at[0], at[1]])
    n = M.shape[0]
    n2 = n * n
    sums = rows[n2:-1]
    peak = sums.max(axis=0)
    i, j, h = np.nonzero(flips[:, :, leaf, c])
    col = sums.argmax(axis=0)
    moved = np.flatnonzero(col[:m] != col[m:])
    h = np.concatenate((h, moved))
    p = np.concatenate((i * n + j, n2 + col[moved]))
    q = np.concatenate((np.full(i.size, n2 + n), n2 + col[m + moved]))
    return s[h], (ts[leaf[h], c[h]], ts[leaf[h], c[h] + 1],
                  rows[p, h] - rows[q, h], rows[p, h + m] - rows[q, h + m], p, q,
                  np.maximum(peak[h], peak[h + m]))


def _locate_kinks(matfun, a, b, fa, fb, p, q, scale):
    """The kink in each bracket ``[a, b]`` of the function row ``p`` minus
    row ``q`` of ``_kink_rows``, with values ``fa`` and ``fb`` of opposite
    sign, by the Illinois method: one vectorized secant step over all open
    brackets per evaluation of ``matfun``.

    Each bracket keeps its newest point and the end on the other side of
    the root.  Where a step keeps the same end as the step before, that
    end's weight in the secant is halved: this keeps the convergence
    superlinear where plain regula falsi would creep, and halving it on
    every step would make it bisection.  A bracket closes when the smaller
    of its two values is at most ``_KINK_FTOL * scale`` (a tie at a sample
    closes at once) or no float lies between its two points, and its kink
    is the point of smaller value."""
    roots = np.empty(a.size)
    at = np.arange(a.size)
    x0, x1, f0, f1 = a, b, fa, fb  # the kept end and the newest point
    w0 = f0  # the kept end's weight in the secant
    tol = _KINK_FTOL * scale
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(_KINK_ITER):
            # NaN compares false, so a non-finite value closes its bracket.
            open_ = (np.minimum(np.abs(f0), np.abs(f1)) > tol) & (np.nextafter(x1, x0) != x0)
            if not open_.all():
                done = ~open_
                roots[at[done]] = np.where(np.abs(f0[done]) < np.abs(f1[done]), x0[done], x1[done])
                if not open_.any():
                    return roots
                x0, x1, f0, f1, w0, p, q, tol, at = (
                    v[open_] for v in (x0, x1, f0, f1, w0, p, q, tol, at))
            x2 = (x0 * f1 - x1 * w0) / (f1 - w0)
            rows = _kink_rows(*_norm_samples(matfun, x2)[:2])
            k = np.arange(x2.size)
            f2 = rows[p, k] - rows[q, k]
            # Where the root lies between x1 and x2, x1 becomes the kept end;
            # elsewhere x0 is kept again, for the second time after step 0.
            turn = f2 * f1 < 0
            w0 = np.where(turn, f1, w0 * (0.5 if step else 1.0))
            x0, f0 = np.where(turn, x1, x0), np.where(turn, f1, f0)
            x1, f1 = x2, f2
    roots[at] = np.where(np.abs(f0) < np.abs(f1), x0, x1)
    return roots


def _children(p_lo, p_hi, at, cuts):
    """Split each parent ``[p_lo, p_hi]`` at the ``cuts`` with parent index
    ``at`` that lie inside it, apart from its ends and from each other by
    more than ``_KINK_GAP`` of its width; bisect a parent left with none.
    Returns each child's parent index and ends, in parent order and in
    time order within a parent."""
    margin = _KINK_GAP * (p_hi - p_lo)
    inside = (cuts > p_lo[at] + margin[at]) & (cuts < p_hi[at] - margin[at])
    at, cuts = at[inside], cuts[inside]
    order = np.lexsort((cuts, at))
    at, cuts = at[order], cuts[order]
    apart = np.ones(cuts.size, bool)
    apart[1:] = (cuts[1:] - cuts[:-1] > margin[at[1:]]) | (at[1:] != at[:-1])
    at, cuts = at[apart], cuts[apart]
    bare = np.flatnonzero(np.bincount(at, minlength=p_lo.size) == 0)
    parents = np.arange(p_lo.size)
    at = np.concatenate((parents, at, bare, parents))
    cuts = np.concatenate((p_lo, cuts, 0.5 * (p_lo[bare] + p_hi[bare]), p_hi))
    order = np.lexsort((cuts, at))
    at, cuts = at[order], cuts[order]
    same = at[1:] == at[:-1]
    return at[:-1][same], cuts[:-1][same], cuts[1:][same]


def _norm_integrals(matfun, name, pieces):
    """``integral_a^b |matfun(t)|_1 dt`` for every ``(a, b)`` of ``pieces``.

    All integrals refine together, level by level, and each level evaluates
    ``matfun`` once on the 17 samples of every new subinterval.  An integral
    is done when its summed error estimate is at most
    ``max(_NORM_TOL, _NORM_TOL * I)``; until then each of its subintervals
    whose estimate exceeds its width's share of that goal is refined.  As
    QUADPACK's ``qagp`` integrates between known breakpoints, a new
    subinterval is split at the kinks of the norm in its cells whose kink
    bound alone exceeds that share (``_kink_brackets``, located by
    ``_locate_kinks``).  On its children each kink then sits on an end,
    where ``_gk15`` charges it ~0, so they converge like a smooth
    integrand.  A subinterval with no such kink is bisected.  A child's
    estimate is the larger of its own and half of ``|K_parent - sum
    K_children|``.  Empty pieces are exactly 0.0, and a non-finite sample
    makes the integral ``inf`` at once, with no kink search.  When the
    kink splits would take the subintervals past ``_GK_LIMIT``, the level
    bisects instead, and when even that would, every integral still open
    stops with a warning.  A matrix of constant entries takes the closed
    form ``|M|_1 (b - a)``, with no sample and no level.
    """
    if all(expr.is_constant() for row in matfun.entries for expr in row):
        norm = norm1(matfun.eval(0.0))
        norm = norm if math.isfinite(norm) else math.inf
        return [norm * (b - a) if b > a else 0.0 for a, b in pieces]
    starts, ends = np.array(pieces, dtype=float).T
    width = ends - starts
    m = len(pieces)
    owner = np.flatnonzero(width > 0.0)
    lo, hi = starts[owner], ends[owner]
    value, error, samples = _gk15(matfun, lo, hi)
    # Every subinterval stays a leaf until it is split, so the sums over an
    # integral's leaves are its value and error estimate at every level.
    # The leaves of the last level come last, with their samples.
    while True:
        total = np.bincount(owner, value, m)
        estimate = np.bincount(owner, error, m)
        goal = np.maximum(_NORM_TOL, _NORM_TOL * total)
        # A non-finite total makes the goal inf or NaN, which closes it.
        open_ = estimate > goal
        if not open_.any():
            break
        share = goal[owner] * (hi - lo) / width[owner]
        split = open_[owner] & (error > share)
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
        parent = np.flatnonzero(split)
        # A leaf of an earlier level was not split when it was made, and
        # only the goal's roundoff can change that: it is bisected.
        first_new = owner.size - samples[0].shape[0]
        new = parent[parent >= first_new]
        at, brackets = _kink_brackets(samples, new - first_new, share[new])
        at += n_split - new.size
        p_lo, p_hi = lo[parent], hi[parent]
        cuts = p_lo[:0] if brackets is None else _locate_kinks(matfun, *brackets)
        c_at, c_lo, c_hi = _children(p_lo, p_hi, at, cuts)
        if owner.size - n_split + c_at.size > _GK_LIMIT:
            c_at, c_lo, c_hi = _children(p_lo, p_hi, at[:0], cuts[:0])
        c_value, c_error, samples = _gk15(matfun, c_lo, c_hi)
        drift = 0.5 * np.abs(value[parent] - np.bincount(c_at, c_value, n_split))
        keep = ~split
        owner = np.concatenate((owner[keep], owner[parent][c_at]))
        lo = np.concatenate((lo[keep], c_lo))
        hi = np.concatenate((hi[keep], c_hi))
        value = np.concatenate((value[keep], c_value))
        error = np.concatenate((error[keep], np.maximum(c_error, drift[c_at])))
    return np.where(np.isfinite(total), total, math.inf).tolist()


def hypothesis_check(system: SystemSpec) -> HypothesisReport:
    """Evaluate the integral invertibility bounds over one period."""
    grid = system.grid
    halves = []
    for k in range(system.p):
        halves += [(grid.times[k], grid.args[k]), (grid.args[k], grid.times[k + 1])]
    a_int = _norm_integrals(system.A, "A", halves)
    b_int = _norm_integrals(system.B, "B", halves)
    # A bound too large to represent is inf, which fails below.
    with np.errstate(over="ignore"):
        sp = [float(np.exp(v)) for v in a_int[0::2]]
        sm = [float(np.exp(v)) for v in a_int[1::2]]
        # nu is 0 wherever the integral of |B| is, even when sigma overflows.
        nup = [s * b if b else 0.0 for s, b in zip(sp, b_int[0::2])]
        num = [s * b if b else 0.0 for s, b in zip(sm, b_int[1::2])]
        sigma = max(a * b for a, b in zip(sp, sm))
    nu_plus_sup = max(nup)
    nu_minus_sup = max(num)
    # An infinite sigma (a non-finite or overflowing integral of |A|) fails.
    failed = [f"sigma = {sigma:.6g}"] if not math.isfinite(sigma) else []
    failed += [f"{name} = {nu:.6g} >= 1"
               for name, nu in (("nu+", nu_plus_sup), ("nu-", nu_minus_sup)) if not nu < 1.0]
    passed = not failed
    if failed:
        log.warning("invertibility bounds exceeded (%s); proceeding, anchors are checked directly",
                    ", ".join(failed))
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
