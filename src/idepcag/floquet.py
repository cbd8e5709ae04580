"""Monodromy matrix, Floquet multipliers and exponents, normal form.

The propagator over one period (the monodromy matrix) is assembled from the
cached interval operators; its eigenvalues are the Floquet multipliers, the
scaled principal logs of those are the Floquet exponents, and the principal
matrix logarithm produces the constant generator of the normal form

    X(t) = Q(t) exp(P t),     P = (1/omega) Log X(omega),

with ``Q`` nonsingular, piecewise smooth, and omega-periodic.  A real
variant ``(1/(2 omega)) Log X(omega)^2`` yields a real generator with a
2-omega-periodic factor.  Everything here is anchored at tau = 0 with
``t_0 = 0`` on the grid.

scipy.integrate is imported lazily, by ``closed_form_diagonal`` (through
``_quad_signed``) at its first call: that oracle keeps scipy's ``quad``
because its independence from the Magnus layer is its value, and no default
path calls it.  The Liouville row of ``structural_residuals`` integrates
``tr A`` with ``transition._trace_integrals``, so ``verify`` loads no
scipy.integrate either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    RealificationError,
    Spectrum,
    _expm_many,
    _logm,
    _require_invertible,
    eig,
    expm,
    logm_principal,
    logm_real_doubled,
    norm1,
)
from .model import SystemSpec
from .transition import (HypothesisReport, _branch_ends, _fresh_flows, _magnus_pass,
                         _monodromy_from_ends, _phi_j_e, _trace_integrals,
                         hypothesis_check, interval_operators)

__all__ = [
    "EXPONENTIALLY_STABLE",
    "UNBOUNDED",
    "PERIODIC_OMEGA",
    "PERIODIC_N_OMEGA",
    "BOUNDED_NON_PERIODIC",
    "MARGINAL_DEFECTIVE",
    "Verdict",
    "SpectralData",
    "FloquetReport",
    "NormalFormResiduals",
    "DiagonalClosedForm",
    "cauchy_matrix",
    "cauchy_matrix_left",
    "monodromy",
    "floquet_exponents",
    "classify",
    "floquet_P",
    "floquet_P_real",
    "q_factor",
    "verify_normal_form",
    "closed_form_diagonal",
    "periodic_solution_test",
    "ResidualCheck",
    "structural_residuals",
    "analyze",
]

EXPONENTIALLY_STABLE = "ExponentiallyStable"
UNBOUNDED = "Unbounded"
PERIODIC_OMEGA = "PeriodicOmega"
PERIODIC_N_OMEGA = "PeriodicNOmega"
BOUNDED_NON_PERIODIC = "BoundedNonPeriodic"
MARGINAL_DEFECTIVE = "MarginalDefective"

#: Half-width of the band around the unit circle treated as modulus one.
UNIT_BAND = 1e-8
#: Largest N probed when looking for an N-omega-periodic monodromy power.
N_MAX_DEFAULT = 64


@dataclass(frozen=True)
class Verdict:
    """Stability classification; ``n`` is set only for PeriodicNOmega."""

    kind: str
    n: int | None = None

    def __str__(self):
        return self.kind if self.n is None else f"{self.kind}({self.n})"


def _chain(system, k, x):
    """``X(t_r) x`` for ``r = 0..k``, stacked: the block ``x`` carried across
    the breakpoints by the cached ``IntervalOperators.period_step``."""
    dtype = np.result_type(float, x)
    steps = [o.period_step.astype(dtype) for o in interval_operators(system)]
    X = np.empty((k + 1,) + x.shape, dtype)
    X[0] = x
    # Past the float range the rows turn inf or NaN; _cauchy_many refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, k + 1):
            np.matmul(steps[(r - 1) % system.p], X[r - 1], out=X[r])
    return X


def _cauchy_many(system, ts, left=False, x=None):
    """``W(t, 0) x``, or the left limit ``W(t^-, 0) x`` where ``left`` (a flag
    or a per-time mask), for every time of ``ts``, stacked; ``x`` is an
    ``n``-row block, the identity by default.  Each row is the local factor
    ``E(t, zeta_j) E(t_j, zeta_j)^-1`` across the time's base interval j,
    read in one ``e_many`` call per interval, times ``X(t_k) x`` at its last
    breakpoint.  At a breakpoint the right limit is post-impulse (solutions
    are right-continuous) and the left limit is the end node of the
    interval before.  A row past the float range raises ``NumericalError``
    naming the first such time.
    """
    grid, p = system.grid, system.p
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if (left & (ts <= 0)).any():
        raise ValueError("left limits exist for t > 0 only")
    if (ts < 0).any():
        raise ValueError("cauchy_matrix is anchored at tau = 0; t must be >= 0")
    x = np.eye(system.n) if x is None else np.asarray(x)
    k, m, _ = grid.locate(ts)
    tk = grid.time_at(k)
    back = left & (k >= 1) & (np.abs(ts - tk) <= 1e-12 * np.maximum(1.0, np.abs(tk)))
    k = k - back
    j = k % p
    local = np.where(back, np.asarray(grid.times)[j + 1], ts - m * system.omega)
    X = _chain(system, int(k.max(initial=0)), x)
    out = np.empty((ts.size,) + X.shape[1:], dtype=X.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ops in enumerate(interval_operators(system)):
            at = np.flatnonzero(j == i)
            if at.size:
                # Periodicity brings the same local times back every period.
                phases, which = np.unique(local[at], return_inverse=True)
                out[at] = (ops.e_many(phases) @ ops.E_left_inv)[which] @ X[k[at]]
    bad = ~np.isfinite(out).reshape(ts.size, -1).all(axis=1)
    if bad.any():
        raise NumericalError(
            f"W(t, 0) is not finite at t = {float(ts[bad][0])!r}: it leaves the float range")
    return out


def cauchy_matrix(system: SystemSpec, t: float) -> np.ndarray:
    """Propagator ``W(t, 0)`` of the full impulsive system, ``W(0, 0) = I``:
    ``_cauchy_many`` of one time."""
    return _cauchy_many(system, [t])[0]


def cauchy_matrix_left(system: SystemSpec, t: float) -> np.ndarray:
    """Left limit ``W(t^-, 0)``; differs from ``cauchy_matrix`` only at
    breakpoints, where the final impulse factor is not yet applied."""
    return _cauchy_many(system, [t], left=True)[0]


def monodromy(system: SystemSpec) -> np.ndarray:
    """Monodromy matrix ``X(omega)``: one impulse-and-interval factor per
    breakpoint of the fundamental period."""
    return _chain(system, system.p, np.eye(system.n))[-1]


def _refined_monodromy(system):
    """``X(omega)`` as ``monodromy`` assembles it, from fresh Magnus passes
    over every branch at twice the steps the cache accepted there (one pass
    per distinct count); all ``inf`` if a pass is not finite."""
    n, grid, ops = system.n, system.grid, interval_operators(system)
    ends = _branch_ends(grid)
    # A branch's accepted steps: its cached nodes on its side of zeta.
    steps = np.array([np.count_nonzero((ops[j]._times - ops[j].zeta) * (end - ops[j].zeta) > 0)
                      for j, end in ends])
    zeta, end = np.array([(grid.args[j], end) for j, end in ends]).T
    top = np.empty((len(ends), n, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        for N in np.unique(steps):
            on = steps == N
            top[on] = _magnus_pass(system.A, system.B, zeta[on], end[on], 2 * N)[:, -1, :n]
    if not np.isfinite(top).all():
        return np.full((n, n), np.inf)
    return _monodromy_from_ends(system, ends, top[..., :n] + top[..., n:])


@dataclass(frozen=True)
class SpectralData:
    """Floquet multipliers with derived exponents.

    ``multipliers`` are the eigenvalues of X(omega) sorted by descending
    modulus then ascending argument; ``exponents`` are their scaled
    principal logs; ``lyapunov`` their real parts.
    """

    multipliers: np.ndarray
    exponents: np.ndarray
    lyapunov: np.ndarray
    spectrum: Spectrum


def floquet_exponents(X: np.ndarray, omega: float) -> SpectralData:
    """Multipliers rho_j of ``X`` and exponents ``(1/omega) Log rho_j``."""
    spectrum = eig(X)
    _require_invertible(X, spectrum)
    rho = spectrum.eigenvalues
    # Keep arguments on the principal branch (-pi, pi]: np.angle returns
    # exactly -pi for a negative real with negative-zero imaginary part.
    args = np.angle(rho)
    args = np.where(args == -np.pi, np.pi, args)
    exponents = (np.log(np.abs(rho)) + 1j * args) / omega
    return SpectralData(rho, exponents, exponents.real.copy(), spectrum)


def _unit_band_semisimple(X, rho):
    """True if every multiplier on the unit band is semisimple."""
    on_band = [z for z in rho if abs(abs(z) - 1.0) <= UNIT_BAND]
    scale = max(1.0, norm1(X))
    remaining = list(on_band)
    while remaining:
        z0 = remaining[0]
        cluster = [z for z in remaining if abs(z - z0) <= 1e-7 * scale]
        remaining = [z for z in remaining if abs(z - z0) > 1e-7 * scale]
        center = np.mean(cluster)
        sv = np.linalg.svd(X - center * np.eye(X.shape[0]), compute_uv=False)
        geometric = int(np.sum(sv <= 1e-7 * scale))
        if geometric < len(cluster):
            return False
    return True


def _periodic_power(X, tol):
    """Smallest ``n <= N_MAX_DEFAULT`` with ``norm1(X^n - I) <= tol``, or None."""
    ident = np.eye(X.shape[0])
    Xn = ident
    for n in range(1, N_MAX_DEFAULT + 1):
        Xn = Xn @ X
        if norm1(Xn - ident) <= tol:
            return n
    return None


def classify(multipliers: np.ndarray, X: np.ndarray, tol: float) -> Verdict:
    """Stability verdict from the multipliers and the monodromy matrix.

    Moduli strictly inside the unit circle give exponential decay; any
    modulus beyond it gives unbounded growth.  Multipliers on the unit
    band are resolved through powers of X (omega- or N-omega-periodic
    solutions), eigenvalue semisimplicity (bounded non-periodic), or
    flagged as marginal-defective, which the underlying theory does not
    cover.
    """
    mods = np.abs(multipliers)
    if np.any(mods > 1.0 + UNIT_BAND):
        return Verdict(UNBOUNDED)
    if np.all(mods < 1.0 - UNIT_BAND):
        return Verdict(EXPONENTIALLY_STABLE)
    n = _periodic_power(X, tol)
    if n == 1:
        return Verdict(PERIODIC_OMEGA)
    if n is not None:
        return Verdict(PERIODIC_N_OMEGA, n)
    if _unit_band_semisimple(X, multipliers):
        return Verdict(BOUNDED_NON_PERIODIC)
    return Verdict(MARGINAL_DEFECTIVE)


def is_oscillatory(multipliers: np.ndarray) -> bool:
    """Some exponent has a non-zero imaginary part (includes negative real
    multipliers, whose principal argument is pi)."""
    return bool(np.any(np.abs(np.angle(multipliers)) > UNIT_BAND))


def floquet_P(X: np.ndarray, omega: float) -> np.ndarray:
    """Normal-form generator ``P = (1/omega) Log X(omega)`` (principal)."""
    return logm_principal(X) / omega


def floquet_P_real(X: np.ndarray, omega: float) -> np.ndarray:
    """Real generator ``(1/(2 omega)) Log X(omega)^2``; requires real X."""
    return logm_real_doubled(X) / (2.0 * omega)


def _q_many(system, P, ts, left=False):
    """``Q(t) = W(t, 0) exp(-P t)`` for every time of ``ts``, read from the
    left limit ``W(t^-, 0)`` where ``left`` (a flag or a per-time mask),
    stacked: one ``_cauchy_many`` read, one stacked exponential."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    return _cauchy_many(system, ts, left) @ _expm_many(-P * ts[:, None, None])


def q_factor(system: SystemSpec, P: np.ndarray, t: float) -> np.ndarray:
    """Periodic factor ``Q(t) = W(t, 0) exp(-P t)``; ``Q(0) = I``."""
    return _q_many(system, P, [t])[0]


@dataclass(frozen=True)
class NormalFormResiduals:
    """Residuals of the normal form.

    ``q_equation`` is an absolute residual of the five-point finite
    difference of Q against its governing equation; compare it against
    thresholds scaled by ``q_equation_scale``.
    """

    period_factor: int
    expm_roundtrip: float
    q_equation: float
    q_equation_scale: float
    sample_times: tuple


_FD_STEP = 1e-5
# Interior sample times per base interval of the Q-equation residual.
_Q_SAMPLES = 4


def _interior_samples(system, per_interval):
    """``(times, js, steps)``: ``per_interval`` times in each base interval
    ``j``, evenly spaced between margins of 2% of its width, their ``j`` and
    their steps ``min(_FD_STEP, width / 400)``: each stencil ``t +- 2 step``
    lies inside its interval, at least 1.5% of the width from either end."""
    times = np.asarray(system.grid.times)
    left, width = times[:-1], np.diff(times)
    margin = 0.02 * width
    fracs = np.linspace(0.0, 1.0, per_interval + 2)[1:-1]
    samples = (left + margin)[:, None] + fracs * (width - 2.0 * margin)[:, None]
    return (samples.ravel(), np.arange(system.p).repeat(per_interval),
            np.minimum(_FD_STEP, width / 400.0).repeat(per_interval))


def _roundtrip(P, X, omega, factor=1):
    """Relative residual of ``expm(factor omega P) = X^factor``; raises
    ``NumericalError`` when ``X^factor`` leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        X_factor = np.linalg.matrix_power(X, factor)
    if not np.isfinite(X_factor).all():
        raise NumericalError(f"X(omega)^{factor} is not finite: it leaves the float range")
    return norm1(expm(P * (factor * omega)) - X_factor) / max(1.0, norm1(X_factor))


def verify_normal_form(
    system: SystemSpec,
    P: np.ndarray | None = None,
    real: bool = False,
) -> NormalFormResiduals:
    """Residuals of the normal form ``X(t) = Q(t) exp(P t)``: the relative
    residual of ``expm(factor omega P) = X(omega)^factor`` (``factor`` 2 for
    the real variant), and the finite-difference residual, at interior
    sample times, of the Q equation

        Q' = A Q - Q P + B Q(gamma) exp(P (gamma - t)).

    Report-only: nothing raises on a large residual, only on an
    ``X(omega)^factor`` past the float range.  ``Q`` is read in one
    ``_q_many`` call at every stencil point and every anchor.
    """
    return _normal_form_residuals(system, monodromy(system), P, real)


def _normal_form_residuals(system, X_omega, P, real):
    """``verify_normal_form`` of ``system``, whose monodromy is ``X_omega``,
    at the samples and steps of ``_interior_samples``."""
    omega = system.omega
    if P is None:
        P = floquet_P_real(X_omega, omega) if real else floquet_P(X_omega, omega)
    factor = 2 if real else 1
    ts, js, h = _interior_samples(system, _Q_SAMPLES)
    grid = system.grid
    gammas = np.asarray(grid.args)[js]
    # Column c of the stencil is t + (c - 2) h, so Q' is the five-point
    # central difference of its columns.
    stencil = ts[:, None] + np.arange(-2, 3) * h[:, None]
    # An anchor at its interval's right end is read before that breakpoint's
    # impulse: the equation needs the left limit there.
    left = np.concatenate((np.zeros(stencil.size, bool), gammas == np.asarray(grid.times)[js + 1]))
    Q = _q_many(system, P, np.concatenate((stencil.ravel(), gammas)), left)
    Q_stencil, Q_gammas = Q[:stencil.size].reshape(stencil.shape + Q.shape[1:]), Q[stencil.size:]
    dQs = ((Q_stencil[:, 0] - 8.0 * Q_stencil[:, 1] + 8.0 * Q_stencil[:, 3] - Q_stencil[:, 4])
           / (12.0 * h)[:, None, None])

    q_resid, q_scale = 0.0, 1.0
    lags = _expm_many(P * (gammas - ts)[:, None, None])
    for t, Q_t, dQ, q_gamma, lag in zip(ts, Q_stencil[:, 2], dQs, Q_gammas, lags):
        rhs = system.A.eval(t) @ Q_t - Q_t @ P + system.B.eval(t) @ q_gamma @ lag
        q_resid = max(q_resid, norm1(dQ - rhs))
        q_scale = max(q_scale, norm1(rhs))

    return NormalFormResiduals(factor, _roundtrip(P, X_omega, omega, factor), q_resid, q_scale,
                              tuple(ts))


def _quad_signed(f, lo, hi, **kw):
    """scipy's ``quad`` of ``f`` from ``lo`` to ``hi``, signed.  The oracle
    ``closed_form_diagonal`` is its only caller, so scipy.integrate is
    imported here, at first call, and not with the package."""
    from scipy.integrate import quad

    if lo == hi:
        return 0.0
    if hi < lo:
        return -quad(f, hi, lo, **kw)[0]
    return quad(f, lo, hi, **kw)[0]


@dataclass(frozen=True)
class DiagonalClosedForm:
    """Quadrature-only normal form for structurally diagonal systems.

    Every entry follows the scalar closed form: per-period ratios
    ``eta_r`` of ``1 + int exp(int a) b`` terms build the generator

        P_ii = (1/omega) (int_0^omega a_i + sum_r Log eta_{r,i}),

    and the same ratio anchored at the running interval gives Q(t).  Used
    as an independent oracle for the ODE-based pipeline.
    """

    system: SystemSpec
    P: np.ndarray
    eta: np.ndarray
    _int_a_period: np.ndarray
    _int_a: object
    _j_entry: object

    def Q(self, t: float) -> np.ndarray:
        _, m, j = self.system.grid.locate(t)
        grid = self.system.grid
        tb = min(max(t - m * self.system.omega, grid.times[j]), grid.times[j + 1])
        zeta, tj = grid.args[j], grid.times[j]
        vals = [
            self._j_entry(i, zeta, tb) / self._j_entry(i, zeta, tj)
            for i in range(self.system.n)
        ]
        return np.diag(np.asarray(vals, dtype=float))

    def X(self, t: float) -> np.ndarray:
        _, m, j = self.system.grid.locate(t)
        grid = self.system.grid
        tb = min(max(t - m * self.system.omega, grid.times[j]), grid.times[j + 1])
        log_eta = np.log(self.eta.astype(complex))
        expo = np.array(
            [
                m * self._int_a_period[i] + self._int_a(i, 0.0, tb)
                for i in range(self.system.n)
            ],
            dtype=complex,
        )
        expo += m * log_eta.sum(axis=0)
        if j > 0:
            expo += log_eta[:j].sum(axis=0)
        return self.Q(t).astype(complex) @ np.diag(np.exp(expo))


def closed_form_diagonal(system: SystemSpec) -> DiagonalClosedForm:
    """Closed-form generator and periodic factor for diagonal systems.

    Raises
    ------
    ValueError
        If A, B or some impulse matrix is not structurally diagonal.
    NumericalError
        If some ``1 + int exp(int a) b`` anchor vanishes (the same
        invertibility failure the ODE pipeline would hit).
    """
    if not system.is_diagonal():
        raise ValueError("closed_form_diagonal requires diagonal A, B and impulses")
    n, grid = system.n, system.grid
    a_exprs = [system.A.entries[i][i] for i in range(n)]
    b_funcs = [system.B.entries[i][i].evaluate for i in range(n)]
    a_const = [e.constant_value() if e.is_constant() else None for e in a_exprs]

    def int_a(i, lo, hi):
        if a_const[i] is not None:
            return a_const[i] * (hi - lo)
        return _quad_signed(a_exprs[i].evaluate, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)

    def j_entry(i, zeta, upto):
        value = _quad_signed(
            lambda s: math.exp(int_a(i, s, zeta)) * float(b_funcs[i](s)),
            zeta,
            upto,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        return 1.0 + value

    eta = np.empty((system.p, n), dtype=complex)
    for r in range(1, system.p + 1):
        zeta = grid.args[r - 1]
        for i in range(n):
            den = j_entry(i, zeta, grid.times[r - 1])
            num = j_entry(i, zeta, grid.times[r])
            if abs(den) <= 1e-12 or abs(num) <= 1e-12:
                raise NumericalError(
                    f"diagonal closed form: vanishing anchor on interval {r - 1}"
                )
            eta[r - 1, i] = (1.0 + system.impulses[r - 1][i, i]) * num / den

    int_a_period = np.array([int_a(i, 0.0, system.omega) for i in range(n)])
    log_eta = np.log(eta.astype(complex))
    P = np.diag((int_a_period + log_eta.sum(axis=0)) / system.omega)
    return DiagonalClosedForm(system, P, eta, int_a_period, int_a, j_entry)


def periodic_solution_test(system: SystemSpec):
    """Smallest N <= N_MAX_DEFAULT with ``X(omega)^N = I`` to the algebraic
    tolerance, or None."""
    return _periodic_power(monodromy(system), system.tolerances.alg)


@dataclass(frozen=True)
class FloquetReport:
    """Complete spectral analysis of one system."""

    n: int
    omega: float
    monodromy: np.ndarray
    multipliers: np.ndarray
    exponents: np.ndarray
    lyapunov: np.ndarray
    P: np.ndarray
    P_real: np.ndarray | None
    verdict: Verdict
    oscillatory: bool
    hypothesis: HypothesisReport
    residuals: dict

    def to_json_dict(self) -> dict:
        """Plain-data layout with complex numbers as [re, im] pairs."""
        cm = lambda M: [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(M)]
        cv = lambda v: [[float(z.real), float(z.imag)] for z in v]
        hyp = self.hypothesis
        return {
            "n": self.n,
            "omega": self.omega,
            "monodromy": cm(self.monodromy.astype(complex)),
            "multipliers": cv(self.multipliers),
            "exponents": cv(self.exponents),
            "lyapunov": [float(x) for x in self.lyapunov],
            "verdict": str(self.verdict),
            "oscillatory": self.oscillatory,
            "hypothesis": {
                "norm": hyp.norm,
                "sigma": hyp.sigma,
                "nu_plus": list(hyp.nu_plus),
                "nu_minus": list(hyp.nu_minus),
                "nu_plus_sup": hyp.nu_plus_sup,
                "nu_minus_sup": hyp.nu_minus_sup,
                "passed": hyp.passed,
                "j_bound_plus": hyp.j_bound_plus,
                "j_bound_minus": hyp.j_bound_minus,
            },
            "residuals": dict(self.residuals),
            "P": cm(self.P),
            "P_real": None if self.P_real is None else cm(self.P_real.astype(complex)),
        }


@dataclass(frozen=True)
class ResidualCheck:
    name: str
    value: float
    threshold: float
    passed: bool


def structural_residuals(system: SystemSpec, pairs: int = 2, seed: int = 20240802):
    """Verification suite: every structural identity, checked numerically.

    Biperiodicity of Phi/J/E and the cocycle and Liouville identities are
    evaluated by fresh integrations (not by the cached operators, which are
    periodic by construction), so a miscoupled period or a sloppy tolerance
    actually shows up.  All of them come from one batched integration over
    every ``(s, t)`` segment the checks need; the three biperiodicity checks
    share the segments ``(s, t)`` and ``(s + omega, t + omega)`` of a pair.
    The cocycle residual ``norm1(Phi(t, u) Phi(u, s) - Phi(t, s))`` is
    relative to ``max(1, norm1(Phi(t, s)))``, so an exact but fast-growing
    flow passes.  The Liouville row compares ``det Phi(t, s)`` with the
    exponential of ``integral_s^t tr A`` by the Gauss-Kronrod rule of
    ``transition._trace_integrals``, independent of the Magnus layer.
    ``monodromy_refined``, the relative gap between
    ``X(omega)`` and its reassembly at twice the cached step counts,
    estimates the truncation error of ``X(omega)`` and catches a corrupted
    operator cache.
    ``expm_p_roundtrip`` and ``q_equation`` are the two residuals of
    ``verify_normal_form`` on the principal generator, from the one
    assembly of ``X(omega)`` that ``monodromy_refined`` reads too.
    Returns an ordered list of ``ResidualCheck``.
    """
    omega = system.omega
    n = system.n
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, value, threshold):
        checks.append(ResidualCheck(name, float(value), threshold, bool(value <= threshold)))

    # One draw per check, in the order of the checks (the seed fixes them).
    pair = rng.uniform(0.0, omega, size=(pairs, 2))
    triple = np.sort(rng.uniform(0.0, omega, size=(pairs, 3)), axis=1)
    spans = np.sort(rng.uniform(0.0, omega, size=(pairs, 2)), axis=1)
    # (s, t) and (s, t) + omega; (u, t), (s, u) and (s, t) of s < u < t; (s, t).
    segments = np.stack((pair, pair + omega, triple[:, 1:], triple[:, :2], triple[:, ::2], spans))
    U = _fresh_flows(system, *segments.reshape(-1, 2).T).reshape(6, pairs, 2 * n, 2 * n)
    Phi = np.ascontiguousarray(U[..., :n, :n])

    names = ("biperiodicity_phi", "biperiodicity_j", "biperiodicity_e")
    worst = [0.0, 0.0, 0.0]
    for base, shifted in zip(U[0], U[1]):
        base, shifted = _phi_j_e(base[:n], n), _phi_j_e(shifted[:n], n)
        worst = [max(w, norm1(a - b)) for w, a, b in zip(worst, shifted, base)]
    for name, value in zip(names, worst):
        add(name, value, 1e-7)

    worst = 0.0
    for ut, su, st in zip(*Phi[2:5]):
        worst = max(worst, norm1(ut @ su - st) / max(1.0, norm1(st)))
    add("cocycle", worst, 1e-8)

    worst = 0.0
    for phi, integral in zip(Phi[5], _trace_integrals(system.A, spans)):
        expected = math.exp(integral)
        got = np.linalg.det(phi)
        worst = max(worst, abs(got - expected) / abs(expected))
    add("liouville", worst, 1e-8)

    X = monodromy(system)
    nf = _normal_form_residuals(system, X, None, False)
    add("expm_p_roundtrip", nf.expm_roundtrip, 1e-8)

    refined = norm1(_refined_monodromy(system) - X) / max(1.0, norm1(X))
    add("monodromy_refined", refined if math.isfinite(refined) else math.inf, 1e-8)

    add("q_equation", nf.q_equation / nf.q_equation_scale, 1e-5)
    return checks


def _spectral_core(system):
    """``(X, data, verdict, P, P_real)``: every step of ``analyze`` that can
    raise once the system has loaded.  ``P_real`` is None when the squared
    monodromy has no real logarithm."""
    X = monodromy(system)
    data = floquet_exponents(X, system.omega)
    verdict = classify(data.multipliers, X, system.tolerances.alg)
    P = _logm(X, data.spectrum) / system.omega
    try:
        P_real = _logm(X, data.spectrum, square=True) / (2.0 * system.omega)
    except RealificationError:
        P_real = None
    return X, data, verdict, P, P_real


def analyze(system: SystemSpec) -> FloquetReport:
    """Monodromy, multipliers, exponents, generators (``floquet_P`` and
    ``floquet_P_real``, both from the one spectrum) and stability verdict,
    with the invertibility bounds and the generator roundtrip residual
    ``expm_p_roundtrip``, as ``verify`` checks it."""
    X, data, verdict, P, P_real = _spectral_core(system)
    return FloquetReport(
        n=system.n,
        omega=system.omega,
        monodromy=X,
        multipliers=data.multipliers,
        exponents=data.exponents,
        lyapunov=data.lyapunov,
        P=P,
        P_real=P_real,
        verdict=verdict,
        oscillatory=is_oscillatory(data.multipliers),
        hypothesis=hypothesis_check(system),
        residuals={"expm_p_roundtrip": _roundtrip(P, X, system.omega)},
    )
