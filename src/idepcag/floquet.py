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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .linalg import (
    NumericalError,
    RealificationError,
    Spectrum,
    eig,
    expm,
    inv,
    logm_principal,
    logm_real_doubled,
    norm1,
)
from .model import SystemSpec
from .transition import HypothesisReport, hypothesis_check, interval_operators

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


def _interval_step(system, r):
    """``W(t_r, t_{r-1})`` across base interval r-1 (shift-invariant)."""
    ops = interval_operators(system)[(r - 1) % system.p]
    return ops.E_right @ ops.E_left_inv


def _discrete_state(system, k):
    """``X(t_k)`` (post-impulse) for a global breakpoint index k >= 0."""
    X = np.eye(system.n)
    for r in range(1, k + 1):
        X = system.impulse_factor(r) @ _interval_step(system, r) @ X
    return X


def cauchy_matrix(system: SystemSpec, t: float) -> np.ndarray:
    """Propagator ``W(t, 0)`` of the full impulsive system, ``W(0, 0) = I``.

    Product form: the local factor across the current interval times one
    impulse-and-interval factor per crossed breakpoint, accumulated
    left-multiplicatively.  At a breakpoint the returned value is the
    post-impulse one (solutions are right-continuous).
    """
    if t < 0:
        raise ValueError("cauchy_matrix is anchored at tau = 0; t must be >= 0")
    k, m, j = system.grid.locate(t)
    ops = interval_operators(system)[j]
    shift = m * system.omega
    local = ops.e_at(t - shift) @ ops.E_left_inv
    return local @ _discrete_state(system, k)


def _is_breakpoint(system, t, k):
    tk = system.grid.time_at(k)
    return abs(t - tk) <= 1e-12 * max(1.0, abs(tk))


def cauchy_matrix_left(system: SystemSpec, t: float) -> np.ndarray:
    """Left limit ``W(t^-, 0)``; differs from ``cauchy_matrix`` only at
    breakpoints, where the final impulse factor is not yet applied."""
    if t <= 0:
        raise ValueError("left limits exist for t > 0 only")
    k, _, _ = system.grid.locate(t)
    if k >= 1 and _is_breakpoint(system, t, k):
        return _interval_step(system, k) @ _discrete_state(system, k - 1)
    return cauchy_matrix(system, t)


def monodromy(system: SystemSpec) -> np.ndarray:
    """Monodromy matrix ``X(omega)``: one impulse-and-interval factor per
    breakpoint of the fundamental period."""
    return _discrete_state(system, system.p)


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
    rho = spectrum.eigenvalues
    if np.min(np.abs(rho)) <= 1e-14 * max(1.0, norm1(X)):
        raise NumericalError(
            "singular monodromy matrix: multipliers must be non-zero"
        )
    # Keep arguments on the principal branch (-pi, pi]: np.angle returns
    # exactly -pi for a negative real with negative-zero imaginary part.
    args = np.angle(rho)
    args = np.where(args == -np.pi, np.pi, args)
    exponents = (np.log(np.abs(rho)) + 1j * args) / omega
    return SpectralData(rho, exponents, exponents.real.copy(), spectrum)


def _unit_band_semisimple(X, rho, band):
    """True if every multiplier on the unit band is semisimple."""
    on_band = [z for z in rho if abs(abs(z) - 1.0) <= band]
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


def _periodic_power(X, tol, n_max):
    """Smallest ``n <= n_max`` with ``norm1(X^n - I) <= tol``, or None."""
    ident = np.eye(X.shape[0])
    Xn = ident
    for n in range(1, n_max + 1):
        Xn = Xn @ X
        if norm1(Xn - ident) <= tol:
            return n
    return None


def classify(
    multipliers: np.ndarray,
    X: np.ndarray,
    tol: float,
    band: float = UNIT_BAND,
    n_max: int = N_MAX_DEFAULT,
) -> Verdict:
    """Stability verdict from the multipliers and the monodromy matrix.

    Moduli strictly inside the unit circle give exponential decay; any
    modulus beyond it gives unbounded growth.  Multipliers on the unit
    band are resolved through powers of X (omega- or N-omega-periodic
    solutions), eigenvalue semisimplicity (bounded non-periodic), or
    flagged as marginal-defective, which the underlying theory does not
    cover.
    """
    mods = np.abs(multipliers)
    if np.any(mods > 1.0 + band):
        return Verdict(UNBOUNDED)
    if np.all(mods < 1.0 - band):
        return Verdict(EXPONENTIALLY_STABLE)
    n = _periodic_power(X, tol, max(n_max, 1))
    if n == 1:
        return Verdict(PERIODIC_OMEGA)
    if n is not None:
        return Verdict(PERIODIC_N_OMEGA, n)
    if _unit_band_semisimple(X, multipliers, band):
        return Verdict(BOUNDED_NON_PERIODIC)
    return Verdict(MARGINAL_DEFECTIVE)


def is_oscillatory(multipliers: np.ndarray, atol: float = UNIT_BAND) -> bool:
    """Some exponent has a non-zero imaginary part (includes negative real
    multipliers, whose principal argument is pi)."""
    return bool(np.any(np.abs(np.angle(multipliers)) > atol))


def floquet_P(X: np.ndarray, omega: float) -> np.ndarray:
    """Normal-form generator ``P = (1/omega) Log X(omega)`` (principal)."""
    return logm_principal(X) / omega


def floquet_P_real(X: np.ndarray, omega: float) -> np.ndarray:
    """Real generator ``(1/(2 omega)) Log X(omega)^2``; requires real X."""
    return logm_real_doubled(X) / (2.0 * omega)


def q_factor(system: SystemSpec, P: np.ndarray, t: float) -> np.ndarray:
    """Periodic factor ``Q(t) = W(t, 0) exp(-P t)``; ``Q(0) = I``."""
    return cauchy_matrix(system, t) @ expm(-P * t)


@dataclass(frozen=True)
class NormalFormResiduals:
    """Max-norm residuals of the factorization identities over samples.

    ``q_equation`` is an absolute residual of the five-point finite
    difference of Q against its governing equation; compare it against
    thresholds scaled by ``q_equation_scale``.
    """

    period_factor: int
    factorization: float
    q_periodicity: float
    impulse_consistency: float
    q_equation: float
    q_equation_scale: float
    reduction: float
    sample_times: tuple


_FD_STEP = 1e-5


def _fd5(f, t, h):
    return (f(t - 2 * h) - 8.0 * f(t - h) + 8.0 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


def _interior_samples(system, per_interval):
    """Sample times inside each base interval, clear of the breakpoints."""
    grid = system.grid
    out = []
    for j in range(system.p):
        left, right = grid.times[j], grid.times[j + 1]
        margin = max(4.0 * _FD_STEP, 0.02 * (right - left))
        fracs = np.linspace(0.0, 1.0, per_interval + 2)[1:-1]
        for f in fracs:
            out.append(left + margin + f * (right - left - 2.0 * margin))
    return tuple(out)


def verify_normal_form(
    system: SystemSpec,
    P: np.ndarray | None = None,
    samples: int = 4,
    real: bool = False,
) -> NormalFormResiduals:
    """Residual report for the factorization and reduction identities.

    Checks, over interior sample times and the period's breakpoints:
    ``X(t+omega) = X(t) X(omega)``; periodicity of Q (2 omega for the real
    variant); the impulse consistency ``Q(t_k) = (I+C_k) Q(t_k^-)``; the
    finite-difference residual of the Q equation

        Q' = A Q - Q P + B Q(gamma) exp(P (gamma - t));

    and the reduction residual of ``Y = Q^{-1} X`` against ``Y' = P Y``.
    Report-only: nothing raises on a large residual.

    ``W``, ``Q``, the left limit of ``Q`` and ``Y`` are computed once per
    distinct time within one call: the stencils, the samples and the
    impulse checks share times.
    """
    omega = system.omega
    X_omega = monodromy(system)
    if P is None:
        P = floquet_P_real(X_omega, omega) if real else floquet_P(X_omega, omega)
    factor = 2 if real else 1
    ts = _interior_samples(system, samples)

    W = functools.cache(lambda u: cauchy_matrix(system, u))
    Q = functools.cache(lambda u: W(u) @ expm(-P * u))
    Q_left = functools.cache(lambda u: cauchy_matrix_left(system, u) @ expm(-P * u))
    Y = functools.cache(lambda u: inv(Q(u)) @ W(u))

    factorization = max(norm1(W(t + omega) - W(t) @ X_omega) for t in ts)
    q_periodicity = max(norm1(Q(t + factor * omega) - Q(t)) for t in ts)

    impulse = 0.0
    for k in range(1, system.p + 1):
        tk = system.grid.times[k]
        jump = Q(tk) - system.impulse_factor(k) @ Q_left(tk)
        impulse = max(impulse, norm1(jump))

    h = _FD_STEP
    grid = system.grid
    q_resid = 0.0
    q_scale = 1.0
    reduction = 0.0
    for t in ts:
        dQ = _fd5(Q, t, h)
        _, m, j = grid.locate(t)
        gamma = grid.args[j] + m * omega
        # An anchor at the interval's right end is read before that
        # breakpoint's impulse: the equation needs the left limit there.
        q_gamma = Q_left(gamma) if grid.args[j] == grid.times[j + 1] else Q(gamma)
        rhs = (
            system.A.eval(t) @ Q(t)
            - Q(t) @ P
            + system.B.eval(t) @ q_gamma @ expm(P * (gamma - t))
        )
        q_resid = max(q_resid, norm1(dQ - rhs))
        q_scale = max(q_scale, norm1(rhs))
        reduction = max(reduction, norm1(_fd5(Y, t, h) - P @ Y(t)))

    return NormalFormResiduals(
        period_factor=factor,
        factorization=factorization,
        q_periodicity=q_periodicity,
        impulse_consistency=impulse,
        q_equation=q_resid,
        q_equation_scale=q_scale,
        reduction=reduction,
        sample_times=ts,
    )


def _quad_signed(f, lo, hi, **kw):
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


def periodic_solution_test(system: SystemSpec, n_max: int = N_MAX_DEFAULT):
    """Smallest N <= n_max with ``X(omega)^N = I`` to the algebraic
    tolerance, or None."""
    return _periodic_power(monodromy(system), system.tolerances.alg, n_max)


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
    actually shows up.  The three biperiodicity checks share one Phi/J/E
    integration at ``(s, t)`` and one at ``(s + omega, t + omega)`` per
    pair.  Returns an ordered list of ``ResidualCheck``.
    """
    from .transition import _flow_matrices, fundamental_matrix

    omega = system.omega
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, value, threshold):
        checks.append(ResidualCheck(name, float(value), threshold, bool(value <= threshold)))

    names = ("biperiodicity_phi", "biperiodicity_j", "biperiodicity_e")
    worst = [0.0, 0.0, 0.0]
    for _ in range(pairs):
        s, t = rng.uniform(0.0, omega, size=2)
        base = _flow_matrices(system, s, t)
        shifted = _flow_matrices(system, s + omega, t + omega)
        worst = [max(w, norm1(a - b)) for w, a, b in zip(worst, shifted, base)]
    for name, value in zip(names, worst):
        add(name, value, 1e-7)

    worst = 0.0
    for _ in range(pairs):
        s, u, t = np.sort(rng.uniform(0.0, omega, size=3))
        prod = fundamental_matrix(system, u, t) @ fundamental_matrix(system, s, u)
        worst = max(worst, norm1(prod - fundamental_matrix(system, s, t)))
    add("cocycle", worst, 1e-8)

    worst = 0.0
    for _ in range(pairs):
        s, t = np.sort(rng.uniform(0.0, omega, size=2))
        expected = math.exp(
            _quad_signed(
                lambda u: float(np.trace(system.A.eval(u))), s, t,
                epsabs=1e-12, epsrel=1e-12, limit=400,
            )
        )
        got = np.linalg.det(fundamental_matrix(system, s, t))
        worst = max(worst, abs(got - expected) / abs(expected))
    add("liouville", worst, 1e-8)

    X = monodromy(system)
    P = floquet_P(X, omega)
    for name, value in _spectral_residuals(system, X, floquet_exponents(X, omega), P).items():
        add(name, value, 1e-8)

    nf = verify_normal_form(system, P=P)
    add("factorization", nf.factorization, 1e-6)
    add("q_periodicity", nf.q_periodicity, 1e-6)
    add("impulse_consistency", nf.impulse_consistency, 1e-6)
    add("q_equation", nf.q_equation / nf.q_equation_scale, 1e-5)
    add("reduction", nf.reduction, 1e-6)
    return checks


def _spectral_residuals(system, X, data, P):
    """Relative residuals of ``X = W(omega, 0)``, ``det X = prod rho`` and
    ``expm(P omega) = X``, as ``analyze`` reports and ``verify`` checks them."""
    det_X = np.linalg.det(X.astype(complex))
    return {
        "monodromy_vs_cauchy": norm1(X - cauchy_matrix(system, system.omega)) / max(1.0, norm1(X)),
        "det_vs_multipliers": abs(np.prod(data.multipliers) - det_X) / max(abs(det_X), 1e-300),
        "expm_p_roundtrip": norm1(expm(P * system.omega) - X) / max(1.0, norm1(X)),
    }


def analyze(system: SystemSpec, n_max: int = N_MAX_DEFAULT) -> FloquetReport:
    """Monodromy, multipliers, exponents, generator and stability verdict."""
    X = monodromy(system)
    data = floquet_exponents(X, system.omega)
    verdict = classify(data.multipliers, X, system.tolerances.alg, n_max=n_max)
    P = floquet_P(X, system.omega)
    try:
        P_real = floquet_P_real(X, system.omega)
    except RealificationError:
        P_real = None
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
        residuals=_spectral_residuals(system, X, data, P),
    )
