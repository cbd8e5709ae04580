"""System declarations: coefficient matrices, argument grid, impulses.

A system is

    x'(t) = A(t) x(t) + B(t) x(gamma(t)),   t != t_k,
    x(t_k) = (I + C_k) x(t_k^-),

with A, B omega-periodic matrix functions, gamma the step argument
``gamma(t) = zeta_k`` on ``[t_k, t_{k+1})``, and p impulses per period.
Only one fundamental period of the grid is stored; every global index
follows from ``t_{k+p} = t_k + omega`` and ``zeta_{k+p} = zeta_k + omega``,
which makes periodicity of the grid structurally exact.

All types here are immutable after loading and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import ExpressionSyntaxError, compile_lambda, parse_expression, to_source

__all__ = [
    "ValidationError",
    "Tolerances",
    "MatrixFunction",
    "ArgumentGrid",
    "SystemSpec",
    "gamma_at",
    "load_system",
    "load_system_file",
    "bundled_system_path",
    "load_bundled_system",
    "BUNDLED_SYSTEMS",
]

_PERIODICITY_SAMPLES = 200
_PERIODICITY_ATOL = 1e-9
_IMPULSE_DET_MIN = 1e-12
_GRID_ATOL = 1e-9


class ValidationError(ValueError):
    """A system document violates the schema or a model invariant.

    ``path`` points at the offending field, e.g. ``"A[0][1]"``.
    """

    def __init__(self, message, path=""):
        prefix = f"{path}: " if path else ""
        super().__init__(f"{prefix}{message}")
        self.path = path


@dataclass(frozen=True)
class Tolerances:
    ode_abs: float = 1e-10
    ode_rel: float = 1e-10
    alg: float = 1e-9


def _matrix_source(entries):
    """Source of the compiled rows function: the rows as a tuple of tuples."""
    src = [[to_source(expr) for expr in row] for row in entries]
    return "(" + "".join(f"({', '.join(row)},), " for row in src) + ")"


@dataclass(frozen=True)
class MatrixFunction:
    """n x n matrix of scalar expressions with a declared period.

    The entries are compiled once, at construction, into one Python
    function of ``t`` that returns the rows as nested tuples (see
    ``expressions.to_source``).  It performs the tree's own operations, so
    ``eval`` is bitwise equal to evaluating ``entries`` one by one.
    ``_eval_many`` runs the same function on an array of times; per point
    it is bitwise equal too, except that numpy may round an integer power
    of an array differently from a scalar one, by at most one ulp.
    """

    n: int
    entries: tuple  # tuple of tuples of Expression
    period: float
    _rows: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", compile_lambda(_matrix_source(self.entries)))

    def __reduce__(self):
        # The compiled function is rebuilt from the entries on unpickling.
        return (MatrixFunction, (self.n, self.entries, self.period))

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t: float) -> np.ndarray:
        return np.array(self._rows(t), dtype=float)

    def is_diagonal(self) -> bool:
        """True when every off-diagonal entry is structurally constant zero."""
        for i, row in enumerate(self.entries):
            for j, expr in enumerate(row):
                if i != j and not (expr.is_constant() and expr.constant_value() == 0.0):
                    return False
        return True

    def _eval_many(self, ts):
        """Entries at every time of the array ``ts``, shape ``(n, n) + ts.shape``;
        constant entries broadcast."""
        out = np.empty((self.n, self.n) + ts.shape)
        for i, row in enumerate(self._rows(ts)):
            for j, value in enumerate(row):
                out[i, j] = value
        return out

    def periodicity_defect(self, samples: int = _PERIODICITY_SAMPLES) -> float:
        """Max entrywise |eval(t + period) - eval(t)| over deterministic
        samples; ``inf`` if any sampled value is not finite."""
        rng = np.random.default_rng(20240801)
        ts = rng.uniform(0.0, self.period, size=samples)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                now = self._eval_many(ts)
                later = self._eval_many(ts + self.period)
            except OverflowError:  # a power of Python floats, where numpy gives inf
                return math.inf
        if not (np.isfinite(now).all() and np.isfinite(later).all()):
            return math.inf
        return float(np.abs(later - now).max(initial=0.0))


def _matrix_function(raw, n, period, path):
    if not (isinstance(raw, list) and len(raw) == n):
        raise ValidationError(f"expected {n} rows of expression strings", path)
    rows = []
    for i, raw_row in enumerate(raw):
        if not (isinstance(raw_row, list) and len(raw_row) == n):
            raise ValidationError(f"expected {n} entries", f"{path}[{i}]")
        row = []
        for j, text in enumerate(raw_row):
            if not isinstance(text, str):
                raise ValidationError("expected an expression string", f"{path}[{i}][{j}]")
            try:
                row.append(parse_expression(text))
            except ExpressionSyntaxError as exc:
                raise ValidationError(str(exc), f"{path}[{i}][{j}]") from exc
        rows.append(tuple(row))
    try:
        mf = MatrixFunction(n, tuple(rows), period)
    except (RecursionError, SyntaxError) as exc:
        raise ValidationError("expressions nested too deeply to compile", path) from exc
    defect = mf.periodicity_defect()
    if defect == math.inf:
        raise ValidationError("coefficients are not finite at every sampled time", path)
    if defect > _PERIODICITY_ATOL:
        raise ValidationError(
            f"periodicity certificate failed: max |M(t+omega) - M(t)| = {defect:.3e} "
            f"> {_PERIODICITY_ATOL:.0e}",
            path,
        )
    return mf


@dataclass(frozen=True)
class ArgumentGrid:
    """Breakpoints and argument values on one fundamental period.

    ``times`` holds ``t_0 = 0 < t_1 < ... < t_p = omega`` and ``args`` holds
    ``zeta_0, ..., zeta_{p-1}`` with ``t_k <= zeta_k <= t_{k+1}``.  Interval
    membership is half-open: t exactly at a breakpoint belongs to the new
    interval, matching right-continuity of solutions at impulse times.
    """

    omega: float
    p: int
    times: tuple
    args: tuple

    def locate(self, t: float) -> tuple[int, int, int]:
        """Global interval data for ``t``: ``(k, m, j)`` with ``k = m*p + j``.

        ``m`` is the period shift and ``j`` the base interval index, i.e.
        ``t - m*omega`` lies in ``[t_j, t_{j+1})``.
        """
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        m = math.floor(t / self.omega)
        r = t - m * self.omega
        while r < 0.0:
            m -= 1
            r = t - m * self.omega
        while r >= self.omega:
            m += 1
            r = t - m * self.omega
        j = int(np.searchsorted(self.times, r, side="right")) - 1
        j = min(max(j, 0), self.p - 1)
        return m * self.p + j, m, j

    def gamma(self, t: float) -> float:
        """Argument value ``gamma(t) = zeta_{k(t)}``; see ``gamma_at``."""
        return gamma_at(self, t)[1]

    def time_at(self, k: int) -> float:
        """Global breakpoint ``t_k`` via the extension rule."""
        m, j = divmod(k, self.p)
        return self.times[j] + m * self.omega

    def arg_at(self, k: int) -> float:
        """Global argument value ``zeta_k`` via the extension rule."""
        m, j = divmod(k, self.p)
        return self.args[j] + m * self.omega

    def breakpoints_between(self, t0: float, t1: float):
        """Global breakpoints in the open-closed window ``(t0, t1]``."""
        out = []
        k = self.locate(t0)[0] + 1
        while True:
            tk = self.time_at(k)
            if tk > t1 + 1e-15 * max(1.0, abs(t1)):
                break
            if tk > t0:
                out.append((k, tk))
            k += 1
        return out


def gamma_at(grid: ArgumentGrid, t: float) -> tuple[int, float]:
    """Interval index k(t) and argument value gamma(t) = zeta_{k(t)}."""
    k, m, j = grid.locate(t)
    return k, grid.args[j] + m * grid.omega


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """One omega-periodic impulsive system, validated and immutable.

    Identity semantics (``eq=False``): two loads of the same document are
    distinct objects with bitwise-identical behavior.
    """

    n: int
    A: MatrixFunction
    B: MatrixFunction
    impulses: tuple  # p matrices C_1..C_p, shape (n, n)
    grid: ArgumentGrid
    omega: float
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def p(self) -> int:
        return self.grid.p

    def impulse_factor(self, r: int) -> np.ndarray:
        """``I + C_r`` for a global impulse index r >= 1 (cyclic in r)."""
        C = self.impulses[(r - 1) % self.p]
        return np.eye(self.n) + C

    def is_diagonal(self) -> bool:
        if not (self.A.is_diagonal() and self.B.is_diagonal()):
            return False
        return all(
            np.abs(C - np.diag(np.diag(C))).max() == 0.0 for C in self.impulses
        )


def _require(doc, key, kind, path=""):
    if key not in doc:
        raise ValidationError("missing required field", f"{path}{key}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError("expected a number", f"{path}{key}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError("expected an integer", f"{path}{key}")
        return value
    if not isinstance(value, kind):
        raise ValidationError(f"expected {kind.__name__}", f"{path}{key}")
    return value


def load_system(text: str) -> SystemSpec:
    """Parse and validate a JSON system document.

    See the README for the schema: fields ``n``, ``omega``, ``p``,
    ``times`` (length p+1, starting at 0 and ending at omega), ``args``
    (length p), ``A`` and ``B`` (n x n expression strings), ``impulses``
    (p numeric n x n matrices), optional ``tolerances``.

    Raises
    ------
    ValidationError
        On schema violations, a non-invertible ``I + C_k``, a failed
        periodicity certificate, or a malformed grid; the message carries
        the offending field path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document root must be an object")

    n = _require(doc, "n", int)
    if n < 1:
        raise ValidationError("dimension must be positive", "n")
    omega = _require(doc, "omega", float)
    if not (omega > 0 and math.isfinite(omega)):
        raise ValidationError("period must be positive and finite", "omega")
    p = _require(doc, "p", int)
    if p < 1:
        raise ValidationError("impulse count must be positive", "p")

    times_raw = _require(doc, "times", list)
    if len(times_raw) != p + 1:
        raise ValidationError(f"expected {p + 1} breakpoints", "times")
    times = [float(v) for v in times_raw]
    if abs(times[0]) > 0.0:
        raise ValidationError("first breakpoint must be 0", "times[0]")
    for k in range(p):
        if not times[k] < times[k + 1]:
            raise ValidationError("breakpoints must be strictly increasing", f"times[{k + 1}]")
    # The extension rule t_{k+p} = t_k + omega applied at k=0 pins t_p = omega.
    if abs(times[p] - omega) > _GRID_ATOL * max(1.0, omega):
        raise ValidationError(
            f"last breakpoint must close the period at omega = {omega!r}", f"times[{p}]"
        )
    times[p] = omega

    args_raw = _require(doc, "args", list)
    if len(args_raw) != p:
        raise ValidationError(f"expected {p} argument values", "args")
    args = [float(v) for v in args_raw]
    for k in range(p):
        if not (times[k] <= args[k] <= times[k + 1]):
            raise ValidationError(
                f"zeta_{k} = {args[k]!r} outside [t_{k}, t_{k + 1}] = "
                f"[{times[k]!r}, {times[k + 1]!r}]",
                f"args[{k}]",
            )

    grid = ArgumentGrid(omega, p, tuple(times), tuple(args))

    A = _matrix_function(_require(doc, "A", list), n, omega, "A")
    B = _matrix_function(_require(doc, "B", list), n, omega, "B")

    impulses_raw = _require(doc, "impulses", list)
    if len(impulses_raw) != p:
        raise ValidationError(f"expected {p} impulse matrices", "impulses")
    impulses = []
    for k, raw in enumerate(impulses_raw):
        try:
            C = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError("expected a numeric matrix", f"impulses[{k}]") from exc
        if C.shape != (n, n):
            raise ValidationError(f"expected shape ({n}, {n})", f"impulses[{k}]")
        if not np.all(np.isfinite(C)):
            raise ValidationError("entries must be finite", f"impulses[{k}]")
        d = np.linalg.det(np.eye(n) + C)
        if abs(d) <= _IMPULSE_DET_MIN:
            raise ValidationError(
                f"I + C_{k + 1} is not invertible (|det| = {abs(d):.3e})",
                f"impulses[{k}]",
            )
        C.setflags(write=False)
        impulses.append(C)

    tol_raw = doc.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ValidationError("expected an object", "tolerances")
    defaults = Tolerances()
    tol = Tolerances(
        ode_abs=float(tol_raw.get("ode_abs", defaults.ode_abs)),
        ode_rel=float(tol_raw.get("ode_rel", defaults.ode_rel)),
        alg=float(tol_raw.get("alg", defaults.alg)),
    )
    for name in ("ode_abs", "ode_rel", "alg"):
        if getattr(tol, name) <= 0:
            raise ValidationError("tolerances must be positive", f"tolerances.{name}")

    return SystemSpec(n, A, B, tuple(impulses), grid, omega, tol)


def load_system_file(path) -> SystemSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return load_system(handle.read())


BUNDLED_SYSTEMS = (
    "scalar_impulse",
    "sin_impulse",
    "rotation_2x2",
    "markus_yamabe",
)

# Sweep templates ship alongside the systems but are not loadable as-is.
BUNDLED_TEMPLATES = ("scalar_table_template",)


def bundled_system_path(name: str):
    """Filesystem path of a bundled example document or sweep template."""
    from importlib.resources import files

    if name not in BUNDLED_SYSTEMS + BUNDLED_TEMPLATES:
        raise KeyError(
            f"unknown bundled system {name!r}; choose from "
            f"{BUNDLED_SYSTEMS + BUNDLED_TEMPLATES}"
        )
    return files("idepcag").joinpath("systems", f"{name}.json")


def load_bundled_system(name: str) -> SystemSpec:
    return load_system(bundled_system_path(name).read_text(encoding="utf-8"))
