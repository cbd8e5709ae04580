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

from .expressions import ExpressionSyntaxError, binder, compile_lambda, parse_expression, to_source

__all__ = [
    "ValidationError",
    "Tolerances",
    "MatrixFunction",
    "ArgumentGrid",
    "SystemSpec",
    "gamma_at",
    "load_system",
    "load_system_file",
    "Template",
    "bundled_system_path",
    "load_bundled_system",
    "BUNDLED_SYSTEMS",
]

_PERIODICITY_SAMPLES = 200
_PERIODICITY_TOL = 1e-9
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
    function of ``t`` and the parameter ``p`` of a sweep template that
    returns the rows as nested tuples (see ``expressions.to_source``).  It
    performs the tree's own operations, so ``eval`` is bitwise equal to
    evaluating ``entries`` one by one.  ``_eval_many`` runs the same
    function on an array of times; per point it is bitwise equal too,
    except that numpy may round an integer power of an array differently
    from a scalar one, by at most one ulp.

    ``param`` is the value of ``p`` the function evaluates at;
    ``_eval_many`` also takes an array of values, which broadcasts against
    the times, for the systems of a batch.  The systems of a
    ``Template`` pass in the template's compiled function (``_rows``) and
    hold its entries with ``p`` bound to their value; no power has ``p`` in
    its base, so the two agree bit for bit.
    """

    n: int
    entries: tuple  # tuple of tuples of Expression
    period: float
    param: float = 0.0
    _rows: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._rows is None:
            object.__setattr__(self, "_rows", compile_lambda(_matrix_source(self.entries)))

    def __reduce__(self):
        # The compiled function is rebuilt from the entries on unpickling.
        return (MatrixFunction, (self.n, self.entries, self.period, self.param))

    def __call__(self, t):
        return self.eval(t)

    def eval(self, t: float) -> np.ndarray:
        return np.array(self._rows(t, self.param), dtype=float)

    def is_diagonal(self) -> bool:
        """True when every off-diagonal entry is structurally constant zero."""
        for i, row in enumerate(self.entries):
            for j, expr in enumerate(row):
                if i != j and not (expr.is_constant() and expr.constant_value() == 0.0):
                    return False
        return True

    def _eval_many(self, ts, param=None):
        """Entries at every time of the array ``ts``, shape ``(n, n) + ts.shape``,
        at ``self.param``, or at every value of the array ``param``, shape
        ``(n, n)`` plus the broadcast shape of ``ts`` and ``param``; constant
        entries broadcast."""
        if param is None:
            param, shape = self.param, ts.shape
        else:
            shape = np.broadcast(ts, param).shape
        out = np.empty((self.n, self.n) + shape)
        for i, row in enumerate(self._rows(ts, param)):
            for j, value in enumerate(row):
                out[i, j] = value
        return out

    def periodicity_defect(self) -> float:
        """Max entrywise |eval(t + period) - eval(t)| over
        ``_PERIODICITY_SAMPLES`` deterministic samples; ``inf`` if any
        sampled value is not finite."""
        return float(_defects(self)[0][0])


def _defects(mf, params=None):
    """``(defect, size)``: ``MatrixFunction.periodicity_defect`` of ``mf`` and
    its largest sampled entry ``max|M(t)|``, at every value of the array
    ``params`` of its parameter, from one evaluation (at its own value when
    ``params`` is None)."""
    rng = np.random.default_rng(20240801)
    ts = rng.uniform(0.0, mf.period, size=_PERIODICITY_SAMPLES)
    param = None if params is None else np.asarray(params, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            now = mf._eval_many(ts, param).reshape(mf.n, mf.n, -1, _PERIODICITY_SAMPLES)
            later = mf._eval_many(ts + mf.period, param).reshape(now.shape)
        except OverflowError:  # a power of Python floats, where numpy gives inf
            return np.full((2, 1 if params is None else len(params)), math.inf)
        gap = np.abs(later - now).max(axis=(0, 1, 3), initial=0.0)
    # A non-finite sample makes its gap inf or NaN.
    return np.where(np.isfinite(gap), gap, math.inf), np.abs(now).max(axis=(0, 1, 3), initial=0.0)


def _certificate_error(defect, size, path):
    """The ValidationError of a periodicity ``defect`` over the certificate's
    bound ``_PERIODICITY_TOL max(1, size)``, for the largest sampled entry
    ``size``, or None."""
    if defect == math.inf:
        return ValidationError("coefficients are not finite at every sampled time", path)
    if defect > _PERIODICITY_TOL * max(1.0, size):
        scaled = f" max|M(t)| = {_PERIODICITY_TOL * size:.3e}" if size > 1.0 else ""
        return ValidationError(
            f"periodicity certificate failed: max |M(t+omega) - M(t)| = {defect:.3e} "
            f"> {_PERIODICITY_TOL:.0e}{scaled}",
            path,
        )
    return None


def _matrix_function(raw, n, period, path, token=None):
    """The compiled ``MatrixFunction`` of the expression strings ``raw``, in
    which matches of the parameter ``token`` parse as ``Param``; certified by
    ``_Family.systems``."""
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
                row.append(parse_expression(text, token))
            except ExpressionSyntaxError as exc:
                raise ValidationError(str(exc), f"{path}[{i}][{j}]") from exc
        rows.append(tuple(row))
    try:
        return MatrixFunction(n, tuple(rows), period)
    except (RecursionError, SyntaxError) as exc:
        raise ValidationError("expressions nested too deeply to compile", path) from exc


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

    def locate(self, t):
        """Global interval data ``(k, m, j)`` of ``t``, with ``k = m*p + j``:
        ``time_at(k) <= t < time_at(k + 1)``, so a breakpoint of any period
        starts its interval.  ``m`` is the period shift and ``j`` the base
        interval index.  Elementwise, as integer arrays, for an array ``t``;
        a scalar ``t`` gives Python ints.

        ``t - m*omega`` can round across a breakpoint that ``time_at``
        computes as ``times[j] + m*omega``, so the interval found from it is
        moved by at most one to meet the bounds in ``time_at``'s arithmetic.
        """
        ts = np.asarray(t, dtype=float)
        # Written so that NaN, for which every comparison is false, raises.
        if not (np.abs(ts) < 2.0**53 * self.omega).all():
            raise ValueError("t must be finite and within 2**53 periods of 0")
        m = np.floor(ts / self.omega).astype(np.int64)
        k = m * self.p + np.searchsorted(self.times[1:-1], ts - m * self.omega, side="right")
        start, end = self.time_at(np.stack((k, k + 1)))
        k = k + (ts >= end) - (ts < start)
        m, j = np.divmod(k, self.p)
        if ts.ndim:
            return k, m, j
        return int(k), int(m), int(j)

    def gamma(self, t: float) -> float:
        """Argument value ``gamma(t) = zeta_{k(t)}``; see ``gamma_at``."""
        return gamma_at(self, t)[1]

    def time_at(self, k):
        """Global breakpoint ``t_k = times[j] + m*omega`` via the extension
        rule; elementwise for an integer array ``k``."""
        m, j = np.divmod(k, self.p)
        t = np.asarray(self.times)[j] + m * self.omega
        return t if np.ndim(t) else float(t)

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


def _number(value, path, finite=False):
    """``value`` as a float: a JSON number, not a bool, and finite if asked."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError("expected a number", path)
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if finite and not math.isfinite(value):
        raise ValidationError("expected a finite number", path)
    return value


def _require(doc, key, kind, path=""):
    if key not in doc:
        raise ValidationError("missing required field", f"{path}{key}")
    value = doc[key]
    if kind is float:
        return _number(value, f"{path}{key}")
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError("expected an integer", f"{path}{key}")
        return value
    if not isinstance(value, kind):
        raise ValidationError(f"expected {kind.__name__}", f"{path}{key}")
    return value


def _grid(doc):
    """``(n, grid)`` of the decoded document ``doc``."""
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
    times = [_number(v, f"times[{k}]", finite=True) for k, v in enumerate(times_raw)]
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
    args = [_number(v, f"args[{k}]", finite=True) for k, v in enumerate(args_raw)]
    for k in range(p):
        if not (times[k] <= args[k] <= times[k + 1]):
            raise ValidationError(
                f"zeta_{k} = {args[k]!r} outside [t_{k}, t_{k + 1}] = "
                f"[{times[k]!r}, {times[k + 1]!r}]",
                f"args[{k}]",
            )
    return n, ArgumentGrid(omega, p, tuple(times), tuple(args))


def _impulses(doc, n, p):
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
    return tuple(impulses)


def _tolerances(doc):
    tol_raw = doc.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ValidationError("expected an object", "tolerances")
    defaults = Tolerances()
    tol = {}
    for name in ("ode_abs", "ode_rel", "alg"):
        path = f"tolerances.{name}"
        tol[name] = _number(tol_raw.get(name, getattr(defaults, name)), path, finite=True)
        if tol[name] <= 0:
            raise ValidationError("tolerances must be positive", path)
    return Tolerances(**tol)


def _bound(mf, binders, value):
    """``mf`` at the parameter ``value``: its compiled function, and its
    entries with the parameter bound by their ``binders``."""
    entries = tuple(tuple(expr if bind is None else bind(value) for expr, bind in zip(*row))
                    for row in zip(mf.entries, binders))
    return MatrixFunction(mf.n, entries, mf.period, float(value), mf._rows)


class _Family:
    """A decoded system document, whose ``A`` and ``B`` may hold a parameter
    ``token``, checked once in every field the parameter does not reach;
    ``systems`` gives its systems at values of the parameter.

    The checks run in ``load_system``'s order.  One that fails up to the
    compilation of ``A`` raises.  One that fails after it (the structure
    of ``B``, the impulses, the tolerances) is kept as ``late``, for the
    systems that pass the periodicity certificates before it.  With a
    token, a ``B`` that does not parse or compile raises too, since its
    message could depend on the token's text.
    """

    def __init__(self, doc, token=None):
        self.n, self.grid = _grid(doc)
        n, omega = self.n, self.grid.omega
        self.A = _matrix_function(_require(doc, "A", list), n, omega, "A", token)
        self.B = self.late = None
        try:
            self.B = _matrix_function(_require(doc, "B", list), n, omega, "B", token)
            self.impulses = _impulses(doc, n, self.grid.p)
            self.tolerances = _tolerances(doc)
        except ValidationError as exc:
            if token is not None and self.B is None:
                raise
            self.late = exc
        # Per entry of A and of B, the binder of the parameter.
        self._binders = None if token is None else [
            [[binder(expr) for expr in row] for row in mf.entries] for mf in (self.A, self.B)]

    def systems(self, values=None):
        """The system at every value of the array ``values`` of the
        parameter, or the document's one system when ``values`` is None.
        In place of one that fails a check, the ValidationError of the first
        it fails: the certificate of ``A``, that of ``B``, then ``late``."""
        errors = [None] * (1 if values is None else len(values))
        for name, mf in (("A", self.A), ("B", self.B)):
            if mf is None:
                break
            for r, (defect, size) in enumerate(zip(*_defects(mf, values))):
                errors[r] = errors[r] or _certificate_error(defect, size, name)
        out = []
        for r, error in enumerate(errors):
            error = error or self.late
            if error is not None:
                out.append(error)
                continue
            A, B = self.A, self.B
            if values is not None:
                A, B = (_bound(mf, binders, values[r]) for mf, binders in zip((A, B), self._binders))
            out.append(SystemSpec(self.n, A, B, self.impulses, self.grid, self.grid.omega,
                                  self.tolerances))
        return out


def _decode(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("invalid JSON: arrays or objects nested too deeply") from exc


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
    (system,) = _Family(_decode(text)).systems()
    if isinstance(system, ValidationError):
        raise system
    return system


def _shared_family(text, token):
    """The ``_Family`` of the sweep template ``text`` with its parameter ``token``
    as a variable, or None where that could load another system than the
    substituted text: the token outside the expression strings of ``A`` and
    ``B``, or where it does not parse or compile as an atom (glued to a
    digit, a letter or ``.``, in an exponent or in a power's base)."""
    # Without escapes, every decoded string is the text's own, token for token.
    if "\\" in text:
        return None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    entries = [entry for key in ("A", "B") if isinstance(doc.get(key), list)
               for row in doc[key] if isinstance(row, list) for entry in row]
    found = sum(len(token.findall(entry)) for entry in entries if isinstance(entry, str))
    if found != len(token.findall(text)):
        return None
    try:
        return _Family(doc, token)
    except ValidationError:
        return None


class Template:
    """A sweep template: a system document whose text holds the parameter
    ``token`` (``expressions.param_token``).

    ``load(values)`` gives, for each value, what ``load_system`` gives for
    the text with every match of the token replaced by the value's
    ``%.17g`` text: the system, or in its place the ValidationError.  Where
    the token can be a variable (``_shared_family``), ``A`` and ``B`` parse
    and compile once, and ``load`` runs one periodicity certificate over all
    its values, each keeping its own defect.  Other templates, and
    non-finite values, load one substituted document per value.
    """

    def __init__(self, text, token):
        self.text, self.token = text, token
        self._family = _shared_family(text, token)

    @property
    def shape(self):
        """``(n, grid)`` of the systems that share the parse, or None where
        each value loads its own document."""
        family = self._family
        return None if family is None else (family.n, family.grid)

    def load(self, values):
        out = [None] * len(values)
        if self._family is not None:
            shared = np.flatnonzero(np.isfinite(values))
            if shared.size:
                for r, system in zip(shared, self._family.systems(np.asarray(values)[shared])):
                    out[r] = system
        for r, value in enumerate(values):
            if out[r] is None:
                try:
                    out[r] = load_system(self.token.sub(f"{value:.17g}", self.text))
                except ValidationError as exc:
                    out[r] = exc
        return out


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
