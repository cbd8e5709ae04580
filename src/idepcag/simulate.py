"""Trajectory generation, by operator products and by direct integration.

``solve_cauchy`` propagates with the cached transition operators (the same
Magnus machinery that builds the monodromy matrix).  ``solve_direct`` is a
deliberately independent oracle, in method as well as in formulation: it
is the package's only user of scipy's DOP853 stepper, and per interval it
resolves the value at the argument anchor by a linear solve against ``J``
(this is what makes the advanced argument well posed), then integrates the
resulting inhomogeneous state ODE, not the matrix operators, and applies
the impulse at the right endpoint.

Output grids always include every breakpoint in range with a paired
left-limit / post-impulse record, so consumers can plot the jumps
faithfully.  Both solvers fill the same record layout (``_layout``): one
sorted merge of the initial row, the samples and the breakpoint pairs.
``solve_cauchy`` is one ``W(t, 0) x0`` read of ``floquet._cauchy_many`` at
every record time: the dense output is read once per distinct local time
(periodicity brings the same phases back every period), and left limits at
their end nodes.
``Trajectory.write_csv`` formats all cells with a vectorized ``%.12e``
kernel that hands the few cells it cannot prove exact to Python's
formatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .floquet import _cauchy_many
from .linalg import NumericalError, solve
from .model import SystemSpec
from .transition import _RTOL_FLOOR

__all__ = ["Trajectory", "solve_cauchy", "solve_direct", "max_discrepancy"]

KIND_SAMPLE = "sample"
KIND_LEFT = "left_limit"
KIND_POST = "post_impulse"
_KINDS = np.array([KIND_SAMPLE, KIND_LEFT, KIND_POST], dtype=object)
#: Most float cells formatted per block of CSV rows.
_CSV_BLOCK = 2**13
#: Most records a trajectory may ask for.  A longer horizon is refused
#: before the schedule is built, which holds every sample and breakpoint.
MAX_RECORDS = 10**7

# '%.12e' of a double has at most 20 characters ('-1.797693134862e+308').
# A cell is six 4-byte words: comma, sign, lead digit and point; three
# groups of four digits; 'e', exponent sign and two digits; spare.
_CELL = 24
_POW10 = np.array([float(10**k) for k in range(23)])  # all exact doubles
_HEADS = np.frombuffer(b"".join(b",-%d." % d for d in range(10)), dtype=np.uint32)
_DIGITS4 = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-10, 23)), dtype=np.uint32)
_SHOW = np.frombuffer(bytes([1, 1, 1, 1, 1, 0, 1, 1]), dtype=np.uint32)  # all; all but byte 1


def _format_cells(x):
    """``'%.12e' % v`` of every float of the 1-D array ``x``, each with a
    comma in front: bytes ``(x.size, _CELL)`` and the mask of those that
    belong to the text.

    Exactness.  For ``1e-10 <= |v| < 1e23`` take ``e = floor(log10|v|)``,
    clipped to ``[-10, 22]``, and ``q = |v| 10^(12-e)`` (or ``|v| / 10^(e-12)``).
    Every ``10^k`` with ``k <= 22`` is a double, so ``q`` is the exact
    ``q* = |v| 10^(12-e)`` rounded once, which below ``2^44 > 10^13`` is an
    error of at most ``2^-10``.  When ``q >= 10^12``, ``rint(q) < 10^13`` and
    ``frac(q)`` lies more than ``2^-9`` from 1/2, ``q*`` is more than
    ``2^-10`` from a half-integer, so ``rint(q)`` is the correctly rounded
    13-digit significand of ``|v|`` at exponent ``e`` and ``%.12e`` prints
    those digits.  That holds even when ``log10`` misjudged ``e`` by one:
    a ``q*`` of ``10^13`` or more fails the second test, and one in
    ``[10^12 - 2^-10, 10^12)`` prints as ``1.000000000000e+e`` either way.
    Zeros are ``0.000000000000e+00`` with their sign.  Every other cell
    (subnormal, non-finite, out of range or within ``2^-9`` of a tie) is
    formatted by Python; on trajectory data such cells are rare.
    """
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e23)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.where(fast, np.floor(np.log10(a)), 0.0)
        e = np.clip(e, -10, 22).astype(np.intp)
        scale = _POW10[np.abs(12 - e)]
        q = np.where(e <= 12, a * scale, a / scale)
        d = np.rint(q)
        fast &= (q >= 1e12) & (d < 1e13) & (np.abs(q - np.floor(q) - 0.5) > 2.0**-9)
    fast |= a == 0.0
    digits = np.where(fast, d, 0.0).astype(np.int64)
    lead = digits // 10**8  # the first five digits
    tail = digits - lead * 10**8  # the last eight
    words = np.empty((x.size, _CELL // 4), dtype=np.uint32)
    words[:, 0] = _HEADS[lead // 10**4]
    words[:, 1] = _DIGITS4[lead - lead // 10**4 * 10**4]
    words[:, 2] = _DIGITS4[tail // 10**4]
    words[:, 3] = _DIGITS4[tail - tail // 10**4 * 10**4]
    words[:, 4] = _EXPONENTS[e + 10]
    # The same layout for the mask: the sign byte only when negative.
    shown = np.empty_like(words)
    shown[:, 0] = np.where(np.signbit(x), _SHOW[0], _SHOW[1])
    shown[:, 1:5] = _SHOW[0]
    shown[:, 5] = 0
    out, keep = words.view(np.uint8), shown.view(bool)
    slow = np.flatnonzero(~fast)
    text = np.array(["%.12e" % v for v in x[slow].tolist()], dtype="S20")
    text = text.view(np.uint8).reshape(slow.size, 20)
    out[slow, 1:21] = text
    keep[slow, 1:21] = text != 0
    return out, keep


def _format_labels(kinds):
    """``',' + kind`` of every kind, as ``_format_cells`` gives its cells."""
    names = list(set(kinds))
    labels = [("," + name).encode() for name in names]
    width = max(map(len, labels))
    text = np.array(labels, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    keep = np.arange(width) < np.array([len(label) for label in labels])[:, None]
    objects = np.array(kinds, dtype=object)
    codes = np.zeros(len(kinds), dtype=np.intp)
    for code, name in enumerate(names):
        codes[objects == name] = code
    return text[codes], keep[codes]


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped sampled solution.

    ``kinds[i]`` distinguishes plain grid samples from the left-limit /
    post-impulse pairs recorded at every breakpoint in range.  ``states``
    is complex with one row per record.
    """

    times: np.ndarray
    kinds: tuple
    states: np.ndarray
    method: str
    t_end: float
    dt_out: float

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def impulse_pairs(self):
        """(time, left_limit_state, post_impulse_state) per breakpoint."""
        out = []
        for i, kind in enumerate(self.kinds):
            if kind == KIND_LEFT:
                out.append((self.times[i], self.states[i], self.states[i + 1]))
        return out

    def write_csv(self, stream) -> None:
        """CSV rows ``t,kind,re_x1,im_x1,...``; floats as %.12e.

        The bytes are those of Python's ``'%.12e' %`` per cell; see
        ``_format_cells``.  Rows go out in blocks, so the temporaries stay
        the size of one block.
        """
        header = ["t", "kind"]
        for j in range(1, self.n + 1):
            header += [f"re_x{j}", f"im_x{j}"]
        stream.write(",".join(header) + "\n")
        width = 1 + 2 * self.n
        cells = np.ascontiguousarray(self.states, dtype=complex).view(float)
        rows = max(1, _CSV_BLOCK // width)
        for i in range(0, len(self.times), rows):
            block = slice(i, i + rows)
            values = np.column_stack((self.times[block], cells[block]))
            m = len(values)
            text, keep = (a.reshape(m, width, _CELL) for a in _format_cells(values.ravel()))
            keep[:, 0, 0] = False  # no comma before t
            label_text, label_keep = _format_labels(self.kinds[block])
            eol = np.full((m, 1), ord("\n"), dtype=np.uint8)
            line = np.hstack((text[:, 0], label_text, text[:, 1:].reshape(m, -1), eol))
            mask = np.hstack((keep[:, 0], label_keep, keep[:, 1:].reshape(m, -1), eol > 0))
            stream.write(line[mask].tobytes().decode())


def _near(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _near_many(a, b):
    """``_near`` elementwise, bit for bit."""
    return np.abs(a - b) <= 1e-9 * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def _check_span(system, t_end, dt_out):
    if not (0 < t_end < np.inf and 0 < dt_out < np.inf):
        raise ValueError("t_end and dt_out must be positive and finite")
    # Samples plus a left-limit / post-impulse pair per breakpoint.
    records = t_end / dt_out + 2 * system.p * t_end / system.omega
    if records > MAX_RECORDS:
        raise ValueError(
            f"t_end = {t_end!r} with dt_out = {dt_out!r} asks for about "
            f"{records:.3g} records, more than {MAX_RECORDS}"
        )


def _initial_state(system, x0):
    """``x0`` as a complex n-vector; raises ``ValueError`` unless finite."""
    x0 = np.asarray(x0, dtype=complex).reshape(system.n)
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    return x0


def _layout(system, t_end, dt_out):
    """Rows ``(times, codes)`` of a trajectory, ``codes`` indexing ``_KINDS``:
    the initial state, the samples, and a left-limit / post-impulse pair at
    every breakpoint, as one sorted merge.

    The breakpoints ``t_k`` are ``grid.time_at(k)``.  A pair is recorded at
    every one below ``t_end`` and apart from it, and at the next one when
    that is ``_near`` ``t_end``; otherwise ``t_end`` ends the trajectory
    as a sample row.  A ``t_end`` ``_near`` 0 leaves only the initial row.

    Samples are ``i * dt_out`` for ``i = 1, 2, ...`` up to the first one at
    or ``_near`` ``t_end``, minus those ``_near`` a breakpoint; breakpoints
    are sorted, so only the two neighbours of a sample can be near it.  So
    no sample shares its time with another row: the last row is ``t_end``,
    a breakpoint up to ``t_end (1 + 1e-15)``, or one further beyond, and a
    sample near that one would also be near ``t_end``.
    """
    grid = system.grid
    # Up to a period past every breakpoint _near t_end, so the last one
    # ends the breakpoint search below.
    reach = t_end + 1e-9 * max(1.0, t_end)
    tk = grid.time_at(np.arange(1, (int(reach / grid.omega) + 2) * grid.p + 1))
    breaks = tk[tk <= t_end + 1e-15 * max(1.0, abs(t_end))]
    # One past the last sample is at least t_end, so the stop test fires.
    samples = np.arange(1, int(t_end / dt_out) + 3) * dt_out
    stop = (samples >= t_end) | _near_many(samples, t_end)
    samples = samples[: int(np.argmax(stop))]
    if breaks.size:
        right = np.searchsorted(breaks, samples)
        left = np.maximum(right - 1, 0)
        right = np.minimum(right, breaks.size - 1)
        near = _near_many(samples, breaks[left]) | _near_many(samples, breaks[right])
        samples = samples[~near]

    # The first breakpoint that is not below t_end and apart from it.
    m = int(np.argmin((tk < t_end) & ~_near_many(tk, t_end)))
    if _near(0.0, t_end):
        jumps, last = tk[:0], []
    elif _near(tk[m], t_end):
        jumps, last = tk[: m + 1], []
    else:
        jumps, last = tk[:m], [t_end]
    times = np.concatenate(([0.0], samples, last, jumps, jumps))
    codes = np.repeat([0, 1, 2], [times.size - 2 * jumps.size, jumps.size, jumps.size])
    order = np.lexsort((codes, times))
    return times[order], codes[order]


def solve_cauchy(system: SystemSpec, x0, t_end: float, dt_out: float) -> Trajectory:
    """Trajectory ``x(t) = W(t, 0) x0`` on the output grid plus breakpoints:
    one ``_cauchy_many`` read of every record time, left limits at the
    left-limit records."""
    _check_span(system, t_end, dt_out)
    x0 = _initial_state(system, x0)
    times, codes = _layout(system, t_end, dt_out)
    states = _cauchy_many(system, times, codes == 1, x0[:, None])[..., 0]
    states[0] = x0
    return Trajectory(times, tuple(_KINDS[codes]), states, "cauchy", t_end, dt_out)


def _direct_anchor_value(system, k, x_k):
    """State at the argument anchor zeta_k from the interval entry value.

    For the retarded anchor (zeta_k = t_k) this is the entry value itself;
    otherwise the advanced fixed point solves
    ``J(t_k, zeta_k) x(zeta_k) = Phi(zeta_k, t_k) x(t_k)``.
    """
    grid = system.grid
    t_k = grid.time_at(k)
    zeta = grid.arg_at(k)
    if zeta == t_k:
        return x_k
    n = system.n

    def rhs(u, y):
        Au = system.A.eval(u)
        Bu = system.B.eval(u)
        Psi = y[: n * n].reshape(n, n)
        K = y[n * n :].reshape(n, n)
        return np.concatenate(((-Psi @ Au).ravel(), (Psi @ Bu).ravel()))

    y0 = np.concatenate((np.eye(n).ravel(), np.zeros(n * n)))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            rhs,
            (zeta, t_k),
            y0,
            method="DOP853",
            rtol=max(system.tolerances.ode_rel, _RTOL_FLOOR),
            atol=system.tolerances.ode_abs,
        )
    if not sol.success:
        raise NumericalError(f"anchor integration failed: {sol.message}")
    Psi = sol.y[: n * n, -1].reshape(n, n)
    K = sol.y[n * n :, -1].reshape(n, n)
    J = np.eye(n) + K  # J(t_k, zeta_k)
    return solve(J, Psi @ x_k)


def solve_direct(system: SystemSpec, x0, t_end: float, dt_out: float) -> Trajectory:
    """Independent trajectory oracle via per-interval direct integration."""
    _check_span(system, t_end, dt_out)
    x0 = _initial_state(system, x0)
    times, codes = _layout(system, t_end, dt_out)
    states = np.empty((times.size, system.n), dtype=complex)
    states[0] = x_k = x0
    # Interval k ends at its left-limit row; the last may end at t_end on a
    # sample row.  Its rows run from just after the previous interval's.
    ends = np.flatnonzero(codes == 1)
    if codes[-1] == 0 and times.size > 1:
        ends = np.append(ends, times.size - 1)
    first = 1
    for k, end in enumerate(ends.tolist()):
        forcing_anchor = _direct_anchor_value(system, k, x_k).copy()

        def rhs(u, y):
            return system.A.eval(u) @ y + system.B.eval(u) @ forcing_anchor

        # A state past the float range fails the step control, not numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(
                rhs,
                (times[first - 1], times[end]),
                x_k,
                method="DOP853",
                rtol=max(system.tolerances.ode_rel, _RTOL_FLOOR),
                atol=system.tolerances.ode_abs,
                dense_output=True,
            )
        if not sol.success:
            raise NumericalError(f"interval integration failed: {sol.message}")
        for row in range(first, end):
            states[row] = sol.sol(times[row])
        states[end] = sol.y[:, -1]
        if codes[end] == 1:
            x_k = states[end + 1] = system.impulse_factor(k + 1) @ states[end]
        first = end + 2
    return Trajectory(times, tuple(_KINDS[codes]), states, "direct", t_end, dt_out)


def max_discrepancy(a: Trajectory, b: Trajectory) -> float:
    """Max entrywise distance between two trajectories on the same schedule."""
    if a.kinds != b.kinds or a.times.shape != b.times.shape:
        raise ValueError("trajectories were built on different schedules")
    return float(np.abs(a.states - b.states).max())
