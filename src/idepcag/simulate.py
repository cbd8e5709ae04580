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
faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .linalg import NumericalError, solve
from .model import SystemSpec
from .transition import interval_operators

__all__ = ["Trajectory", "solve_cauchy", "solve_direct", "max_discrepancy"]

KIND_SAMPLE = "sample"
KIND_LEFT = "left_limit"
KIND_POST = "post_impulse"
_CSV_BLOCK = 512
#: Most records a trajectory may ask for.  A longer horizon is refused
#: before the schedule is built, which walks one step per breakpoint.
MAX_RECORDS = 10**7


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
        """CSV rows ``t,kind,re_x1,im_x1,...``; floats as %.12e."""
        header = ["t", "kind"]
        for j in range(1, self.n + 1):
            header += [f"re_x{j}", f"im_x{j}"]
        stream.write(",".join(header) + "\n")
        row = "%.12e,%s" + ",%.12e" * (2 * self.n) + "\n"
        cells = np.ascontiguousarray(self.states, dtype=complex).view(float)
        # Python floats take four times the memory of the array: convert a
        # block of rows at a time.
        for i in range(0, len(self.times), _CSV_BLOCK):
            block = slice(i, i + _CSV_BLOCK)
            for t, kind, values in zip(
                self.times[block].tolist(), self.kinds[block], cells[block].tolist()
            ):
                stream.write(row % (t, kind, *values))


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


def _plan(system, t_end, dt_out):
    """Per-interval work plan: (k, t_start, t_stop, interior sample times,
    has_impulse_at_stop).

    Samples are ``i * dt_out`` for ``i = 1, 2, ...`` up to the first one at
    or ``_near`` ``t_end``, minus those ``_near`` a breakpoint; breakpoints
    are sorted, so only the two neighbours of a sample can be near it.  Each
    interval takes the samples strictly between its ends.  None of them is
    near ``t_stop``: a stop is ``t_end``, a breakpoint up to
    ``t_end (1 + 1e-15)``, or one further beyond, and a sample near that one
    would also be near ``t_end``.
    """
    grid = system.grid
    breaks = np.array([t for _, t in grid.breakpoints_between(0.0, t_end)])
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

    bounds = []
    t_cursor = 0.0
    while t_cursor < t_end and not _near(t_cursor, t_end):
        t_next = grid.time_at(len(bounds) + 1)
        stops_at_break = t_next < t_end or _near(t_next, t_end)
        t_stop = t_next if stops_at_break else t_end
        bounds.append((t_cursor, t_stop, stops_at_break))
        t_cursor = t_stop
    first = np.searchsorted(samples, [b[0] for b in bounds], side="right").tolist()
    ends = np.searchsorted(samples, [b[1] for b in bounds], side="left").tolist()
    return [
        (k, t_start, t_stop, samples[lo:hi], stops_at_break)
        for k, ((t_start, t_stop, stops_at_break), lo, hi) in enumerate(zip(bounds, first, ends))
    ]


def _assemble(system, x0, plan, propagate, method, t_end, dt_out):
    """Records on the plan's schedule, with the impulse pair at each break.

    ``propagate(k, t_start, t_stop, inside, x_k)`` returns the states at the
    interior samples followed by the left limit at ``t_stop``, as rows.
    """
    rows = 1 + sum(len(inside) + (2 if impulse else 1) for *_, inside, impulse in plan)
    times = np.empty(rows)
    kinds = [KIND_SAMPLE]
    states = np.empty((rows, system.n), dtype=complex)
    factors = [system.impulse_factor(r) for r in range(1, system.p + 1)]
    times[0] = 0.0
    states[0] = x_k = x0
    r = 1
    for k, t_start, t_stop, inside, has_impulse in plan:
        values = propagate(k, t_start, t_stop, inside, x_k)
        m = len(inside)
        times[r : r + m] = inside
        states[r : r + m] = values[:m]
        kinds += [KIND_SAMPLE] * m
        r += m
        left = values[m]
        if has_impulse:
            x_k = factors[k % system.p] @ left
            times[r : r + 2] = t_stop
            states[r] = left
            states[r + 1] = x_k
            kinds += [KIND_LEFT, KIND_POST]
            r += 2
        else:
            times[r] = t_stop
            states[r] = left
            kinds.append(KIND_SAMPLE)
            r += 1
    return Trajectory(times, tuple(kinds), states, method, t_end, dt_out)


def solve_cauchy(system: SystemSpec, x0, t_end: float, dt_out: float) -> Trajectory:
    """Trajectory ``x(t) = W(t, 0) x0`` on the output grid plus breakpoints.

    Every record time of every period is mapped into its base interval
    first, so each base interval's dense output is read in one batch.
    """
    _check_span(system, t_end, dt_out)
    x0 = np.asarray(x0, dtype=complex).reshape(system.n)
    ops_base = interval_operators(system)
    p = system.p
    plan = _plan(system, t_end, dt_out)
    local = [[] for _ in range(p)]
    for k, _, t_stop, inside, _ in plan:
        local[k % p].append(np.append(inside, t_stop) - (k // p) * system.omega)
    blocks = [
        ops.e_many(np.concatenate(times)) if times else None
        for ops, times in zip(ops_base, local)
    ]
    used = [0] * p

    def propagate(k, t_start, t_stop, inside, x_k):
        j = k % p
        m = len(inside) + 1
        E = blocks[j][used[j] : used[j] + m]
        used[j] += m
        return E @ (ops_base[j].E_left_inv @ x_k)

    return _assemble(system, x0, plan, propagate, "cauchy", t_end, dt_out)


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
    sol = solve_ivp(
        rhs,
        (zeta, t_k),
        y0,
        method="DOP853",
        rtol=system.tolerances.ode_rel,
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
    x0 = np.asarray(x0, dtype=complex).reshape(system.n)

    def propagate(k, t_start, t_stop, inside, x_k):
        forcing_anchor = _direct_anchor_value(system, k, x_k).copy()

        def rhs(u, y):
            return system.A.eval(u) @ y + system.B.eval(u) @ forcing_anchor

        sol = solve_ivp(
            rhs,
            (t_start, t_stop),
            x_k,
            method="DOP853",
            rtol=system.tolerances.ode_rel,
            atol=system.tolerances.ode_abs,
            dense_output=True,
        )
        if not sol.success:
            raise NumericalError(f"interval integration failed: {sol.message}")
        return np.array([sol.sol(t) for t in inside] + [sol.y[:, -1]])

    return _assemble(system, x0, _plan(system, t_end, dt_out), propagate, "direct", t_end, dt_out)


def max_discrepancy(a: Trajectory, b: Trajectory) -> float:
    """Max entrywise distance between two trajectories on the same schedule."""
    if a.kinds != b.kinds or a.times.shape != b.times.shape:
        raise ValueError("trajectories were built on different schedules")
    return float(np.abs(a.states - b.states).max())
