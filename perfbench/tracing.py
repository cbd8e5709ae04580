"""Span tracing from outside the package, by wrapping its public names.

Every wrapped callable opens a span: name, start, end, parent span and the
phase it ran in (``unit`` for timed work, ``reference`` for the oracles).
Stacks are per thread; a span opened on a thread with an empty stack (a
sweep pool worker) is adopted by the span open on the main thread, and a
parent's self time subtracts the wall-clock *union* of such children, so
eight overlapping workers are not subtracted eight times.

Hot leaves (``MatrixFunction.eval``, ``IntervalOperators.e_at``) run
thousands of times per unit; they are folded into per-parent counters
instead of being stored one by one.  All other spans are held in memory and
written out as JSON lines at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import warnings
from collections import defaultdict
from time import perf_counter

from scipy.integrate import IntegrationWarning

HOT_LEAVES = {"model.MatrixFunction.eval", "transition.IntervalOperators.e_at"}


class _Frame:
    __slots__ = ("sid", "name", "t0", "child_s", "adopted", "n_children")

    def __init__(self, sid, name, t0):
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.child_s = 0.0
        self.adopted = []  # (t0, t1) of worker-thread children
        self.n_children = 0


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Stats:
    """Per (phase, name, parent name) totals: calls, self and total seconds,
    plus named extras (nfev, bytes, cache hits, ...).  Each thread writes its
    own table, so the hot path takes no lock; tables merge when read."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tables = []

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = defaultdict(lambda: defaultdict(float))
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, key, self_s, total_s, extras=()):
        row = self._table()[key]
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += total_s
        for field, value in extras:
            row[field] += value

    def bump(self, key, field, value=1):
        self._table()[key][field] += value

    def total(self, name, field="calls", phase="unit", parent=None):
        return sum(
            row.get(field, 0.0)
            for table in self._tables
            for (ph, nm, par), row in table.items()
            if ph == phase and nm == name and (parent is None or par == parent)
        )


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self.spans = []
        self.phase = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []
        self._saved_showwarning = None

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extras=None):
        """Traced version of ``fn``; ``extras(result, args, frame)`` yields
        (field, value) pairs recorded with the span."""
        tracer = self
        hot = name in HOT_LEAVES

        def traced(*args, **kwargs):
            phase = tracer.phase
            stack = tracer._stack()
            if stack:
                parent, adopted = stack[-1], False
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent, adopted = tracer._main_stack[-1], True
            else:
                parent, adopted = None, False
            if hot:
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t0
                if parent is not None and not adopted:
                    parent.child_s += dt
                    parent.n_children += 1
                key = (phase, name, parent.name if parent else None)
                tracer.stats.add(key, dt, dt, extras(out, args, None) if extras else ())
                return out
            frame = _Frame(next(tracer._ids), name, perf_counter())
            stack.append(frame)
            out, returned = None, False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                stack.pop()
                tracer._close(frame, parent, adopted, phase,
                              extras(out, args, frame) if extras and returned else ())

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, adopted, phase, extras):
        t1 = perf_counter()
        total = t1 - frame.t0
        self_s = total - frame.child_s - _union_length(frame.adopted)
        if parent is not None:
            parent.n_children += 1
            if adopted:
                parent.adopted.append((frame.t0, t1))
            else:
                parent.child_s += total
        self.stats.add((phase, frame.name, parent.name if parent else None), self_s, total, extras)
        self.spans.append((frame.sid, parent.sid if parent else 0, frame.name, phase,
                           threading.get_ident(), frame.t0, t1, self_s))

    def patch(self, owner, attr, name, extras=None):
        """Replace ``owner.attr`` by its traced version."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, extras))

    def patch_everywhere(self, modules, original, name, extras=None):
        """Replace every binding of ``original`` in ``modules`` by one traced
        wrapper, so callers in every namespace go through it."""
        traced = self.wrap(name, original, extras)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        stack = self._stack()
        where = stack[-1].name if stack else None
        self.stats.bump((self.phase, where, None), f"warnings.{category.__name__}")

    def __enter__(self):
        self._saved_showwarning = warnings.showwarning
        warnings.showwarning = self._showwarning
        return self

    def __exit__(self, *exc):
        warnings.showwarning = self._saved_showwarning
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, phase, thread, t0, t1, self_s in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "phase": phase,
                    "thread": thread, "start": t0, "end": t1, "self_s": self_s,
                }) + "\n")


def _solve_ivp_extras(sol, args, frame):
    return (("nfev", sol.nfev), ("steps", max(0, sol.t.size - 1)))


def _ops_extras(ops, args, frame):
    # A cache hit returns the stored operators without integrating anything.
    return (("hits", 1 if frame.n_children == 0 else 0),)


def _eval_extras(out, args, frame):
    return (("entry_evals", out.size),)


def _bytes_extras(text, args, frame):
    return (("bytes", len(text.encode("utf-8"))),)


def _write_csv_extras(out, args, frame):
    stream = args[1]
    return (("bytes", len(stream.getvalue().encode("utf-8"))),) if hasattr(stream, "getvalue") else ()


def _trajectory_extras(traj, args, frame):
    return (("records", len(traj.times)),)


def install(tracer: Tracer):
    """Wrap the package's layer boundaries in every namespace that calls them."""
    import idepcag
    from idepcag import cli, floquet, linalg, model, serialize, simulate, transition

    modules = [idepcag, cli, floquet, linalg, model, serialize, simulate, transition]

    tracer.patch(model.MatrixFunction, "eval", "model.MatrixFunction.eval", _eval_extras)
    tracer.patch(transition.IntervalOperators, "e_at", "transition.IntervalOperators.e_at")
    tracer.patch(simulate.Trajectory, "write_csv", "simulate.write_csv", _write_csv_extras)
    # scipy entry points are traced per calling namespace: the same function
    # serves the operator build (transition) and the oracle (simulate).
    tracer.patch(transition, "quad", "transition.quad")
    tracer.patch(transition, "solve_ivp", "transition.solve_ivp", _solve_ivp_extras)
    tracer.patch(simulate, "solve_ivp", "simulate.solve_ivp", _solve_ivp_extras)

    own = [
        (model.load_system, "model.load_system", None),
        (transition.hypothesis_check, "transition.hypothesis_check", None),
        (transition.interval_operators, "transition.interval_operators", _ops_extras),
        (transition.fundamental_matrix, "transition.fundamental_matrix", None),
        (transition.j_matrix, "transition.j_matrix", None),
        (transition.e_matrix, "transition.e_matrix", None),
        (floquet.analyze, "floquet.analyze", None),
        (floquet.monodromy, "floquet.monodromy", None),
        (floquet.floquet_exponents, "floquet.floquet_exponents", None),
        (floquet.classify, "floquet.classify", None),
        (floquet.floquet_P, "floquet.floquet_P", None),
        (floquet.floquet_P_real, "floquet.floquet_P_real", None),
        (floquet.cauchy_matrix, "floquet.cauchy_matrix", None),
        (floquet.q_factor, "floquet.q_factor", None),
        (floquet.structural_residuals, "floquet.structural_residuals", None),
        (linalg.expm, "linalg.expm", None),
        (linalg.inv, "linalg.inv", None),
        (linalg.eig, "linalg.eig", None),
        (linalg.logm_principal, "linalg.logm_principal", None),
        (simulate.solve_cauchy, "simulate.solve_cauchy", _trajectory_extras),
        (simulate.solve_direct, "simulate.solve_direct", None),
        (serialize.canonical_json, "serialize.canonical_json", _bytes_extras),
        (cli.main, "cli.main", None),
    ]
    for original, name, extras in own:
        tracer.patch_everywhere(modules, original, name, extras)


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics per timed unit, from the spans of the unit phase.

    ``solve_direct`` is the trajectory oracle and runs only while references
    are built, so its metrics come from the reference phase.
    """
    st = tracer.stats
    per = 1.0 / max(units, 1)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def calls_self(name, key):
        put(f"{key}.calls", st.total(name) * per, "calls/unit")
        put(f"{key}.self_s", st.total(name, "self_s") * per, "s/unit")

    calls_self("model.load_system", "model.load_system")
    calls_self("model.MatrixFunction.eval", "model.MatrixFunction.eval")
    put("expressions.entry_evals", st.total("model.MatrixFunction.eval", "entry_evals") * per, "evals/unit")

    put("transition.hypothesis_check.self_s", st.total("transition.hypothesis_check", "self_s") * per, "s/unit")
    put("transition.quad.calls", st.total("transition.quad") * per, "calls/unit")
    put("transition.quad.neval",
        st.total("model.MatrixFunction.eval", parent="transition.quad") * per, "evals/unit")
    warn_field = f"warnings.{IntegrationWarning.__name__}"
    put("transition.quad.warnings", st.total("transition.quad", warn_field) * per, "count/unit")
    calls_self("transition.interval_operators", "transition.interval_operators")
    ops_calls = st.total("transition.interval_operators")
    ops_hits = st.total("transition.interval_operators", "hits")
    put("transition.interval_operators.builds", (ops_calls - ops_hits) * per, "builds/unit")
    calls_self("transition.solve_ivp", "transition.solve_ivp")
    put("transition.solve_ivp.nfev", st.total("transition.solve_ivp", "nfev") * per, "evals/unit")
    put("transition.solve_ivp.steps", st.total("transition.solve_ivp", "steps") * per, "steps/unit")
    fresh = sum(st.total(f"transition.{f}") for f in ("fundamental_matrix", "j_matrix", "e_matrix"))
    put("transition.fresh_integrations", fresh * per, "calls/unit")
    put("transition.ops_cache_hit_ratio", ops_hits / ops_calls if ops_calls else 0.0, "ratio")

    for fn in ("monodromy", "floquet_exponents", "classify", "floquet_P", "floquet_P_real",
               "structural_residuals"):
        put(f"floquet.{fn}.self_s", st.total(f"floquet.{fn}", "self_s") * per, "s/unit")
    calls_self("floquet.cauchy_matrix", "floquet.cauchy_matrix")
    calls_self("floquet.q_factor", "floquet.q_factor")

    for fn in ("expm", "inv", "eig", "logm_principal"):
        calls_self(f"linalg.{fn}", f"linalg.{fn}")

    put("simulate.solve_cauchy.self_s", st.total("simulate.solve_cauchy", "self_s") * per, "s/unit")
    put("simulate.dense_lookups",
        st.total("transition.IntervalOperators.e_at", parent="simulate.solve_cauchy") * per,
        "lookups/unit")
    put("simulate.records", st.total("simulate.solve_cauchy", "records") * per, "records/unit")
    put("simulate.write_csv.self_s", st.total("simulate.write_csv", "self_s") * per, "s/unit")
    put("simulate.write_csv.bytes", st.total("simulate.write_csv", "bytes") * per, "bytes/unit")
    put("simulate.solve_ivp.nfev", st.total("simulate.solve_ivp", "nfev", phase="reference"), "evals")
    put("simulate.solve_ivp.steps", st.total("simulate.solve_ivp", "steps", phase="reference"), "steps")
    put("simulate.solve_direct.self_s",
        st.total("simulate.solve_direct", "self_s", phase="reference"), "s")

    put("serialize.canonical_json.calls", st.total("serialize.canonical_json") * per, "calls/unit")
    put("serialize.canonical_json.self_s", st.total("serialize.canonical_json", "self_s") * per, "s/unit")
    put("serialize.canonical_json.bytes", st.total("serialize.canonical_json", "bytes") * per, "bytes/unit")
    return m

