"""The four workloads: what a unit runs, and how its output is checked.

Every workload is a closed loop from one client: a unit starts only after
the previous one returned.  A run cycles through a small *pool* of rounds
drawn from the seed, whose references are computed before timing starts,
so every call repeats many times and the run can keep each call's fastest
repeat.  Each round holds the same mix of shapes with its own numbers, so
whole rounds measure the same mix on every seed.  Where a pool mixes
calls of very different cost (sweep), an odd number of calls keeps the
median latency inside one kind of unit rather than in the gap between two.
Every unit loads its document anew, so the package's identity-keyed
operator cache never turns a repeat into a dictionary lookup.

The program is reached only through ``pk`` (the imported package), looked
up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from gen import (ADVANCED, CONST, INTERIOR, RETARDED, TRIG, Shape, document, shift_diagonal,
                 substitute, sweep_template)
from refs import multiplier_error, reference_multipliers, row_errors

# Multipliers within this share of the reference spectral radius agree; the
# operator route and the oracles each integrate at tolerance 1e-10.
MULTIPLIER_RTOL = 1e-7
# Trajectory rows within this share of the row's largest modulus agree.
ROW_RTOL = 1e-6


@dataclass
class Outcome:
    units: int  # work items the call completed (sweep: rows)
    failed: int = 0  # items that failed: exception, exit code, breach, tolerance
    wrong: bool = False  # an output disagrees with its reference
    err: float = 0.0  # largest relative deviation from the reference
    breaches: list = field(default_factory=list)  # names of failed verify checks
    error_rows: int = 0  # sweep rows the program reported as "Error: ..."
    note: str = ""


@dataclass
class Unit:
    label: str
    weight: int  # items one call is expected to complete
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _multipliers_from_json(text):
    return np.array([complex(re, im) for re, im in json.loads(text)["multipliers"]])


def _bundled_texts(pk):
    return [
        (name, pk.model.bundled_system_path(name).read_text(encoding="utf-8"))
        for name in pk.model.BUNDLED_SYSTEMS
    ]


class AnalyzeMix:
    """``idepcag analyze`` on a fresh document per unit.

    Every unit misses the operator cache, so this measures the build path,
    where expression evaluation and the norm quadrature dominate and the
    spectral tail is a small share."""

    name = "analyze_mix"
    SHAPES = (
        Shape(1, (RETARDED,), CONST, diagonal=True),
        Shape(2, (INTERIOR, ADVANCED), TRIG),
        Shape(3, (RETARDED,), CONST, b_zero=True),
        Shape(2, (RETARDED, INTERIOR, ADVANCED), CONST, diagonal=True),
        Shape(4, (INTERIOR,), TRIG, b_zero=True),
        Shape(3, (ADVANCED, RETARDED), TRIG, impulsive=False),
        Shape(4, (INTERIOR, INTERIOR), CONST),
        Shape(1, (ADVANCED, INTERIOR, RETARDED), TRIG),
        Shape(2, (RETARDED, ADVANCED), CONST),
    )

    POOL_ROUNDS = 1

    def __init__(self, pk, work_dir):
        self.pk = pk
        self.bundled = _bundled_texts(pk)

    def pool(self, rng):
        return [self._round(rng) for _ in range(self.POOL_ROUNDS)]

    def _round(self, rng):
        docs = [(f"gen{i}", document(rng, s)) for i, s in enumerate(self.SHAPES)]
        return [self._unit(label, text) for label, text in docs + self.bundled]

    def _unit(self, label, text):
        pk = self.pk
        ref = reference_multipliers(text, pk)

        def run():
            report = pk.floquet.analyze(pk.model.load_system(text))
            return pk.serialize.canonical_json(report.to_json_dict())

        def check(out):
            err = multiplier_error(_multipliers_from_json(out), ref)
            bad = not err <= MULTIPLIER_RTOL
            return Outcome(1, int(bad), bad, err, note=f"{label}: multipliers off" if bad else "")

        return Unit(label, 1, run, check)


class SweepFamily:
    """``idepcag sweep`` in-process: the only path with the program's own
    thread pool, and the only inputs that share all structure but one
    parameter.  Four steps per call start four pool threads and keep a call
    under half a second, short enough to repeat often in one run."""

    name = "sweep_family"
    STEPS = 4
    SCALAR_RANGE = (-2.0, 2.0)
    POOL_ROUNDS = 3

    def __init__(self, pk, work_dir):
        self.pk = pk
        self.work_dir = work_dir

    def pool(self, rng):
        """Rounds of two freshly drawn templates (row cost varies with the
        draw) around the bundled one."""
        path = str(self.pk.model.bundled_system_path("scalar_table_template"))
        scalar = self._call("scalar_table_template", path, "AC", *self.SCALAR_RANGE)
        return [[self._generated(rng, 2 * r), scalar, self._generated(rng, 2 * r + 1)]
                for r in range(self.POOL_ROUNDS)]

    def _generated(self, rng, k):
        path = os.path.join(self.work_dir, f"sweep_template_{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(sweep_template(rng))
        lo = float(np.round(rng.uniform(-1.0, -0.5), 6))
        hi = float(np.round(rng.uniform(0.5, 1.0), 6))
        return self._call("generated", path, "EPS", lo, hi)

    def _call(self, label, template, param, lo, hi):
        with open(template, "r", encoding="utf-8") as handle:
            text = handle.read()
        values = np.linspace(lo, hi, self.STEPS)
        refs = [reference_multipliers(substitute(text, param, v), self.pk) for v in values]
        argv = ["sweep", template, "--param", param, f"--range={lo!r}:{hi!r}",
                "--steps", str(self.STEPS)]
        return self._unit(label, argv, values, refs)

    def _unit(self, label, argv, values, refs):
        pk = self.pk

        def run():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = pk.cli.main(argv)
            return code, buffer.getvalue()

        def check(out):
            code, text = out
            rows = text.splitlines()[1:]
            if code != 0 or len(rows) != len(values):
                return Outcome(len(rows), len(values), True, math.inf,
                               note=f"{label}: exit {code}, {len(rows)} rows")
            failed, errors, wrong, worst, notes = 0, 0, False, 0.0, []
            for row, value, ref in zip(rows, values, refs):
                cells = row.split(",")
                if cells[3].startswith("Error:"):
                    failed += 1
                    errors += 1
                    notes.append(f"{label}@{value:.4g}: {cells[3]}")
                    continue
                got = [complex(z.replace("i", "j")) for z in cells[1].split(";")]
                err = multiplier_error(got, ref)
                value_off = abs(float(cells[0]) - value) > 1e-11 * max(1.0, abs(value))
                if value_off or not err <= MULTIPLIER_RTOL:
                    failed += 1
                    wrong = True
                    notes.append(f"{label}@{value:.4g}: multipliers off")
                worst = max(worst, err)
            return Outcome(len(rows), failed, wrong, worst, error_rows=errors, note="; ".join(notes))

        return Unit(label, self.STEPS, run, check)


class VerifySuite:
    """``idepcag verify``: operators built once, then read by ~100 cached
    ``cauchy_matrix``/``q_factor``/``expm`` calls next to uncached fresh
    integrations, so linalg and the cache-hit path dominate, unlike
    ``AnalyzeMix``."""

    name = "verify_suite"
    SHAPES = (
        Shape(2, (INTERIOR, ADVANCED), TRIG),
        Shape(3, (RETARDED,), CONST, b_zero=True),
        Shape(2, (RETARDED, INTERIOR), TRIG),
        Shape(1, (ADVANCED, RETARDED), TRIG),
        Shape(3, (INTERIOR, INTERIOR), CONST),
        Shape(2, (RETARDED, INTERIOR, ADVANCED), CONST, diagonal=True),
        Shape(4, (RETARDED,), TRIG, b_zero=True, impulsive=False),
        Shape(1, (RETARDED,), CONST, diagonal=True),
        Shape(2, (INTERIOR,), CONST, b_zero=True),
    )

    POOL_ROUNDS = 1

    def __init__(self, pk, work_dir):
        self.pk = pk
        self.bundled = [(label, text, None) for label, text in _bundled_texts(pk)]

    def pool(self, rng):
        return [self._round(rng) for _ in range(self.POOL_ROUNDS)]

    def _round(self, rng):
        docs = [(f"gen{i}", document(rng, s), s) for i, s in enumerate(self.SHAPES)]
        return [self._unit(*doc) for doc in docs + self.bundled]

    def _unit(self, label, text, shape):
        pk = self.pk
        ref = reference_multipliers(text, pk)

        def run():
            system = pk.model.load_system(text)
            return system, pk.floquet.structural_residuals(system)

        def check(out):
            system, checks = out
            # Outside the timed unit: the operators are cached on ``system``.
            got = pk.floquet.floquet_exponents(pk.floquet.monodromy(system), system.omega)
            err = multiplier_error(got.multipliers, ref)
            breaches = [c.name for c in checks if not c.passed]
            bad = not err <= MULTIPLIER_RTOL
            note = ""
            if breaches:
                known = shape is not None and shape.endpoint_impulse
                note = f"{label}: {','.join(breaches)}" + (
                    " (advanced-at-endpoint impulsive anchor)" if known else "")
            return Outcome(1, int(bad or bool(breaches)), bad, err, breaches, note=note)

        return Unit(label, 1, run, check)


class SimulateLong:
    """``solve_cauchy`` plus CSV over horizons from tens to hundreds of
    periods at a fixed output step: the only workload that drives simulate,
    its dense-output lookups and the plan that grows quadratically with the
    horizon; operator building is a small share."""

    name = "simulate_long"
    SHAPES = (
        Shape(2, (INTERIOR,), TRIG),
        Shape(3, (RETARDED, ADVANCED), CONST),
        Shape(1, (ADVANCED, INTERIOR), TRIG),
    )
    PERIODS = (15, 50, 100)
    SAMPLES_PER_PERIOD = 20
    NORMALIZE_STEPS = 3

    def __init__(self, pk, work_dir):
        self.pk = pk

    def pool(self, rng):
        """One round: every system at every horizon."""
        pk = self.pk
        cases = []
        for i, shape in enumerate(self.SHAPES):
            drawn = text = document(rng, shape)
            omega = json.loads(text)["omega"]
            # Put the spectral radius on the unit circle, so that neither
            # growth nor decay below the integration tolerance dominates the
            # rows of a trajectory hundreds of periods long.
            sigma = 0.0
            for _ in range(self.NORMALIZE_STEPS):
                rho = np.abs(reference_multipliers(text, pk)).max()
                sigma -= math.log(rho) / omega
                text = shift_diagonal(drawn, sigma)
            system = pk.model.load_system(text)
            x0 = np.round(rng.uniform(-1, 1, shape.n) + 1j * rng.uniform(-1, 1, shape.n), 6)
            dt_out = omega / self.SAMPLES_PER_PERIOD
            ref = pk.simulate.solve_direct(system, x0, max(self.PERIODS) * omega, dt_out)
            cases.append((f"sim{i}", text, x0, omega, dt_out, ref))
        return [[self._unit(case, periods) for case in cases for periods in self.PERIODS]]

    def _unit(self, case, periods):
        pk = self.pk
        label, text, x0, omega, dt_out, ref = case

        def run():
            system = pk.model.load_system(text)
            traj = pk.simulate.solve_cauchy(system, x0, periods * omega, dt_out)
            buffer = io.StringIO()
            traj.write_csv(buffer)
            return buffer.getvalue()

        def check(out):
            lines = out.splitlines()[1:]
            m = len(lines)
            cells = [line.split(",") for line in lines]
            times = np.array([float(c[0]) for c in cells])
            kinds = tuple(c[1] for c in cells)
            values = np.array([[float(v) for v in c[2:]] for c in cells])
            states = values[:, 0::2] + 1j * values[:, 1::2]
            if (m > len(ref.times) or kinds != ref.kinds[:m]
                    or np.abs(times - ref.times[:m]).max() > 1e-9 * periods * omega):
                return Outcome(1, 1, True, math.inf, note=f"{label}x{periods}: schedule differs")
            err = row_errors(states, ref.states[:m])
            bad = not err <= ROW_RTOL
            return Outcome(1, int(bad), bad, err, note=f"{label}x{periods}: rows off" if bad else "")

        return Unit(f"{label}x{periods}", 1, run, check)


WORKLOADS = {w.name: w for w in (AnalyzeMix, SweepFamily, VerifySuite, SimulateLong)}


def run_units(units, tracer):
    """Run one round in order; returns (latencies, outcomes, cpu seconds)."""
    latencies, outcomes, cpu = [], [], 0.0
    for unit in units:
        if tracer is not None:
            tracer.phase = "unit"
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = unit.run()
            error = None
        except Exception as exc:  # a failing unit is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer is not None:
            tracer.phase = "check"
        latencies.append(dt)
        if error is not None:
            outcomes.append(Outcome(0, unit.weight, True, math.inf,
                                    note=f"{unit.label}: {type(error).__name__}: {error}"))
        else:
            outcomes.append(unit.check(out))
    return latencies, outcomes, cpu
