"""Benchmark of the idepcag package: four seeded workloads, checked against
independent references.

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs
the same rounds twice, untraced then traced, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Throughput and median latency come from each call's fastest repeat: on a
shared host, other tenants slow whole seconds of a run by up to half, and
the fastest of repeats spread over the run is the one they left alone.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: with threaded OpenBLAS a 2x2
# solve on a small machine ranged from 25 us to milliseconds.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# The library logs a warning per failed invertibility bound; keep stderr quiet.
os.environ["FLOQUET_LOG"] = "error"

import argparse
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# End-to-end metrics in the result line.  fail_ratio and max_rel_err are
# printed above it: the first is 0 on most workloads and travels as
# attempted/failed, the second spans orders of magnitude between seeds.
# latency_p90_ms exists only for runs of at least 100 calls.
REPORTED = ("setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import idepcag from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "idepcag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'idepcag'}")
    sys.path.insert(0, str(SRC))
    import idepcag

    if Path(idepcag.__file__).resolve().parent != (SRC / "idepcag").resolve():
        raise SystemExit(f"perfbench: imported idepcag from {idepcag.__file__}, not {SRC}")
    import idepcag.cli  # noqa: F401  (bound as pk.cli for the sweep workload)

    logging.getLogger("idepcag").setLevel(logging.ERROR)
    return idepcag


def measure_setup():
    """Cold ``import idepcag`` in fresh interpreters: median of several, after
    one discarded import that leaves the bytecode cache warm."""
    code = ("import time; t0 = time.perf_counter(); import idepcag; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), len(times)


def environment(seed):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy),
        "seed": seed,
    }


class Pass:
    """Totals of one pass over a pool of rounds, cycled whole."""

    def __init__(self, cycle):
        self.cycle = cycle  # rounds in the pool
        self.latencies = []
        self.by_call = {}  # (round in pool, position) -> times of its repeats
        self.outcomes = []
        self.busy = 0.0
        self.cpu = 0.0
        self.rounds = 0
        self.reference_s = 0.0

    def add_round(self, latencies, outcomes, cpu):
        index = self.rounds % self.cycle
        for position, dt in enumerate(latencies):
            self.by_call.setdefault((index, position), []).append(dt)
        self.latencies += latencies
        self.outcomes += outcomes
        self.busy += sum(latencies)
        self.cpu += cpu
        self.rounds += 1

    @property
    def cycles(self):
        return self.rounds // self.cycle

    @property
    def best(self):
        """Each call's fastest repeat.  The repeats of one call lie spread
        over the whole run, so the fastest is one that no other tenant of
        the machine slowed; slow phases of a shared host last seconds."""
        return [min(times) for times in self.by_call.values()]

    @property
    def units(self):
        return sum(o.units for o in self.outcomes)

    @property
    def attempted(self):
        return sum(max(o.units, o.failed) for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)


def run_pass(workload_cls, pk, seed, seconds=None, rounds=None, tracer=None):
    """Draw the pool and its references, warm up with one untimed call, then
    time whole cycles over the pool until ``seconds`` of busy time (or
    ``rounds`` rounds) are done, so that every call repeats equally often."""
    import numpy as np

    from workloads import run_units

    if tracer is not None:
        tracer.phase = "reference"
    t0 = time.perf_counter()
    pool = workload_cls(pk, str(WORK_DIR)).pool(np.random.default_rng(seed))
    result = Pass(len(pool))
    result.reference_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.phase = "warmup"
    run_units(pool[0][:1], None)
    while ((result.busy < seconds or result.rounds % len(pool)) if rounds is None
           else result.rounds < rounds):
        result.add_round(*run_units(pool[result.rounds % len(pool)], tracer))
    if tracer is not None:
        tracer.phase = None
    return result


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, setup):
    """The user-visible metrics of an untraced pass, with their sample notes."""
    lat_ms = [1e3 * x for x in res.latencies]
    m = {}
    if setup is not None:
        m["setup_s"] = (setup[0], "s", f"median of n={setup[1]} cold imports")
    best = res.best
    m["throughput_per_s"] = (res.units / res.cycles / sum(best), "1/s",
                             f"units of one cycle over the n={len(best)} calls' fastest "
                             f"repeats, {res.cycles} repeats each; all repeats: "
                             f"{res.units} units in {res.busy:.3f} s busy")
    m["latency_p50_ms"] = (1e3 * statistics.median(best), "ms",
                           f"median of the n={len(best)} calls' fastest repeats; "
                           f"pooled median {statistics.median(lat_ms):.4g} of n={len(lat_ms)} calls")
    if len(lat_ms) >= 100:
        m["latency_p90_ms"] = (_percentile(lat_ms, 90), "ms", f"n={len(lat_ms)} calls")
    m["fail_ratio"] = (res.failed / max(res.attempted, 1), "ratio",
                       f"{res.failed} of {res.attempted} units")
    m["max_rel_err"] = (max(o.err for o in res.outcomes), "ratio",
                        f"n={len(res.outcomes)} checked calls")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "whole process")
    return m


def report_lines(name, res, e2e, env, warned):
    lines = [
        f"# perfbench {name}: closed loop, one client; references took {res.reference_s:.3f} s",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    lines += [f"{k:17s}{v:.6g} {u:6s} ({note})" for k, (v, u, note) in e2e.items()]
    if "latency_p90_ms" not in e2e:
        lines.append(f"latency_p90_ms   not reported: fewer than 100 calls")
    breaches = {}
    for o in res.outcomes:
        for b in o.breaches:
            breaches[b] = breaches.get(b, 0) + 1
    if breaches:
        lines.append("verify breaches: " + ", ".join(f"{k} x{v}" for k, v in breaches.items()))
    lines += [f"  failed: {n}" for n in sorted({o.note for o in res.outcomes if o.note})[:20]]
    lines.append(f"IntegrationWarning count {warned}")
    return lines


def trace_metrics(tracer, plain, traced, sweep):
    """Per-layer metrics of the traced pass, plus what only the benchmark sees."""
    import tracing

    per = 1.0 / max(traced.units, 1)
    m = tracing.layer_metrics(tracer, traced.units)
    m["floquet.residual_breaches"] = {
        "value": sum(len(o.breaches) for o in traced.outcomes) * per, "unit": "count/unit"}
    m["cli.sweep.self_s"] = {"value": tracer.stats.total("cli.main", "self_s") * per, "unit": "s/unit"}
    m["cli.sweep.rows"] = {"value": traced.units if sweep else 0, "unit": "rows"}
    m["cli.sweep.error_rows"] = {"value": sum(o.error_rows for o in traced.outcomes), "unit": "rows"}
    # Process CPU over wall seconds, from the untraced pass.
    m["cli.sweep.cpu_util"] = {"value": plain.cpu / plain.busy if sweep else 0.0, "unit": "ratio"}
    m["trace.overhead"] = {"value": traced.busy / plain.busy, "unit": "ratio"}
    return m


def main(argv=None):
    args = _parse(argv)
    pk = _import_package()
    import tracing
    from scipy.integrate import IntegrationWarning

    WORK_DIR.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    env = environment(args.seed)
    setup = None if args.trace else measure_setup()
    warned = [0]

    def count_warning(message, category, *rest, **kwargs):
        warned[0] += 1

    with warnings.catch_warnings():
        # Count every IntegrationWarning instead of printing the first one.
        warnings.simplefilter("always", IntegrationWarning)
        warnings.showwarning = count_warning
        # A traced run splits its time: half untraced, then the same rounds traced.
        plain = run_pass(workload_cls, pk, args.seed,
                         seconds=args.seconds / 2 if args.trace else args.seconds)
        passes = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                tracing.install(tracer)
                traced = run_pass(workload_cls, pk, args.seed, rounds=plain.rounds, tracer=tracer)
            tracer.write_spans(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes.append(traced)

    e2e = end_to_end(plain, setup)
    lines = report_lines(args.workload, plain, e2e, env, warned[0])
    if args.trace:
        metrics = trace_metrics(tracer, plain, traced, args.workload == "sweep_family")
        lines.append(f"trace: {len(tracer.spans)} spans written; setup_s is not measured here")
        lines += [f"{k:44s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in REPORTED}
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not any(o.wrong for p in passes for o in p.outcomes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
