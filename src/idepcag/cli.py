"""Command-line front end.

Subcommands: ``analyze`` (spectral report), ``simulate`` (trajectory CSV),
``factorize`` (normal-form generator and periodic-factor samples),
``verify`` (structural residual table), ``sweep`` (parameter grid).  The
CLI is a thin shell: every computation is reachable through library calls
with identical results.

Exit codes: 0 success; 1 input or validation failure; 2 invertibility
bounds failed under ``--strict-h``; 3 numerical failure; 4 verification
residual breach.  Set ``FLOQUET_LOG`` to error/warn/info/debug to control
logging.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import math
import os
import re
import sys

import numpy as np

from .expressions import ExpressionSyntaxError
from .floquet import (
    _q_many,
    _spectral_core,
    analyze,
    floquet_P,
    floquet_P_real,
    is_oscillatory,
    monodromy,
    structural_residuals,
    verify_normal_form,
)
from .linalg import NumericalError
from .model import ValidationError, load_system
from .serialize import canonical_json
from .simulate import max_discrepancy, solve_cauchy, solve_direct

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STRICT_H = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

log = logging.getLogger("idepcag")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _setup_logging():
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    name = os.environ.get("FLOQUET_LOG", "warn").lower()
    if name not in levels:
        raise _UsageError(f"FLOQUET_LOG must be one of {sorted(levels)}, got {name!r}")
    # basicConfig adds a handler only once; the level must follow every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(levels[name])


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc


def _write_out(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_complex_list(text, n):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise _UsageError(f"--x0 needs {n} comma-separated entries, got {len(parts)}")
    values = []
    for part in parts:
        # Only a trailing i is the imaginary unit, so 'inf' and 'nan' parse.
        text = part.replace(" ", "")
        if text.endswith("i"):
            text = text[:-1] + "j"
        try:
            values.append(complex(text))
        except ValueError as exc:
            raise _UsageError(f"cannot parse complex number {part!r}") from exc
    return np.array(values, dtype=complex)


def _fmt_complex(z):
    return f"{z.real:.12e}{z.imag:+.12e}i"


# Parsing leaves the parser as it was, so every call shares one.
@functools.cache
def _build_parser():
    parser = _Parser(prog="idepcag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="spectral analysis report (JSON)")
    p_an.add_argument("spec", help="system document path")
    p_an.add_argument("--strict-h", action="store_true",
                      help="exit 2 when the invertibility bounds fail")
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--format", choices=["json"], default="json")

    p_sim = sub.add_parser("simulate", help="trajectory CSV")
    p_sim.add_argument("spec")
    p_sim.add_argument("--x0", required=True,
                       help="comma-separated complex entries, e.g. '1+2i,0'; write a "
                            "leading minus as --x0=-1,0")
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--dt-out", type=float, default=None,
                       help="output step (default t_end/200)")
    p_sim.add_argument("--method", choices=["cauchy", "direct", "both"],
                       default="cauchy")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--format", choices=["csv"], default="csv")

    p_fac = sub.add_parser("factorize", help="normal form: generator P and Q samples")
    p_fac.add_argument("spec")
    p_fac.add_argument("--samples", type=int, default=32,
                       help="Q sample count over one Q-period")
    p_fac.add_argument("--real", action="store_true",
                       help="real generator from the squared monodromy (2-period Q)")
    p_fac.add_argument("--out", default=None)
    p_fac.add_argument("--format", choices=["json", "csv"], default="json")

    p_ver = sub.add_parser("verify", help="structural residual table")
    p_ver.add_argument("spec")
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_sw = sub.add_parser("sweep", help="parameter sweep over a template document")
    p_sw.add_argument("template")
    p_sw.add_argument("--param", required=True,
                      help="name N substituted for the token $N in the template")
    p_sw.add_argument("--range", required=True, metavar="LO:HI")
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--out", default=None)
    p_sw.add_argument("--format", choices=["csv"], default="csv")
    return parser


def _cmd_analyze(args):
    system = load_system(_read(args.spec))
    report = analyze(system)
    _write_out(canonical_json(report.to_json_dict()), args.out)
    if args.strict_h and not report.hypothesis.passed:
        log.error("invertibility bounds failed and --strict-h is set")
        return EXIT_STRICT_H
    return EXIT_OK


def _trajectory_csv(traj):
    buffer = io.StringIO()
    traj.write_csv(buffer)
    return buffer.getvalue()


def _cmd_simulate(args):
    system = load_system(_read(args.spec))
    if not 0 < args.t_end < np.inf:
        raise _UsageError("--t-end must be positive and finite")
    dt_out = args.dt_out if args.dt_out is not None else args.t_end / 200.0
    if not 0 < dt_out < np.inf:
        raise _UsageError("--dt-out must be positive and finite")
    x0 = _parse_complex_list(args.x0, system.n)
    try:
        if args.method in ("cauchy", "both"):
            traj_c = solve_cauchy(system, x0, args.t_end, dt_out)
        if args.method in ("direct", "both"):
            traj_d = solve_direct(system, x0, args.t_end, dt_out)
    except ValueError as exc:  # a non-finite x0 or a horizon past simulate.MAX_RECORDS
        raise _UsageError(str(exc)) from exc
    if args.method == "cauchy":
        _write_out(_trajectory_csv(traj_c), args.out)
    elif args.method == "direct":
        _write_out(_trajectory_csv(traj_d), args.out)
    else:
        gap = max_discrepancy(traj_c, traj_d)
        if args.out is None:
            sys.stdout.write(_trajectory_csv(traj_c))
            sys.stdout.write("\n")
            sys.stdout.write(_trajectory_csv(traj_d))
        else:
            root, ext = os.path.splitext(args.out)
            ext = ext or ".csv"
            _write_out(_trajectory_csv(traj_c), f"{root}_cauchy{ext}")
            _write_out(_trajectory_csv(traj_d), f"{root}_direct{ext}")
        sys.stderr.write(f"max discrepancy cauchy vs direct: {gap:.12e}\n")
    return EXIT_OK


def _cmd_factorize(args):
    system = load_system(_read(args.spec))
    if args.samples < 1:
        raise _UsageError("--samples must be at least 1")
    X = monodromy(system)
    P = floquet_P_real(X, system.omega) if args.real else floquet_P(X, system.omega)
    factor = 2 if args.real else 1
    residuals = verify_normal_form(system, P=P, real=args.real)
    times = [i * factor * system.omega / args.samples for i in range(args.samples)]
    q_values = _q_many(system, P, times)[1]

    if args.format == "csv":
        header = ["t"]
        for i in range(1, system.n + 1):
            for j in range(1, system.n + 1):
                header += [f"re_q{i}{j}", f"im_q{i}{j}"]
        lines = [",".join(header)]
        for t, Q in zip(times, q_values):
            cells = [f"{t:.12e}"]
            for z in np.asarray(Q, dtype=complex).ravel():
                cells += [f"{z.real:.12e}", f"{z.imag:.12e}"]
            lines.append(",".join(cells))
        _write_out("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    cm = lambda M: [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.atleast_2d(np.asarray(M, dtype=complex))
    ]
    doc = {
        "omega": system.omega,
        "real": args.real,
        "q_period": factor * system.omega,
        "P": cm(P),
        "residuals": {
            "expm_roundtrip": residuals.expm_roundtrip,
            "q_equation": residuals.q_equation,
            "q_equation_scale": residuals.q_equation_scale,
        },
        "q_samples": {
            "times": [float(t) for t in times],
            "matrices": [cm(Q) for Q in q_values],
        },
    }
    _write_out(canonical_json(doc), args.out)
    return EXIT_OK


def _cmd_verify(args):
    system = load_system(_read(args.spec))
    checks = structural_residuals(system)
    all_pass = all(c.passed for c in checks)
    if args.format == "json":
        doc = {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in checks
            ],
            "passed": all_pass,
        }
        _write_out(canonical_json(doc), args.out)
    elif args.format == "csv":
        lines = ["name,value,threshold,passed"]
        for c in checks:
            lines.append(f"{c.name},{c.value:.12e},{c.threshold:.12e},{str(c.passed).lower()}")
        _write_out("\n".join(lines) + "\n", args.out)
    else:
        width = max(len(c.name) for c in checks)
        lines = [f"{'check'.ljust(width)}  {'residual':>14}  {'threshold':>10}  status"]
        for c in checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"{c.name.ljust(width)}  {c.value:14.6e}  {c.threshold:10.1e}  {status}"
            )
        lines.append("all checks passed" if all_pass else "RESIDUAL BREACH")
        _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY


def _parse_range(text):
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise _UsageError(f"--range must be LO:HI, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError(f"--range bounds must be finite, got {text!r}")
    return lo, hi


def _sweep_row(template, token, value):
    doc = token.sub(f"{value:.17g}", template)
    try:
        # The spectral core of analyze: its columns and all of its failures,
        # without the invertibility bounds and residuals no column prints.
        _, data, verdict, _, _ = _spectral_core(load_system(doc))
    except (ValidationError, ExpressionSyntaxError, NumericalError) as exc:
        reason = str(exc).splitlines()[0].replace(",", ";")
        return f"{value:.12e},,,Error: {reason},"
    multipliers = ";".join(_fmt_complex(z) for z in data.multipliers)
    lyapunov = ";".join(f"{x:.12e}" for x in data.lyapunov)
    oscillatory = "true" if is_oscillatory(data.multipliers) else "false"
    return f"{value:.12e},{multipliers},{lyapunov},{verdict},{oscillatory}"


def _cmd_sweep(args):
    template = _read(args.template)
    # $NAME as a whole token: $A is not the start of $AC.
    token = re.compile(re.escape(f"${args.param}") + r"(?![A-Za-z0-9_])")
    if not token.search(template):
        raise _UsageError(f"template does not mention ${args.param}")
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    lo, hi = _parse_range(args.range)
    values = np.linspace(lo, hi, args.steps) if args.steps > 1 else np.array([lo])
    rows = [_sweep_row(template, token, v) for v in values]
    header = "value,multipliers,lyapunov,verdict,oscillatory"
    _write_out("\n".join([header] + rows) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        handler = {
            "analyze": _cmd_analyze,
            "simulate": _cmd_simulate,
            "factorize": _cmd_factorize,
            "verify": _cmd_verify,
            "sweep": _cmd_sweep,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (ValidationError, ExpressionSyntaxError) as exc:
        sys.stderr.write(f"invalid system document: {exc}\n")
        return EXIT_INPUT
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
