import json
import logging
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import idepcag
from idepcag import analyze, bundled_system_path, load_bundled_system, w_local
from idepcag.cli import main
from idepcag.expressions import param_token
from conftest import scalar_doc, sin_doc

TWO_PI = 2.0 * math.pi


def _spec(name):
    return str(bundled_system_path(name))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _analyze_json(capsys, path, *flags):
    code = main(["analyze", path, *flags])
    out = capsys.readouterr().out
    return code, json.loads(out.replace('"inf"', "1e999"))


# ----------------------------------------------------------------- analyze


@pytest.mark.parametrize(
    "c, verdict, lyapunov",
    [
        (-0.8, "ExponentiallyStable", math.log(0.8)),
        (1.1, "Unbounded", math.log(1.1)),
        (-1.0, "PeriodicNOmega(2)", 0.0),
        (1.0, "PeriodicOmega", 0.0),
    ],
)
def test_analyze_sin_quartet(tmp_path, capsys, c, verdict, lyapunov):
    path = _write(tmp_path, f"sin_{c}.json", sin_doc(c))
    code, report = _analyze_json(capsys, path)
    assert code == 0
    assert report["verdict"] == verdict
    assert report["lyapunov"][0] == pytest.approx(lyapunov, abs=1e-9)
    assert report["monodromy"][0][0][0] == pytest.approx(c, abs=1e-9)


def test_analyze_oscillation_annotation(tmp_path, capsys):
    path = _write(tmp_path, "osc.json", sin_doc(-1.0))
    _, report = _analyze_json(capsys, path)
    assert report["oscillatory"] is True


def test_analyze_byte_identical_reruns(capsys):
    code1 = main(["analyze", _spec("sin_impulse")])
    out1 = capsys.readouterr().out
    code2 = main(["analyze", _spec("sin_impulse")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["analyze", _spec("scalar_impulse"), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "PeriodicNOmega(2)"


def test_analyze_strict_h_exit_code(capsys):
    # the scalar example violates the sufficient invertibility bounds
    assert main(["analyze", _spec("scalar_impulse"), "--strict-h"]) == 2
    assert main(["analyze", _spec("sin_impulse"), "--strict-h"]) == 0


def test_analyze_invalid_document_exit_1(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", "{not json")
    assert main(["analyze", bad]) == 1
    doc = json.loads(scalar_doc(-0.3, 10 / 3))
    doc["args"] = [2.0]
    assert main(["analyze", _write(tmp_path, "grid.json", json.dumps(doc))]) == 1


def test_analyze_missing_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/system.json"]) == 1


@pytest.mark.parametrize("command", [
    ["analyze"], ["verify"], ["sweep", "--param", "AC", "--range=0:1", "--steps", "2"],
])
def test_non_utf8_input_exit_1(tmp_path, capsys, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    assert main([command[0], str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot read {path}: not UTF-8 text (byte 0)\n"


def test_analyze_singular_anchor_exit_3(tmp_path, capsys):
    # B = -1 zeroes J at the right anchor: numerical failure, not input error
    path = _write(tmp_path, "singular.json", scalar_doc(0.0, 2.0))
    assert main(["analyze", path]) == 3


def _jordan_doc(impulse):
    """x' = [[0, 1], [0, 0]] x, so X(omega) = (I + C) [[1, 1], [0, 1]] is defective."""
    return json.dumps({
        "n": 2,
        "omega": 1.0,
        "p": 1,
        "times": [0.0, 1.0],
        "args": [0.0],
        "A": [["0", "1"], ["0", "0"]],
        "B": [["0", "0"], ["0", "0"]],
        "impulses": [[[impulse, 0.0], [0.0, impulse]]],
        "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    })


def test_analyze_defective_monodromy_takes_scipy_logm(tmp_path, capsys):
    # The eigenvectors of a Jordan block are dependent, so P comes from
    # the defective-matrix branch of linalg._logm.
    path = _write(tmp_path, "jordan.json", _jordan_doc(0.0))
    code, report = _analyze_json(capsys, path)
    assert code == 0
    assert report["verdict"] == "MarginalDefective"
    P = np.array([[complex(*z) for z in row] for row in report["P"]])
    assert np.max(np.abs(P - np.array([[0.0, 1.0], [0.0, 0.0]]))) <= 1e-12


def test_analyze_defective_monodromy_on_branch_cut_exit_3(tmp_path, capsys):
    # Impulse factor -I: X(omega) is a Jordan block at -1, which has no
    # principal logarithm.
    path = _write(tmp_path, "jordan_cut.json", _jordan_doc(-2.0))
    assert main(["analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("numerical failure:")


def _python(*args, check=False):
    """A fresh interpreter on this package, which a hang fails after 60 s."""
    src = Path(idepcag.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, check=check)


def _idepcag(*argv):
    """The console command in a fresh interpreter."""
    return _python("-m", "idepcag", *argv)


def _fresh_python(code):
    """The stdout of ``code`` in a fresh interpreter."""
    return _python("-c", code, check=True).stdout


_DEFAULT_PATHS = """
import contextlib, io, json, sys
import idepcag.cli
from idepcag import bundled_system_path

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

report = {"import": loaded(), "codes": []}
spec = str(bundled_system_path("sin_impulse"))
template = str(bundled_system_path("scalar_table_template"))
for argv in (["analyze", spec], ["factorize", spec], ["verify", spec],
             ["sweep", template, "--param", "AC", "--range=-1:1", "--steps", "3"],
             ["simulate", spec, "--x0", "1", "--t-end", "2", "--method", "cauchy"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(idepcag.cli.main(argv))
report["cli"] = loaded()
print(json.dumps(report))
"""


def test_default_paths_load_no_scipy():
    report = json.loads(_fresh_python(_DEFAULT_PATHS))
    assert report == {"import": [], "codes": [0] * 5, "cli": []}


def test_defective_logm_imports_scipy_linalg_at_first_call():
    doc = _jordan_doc(0.0)
    code = f"""
import sys, numpy as np, idepcag
system = idepcag.load_system({doc!r})
before = "scipy.linalg" in sys.modules
P = np.asarray(idepcag.analyze(system).P, dtype=complex)
print(before, "scipy.linalg" in sys.modules, *[float(x).hex() for x in P.view(float).ravel()])
"""
    before, after, *bits = _fresh_python(code).split()
    assert (before, after) == ("False", "True")
    # The same bits as in this process, which imports scipy.linalg first.
    import scipy.linalg  # noqa: F401

    P = np.asarray(analyze(idepcag.load_system(doc)).P, dtype=complex)
    assert bits == [float(x).hex() for x in P.view(float).ravel()]


_ORACLES = {
    "solve_direct": "idepcag.solve_direct(system, [1.0], 2.0, 0.25).states",
    "closed_form_diagonal": "idepcag.closed_form_diagonal(system).P",
}


@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_oracles_import_scipy_integrate_at_first_call(oracle):
    code = f"""
import sys, numpy as np, idepcag
system = idepcag.load_bundled_system("sin_impulse")
before = "scipy.integrate" in sys.modules
out = np.asarray({_ORACLES[oracle]}, dtype=complex)
print(before, "scipy.integrate" in sys.modules, *[float(x).hex() for x in out.view(float).ravel()])
"""
    before, after, *bits = _fresh_python(code).split()
    assert (before, after) == ("False", "True")
    # The same bits as in this process, which imports scipy.integrate first.
    import scipy.integrate  # noqa: F401

    system = load_bundled_system("sin_impulse")
    out = np.asarray(eval(_ORACLES[oracle], {"idepcag": idepcag, "system": system}), dtype=complex)
    assert bits == [float(x).hex() for x in out.view(float).ravel()]


def _growth_doc(A):
    """``x' = A x`` over ``omega = 1``, with ``B = 0`` and no impulse."""
    zero = [["0"] * len(A)] * len(A)
    return json.dumps({"n": len(A), "omega": 1, "p": 1, "times": [0, 1], "args": [0],
                       "A": A, "B": zero, "impulses": [zero]})


@pytest.mark.parametrize("A", [[["400"]], [["356", "1"], ["0", "356"]]], ids=["scalar", "jordan"])
def test_squared_monodromy_past_the_float_range(tmp_path, A):
    # |rho| > 1.34e154, so rho^2 and X @ X overflow while X and P are finite.
    # The defective X took scipy's logm of an inf matrix, which never returned.
    path = _write(tmp_path, "growth.json", _growth_doc(A))
    result = _idepcag("analyze", path)
    assert result.returncode == 0 and result.stderr == ""
    P_real = np.array([[complex(*z) for z in row] for row in json.loads(result.stdout)["P_real"]])
    assert np.abs(P_real - np.array(A, dtype=float)).max() <= 1e-12
    # Q over 2 omega needs X(t) past the float range: a numerical failure.
    result = _idepcag("factorize", path, "--real")
    assert result.returncode in (0, 3)
    if result.returncode == 3:
        assert result.stderr.startswith("numerical failure:")
        assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr


def test_sweep_past_the_float_range_of_the_squared_monodromy(tmp_path):
    template = _write(tmp_path, "growth.json", _growth_doc([["$G", "1"], ["0", "$G"]]))
    result = _idepcag("sweep", template, "--param", "G", "--range=350:400", "--steps", "6")
    assert result.returncode == 0 and result.stderr == ""
    rows = [row.split(",") for row in result.stdout.splitlines()[1:]]
    assert [row[3] for row in rows] == ["Unbounded"] * 6


def _overflow_doc(A="400"):
    """Two intervals of ``x' = A x``: each period step is exp(A), finite for
    A = 400, and X(omega) = exp(2 A) is past the float range."""
    return json.dumps({"n": 1, "omega": 2.0, "p": 2, "times": [0.0, 1.0, 2.0], "args": [0.0, 1.0],
                       "A": [[A]], "B": [["0"]], "impulses": [[[0.0]], [[0.0]]]})


def _one_numerical_failure(result):
    assert result.returncode == 3 and result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("numerical failure:")


@pytest.mark.parametrize("command", [["analyze"], ["verify"], ["factorize"],
                                     ["simulate", "--x0", "1", "--t-end", "4"]])
def test_monodromy_past_the_float_range_is_a_numerical_failure(tmp_path, command):
    path = _write(tmp_path, "overflow.json", _overflow_doc())
    result = _idepcag(command[0], path, *command[1:])
    _one_numerical_failure(result)
    assert "X(omega) is not finite" in result.stderr


def test_sweep_keeps_its_rows_next_to_a_monodromy_past_the_float_range(tmp_path):
    template = _write(tmp_path, "overflow.json", _overflow_doc("$G"))
    result = _idepcag("sweep", template, "--param", "G", "--range=0:400", "--steps", "3")
    assert result.returncode == 0 and result.stderr == ""
    rows = [row.split(",") for row in result.stdout.splitlines()[1:]]
    assert [row[3] for row in rows] == [
        "PeriodicOmega", "Unbounded", "Error: X(omega) is not finite: it leaves the float range"]


@pytest.mark.parametrize("method", ["cauchy", "direct", "both"])
def test_trajectory_past_the_float_range_is_a_numerical_failure(tmp_path, method):
    # X(omega) = exp(400) is finite; the state at t > 709.78 / 400 is not.
    path = _write(tmp_path, "growth.json", _growth_doc([["400"]]))
    result = _idepcag("simulate", path, "--x0", "1", "--t-end", "3", "--method", method)
    _one_numerical_failure(result)
    # Both methods name the time; cauchy runs first under "both".
    named = "x(t) is not finite past t = 1.7" if method == "direct" else "W(t, 0) is not finite at t = 1.785"
    assert named in result.stderr and result.stderr.rstrip().endswith(": it leaves the float range")


def test_unknown_flag_exit_1(capsys):
    assert main(["analyze", _spec("sin_impulse"), "--frobnicate"]) == 1


def test_repeated_calls_share_one_parser_and_give_the_same_results(capsys):
    # The parser is built once per process; a usage error between calls
    # (an unknown flag, a missing required option) leaves nothing behind.
    calls = [
        ["verify", _spec("sin_impulse"), "--format", "json"],
        ["analyze", _spec("scalar_impulse")],
        ["analyze", _spec("sin_impulse"), "--frobnicate"],
        ["sweep", _spec("scalar_table_template"), "--param", "AC", "--range=-1:1", "--steps", "3"],
        ["simulate", _spec("rotation_2x2"), "--t-end", "1"],
        ["simulate", _spec("rotation_2x2"), "--x0=-1,0", "--t-end", "0.5"],
        ["factorize", _spec("sin_impulse"), "--samples", "3", "--format", "csv"],
    ]
    runs = []
    for _ in range(3):
        results = []
        for argv in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((code, out, err))
        runs.append(results)
    assert [code for code, _, _ in runs[0]] == [0, 0, 1, 0, 1, 0, 0]
    assert "--frobnicate" in runs[0][2][2] and "--x0" in runs[0][4][2]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert idepcag.cli._build_parser() is idepcag.cli._build_parser()


def test_invalid_log_level_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("FLOQUET_LOG", "verbose")
    assert main(["analyze", _spec("sin_impulse")]) == 1


# ---------------------------------------------------------------- simulate


def test_simulate_csv_stdout(capsys):
    code = main(["simulate", _spec("scalar_impulse"), "--x0", "6",
                 "--t-end", "2", "--dt-out", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,kind,re_x1,im_x1"
    row = dict(zip(("t", "kind", "re", "im"), lines[2].split(",")))
    assert float(row["re"]) == pytest.approx(2.1, abs=1e-9)


def test_simulate_single_interval_matches_w_local(capsys):
    system = load_bundled_system("rotation_2x2")
    code = main(["simulate", _spec("rotation_2x2"), "--x0", "1,0",
                 "--t-end", "0.5", "--dt-out", "0.25"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        t = float(cells[0])
        x = np.array([float(cells[2]) + 1j * float(cells[3]),
                      float(cells[4]) + 1j * float(cells[5])])
        expected = w_local(system, 0, 0.0, t) @ np.array([1.0, 0.0])
        assert np.abs(x - expected).max() <= 1e-9


def test_simulate_both_reports_discrepancy(tmp_path, capsys):
    out_base = tmp_path / "traj.csv"
    code = main(["simulate", _spec("rotation_2x2"), "--x0", "1,1",
                 "--t-end", str(2 * TWO_PI), "--dt-out", "0.5",
                 "--method", "both", "--out", str(out_base)])
    err = capsys.readouterr().err
    assert code == 0
    assert (tmp_path / "traj_cauchy.csv").exists()
    assert (tmp_path / "traj_direct.csv").exists()
    line = [l for l in err.splitlines() if "max discrepancy" in l][0]
    assert float(line.rsplit(":", 1)[1]) <= 1e-7


def test_simulate_direct_and_both_write_to_stdout(tmp_path, capsys):
    args = ["simulate", _spec("rotation_2x2"), "--x0", "1,1", "--t-end", "2", "--dt-out", "0.5"]
    assert main(args + ["--method", "both", "--out", str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()
    cauchy = (tmp_path / "traj_cauchy.csv").read_text()
    direct = (tmp_path / "traj_direct.csv").read_text()
    assert cauchy != direct
    assert main(args + ["--method", "direct"]) == 0
    captured = capsys.readouterr()
    assert captured.out == direct and captured.err == ""
    assert main(args + ["--method", "both"]) == 0
    captured = capsys.readouterr()
    assert captured.out == cauchy + "\n" + direct
    assert captured.err.startswith("max discrepancy cauchy vs direct: ")


def test_simulate_complex_x0(capsys):
    code = main(["simulate", _spec("sin_impulse"), "--x0", "1+2i",
                 "--t-end", "1.0", "--dt-out", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[2]) == 1.0 and float(first[3]) == 2.0


def test_simulate_x0_with_leading_minus(capsys):
    # Written with '=', so argparse does not read -1,0 as an option.
    code = main(["simulate", _spec("rotation_2x2"), "--x0=-1,0", "--t-end", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1].split(",")[:4] == ["0.000000000000e+00", "sample", "-1.000000000000e+00",
                                       "0.000000000000e+00"]


def test_simulate_x0_dimension_mismatch(capsys):
    assert main(["simulate", _spec("rotation_2x2"), "--x0", "1",
                 "--t-end", "1"]) == 1


def test_simulate_unparsable_x0_exit_1(capsys):
    assert main(["simulate", _spec("rotation_2x2"), "--x0=1,abc", "--t-end", "1"]) == 1
    assert capsys.readouterr().err == "error: cannot parse complex number 'abc'\n"


@pytest.mark.parametrize("method", ["cauchy", "direct", "both"])
@pytest.mark.parametrize("x0", ["nan,0", "1e400,0", "inf,0", "0,-infi", "1,nan+2i"])
def test_simulate_non_finite_x0_exit_1(capsys, method, x0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        code = main(["simulate", _spec("rotation_2x2"), "--x0", x0,
                     "--t-end", "1", "--method", method])
    assert code == 1
    assert "x0 must be finite" in capsys.readouterr().err


def test_simulate_nan_x0_stderr_is_one_error_line():
    src = Path(idepcag.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "idepcag", "simulate", _spec("rotation_2x2"),
         "--x0", "nan,0", "--t-end", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stderr == "error: x0 must be finite\n"


# --------------------------------------------------------------- factorize


def test_factorize_sin_nonimpulsive(tmp_path, capsys):
    path = _write(tmp_path, "sin1.json", sin_doc(1.0))
    code = main(["factorize", path, "--samples", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["P"][0][0][0]) <= 1e-9 and abs(out["P"][0][0][1]) <= 1e-9
    for t, matrix in zip(out["q_samples"]["times"], out["q_samples"]["matrices"]):
        expected = 1.0 + (1.0 - math.cos(2.0 * math.pi * t)) / (2.0 * math.pi)
        assert matrix[0][0][0] == pytest.approx(expected, abs=1e-7)
    assert sorted(out["residuals"]) == ["expm_roundtrip", "q_equation", "q_equation_scale"]
    assert out["residuals"]["expm_roundtrip"] <= 1e-14


def test_factorize_constant_system_recovers_generator(tmp_path, capsys):
    from conftest import constant_doc

    path = _write(tmp_path, "const.json", constant_doc(a=-0.2, c=0.0))
    code = main(["factorize", path, "--samples", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["P"][0][0][0] == pytest.approx(-0.2, abs=1e-10)
    for matrix in out["q_samples"]["matrices"]:
        assert matrix[0][0][0] == pytest.approx(1.0, abs=1e-8)


def test_factorize_real_two_periodic(capsys):
    code = main(["factorize", _spec("scalar_impulse"), "--real", "--samples", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["real"] is True
    assert out["q_period"] == pytest.approx(2.0)
    assert abs(out["P"][0][0][0]) <= 1e-10
    assert out["residuals"]["expm_roundtrip"] <= 1e-14


def test_factorize_samples_past_record_limit_rejected(monkeypatch, capsys):
    monkeypatch.setattr(idepcag.simulate, "MAX_RECORDS", 16)
    assert main(["factorize", _spec("sin_impulse"), "--samples", "16"]) == 0
    assert len(json.loads(capsys.readouterr().out)["q_samples"]["times"]) == 16
    for samples in ("17", "0"):
        assert main(["factorize", _spec("sin_impulse"), "--samples", samples]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --samples must be between 1 and 16\n"


def test_factorize_csv_output(capsys):
    code = main(["factorize", _spec("sin_impulse"), "--samples", "5",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re_q11,im_q11"
    assert len(lines) == 6


# ----------------------------------------------------------------- logging


def test_library_analyze_writes_nothing_to_stderr(capfd, caplog):
    # A library caller that configures no logging gets no stderr output from
    # logging's last-resort handler.  Under pytest the root logger always has
    # handlers, so the caller runs in a fresh interpreter.
    src = Path(idepcag.__file__).resolve().parents[1]
    script = "import idepcag; idepcag.analyze(idepcag.load_bundled_system('scalar_impulse'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    assert capfd.readouterr().err == ""
    with caplog.at_level("WARNING", logger="idepcag"):
        analyze(load_bundled_system("scalar_impulse"))
    assert any("invertibility bounds exceeded" in r.getMessage() for r in caplog.records)
    assert capfd.readouterr().err == ""


def test_floquet_log_honored_on_every_call(monkeypatch, caplog, capsys):
    # scalar_impulse exceeds its invertibility bounds, which logs a warning.
    seen = []
    try:
        for level in ("warn", "error", "warn"):
            monkeypatch.setenv("FLOQUET_LOG", level)
            caplog.clear()
            assert main(["analyze", _spec("scalar_impulse")]) == 0
            seen.append(any("invertibility bounds" in r.getMessage() for r in caplog.records))
    finally:
        logging.getLogger("idepcag").setLevel(logging.NOTSET)
    assert seen == [True, False, True]


# ------------------------------------------------------------------ verify


def test_verify_bundled_systems_pass(capsys):
    for name in ("scalar_impulse", "sin_impulse", "markus_yamabe"):
        assert main(["verify", _spec(name)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out


def test_verify_json_format(capsys):
    assert main(["verify", _spec("sin_impulse"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert any(c["name"] == "biperiodicity_e" for c in doc["checks"])


def test_verify_csv_format(capsys):
    assert main(["verify", _spec("sin_impulse"), "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert main(["verify", _spec("sin_impulse"), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,value,threshold,passed"
    assert [line.split(",") for line in lines[1:]] == [
        [c["name"], f"{c['value']:.12e}", f"{c['threshold']:.12e}", "true"] for c in checks]


def test_verify_loose_tolerances_exit_4(tmp_path, capsys):
    # a valid document whose integrator budget is far too loose to meet
    # the residual thresholds
    doc = json.loads(bundled_system_path("rotation_2x2").read_text())
    doc["tolerances"] = {"ode_abs": 1e-3, "ode_rel": 1e-3, "alg": 1e-9}
    path = _write(tmp_path, "sloppy.json", json.dumps(doc))
    assert main(["verify", path]) == 4
    assert "FAIL" in capsys.readouterr().out


# ------------------------------------------------------------------- sweep


def test_sweep_reproduces_behavior_table(capsys):
    code = main(["sweep", _spec("scalar_table_template"), "--param", "AC",
                 "--range=-1.5:1.5", "--steps", "7"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multipliers,lyapunov,verdict,oscillatory"
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[round(float(cells[0]), 6)] = (cells[3], cells[4])
    assert rows[-1.5] == ("Unbounded", "true")
    assert rows[-1.0] == ("PeriodicNOmega(2)", "true")
    assert rows[-0.5] == ("ExponentiallyStable", "true")
    assert rows[0.5] == ("ExponentiallyStable", "false")
    assert rows[1.0] == ("PeriodicOmega", "false")
    assert rows[1.5] == ("Unbounded", "false")
    assert rows[0.0][0].startswith("Error")


def test_sweep_requires_token_in_template(tmp_path, capsys):
    path = _write(tmp_path, "plain.json", sin_doc(0.5))
    assert main(["sweep", path, "--param", "AC", "--range=0:1", "--steps", "3"]) == 1
    # $A is not a token of a template that mentions only $AC.
    assert main(["sweep", _spec("scalar_table_template"), "--param", "A",
                 "--range=0:1", "--steps", "3"]) == 1
    assert "does not mention $A" in capsys.readouterr().err


def test_sweep_bad_range_exit_1(capsys):
    assert main(["sweep", _spec("scalar_table_template"), "--param", "AC",
                 "--range", "nonsense", "--steps", "3"]) == 1


@pytest.mark.parametrize("bounds", ["nan:1", "0:inf", "-inf:0", "nan:nan"])
def test_sweep_non_finite_range_exit_1(capfd, bounds):
    assert main(["sweep", _spec("scalar_table_template"), "--param", "AC",
                 f"--range={bounds}", "--steps", "3"]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: --range bounds must be finite, got {bounds!r}\n"


def test_sweep_range_past_float_limit_exit_1():
    # HI - LO overflows: linspace would give NaN, inf and 1e308.  Run apart,
    # so a numpy RuntimeWarning would reach stderr.
    src = Path(idepcag.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "idepcag", "sweep", _spec("scalar_table_template"),
         "--param", "AC", "--range=-1e308:1e308", "--steps", "3"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: --range values must be finite, got '-1e308:1e308' in 3 steps\n"


def _trig_template(param_in_a):
    """n = 2, p = 2 template with ``$EPS`` scaling ``B`` (interior anchors),
    or shifting the diagonal of ``A`` (the second anchor advanced)."""
    A = [["-0.3 + 0.4*sin(2*pi*t)", "0.2*cos(2*pi*t)"],
         ["-0.1", "0.1 - 0.5*cos(4*pi*t + 0.7)"]]
    B = [["0.6*sin(2*pi*t + 1.1)", "0.3"],
         ["-0.4*cos(2*pi*t)", "0.5 + 0.2*sin(4*pi*t)"]]
    if param_in_a:
        A = [[f"$EPS + {e}" if i == j else e for j, e in enumerate(row)] for i, row in enumerate(A)]
    else:
        B = [[f"($EPS)*({e})" for e in row] for row in B]
    return json.dumps({
        "n": 2,
        "omega": 1.0,
        "p": 2,
        "times": [0.0, 0.45, 1.0],
        "args": [0.2, 1.0 if param_in_a else 0.7],
        "A": A,
        "B": B,
        "impulses": [[[0.1, 0.0], [0.05, -0.2]], [[-0.1, 0.2], [0.0, 0.15]]],
    })


def _analyze_cells(doc, value):
    """The sweep row of ``value`` formatted from ``analyze`` of ``doc``."""
    try:
        report = analyze(idepcag.load_system(doc))
    except (idepcag.ValidationError, idepcag.NumericalError) as exc:
        reason = str(exc).splitlines()[0].replace(",", ";")
        return [f"{value:.12e}", "", "", f"Error: {reason}", ""]
    return [
        f"{value:.12e}",
        ";".join(f"{z.real:.12e}{z.imag:+.12e}i" for z in report.multipliers),
        ";".join(f"{x:.12e}" for x in report.lyapunov),
        str(report.verdict),
        "true" if report.oscillatory else "false",
    ]


@pytest.mark.parametrize("template, param, lo, hi, steps", [
    ("b", "EPS", -1.0, 1.0, 5),
    ("a", "EPS", -0.5, 0.5, 5),
    ("scalar", "AC", -2.0, 2.0, 9),
])
def test_sweep_rows_equal_analyze(tmp_path, capsys, monkeypatch, template, param, lo, hi, steps):
    if template == "scalar":
        text = bundled_system_path("scalar_table_template").read_text()
    else:
        text = _trig_template(param_in_a=template == "a")
    path = _write(tmp_path, "template.json", text)
    values = np.linspace(lo, hi, steps)
    expected = [_analyze_cells(text.replace(f"${param}", f"{v:.17g}"), v) for v in values]
    assert any(cells[3].startswith("Error:") for cells in expected) == (template == "scalar")

    def never(*args):
        raise AssertionError("sweep computed a column it does not print")

    # Rows skip the invertibility bounds and the residuals of analyze.
    monkeypatch.setattr(idepcag.floquet, "hypothesis_check", never)
    monkeypatch.setattr(idepcag.floquet, "_roundtrip", never)
    assert main(["sweep", path, "--param", param, f"--range={lo!r}:{hi!r}",
                 "--steps", str(steps)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",") for row in rows] == expected


def _damped_doc(a="-17"):
    """Constant triangular 2x2 system with multipliers exp(a) and exp(-1)."""
    return json.dumps({"n": 2, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
                       "A": [[a, "1"], ["0", "-1"]], "B": [["0", "0"], ["0", "0"]],
                       "impulses": [[[0, 0], [0, 0]]],
                       "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9}})


def test_strongly_damped_system_has_real_generator(tmp_path, capsys):
    # exp(-17)^2 is ~1.7e-15, yet X(omega) is invertible, and so is its square.
    path = _write(tmp_path, "damped.json", _damped_doc())
    code, report = _analyze_json(capsys, path)
    assert code == 0
    assert report["verdict"] == "ExponentiallyStable"
    assert report["P_real"][0][0][0] == pytest.approx(-17.0, rel=1e-10)
    assert main(["factorize", path, "--real"]) == 0
    capsys.readouterr()
    template = _write(tmp_path, "damped_template.json", _damped_doc("$K"))
    assert main(["sweep", template, "--param", "K", "--range=-20:-10", "--steps", "11"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 11 and not any("Error:" in row for row in rows)


def test_sweep_serial_matches_pooled_output(capsys):
    # tests/data/scalar_table_sweep.csv pins the sweep's bytes, roundoff
    # included; it was last written by the serial sweep after the transition
    # layer moved to Magnus steps, which took three cells (two Lyapunov
    # exponents and one |det J|) from roundoff to exactly 0.
    expected = (Path(__file__).parent / "data" / "scalar_table_sweep.csv").read_text()
    code = main(["sweep", _spec("scalar_table_template"), "--param", "AC",
                 "--range=-2:2", "--steps", "17"])
    assert code == 0
    assert capsys.readouterr().out == expected


def test_sweep_table_matches_closed_form(capsys):
    # x' = (AC/2 - 1) x([t]) on [0, 1) takes x0 to x0 AC/2, and the impulse
    # doubles it: the multiplier is AC and the Lyapunov exponent log|AC|.
    # AC = 0 makes J(1, 0) = AC/2 vanish at the right anchor.
    assert main(["sweep", _spec("scalar_table_template"), "--param", "AC",
                 "--range=-2:2", "--steps", "17"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 17
    for i, line in enumerate(rows):
        value, multiplier, lyapunov, verdict, _ = line.split(",")
        ac = -2.0 + 0.25 * i
        assert float(value) == ac
        if ac == 0.0:
            assert (multiplier, lyapunov) == ("", "")
            assert verdict.startswith("Error: J(t_{k+1}; zeta_k) is singular on interval 0")
            continue
        assert abs(complex(multiplier.replace("i", "j")) - ac) <= 1e-12
        assert abs(float(lyapunov) - math.log(abs(ac))) <= 1e-12


def _sweep_cells(tmp_path, capsys, text, param, lo, hi, steps):
    """Rows of a sweep of ``text``, each checked against ``_analyze_cells``
    of its own substituted document; whether the rows shared one parse."""
    path = _write(tmp_path, "template.json", text)
    values = np.linspace(lo, hi, steps)
    expected = [_analyze_cells(text.replace(f"${param}", f"{v:.17g}"), v) for v in values]
    assert main(["sweep", path, "--param", param, f"--range={lo!r}:{hi!r}",
                 "--steps", str(steps)]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert rows == expected
    shared = idepcag.model.Template(text, param_token(param))._family is not None
    return rows, shared


def _trig_doc(**fields):
    return json.dumps({**json.loads(_trig_template(param_in_a=False)), **fields})


def test_sweep_pins_trig_template_bytes(tmp_path, capsys):
    # tests/data/trig_eps_sweep.csv was written by the sweep that analyzed
    # one substituted document per row; the range covers negative values and 0.
    path = _write(tmp_path, "template.json", _trig_template(param_in_a=False))
    expected = (Path(__file__).parent / "data" / "trig_eps_sweep.csv").read_text()
    assert main(["sweep", path, "--param", "EPS", "--range=-1:1", "--steps", "9"]) == 0
    assert capsys.readouterr().out == expected


def test_sweep_rows_split_across_blocks_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(idepcag.cli, "_sweep_block", lambda template: 3)
    test_sweep_pins_trig_template_bytes(tmp_path, capsys)
    test_sweep_serial_matches_pooled_output(capsys)


def _block(text):
    return idepcag.cli._sweep_block(idepcag.model.Template(text, param_token("EPS")))


def test_sweep_block_holds_its_rows_at_their_most_steps():
    # Four branches of 2^13 + 1 nodes of 4 x 4 entries per row of the trig template.
    per_row = 4 * (idepcag.transition._N_MAX + 1) * 16
    assert _block(_trig_template(param_in_a=False)) == idepcag.cli.SWEEP_ELEMENTS // per_row > 1
    # n = 10, p = 5: one row alone can hold more than a block.
    n, p = 10, 5
    big = json.dumps({
        "n": n, "omega": 1.0, "p": p, "times": [k / p for k in range(p + 1)],
        "args": [(k + 0.5) / p for k in range(p)],
        "A": [["$EPS*sin(2*pi*t)" if i == j else "0" for j in range(n)] for i in range(n)],
        "B": [["0"] * n for _ in range(n)],
        "impulses": [[[0.0] * n for _ in range(n)] for _ in range(p)],
    })
    assert _block(big) == 1
    # Rows that load their own documents build alone.
    assert _block(_trig_doc(args=["$EPS", 0.7]).replace('"$EPS"', "$EPS")) == 1


def test_sweep_batch_nodes_and_monodromy_bytes_equal_each_document():
    # exp($EPS) and cos($EPS) evaluate on an array of the rows' values in a
    # batch, and on a literal in each substituted document.
    text = _trig_doc(B=[["exp($EPS)*sin(2*pi*t)", "0.3*cos($EPS)"],
                        ["-0.4*cos(2*pi*t)", "0.5*exp(-$EPS) + $EPS*sin(4*pi*t)"]])
    template = idepcag.model.Template(text, param_token("EPS"))
    assert template.shape is not None
    values = np.linspace(-1.0, 1.0, 9)
    # A batch of eight rows, and a batch of one.
    systems = template.load(values[:8]) + template.load(values[8:])
    assert idepcag.transition.build_operators(systems[:8]) == [None] * 8
    assert idepcag.transition.build_operators(systems[8:]) == [None]
    for value, system in zip(values, systems):
        alone = idepcag.load_system(text.replace("$EPS", f"{value:.17g}"))
        for ops, ops_alone in zip(*map(idepcag.interval_operators, (system, alone))):
            assert ops._nodes.tobytes() == ops_alone._nodes.tobytes()
        assert idepcag.monodromy(system).tobytes() == idepcag.monodromy(alone).tobytes()


@pytest.mark.parametrize("field, value, lo, hi", [
    ("impulses", [[["$EPS", 0.0], [0.05, -0.2]], [[-0.1, 0.2], [0.0, 0.15]]], -1.5, 0.5),
    ("args", ["$EPS", 0.7], -0.1, 0.5),
])
def test_sweep_token_outside_expressions_loads_each_row(tmp_path, capsys, field, value, lo, hi):
    # Unquoted, the token makes the template itself invalid JSON.
    text = _trig_doc(**{field: value}).replace('"$EPS"', "$EPS")
    rows, shared = _sweep_cells(tmp_path, capsys, text, "EPS", lo, hi, 5)
    assert not shared
    assert any(row[3].startswith("Error:") for row in rows)
    assert not all(row[3].startswith("Error:") for row in rows)


@pytest.mark.parametrize("text, loads", [
    # An escape decodes to another text than the one substituted.
    (_trig_template(param_in_a=False).replace("(0.3)", "(0.3)\\u0020"), True),
    ("[" + _trig_template(param_in_a=False) + "]", False),
    # The token inside a string the document does not parse as an expression.
    (_trig_doc(note="run $EPS"), True),
], ids=["escape", "root_not_an_object", "token_in_another_string"])
def test_sweep_template_the_parse_cannot_share_loads_each_row(tmp_path, capsys, text, loads):
    rows, shared = _sweep_cells(tmp_path, capsys, text, "EPS", -1.0, 1.0, 3)
    assert not shared
    assert idepcag.model.Template(text, param_token("EPS")).shape is None
    assert [row[3].startswith("Error:") for row in rows] == [not loads] * 3


def _quarter_turn(b="0"):
    """``A = 0`` and ``I + C_1`` turning by pi/2: ``X(omega)`` is that turn
    exactly (with ``b = 0``), with multipliers exactly +-i."""
    return json.dumps({
        "n": 2, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
        "A": [["0", "0"], ["0", "0"]], "B": [[b, "0"], ["0", "0"]],
        "impulses": [[[-1, -1], [1, -1]]],
    })


def test_quarter_turn_has_no_real_generator(tmp_path, capsys):
    # X^2 = -I exactly: the principal logarithm is i pi I, which is not real.
    code, report = _analyze_json(capsys, _write(tmp_path, "turn.json", _quarter_turn()))
    assert code == 0
    assert report["multipliers"] == [[0.0, -1.0], [0.0, 1.0]]
    assert report["P_real"] is None and report["P"] is not None
    assert report["verdict"] == "PeriodicNOmega(4)"
    rows, shared = _sweep_cells(tmp_path, capsys, _quarter_turn("$EPS"), "EPS", 0.0, 1.0, 2)
    assert shared
    assert rows[0][3] == "PeriodicNOmega(4)"


def _turn_by_the_flow(angle):
    """``A = angle J`` over ``omega = 1`` with no impulse and ``B = 0``:
    ``X(omega)`` turns by ``angle``, with multipliers ``exp(-+i angle)``."""
    return json.dumps({
        "n": 2, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
        "A": [["0", f"-({angle})"], [angle, "0"]], "B": [["0", "0"], ["0", "0"]],
        "impulses": [[[0, 0], [0, 0]]],
    })


@pytest.mark.parametrize("text, real", [
    (_quarter_turn(), False),
    (_turn_by_the_flow("0.5*pi"), False),
    (_turn_by_the_flow("0.5*pi - 0.000001"), True),
], ids=["impulse", "flow", "flow-short"])
def test_real_generator_of_turns_near_a_quarter(tmp_path, capsys, text, real):
    # The flow's quarter turn has multipliers 8.3e-17 -+ 1.0i, whose squares
    # sit within roundoff of -1: no real generator, as for the impulse's
    # exact +-i.  1e-6 short of the quarter, the squares are 2e-6 off the
    # negative real axis, and there is one.
    path = _write(tmp_path, "turn.json", text)
    code, report = _analyze_json(capsys, path)
    assert code == 0
    assert (report["P_real"] is not None) == real and report["P"] is not None
    assert main(["factorize", path, "--real"]) == (0 if real else 3)
    err = capsys.readouterr().err
    if not real:
        assert err.startswith("numerical failure: principal log of the squared matrix is not real")


@pytest.mark.parametrize("entries, shares", [
    ({"A": [["-0.3 + $EPS^2*sin(2*pi*t)", "0.2*cos(2*pi*t)"], ["-0.1", "($EPS)^3 - 0.2"]]}, False),
    ({"B": [["2*$EPS", "0.3"], ["-$EPS*cos(2*pi*t)", "0.5 - $EPS + sin($EPS)"]]}, True),
    ({"B": [["0.6", "0.3"], ["2$EPS", "0.5"]]}, False),
])
def test_sweep_powers_and_signs_of_negative_values(tmp_path, capsys, entries, shares):
    # -0.5^2 is -(0.5^2): substitution and a variable differ in a power's
    # base, so such a template loads each row; signs elsewhere are exact.
    _, shared = _sweep_cells(tmp_path, capsys, _trig_doc(**entries), "EPS", -1.0, 0.5, 7)
    assert shared == shares


def test_sweep_certificate_failure_next_to_loading_rows(tmp_path, capsys):
    text = _trig_doc(A=[["-0.3 + $EPS*t", "0.2*cos(2*pi*t)"], ["-0.1", "0.1"]])
    rows, shared = _sweep_cells(tmp_path, capsys, text, "EPS", -4e-9, 4e-9, 5)
    assert shared
    failed = [row[3] for row in rows if row[3].startswith("Error:")]
    assert failed and len(failed) < len(rows)
    assert all("periodicity certificate failed: max |M(t+omega) - M(t)| = 4.000e-09" in reason
               for reason in (failed[0], failed[-1]))


def test_sweep_certificate_scales_with_each_row(tmp_path, capsys):
    # 2e-9 t breaks periodicity by 2e-9: the certificate's bound is 1e-9
    # max(1, max|A(t)|), so the rows with |EPS| > 2 load and the others fail.
    text = _trig_doc(A=[["$EPS*cos(2*pi*t) + 2e-9*t", "0.2"], ["-0.1", "0.1"]])
    rows, _ = _sweep_cells(tmp_path, capsys, text, "EPS", -4.0, 4.0, 5)
    assert [row[3].startswith("Error: A: periodicity certificate failed") for row in rows] == [
        False, True, True, True, False]


def test_sweep_singular_anchor_next_to_good_rows(tmp_path, capsys):
    text = bundled_system_path("scalar_table_template").read_text()
    rows, shared = _sweep_cells(tmp_path, capsys, text, "AC", -1.0, 1.0, 5)
    assert shared
    assert [row[3].startswith("Error: J(t_{k+1}; zeta_k) is singular") for row in rows] == \
        [False, False, True, False, False]


def _two_failing_branches(scale):
    """One interval anchored at 0.5 whose coefficient, times ``scale``, is
    smooth on the second branch [0.5, 1] and oscillates fast on the first,
    [0.5, 0] (the envelope is below 1e-12 on [0.5, 1])."""
    oscillation = "cos(80*pi*t)*(0.5 + 0.5*cos(2*pi*(t - 0.25)))^40"
    return json.dumps({
        "n": 1, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.5],
        "A": [[f"0.1*cos(2*pi*t) + {scale}*(20*sin(2*pi*t) + {oscillation})"]],
        "B": [["0.2"]], "impulses": [[[0.1]]],
        "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    })


def test_system_reports_its_first_failed_branch(tmp_path, capsys, monkeypatch):
    # Capped at 32 steps, the smooth second branch predicts past the cap
    # and fails in the third round of passes; the first doubles and fails
    # in the fourth.  The system reports the first branch's error.
    monkeypatch.setattr(idepcag.transition, "_N_MAX", 32)
    first = "Magnus integration on [0.5, 0.0] missed its tolerance at 32 steps"
    passes = []
    real_pass = idepcag.transition._magnus_pass

    def spy(A, B, t0, t1, N, *param):
        passes.append((t1.tolist(), N))
        return real_pass(A, B, t0, t1, N, *param)

    monkeypatch.setattr(idepcag.transition, "_magnus_pass", spy)
    with pytest.raises(idepcag.NumericalError) as failed:
        analyze(idepcag.load_system(_two_failing_branches("1")))
    assert str(failed.value).startswith(first)
    assert passes == [([0.0, 1.0], 2), ([0.0, 1.0], 4), ([0.0, 1.0], 8),
                      ([0.0], 16), ([1.0], 32), ([0.0], 32)]
    monkeypatch.setattr(idepcag.transition, "_magnus_pass", real_pass)

    # As a sweep row next to a good row, and in a block of one.
    text = _two_failing_branches("$EPS")
    template = idepcag.model.Template(text, param_token("EPS"))
    assert idepcag.cli._sweep_block(template) >= 2
    rows, shared = _sweep_cells(tmp_path, capsys, text, "EPS", 0.0, 1.0, 2)
    assert shared and rows[1][3].startswith("Error: " + first.replace(",", ";"))
    assert not rows[0][3].startswith("Error:")
    monkeypatch.setattr(idepcag.cli, "_sweep_block", lambda template: 1)
    assert _sweep_cells(tmp_path, capsys, text, "EPS", 0.0, 1.0, 2)[0] == rows
    # The good row's nodes are those of its document alone.
    systems = template.load(np.array([0.0, 1.0]))
    good, bad = idepcag.transition.build_operators(systems)
    assert good is None and str(bad).startswith(first)
    alone = idepcag.load_system(text.replace("$EPS", "0"))
    for ops, ops_alone in zip(*map(idepcag.interval_operators, (systems[0], alone))):
        assert ops._nodes.tobytes() == ops_alone._nodes.tobytes()


def test_sweep_repeats_only_the_rows_whose_monodromy_needs_it(tmp_path, capsys, monkeypatch):
    # At EPS = 1 this document's X(omega) misses its tolerance although its
    # branch does not, so that row alone is integrated again.
    from test_stepping import _generated_doc
    doc = json.loads(_generated_doc(106716828, 3, ("advanced",)))
    doc["tolerances"] = {"ode_abs": 1e-8, "ode_rel": 1e-8, "alg": 1e-9}
    doc["B"] = [[f"($EPS)*({e})" for e in row] for row in doc["B"]]
    segments = []
    magnus = idepcag.transition._magnus
    monkeypatch.setattr(idepcag.transition, "_magnus",
                        lambda *a, **k: segments.append(len(a[3])) or magnus(*a, **k))
    _, shared = _sweep_cells(tmp_path, capsys, json.dumps(doc), "EPS", 0.0, 1.0, 5)
    # _analyze_cells integrates each row alone: 1 + 1 + 1 + 1 + 2 calls.
    assert shared and segments[-2:] == [5, 1] and len(segments) == 8


def test_sweep_steps_past_record_limit_rejected(monkeypatch, capfd):
    args = ["sweep", _spec("scalar_table_template"), "--param", "AC", "--range=-2:2", "--steps"]
    started = time.perf_counter()
    assert main(args + ["10000000000000"]) == 1
    assert time.perf_counter() - started < 1.0
    out, err = capfd.readouterr()
    limit = idepcag.simulate.MAX_RECORDS
    assert out == "" and err == f"error: --steps must be between 1 and {limit}\n"
    monkeypatch.setattr(idepcag.simulate, "MAX_RECORDS", 16)
    assert main(args + ["16"]) == 0
    assert len(capfd.readouterr().out.splitlines()) == 17
    for steps in ("17", "0"):
        assert main(args + [steps]) == 1
        out, err = capfd.readouterr()
        assert out == "" and err == "error: --steps must be between 1 and 16\n"


# ------------------------------------------------- adversarial coefficients


@pytest.mark.parametrize("entry", ["1e999*0", "exp(1000)*0", "2^2000*0"])
def test_non_finite_coefficients_exit_1_promptly(tmp_path, capsys, entry):
    doc = json.loads(scalar_doc(-0.3, 10.0 / 3.0))
    doc["B"] = [[entry]]
    path = _write(tmp_path, "nonfinite.json", json.dumps(doc))
    start = time.perf_counter()
    assert main(["analyze", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert "not finite" in capsys.readouterr().err


def test_exponent_longer_than_int_digit_limit_exit_1(tmp_path, capsys):
    doc = json.loads(scalar_doc(-0.3, 10.0 / 3.0))
    doc["B"] = [["t^" + "1" * 5000]]
    assert main(["analyze", _write(tmp_path, "long.json", json.dumps(doc))]) == 1
    err = capsys.readouterr().err
    assert "invalid system document" in err and "at position 2" in err


@pytest.mark.parametrize("flag, value", [("--t-end", "nan"), ("--t-end", "inf"),
                                         ("--dt-out", "nan"), ("--dt-out", "inf")])
def test_simulate_non_finite_times_exit_1(capsys, flag, value):
    argv = ["simulate", _spec("scalar_impulse"), "--x0", "1", "--t-end", "2", flag, value]
    assert main(argv) == 1
    assert "finite" in capsys.readouterr().err


def test_simulate_horizon_past_record_limit_exit_1_promptly(capsys):
    # Before the record limit, the schedule walked all 3e7 breakpoints of
    # this horizon one Python step at a time before anything checked it.
    argv = ["simulate", _spec("scalar_impulse"), "--x0", "1",
            "--t-end", "3e7", "--dt-out", "1e-3"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert "records, more than" in capsys.readouterr().err


def test_verify_advanced_anchor_at_impulse_passes(tmp_path, capsys):
    # zeta_0 = t_1: the first interval reads x at its right end, before the
    # impulse there, so the Q equation needs the left limit of Q.
    doc = {
        "n": 2,
        "omega": 2.0,
        "p": 2,
        "times": [0.0, 0.8, 2.0],
        "args": [0.8, 1.3],
        "A": [["-0.3 + 0.2*sin(pi*t)", "0.1"], ["-0.1", "-0.2"]],
        "B": [["0.15", "0.05*cos(pi*t)"], ["0", "0.1"]],
        "impulses": [[[0.5, 0.1], [0.0, -0.3]], [[-0.2, 0.0], [0.1, 0.4]]],
    }
    path = _write(tmp_path, "advanced.json", json.dumps(doc))
    assert main(["verify", path]) == 0
    assert "all checks passed" in capsys.readouterr().out
