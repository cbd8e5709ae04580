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
    except idepcag.NumericalError as exc:
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
    monkeypatch.setattr(idepcag.floquet, "_spectral_residuals", never)
    assert main(["sweep", path, "--param", param, f"--range={lo!r}:{hi!r}",
                 "--steps", str(steps)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",") for row in rows] == expected


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
