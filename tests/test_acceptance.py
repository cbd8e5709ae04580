"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE n (<label>): PASS/FAIL`` line (run
pytest with ``-s`` to see them) and enforces the stated runtime budget.
Systems are loaded fresh inside every timed block so the budgets cover the
full computation, not a warm cache.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import idepcag as pk
from idepcag.cli import main
from conftest import sin_doc

TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"\nACCEPTANCE {number} ({label}): FAIL [{elapsed:.2f}s over the {budget}s budget]")
        raise AssertionError(f"runtime {elapsed:.2f}s over the {budget}s budget")
    print(f"\nACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")


def test_criterion_1_scalar_monodromy():
    with criterion(1, "scalar example monodromy and verdict", budget=1.0):
        system = pk.load_bundled_system("scalar_impulse")
        X = pk.monodromy(system)
        assert abs(X[0, 0] - (-1.0)) <= 1e-12
        report = pk.analyze(system)
        assert str(report.verdict) == "PeriodicNOmega(2)"
        assert report.oscillatory is True


def test_criterion_2_behavior_table_sweep(capsys):
    with criterion(2, "behavior-table sweep over AC", budget=5.0):
        code = main(["sweep", str(pk.bundled_system_path("scalar_table_template")),
                     "--param", "AC", "--range=-1.5:1.5", "--steps", "7"])
        out = capsys.readouterr().out
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            rows[round(float(cells[0]), 6)] = (cells[3], cells[4])
        assert rows[-1.5] == ("Unbounded", "true")            # oscillatory blow-up
        assert rows[-1.0] == ("PeriodicNOmega(2)", "true")    # 2-periodic oscillation
        assert rows[-0.5] == ("ExponentiallyStable", "true")  # oscillatory decay
        assert rows[0.5] == ("ExponentiallyStable", "false")  # plain decay
        assert rows[1.0] == ("PeriodicOmega", "false")        # nontrivial periodic
        assert rows[1.5] == ("Unbounded", "false")            # monotone blow-up
    print(f"ACCEPTANCE 2 note: AC=0 row -> {rows[0.0][0][:40]}... (singular anchor)")


def test_criterion_3_sin_quartet(tmp_path, capsys):
    with criterion(3, "zero-mean forcing quartet", budget=10.0):
        expected = {
            -0.8: ("ExponentiallyStable", math.log(4.0 / 5.0)),
            1.1: ("Unbounded", math.log(1.1)),
            -1.0: ("PeriodicNOmega(2)", 0.0),
            1.0: ("PeriodicOmega", 0.0),
        }
        for c, (verdict, lyapunov) in expected.items():
            path = tmp_path / f"sin_{c}.json"
            path.write_text(sin_doc(c))
            code = main(["analyze", str(path)])
            report = json.loads(capsys.readouterr().out)
            assert code == 0
            assert report["verdict"] == verdict, f"c={c}"
            assert report["lyapunov"][0] == pytest.approx(lyapunov, abs=1e-9)
            # X(1) = c exercises the zero-mean quadrature of sin(2 pi t)
            assert report["monodromy"][0][0][0] == pytest.approx(c, abs=1e-9)


def test_criterion_4_rotation_example():
    with criterion(4, "2x2 rotating-frame example", budget=5.0):
        system = pk.load_bundled_system("rotation_2x2")
        X = pk.monodromy(system)
        values = sorted(pk.eig(X).eigenvalues, key=lambda z: z.imag)
        expected = sorted([0.878964 - 1.05742j, 0.878964 + 1.05742j], key=lambda z: z.imag)
        for z, w in zip(values, expected):
            assert abs(z - w) <= 1e-3
        report = pk.analyze(system)
        assert str(report.verdict) == "Unbounded"
        Phi = pk.fundamental_matrix(system, 0.0, TWO_PI)
        assert pk.norm1(Phi - np.eye(2)) <= 1e-8
        # pin the generator through its round-trip rather than literal entries
        P = pk.floquet_P(X, TWO_PI)
        assert pk.norm1(pk.expm(P * TWO_PI) - X) <= 1e-8 * pk.norm1(X)


def test_criterion_5_markus_yamabe_counterexample():
    with criterion(5, "frozen-eigenvalue counterexample", budget=5.0):
        system = pk.load_bundled_system("markus_yamabe")
        report = pk.analyze(system)
        got = sorted(report.multipliers.real)
        expected = sorted([-math.exp(math.pi / 2.0), -math.exp(-math.pi)])
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-6 * abs(e)
        assert np.abs(report.multipliers.imag).max() <= 1e-9
        assert str(report.verdict) == "Unbounded"
        # the pointwise eigenvalues of A(t) are constant with negative real
        # part, which is exactly what the verdict contradicts
        A0 = system.A.eval(0.0)
        assert np.all(pk.eig(A0).eigenvalues.real < 0)


def test_criterion_6_structural_identity_suite():
    with criterion(6, "structural identities on all bundled systems", budget=30.0):
        for name in pk.BUNDLED_SYSTEMS:
            system = pk.load_bundled_system(name)
            checks = {c.name: c for c in pk.structural_residuals(system)}
            assert checks["monodromy_refined"].value <= 1e-8, name
            assert checks["q_equation"].value <= 1e-5, name  # scale-normalized
            for op in ("phi", "j", "e"):
                assert checks[f"biperiodicity_{op}"].value <= 1e-7, name


def test_criterion_7_oracle_equivalences():
    with criterion(7, "independent-oracle equivalences", budget=30.0):
        # direct integrator against the operator pipeline, five periods
        for name in pk.BUNDLED_SYSTEMS:
            system = pk.load_bundled_system(name)
            x0 = np.ones(system.n)
            t_end = 5.0 * system.omega
            a = pk.solve_cauchy(system, x0, t_end, system.omega / 6.0)
            b = pk.solve_direct(system, x0, t_end, system.omega / 6.0)
            scale = max(1.0, float(np.abs(a.states).max()))
            assert pk.max_discrepancy(a, b) <= 1e-7 * scale, name

        # diagonal closed form against the numeric pipeline
        for name in ("scalar_impulse", "sin_impulse"):
            system = pk.load_bundled_system(name)
            closed = pk.closed_form_diagonal(system)
            P = pk.floquet_P(pk.monodromy(system), system.omega)
            assert pk.norm1(closed.P - P) <= 1e-7, name
            for t in np.linspace(0.05, 4.3, 9):
                gap = abs(closed.X(t)[0, 0] - pk.cauchy_matrix(system, t)[0, 0])
                assert gap <= 1e-7, name

        # degenerate reductions: impulsive-ODE product (B = 0) and plain
        # piecewise-argument product (C = 0)
        my = pk.load_bundled_system("markus_yamabe")
        for t in (2.0, 4.5):
            k = my.grid.locate(t)[0]
            product = pk.fundamental_matrix(my, k * my.omega, t)
            for r in range(k, 0, -1):
                product = product @ pk.fundamental_matrix(my, (r - 1) * my.omega, r * my.omega)
            assert pk.norm1(pk.cauchy_matrix(my, t) - product) <= 1e-8

        depcag = pk.load_system(sin_doc(1.0))
        for t in (0.7, 1.8, 2.5):
            k = depcag.grid.locate(t)[0]
            product = np.eye(1)
            for r in range(1, k + 1):
                product = pk.e_matrix(depcag, float(r - 1), float(r)) @ product
            product = pk.e_matrix(depcag, float(k), t) @ product
            assert pk.norm1(pk.cauchy_matrix(depcag, t) - product) <= 1e-8


def test_criterion_8_multiplier_property():
    with criterion(8, "multiplier equation on the 2x2 example", budget=10.0):
        system = pk.load_bundled_system("rotation_2x2")
        X = pk.monodromy(system)
        spectrum = pk.eig(X)
        sample_times = np.linspace(0.3, TWO_PI - 0.3, 7)
        for j, rho in enumerate(spectrum.eigenvalues):
            v = spectrum.eigenvectors[:, j]
            for t in sample_times:
                x_t = pk.cauchy_matrix(system, t) @ v
                x_tw = pk.cauchy_matrix(system, t + TWO_PI) @ v
                assert np.linalg.norm(x_tw - rho * x_t) <= 1e-5 * np.linalg.norm(x_t)


def test_criterion_9_kernel_properties():
    with criterion(9, "numeric kernel properties", budget=20.0):
        rng = np.random.default_rng(90)

        count = 0
        while count < 100:  # expm/logm round-trip on nonsingular matrices
            n = int(rng.integers(1, 7))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            count += 1
            L = pk.logm_principal(M)
            assert pk.norm1(pk.expm(L) - M) <= 1e-8 * max(1.0, pk.norm1(M))

        for _ in range(100):  # Liouville identity for expm
            n = int(rng.integers(1, 7))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            M *= 5.0 / max(pk.norm1(M), 5.0)
            lhs = np.linalg.det(pk.expm(M))
            rhs = np.exp(np.trace(M))
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

        for _ in range(100):  # eigensolver residual and determinant contracts
            n = int(rng.integers(1, 7))
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            spectrum = pk.eig(M)
            d = np.linalg.det(M)
            assert abs(np.prod(spectrum.eigenvalues) - d) <= 1e-8 * max(1.0, abs(d))
            for j, rho in enumerate(spectrum.eigenvalues):
                v = spectrum.eigenvectors[:, j]
                residual = np.linalg.norm(M @ v - rho * v)
                assert residual <= 1e-8 * pk.norm1(M) * np.linalg.norm(v)
