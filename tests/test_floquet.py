import cmath
import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

import idepcag.floquet as floquet
import idepcag.linalg as linalg
from idepcag import (
    BOUNDED_NON_PERIODIC,
    BUNDLED_SYSTEMS,
    EXPONENTIALLY_STABLE,
    MARGINAL_DEFECTIVE,
    PERIODIC_N_OMEGA,
    PERIODIC_OMEGA,
    UNBOUNDED,
    analyze,
    bundled_system_path,
    cauchy_matrix,
    cauchy_matrix_left,
    classify,
    closed_form_diagonal,
    eig,
    e_matrix,
    expm,
    floquet_P,
    floquet_P_real,
    floquet_exponents,
    fundamental_matrix,
    interval_operators,
    is_oscillatory,
    load_bundled_system,
    load_system,
    monodromy,
    norm1,
    periodic_solution_test,
    q_factor,
    structural_residuals,
    verify_normal_form,
)
from idepcag.cli import main
from idepcag.linalg import NumericalError
from conftest import constant_doc, scalar_doc

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------ cauchy matrix


def test_cauchy_at_zero_is_identity(rotation_system):
    assert np.array_equal(cauchy_matrix(rotation_system, 0.0), np.eye(2))


def test_cauchy_first_interval_is_local(scalar_system):
    # before the first breakpoint there are no impulse factors
    assert cauchy_matrix(scalar_system, 0.5)[0, 0] == pytest.approx(0.35, abs=1e-12)


def test_cauchy_scalar_paper_value(scalar_system):
    # (AC)^2 (1 + (A-1) 0.5) = 0.35 at t = 2.5
    assert cauchy_matrix(scalar_system, 2.5)[0, 0] == pytest.approx(0.35, abs=1e-12)


def test_cauchy_left_limits_power_law(sin_system):
    # z(k^-) = c^{k-1} (1 + int_{k-1}^k sin) = c^{k-1}
    c = -0.8
    for k in (1, 2, 3):
        left = cauchy_matrix_left(sin_system, float(k))[0, 0]
        assert left == pytest.approx(c ** (k - 1), abs=1e-9)
        post = cauchy_matrix(sin_system, float(k))[0, 0]
        assert post == pytest.approx(c**k, abs=1e-9)


def test_cauchy_rejects_negative_time(scalar_system):
    with pytest.raises(ValueError):
        cauchy_matrix(scalar_system, -0.1)


def test_cauchy_left_limit_rejects_time_zero(scalar_system):
    with pytest.raises(ValueError, match="left limits exist for t > 0 only"):
        cauchy_matrix_left(scalar_system, 0.0)


# -------------------------------------------------------------- monodromy


def test_monodromy_scalar_exact(scalar_system):
    X = monodromy(scalar_system)
    assert abs(X[0, 0] + 1.0) <= 1e-12  # AC = -0.3 * 10/3 = -1


def test_monodromy_sin_equals_c(sin_system):
    assert monodromy(sin_system)[0, 0] == pytest.approx(-0.8, abs=1e-9)


def test_monodromy_rotation_spectrum(rotation_system):
    values = eig(monodromy(rotation_system)).eigenvalues
    expected = sorted([0.878964 + 1.05742j, 0.878964 - 1.05742j], key=lambda z: z.imag)
    for z, w in zip(sorted(values, key=lambda z: z.imag), expected):
        assert abs(z - w) <= 1e-3


def test_monodromy_consistent_with_cauchy(my_system):
    X = monodromy(my_system)
    W = cauchy_matrix(my_system, my_system.omega)
    assert norm1(X - W) <= 1e-8 * norm1(X)


# ------------------------------------------------------ exponents and co.


def test_exponents_two_periodic_case():
    data = floquet_exponents(np.array([[-1.0]]), 1.0)
    assert data.exponents[0] == pytest.approx(1j * math.pi, abs=1e-14)
    assert data.lyapunov[0] == pytest.approx(0.0, abs=1e-14)


def test_exponents_decaying_case():
    data = floquet_exponents(np.array([[-0.8]]), 1.0)
    assert data.lyapunov[0] == pytest.approx(math.log(0.8), abs=1e-12)


def test_exponents_trivial_case():
    data = floquet_exponents(np.array([[1.0]]), 1.0)
    assert data.exponents[0] == 0.0


def test_exponent_scaling_with_period():
    data = floquet_exponents(np.diag([math.e, 1.0]), 2.0)
    assert data.exponents[0] == pytest.approx(0.5, abs=1e-14)


# ----------------------------------------------------------- classification


def test_classify_contraction():
    verdict = classify(np.array([0.5 + 0j]), np.array([[0.5]]), 1e-9)
    assert verdict.kind == EXPONENTIALLY_STABLE


def test_classify_growth():
    verdict = classify(np.array([1.1 + 0j]), np.array([[1.1]]), 1e-9)
    assert verdict.kind == UNBOUNDED


def test_classify_mixed_growth_wins():
    X = np.diag([0.5, 2.0])
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert verdict.kind == UNBOUNDED


def test_classify_omega_periodic():
    X = np.eye(2)
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert verdict.kind == PERIODIC_OMEGA
    assert str(verdict) == "PeriodicOmega"


def test_classify_two_periodic():
    verdict = classify(np.array([-1.0 + 0j]), np.array([[-1.0]]), 1e-9)
    assert (verdict.kind, verdict.n) == (PERIODIC_N_OMEGA, 2)
    assert str(verdict) == "PeriodicNOmega(2)"


def test_classify_root_of_unity():
    theta = 2.0 * math.pi / 5.0
    X = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert (verdict.kind, verdict.n) == (PERIODIC_N_OMEGA, 5)


def test_classify_bounded_non_periodic():
    theta = 1.0  # irrational multiple of pi: no power of X reaches I
    X = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert verdict.kind == BOUNDED_NON_PERIODIC


def test_classify_mixed_decay_and_unit():
    X = np.diag([1.0, 0.5])
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert verdict.kind == BOUNDED_NON_PERIODIC


def test_classify_marginal_defective():
    X = np.array([[1.0, 1.0], [0.0, 1.0]])
    verdict = classify(eig(X).eigenvalues, X, 1e-9)
    assert verdict.kind == MARGINAL_DEFECTIVE


def test_oscillation_flag():
    assert is_oscillatory(np.array([-0.5 + 0j]))
    assert is_oscillatory(np.array([0.3 + 0.1j]))
    assert not is_oscillatory(np.array([0.5 + 0j, 2.0 + 0j]))


# ------------------------------------------------------------- P operators


def test_P_identity_monodromy_is_zero():
    assert norm1(floquet_P(np.eye(3), 2.0)) <= 1e-14


def test_P_scalar_exp():
    # monodromy e over a unit period: P = Log(e) = 1
    system = load_system(constant_doc(a=0.0, c=math.e - 1.0))
    X = monodromy(system)
    assert X[0, 0] == pytest.approx(math.e, rel=1e-12)
    assert floquet_P(X, 1.0)[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_P_rotation_real_part(rotation_system):
    # Lyapunov rate (1/2 pi) ln |rho| with |rho| from the printed spectrum
    P = floquet_P(monodromy(rotation_system), TWO_PI)
    expected = math.log(abs(complex(0.878964, 1.05742))) / TWO_PI
    for z in eig(P).eigenvalues:
        assert z.real == pytest.approx(expected, abs=1e-4)


def test_P_roundtrip_all_bundled(scalar_system, sin_system, rotation_system, my_system):
    for system in (scalar_system, sin_system, rotation_system, my_system):
        X = monodromy(system)
        P = floquet_P(X, system.omega)
        assert norm1(expm(P * system.omega) - X) <= 1e-8 * max(1.0, norm1(X))


def test_P_real_identity():
    assert norm1(floquet_P_real(np.eye(2), 1.0)) <= 1e-14


def test_P_real_two_periodic_scalar(scalar_system):
    # X = -1, X^2 = 1: the real generator vanishes
    P_real = floquet_P_real(monodromy(scalar_system), 1.0)
    assert abs(P_real[0, 0]) <= 1e-12


def test_P_real_negative_e():
    # X = -e: X^2 = e^2, P~ = (1/2) ln e^2 = 1
    P_real = floquet_P_real(np.array([[-math.e]]), 1.0)
    assert P_real[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert norm1(expm(2.0 * P_real) - np.array([[math.e**2]])) <= 1e-8 * math.e**2


# ---------------------------------------------------------------- Q factor


def test_q_at_zero_is_identity(rotation_system):
    P = floquet_P(monodromy(rotation_system), TWO_PI)
    assert norm1(q_factor(rotation_system, P, 0.0) - np.eye(2)) <= 1e-14


def test_q_sin_nonimpulsive_closed_form(sin_nonimpulsive):
    # c = 1: P = 0 and Q(t) = 1 + (1 - cos 2 pi t) / 2 pi, 1-periodic
    system = sin_nonimpulsive
    P = floquet_P(monodromy(system), 1.0)
    assert abs(P[0, 0]) <= 1e-10
    for t in (0.2, 0.7, 1.4, 2.25):
        expected = 1.0 + (1.0 - math.cos(2.0 * math.pi * t)) / (2.0 * math.pi)
        assert q_factor(system, P, t)[0, 0] == pytest.approx(expected, abs=1e-9)


def test_q_scalar_is_periodic(scalar_system):
    P = floquet_P(monodromy(scalar_system), 1.0)
    for t in (0.15, 0.5, 0.85):
        gap = q_factor(scalar_system, P, t + 1.0) - q_factor(scalar_system, P, t)
        assert norm1(gap) <= 1e-10


# ------------------------------------------------------------- normal form


def test_normal_form_constant_coefficients_trivial():
    # B = 0, C = 0, A constant: X = exp(A t), Q stays I
    system = load_system(constant_doc(a=-0.2, c=0.0))
    report = verify_normal_form(system)
    assert report.expm_roundtrip <= 1e-14
    assert report.q_equation <= 1e-5 * report.q_equation_scale
    P = floquet_P(monodromy(system), 1.0)
    for t in (0.3, 1.7, 2.5):
        assert norm1(q_factor(system, P, t) - np.eye(1)) <= 1e-9


def test_normal_form_sin_nonimpulsive(sin_nonimpulsive):
    report = verify_normal_form(sin_nonimpulsive)
    assert report.expm_roundtrip <= 1e-14
    P = floquet_P(monodromy(sin_nonimpulsive), 1.0)
    for t in report.sample_times:
        gap = q_factor(sin_nonimpulsive, P, t + 1.0) - q_factor(sin_nonimpulsive, P, t)
        assert norm1(gap) <= 1e-7
    rep = analyze(sin_nonimpulsive)
    assert rep.verdict.kind == PERIODIC_OMEGA


def test_normal_form_rotation(rotation_system):
    report = verify_normal_form(rotation_system)
    assert report.expm_roundtrip <= 1e-14
    assert report.q_equation <= 1e-5 * report.q_equation_scale


_T = re.compile(r"\bt\b")


def _rescaled(text, c):
    """The document in the time ``c t``: ``times``, ``args`` and ``omega``
    times ``c``, and every coefficient ``f(t)`` replaced by ``f(t / c) / c``,
    written with the literal ``1 / c`` (the grammar has no division)."""
    doc = json.loads(text)
    inv = repr(1.0 / c)
    doc["times"] = [c * t for t in doc["times"]]
    doc["args"] = [c * t for t in doc["args"]]
    doc["omega"] *= c
    for key in ("A", "B"):
        doc[key] = [[f"({_T.sub(f'(t * {inv})', e)}) * {inv}" for e in row] for row in doc[key]]
    return json.dumps(doc)


@pytest.mark.parametrize("name, c", [(name, c) for name in BUNDLED_SYSTEMS for c in (1e-3, 1e3, 1e-6)])
def test_time_rescaling_keeps_multipliers_and_residuals(name, c, tmp_path, capsys):
    # Every base interval is c times as wide: at c = 1e-6, 1e-6 wide, so the
    # Q-equation stencils must be sized to the interval to stay inside it.
    path = tmp_path / "rescaled.json"
    path.write_text(_rescaled(bundled_system_path(name).read_text(), c))
    system = load_system(path.read_text())
    expected = analyze(load_bundled_system(name)).multipliers
    got = analyze(system).multipliers
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
    failing = {check.name: check.value for check in structural_residuals(system) if not check.passed}
    assert not failing
    assert main(["factorize", str(path)]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert residuals["q_equation"] <= 1e-5 * residuals["q_equation_scale"]


def test_normal_form_real_variant(scalar_system):
    report = verify_normal_form(scalar_system, real=True)
    assert report.period_factor == 2
    assert report.expm_roundtrip <= 1e-14
    # exp(2 omega P_real) = X^2 is checked directly: a generator off by 1e-6
    # misses it by about 2e-6.
    P_real = floquet_P_real(monodromy(scalar_system), scalar_system.omega)
    off = verify_normal_form(scalar_system, P=P_real + 1e-6, real=True)
    assert off.expm_roundtrip > 1e-8


# --------------------------------------------------------- diagonal oracle


def test_diagonal_oracle_sin(sin_system):
    closed = closed_form_diagonal(sin_system)
    # P = Log(c) for c = -4/5
    expected_P = cmath.log(complex(-0.8))
    assert abs(closed.P[0, 0] - expected_P) <= 1e-9
    P_pipeline = floquet_P(monodromy(sin_system), 1.0)
    assert norm1(closed.P - P_pipeline) <= 1e-7
    # full solutions agree on samples across several periods
    for t in (0.0, 0.4, 1.3, 2.8, 4.9):
        assert abs(closed.X(t)[0, 0] - cauchy_matrix(sin_system, t)[0, 0]) <= 1e-7


def test_diagonal_oracle_scalar(scalar_system):
    closed = closed_form_diagonal(scalar_system)
    assert abs(closed.eta[0, 0] - (-1.0)) <= 1e-12  # eta_1 = AC
    assert abs(closed.P[0, 0] - cmath.log(complex(-1.0))) <= 1e-10
    for t in (0.3, 1.5, 3.25):
        assert abs(closed.X(t)[0, 0] - cauchy_matrix(scalar_system, t)[0, 0]) <= 1e-7


def test_diagonal_oracle_q_samples(sin_nonimpulsive):
    closed = closed_form_diagonal(sin_nonimpulsive)
    for t in (0.2, 0.6, 1.1):
        expected = 1.0 + (1.0 - math.cos(2.0 * math.pi * t)) / (2.0 * math.pi)
        assert closed.Q(t)[0, 0] == pytest.approx(expected, abs=1e-10)


def test_diagonal_oracle_vanishing_anchor_raises():
    # x' = -x(0) on [0, 1]: J(1, 0) = 1 - 1 = 0, which the operator build
    # refuses too.
    system = load_system(scalar_doc(0.0, 2.0))
    with pytest.raises(NumericalError, match="vanishing anchor on interval 0"):
        closed_form_diagonal(system)
    with pytest.raises(NumericalError, match="J\\(t_\\{k\\+1\\}, zeta_k\\) is singular"):
        monodromy(system)


def test_diagonal_oracle_no_forcing():
    # B = 0 diagonal: P = (1/omega) int A + Log(1 + c), Q stays I
    system = load_system(constant_doc(a=0.3, c=0.5))
    closed = closed_form_diagonal(system)
    assert closed.P[0, 0] == pytest.approx(0.3 + math.log(1.5), rel=1e-12)
    assert closed.Q(0.6)[0, 0] == pytest.approx(1.0, abs=1e-14)
    P_pipeline = floquet_P(monodromy(system), 1.0)
    assert norm1(closed.P - P_pipeline) <= 1e-10


def test_diagonal_oracle_rejects_full_matrix(rotation_system):
    with pytest.raises(ValueError):
        closed_form_diagonal(rotation_system)


# --------------------------------------------------------- periodicity test


def test_periodic_solution_search(scalar_system, sin_system, sin_nonimpulsive):
    assert periodic_solution_test(sin_nonimpulsive) == 1
    assert periodic_solution_test(scalar_system) == 2
    assert periodic_solution_test(sin_system) is None


# ------------------------------------------------- spectral consequences


def test_multiplier_equation(rotation_system):
    # x_j(t + omega) = rho_j x_j(t) for eigenvector initial data
    X = monodromy(rotation_system)
    spectrum = eig(X)
    for j, rho in enumerate(spectrum.eigenvalues):
        v = spectrum.eigenvectors[:, j]
        for t in (0.9, 2.5, 5.8):
            lhs = cauchy_matrix(rotation_system, t + TWO_PI) @ v
            rhs = rho * (cauchy_matrix(rotation_system, t) @ v)
            assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(v)


def test_multipliers_similarity_invariant(rotation_system):
    X = monodromy(rotation_system)
    rng = np.random.default_rng(21)
    for _ in range(5):
        G = rng.standard_normal((2, 2))
        if abs(np.linalg.det(G)) < 0.1:
            continue
        conjugated = G @ X @ np.linalg.inv(G)
        a = sorted(eig(X).eigenvalues, key=lambda z: (z.real, z.imag))
        b = sorted(eig(conjugated).eigenvalues, key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-7


def test_factorization_identity_direct(rotation_system):
    X = monodromy(rotation_system)
    for t in (0.7, 2.2, 4.4):
        gap = cauchy_matrix(rotation_system, t + TWO_PI) - cauchy_matrix(rotation_system, t) @ X
        assert norm1(gap) <= 1e-6


# --------------------------------------------------- degeneration checks


def test_degenerate_impulsive_ode_product():
    # B = 0 with impulses: the propagator is the classical product
    # (I + C) Phi(t_r, t_{r-1}), checked against fresh Phi integrations
    system = load_system(constant_doc(a=-0.4, c=0.5, omega=1.0))
    for t in (0.8, 1.6, 2.4):
        k = system.grid.locate(t)[0]
        expected = fundamental_matrix(system, float(k), t)
        for r in range(k, 0, -1):
            expected = expected @ (1.5 * fundamental_matrix(system, r - 1.0, float(r)))
        assert norm1(cauchy_matrix(system, t) - expected) <= 1e-8


def test_degenerate_depcag_product(sin_nonimpulsive):
    # C = 0: pure piecewise-constant-argument case, Cauchy matrix is the
    # plain E-ratio product
    system = sin_nonimpulsive
    for t in (0.6, 1.9, 2.3):
        k = system.grid.locate(t)[0]
        expected = np.eye(1)
        for r in range(1, k + 1):
            step = e_matrix(system, float(r - 1), float(r))
            expected = step @ expected
        local = e_matrix(system, float(k), t)
        expected = local @ expected
        assert norm1(cauchy_matrix(system, t) - expected) <= 1e-8


def test_markus_yamabe_monodromy_is_phi(my_system):
    # B = 0, C = 0: monodromy reduces to the classical Phi(omega, 0)
    X = monodromy(my_system)
    Phi = fundamental_matrix(my_system, 0.0, math.pi)
    assert norm1(X - Phi) <= 1e-9


# -------------------------------------------------------------- reporting


def test_analyze_report_fields(sin_system):
    report = analyze(sin_system)
    assert report.verdict.kind == EXPONENTIALLY_STABLE
    assert report.oscillatory
    assert report.lyapunov[0] == pytest.approx(math.log(0.8), abs=1e-9)
    assert report.residuals["expm_p_roundtrip"] <= 1e-8
    doc = report.to_json_dict()
    for key in ("monodromy", "multipliers", "exponents", "lyapunov", "verdict",
                "oscillatory", "hypothesis", "residuals"):
        assert key in doc
    assert doc["multipliers"][0][0] == pytest.approx(-0.8, abs=1e-9)


def test_analyze_includes_real_generator_when_it_exists(scalar_system, rotation_system):
    assert analyze(scalar_system).P_real is not None
    assert analyze(rotation_system).P_real is not None


def _principal_log_reference(X):
    """``V diag(Log rho) V^-1`` from a spectrum of its own, one eigenvalue at
    a time."""
    spec = linalg.eig(X)
    V = spec.eigenvectors
    logs = [complex(np.log(complex(z.real, 0.0) if z.imag == 0.0 else z)) for z in spec.eigenvalues]
    return V @ np.diag(logs) @ linalg.inv(V)


@pytest.mark.parametrize("name", ["scalar_impulse", "sin_impulse", "rotation_2x2", "markus_yamabe"])
def test_analyze_takes_one_eigendecomposition(monkeypatch, name):
    system = load_bundled_system(name)
    eigs, reads = [], []
    cauchy_many = floquet._cauchy_many
    counted = lambda M: eigs.append(M) or eig(M)
    monkeypatch.setattr(floquet, "eig", counted)
    monkeypatch.setattr(linalg, "eig", counted)
    monkeypatch.setattr(floquet, "_cauchy_many", lambda *a, **k: reads.append(a[1]) or cauchy_many(*a, **k))
    report = analyze(system)
    # The multipliers, P and P_real all come from the one spectrum of X.
    assert len(eigs) == 1 and reads == []
    X, omega = report.monodromy, system.omega
    assert np.array_equal(report.P, _principal_log_reference(X) / omega)
    ref = scipy.linalg.logm(X @ X).real / (2.0 * omega)
    assert norm1(report.P_real - ref) <= 1e-12 * max(1.0, norm1(ref))
    eigs.clear()
    structural_residuals(system)
    assert len(eigs) == 1


def test_verify_unit_computes_each_spectral_fact_once(monkeypatch):
    # One eig, one principal log and one single-matrix expm (the generator
    # roundtrip) per verify unit.
    system = load_bundled_system("markus_yamabe")
    interval_operators(system)
    calls = []
    for module, name in ((linalg, "eig"), (floquet, "eig"), (linalg, "_logm"), (floquet, "_logm"),
                         (floquet, "expm")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    structural_residuals(system)
    assert sorted(calls) == ["_logm", "eig", "expm"]


def test_verify_unit_assembles_the_monodromy_once(monkeypatch):
    # verify_normal_form and monodromy_refined read one X(omega).
    system = load_bundled_system("rotation_2x2")
    calls = []
    original = floquet.monodromy
    monkeypatch.setattr(floquet, "monodromy", lambda s: calls.append(s) or original(s))
    checks = structural_residuals(system)
    assert calls == [system]
    assert [c.name for c in checks][-3:] == ["expm_p_roundtrip", "monodromy_refined", "q_equation"]


def test_one_singularity_rule_for_log_square_and_multipliers():
    # A multiplier of 1e-8 squares to 1e-16, yet M @ M is invertible exactly
    # when M is: both logarithms exist.
    M = np.diag([1.0, 1e-8])
    assert np.allclose(linalg.logm_real_doubled(M), np.diag([0.0, 2.0 * math.log(1e-8)]))
    assert np.allclose(linalg.logm_principal(M), np.diag([0.0, math.log(1e-8)]))
    messages = set()
    for f in (linalg.logm_principal, linalg.logm_real_doubled, lambda X: floquet_exponents(X, 1.0)):
        with pytest.raises(linalg.SingularMatrixError) as info:
            f(np.diag([1.0, 1e-15]))
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("name", ["sin_impulse", "markus_yamabe"])
@pytest.mark.parametrize("real", [False, True])
def test_q_samples_in_one_read_equal_q_factor(name, real):
    system = load_bundled_system(name)
    X, omega = monodromy(system), system.omega
    P = floquet_P_real(X, omega) if real else floquet_P(X, omega)
    factor = 2 if real else 1
    times = [i * factor * omega / 7 for i in range(7)] + list(system.grid.times[1:])
    Q = floquet._q_many(system, P, times)
    for t, q in zip(times, Q):
        assert np.array_equal(q, q_factor(system, P, t))


def test_structural_residuals_pass_on_bundled(sin_system):
    checks = structural_residuals(sin_system)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    for expected in ("biperiodicity_phi", "cocycle", "liouville", "monodromy_refined",
                     "q_equation", "expm_p_roundtrip"):
        assert expected in names


def test_structural_residuals_one_integration_per_biperiodicity_time(rotation_system, monkeypatch):
    import idepcag.transition as transition

    interval_operators(rotation_system)  # the cached operators integrate nothing below
    calls = []
    real_magnus = transition._magnus

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return real_magnus(*args, **kwargs)

    monkeypatch.setattr(transition, "_magnus", counting)
    checks = structural_residuals(rotation_system, pairs=2)
    # One batch of 12 segments. Biperiodicity: 2 pairs x 2 shifts;
    # cocycle: 2 x 3; liouville: 2.  The refined monodromy takes fixed
    # passes and does not go through _magnus.
    assert len(calls) == 1
    t0, t1 = calls[0]
    assert len(t0) == len(t1) == 12
    assert [(c.name, c.threshold) for c in checks] == [
        ("biperiodicity_phi", 1e-7),
        ("biperiodicity_j", 1e-7),
        ("biperiodicity_e", 1e-7),
        ("cocycle", 1e-8),
        ("liouville", 1e-8),
        ("expm_p_roundtrip", 1e-8),
        ("monodromy_refined", 1e-8),
        ("q_equation", 1e-5),
    ]
    assert all(c.passed for c in checks)


def test_structural_residuals_catch_corrupted_operator_cache(monkeypatch):
    # The period step off by 1e-6 in the cache: X(omega) and every read of W
    # and Q carry the defect consistently, so only the fresh reassembly of
    # X(omega) can see it.
    import dataclasses

    import idepcag.transition as transition

    system = load_bundled_system("rotation_2x2")
    clean = structural_residuals(system)
    ops = interval_operators(system)
    corrupted = (dataclasses.replace(ops[0], period_step=ops[0].period_step + 1e-6), *ops[1:])
    monkeypatch.setitem(transition._OPS_CACHE, system, corrupted)
    checks = structural_residuals(system)
    assert [c.name for c in checks] == [c.name for c in clean]
    refined = next(c for c in checks if c.name == "monodromy_refined")
    assert not refined.passed and refined.value > 1e-7
    assert all(c.passed for c in checks if c is not refined)
    # The fresh-integration rows do not read the cache at all.
    assert [c.value for c in checks[:5]] == [c.value for c in clean[:5]]


def test_cocycle_is_relative_to_the_flow(monkeypatch):
    # x' = 400 x: Phi(t, s) = exp(400 (t - s)) reaches ~1e170, whose roundoff
    # the relative row passes; one Phi of the fresh batch off by 1e-6
    # relative still breaches it.
    system = load_system(json.dumps({"n": 1, "omega": 1, "p": 1, "times": [0, 1], "args": [0],
                                     "A": [["400"]], "B": [["0"]], "impulses": [[[0]]]}))
    cocycle = lambda: next(c for c in structural_residuals(system) if c.name == "cocycle")
    assert cocycle().passed and cocycle().value <= 1e-12
    fresh = floquet._fresh_flows

    def perturbed(system, s, t):
        U = fresh(system, s, t)
        # Segments stack (pair, shifted pair, (u, t), (s, u), (s, t), span)
        # over the 2 pairs: row 8 is Phi(t, s) of the first cocycle triple.
        U[8, :1, :1] *= 1.0 + 1e-6
        return U

    monkeypatch.setattr(floquet, "_fresh_flows", perturbed)
    check = cocycle()
    assert not check.passed and check.value > 5e-7


def test_monodromy_refined_non_finite_is_a_breach(rotation_system, monkeypatch):
    monkeypatch.setattr(floquet, "_magnus_pass", lambda A, B, t0, t1, N: np.full(
        (t0.size, N + 1, 2 * A.n, 2 * A.n), np.nan))
    checks = {c.name: c for c in structural_residuals(rotation_system)}
    assert checks["monodromy_refined"].value == math.inf
    assert not checks["monodromy_refined"].passed


def test_structural_residuals_catch_broken_period(sin_system):
    # forge a system whose declared period is wrong; load-time certificates
    # would reject this, so build it without them
    import dataclasses

    broken = dataclasses.replace(
        sin_system,
        omega=0.75,
        grid=dataclasses.replace(sin_system.grid, omega=0.75, times=(0.0, 0.75)),
        A=dataclasses.replace(sin_system.A, period=0.75),
        B=dataclasses.replace(sin_system.B, period=0.75),
    )
    checks = {c.name: c for c in structural_residuals(broken)}
    assert not checks["biperiodicity_j"].passed
