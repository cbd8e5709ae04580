import cmath
import math

import numpy as np
import pytest

from idepcag import (
    BOUNDED_NON_PERIODIC,
    EXPONENTIALLY_STABLE,
    MARGINAL_DEFECTIVE,
    PERIODIC_N_OMEGA,
    PERIODIC_OMEGA,
    UNBOUNDED,
    analyze,
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
    load_system,
    monodromy,
    norm1,
    periodic_solution_test,
    q_factor,
    structural_residuals,
    verify_normal_form,
)
from conftest import constant_doc

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
    assert report.factorization <= 1e-9
    assert report.q_periodicity <= 1e-9
    assert report.impulse_consistency <= 1e-9
    assert report.q_equation <= 1e-5 * report.q_equation_scale
    assert report.reduction <= 1e-9


def test_normal_form_sin_nonimpulsive(sin_nonimpulsive):
    report = verify_normal_form(sin_nonimpulsive)
    assert report.q_periodicity <= 1e-7
    rep = analyze(sin_nonimpulsive)
    assert rep.verdict.kind == PERIODIC_OMEGA


def test_normal_form_rotation(rotation_system):
    report = verify_normal_form(rotation_system)
    assert report.factorization <= 1e-6
    assert report.q_periodicity <= 1e-6
    assert report.impulse_consistency <= 1e-6
    assert report.q_equation <= 1e-5 * report.q_equation_scale


def test_normal_form_real_variant(scalar_system):
    report = verify_normal_form(scalar_system, real=True)
    assert report.period_factor == 2
    assert report.q_periodicity <= 1e-8


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
    assert report.residuals["det_vs_multipliers"] <= 1e-8
    doc = report.to_json_dict()
    for key in ("monodromy", "multipliers", "exponents", "lyapunov", "verdict",
                "oscillatory", "hypothesis", "residuals"):
        assert key in doc
    assert doc["multipliers"][0][0] == pytest.approx(-0.8, abs=1e-9)


def test_analyze_includes_real_generator_when_it_exists(scalar_system, rotation_system):
    assert analyze(scalar_system).P_real is not None
    assert analyze(rotation_system).P_real is not None


def test_structural_residuals_pass_on_bundled(sin_system):
    checks = structural_residuals(sin_system)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    for expected in ("biperiodicity_phi", "cocycle", "liouville", "factorization",
                     "q_equation", "det_vs_multipliers"):
        assert expected in names


def test_structural_residuals_one_integration_per_biperiodicity_time(rotation_system, monkeypatch):
    import idepcag.transition as transition

    interval_operators(rotation_system)  # the cached operators integrate nothing below
    calls = []
    real_magnus = transition._magnus

    def counting(*args, **kwargs):
        calls.append(args[3:])
        return real_magnus(*args, **kwargs)

    monkeypatch.setattr(transition, "_magnus", counting)
    checks = structural_residuals(rotation_system, pairs=2)
    # biperiodicity: 2 pairs x 2 shifts; cocycle: 2 x 3; liouville: 2
    assert len(calls) == 12
    assert [(c.name, c.threshold) for c in checks] == [
        ("biperiodicity_phi", 1e-7),
        ("biperiodicity_j", 1e-7),
        ("biperiodicity_e", 1e-7),
        ("cocycle", 1e-8),
        ("liouville", 1e-8),
        ("monodromy_vs_cauchy", 1e-8),
        ("det_vs_multipliers", 1e-8),
        ("expm_p_roundtrip", 1e-8),
        ("factorization", 1e-6),
        ("q_periodicity", 1e-6),
        ("impulse_consistency", 1e-6),
        ("q_equation", 1e-5),
        ("reduction", 1e-6),
    ]
    assert all(c.passed for c in checks)


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
