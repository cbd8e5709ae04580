import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from idepcag import (
    SingularMatrixError,
    e_matrix,
    fundamental_matrix,
    hypothesis_check,
    interval_operators,
    j_matrix,
    load_system,
    norm1,
    w_local,
)
from conftest import scalar_doc, sin_doc

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------ fundamental matrix


def test_phi_zero_field_is_identity(scalar_system):
    for s, t in ((0.0, 0.7), (0.2, 0.9), (1.3, 0.1)):
        assert np.array_equal(fundamental_matrix(scalar_system, s, t), np.eye(1))


def test_phi_markus_yamabe_liouville(my_system):
    # trace A = -1/2 everywhere, so det Phi(pi, 0) = exp(-pi/2)
    Phi = fundamental_matrix(my_system, 0.0, math.pi)
    assert np.linalg.det(Phi) == pytest.approx(math.exp(-math.pi / 2.0), rel=1e-8)


def test_phi_rotation_full_turn_is_identity(rotation_system):
    Phi = fundamental_matrix(rotation_system, 0.0, TWO_PI)
    assert norm1(Phi - np.eye(2)) <= 1e-8


def test_phi_cocycle(rotation_system):
    rng = np.random.default_rng(12)
    for _ in range(3):
        s, u, t = np.sort(rng.uniform(0.0, TWO_PI, size=3))
        lhs = fundamental_matrix(rotation_system, u, t) @ fundamental_matrix(rotation_system, s, u)
        rhs = fundamental_matrix(rotation_system, s, t)
        assert norm1(lhs - rhs) <= 1e-8


def test_phi_backward_inverts_forward(my_system):
    fwd = fundamental_matrix(my_system, 0.0, 1.2)
    bwd = fundamental_matrix(my_system, 1.2, 0.0)
    assert norm1(fwd @ bwd - np.eye(2)) <= 1e-9


# ------------------------------------------------------------- J operator


def test_j_without_forcing_is_identity(my_system):
    assert np.array_equal(j_matrix(my_system, 0.0, 2.0), np.eye(2))


def test_j_scalar_linear_growth(scalar_system):
    for t in (0.25, 0.6, 1.0):
        J = j_matrix(scalar_system, 0.0, t)
        assert J[0, 0] == pytest.approx(1.0 - 1.3 * t, abs=1e-12)


def test_j_sin_zero_mean(sin_system):
    assert j_matrix(sin_system, 0.0, 1.0)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_j_quadrature_oracle_diagonal(sin_system):
    # coupled-ODE J against direct adaptive quadrature of I + int Phi(tau,s) B(s) ds
    for t in (0.3, 0.8, 1.0):
        direct = 1.0 + quad(lambda s: math.sin(2 * math.pi * s), 0.0, t,
                            epsabs=1e-13, epsrel=1e-13)[0]
        assert j_matrix(sin_system, 0.0, t)[0, 0] == pytest.approx(direct, abs=1e-9)


# ------------------------------------------------------------- E operator


def test_e_reduces_to_phi_without_forcing(my_system):
    t = 1.7
    assert norm1(e_matrix(my_system, 0.0, t) - fundamental_matrix(my_system, 0.0, t)) <= 1e-9


def test_e_reduces_to_integral_when_a_zero(sin_system):
    for t in (0.3, 0.75):
        expected = 1.0 + (1.0 - math.cos(2.0 * math.pi * t)) / (2.0 * math.pi)
        assert e_matrix(sin_system, 0.0, t)[0, 0] == pytest.approx(expected, abs=1e-11)


def test_e_scalar_example_anchor(scalar_system):
    # E(1, 0) = 1 + (A - 1) = A, the continuous part of the period map
    assert e_matrix(scalar_system, 0.0, 1.0)[0, 0] == pytest.approx(-0.3, abs=1e-12)


def test_e_at_anchor_is_identity(rotation_system):
    assert np.array_equal(e_matrix(rotation_system, 1.5, 1.5), np.eye(2))


# ------------------------------------------------------- interval operators


def test_interval_operator_anchor_exact(rotation_system):
    ops = interval_operators(rotation_system)[0]
    assert np.array_equal(ops.e_at(ops.zeta), np.eye(2))
    assert np.array_equal(ops.j_at(ops.zeta), np.eye(2))
    assert np.array_equal(ops.phi_at(ops.zeta), np.eye(2))


def test_interval_operator_matches_direct_integration(rotation_system):
    ops = interval_operators(rotation_system)[0]
    for t in (1.0, 3.0, 6.0):
        assert norm1(ops.e_at(t) - e_matrix(rotation_system, 0.0, t)) <= 1e-9
        assert norm1(ops.phi_at(t) - fundamental_matrix(rotation_system, 0.0, t)) <= 1e-9


def test_interval_operator_rejects_outside_time(rotation_system):
    ops = interval_operators(rotation_system)[0]
    with pytest.raises(ValueError):
        ops.e_at(TWO_PI + 0.5)


@pytest.mark.parametrize("read", ["phi_at", "j_at", "e_at"])
def test_interval_operator_rejects_nan_time(rotation_system, read):
    ops = interval_operators(rotation_system)[0]
    with pytest.raises(ValueError, match="outside interval"):
        getattr(ops, read)(math.nan)


def test_w_local_rejects_nan_time(rotation_system):
    for s, t in ((0.0, math.nan), (math.nan, 0.0)):
        with pytest.raises(ValueError, match="outside interval"):
            w_local(rotation_system, 0, s, t)


def test_e_many_matches_e_at_on_both_branches():
    doc = json.loads(sin_doc(0.7))
    doc["args"] = [0.5]  # interior anchor: backward and forward dense output
    ops = interval_operators(load_system(json.dumps(doc)))[0]
    ts = np.array([0.0, 0.1, 0.5, 0.5 + 1e-13, 0.77, 1.0, 1.0 + 1e-10, -1e-10, 0.5])
    stacked = ops.e_many(ts)
    assert stacked.shape == (ts.size, 1, 1)
    for t, E in zip(ts, stacked):
        assert np.abs(E - ops.e_at(t)).max() <= 1e-13 * np.abs(E).max()
    assert np.array_equal(stacked[2], np.eye(1))
    assert ops.e_many([]).shape == (0, 1, 1)
    for bad in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="outside interval"):
            ops.e_many([0.2, bad])


def test_singular_j_anchor_is_hard_error():
    # B = -1 makes J(1, 0) = 1 - t vanish at the right anchor
    doc = scalar_doc(0.0, 2.0)  # B = A - 1 = -1
    with pytest.raises(SingularMatrixError, match="anchor"):
        interval_operators(load_system(doc))


# ----------------------------------------------------------------- w_local


def test_w_local_same_time_is_identity(rotation_system):
    assert np.array_equal(w_local(rotation_system, 0, 1.3, 1.3), np.eye(2))


def test_w_local_scalar_interpolates(scalar_system):
    for t in (0.25, 0.5, 0.9):
        W = w_local(scalar_system, 0, 0.0, t)
        assert W[0, 0] == pytest.approx(1.0 - 1.3 * t, abs=1e-12)


def test_w_local_sin_unit_mean(sin_system):
    assert w_local(sin_system, 0, 0.0, 1.0)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_w_local_shifted_interval_biperiodic(scalar_system):
    # interval 3 reuses interval 0 operators shifted by 3 omega
    W = w_local(scalar_system, 3, 3.0, 3.5)
    assert W[0, 0] == pytest.approx(1.0 - 1.3 * 0.5, abs=1e-12)


# ----------------------------------------------------------- biperiodicity


@pytest.mark.parametrize("fixture", ["sin_system", "rotation_system"])
def test_biperiodicity_fresh_integration(fixture, request):
    system = request.getfixturevalue(fixture)
    omega = system.omega
    rng = np.random.default_rng(13)
    for _ in range(2):
        s, t = rng.uniform(0.0, omega, size=2)
        for op in (fundamental_matrix, j_matrix, e_matrix):
            gap = norm1(op(system, s + omega, t + omega) - op(system, s, t))
            assert gap <= 1e-7


def test_liouville_identity(rotation_system):
    s, t = 0.4, 5.1
    trace_integral = quad(
        lambda u: float(np.trace(rotation_system.A.eval(u))), s, t,
        epsabs=1e-13, epsrel=1e-13,
    )[0]
    got = np.linalg.det(fundamental_matrix(rotation_system, s, t))
    assert got == pytest.approx(math.exp(trace_integral), rel=1e-8)


# ------------------------------------------------------------ hypothesis H


def test_hypothesis_zero_forcing_passes(my_system):
    report = hypothesis_check(my_system)
    assert report.passed
    assert all(v == 0.0 for v in report.nu_plus)
    assert all(v == 0.0 for v in report.nu_minus)
    assert all(s >= 1.0 for s in report.sigma_plus + report.sigma_minus)


def test_hypothesis_sin_example(sin_system):
    # retarded anchor: the advanced part is empty, the retarded bound is
    # int_0^1 |sin(2 pi s)| ds = 2/pi, both below one
    report = hypothesis_check(sin_system)
    assert report.passed
    assert report.nu_plus[0] == pytest.approx(0.0, abs=1e-12)
    assert report.nu_minus[0] == pytest.approx(2.0 / math.pi, abs=1e-9)
    assert report.j_bound_minus == pytest.approx(1.0 / (1.0 - 2.0 / math.pi), rel=1e-8)


def test_hypothesis_failure_is_reported_not_raised(caplog):
    # |B| = 2 on a unit interval exceeds the sufficient bound; analysis of
    # the anchors still goes through
    system = load_system(scalar_doc(3.0, 0.5))
    with caplog.at_level("WARNING", logger="idepcag"):
        report = hypothesis_check(system)
    assert not report.passed
    assert report.nu_minus_sup == pytest.approx(2.0, abs=1e-9)
    assert math.isinf(report.j_bound_minus)
    assert any("invertibility bounds" in r.message for r in caplog.records)
    interval_operators(system)  # anchors are fine: J(1,0) = 1 + 2 = 3


def test_hypothesis_scalar_bundled_exceeds_bound(scalar_system):
    # |A - 1| = 1.3 over the unit interval: the sufficient condition fails
    # even though the example is perfectly well posed
    report = hypothesis_check(scalar_system)
    assert not report.passed
    assert report.nu_minus_sup == pytest.approx(1.3, abs=1e-9)
