import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

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
from idepcag import transition
from conftest import count_partial_steps, scalar_doc, sin_doc

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------ fundamental matrix


def test_phi_zero_field_is_identity(scalar_system):
    for s, t in ((0.0, 0.7), (0.2, 0.9), (1.3, 0.1)):
        assert np.array_equal(fundamental_matrix(scalar_system, s, t), np.eye(1))


def test_flows_over_a_zero_length_segment_are_exactly_identity(rotation_system, my_system, sin_system):
    # No special case: the Magnus pass of a zero-length segment is exactly I,
    # alone and in a batch with other segments.
    for system in (rotation_system, my_system, sin_system):
        omega = system.omega
        for t in (0.0, 0.3 * omega, omega, 2.6 * omega):
            for op in (fundamental_matrix, j_matrix, e_matrix):
                assert np.array_equal(op(system, t, t), np.eye(system.n)), (op.__name__, t)
        U = transition._fresh_flows(system, [0.2, 0.5 * omega], [1.1 * omega, 0.5 * omega])
        assert np.array_equal(U[1], np.eye(2 * system.n))


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
    phi, j, _ = transition._phi_j_e(ops._top_many(ops.zeta)[0], 2)
    assert np.array_equal(j, np.eye(2))
    assert np.array_equal(phi, np.eye(2))


def test_interval_operator_matches_direct_integration(rotation_system):
    ops = interval_operators(rotation_system)[0]
    for t in (1.0, 3.0, 6.0):
        assert norm1(ops.e_at(t) - e_matrix(rotation_system, 0.0, t)) <= 1e-9
        phi = ops._top_many(t)[0, :, :2]
        assert norm1(phi - fundamental_matrix(rotation_system, 0.0, t)) <= 1e-9


def test_interval_operator_rejects_outside_time(rotation_system):
    ops = interval_operators(rotation_system)[0]
    with pytest.raises(ValueError):
        ops.e_at(TWO_PI + 0.5)


@pytest.mark.parametrize("read", ["_top_many", "e_at"])
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


def test_e_many_on_repeated_unsorted_times_gives_the_bits_of_each_time(rotation_system):
    doc = json.loads(sin_doc(0.7))
    doc["args"] = [0.5]
    for ops in (interval_operators(load_system(json.dumps(doc)))[0],
                interval_operators(rotation_system)[0]):
        ts = [0.77, 0.1, 0.77, -0.0, 0.5, 0.0, 0.1, 1.0, 0.33, 0.77, 0.0, -0.0, 1e-300]
        stacked = ops.e_many(ts)
        for t, E in zip(ts, stacked):
            assert E.tobytes() == ops.e_many([t])[0].tobytes()


def test_e_many_takes_one_partial_step_per_distinct_time(monkeypatch, rotation_system):
    ops = interval_operators(rotation_system)[0]
    steps = count_partial_steps(monkeypatch)
    ops.e_many([0.3, 0.1, 0.3, 0.2, 0.1, 0.3, 0.2])
    assert sum(steps) == 3


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


# ------------------------------------------------- norm quadrature (gk15)


def _doc(A, B=None, times=(0.0, 1.0), args=(0.0,)):
    n = len(A)
    return json.dumps({
        "n": n,
        "omega": times[-1],
        "p": len(args),
        "times": list(times),
        "args": list(args),
        "A": A,
        "B": B or [["0"] * n for _ in range(n)],
        "impulses": [np.zeros((n, n)).tolist() for _ in args],
    })


def _halves(system):
    grid = system.grid
    out = []
    for k in range(system.p):
        out += [(grid.times[k], grid.args[k]), (grid.args[k], grid.times[k + 1])]
    return out


def _within_goal(got, expected):
    return abs(got - expected) <= max(1e-10, 1e-10 * abs(expected))


def test_gauss_kronrod_rule_is_qk15():
    nodes, (kronrod, gauss) = transition._GK_NODES, transition._GK_WEIGHTS
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(7)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert np.allclose(nodes[2:-1:2], gauss_x, rtol=0, atol=1e-15)
    assert np.allclose(gauss[2:-1:2], gauss_w, rtol=0, atol=1e-15)
    assert not gauss[1::2].any() and not kronrod[[0, -1]].any()
    for degree in range(24):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert kronrod @ nodes**degree == pytest.approx(exact, abs=1e-15)
        if degree <= 13:
            assert gauss @ nodes**degree == pytest.approx(exact, abs=1e-15)


def test_kink_bound_covers_the_rule_error_on_every_cell():
    # |t - u| changes by the cell width across the cell holding u; _gk15
    # charges that change times _GK_KINK[cell] for the kink.
    nodes, kronrod = transition._GK_NODES, transition._GK_WEIGHTS[0]
    u = np.linspace(-1.0, 1.0, 200001)
    error = np.abs(1.0 + u**2 - np.abs(nodes[None, :] - u[:, None]) @ kronrod)
    cell = np.clip(np.searchsorted(nodes, u) - 1, 0, nodes.size - 2)
    assert np.all(error <= np.diff(nodes)[cell] * transition._GK_KINK[cell])


def test_norm_integral_sees_a_kink_between_the_outer_node_and_the_end():
    # |sin(2 pi (t - 0.499))| on [0, 0.5] and [0.5, 1] kinks 0.001 before
    # each end, past the outer Kronrod node (0.0021 from the end), where
    # neither rule samples it: |K15 - G7| alone reads ~1e-16 and the error
    # is 6e-6.  The sign change between the outer node and the end shows it.
    system = load_system(_doc([["sin(2*pi*t - 2*pi*0.499)"]], args=(0.5,)))
    c = math.cos(2.0 * math.pi * 0.001)
    expected = [(2.0 - math.cos(2.0 * math.pi * 0.499) - c) / (2.0 * math.pi), 1.0 / math.pi]
    got = transition._norm_integrals(system.A, "A", _halves(system))
    assert all(_within_goal(g, e) for g, e in zip(got, expected)), (got, expected)


@pytest.mark.parametrize("entry", ["sin(2*pi*t)", "sin(100*pi*t)"])
def test_norm_integral_of_sine_with_kinks(entry):
    # |sin(2 pi m t)| over one period integrates to 2/pi for every m; with
    # m = 50 the norm has 100 kinks.
    system = load_system(_doc([[entry]]))
    assert transition._norm_integrals(system.A, "A", [(0.0, 0.0), (0.0, 1.0)]) == [
        0.0,
        pytest.approx(2.0 / math.pi, rel=0, abs=1e-10),
    ]
    report = hypothesis_check(system)
    assert report.sigma_plus == (1.0,)
    assert report.sigma_minus[0] == pytest.approx(math.exp(2.0 / math.pi), rel=1e-10)


def test_norm_integral_where_the_maximizing_column_switches():
    # |A|_1 = max(|cos 2 pi t|, |sin 2 pi t|): the maximizing column switches
    # at t = 1/8 + k/4, off every bisection point of [0, 0.3] and [0.3, 1].
    system = load_system(_doc([["cos(2*pi*t)", "0"], ["0", "sin(2*pi*t)"]], args=(0.3,)))
    first = (math.sqrt(2.0) - math.cos(0.6 * math.pi)) / (2.0 * math.pi)
    second = 2.0 * math.sqrt(2.0) / math.pi - first
    got = transition._norm_integrals(system.A, "A", _halves(system))
    assert _within_goal(got[0], first) and _within_goal(got[1], second), got


def _count_gk15(monkeypatch):
    calls = []
    gk15 = transition._gk15
    monkeypatch.setattr(transition, "_gk15", lambda *args: calls.append(1) or gk15(*args))
    return calls


_SWITCH_FIRST = (math.sqrt(2.0) - math.cos(0.6 * math.pi)) / (2.0 * math.pi)


@pytest.mark.parametrize("rows, expected", [
    # The column switches of the document above; bisection took 16 levels.
    ([["cos(2*pi*t)", "0"], ["0", "sin(2*pi*t)"]],
     [_SWITCH_FIRST, 2.0 * math.sqrt(2.0) / math.pi - _SWITCH_FIRST]),
    # |sin 2 pi t| kinks at 0.5, off every bisection point of [0.3, 1]:
    # bisection took 15 levels.
    ([["sin(2*pi*t)"]], [(1.0 - math.cos(0.6 * math.pi)) / (2.0 * math.pi),
                         (3.0 + math.cos(0.6 * math.pi)) / (2.0 * math.pi)]),
])
def test_located_kinks_close_in_few_levels(monkeypatch, rows, expected):
    # Split at the located kink, each child has it on an end: one level to
    # find it, one to meet the parent-child difference, one to close.
    system = load_system(_doc(rows, args=(0.3,)))
    calls = _count_gk15(monkeypatch)
    got = transition._norm_integrals(system.A, "A", _halves(system))
    assert all(_within_goal(g, e) for g, e in zip(got, expected)), (got, expected)
    assert len(calls) <= 4


@pytest.mark.parametrize("delta", np.logspace(-12, -4, 9))
@pytest.mark.parametrize("side", ["left", "right"])
def test_end_cell_switch_bound_covers_the_rule_error(side, delta):
    # |A|_1 = 2 + |s| for s = sin(2 pi (t - u)) / (2 pi) ~ t - u: the max
    # moves between the two columns at u, and a split point that missed u
    # by delta leaves the switch delta inside the end of the subinterval,
    # where the rule's error is ~delta^2.  The interior switch bound would
    # charge ~1e-5 here.
    u, width = 0.4, 0.4
    s = f"{0.5 / math.pi!r}*sin(2*pi*(t - {u!r}))"
    system = load_system(_doc([[f"2 + {s}", "0"], ["0", f"2 - {s}"]]))
    lo = u - delta if side == "left" else u + delta - width
    value, error, _ = transition._gk15(system.A, np.array([lo]), np.array([lo + width]))
    bumps = math.sin(math.pi * delta) ** 2 + math.sin(math.pi * (width - delta)) ** 2
    exact = 2.0 * width + bumps / (2.0 * math.pi**2)
    roundoff = 8.0 * np.finfo(float).eps * exact
    assert abs(value[0] - exact) <= error[0] + roundoff
    # The bound is 2.1 delta^2 (twice the error, with the 5% margin of
    # _GK_KINK), plus the ~1e-15 of |K15 - G7| on the smooth rest.
    assert error[0] <= 3.0 * delta**2 + 1e-14


def test_rise_bound_covers_the_worst_parabola():
    # g(x) = g0 + b x - K x^2 / 2 on [0, c], with g'' = -K the worst case
    # _curvature_bound allows and both ends at most 0.  Where its vertex
    # lies inside the cell, g is above 0 between its roots, a width w =
    # 2 sqrt(b^2 + 2 K g0) / K that encloses K w^3 / 12; elsewhere g <= 0
    # on the whole cell.
    rng = np.random.default_rng(7)
    size = 4000
    c = rng.uniform(1e-3, 1.0, size)
    K = 10.0 ** rng.uniform(-1.0, 3.0, size)
    g = -rng.uniform(0.0, 1.0, (size, 2)) ** 3 * (K * c * c)[:, None]
    b = (g[:, 1] - g[:, 0]) / c + 0.5 * K * c
    inside = (b > 0.0) & (b < K * c)
    w = 2.0 * np.sqrt(np.fmax(b * b + 2.0 * K * g[:, 0], 0.0)) / K
    exact = np.where(inside, K * w**3 / 12.0, 0.0)
    assert (exact > 0.0).sum() > size // 5 and (~inside).sum() > size // 5
    bound = transition._rises(g, K[:, None], c[:, None], np.ones((size, 1), bool))
    assert np.all(exact <= bound * (1.0 + 1e-12))
    assert not bound[~inside].any()


_SWITCH_S = f"{0.5 / math.pi!r}*sin(2*pi*(t - 0.4))"


@pytest.mark.parametrize("rows, lo, width, exact", [
    # The column-switch document above on [0.375, 0.625]: |cos 2 pi t| is
    # the max, and |sin 2 pi t| ties it at both ends, within roundoff, on
    # its way down.
    ([["cos(2*pi*t)", "0"], ["0", "sin(2*pi*t)"]], 0.375, 0.25, math.sqrt(2.0) / (2.0 * math.pi)),
    # The 2 +- s document above starting 1e-15 past its switch at 0.4, as a
    # located switch leaves it: the column that was the max reads 2e-15
    # below it at the left end and falls away.
    ([[f"2 + {_SWITCH_S}", "0"], ["0", f"2 - {_SWITCH_S}"]], 0.4 + 1e-15, 0.4,
     0.8 + (math.sin(math.pi * (0.4 + 1e-15)) ** 2 - math.sin(math.pi * 1e-15) ** 2) / (2.0 * math.pi**2)),
])
def test_bump_bound_ignores_a_column_leaving_the_max_at_an_end(rows, lo, width, exact):
    # A chord bound charged that column ~5e-10 and ~8e-10.
    system = load_system(_doc(rows))
    value, error, _ = transition._gk15(system.A, np.array([lo]), np.array([lo + width]))
    assert abs(value[0] - exact) <= error[0] + 8.0 * np.finfo(float).eps * exact
    assert error[0] <= 1e-14


def test_markus_yamabe_norm_integrals_close_in_three_levels(monkeypatch, my_system):
    calls = _count_gk15(monkeypatch)
    assert hypothesis_check(my_system).passed
    assert len(calls) <= 3


def test_norm_integral_with_columns_tied_to_roundoff(caplog):
    # The max flips between the two columns wherever roundoff decides; that
    # costs nothing and must not drive the refinement into its cap.
    rows = [["0.3*sin(pi*t)", "6.661338147750939e-17 + 0.3*sin(pi*t)"], ["0.3*sin(pi*t)"] * 2]
    system = load_system(_doc(rows, times=(0.0, 2.0), args=(0.7,)))
    with caplog.at_level("WARNING", logger="idepcag"):
        got = transition._norm_integrals(system.A, "A", _halves(system))
    assert not caplog.records
    assert _within_goal(sum(got), 2.4 / math.pi), got


def test_norm_integral_sees_a_column_passing_the_max_between_samples():
    # Column 0 rises above column 1 only on [0.4188, 0.4308], inside one
    # cell of the subinterval [0.3906, 0.5859]: every sample there reads
    # column 1, both rules agree to 1e-16, and the bump is worth 2e-5.
    rows = [
        [
            "0.04540958330759866 + 1.1347967178046041*sin(4.021833788138361*t + 4.991027412087952)",
            "-0.6931838039516522 + 0.9289328997413275*sin(8.043667576276722*t + 5.728427463100026)",
            "0.3122228070769492 + 0.6042160150945631*sin(12.065501364415082*t + 0.03954185450247351)",
        ]
    ] * 2 + [
        [
            "1.2240763162965986*sin(12.065501364415082*t + 4.936561674037412)",
            "-0.5041589088340506 + 1.5*sin(4.021833788138361*t + 1.6727860627147102)",
            "0.17467609024065278 + 0.9497714847452892*sin(12.065501364415082*t + 1.0)",
        ]
    ]
    omega = 1.5622687654847036
    system = load_system(_doc(rows, times=(0.0, omega)))
    got = transition._norm_integrals(system.A, "A", [(0.0, omega)])[0]
    assert _within_goal(got, _reference_integral(system.A, 0.0, omega))


@pytest.mark.parametrize("entry", [
    # Dips below zero on 5 windows of width 0.03; no sample of [0, 1] falls
    # in one, and the rules integrate the odd sine exactly, so |K15 - G7|
    # = 0 while |A|_1 integrates to 0.9017, not 0.875.
    "0.875 + sin(10*pi*t)",
    # One dip of depth 1e-6 and width 4.5e-4 at t = 0.75, worth 6e-10,
    # that the refinement of the smooth rest never samples.
    "0.999999 + sin(2*pi*t)",
])
def test_norm_integral_sees_an_entry_dipping_through_zero_between_samples(entry):
    system = load_system(_doc([[entry]]))
    got = transition._norm_integrals(system.A, "A", [(0.0, 1.0)])[0]
    assert _within_goal(got, _reference_integral(system.A, 0.0, 1.0)), got


def _reference_integral(matfun, a, b):
    """Scalar quad on the compiled ``eval`` between the kinks of the norm,
    far below the goal: independent of the batched rule.  A kink sits where
    an entry or the difference of two column sums changes sign; each one is
    bracketed on a fine grid and refined with brentq."""
    if b <= a:
        return 0.0

    def parts(t):
        M = matfun._eval_many(np.asarray(t, dtype=float))
        cols = np.abs(M).sum(axis=0)
        return np.concatenate((M, cols[:, None] - cols[None, :])).reshape((-1,) + M.shape[2:])

    def sign_changes(grid, rows):
        signs = np.sign(parts(grid)[rows])
        return [
            brentq(lambda t: parts(t)[rows][k], grid[i], grid[i + 1], xtol=1e-16)
            for k, i in zip(*np.nonzero(signs[:, :-1] * signs[:, 1:] < 0))
        ]

    # The entries are smooth, so a plain grid brackets their zeros.  Column
    # sums are smooth only between those zeros, so their crossings are
    # bracketed on a grid that includes them.
    n2 = matfun.n**2
    grid = np.linspace(a, b, 4001)
    entry_zeros = sign_changes(grid, slice(0, n2))
    kinks = entry_zeros + sign_changes(np.union1d(grid, entry_zeros), slice(n2, None))
    # A kink within 1e-12 (b - a) of the edge before it or of b is dropped,
    # so quad never runs on a sliver a few ulps wide between two of them.
    edges = [a]
    for kink in sorted(kinks):
        if min(kink - edges[-1], b - kink) > 1e-12 * (b - a):
            edges.append(kink)
    edges.append(b)
    return math.fsum(
        quad(lambda t: norm1(matfun.eval(t)), lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


_trig_entry = st.tuples(
    st.floats(-0.9, 0.9), st.floats(0.3, 1.5), st.integers(1, 3), st.floats(0.0, 6.0)
)


@st.composite
def _trig_systems(draw):
    """Documents whose entries ``a0 + a1 sin(h w t + phase)`` change sign
    (|a0| < a1), with retarded, interior and advanced anchors."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, 3))
    omega = draw(st.floats(0.8, 2.5))
    w = 2.0 * math.pi / omega
    inner = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=p - 1, max_size=p - 1, unique=True)))
    times = [0.0] + [f * omega for f in inner] + [omega]
    args = []
    for lo, hi in zip(times[:-1], times[1:]):
        kind = draw(st.sampled_from(["retarded", "interior", "advanced"]))
        if kind == "interior":
            lo += draw(st.floats(0.2, 0.8)) * (hi - lo)
        args.append(hi if kind == "advanced" else lo)

    def matrix():
        rows = []
        for _ in range(n):
            row = []
            for a0, a1, h, phase in draw(st.lists(_trig_entry, min_size=n, max_size=n)):
                row.append(f"{a0 * a1!r} + {a1!r}*sin({h * w!r}*t + {phase!r})")
            rows.append(row)
        return rows

    return load_system(_doc(matrix(), matrix(), times=tuple(times), args=tuple(args)))


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=12, deadline=None)
@given(_trig_systems())
def test_norm_integrals_meet_their_goal_on_random_trig_systems(system):
    halves = _halves(system)
    for name, matfun in (("A", system.A), ("B", system.B)):
        got = transition._norm_integrals(matfun, name, halves)
        for (a, b), value in zip(halves, got):
            expected = _reference_integral(matfun, a, b)
            assert _within_goal(value, expected), (name, a, b, value - expected)


@st.composite
def _kinky_systems(draw):
    """Documents with harmonics up to 6, whose entry zeros and column
    crossings may sit within 1e-6 of a breakpoint or an anchor: an entry
    ``a1 (a0 + sin(h w (t - z) + phase))`` with ``sin(phase) = -a0``
    vanishes at ``z``, and a second column that copies the first but for
    ``c sin(w (t - z))`` in one entry ties with it at ``z``."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    omega = draw(st.floats(0.8, 2.5))
    w = 2.0 * math.pi / omega
    inner = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=p - 1, max_size=p - 1, unique=True)))
    times = [0.0] + [f * omega for f in inner] + [omega]
    args = []
    for lo, hi in zip(times[:-1], times[1:]):
        kind = draw(st.sampled_from(["retarded", "interior", "advanced"]))
        if kind == "interior":
            lo += draw(st.floats(0.2, 0.8)) * (hi - lo)
        args.append(hi if kind == "advanced" else lo)
    marks = times + args

    def near_mark():
        return draw(st.sampled_from(marks)) + draw(st.floats(-1e-6, 1e-6))

    def entry():
        a0, a1, _, phase = draw(_trig_entry)
        h = draw(st.integers(1, 6))
        if draw(st.booleans()):
            z = near_mark()
            phase = math.asin(-a0) + (math.pi if draw(st.booleans()) else 0.0)
            return f"{a0 * a1!r} + {a1!r}*sin({h * w!r}*(t - {z!r}) + {phase!r})"
        return f"{a0 * a1!r} + {a1!r}*sin({h * w!r}*t + {phase!r})"

    def matrix():
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and draw(st.booleans()):
            i, c = draw(st.integers(0, n - 1)), draw(st.floats(0.05, 0.5))
            for k, row in enumerate(rows):
                row[1] = row[0] if k != i else f"{row[0]} + {c!r}*sin({w!r}*(t - {near_mark()!r}))"
        return rows

    return load_system(_doc(matrix(), matrix(), times=tuple(times), args=tuple(args)))


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@settings(max_examples=12, deadline=None)
@given(_kinky_systems())
def test_norm_integrals_meet_their_goal_on_kink_heavy_systems(system):
    halves = _halves(system)
    for name, matfun in (("A", system.A), ("B", system.B)):
        got = transition._norm_integrals(matfun, name, halves)
        for (a, b), value in zip(halves, got):
            expected = _reference_integral(matfun, a, b)
            assert _within_goal(value, expected), (name, a, b, value - expected)


def test_norm_integral_cap_returns_with_one_warning(monkeypatch, caplog):
    monkeypatch.setattr(transition, "_GK_LIMIT", 2)
    system = load_system(_doc([["sin(100*pi*t)"]]))
    with caplog.at_level("WARNING", logger="idepcag"):
        report = hypothesis_check(system)
    stopped = [r.getMessage() for r in caplog.records if "stopped at" in r.getMessage()]
    assert len(stopped) == 1
    assert "|A|_1 over [0.0, 1.0] stopped at 2 subintervals" in stopped[0], stopped
    assert math.isfinite(report.sigma)


def test_non_finite_norm_between_load_samples_fails_the_regime(monkeypatch):
    # exp(710) overflows only where sin(2 pi t)^1000000 is within ~3e-10 of
    # 1, too narrow for the load-time samples, but the centre node of
    # [0, 0.5] and of [0.5, 1] sits on it.
    system = load_system(_doc([["exp(710*sin(2*pi*t)^1000000)"]], args=(0.5,)))
    calls = []
    eval_many = type(system.A)._eval_many
    monkeypatch.setattr(
        type(system.A), "_eval_many", lambda mf, ts: calls.append(ts.shape) or eval_many(mf, ts)
    )
    report = hypothesis_check(system)
    assert report.sigma_plus == (math.inf,) and report.sigma_minus == (math.inf,)
    assert math.isinf(report.sigma)
    assert report.nu_plus == report.nu_minus == (0.0,)  # B = 0, not inf * 0
    assert not report.passed
    # One level for A, no refinement; B = 0 is constant and takes no sample.
    assert calls == [(2, 17)]


def test_constant_norm_integral_is_closed_form(monkeypatch):
    # Constant entries of every expression kind; the anchors at 0.3 and 2.5
    # (advanced) give pieces of unequal width and one empty piece.
    system = load_system(_doc(
        [["-0.7", "2^3*0.125"], ["exp(0.2) - 1.5", "cos(1) * (3 - 4)"]],
        [["0.25", "0"], ["-(1.5)", "sin(2)"]],
        times=(0.0, 1.1, 2.5), args=(0.3, 2.5),
    ))
    monkeypatch.setattr(type(system.A), "_eval_many", lambda mf, ts: pytest.fail("sampled"))
    pieces = _halves(system)
    assert (2.5, 2.5) in pieces
    for matfun in (system.A, system.B):
        expected = [norm1(matfun.eval(0.0)) * (b - a) for a, b in pieces]
        got = transition._norm_integrals(matfun, "M", pieces)
        assert got == expected and got[-1] == 0.0
    report = hypothesis_check(system)  # no sample on either matrix
    assert report.sigma_plus[0] == math.exp(norm1(system.A.eval(0.0)) * 0.3)
