"""Grids with several impulses per period and interior argument anchors.

The bundled examples all have p = 1 and retarded anchors; these tests pin
the product order of the monodromy assembly, the global index bookkeeping,
and the advanced-argument fixed point on richer grids.
"""

import json
import math

import numpy as np
import pytest

import idepcag as pk
from idepcag import gamma_at
from conftest import narrow_doc

TWO_INTERVAL_DOC = json.dumps({
    "n": 1,
    "omega": 2.0,
    "p": 2,
    "times": [0.0, 0.8, 2.0],
    "args": [0.4, 1.5],   # advanced on [0, 0.4) and [0.8, 1.5)
    "A": [["0.1"]],
    "B": [["0.2*cos(pi*t)"]],
    "impulses": [[[0.3]], [[-0.2]]],
    "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
})


@pytest.fixture(scope="module")
def two_interval():
    return pk.load_system(TWO_INTERVAL_DOC)


def test_gamma_on_two_interval_grid(two_interval):
    grid = two_interval.grid
    assert gamma_at(grid, 0.1) == (0, 0.4)
    assert gamma_at(grid, 0.8) == (1, 1.5)
    assert gamma_at(grid, 1.99) == (1, 1.5)
    # extension rule: interval 2 is [2.0, 2.8) with anchor 2.4
    assert gamma_at(grid, 2.5) == (2, pytest.approx(2.4))
    assert gamma_at(grid, -1.2) == (-1, pytest.approx(-0.5))
    for t in (0.1, 0.8, 1.99, 2.5, -1.2):
        assert grid.gamma(t) == gamma_at(grid, t)[1]


@pytest.mark.parametrize("name", [*pk.BUNDLED_SYSTEMS, "two_interval"])
def test_every_breakpoint_starts_its_interval(name, two_interval):
    # t - m*omega can round below t_j at t = time_at(k) of a later period.
    system = two_interval if name == "two_interval" else pk.load_bundled_system(name)
    grid = system.grid
    ks = range(2000)
    assert [grid.locate(grid.time_at(k))[0] for k in ks] == list(ks)
    times = grid.time_at(np.arange(2000))
    assert np.array_equal(grid.locate(times)[0], np.arange(2000))
    assert np.array_equal(grid.locate(np.nextafter(times, -math.inf))[0], np.arange(-1, 1999))


def test_locate_on_arrays_equals_scalar_locate(two_interval):
    grid = two_interval.grid
    ts = np.array([-3.7, -2.0, 0.0, 0.4, 0.8, 1.99, 2.0, 2.8, 5.3, 6.8, 1e6 + 0.8])
    k, m, j = grid.locate(ts)
    assert [grid.locate(t) for t in ts.tolist()] == list(zip(k.tolist(), m.tolist(), j.tolist()))
    assert np.array_equal(k, m * grid.p + j)
    assert all(type(v) is int for v in grid.locate(2.8))
    for bad in (math.nan, math.inf, -math.inf, 2.0**53 * grid.omega, -1e300):
        with pytest.raises(ValueError, match="finite"):
            grid.locate(bad)
        with pytest.raises(ValueError, match="finite"):
            grid.locate(np.array([0.5, bad]))


def test_cauchy_matrix_at_a_later_breakpoint_is_post_impulse(two_interval):
    # t = 2.8 is t_3, where the impulse I + C_1 = 1.3 acts.
    right = pk.cauchy_matrix(two_interval, 2.8)
    left = pk.cauchy_matrix_left(two_interval, 2.8)
    assert right[0, 0] == pytest.approx(1.3 * left[0, 0], rel=1e-14)
    P = pk.floquet_P(pk.monodromy(two_interval), two_interval.omega)
    gap = pk.q_factor(two_interval, P, 2.8) - pk.q_factor(two_interval, P, 0.8)
    assert pk.norm1(gap) <= 1e-12


def test_monodromy_product_order_scalar_b_zero():
    # with B = 0 and constant a, the period map is elementary:
    # (1 + c_2) e^{a (t_2 - t_1)} (1 + c_1) e^{a t_1}
    doc = json.loads(TWO_INTERVAL_DOC)
    doc["B"] = [["0"]]
    system = pk.load_system(json.dumps(doc))
    X = pk.monodromy(system)
    expected = 0.8 * math.exp(0.1 * 1.2) * 1.3 * math.exp(0.1 * 0.8)
    assert X[0, 0] == pytest.approx(expected, rel=1e-11)


def test_diagonal_oracle_two_intervals(two_interval):
    closed = pk.closed_form_diagonal(two_interval)
    P = pk.floquet_P(pk.monodromy(two_interval), two_interval.omega)
    assert pk.norm1(closed.P - P) <= 1e-7
    for t in (0.0, 0.3, 0.8, 1.2, 2.6, 4.1, 5.7):
        gap = abs(closed.X(t)[0, 0] - pk.cauchy_matrix(two_interval, t)[0, 0])
        assert gap <= 1e-7, t


def test_cauchy_crosses_both_impulses(two_interval):
    # cross-check the discrete product against first principles
    W1 = pk.w_local(two_interval, 0, 0.0, 0.8)
    W2 = pk.w_local(two_interval, 1, 0.8, 2.0)
    manual = 0.8 * W2 @ (1.3 * W1)
    assert pk.norm1(pk.monodromy(two_interval) - manual) <= 1e-12


def test_direct_solver_on_mixed_anchors(two_interval):
    a = pk.solve_cauchy(two_interval, [1.0], 6.0, 0.15)
    b = pk.solve_direct(two_interval, [1.0], 6.0, 0.15)
    scale = max(1.0, float(np.abs(a.states).max()))
    assert pk.max_discrepancy(a, b) <= 1e-7 * scale
    # both impulses of every period are recorded
    times = [round(t, 6) for t, _, _ in a.impulse_pairs()]
    assert times == [0.8, 2.0, 2.8, 4.0, 4.8, 6.0]


def test_structural_residuals_two_interval(two_interval):
    checks = {c.name: c for c in pk.structural_residuals(two_interval)}
    assert all(c.passed for c in checks.values()), {
        k: v.value for k, v in checks.items() if not v.passed
    }


def test_verify_normal_form_two_interval(two_interval):
    report = pk.verify_normal_form(two_interval)
    assert report.expm_roundtrip <= 1e-14
    assert report.q_equation <= 1e-5 * report.q_equation_scale
    # Q is omega-periodic across both impulses.
    P = pk.floquet_P(pk.monodromy(two_interval), two_interval.omega)
    for t in report.sample_times:
        gap = pk.q_factor(two_interval, P, t + 2.0) - pk.q_factor(two_interval, P, t)
        assert pk.norm1(gap) <= 1e-8, t


def test_narrow_interval_normal_form_residuals():
    # Each stencil stays inside the 5e-5 wide interval, where Q is smooth:
    # without that, Q' straddles the impulse at t = 0.99995 and q_equation
    # reads 2.4e3.
    system = pk.load_system(narrow_doc())
    report = pk.verify_normal_form(system)
    assert report.q_equation <= 1e-5 * report.q_equation_scale
    checks = {c.name: c for c in pk.structural_residuals(system)}
    assert not {k: v.value for k, v in checks.items() if not v.passed}


ADVANCED_2X2_DOC = json.dumps({
    "n": 2,
    "omega": 6.283185307179586,
    "p": 1,
    "times": [0.0, 6.283185307179586],
    "args": [3.141592653589793],  # anchor in the middle: advanced then retarded
    "A": [["cos(t)", "-sin(t)"], ["sin(t)", "cos(t)"]],
    "B": [["0.5", "0"], ["0", "0.5"]],
    "impulses": [[[-0.5, 0.0], [0.0, -0.5]]],
    "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
})


@pytest.fixture(scope="module")
def advanced_2x2():
    return pk.load_system(ADVANCED_2X2_DOC)


def test_advanced_2x2_hypothesis_splits_both_sides(advanced_2x2):
    report = pk.hypothesis_check(advanced_2x2)
    # |A|_1 integrates to 4 on each half-interval, |B|_1 to 0.5 pi
    assert report.sigma_plus[0] == pytest.approx(math.exp(4.0), rel=1e-8)
    assert report.sigma_minus[0] == pytest.approx(math.exp(4.0), rel=1e-8)
    assert report.nu_plus[0] == pytest.approx(math.exp(4.0) * 0.5 * math.pi, rel=1e-8)
    assert not report.passed


def test_advanced_2x2_pipelines_agree(advanced_2x2):
    a = pk.solve_cauchy(advanced_2x2, [1.0, -0.5], 3.0 * advanced_2x2.omega,
                        advanced_2x2.omega / 9.0)
    b = pk.solve_direct(advanced_2x2, [1.0, -0.5], 3.0 * advanced_2x2.omega,
                        advanced_2x2.omega / 9.0)
    scale = max(1.0, float(np.abs(a.states).max()))
    assert pk.max_discrepancy(a, b) <= 1e-7 * scale


def test_advanced_2x2_structural_residuals(advanced_2x2):
    checks = {c.name: c for c in pk.structural_residuals(advanced_2x2)}
    failing = {k: v.value for k, v in checks.items() if not v.passed}
    assert not failing


def test_advanced_2x2_anchor_fixed_point(advanced_2x2):
    # the dense value at the anchor must satisfy the J fixed point:
    # x(zeta) = J(t_k, zeta)^{-1} Phi(zeta, t_k) x(t_k)
    from idepcag.simulate import _direct_anchor_value

    x0 = np.array([1.0 + 0j, -0.5 + 0j])
    v = _direct_anchor_value(advanced_2x2, 0, x0)
    zeta = advanced_2x2.grid.args[0]
    expected = pk.cauchy_matrix(advanced_2x2, zeta) @ x0
    assert np.abs(v - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())
