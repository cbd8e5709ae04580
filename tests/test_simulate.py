import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from idepcag import (
    NumericalError,
    eig,
    interval_operators,
    load_bundled_system,
    load_system,
    max_discrepancy,
    monodromy,
    solve_cauchy,
    solve_direct,
    w_local,
)
from idepcag import simulate, transition
from idepcag.model import ArgumentGrid
from idepcag.simulate import Trajectory, _layout, _near
from conftest import count_partial_steps, sin_doc

TWO_PI = 2.0 * math.pi


def _state_at(traj, t, kind="sample"):
    for ti, ki, xi in zip(traj.times, traj.kinds, traj.states):
        if ki == kind and abs(ti - t) <= 1e-12:
            return xi
    raise AssertionError(f"no {kind} record at t = {t}")


def test_scalar_trajectory_matches_figure_values(scalar_system):
    # x(t) = (-1)^[t] (1 - 1.3 (t - [t])) * 6
    traj = solve_cauchy(scalar_system, [6.0], 6.0, 0.5)
    assert _state_at(traj, 0.5)[0].real == pytest.approx(2.1, abs=1e-9)
    assert _state_at(traj, 1.5)[0].real == pytest.approx(-2.1, abs=1e-9)
    assert _state_at(traj, 0.0)[0].real == pytest.approx(6.0, abs=0)
    # sign alternates every unit interval
    for k in range(6):
        sample = _state_at(traj, k + 0.5)[0].real
        assert math.copysign(1.0, sample) == (-1.0) ** k


def test_breakpoints_have_left_and_post_records(scalar_system):
    traj = solve_cauchy(scalar_system, [6.0], 3.0, 0.5)
    pairs = traj.impulse_pairs()
    assert [round(t) for t, _, _ in pairs] == [1, 2, 3]
    factor = 10.0 / 3.0
    for _, left, post in pairs:
        assert np.abs(post - factor * left).max() <= 1e-9 * max(1.0, np.abs(left).max())


def test_impulse_pair_invariant_rotation(rotation_system):
    traj = solve_cauchy(rotation_system, [1.0, 2.0], 3.0 * TWO_PI, 1.0)
    for _, left, post in traj.impulse_pairs():
        scale = max(1.0, float(np.abs(left).max()))
        assert np.abs(post - 0.2 * left).max() <= 1e-9 * scale


def test_zero_initial_data_stays_zero(rotation_system):
    traj = solve_cauchy(rotation_system, [0.0, 0.0], 10.0, 0.7)
    assert np.abs(traj.states).max() == 0.0


def test_sin_nonimpulsive_closed_form(sin_nonimpulsive):
    traj = solve_cauchy(sin_nonimpulsive, [1.0], 3.0, 0.125)
    for t, kind, x in zip(traj.times, traj.kinds, traj.states):
        if kind != "sample":
            continue
        expected = 1.0 + (1.0 - math.cos(2.0 * math.pi * t)) / (2.0 * math.pi)
        assert x[0].real == pytest.approx(expected, abs=1e-9)
        assert abs(x[0].imag) == 0.0


def test_samples_between_breakpoints_are_continuous(my_system):
    traj = solve_cauchy(my_system, [1.0, 0.0], 2.0 * math.pi, 0.01)
    samples = [(t, x) for t, k, x in zip(traj.times, traj.kinds, traj.states) if k == "sample"]
    for (t0, x0), (t1, x1) in zip(samples, samples[1:]):
        if t1 - t0 > 0.02:  # breakpoint in between
            continue
        assert np.abs(x1 - x0).max() <= 10.0 * (t1 - t0) * max(1.0, np.abs(x0).max())


def test_direct_matches_cauchy_scalar(scalar_system):
    x0 = [6.0]
    a = solve_cauchy(scalar_system, x0, 5.0, 0.25)
    b = solve_direct(scalar_system, x0, 5.0, 0.25)
    assert max_discrepancy(a, b) <= 1e-10 * 6.0


def test_discrepancy_needs_one_schedule(scalar_system):
    a = solve_cauchy(scalar_system, [6.0], 5.0, 0.25)
    b = solve_cauchy(scalar_system, [6.0], 5.0, 0.5)
    with pytest.raises(ValueError, match="different schedules"):
        max_discrepancy(a, b)


def test_direct_matches_cauchy_all_bundled(scalar_system, sin_system, rotation_system, my_system):
    for system in (scalar_system, sin_system, rotation_system, my_system):
        x0 = np.ones(system.n)
        t_end = 5.0 * system.omega
        a = solve_cauchy(system, x0, t_end, system.omega / 7.0)
        b = solve_direct(system, x0, t_end, system.omega / 7.0)
        scale = max(1.0, float(np.abs(a.states).max()))
        assert max_discrepancy(a, b) <= 1e-7 * scale


def test_direct_reduces_to_impulsive_ode(my_system):
    # B = 0: the anchor solve is trivial and the integration is classical
    a = solve_cauchy(my_system, [1.0, 1.0], math.pi * 3.0, 0.3)
    b = solve_direct(my_system, [1.0, 1.0], math.pi * 3.0, 0.3)
    scale = max(1.0, float(np.abs(a.states).max()))
    assert max_discrepancy(a, b) <= 1e-8 * scale


def test_advanced_anchor_agreement():
    # zeta_0 = 0.5 sits mid-interval: gamma(t) is genuinely advanced on
    # [0, 0.5), so the direct solver must solve the J fixed point
    doc = json.loads(sin_doc(0.7))
    doc["args"] = [0.5]
    system = load_system(json.dumps(doc))
    a = solve_cauchy(system, [1.0], 4.0, 0.2)
    b = solve_direct(system, [1.0], 4.0, 0.2)
    scale = max(1.0, float(np.abs(a.states).max()))
    assert max_discrepancy(a, b) <= 1e-7 * scale


def test_retarded_anchor_skips_fixed_point(scalar_system):
    from idepcag.simulate import _direct_anchor_value

    value = _direct_anchor_value(scalar_system, 0, np.array([3.0 + 0j]))
    assert value[0] == 3.0 + 0j


def test_superposition(rotation_system):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
    t_end, dt = TWO_PI * 1.5, 0.7
    combo = solve_cauchy(rotation_system, alpha * x + beta * y, t_end, dt)
    xa = solve_cauchy(rotation_system, x, t_end, dt)
    yb = solve_cauchy(rotation_system, y, t_end, dt)
    gap = np.abs(combo.states - (alpha * xa.states + beta * yb.states)).max()
    assert gap <= 1e-9 * max(1.0, np.abs(combo.states).max())


def test_multiplier_growth_on_eigenvector(rotation_system):
    X = monodromy(rotation_system)
    spectrum = eig(X)
    rho = spectrum.eigenvalues[0]
    v = spectrum.eigenvectors[:, 0]
    traj = solve_cauchy(rotation_system, v, 3.0 * TWO_PI, TWO_PI / 8.0)
    samples = {
        round(t, 9): x
        for t, k, x in zip(traj.times, traj.kinds, traj.states)
        if k == "sample"
    }
    for t in (TWO_PI / 8.0, TWO_PI / 2.0, TWO_PI * 0.875):
        x_t = samples[round(t, 9)]
        x_tw = samples[round(t + TWO_PI, 9)]
        ratio = np.linalg.norm(x_tw) / np.linalg.norm(x_t)
        assert ratio == pytest.approx(abs(rho), rel=1e-5)


def test_first_interval_is_pure_local(rotation_system):
    traj = solve_cauchy(rotation_system, [1.0, 0.5], 0.5, 0.1)
    for t, kind, x in zip(traj.times, traj.kinds, traj.states):
        if kind != "sample" or t == 0.0:
            continue
        expected = w_local(rotation_system, 0, 0.0, t) @ np.array([1.0, 0.5])
        assert np.abs(x - expected).max() <= 1e-10


def test_csv_format(scalar_system):
    traj = solve_cauchy(scalar_system, [6.0], 2.0, 0.5)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "t,kind,re_x1,im_x1"
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"sample", "left_limit", "post_impulse"}
    first = lines[1].split(",")
    assert first[0] == "0.000000000000e+00"
    assert first[2] == "6.000000000000e+00"


def test_t_end_inside_interval_keeps_final_sample(scalar_system):
    traj = solve_cauchy(scalar_system, [1.0], 2.3, 1.0)
    assert traj.times[-1] == pytest.approx(2.3)
    assert traj.kinds[-1] == "sample"


def test_invalid_arguments(scalar_system):
    with pytest.raises(ValueError):
        solve_cauchy(scalar_system, [1.0], -1.0, 0.1)
    with pytest.raises(ValueError):
        solve_direct(scalar_system, [1.0], 1.0, 0.0)


def test_non_finite_span_rejected(scalar_system):
    for t_end, dt_out in ((math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            solve_cauchy(scalar_system, [1.0], t_end, dt_out)
        with pytest.raises(ValueError):
            solve_direct(scalar_system, [1.0], t_end, dt_out)


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [math.inf, 1.0], [0.0, complex(0.0, -math.inf)],
                                [float("1e400"), 0.0]])
def test_non_finite_x0_rejected(rotation_system, x0):
    for solver in (solve_cauchy, solve_direct):
        with pytest.raises(ValueError, match="x0 must be finite"):
            solver(rotation_system, x0, 1.0, 0.1)


def test_horizon_past_record_limit_rejected(scalar_system, monkeypatch):
    # scalar_impulse: omega = 1, p = 1.  The estimate t_end / dt_out +
    # 2 p t_end / omega is 16 at t_end = 4, dt_out = 0.5, an upper bound
    # on the 13 records (half the samples fall on breakpoints).
    monkeypatch.setattr(simulate, "MAX_RECORDS", 16)
    assert len(solve_cauchy(scalar_system, [1.0], 4.0, 0.5).times) == 13
    for solver in (solve_cauchy, solve_direct):
        with pytest.raises(ValueError, match="records, more than 16"):
            solver(scalar_system, [1.0], 4.0, 0.25)


def test_horizon_near_zero_is_the_initial_row(scalar_system):
    # t_end = 1e-10 is _near 0 and every sample is _near t_end: no interval
    # runs, and the trajectory is its t = 0 sample.
    for solver in (solve_cauchy, solve_direct):
        traj = solver(scalar_system, [6.0], 1e-10, 1e-11)
        assert traj.times.tolist() == [0.0]
        assert traj.kinds == ("sample",)
        assert traj.states.tolist() == [[6.0]]


# ------------------------------------------------- references for the batch


def _reference_plan(system, t_end, dt_out):
    """The quadratic schedule: every sample against every breakpoint."""
    grid = system.grid
    breaks = [t for _, t in grid.breakpoints_between(0.0, t_end)]
    samples = []
    i = 1
    while True:
        t = i * dt_out
        if t >= t_end or _near(t, t_end):
            break
        if not any(_near(t, b) for b in breaks):
            samples.append(t)
        i += 1

    plan = []
    k = 0
    t_cursor = 0.0
    while t_cursor < t_end and not _near(t_cursor, t_end):
        t_next = grid.time_at(k + 1)
        stops_at_break = t_next < t_end or _near(t_next, t_end)
        t_stop = t_next if stops_at_break else t_end
        inside = [t for t in samples if t_cursor < t < t_stop and not _near(t, t_stop)]
        plan.append((k, t_cursor, t_stop, inside, stops_at_break))
        t_cursor = t_stop
        k += 1
    return plan


def _reference_cauchy(system, x0, t_end, dt_out):
    """One ``e_at`` lookup per record, a breakpoint's left limit at its
    interval's end node: (times, kinds, states)."""
    ops_base = interval_operators(system)
    records = [(0.0, "sample", x0)]
    x_k = x0
    for k, _, t_stop, inside, has_impulse in _reference_plan(system, t_end, dt_out):
        ops = ops_base[k % system.p]
        shift = (k // system.p) * system.omega
        anchor = ops.E_left_inv @ x_k
        for t in inside:
            records.append((t, "sample", ops.e_at(t - shift) @ anchor))
        left = ops.e_at(ops.t_right if has_impulse else t_stop - shift) @ anchor
        if has_impulse:
            x_k = system.impulse_factor(k + 1) @ left
            records += [(t_stop, "left_limit", left), (t_stop, "post_impulse", x_k)]
        else:
            records.append((t_stop, "sample", left))
    times, kinds, states = zip(*records)
    return np.array(times), kinds, np.array(states)


def test_direct_below_the_rtol_floor_runs_at_the_floor():
    # scipy warns of an rtol under 100 eps and raises it to that floor; the
    # interval anchor is interior, so both solve_ivp calls see it.
    tolerances = {"ode_abs": 1e-12, "ode_rel": 1e-16, "alg": 1e-9}
    doc = json.loads(sin_doc(0.5, tolerances))
    doc["args"] = [0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_direct(load_system(json.dumps(doc)), [1.0], 2.0, 0.25)
    doc["tolerances"]["ode_rel"] = transition._RTOL_FLOOR
    floor = solve_direct(load_system(json.dumps(doc)), [1.0], 2.0, 0.25)
    assert np.array_equal(got.states, floor.states)


def _growth_system():
    """``x' = 400 x`` over ``omega = 1``: ``x(t)`` leaves the float range at
    ``t = log(max float) / 400 = 1.7745``."""
    return load_system(json.dumps({"n": 1, "omega": 1, "p": 1, "times": [0, 1], "args": [0],
                                   "A": [["400"]], "B": [["0"]], "impulses": [[[0]]]}))


def test_direct_past_the_float_range_names_the_time():
    with pytest.raises(NumericalError, match="leaves the float range") as caught:
        solve_direct(_growth_system(), [1.0], 3.0, 0.1)
    head, _, tail = str(caught.value).partition(": ")
    assert head.startswith("x(t) is not finite past t = ") and tail == "it leaves the float range"
    assert 1.7 < float(head.rpartition(" = ")[2]) < math.log(np.finfo(float).max) / 400


def test_direct_keeps_scipys_message_for_other_failures(monkeypatch):
    def failing(*args, **kwargs):
        sol = scipy.integrate.solve_ivp(*args, **kwargs)
        sol.success, sol.message = False, "no luck"
        return sol

    monkeypatch.setattr(simulate, "solve_ivp", failing)
    with pytest.raises(NumericalError, match="^interval integration failed: no luck$"):
        solve_direct(load_bundled_system("sin_impulse"), [1.0], 2.0, 0.5)
    doc = json.loads(sin_doc(0.7))
    doc["args"] = [0.5]
    with pytest.raises(NumericalError, match="^anchor integration failed: no luck$"):
        solve_direct(load_system(json.dumps(doc)), [1.0], 2.0, 0.5)


def test_scipy_names_of_the_tracer_resolve_to_scipy():
    # perfbench/tracing.py patches these three by name; none is imported
    # with the package.
    assert transition.quad is scipy.integrate.quad
    assert transition.solve_ivp is scipy.integrate.solve_ivp
    assert simulate.solve_ivp is scipy.integrate.solve_ivp
    for module in (transition, simulate):
        with pytest.raises(AttributeError, match="has no attribute 'romberg'"):
            module.romberg


def test_a_bound_solve_ivp_sees_every_dop853_solve(monkeypatch):
    # Every DOP853 solver that solve_direct starts, anchor solves included,
    # comes from the solve_ivp bound on the module at call time.
    started, seen = [], []
    dop853_init = scipy.integrate.DOP853.__init__

    def init(self, *args, **kwargs):
        started.append(args[1])
        dop853_init(self, *args, **kwargs)

    def traced(fun, t_span, *args, **kwargs):
        seen.append(t_span[0])
        return scipy.integrate.solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate.DOP853, "__init__", init)
    setattr(simulate, "solve_ivp", traced)
    try:
        doc = json.loads(sin_doc(0.7))
        doc["args"] = [0.5]
        solve_direct(load_system(json.dumps(doc)), [1.0], 3.0, 0.5)
    finally:
        del simulate.solve_ivp
    # Three intervals, each an anchor solve from 0.5 + k and a state solve from k.
    assert seen == started == [0.5, 0.0, 1.5, 1.0, 2.5, 2.0]
    assert simulate.solve_ivp is scipy.integrate.solve_ivp


def test_post_impulse_records_follow_the_period_map_in_extended_precision(rotation_system):
    # At a breakpoint the record is the post-impulse state X(t_k) x0, read
    # from the cached end nodes: it must follow the cached period map
    # S = (I + C_1) E(omega) E(0)^-1, chained here in np.longdouble.
    system = rotation_system
    x0 = np.linspace(1.0, -0.5, system.n) + 0.25j
    traj = solve_cauchy(system, x0, 100 * system.omega, system.omega / 20.0)
    posts = traj.states[[kind == "post_impulse" for kind in traj.kinds]]
    ops = interval_operators(system)[0]
    S = ops.period_step.astype(np.longdouble)
    y, chain = x0.astype(np.clongdouble), []
    for _ in range(100):
        y = S @ y
        chain.append(y)
    chain = np.array(chain)
    assert posts.shape == chain.shape
    rel = np.abs(posts - chain).max(axis=1) / np.abs(chain).max(axis=1)
    assert float(rel.max()) <= 1e-14


def _reference_csv(traj):
    """The per-cell formatter."""
    lines = [",".join(["t", "kind"] + [f"{p}_x{j}" for j in range(1, traj.n + 1)
                                       for p in ("re", "im")])]
    for t, kind, state in zip(traj.times, traj.kinds, traj.states):
        cells = [f"{t:.12e}", kind]
        for z in state:
            cells += [f"{z.real:.12e}", f"{z.imag:.12e}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def _plan_cases(draw):
    p = draw(st.integers(1, 3))
    integer = draw(st.booleans())
    if integer:
        widths = [float(w) for w in draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))]
    else:
        widths = draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p))
    times = [0.0]
    for w in widths:
        times.append(times[-1] + w)
    args = []
    for k in range(p):
        where = draw(st.sampled_from(("left", "right", "inside")))
        if where == "left":
            args.append(times[k])
        elif where == "right":
            args.append(times[k + 1])
        else:
            args.append(times[k] + draw(st.floats(0.0, 1.0)) * (times[k + 1] - times[k]))
    omega = times[-1]
    grid = ArgumentGrid(omega=omega, p=p, times=tuple(times), args=tuple(args))
    divisors = [omega / 20.0, omega / 7.0] + ([0.5] if integer else [])
    dt_out = draw(st.one_of(st.sampled_from(divisors), st.floats(omega / 40.0, 1.5 * omega)))
    # Samples within about the _near tolerance of a breakpoint.
    dt_out *= 1.0 + draw(st.sampled_from((0.0, 0.0, 1e-11, -1e-11, 2e-10, -2e-10)))
    periods = draw(st.integers(1, 10))
    base = draw(st.sampled_from(("period", "break", "sample", "free")))
    if base == "period":
        t_end = periods * omega
    elif base == "break":
        t_end = grid.time_at(draw(st.integers(1, periods * p)))
    elif base == "sample":
        t_end = draw(st.integers(1, int(periods * omega / dt_out) + 1)) * dt_out
    else:
        t_end = draw(st.floats(1e-3, periods * omega))
    t_end += draw(st.one_of(
        st.sampled_from((0.0, 1e-10, -1e-10)),
        st.floats(-1e-10, 1e-10),
        st.floats(-2e-9, 2e-9).map(lambda r: r * max(1.0, t_end)),
    ))
    return SimpleNamespace(grid=grid), t_end, dt_out


@settings(max_examples=300, deadline=None)
@given(_plan_cases())
def test_layout_matches_quadratic_reference(case):
    system, t_end, dt_out = case
    rows = [(0.0, 0)]
    for _, _, t_stop, inside, has_impulse in _reference_plan(system, t_end, dt_out):
        rows += [(t, 0) for t in inside]
        rows += [(t_stop, 1), (t_stop, 2)] if has_impulse else [(t_stop, 0)]
    times, codes = _layout(system, t_end, dt_out)
    assert list(zip(times.tolist(), codes.tolist())) == rows


ADVANCED_N3_P2_DOC = json.dumps({
    "n": 3,
    "omega": 2.0,
    "p": 2,
    "times": [0.0, 0.8, 2.0],
    "args": [0.8, 1.3],   # advanced anchors: at the right endpoint, then interior
    "A": [["-0.05", "0.3*sin(pi*t)", "0"],
          ["-0.2", "0.02", "0.1*cos(pi*t)"],
          ["0", "0.15", "-0.03"]],
    "B": [["0.1", "0", "0.05*cos(pi*t)"], ["0", "-0.1", "0"], ["0.02", "0", "0.05"]],
    "impulses": [[[0.1, 0, 0], [0, -0.1, 0.05], [0, 0, 0.02]],
                 [[-0.05, 0.02, 0], [0, 0.03, 0], [0.01, 0, -0.04]]],
    "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
})


@pytest.mark.parametrize("name, periods", [
    ("scalar_impulse", 5), ("sin_impulse", 5), ("rotation_2x2", 5), ("markus_yamabe", 5),
    ("markus_yamabe", 100), ("advanced_n3_p2", 50),
])
def test_batched_cauchy_matches_per_sample_reference(name, periods):
    if name == "advanced_n3_p2":
        system = load_system(ADVANCED_N3_P2_DOC)
    else:
        system = load_bundled_system(name)
    x0 = np.linspace(1.0, -0.5, system.n) + 0.25j
    t_end, dt_out = periods * system.omega, system.omega / 20.0
    traj = solve_cauchy(system, x0, t_end, dt_out)
    times, kinds, states = _reference_cauchy(system, x0, t_end, dt_out)
    assert traj.kinds == kinds
    assert np.array_equal(traj.times, times)
    gap = np.abs(traj.states - states).max(axis=1)
    assert np.all(gap <= 1e-13 * np.abs(states).max(axis=1))


def test_long_trajectory_steps_only_its_distinct_phases(monkeypatch, my_system):
    # At dt_out = omega / 20 the same local phases come back every period;
    # the states are checked against the per-record reference above.
    interval_operators(my_system)
    steps = count_partial_steps(monkeypatch)
    traj = solve_cauchy(my_system, [1.0, 0.5j], 100 * my_system.omega, my_system.omega / 20.0)
    assert sum(steps) < 0.1 * len(traj.times)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2e-310, 2.2250738585072014e-308, 1e-300, -1e300,
                  1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan,
                  1.0 / 3.0, -123456.789012345678]


def _trajectory(times, values, n):
    values = np.asarray(values, dtype=float).reshape(len(times), 2 * n)
    states = np.empty((len(times), n), dtype=complex)
    states.real, states.imag = values[:, 0::2], values[:, 1::2]
    kinds = tuple(("sample", "left_limit", "post_impulse")[i % 3] for i in range(len(times)))
    return Trajectory(np.array(times, dtype=float), kinds, states, "cauchy", 1.0, 0.1)


def test_csv_bytes_match_per_cell_formatter_on_special_values():
    m = len(SPECIAL_FLOATS)
    values = [SPECIAL_FLOATS[(i * 5 + 3) % m] for i in range(m * 4)]
    traj = _trajectory(SPECIAL_FLOATS, values, 2)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    assert buffer.getvalue() == _reference_csv(traj)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=36, max_size=36),
)))
def test_csv_bytes_match_per_cell_formatter(case):
    n, times, values = case
    traj = _trajectory(times, values[: 2 * n * len(times)], n)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    assert buffer.getvalue() == _reference_csv(traj)


def _assert_cells_match_printf(values):
    """``write_csv`` prints every float of ``values`` as ``'%.12e' % v``."""
    values = np.asarray(values, dtype=float)
    rows = values[: values.size // 5 * 5].reshape(-1, 5)
    traj = _trajectory(rows[:, 0], rows[:, 1:], 2)
    buffer = io.StringIO()
    traj.write_csv(buffer)
    expected = "".join(
        ",".join(["%.12e" % row[0], kind] + ["%.12e" % v for v in row[1:]]) + "\n"
        for row, kind in zip(rows.tolist(), traj.kinds)
    )
    assert buffer.getvalue().split("\n", 1)[1] == expected


def test_csv_cells_exact_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    _assert_cells_match_printf(rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(float))


def test_csv_cells_exact_on_log_uniform_magnitudes():
    rng = np.random.default_rng(21)
    # The whole double range, and the range of the vectorized path.
    magnitudes = np.concatenate([10.0 ** rng.uniform(-320.0, 308.0, 40_000),
                                 10.0 ** rng.uniform(-11.0, 24.0, 40_000)])
    _assert_cells_match_printf(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))


def test_csv_cells_exact_near_ties_and_carries():
    rng = np.random.default_rng(22)
    # The doubles nearest (D + 1/2) 10^(e-12): significands a hair from a
    # rounding tie, in and beyond the kernel's exponent range.
    digits = rng.integers(10**12, 10**13, 20_000).tolist()
    exponents = rng.integers(-14, 26, 20_000).tolist()
    ties = [float(f"{d}5e{e - 13}") for d, e in zip(digits, exponents)]
    # 9.9999999999995e+-k rounds up to 1.000000000000e(k+1) or stays below,
    # depending on its last bits; walk 64 ulps either side.
    carries = np.array([float(f"9.9999999999995e{k}") for k in range(-14, 26)]
                       + [float(f"-9.9999999999995e{k}") for k in range(-14, 26)])
    walk, up, down = [carries], carries, carries
    for _ in range(64):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        walk += [up, down]
    powers = np.array([10.0**k for k in range(-12, 25)] + [1e23, 1e-10, 1e22])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_cells_match_printf(np.concatenate([ties, np.concatenate(walk), edges, -edges]))


def test_csv_cells_exact_on_zeros_subnormals_and_non_finite():
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, math.nan,
               -math.nan, math.inf, -math.inf, 1.7976931348623157e308, 9.99999999999e-11]
    _assert_cells_match_printf(special * 20)
