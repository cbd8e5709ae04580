"""Regression tests for the Magnus transition layer (the stacked
exponential, the Richardson step control, the partial-step dense output) and
the batched reads of the verification checks, which must give the bits of
the per-time reads they replace."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from idepcag import (
    NumericalError,
    analyze,
    cauchy_matrix,
    cauchy_matrix_left,
    closed_form_diagonal,
    e_matrix,
    expm,
    floquet_P,
    floquet_P_real,
    fundamental_matrix,
    interval_operators,
    load_bundled_system,
    load_system,
    monodromy,
    norm1,
    q_factor,
    solve_direct,
    structural_residuals,
    verify_normal_form,
)
from idepcag import floquet, linalg, transition
from idepcag.floquet import (
    _Q_SAMPLES,
    NormalFormResiduals,
    _cauchy_many,
    _interior_samples,
)
from conftest import narrow_doc

BUNDLED = ("markus_yamabe", "rotation_2x2", "scalar_impulse", "sin_impulse")

# Multipliers of the bundled systems as computed with scipy's RK45 stepper
# at the documents' tolerances, before the transition layer moved to DOP853.
RK45_MULTIPLIERS = {
    "markus_yamabe": [-4.8104773809634285 + 0j, -0.043213918263830475 + 0j],
    "rotation_2x2": [
        0.8789639019331408 - 1.057423625632454j,
        0.8789639019331408 + 1.057423625632454j,
    ],
    "scalar_impulse": [-0.9999999999999987 + 0j],
    "sin_impulse": [-0.8000000000003848 + 0j],
}


@pytest.mark.parametrize("name", BUNDLED)
def test_multipliers_within_1e10_of_rk45(name):
    got = analyze(load_bundled_system(name)).multipliers
    expected = np.array(RK45_MULTIPLIERS[name])
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected))


def _fd5(f, t, h):
    return (f(t - 2 * h) - 8.0 * f(t - h) + 8.0 * f(t + h) - f(t + 2 * h)) / (12.0 * h)


def _reference_verify_normal_form(system, P=None, samples=4, real=False):
    """``verify_normal_form`` as it was before its per-time memo: every
    stencil point recomputes ``Q`` from scratch."""
    omega = system.omega
    X_omega = monodromy(system)
    if P is None:
        P = floquet_P_real(X_omega, omega) if real else floquet_P(X_omega, omega)
    factor = 2 if real else 1
    X_factor = np.linalg.matrix_power(X_omega, factor)
    roundtrip = norm1(expm(P * (factor * omega)) - X_factor) / max(1.0, norm1(X_factor))
    ts, _, steps = _interior_samples(system, samples)

    Q = lambda t: q_factor(system, P, t)
    Q_left = lambda t: cauchy_matrix_left(system, t) @ expm(-P * t)

    grid = system.grid
    q_resid = 0.0
    q_scale = 1.0
    for t, h in zip(ts, steps):
        dQ = _fd5(Q, t, h)
        _, m, j = grid.locate(t)
        gamma = grid.args[j] + m * omega
        q_gamma = (
            Q_left(gamma)
            if grid.args[j] == grid.times[j + 1]
            else q_factor(system, P, gamma)
        )
        rhs = (
            system.A.eval(t) @ Q(t)
            - Q(t) @ P
            + system.B.eval(t) @ q_gamma @ expm(P * (gamma - t))
        )
        q_resid = max(q_resid, norm1(dQ - rhs))
        q_scale = max(q_scale, norm1(rhs))

    return NormalFormResiduals(
        period_factor=factor,
        expm_roundtrip=roundtrip,
        q_equation=q_resid,
        q_equation_scale=q_scale,
        sample_times=tuple(ts),
    )


def _generated_doc(seed, n, anchors):
    """Trigonometric n x n system with one anchor kind per interval:
    ``"retarded"`` (zeta_k = t_k), ``"interior"`` or ``"advanced"``
    (zeta_k = t_{k+1}); small coefficients keep every anchor invertible."""
    rng = np.random.default_rng(seed)
    p = len(anchors)
    omega = float(rng.uniform(1.0, 3.0))
    cuts = np.sort(rng.uniform(0.2, 0.8, size=p - 1)) * omega
    times = [0.0, *cuts.tolist(), omega]
    args = []
    for k, kind in enumerate(anchors):
        lo, hi = times[k], times[k + 1]
        args.append({"retarded": lo, "advanced": hi}.get(kind, lo + 0.4 * (hi - lo)))
    w = 2.0 * np.pi / omega

    def entry(amp):
        a0, a1 = rng.uniform(-amp, amp, size=2)
        return f"{a0:.17g} + {a1:.17g}*sin({w:.17g}*t)"

    return json.dumps({
        "n": n,
        "omega": omega,
        "p": p,
        "times": times,
        "args": args,
        "A": [[entry(0.6) for _ in range(n)] for _ in range(n)],
        "B": [[entry(0.3) for _ in range(n)] for _ in range(n)],
        "impulses": rng.uniform(-0.3, 0.3, size=(p, n, n)).tolist(),
        "tolerances": {"ode_abs": 1e-11, "ode_rel": 1e-11, "alg": 1e-9},
    })


GENERATED = {
    "generated-1": (1, 1, ("interior",)),
    "generated-2": (2, 2, ("retarded", "advanced")),
    "generated-3": (3, 2, ("advanced", "interior", "retarded")),
    "generated-4": (4, 3, ("interior", "advanced")),
}


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("label", [*BUNDLED, *GENERATED, "narrow"])
def test_verify_normal_form_equals_unmemoised_reference(label, real):
    system = load_system(narrow_doc()) if label == "narrow" else _load(label)
    expected = _reference_verify_normal_form(system, real=real)
    assert verify_normal_form(system, real=real) == expected


@settings(max_examples=50, deadline=None)
@given(widths=st.lists(st.floats(-9.0, 3.0).map(lambda e: 10.0**e), min_size=1, max_size=4))
def test_interior_stencils_stay_inside_their_intervals(widths):
    times = np.concatenate(([0.0], np.cumsum(widths))).tolist()
    p = len(widths)
    system = load_system(json.dumps({
        "n": 1, "omega": times[-1], "p": p, "times": times, "args": times[:-1],
        "A": [["0"]], "B": [["0"]], "impulses": [[[0.0]]] * p,
    }))
    ts, js, steps = _interior_samples(system, _Q_SAMPLES)
    assert np.array_equal(js, np.arange(p).repeat(_Q_SAMPLES))
    # The stencil as _normal_form_residuals places it.
    stencil = ts[:, None] + np.arange(-2, 3) * steps[:, None]
    grid = np.asarray(system.grid.times)
    assert (grid[js, None] < stencil).all() and (stencil < grid[js + 1, None]).all()


def _load(label):
    if label in GENERATED:
        return load_system(_generated_doc(*GENERATED[label]))
    return load_bundled_system(label)


def _reference_state(system, k):
    """``X(t_k)`` from one cached period step per breakpoint."""
    ops = interval_operators(system)
    X = np.eye(system.n)
    for r in range(1, k + 1):
        X = ops[(r - 1) % system.p].period_step @ X
    return X


def _reference_cauchy(system, t, left=False):
    """``W(t, 0)``, or its left limit, read one time at a time: the local
    factor from ``e_at`` times the state at the last breakpoint."""
    ops = interval_operators(system)
    grid = system.grid
    k, m, j = grid.locate(t)
    tk = grid.time_at(k)
    if left and k >= 1 and abs(t - tk) <= 1e-12 * max(1.0, abs(tk)):
        o = ops[(k - 1) % system.p]
        return (o.e_at(o.t_right) @ o.E_left_inv) @ _reference_state(system, k - 1)
    local = ops[j].e_at(t - m * system.omega) @ ops[j].E_left_inv
    return local @ _reference_state(system, k)


@pytest.mark.parametrize("label", [*BUNDLED, "generated-2", "generated-4"])
def test_period_step_is_the_impulse_times_the_interval_map(label):
    # The right end node read back through e_at, times the cached inverse of
    # the left one: the same bits as the step formed in the build.
    system = _load(label)
    for j, o in enumerate(interval_operators(system)):
        expected = system.impulse_factor(j + 1) @ (o.e_at(o.t_right) @ o.E_left_inv)
        assert np.array_equal(o.period_step, expected)


@pytest.mark.parametrize("label", [*BUNDLED, "generated-2", "generated-4"])
def test_build_inverts_each_left_end_twice(label, monkeypatch):
    # Once for the cached step and E_left^-1, once in the assembly of the
    # error-moved X(omega); X(omega) itself is the product of the cached steps.
    inverted = []
    inv = transition.inv
    monkeypatch.setattr(transition, "inv", lambda M: inverted.append(M) or inv(M))
    system = _load(label)
    assert transition.build_operators([system]) == [None]
    assert len(inverted) == 2 * system.p


@pytest.mark.parametrize("label", [*BUNDLED, *GENERATED])
def test_cauchy_many_rows_equal_per_time_reads(label):
    system = _load(label)
    grid, omega = system.grid, system.omega
    # t = 0, the breakpoints and anchors of three periods (advanced anchors
    # included), times several periods out, and a time within the
    # breakpoint tolerance; unsorted, with repeats.
    ts = [0.0, *(grid.time_at(k) for k in range(1, 3 * system.p + 1)),
          *(grid.arg_at(k) for k in range(3 * system.p)),
          0.37 * omega, 4.61 * omega, 7.0 * omega, 2.0 * omega + 1e-13][::-1]
    ts += ts[:4]
    for left, per_time in ((False, cauchy_matrix), (True, cauchy_matrix_left)):
        times = [t for t in ts if t > 0] if left else ts
        rows = _cauchy_many(system, times, left=left)
        assert rows.shape == (len(times), system.n, system.n)
        for t, row in zip(times, rows):
            assert np.array_equal(row, _reference_cauchy(system, t, left)), (left, t)
            assert np.array_equal(per_time(system, t), row), (left, t)
    assert np.array_equal(monodromy(system), _reference_state(system, system.p))


@pytest.mark.parametrize("label", [*BUNDLED, *GENERATED])
def test_cauchy_many_takes_a_left_mask_and_a_right_hand_block(label):
    system = _load(label)
    grid, omega = system.grid, system.omega
    ts = np.array([*(grid.time_at(k) for k in range(1, 3 * system.p + 1)),
                   0.37 * omega, 4.61 * omega, 2.0 * omega + 1e-13])
    mask = np.arange(ts.size) % 2 == 0
    rows = _cauchy_many(system, ts, mask)
    assert np.array_equal(rows[mask], _cauchy_many(system, ts[mask], left=True))
    assert np.array_equal(rows[~mask], _cauchy_many(system, ts[~mask]))
    x = np.arange(2 * system.n).reshape(system.n, 2) * (0.5 - 0.25j) + 1.0
    carried = _cauchy_many(system, ts, mask, x)
    assert carried.shape == (ts.size, system.n, 2) and carried.dtype == complex
    expected = rows @ x
    assert np.abs(carried - expected).max() <= 1e-13 * np.abs(expected).max()


def _reference_fresh_residuals(system, pairs, seed):
    """The fresh-integration checks of ``structural_residuals``
    (biperiodicity of Phi/J/E, cocycle, Liouville) with one integration per
    ``(s, t)`` pair."""
    omega = system.omega
    rng = np.random.default_rng(seed)
    worst = [0.0, 0.0, 0.0]
    for _ in range(pairs):
        s, t = rng.uniform(0.0, omega, size=2)
        base = transition._flow_matrices(system, s, t)
        shifted = transition._flow_matrices(system, s + omega, t + omega)
        worst = [max(w, norm1(a - b)) for w, a, b in zip(worst, shifted, base)]
    cocycle = 0.0
    for _ in range(pairs):
        s, u, t = np.sort(rng.uniform(0.0, omega, size=3))
        prod = fundamental_matrix(system, u, t) @ fundamental_matrix(system, s, u)
        direct = fundamental_matrix(system, s, t)
        cocycle = max(cocycle, norm1(prod - direct) / max(1.0, norm1(direct)))
    liouville = 0.0
    spans = np.sort(rng.uniform(0.0, omega, size=(pairs, 2)), axis=1)
    for (s, t), integral in zip(spans, transition._trace_integrals(system.A, spans)):
        expected = math.exp(integral)
        got = np.linalg.det(fundamental_matrix(system, s, t))
        liouville = max(liouville, abs(got - expected) / abs(expected))
    return [*worst, cocycle, liouville]


@pytest.mark.parametrize("pairs, seed", [(2, 20240802), (3, 5)])
@pytest.mark.parametrize("label", [*BUNDLED, *GENERATED])
def test_batched_fresh_residuals_equal_per_pair_reference(label, pairs, seed):
    system = _load(label)
    checks = structural_residuals(system, pairs=pairs, seed=seed)
    assert [c.value for c in checks[:5]] == _reference_fresh_residuals(system, pairs, seed)


_UNIT_SPANS = st.lists(
    st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)) | st.floats(-1.0, 2.0).map(lambda x: (x, x)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), _UNIT_SPANS)
def test_trace_integral_agrees_with_quad(seed, n, unit_spans):
    # Spans in units of omega, forward, reversed and empty, in one batch.
    system = load_system(_generated_doc(seed, n, ("interior",)))
    spans = np.array(unit_spans) * system.omega
    got = transition._trace_integrals(system.A, spans)
    assert np.array_equal(transition._trace_integrals(system.A, spans[:, ::-1]), -got)

    def trace(u):
        return float(np.trace(system.A.eval(u)))

    for (s, t), value in zip(spans, got):
        if s == t:
            assert value == 0.0
            continue
        ref = quad(trace, min(s, t), max(s, t), epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        ref = ref if s < t else -ref
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trace_integral_of_a_constant_trace_is_exact():
    system = load_system(json.dumps({
        "n": 2, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
        "A": [["2", "sin(2*pi*t)"], ["cos(2*pi*t)", "-0.5"]], "B": [["0", "0"], ["0", "0"]],
        "impulses": [[[0, 0], [0, 0]]]}))
    spans = np.array([(0.1, 0.7), (0.9, 0.2), (0.3, 0.3), (-2.5, 7.25)])
    assert np.array_equal(transition._trace_integrals(system.A, spans),
                          1.5 * (spans[:, 1] - spans[:, 0]))


def test_trace_integral_stops_at_its_subinterval_limit(caplog):
    # 864 periods of exp(sin) need more than 400 subintervals; bisection
    # stops at 256, short of the limit.  The span beside it closes as usual.
    system = load_system(json.dumps({
        "n": 1, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
        "A": [["exp(sin(2000*pi*t))"]], "B": [["0"]], "impulses": [[[0]]]}))
    with caplog.at_level("WARNING", logger="idepcag"):
        _, narrow = transition._trace_integrals(system.A, [(0.123, 0.987), (0.5, 0.5005)])
    assert [r.getMessage().split(" with ")[0] for r in caplog.records] == [
        "integral of tr over [0.123, 0.987] stopped at 256 subintervals"]
    ref = quad(lambda u: math.exp(math.sin(2000 * math.pi * u)), 0.5, 0.5005, epsabs=1e-15)[0]
    assert abs(narrow - ref) <= 1e-12 * ref


def test_verification_checks_read_in_batches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a verification check read one time or pair at a time")

    reads, views = [], []
    batched, view = floquet._cauchy_many, floquet.cauchy_matrix
    monkeypatch.setattr(floquet, "_cauchy_many", lambda *a, **k: reads.append(a[1]) or batched(*a, **k))
    monkeypatch.setattr(floquet, "cauchy_matrix", lambda *a: views.append(a[1]) or view(*a))
    for owner, name in ((floquet, "cauchy_matrix_left"), (floquet, "q_factor"),
                        (transition, "fundamental_matrix"), (transition, "_flow_matrices"),
                        (transition.IntervalOperators, "e_at")):
        monkeypatch.setattr(owner, name, refuse)
    # One read for every stencil point and anchor, the left limits of the
    # anchors at their interval's right end (on generated-3) included.
    for label in ("generated-3", "generated-1"):
        system = _load(label)
        interval_operators(system)
        for real in (False, True):
            reads.clear()
            verify_normal_form(system, real=real)
            assert len(reads) == 1 and views == [], (label, real)
        structural_residuals(system)
        # The spectral checks read X(omega) from the monodromy product alone.
        assert views == []


# ------------------------------------------------------ Magnus-Gauss stepping


def test_expm_many_matches_scipy_on_random_stacks():
    rng = np.random.default_rng(20240803)
    for m in (1, 2, 4, 6, 8):
        # Frobenius norms from 0 to ~8: most need squarings, a few none.
        M = rng.standard_normal((40, m, m)) * rng.uniform(0.0, 8.0 / m, (40, 1, 1))
        M[0] = 0.0
        got = linalg._expm_many(M)
        for A, E in zip(M, got):
            ref = scipy.linalg.expm(A)
            assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max(), (m, np.linalg.norm(A))
        assert np.array_equal(got[0], np.eye(m))
    # A 2-D stack, every matrix with the same norm.
    M = rng.standard_normal((3, 5, 4, 4))
    M *= 3.0 / np.linalg.norm(M, axis=(-2, -1), keepdims=True)
    got = linalg._expm_many(M)
    assert got.shape == M.shape
    for A, E in zip(M.reshape(-1, 4, 4), got.reshape(-1, 4, 4)):
        ref = scipy.linalg.expm(A)
        assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max()


def test_constant_system_is_the_block_exponential():
    # Van Loan: U(t, zeta) = expm(H (t - zeta)), H = [[A, B], [0, 0]], and
    # the first comparison (N_START against 2 N_START steps) accepts.
    rng = np.random.default_rng(7)
    A = rng.uniform(-1.0, 1.0, (2, 2))
    B = rng.uniform(-0.3, 0.3, (2, 2))
    system = load_system(json.dumps({
        "n": 2, "omega": 1.5, "p": 2, "times": [0.0, 0.6, 1.5], "args": [0.3, 1.5],
        "A": [[repr(float(x)) for x in row] for row in A],
        "B": [[repr(float(x)) for x in row] for row in B],
        "impulses": [[[0.1, 0.0], [0.0, -0.2]]] * 2,
        "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    }))
    H = np.block([[A, B], [np.zeros((2, 4))]])
    first = 2 * transition._N_START
    for ops in interval_operators(system):
        branches = (ops.zeta > ops.t_left) + (ops.zeta < ops.t_right)
        assert ops._times.size == branches * first + 1
        for t in np.linspace(ops.t_left, ops.t_right, 13):
            U = scipy.linalg.expm(H * (t - ops.zeta))
            assert np.abs(ops.e_at(t) - (U[:2, :2] + U[:2, 2:])).max() <= 1e-13
            assert np.abs(ops._top_many(t)[0, :, :2] - U[:2, :2]).max() <= 1e-13
    for s, t in ((0.1, 1.2), (1.4, 0.2)):
        U = scipy.linalg.expm(H * (t - s))
        assert np.abs(fundamental_matrix(system, s, t) - U[:2, :2]).max() <= 1e-13
        assert np.abs(e_matrix(system, s, t) - (U[:2, :2] + U[:2, 2:])).max() <= 1e-13


def test_diagonal_trig_system_matches_closed_form():
    doc = json.loads(_generated_doc(11, 2, ("interior", "advanced")))
    for key in ("A", "B"):
        doc[key] = [[e if i == j else "0" for j, e in enumerate(row)]
                    for i, row in enumerate(doc[key])]
    doc["impulses"] = [np.diag(np.diag(C)).tolist() for C in np.array(doc["impulses"])]
    doc["tolerances"] = {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9}
    system = load_system(json.dumps(doc))
    closed = closed_form_diagonal(system)
    for t in np.linspace(0.05, 2.6 * system.omega, 17):
        got = cauchy_matrix(system, t)
        assert np.abs(got - closed.X(t)).max() <= 1e-10 * max(1.0, np.abs(got).max()), t
    assert norm1(floquet_P(monodromy(system), system.omega) - closed.P) <= 1e-10


def test_e_many_matches_e_at_per_time():
    for seed, n, anchors in ((3, 3, ("advanced", "interior", "retarded")), (1, 1, ("interior",))):
        system = load_system(_generated_doc(seed, n, anchors))
        for ops in interval_operators(system):
            # Both sides of zeta, every node and points between, in one batch
            # longer than a dense-output block.  Bit for bit, also for n = 1,
            # where numpy hands a one-time product to another BLAS routine.
            ts = np.concatenate((np.linspace(ops.t_left, ops.t_right, 300), ops._times))
            stacked = ops.e_many(ts)
            assert stacked.shape == (ts.size, n, n)
            for t, E in zip(ts, stacked):
                assert np.array_equal(E, ops.e_at(t)), (n, t)


def test_e_at_continuous_across_magnus_nodes():
    system = load_system(_generated_doc(4, 3, ("interior", "advanced")))
    for ops in interval_operators(system):
        nodes_E = ops._nodes[:, :3, :3] + ops._nodes[:, :3, 3:]
        for k in range(1, ops._times.size):
            t = ops._times[k]
            # At the node: the stored value exactly.  Just left of it: a
            # (nearly) full step from the node before, on either branch.
            assert np.array_equal(ops.e_at(t), nodes_E[k])
            before = ops.e_at(np.nextafter(t, -math.inf))
            assert np.abs(before - nodes_E[k]).max() <= 1e-13 * np.abs(nodes_E[k]).max(), k


def _dop853_multipliers(text):
    """Multipliers of ``X(omega)`` from ``solve_direct`` on the basis vectors
    at 1e-14/1e-15 (scipy raises the relative tolerance to its floor, with a
    warning)."""
    doc = json.loads(text)
    doc["tolerances"] = {"ode_abs": 1e-15, "ode_rel": 1e-14, "alg": 1e-9}
    system = load_system(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        columns = [solve_direct(system, e, system.omega, system.omega).states[-1]
                   for e in np.eye(system.n)]
    return np.linalg.eigvals(np.array(columns).T)


def _multiplier_error(got, ref):
    """Largest distance under a greedy nearest pairing, relative to the
    reference spectral radius."""
    scale = np.abs(ref).max()
    ref = list(ref)
    worst = 0.0
    for z in got:
        k = int(np.argmin([abs(z - r) for r in ref]))
        worst = max(worst, abs(z - ref.pop(k)))
    return worst / scale


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 4),
    anchors=st.lists(st.sampled_from(["retarded", "interior", "advanced"]), min_size=1, max_size=3),
)
def test_multipliers_match_tight_dop853_on_random_trig_systems(seed, n, anchors):
    text = _generated_doc(seed, n, tuple(anchors))
    system = load_system(text)
    bound = 10 * max(system.tolerances.ode_rel, system.tolerances.ode_abs)
    got = analyze(system).multipliers
    assert _multiplier_error(got, _dop853_multipliers(text)) <= bound


def test_liouville_interval_of_a_generated_document_meets_tolerance():
    # A verify_suite document (scalar, advanced then retarded anchor) on
    # which DOP853's error estimate let one 0.58-long step through: Phi was
    # 4.8e-8 off at rtol 1e-10 and the liouville check failed.
    system = load_system(json.dumps({
        "n": 1, "omega": 2.214764109742605, "p": 2,
        "times": [0.0, 1.1476734397154242, 2.214764109742605],
        "args": [1.1476734397154242, 1.1476734397154242],
        "A": [["0.505804 + 0.267798*cos(2.8369546352770745*t)"]],
        "B": [["0.164192 + 0.099321*cos(2.8369546352770745*t)"]],
        "impulses": [[[-0.218315]], [[0.043341]]],
    }))
    s, t = 0.1512563857281763, 1.7759728881119083
    w = 2.8369546352770745
    expected = math.exp(0.505804 * (t - s) + 0.267798 / w * (math.sin(w * t) - math.sin(w * s)))
    assert abs(fundamental_matrix(system, s, t)[0, 0] - expected) <= 1e-9 * expected
    assert all(c.passed for c in structural_residuals(system))


def test_transition_layer_calls_no_scipy_stepper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("transition called solve_ivp")

    monkeypatch.setattr(transition, "solve_ivp", refuse)
    system = load_system(_generated_doc(2, 2, ("retarded", "advanced")))
    analyze(system)
    structural_residuals(system)


def test_step_doubling_cap_and_overflow_raise_numerical_error(monkeypatch):
    system = load_system(_generated_doc(1, 1, ("interior",)))
    monkeypatch.setattr(transition, "_N_MAX", 4)
    with pytest.raises(NumericalError, match="missed its tolerance at 4 steps"):
        fundamental_matrix(system, 0.0, system.omega)
    monkeypatch.undo()
    doc = json.loads(_generated_doc(1, 1, ("interior",)))
    doc["A"] = [["800"]]
    with pytest.raises(NumericalError, match=r"on \[[\d.]+, [\d.]+\] is not finite"):
        interval_operators(load_system(json.dumps(doc)))
    doc["A"] = [["-800"]]  # Phi underflows to 0 on the branch away from zeta
    with pytest.raises(NumericalError, match="singular"):
        interval_operators(load_system(json.dumps(doc)))


# ------------------------------------------------- Richardson step control


def _tighter(text):
    """The document of ``text`` with both ODE tolerances 1000 times tighter."""
    doc = json.loads(text)
    tol = doc["tolerances"]
    doc["tolerances"] = {**tol, "ode_abs": tol["ode_abs"] / 1000, "ode_rel": tol["ode_rel"] / 1000}
    return json.dumps(doc)


def _tolerance_units(system, X, reference):
    """Largest entry of ``X - reference`` in units of the document's
    ``ode_abs + ode_rel max|reference|``."""
    tol = system.tolerances
    return np.abs(X - reference).max() / (tol.ode_abs + tol.ode_rel * np.abs(reference).max())


def _record_passes(monkeypatch):
    """Patch ``transition._magnus_pass`` to record ``(N, U)`` of every pass."""
    passes = []
    original = transition._magnus_pass

    def spy(A, B, t0, t1, N, *param):
        U = original(A, B, t0, t1, N, *param)
        passes.append((int(N), U))
        return U

    monkeypatch.setattr(transition, "_magnus_pass", spy)
    return passes


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 3),
    anchors=st.lists(st.sampled_from(["retarded", "interior", "advanced"]), min_size=1, max_size=3),
    tol=st.sampled_from([1e-8, 1e-9, 1e-10]),
)
def test_monodromy_within_one_tolerance_unit_of_a_tighter_reference(seed, n, anchors, tol):
    doc = json.loads(_generated_doc(seed, n, tuple(anchors)))
    doc["tolerances"] = {"ode_abs": tol, "ode_rel": tol, "alg": 1e-9}
    text = json.dumps(doc)
    system = load_system(text)
    reference = monodromy(load_system(_tighter(text)))
    assert _tolerance_units(system, monodromy(system), reference) <= 1.0


def test_markus_yamabe_operators_take_at_most_four_passes(monkeypatch):
    passes = _record_passes(monkeypatch)
    interval_operators(load_bundled_system("markus_yamabe"))
    assert len(passes) <= 4, [N for N, _ in passes]


def _high_frequency_doc():
    """Scalar document whose coefficient ``cos(80 pi t)`` makes 40 turns in
    one period: the first passes do not resolve it, so their gaps fall far
    slower than the sixth-order rate."""
    return json.dumps({
        "n": 1, "omega": 1.0, "p": 1, "times": [0.0, 1.0], "args": [0.0],
        "A": [["cos(80*pi*t)"]], "B": [["0.2"]], "impulses": [[[0.1]]],
        "tolerances": {"ode_abs": 1e-10, "ode_rel": 1e-10, "alg": 1e-9},
    })


def test_raw_gap_rule_holds_until_the_rate_shows(monkeypatch):
    text = _high_frequency_doc()
    system = load_system(text)
    tol = system.tolerances
    recorded = _record_passes(monkeypatch)
    (h, U, _), = transition._magnus(system.A, system.B, tol, [0.0], [1.0],
                                    np.ones(1), np.full(1, system.A.param))
    monkeypatch.undo()
    passes = [(N, V[0]) for N, V in recorded]
    steps = [N for N, _ in passes]
    assert steps[0] == transition._N_START and np.array_equal(U, passes[-1][1])
    # Each comparison's largest node gap over ode_abs + ode_rel max|U|.
    worst = []
    for (N, coarse), (M, fine) in zip(passes, passes[1:]):
        on_nodes = fine[:: M // N]
        gap = np.abs(on_nodes - coarse).max(axis=(1, 2))
        worst.append((gap / (tol.ode_abs + tol.ode_rel * np.abs(on_nodes).max(axis=(1, 2)))).max())
    ratios = [a / b for a, b in zip(worst, worst[1:])]
    assert ratios[0] < 1.0 and ratios[1] < 4.0, ratios
    for k, measure in enumerate(worst):
        r_before = steps[k] / steps[k - 1] if k else math.nan
        r = steps[k + 1] / steps[k]
        shows = k > 0 and ratios[k - 1] >= 0.5 * (r_before**6 - 1.0) / (1.0 - r**-6.0)
        last = k == len(worst) - 1
        if not shows:
            # The raw gap decides: accept at most 1, else double.
            assert last == (measure <= 1.0), (steps, worst)
            if not last:
                assert steps[k + 2] == 2 * steps[k + 1], (steps, worst)
    assert steps[2:4] == [8, 16]
    reference = fundamental_matrix(load_system(_tighter(text)), 0.0, 1.0)
    assert _tolerance_units(system, U[-1, :1, :1], reference) <= 1.0


def test_predicted_steps_are_clamped_to_n_max(monkeypatch):
    # markus_yamabe predicts 256 steps after its third pass; capped at 32,
    # the jump stops there and the segment reports the cap.
    monkeypatch.setattr(transition, "_N_MAX", 32)
    passes = _record_passes(monkeypatch)
    with pytest.raises(NumericalError, match="missed its tolerance at 32 steps"):
        interval_operators(load_bundled_system("markus_yamabe"))
    assert [N for N, _ in passes] == [2, 4, 8, 32]
