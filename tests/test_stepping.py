"""Regression tests for the Magnus transition layer (the stacked
exponential, the N-vs-2N step doubling, the partial-step dense output) and
the once-per-time evaluation in ``verify_normal_form``."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
    inv,
    load_bundled_system,
    load_system,
    monodromy,
    norm1,
    q_factor,
    solve_direct,
    structural_residuals,
    verify_normal_form,
)
from idepcag import transition
from idepcag.floquet import (
    _FD_STEP,
    NormalFormResiduals,
    _fd5,
    _interior_samples,
)

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


def _reference_verify_normal_form(system, P=None, samples=4, real=False):
    """``verify_normal_form`` as it was before its per-time memo: every
    stencil point recomputes ``W``, ``Q`` and ``Y`` from scratch."""
    omega = system.omega
    X_omega = monodromy(system)
    if P is None:
        P = floquet_P_real(X_omega, omega) if real else floquet_P(X_omega, omega)
    factor = 2 if real else 1
    ts = _interior_samples(system, samples)

    W = lambda t: cauchy_matrix(system, t)
    Q = lambda t: q_factor(system, P, t)
    Q_left = lambda t: cauchy_matrix_left(system, t) @ expm(-P * t)

    factorization = max(norm1(W(t + omega) - W(t) @ X_omega) for t in ts)
    q_periodicity = max(norm1(Q(t + factor * omega) - Q(t)) for t in ts)

    impulse = 0.0
    for k in range(1, system.p + 1):
        tk = system.grid.times[k]
        jump = q_factor(system, P, tk) - system.impulse_factor(k) @ Q_left(tk)
        impulse = max(impulse, norm1(jump))

    h = _FD_STEP
    grid = system.grid
    q_resid = 0.0
    q_scale = 1.0
    reduction = 0.0
    for t in ts:
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
        Y = lambda u: inv(q_factor(system, P, u)) @ cauchy_matrix(system, u)
        reduction = max(reduction, norm1(_fd5(Y, t, h) - P @ Y(t)))

    return NormalFormResiduals(
        period_factor=factor,
        factorization=factorization,
        q_periodicity=q_periodicity,
        impulse_consistency=impulse,
        q_equation=q_resid,
        q_equation_scale=q_scale,
        reduction=reduction,
        sample_times=ts,
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
@pytest.mark.parametrize("label", [*BUNDLED, *GENERATED])
def test_verify_normal_form_equals_unmemoised_reference(label, real):
    if label in GENERATED:
        system = load_system(_generated_doc(*GENERATED[label]))
    else:
        system = load_bundled_system(label)
    expected = _reference_verify_normal_form(system, real=real)
    assert verify_normal_form(system, real=real) == expected


# ------------------------------------------------------ Magnus-Gauss stepping


def test_expm_many_matches_scipy_on_random_stacks():
    rng = np.random.default_rng(20240803)
    for m in (1, 2, 4, 6, 8):
        # Frobenius norms from 0 to ~8: most need squarings, a few none.
        M = rng.standard_normal((40, m, m)) * rng.uniform(0.0, 8.0 / m, (40, 1, 1))
        M[0] = 0.0
        got = transition._expm_many(M)
        for A, E in zip(M, got):
            ref = scipy.linalg.expm(A)
            assert np.abs(E - ref).max() <= 1e-12 * np.abs(ref).max(), (m, np.linalg.norm(A))
        assert np.array_equal(got[0], np.eye(m))
    # A 2-D stack, every matrix with the same norm.
    M = rng.standard_normal((3, 5, 4, 4))
    M *= 3.0 / np.linalg.norm(M, axis=(-2, -1), keepdims=True)
    got = transition._expm_many(M)
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
            assert np.abs(ops.phi_at(t) - U[:2, :2]).max() <= 1e-13
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
    system = load_system(_generated_doc(3, 3, ("advanced", "interior", "retarded")))
    for ops in interval_operators(system):
        # Both sides of zeta, every node and points between, in one batch
        # longer than a dense-output block.
        ts = np.concatenate((np.linspace(ops.t_left, ops.t_right, 300), ops._times))
        stacked = ops.e_many(ts)
        assert stacked.shape == (ts.size, 3, 3)
        for t, E in zip(ts, stacked):
            assert np.abs(E - ops.e_at(t)).max() <= 1e-14 * np.abs(E).max()


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
