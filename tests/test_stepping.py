"""Regression tests for the DOP853 transition layer and the once-per-time
evaluation in ``verify_normal_form``."""

import json

import numpy as np
import pytest

from idepcag import (
    analyze,
    cauchy_matrix,
    cauchy_matrix_left,
    expm,
    floquet_P,
    floquet_P_real,
    inv,
    load_bundled_system,
    load_system,
    monodromy,
    norm1,
    q_factor,
    verify_normal_form,
)
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
