"""Reference results, computed outside the timed units.

None of these goes through the RK45 operator route under test:

* constant diagonal systems: the scalar closed form per component;
* constant systems with ``B = 0``: products of ``scipy.linalg.expm``;
* everything else: ``X(omega)`` column by column from ``solve_direct``
  (DOP853 with the advanced-anchor linear solve) on the basis vectors.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.linalg


def _const(entry: str):
    try:
        return float(entry)
    except ValueError:
        return None


def _const_matrix(rows):
    values = [[_const(e) for e in row] for row in rows]
    if any(v is None for row in values for v in row):
        return None
    return np.array(values, dtype=float)


def _offdiag_zero(M):
    return not np.any(M[~np.eye(M.shape[0], dtype=bool)])


def reference_kind(doc: dict) -> str:
    A, B = _const_matrix(doc["A"]), _const_matrix(doc["B"])
    if A is None or B is None:
        return "solve_direct"
    Cs = [np.asarray(C, dtype=float) for C in doc["impulses"]]
    if _offdiag_zero(A) and _offdiag_zero(B) and all(_offdiag_zero(C) for C in Cs):
        return "closed_form_diagonal"
    if not np.any(B):
        return "expm"
    return "solve_direct"


def _closed_form_diagonal(doc):
    """Per component: on interval k, ``x(t) = g(t - zeta_k) x(zeta_k)`` with
    ``g(h) = exp(a h) (1 + b/a) - b/a`` (``1 + b h`` for ``a = 0``)."""
    A, B = _const_matrix(doc["A"]), _const_matrix(doc["B"])
    times, args = doc["times"], doc["args"]
    rho = np.ones(doc["n"])
    for i in range(doc["n"]):
        a, b = A[i, i], B[i, i]

        def g(h):
            if a == 0.0:
                return 1.0 + b * h
            return math.exp(a * h) * (1.0 + b / a) - b / a

        for k in range(doc["p"]):
            c = doc["impulses"][k][i][i]
            rho[i] *= (1.0 + c) * g(times[k + 1] - args[k]) / g(times[k] - args[k])
    return rho.astype(complex)


def _expm_product(doc):
    A = _const_matrix(doc["A"])
    n, times = doc["n"], doc["times"]
    X = np.eye(n)
    for k in range(doc["p"]):
        step = scipy.linalg.expm(A * (times[k + 1] - times[k]))
        X = (np.eye(n) + np.asarray(doc["impulses"][k], dtype=float)) @ step @ X
    return np.linalg.eigvals(X)


def _direct_monodromy(text, idepcag):
    system = idepcag.model.load_system(text)
    cols = []
    for j in range(system.n):
        e = np.zeros(system.n)
        e[j] = 1.0
        traj = idepcag.simulate.solve_direct(system, e, system.omega, system.omega)
        cols.append(traj.states[-1])
    return np.linalg.eigvals(np.array(cols).T.real)


def reference_multipliers(text: str, idepcag) -> np.ndarray:
    doc = json.loads(text)
    kind = reference_kind(doc)
    if kind == "closed_form_diagonal":
        return _closed_form_diagonal(doc)
    if kind == "expm":
        return _expm_product(doc)
    return _direct_monodromy(text, idepcag)


def multiplier_error(got, ref) -> float:
    """Largest multiplier deviation under the best pairing, relative to the
    reference spectral radius."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        return math.inf
    scale = max(float(np.abs(ref).max()), 1e-300)
    best = min(
        float(np.abs(got - ref[list(perm)]).max())
        for perm in itertools.permutations(range(ref.size))
    )
    return best / scale


def row_errors(states, ref_states) -> float:
    """Largest per-row deviation relative to the row's largest modulus."""
    scale = np.maximum(np.abs(ref_states).max(axis=1), 1e-300)
    return float((np.abs(states - ref_states).max(axis=1) / scale).max())
