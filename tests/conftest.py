import json

import pytest

from idepcag import load_bundled_system, load_system
from idepcag import transition


def count_partial_steps(monkeypatch):
    """Patch ``transition._magnus_omega`` to record the number of steps of
    every call; returns the list it appends to."""
    steps = []
    original = transition._magnus_omega

    def spy(A, B, t0, h, *param):
        steps.append(t0.size)
        return original(A, B, t0, h, *param)

    monkeypatch.setattr(transition, "_magnus_omega", spy)
    return steps


def sin_doc(c, tolerances=None):
    """Scalar system z' = sin(2 pi t) z([t]), z(k) = c z(k-)."""
    doc = {
        "n": 1,
        "omega": 1.0,
        "p": 1,
        "times": [0.0, 1.0],
        "args": [0.0],
        "A": [["0"]],
        "B": [["sin(2*pi*t)"]],
        "impulses": [[[c - 1.0]]],
        "tolerances": tolerances or {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    }
    return json.dumps(doc)


def scalar_doc(a, c, tolerances=None):
    """Scalar system x' = (a - 1) x([t]), x(k) = c x(k-)."""
    doc = {
        "n": 1,
        "omega": 1.0,
        "p": 1,
        "times": [0.0, 1.0],
        "args": [0.0],
        "A": [["0"]],
        "B": [[repr(a - 1.0)]],
        "impulses": [[[c - 1.0]]],
        "tolerances": tolerances or {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    }
    return json.dumps(doc)


def constant_doc(a=-0.2, c=0.0, omega=1.0):
    """B = 0 system x' = a x with multiplicative impulse factor 1 + c."""
    doc = {
        "n": 1,
        "omega": omega,
        "p": 1,
        "times": [0.0, omega],
        "args": [0.0],
        "A": [[repr(a)]],
        "B": [["0"]],
        "impulses": [[[c]]],
        "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    }
    return json.dumps(doc)


def narrow_doc():
    """Two intervals, the second 5e-5 wide: narrower than the 5.5e-5 that a
    five-point stencil of step 1e-5 and margin 4e-5 needs."""
    doc = {
        "n": 1,
        "omega": 1.0,
        "p": 2,
        "times": [0.0, 0.99995, 1.0],
        "args": [0.5, 0.99997],
        "A": [["0.1"]],
        "B": [["0.2*cos(2*pi*t)"]],
        "impulses": [[[0.3]], [[-0.2]]],
        "tolerances": {"ode_abs": 1e-12, "ode_rel": 1e-12, "alg": 1e-9},
    }
    return json.dumps(doc)


@pytest.fixture(scope="session")
def scalar_system():
    return load_bundled_system("scalar_impulse")


@pytest.fixture(scope="session")
def sin_system():
    return load_bundled_system("sin_impulse")


@pytest.fixture(scope="session")
def rotation_system():
    return load_bundled_system("rotation_2x2")


@pytest.fixture(scope="session")
def my_system():
    return load_bundled_system("markus_yamabe")


@pytest.fixture(scope="session")
def sin_nonimpulsive():
    return load_system(sin_doc(1.0))
