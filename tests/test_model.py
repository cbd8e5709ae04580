import json
import math
import pickle

import numpy as np
import pytest

from idepcag import (
    ValidationError,
    gamma_at,
    load_bundled_system,
    load_system,
)
from idepcag.expressions import parse_expression
from idepcag.model import MatrixFunction
from conftest import scalar_doc, sin_doc

TWO_PI = 2.0 * math.pi


def _doc(**overrides):
    base = json.loads(scalar_doc(-0.3, 10.0 / 3.0))
    base.update(overrides)
    return json.dumps(base)


def test_scalar_document_loads():
    system = load_system(scalar_doc(-0.3, 10.0 / 3.0))
    assert system.n == 1
    assert system.omega == 1.0
    assert system.p == 1
    # I + C_1 equals the multiplicative impulse factor C = 10/3
    assert system.impulse_factor(1)[0, 0] == pytest.approx(10.0 / 3.0, abs=1e-15)
    assert system.B.eval(0.3)[0, 0] == pytest.approx(-1.3, abs=1e-15)


def test_non_invertible_impulse_rejected():
    with pytest.raises(ValidationError, match="not invertible"):
        load_system(_doc(impulses=[[[-1.0]]]))


def test_argument_outside_interval_rejected():
    with pytest.raises(ValidationError, match="args"):
        load_system(_doc(args=[1.5]))


def test_times_must_increase():
    with pytest.raises(ValidationError, match="strictly increasing"):
        load_system(_doc(p=2, times=[0.0, 0.7, 0.4], args=[0.0, 0.5],
                         impulses=[[[1.0]], [[1.0]]]))


def test_times_must_close_the_period():
    with pytest.raises(ValidationError, match="close the period"):
        load_system(_doc(times=[0.0, 0.7]))


def test_first_breakpoint_must_be_zero():
    with pytest.raises(ValidationError, match="times"):
        load_system(_doc(times=[0.1, 1.0]))


def test_bad_expression_reports_field_path():
    with pytest.raises(ValidationError, match=r"B\[0\]\[0\]"):
        load_system(_doc(B=[["sin(t"]]))


def test_periodicity_certificate_failure():
    doc = json.loads(sin_doc(0.5))
    doc["omega"] = 0.9
    doc["times"] = [0.0, 0.9]
    with pytest.raises(ValidationError, match="periodicity certificate"):
        load_system(json.dumps(doc))


def test_missing_field_and_wrong_shape():
    doc = json.loads(scalar_doc(-0.3, 10.0 / 3.0))
    del doc["args"]
    with pytest.raises(ValidationError, match="args"):
        load_system(json.dumps(doc))
    with pytest.raises(ValidationError, match="impulses"):
        load_system(_doc(impulses=[[[0.1, 0.2]]]))
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_system("{not json")


def test_default_tolerances():
    doc = json.loads(scalar_doc(-0.3, 10.0 / 3.0))
    del doc["tolerances"]
    system = load_system(json.dumps(doc))
    assert system.tolerances.ode_abs == 1e-10
    assert system.tolerances.ode_rel == 1e-10
    assert system.tolerances.alg == 1e-9


def test_gamma_greatest_integer(scalar_system):
    k, zeta = gamma_at(scalar_system.grid, 2.7)
    assert (k, zeta) == (2, 2.0)


def test_gamma_two_pi_grid(rotation_system):
    k, zeta = gamma_at(rotation_system.grid, 7.0)
    assert k == 1
    assert zeta == pytest.approx(TWO_PI, abs=1e-15)


def test_gamma_at_breakpoint_goes_to_new_interval(scalar_system):
    # half-open convention: t = t_1 belongs to interval 1
    k, zeta = gamma_at(scalar_system.grid, 1.0)
    assert (k, zeta) == (1, 1.0)


def test_gamma_negative_time(scalar_system):
    k, zeta = gamma_at(scalar_system.grid, -0.3)
    assert (k, zeta) == (-1, -1.0)


def test_gamma_shift_property(rotation_system):
    # gamma(t + m omega) = gamma(t) + m omega and k(t + m omega) = k(t) + m p
    grid = rotation_system.grid
    rng = np.random.default_rng(3)
    for t in rng.uniform(0.0, grid.omega, size=25):
        k0, z0 = gamma_at(grid, t)
        for m in (-3, -1, 1, 2, 4):
            k, z = gamma_at(grid, t + m * grid.omega)
            assert k == k0 + m * grid.p
            assert z == pytest.approx(z0 + m * grid.omega, rel=0, abs=1e-9)


def test_load_is_deterministic():
    a = load_system(sin_doc(-0.8))
    b = load_system(sin_doc(-0.8))
    ts = np.linspace(0.0, 1.0, 50)
    for t in ts:
        assert np.array_equal(a.B.eval(t), b.B.eval(t))
        assert np.array_equal(a.A.eval(t), b.A.eval(t))


def test_matrix_eval_shape(my_system):
    M = my_system.A.eval(0.7)
    assert M.shape == (2, 2)
    assert M[0, 0] == pytest.approx(-1.0 + 1.5 * math.cos(0.7) ** 2, abs=1e-15)


def test_diagonal_detection(sin_system, rotation_system, my_system):
    assert sin_system.is_diagonal()
    assert not rotation_system.is_diagonal()  # B diagonal but A is not
    assert not my_system.is_diagonal()


def test_bundled_systems_all_load():
    for name in ("scalar_impulse", "sin_impulse", "rotation_2x2", "markus_yamabe"):
        system = load_bundled_system(name)
        assert system.n in (1, 2)


@pytest.mark.parametrize("entry", ["exp(1000)*0", "2^2000*0"])
def test_non_finite_coefficients_fail_the_certificate(entry):
    # exp(1000) overflows to inf, and inf*0 is NaN at every sample; the
    # constant power overflows in Python float arithmetic, which raises.
    with pytest.raises(ValidationError, match="not finite"):
        load_system(_doc(B=[[entry]]))


def test_periodicity_defect_is_inf_on_non_finite_samples():
    # exp(1000 t) overflows for t > 0.71, inside the sampled period [0, 2).
    entries = ((parse_expression("exp(1000*t)"),),)
    assert MatrixFunction(1, entries, 1.0).periodicity_defect() == math.inf


def test_matrix_function_pickles_and_recompiles(my_system):
    copy = pickle.loads(pickle.dumps(my_system.A))
    assert copy == my_system.A
    assert np.array_equal(copy.eval(0.7), my_system.A.eval(0.7))
    ts = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(copy._eval_many(ts), my_system.A._eval_many(ts))


def test_overlong_expression_is_a_validation_error():
    # A 5000-term sum parses (sums are read iteratively) but nests too deeply
    # to compile.
    with pytest.raises(ValidationError, match=r"B: expressions nested too deeply"):
        load_system(_doc(B=[[" + ".join(["0.1"] * 5000)]]))
