"""Compiled coefficient matrices against the expression-tree interpreter.

``MatrixFunction`` compiles its entries once into Python source emitted from
the parsed tree.  The tree's ``evaluate`` stays the reference: the compiled
matrix must agree with it bit for bit, and so must every analysis built on
it.
"""

import io
import math
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idepcag as pk
from idepcag.expressions import (
    SOURCE_NAMES,
    Add,
    Call,
    Const,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    parse_expression,
    to_source,
)
from idepcag.linalg import norm1
from idepcag.model import MatrixFunction, _matrix_source
from idepcag.serialize import canonical_json
from idepcag.transition import _norm_samples

_leaves = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(Const),
    st.just(Var()),
)


def _nodes(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Neg, children),
        st.builds(Pow, children, st.integers(min_value=0, max_value=4)),
        st.builds(Call, st.sampled_from(sorted(Call._FUNCS)), children),
    )


trees = st.recursive(_leaves, _nodes, max_leaves=10)
matrices = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(trees, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
    ).map(tuple)
)
times = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def tree_eval(mf, t):
    """The interpreter route: one ``Expression.evaluate`` per entry."""
    out = np.empty((mf.n, mf.n), dtype=float)
    for i, row in enumerate(mf.entries):
        for j, expr in enumerate(row):
            out[i, j] = expr.evaluate(t)
    return out


def _outcome(fn):
    # Python float powers raise OverflowError where numpy returns inf; both
    # routes must then fail alike.
    try:
        return fn()
    except OverflowError as exc:
        return type(exc)


def tree_eval_many(mf, ts, param=None):
    """``tree_eval`` at every time of the array ``ts``, laid out as
    ``MatrixFunction._eval_many``: shape ``(n, n) + ts.shape``.  The
    entries hold the system's own parameter value, which is all ``param``
    may broadcast."""
    assert param is None or (param == mf.param).all()
    out = np.empty((mf.n, mf.n) + ts.shape, dtype=float)
    for index in np.ndindex(ts.shape):
        out[(slice(None), slice(None)) + index] = tree_eval(mf, ts[index])
    return out


@settings(max_examples=300, deadline=None)
@given(matrices, st.lists(times, min_size=1, max_size=30))
def test_compiled_eval_and_norm_bitwise_equal_tree(entries, ts):
    mf = MatrixFunction(len(entries), entries, 1.0)
    for u in (ts[0], np.float64(ts[0])):
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: tree_eval(mf, u))
            got = _outcome(lambda: mf.eval(u))
        if isinstance(expected, type):
            assert got is expected
            continue
        assert got.tobytes() == expected.tobytes()
    # The norm quadrature evaluates a 2-D array of times at once; every
    # point must match the tree interpreter and linalg.norm1 bit for bit.
    # Integer powers are the exception: numpy rounds an array power
    # differently from a scalar one (test_batched_power_within_one_ulp).
    exact = np.array([["**" not in to_source(expr) for expr in row] for row in entries])
    ts = np.array(ts).reshape(-1, 1)[:, [0, 0, 0]]
    with np.errstate(all="ignore"):
        batch = mf._eval_many(ts)
        norms = _norm_samples(mf, ts)[2]
        for index in np.ndindex(ts.shape):
            expected = _outcome(lambda: tree_eval(mf, ts[index]))
            if isinstance(expected, type):
                continue  # a Python float power overflowed where numpy gives inf
            point = batch[(slice(None), slice(None)) + index]
            assert point[exact].tobytes() == expected[exact].tobytes()
            if exact.all() and np.all(np.isfinite(expected)):
                assert norms[index].tobytes() == np.float64(norm1(expected)).tobytes()


@pytest.mark.parametrize("exponent", [2, 3, 4, 7])
def test_batched_power_within_one_ulp(exponent):
    mf = MatrixFunction(1, ((Pow(Var(), exponent),),), 1.0)
    ts = np.random.default_rng(exponent).uniform(-20.0, 20.0, size=(400, 15))
    batch = mf._eval_many(ts)[0, 0]
    scalar = np.vectorize(lambda t: mf.eval(t)[0, 0])(ts)
    assert np.all(np.abs(batch - scalar) <= np.spacing(np.abs(scalar)))


_ALLOWED_NAMES = {"t", *SOURCE_NAMES}
_ALLOWED_OPS = {"+", "-", "*", "**", "(", ")", ","}


def _assert_whitelisted(source):
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            continue
        if tok.type == tokenize.NAME:
            assert tok.string in _ALLOWED_NAMES, tok.string
        elif tok.type == tokenize.OP:
            assert tok.string in _ALLOWED_OPS, tok.string
        elif tok.type == tokenize.NUMBER:
            if previous == "**":
                assert tok.string.isdigit(), tok.string
            else:
                assert math.isfinite(float(tok.string)), tok.string
        else:
            raise AssertionError(f"unexpected token {tok.string!r} in {source!r}")
        previous = tok.string


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_emitted_source_uses_only_whitelisted_tokens(entries):
    for row in entries:
        for expr in row:
            _assert_whitelisted(to_source(expr))
    _assert_whitelisted(_matrix_source(entries))


def test_emitted_source_of_bundled_systems_is_whitelisted():
    for name in pk.BUNDLED_SYSTEMS:
        system = pk.load_bundled_system(name)
        for mf in (system.A, system.B):
            _assert_whitelisted(_matrix_source(mf.entries))


def test_emitter_refuses_non_finite_constants():
    with pytest.raises(ValueError, match="non-finite"):
        to_source(Add(Var(), Const(math.inf)))


def test_emitter_keeps_grouping_and_signs():
    # -2^2 is -(2^2); (-t)^3 needs its parentheses; a negative zero keeps
    # its sign as a power base.
    assert to_source(parse_expression("-2^2")) == "-2.0 ** 2"
    assert to_source(parse_expression("(-t)^3")) == "(-t) ** 3"
    assert to_source(parse_expression("1 - (t - 1)")) == "1.0 - (t - 1.0)"
    assert to_source(Pow(Const(-0.0), 2)) == "(-0.0) ** 2"


def _analyze_json(name):
    system = pk.load_bundled_system(name)
    return canonical_json(pk.analyze(system).to_json_dict())


def test_analyze_reports_identical_to_tree_interpreter(monkeypatch):
    compiled = {name: _analyze_json(name) for name in pk.BUNDLED_SYSTEMS}
    monkeypatch.setattr(MatrixFunction, "eval", tree_eval)
    monkeypatch.setattr(MatrixFunction, "_eval_many", tree_eval_many)
    for name in pk.BUNDLED_SYSTEMS:
        assert _analyze_json(name) == compiled[name], name
