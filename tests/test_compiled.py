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
from idepcag.model import MatrixFunction, _matrix_sources
from idepcag.serialize import canonical_json

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


@settings(max_examples=300, deadline=None)
@given(matrices, times)
def test_compiled_eval_and_norm_bitwise_equal_tree(entries, t):
    mf = MatrixFunction(len(entries), entries, 1.0)
    for u in (t, np.float64(t)):
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: tree_eval(mf, u))
            got = _outcome(lambda: mf.eval(u))
            norm = _outcome(lambda: mf.norm1_at(u))
        if isinstance(expected, type):
            assert got is expected
            continue
        assert got.tobytes() == expected.tobytes()
        if np.all(np.isfinite(expected)):
            assert np.float64(norm).tobytes() == np.float64(norm1(expected)).tobytes()


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
    for body in _matrix_sources(entries):
        _assert_whitelisted(body)


def test_emitted_source_of_bundled_systems_is_whitelisted():
    for name in pk.BUNDLED_SYSTEMS:
        system = pk.load_bundled_system(name)
        for mf in (system.A, system.B):
            for body in _matrix_sources(mf.entries):
                _assert_whitelisted(body)


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
    monkeypatch.setattr(MatrixFunction, "norm1_at", lambda mf, t: norm1(tree_eval(mf, t)))
    for name in pk.BUNDLED_SYSTEMS:
        assert _analyze_json(name) == compiled[name], name
