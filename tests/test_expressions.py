import math

import numpy as np
import pytest

from idepcag.expressions import (Add, Const, ExpressionSyntaxError, Mul, Neg, Pow, Sub, Var,
                                 param_token, parse_expression)


def test_sin_paper_entry():
    assert parse_expression("sin(2*pi*t)").evaluate(0.25) == pytest.approx(1.0, abs=1e-15)


def test_markus_yamabe_entry():
    expr = parse_expression("-1 + 1.5*cos(t)^2")
    assert expr.evaluate(0.0) == pytest.approx(0.5, abs=1e-15)


def test_annihilation():
    assert parse_expression("exp(t)*0").evaluate(7.0) == 0.0


def test_precedence():
    assert parse_expression("1 + 2*3").evaluate(0.0) == 7.0
    assert parse_expression("2*t^2").evaluate(3.0) == 18.0
    assert parse_expression("-2^2").evaluate(0.0) == -4.0
    assert parse_expression("(1 + 2)*3").evaluate(0.0) == 9.0
    assert parse_expression("2 - 1 - 1").evaluate(0.0) == 0.0


def test_pi_and_scientific_notation():
    assert parse_expression("pi").evaluate(0.0) == math.pi
    assert parse_expression("2.5e-3").evaluate(0.0) == 2.5e-3
    assert parse_expression(".5 + 1.").evaluate(0.0) == 1.5


def test_unary_minus_before_function():
    assert parse_expression("-sin(t)").evaluate(math.pi / 2) == pytest.approx(-1.0)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("1 + $")
    assert err.value.position == 4


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("tan(t)")
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("x + 1")


def test_unbalanced_parens():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("sin(t")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1 + 2))")


def test_exponent_must_be_nonnegative_integer():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t^-1")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t^0.5")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t^t")
    assert parse_expression("t^0").evaluate(5.0) == 1.0


def test_no_division_in_grammar():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1/t")


def test_constant_detection():
    assert parse_expression("1 + 2*pi").is_constant()
    assert parse_expression("sin(2)").is_constant()
    assert not parse_expression("sin(t)").is_constant()
    assert parse_expression("0").constant_value() == 0.0


@pytest.mark.parametrize("text, constant", [
    ("-(2^3) + cos(1)*(2 + -pi)", True),
    ("2 - t*1", False),
    ("exp(-t^0)", False),
    ("1 + $EPS", False),
])
def test_constant_detection_reads_every_operand(text, constant):
    assert parse_expression(text, param_token("EPS")).is_constant() is constant


@pytest.mark.parametrize("text, tree", [
    ("+t", Var()),
    ("-+t", Neg(Var())),
    ("+-t^2", Neg(Pow(Var(), 2))),
    ("1 - 2 - t", Sub(Sub(Const(1.0), Const(2.0)), Var())),
    ("1 + 2*t*3 - t", Sub(Add(Const(1.0), Mul(Mul(Const(2.0), Var()), Const(3.0))), Var())),
    ("t*2 + 1*-t", Add(Mul(Var(), Const(2.0)), Mul(Const(1.0), Neg(Var())))),
])
def test_operators_associate_left_with_product_tighter(text, tree):
    expr = parse_expression(text)
    assert expr == tree
    assert parse_expression(str(expr)) == tree


def _random_expression(rng, depth):
    if depth == 0:
        choice = rng.integers(0, 3)
        if choice == 0:
            return repr(float(rng.uniform(-3, 3)))
        if choice == 1:
            return "t"
        return "pi"
    left = _random_expression(rng, depth - 1)
    right = _random_expression(rng, depth - 1)
    op = rng.integers(0, 6)
    if op == 0:
        return f"{left} + {right}"
    if op == 1:
        return f"{left} - {right}"
    if op == 2:
        return f"{left}*({right})"
    if op == 3:
        return f"sin({left})"
    if op == 4:
        # keep exp arguments bounded so totality holds in float64
        return f"cos({left}) + exp(sin({right}))"
    return f"({left})^{int(rng.integers(0, 4))}"


def test_round_trip_stability():
    # parse -> print -> parse is evaluation-identical at 1e-15 on 100 samples
    rng = np.random.default_rng(7)
    ts = rng.uniform(-10, 10, size=100)
    sources = [
        "sin(2*pi*t)",
        "-1 + 1.5*cos(t)^2",
        "1 - 1.5*sin(t)*cos(t)",
        "exp(t)*0",
        "-2^2 + t*(t - 1)",
    ] + [_random_expression(rng, 3) for _ in range(25)]
    for source in sources:
        first = parse_expression(source)
        second = parse_expression(str(first))
        for t in ts:
            a, b = first.evaluate(t), second.evaluate(t)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))


def test_evaluation_total_on_finite_input():
    rng = np.random.default_rng(11)
    for _ in range(20):
        expr = parse_expression(_random_expression(rng, 3))
        for t in (-1e6, -1.0, 0.0, 3.7, 1e6):
            assert math.isfinite(float(np.real(expr.evaluate(t))))


def test_vectorized_evaluation_matches_scalar():
    expr = parse_expression("t^2 - sin(2*pi*t) + 0.5")
    ts = np.linspace(-2, 2, 17)
    vec = expr.evaluate(ts)
    scalars = np.array([expr.evaluate(float(t)) for t in ts])
    assert np.array_equal(vec, scalars)


def test_non_finite_literal_rejected_at_its_position():
    with pytest.raises(ExpressionSyntaxError, match="not finite") as err:
        parse_expression("t + 1e999*0")
    assert err.value.position == 4


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
        parse_expression("sin(" * 2000 + "t" + ")" * 2000)


@pytest.mark.parametrize("text, source", [
    ("2*$EPS*t", "2.0*p*t"),
    ("-$EPS + sin($EPS*t)", "-p + _sin(p*t)"),
    ("1 - -$EPS", "1.0 - -p"),
])
def test_parameter_is_a_second_variable(text, source):
    from idepcag.expressions import binder, compile_lambda, param_token, to_source

    expr = parse_expression(text, param_token("EPS"))
    assert to_source(expr) == source
    ts = np.linspace(-2.0, 2.0, 7)
    compiled = compile_lambda(to_source(expr))
    for value in (-0.75, 0.0, 1.5):
        # A negative literal parses as Neg(Const), the bound tree holds
        # Const(value): both evaluate to the bits of p at the value.
        literal = parse_expression(text.replace("$EPS", f"{value:.17g}"))
        expected = np.broadcast_to(literal.evaluate(ts), ts.shape).tobytes()
        assert np.broadcast_to(compiled(ts, value), ts.shape).tobytes() == expected
        assert np.broadcast_to(binder(expr)(value).evaluate(ts), ts.shape).tobytes() == expected


@pytest.mark.parametrize(
    "text", ["$EPS^2", "($EPS)^3", "t^$EPS", "2$EPS", "$EPS.5", "t $EPS", "$$EPS"])
def test_parameter_only_as_an_atom_outside_powers(text):
    from idepcag.expressions import param_token

    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text, param_token("EPS"))
    # $EPSX is another token, left as the text it is.
    with pytest.raises(ExpressionSyntaxError, match="unexpected character '\\$'"):
        parse_expression("$EPSX", param_token("EPS"))
