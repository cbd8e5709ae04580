"""Closed scalar expression grammar for time-dependent coefficients.

Coefficient entries of the system matrices are written as small formulas in
one variable ``t``: numbers, ``pi``, ``+ - *``, integer powers ``^``, and the
functions ``sin``, ``cos``, ``exp``.  The grammar deliberately has no
division and no user-defined functions, so every expression is defined for
every finite ``t`` and numeric periodicity certificates are meaningful.
Literals must be finite; values that overflow (``exp(1000)``) are left to
the load-time certificate, which rejects non-finite samples.

Expressions evaluate with numpy semantics: scalars in, float out, and numpy
arrays broadcast elementwise.  ``to_source`` turns a parsed tree into Python
source with the same operations in the same order, and ``compile_lambda``
compiles such source against the numpy functions the tree itself calls, so
a compiled expression is bitwise equal to ``Expression.evaluate``.  Only
emitted source is compiled, never the user's text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "ExpressionSyntaxError",
    "SOURCE_NAMES",
    "compile_lambda",
    "parse_expression",
    "to_source",
]


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expression:
    """Base node of the expression tree."""

    def evaluate(self, t):
        raise NotImplementedError

    def is_constant(self):
        raise NotImplementedError

    def constant_value(self):
        """Value of a constant expression (only valid if ``is_constant()``)."""
        return float(self.evaluate(0.0))

    def __str__(self):
        return self._format(0)

    def _format(self, parent_prec, python=False):
        """Text at the given precedence; ``python=True`` emits Python source
        (``**`` and the ``_``-prefixed numpy names) instead of the grammar."""
        raise NotImplementedError


# Precedence levels used for printing: sum < product < unary < power < atom.
_P_SUM, _P_PROD, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Const(Expression):
    value: float

    def evaluate(self, t):
        return self.value if np.isscalar(t) else np.full_like(np.asarray(t, dtype=float), self.value)

    def is_constant(self):
        return True

    def _format(self, parent_prec, python=False):
        if python and not math.isfinite(self.value):
            raise ValueError(f"non-finite constant {self.value!r} has no source form")
        text = repr(self.value)
        if text.startswith("-"):  # also -0.0, which compares equal to 0
            return f"({text})" if parent_prec > _P_SUM else text
        return text


@dataclass(frozen=True)
class Var(Expression):
    """The time variable ``t``."""

    def evaluate(self, t):
        return t

    def is_constant(self):
        return False

    def _format(self, parent_prec, python=False):
        return "t"


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression

    def evaluate(self, t):
        return self.left.evaluate(t) + self.right.evaluate(t)

    def is_constant(self):
        return self.left.is_constant() and self.right.is_constant()

    def _format(self, parent_prec, python=False):
        text = f"{self.left._format(_P_SUM, python)} + {self.right._format(_P_SUM + 1, python)}"
        return f"({text})" if parent_prec > _P_SUM else text


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression

    def evaluate(self, t):
        return self.left.evaluate(t) - self.right.evaluate(t)

    def is_constant(self):
        return self.left.is_constant() and self.right.is_constant()

    def _format(self, parent_prec, python=False):
        text = f"{self.left._format(_P_SUM, python)} - {self.right._format(_P_SUM + 1, python)}"
        return f"({text})" if parent_prec > _P_SUM else text


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression

    def evaluate(self, t):
        return self.left.evaluate(t) * self.right.evaluate(t)

    def is_constant(self):
        return self.left.is_constant() and self.right.is_constant()

    def _format(self, parent_prec, python=False):
        text = f"{self.left._format(_P_PROD, python)}*{self.right._format(_P_PROD + 1, python)}"
        return f"({text})" if parent_prec > _P_PROD else text


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression

    def evaluate(self, t):
        return -self.operand.evaluate(t)

    def is_constant(self):
        return self.operand.is_constant()

    def _format(self, parent_prec, python=False):
        text = f"-{self.operand._format(_P_UNARY, python)}"
        return f"({text})" if parent_prec > _P_UNARY else text


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int  # non-negative, so evaluation stays total

    def evaluate(self, t):
        return self.base.evaluate(t) ** self.exponent

    def is_constant(self):
        return self.base.is_constant()

    def _format(self, parent_prec, python=False):
        op = " ** " if python else "^"
        text = f"{self.base._format(_P_POW + 1, python)}{op}{self.exponent}"
        return f"({text})" if parent_prec > _P_POW else text


@dataclass(frozen=True)
class Call(Expression):
    func: str  # sin | cos | exp
    arg: Expression

    _FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

    def evaluate(self, t):
        return self._FUNCS[self.func](self.arg.evaluate(t))

    def is_constant(self):
        return self.arg.is_constant()

    def _format(self, parent_prec, python=False):
        name = f"_{self.func}" if python else self.func
        return f"{name}({self.arg._format(0, python)})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list; standard precedence."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self):
        expr = self.sum()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
        return expr

    def sum(self):
        expr = self.product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.product()
                expr = Add(expr, right) if value == "+" else Sub(expr, right)
            else:
                return expr

    def product(self):
        expr = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                expr = Mul(expr, self.unary())
            else:
                return expr

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        if kind == "op" and value == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num":
                raise ExpressionSyntaxError("exponent must be an integer literal", pos)
            if not value.isdigit():
                raise ExpressionSyntaxError(
                    "exponent must be a non-negative integer", pos
                )
            self.advance()
            try:
                exponent = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ExpressionSyntaxError(
                    f"exponent literal has too many digits ({len(value)})", pos
                ) from None
            return Pow(base, exponent)
        return base

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExpressionSyntaxError(f"numeric literal {value!r} is not finite", pos)
            return Const(number)
        if kind == "name":
            if value == "t":
                return Var()
            if value == "pi":
                return Const(math.pi)
            if value in Call._FUNCS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(value, arg)
            raise ExpressionSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ExpressionSyntaxError(
            f"unexpected token {value!r}" if value else "unexpected end of input", pos
        )


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text : str
        Formula in ``t``; see the module docstring for the grammar.

    Returns
    -------
    Expression
        Tree whose ``evaluate(t)`` computes the written formula.

    Raises
    ------
    ExpressionSyntaxError
        On malformed input or unknown identifiers, with the offending
        position.
    """
    try:
        return _Parser(_tokenize(text)).parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None


def to_source(expr: Expression) -> str:
    """Python source of ``expr`` in the variable ``t``.

    The source keeps the tree's operations and operand order (Python's
    ``+ - *`` associate left and ``**`` binds tighter than unary minus, as in
    the grammar), so evaluating it with ``SOURCE_NAMES`` bound performs the
    same floating-point operations as ``expr.evaluate``.  It contains only
    float ``repr``s, ``t``, parentheses, ``+ - * **`` with integer-literal
    exponents and calls of ``_sin``, ``_cos``, ``_exp``.

    Raises
    ------
    ValueError
        If the tree holds a non-finite constant, which has no literal form.
    """
    return expr._format(0, python=True)


#: The only names compiled source can reach: the numpy functions the tree
#: calls.
SOURCE_NAMES = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp}


def compile_lambda(body: str):
    """Compile ``lambda t: <body>``, with ``body`` assembled from
    ``to_source`` output, against ``SOURCE_NAMES`` and no builtins."""
    code = compile(f"lambda t: {body}", "<idepcag expression>", "eval")
    return eval(code, {"__builtins__": {}, **SOURCE_NAMES})
