"""Closed scalar expression grammar for time-dependent coefficients.

Coefficient entries of the system matrices are written as small formulas in
one variable ``t``: numbers, ``pi``, ``+ - *``, integer powers ``^``, and the
functions ``sin``, ``cos``, ``exp``.  A sweep template may also name its
parameter (``$EPS``), which parses as a second variable ``p`` (``Param``).
The grammar deliberately has no division and no user-defined functions, so
every expression is defined for every finite ``t`` and numeric periodicity
certificates are meaningful.
Literals must be finite; values that overflow (``exp(1000)``) are left to
the load-time certificate, which rejects non-finite samples.

Expressions evaluate with numpy semantics: scalars in, float out, and numpy
arrays broadcast elementwise.  ``to_source`` turns a parsed tree into Python
source with the same operations in the same order, and ``compile_lambda``
compiles such source against the numpy functions the tree itself calls, so
a compiled expression is bitwise equal to ``Expression.evaluate``.  Only
emitted source is compiled, never the user's text.  Compiled source is a
function of ``t`` and ``p``, so one compilation of a template serves every
value of its parameter.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "Expression",
    "ExpressionSyntaxError",
    "Param",
    "SOURCE_NAMES",
    "binder",
    "compile_lambda",
    "param_token",
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
        """Whether every operand subtree is constant: true of ``Const``,
        false of ``Var`` and ``Param``."""
        return all(kid.is_constant() for _, kid in _operands(self))

    def constant_value(self):
        """Value of a constant expression (only valid if ``is_constant()``)."""
        return float(self.evaluate(0.0))

    def __str__(self):
        return self._format(0)

    def _format(self, parent_prec, python=False):
        """Text at the given precedence; ``python=True`` emits Python source
        (``**`` and the ``_``-prefixed numpy names) instead of the grammar."""
        raise NotImplementedError


def _operands(expr):
    """``(field name, subtree)`` of every operand of the node ``expr``."""
    return [(f.name, getattr(expr, f.name)) for f in fields(expr)
            if isinstance(getattr(expr, f.name), Expression)]


#: The only names compiled source can reach: the numpy functions the tree
#: calls, each under ``_`` and its name in the grammar.
SOURCE_NAMES = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp}


# Precedence levels used for printing: sum < product < unary < power < atom.
_P_SUM, _P_PROD, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Const(Expression):
    value: float

    def evaluate(self, t):
        return self.value if np.isscalar(t) else np.full_like(np.asarray(t, dtype=float), self.value)

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
class Param(Expression):
    """A sweep template's parameter, written ``name`` (``$EPS``): the second
    variable ``p`` of compiled source.  It has no value of its own;
    ``binder`` puts one in."""

    name: str

    def evaluate(self, t):
        raise ValueError(f"the parameter {self.name} has no value")

    def is_constant(self):
        return False

    def _format(self, parent_prec, python=False):
        return "p" if python else self.name


@dataclass(frozen=True)
class _Binary(Expression):
    """``left op right``; a subclass names ``op``, its precedence ``prec``
    and its ``symbol``, which are the same in the grammar and in source."""

    left: Expression
    right: Expression

    def evaluate(self, t):
        return self.op(self.left.evaluate(t), self.right.evaluate(t))

    def _format(self, parent_prec, python=False):
        text = (f"{self.left._format(self.prec, python)}{self.symbol}"
                f"{self.right._format(self.prec + 1, python)}")
        return f"({text})" if parent_prec > self.prec else text


class Add(_Binary):
    op, prec, symbol = operator.add, _P_SUM, " + "


class Sub(_Binary):
    op, prec, symbol = operator.sub, _P_SUM, " - "


class Mul(_Binary):
    op, prec, symbol = operator.mul, _P_PROD, "*"


@dataclass(frozen=True)
class Neg(Expression):
    operand: Expression

    def evaluate(self, t):
        return -self.operand.evaluate(t)

    def _format(self, parent_prec, python=False):
        text = f"-{self.operand._format(_P_UNARY, python)}"
        return f"({text})" if parent_prec > _P_UNARY else text


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: int  # non-negative, so evaluation stays total

    def evaluate(self, t):
        return self.base.evaluate(t) ** self.exponent

    def _format(self, parent_prec, python=False):
        op = " ** " if python else "^"
        text = f"{self.base._format(_P_POW + 1, python)}{op}{self.exponent}"
        return f"({text})" if parent_prec > _P_POW else text


@dataclass(frozen=True)
class Call(Expression):
    func: str  # sin | cos | exp
    arg: Expression

    _FUNCS = {name[1:]: func for name, func in SOURCE_NAMES.items()}

    def evaluate(self, t):
        return self._FUNCS[self.func](self.arg.evaluate(t))

    def _format(self, parent_prec, python=False):
        name = f"_{self.func}" if python else self.func
        return f"{name}({self.arg._format(0, python)})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def param_token(name):
    """The regex of the parameter token ``$name``, whole: ``$A`` is not the
    start of ``$AC``."""
    return re.compile(re.escape(f"${name}") + r"(?![A-Za-z0-9_])")


def _tokenize(text, token=None):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            start = len(text) - len(stripped)
            found = token.match(text, start) if token else None
            if found is None:
                raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", start)
            tokens.append(("param", found.group(), start))
            pos = found.end()
            continue
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The binary operators of the grammar, with their precedence in ``prec``.
_BINARY = {"+": Add, "-": Sub, "*": Mul}


class _Parser:
    """Recursive descent over the token list; binary operators by precedence
    (``binary``)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.params = 0  # Param atoms read so far

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
        expr = self.binary()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {value!r}", pos)
        return expr

    def binary(self):
        """Unary operands joined by the operators of ``_BINARY``, on a
        stack: before an operator is pushed, every stacked one of at least
        its precedence is applied, so ``+ - *`` associate left and ``*``
        binds tighter."""
        operands, ops = [self.unary()], []
        while True:
            kind, value, _ = self.peek()
            node = _BINARY.get(value) if kind == "op" else None
            while ops and (node is None or ops[-1].prec >= node.prec):
                right = operands.pop()
                operands.append(ops.pop()(operands.pop(), right))
            if node is None:
                return operands[0]
            self.advance()
            ops.append(node)
            operands.append(self.unary())

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
        params = self.params
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            # A value's literal parses apart from p in a power's base (-0.5^2
            # is -(0.5^2)), and Python rounds a power of a literal apart from
            # numpy's power of an array of p, by up to one ulp.
            if self.params > params:
                raise ExpressionSyntaxError("the parameter cannot be in a power base", pos)
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
        if kind == "param":
            self.params += 1
            return Param(value)
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
                arg = self.binary()
                self.expect_op(")")
                return Call(value, arg)
            raise ExpressionSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            expr = self.binary()
            self.expect_op(")")
            return expr
        raise ExpressionSyntaxError(
            f"unexpected token {value!r}" if value else "unexpected end of input", pos
        )


def parse_expression(text: str, token=None) -> Expression:
    """Parse ``text`` into an expression tree.

    Parameters
    ----------
    text : str
        Formula in ``t``; see the module docstring for the grammar.
    token : re.Pattern, optional
        The parameter token (``param_token``), whose matches parse as
        ``Param``.  A power with the parameter in its base is refused.

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
        return _Parser(_tokenize(text, token)).parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None


def to_source(expr: Expression) -> str:
    """Python source of ``expr`` in the variables ``t`` and ``p`` (``Param``).

    The source keeps the tree's operations and operand order (Python's
    ``+ - *`` associate left and ``**`` binds tighter than unary minus, as in
    the grammar), so evaluating it with ``SOURCE_NAMES`` bound performs the
    same floating-point operations as ``expr.evaluate``.  It contains only
    float ``repr``s, ``t``, ``p``, parentheses, ``+ - * **`` with integer-literal
    exponents and calls of ``_sin``, ``_cos``, ``_exp``.

    Raises
    ------
    ValueError
        If the tree holds a non-finite constant, which has no literal form.
    """
    return expr._format(0, python=True)


def compile_lambda(body: str):
    """Compile ``lambda t, p: <body>``, with ``body`` assembled from
    ``to_source`` output, against ``SOURCE_NAMES`` and no builtins."""
    code = compile(f"lambda t, p: {body}", "<idepcag expression>", "eval")
    return eval(code, {"__builtins__": {}, **SOURCE_NAMES})


def binder(expr: Expression):
    """``v -> expr`` with every ``Param`` replaced by ``Const(v)``, or None
    when ``expr`` holds no ``Param``.  The walk is done once, so a call
    rebuilds only the nodes on the paths to the parameter."""
    if isinstance(expr, Param):
        return lambda v: Const(float(v))
    kids = [(name, binder(kid)) for name, kid in _operands(expr)]
    kids = [(name, bind) for name, bind in kids if bind is not None]
    if not kids:
        return None
    return lambda v: replace(expr, **{name: bind(v) for name, bind in kids})
