"""Tiny closed-form expression language used by fields and level sets.

Grammar: ``+ - * / ^`` with integer exponents, variables ``x`` and ``y``,
parentheses, decimal and scientific literals.  Expressions evaluate
vectorized over numpy arrays, and every expression differentiates
symbolically (quotient rule for ``/``, power rule for any integer
exponent).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

__all__ = ["Expr", "parse_expression"]

ALLOWED_VARS = ("x", "y")

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses implement ``evaluate``, ``diff`` and ``__str__``."""

    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def variables(self):
        return frozenset()

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env):
        return env[self.name]

    def diff(self, var):
        return Const(1.0) if var == self.name else Const(0.0)

    def variables(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def diff(self, var):
        return _add(self.a.diff(var), self.b.diff(var))

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __str__(self):
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) - self.b.evaluate(env)

    def diff(self, var):
        return _sub(self.a.diff(var), self.b.diff(var))

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __str__(self):
        return f"({self.a} - {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def diff(self, var):
        return _add(_mul(self.a.diff(var), self.b), _mul(self.a, self.b.diff(var)))

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __str__(self):
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class DivNode(Expr):
    a: Expr
    b: Expr

    def evaluate(self, env):
        return self.a.evaluate(env) / self.b.evaluate(env)

    def diff(self, var):
        # (a/b)' = (a'b - ab') / b^2
        num = _sub(_mul(self.a.diff(var), self.b), _mul(self.a, self.b.diff(var)))
        return DivNode(num, Pow(self.b, 2))

    def variables(self):
        return self.a.variables() | self.b.variables()

    def __str__(self):
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    k: int

    def evaluate(self, env):
        v = self.base.evaluate(env)
        if self.k < 0:
            return np.asarray(v, dtype=float) ** self.k
        return v**self.k

    def diff(self, var):
        if self.k == 0:
            return Const(0.0)
        inner = self.base.diff(var)
        if self.k == 1:
            return inner
        return _mul(_mul(Const(float(self.k)), Pow(self.base, self.k - 1)), inner)

    def variables(self):
        return self.base.variables()

    def __str__(self):
        return f"({self.base}^{self.k})"


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def evaluate(self, env):
        return -self.a.evaluate(env)

    def diff(self, var):
        return Neg(self.a.diff(var))

    def variables(self):
        return self.a.variables()

    def __str__(self):
        return f"(-{self.a})"


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r} in {text!r}")
        pos = m.end()
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        # normalize the unicode minus some sources use
        self.text = text
        self.tokens = _tokenize(text.replace("−", "-"))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.pos != len(self.tokens):
            raise ExpressionError(f"trailing tokens in {self.text!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = Mul(e, rhs) if val == "*" else DivNode(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.factor()
            return inner if val == "+" else Neg(inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k = self.exponent()
            return Pow(base, k)
        return base

    def exponent(self) -> int:
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            if val == "-":
                sign = -1
            kind, val = self.peek()
        if kind != "num":
            raise ExpressionError(f"exponent must be an integer literal in {self.text!r}")
        self.take()
        try:
            k = int(val)
        except ValueError as exc:
            raise ExpressionError(
                f"exponent must be an integer, got {val!r} in {self.text!r}"
            ) from exc
        return sign * k

    def atom(self) -> Expr:
        kind, val = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            if val not in ALLOWED_VARS:
                raise ExpressionError(
                    f"unknown variable {val!r} (allowed: {', '.join(ALLOWED_VARS)})"
                )
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionError(f"unexpected token in {self.text!r}")


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an :class:`Expr`.  Raises ExpressionError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()
