"""Tiny closed-form expression language used by fields and level sets.

Grammar: ``+ - * / ^`` with integer exponents, variables ``x`` and ``y``,
parentheses, decimal and scientific literals.  Expressions evaluate
vectorized over numpy arrays, and every expression differentiates
symbolically (quotient rule for ``/``, power rule for any integer
exponent).  Integer powers of 3 and more are products, not ``np.power``.

Python parses: ``^`` is mapped to ``**`` and the ``ast.parse`` tree is
walked against the grammar.  Characters outside ASCII letters and digits,
``_ . + - * / ^ ( )`` and whitespace are rejected first, so NFKC (``ｘ``)
and comments (``#``) never reach Python.  Python drops redundant parentheses
and forbids leading zeros: ``x^(2)`` is accepted, ``007`` is rejected.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ExpressionError

__all__ = ["Expr", "parse_expression"]

ALLOWED_VARS = ("x", "y")

# characters outside the grammar, and Python's power operator (spelled ``^`` here)
_FORBIDDEN = re.compile(r"[^A-Za-z0-9_.\s+\-*/^()]|\*\*")
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")  # decimal and scientific


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


def _products(v, k: int):
    """v^k for an integer k >= 3 by square-and-multiply: O(log k) products.

    numpy's ``pow`` can be many times slower than the products on negative
    and zero bases.  Each product rounds, so the result may differ from
    ``np.power`` by a relative (k - 1) 2^-53 at most; overflow gives inf.
    """
    out = None
    while k > 1:
        if k & 1:
            out = v if out is None else out * v
        k >>= 1
        v = v * v
    # v is a square made here, so the last product may overwrite it
    if out is not None:
        v *= out
    return v


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    k: int

    def evaluate(self, env):
        v = self.base.evaluate(env)
        if self.k < 0:
            return np.asarray(v, dtype=float) ** self.k
        if self.k <= 2:
            return v**self.k
        return _products(v, self.k)

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


def finite_values(expr: Expr, env: dict, shape, name: str, where: str) -> np.ndarray:
    """``expr`` at the points of ``env``, broadcast to ``shape``; ArgumentError
    "<name> is not finite <where>" where it is inf or nan, or raises."""
    try:  # Python floats raise where arrays give inf or nan: 1/0
        with np.errstate(all="ignore"):
            val = np.broadcast_to(np.asarray(expr.evaluate(env), dtype=float), shape)
    except (OverflowError, ZeroDivisionError):
        val = np.nan
    if not np.all(np.isfinite(val)):
        raise ArgumentError(f"{name} is not finite {where}")
    return val


_BINOPS = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: DivNode}
_SIGNS = {ast.UAdd: 1, ast.USub: -1}


def _segment(node: ast.AST, src: str) -> str:
    """The user's spelling of ``node``: its source text with ``**`` back to ``^``."""
    return ast.get_source_segment(src, node).replace("**", "^")


def _literal(node: ast.AST, src: str):
    text = ast.get_source_segment(src, node)
    return text if isinstance(node, ast.Constant) and _NUMBER.fullmatch(text) else None


def _exponent(node: ast.AST, src: str) -> int:
    sign = 1
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        sign, node = _SIGNS[type(node.op)], node.operand
    if _literal(node, src) is None or type(node.value) is not int:
        raise ExpressionError(f"exponent must be an integer literal, got {_segment(node, src)!r}")
    return sign * node.value


def _build(node: ast.AST, src: str) -> Expr:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return Pow(_build(node.left, src), _exponent(node.right, src))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_build(node.left, src), _build(node.right, src))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGNS:
        inner = _build(node.operand, src)
        return Neg(inner) if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Name):
        if node.id not in ALLOWED_VARS:
            allowed = ", ".join(ALLOWED_VARS)
            raise ExpressionError(f"unknown variable {node.id!r} (allowed: {allowed})")
        return Var(node.id)
    if (text := _literal(node, src)) is not None:
        return Const(float(text))
    raise ExpressionError(f"unsupported syntax {_segment(node, src)!r}")


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an :class:`Expr`.  Raises ExpressionError on bad input."""
    if not isinstance(text, str):
        raise ExpressionError(f"expression must be a string, got {text!r}")
    # the unicode minus some sources use; eval-mode ast.parse needs one unindented line
    src = " ".join(text.replace("−", "-").split())
    if not src:
        raise ExpressionError("empty expression")
    if bad := _FORBIDDEN.search(src):
        raise ExpressionError(f"unexpected {bad.group()!r} in {text!r}")
    src = src.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)  # "2if x": rejected below anyway
            tree = ast.parse(src, mode="eval")
        return _build(tree.body, src)
    except SyntaxError as exc:
        raise ExpressionError(f"malformed expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression nested too deeply ({len(text)} characters)") from None
