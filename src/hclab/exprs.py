"""Tiny arithmetic expression language for circle weights and test functions.

Supported grammar: numeric constants, the variable ``x``, the literals ``pi``
and ``e``, the binary operators ``+ - * /``, unary minus, and calls to
``exp``, ``ln`` (alias ``log``), ``sin``, ``cos``.  Evaluation is numpy-aware,
so a whole grid evaluates in one call; an operation on an array that the
evaluation itself made writes its result over that array when the dtype
stays the same, and so does an operation on an argument array its caller
hands over (``Expr.__call__``'s ``_owned``).
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr"]

_FUNCTIONS = {"exp": np.exp, "ln": np.log, "log": np.log, "sin": np.sin, "cos": np.cos}
_BINARY = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.divide),
}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Node:
    __slots__ = ()


@dataclass(frozen=True)
class _Const(_Node):
    value: float

    def eval(self, x, own):
        return self.value, False


@dataclass(frozen=True)
class _Var(_Node):
    def eval(self, x, own):
        return x, own


@dataclass(frozen=True)
class _Neg(_Node):
    arg: _Node

    def eval(self, x, own):
        return _apply(operator.neg, np.negative, self.arg.eval(x, own))


@dataclass(frozen=True)
class _BinOp(_Node):
    op: str
    left: _Node
    right: _Node

    def eval(self, x, own):
        return _apply(*_BINARY[self.op], self.left.eval(x, own), self.right.eval(x, own))


@dataclass(frozen=True)
class _Call(_Node):
    name: str
    arg: _Node

    def eval(self, x, own):
        fn = _FUNCTIONS[self.name]
        return _apply(fn, fn, self.arg.eval(x, own))


def _apply(op, ufunc, *operands):
    """``op`` of the operand values, as (value, whether that value is an
    array this evaluation owns: one it created, or the argument handed
    over).  The result overwrites such an array when it has that array's
    dtype; otherwise it is new."""
    values = [v for v, _ in operands]
    for v, own in operands:
        if own and ufunc.resolve_dtypes(tuple(map(_dtype, values)) + (None,))[-1] == v.dtype:
            return ufunc(*values, out=v), True
    out = op(*values)
    return out, isinstance(out, np.ndarray)


def _uses_of_x(node: _Node) -> int:
    if isinstance(node, _Var):
        return 1
    return sum(_uses_of_x(v) for v in vars(node).values() if isinstance(v, _Node))


def _total(node: _Node) -> bool:
    """Whether the node is finite at every real x: no ln, and no division
    but by a nonzero constant."""
    if isinstance(node, _Call):
        return node.name in ("exp", "sin", "cos") and _total(node.arg)
    if isinstance(node, _BinOp) and node.op == "/":
        return isinstance(node.right, _Const) and node.right.value != 0 and _total(node.left)
    return all(_total(v) for v in vars(node).values() if isinstance(v, _Node))


def _dtype(v):
    # Python scalars resolve as weak types, the way ufuncs treat them
    return v.dtype if isinstance(v, (np.ndarray, np.generic)) else type(v)


def _convert(node: ast.AST) -> _Node:
    if isinstance(node, ast.Expression):
        return _convert(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            return _Const(float(node.value))
        raise ValueError(f"unsupported constant {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "x":
            return _Var()
        if node.id in _CONSTANTS:
            return _Const(_CONSTANTS[node.id])
        raise ValueError(f"unknown name {node.id!r}")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return _Neg(_convert(node.operand))
        if isinstance(node.op, ast.UAdd):
            return _convert(node.operand)
        raise ValueError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
        for klass, sym in ops.items():
            if isinstance(node.op, klass):
                return _BinOp(sym, _convert(node.left), _convert(node.right))
        raise ValueError("unsupported binary operator")
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            return _Call(node.func.id, _convert(node.args[0]))
        raise ValueError("unsupported function call")
    raise ValueError(f"unsupported syntax: {ast.dump(node)}")


def _diff(node: _Node) -> _Node:
    if isinstance(node, _Const):
        return _Const(0.0)
    if isinstance(node, _Var):
        return _Const(1.0)
    if isinstance(node, _Neg):
        return _Neg(_diff(node.arg))
    if isinstance(node, _BinOp):
        da, db = _diff(node.left), _diff(node.right)
        if node.op in ("+", "-"):
            return _BinOp(node.op, da, db)
        if node.op == "*":
            return _BinOp(
                "+",
                _BinOp("*", da, node.right),
                _BinOp("*", node.left, db),
            )
        # quotient rule
        num = _BinOp("-", _BinOp("*", da, node.right), _BinOp("*", node.left, db))
        den = _BinOp("*", node.right, node.right)
        return _BinOp("/", num, den)
    if isinstance(node, _Call):
        inner = _diff(node.arg)
        if node.name == "exp":
            outer = _Call("exp", node.arg)
        elif node.name in ("ln", "log"):
            return _BinOp("/", inner, node.arg)
        elif node.name == "sin":
            outer = _Call("cos", node.arg)
        else:  # cos
            outer = _Neg(_Call("sin", node.arg))
        return _BinOp("*", outer, inner)
    raise TypeError(node)


class Expr:
    """A parsed expression in one variable, callable on floats or arrays."""

    def __init__(self, source: str):
        self.source = source
        try:
            tree = ast.parse(source, mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"cannot parse expression {source!r}: {exc}") from exc
        self._root = _convert(tree)

    @classmethod
    def _from_node(cls, node: _Node, source: str) -> "Expr":
        obj = cls.__new__(cls)
        obj.source = source
        obj._root = node
        return obj

    def __call__(self, x, *, _owned: bool = False):
        """The expression at ``x``, a number or an array; ``x`` itself is
        never written to, unless the caller hands over a float array it
        owns (``_owned``): then, when x occurs once in the expression, the
        operation that reads it writes its result over x, and the value is
        x itself."""
        return self._root.eval(x, _owned and self._reads_x_once)[0]

    @functools.cached_property
    def _reads_x_once(self) -> bool:
        return _uses_of_x(self._root) == 1

    @functools.cached_property
    def exponent(self) -> "Expr | None":
        """u, when the expression is exp(u) for a u finite at every real x
        (``_total``), and so positive wherever it is finite; else None."""
        root = self._root
        if isinstance(root, _Call) and root.name == "exp" and _total(root.arg):
            return Expr._from_node(root.arg, f"ln({self.source})")
        return None

    @functools.cached_property
    def derivative(self) -> "Expr":
        """The symbolic derivative, built once per expression."""
        return Expr._from_node(_diff(self._root), f"d/dx({self.source})")

    def __repr__(self):
        return f"Expr({self.source!r})"
