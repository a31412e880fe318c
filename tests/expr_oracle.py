"""Out-of-place oracles for expression weights.

``evaluate`` walks an ``hclab.exprs`` tree the way ``Expr.__call__`` did
before it reused its own arrays: every operation returns a new value.  The
other functions compute what ``hclab.hctest`` computes for an
``ExprWeight`` one grid pass at a time, with ``np.mod`` for the remainder:
the weight at angles, the monotone rows one row at a time, and the midpoint
log integral.  Tests compare the library with them bit for bit."""

import itertools
import math

import numpy as np

from hclab.exprs import _BinOp, _Const, _Neg, _Var
from hclab.hctest import MonotoneHit

_FUNCTIONS = {"exp": np.exp, "ln": np.log, "log": np.log, "sin": np.sin, "cos": np.cos}


def evaluate(node, x):
    """The tree ``node`` (an ``Expr`` or one of its nodes) at ``x``."""
    node = getattr(node, "_root", node)
    if isinstance(node, _Const):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Neg):
        return -evaluate(node.arg, x)
    if isinstance(node, _BinOp):
        a = evaluate(node.left, x)
        b = evaluate(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    return _FUNCTIONS[node.name](evaluate(node.arg, x))


def angles(w, t):
    """The angles of w's expression at the ``ExprWeight`` w's angles t."""
    return np.mod(np.asarray(t, dtype=float) + float(w._offset), 1.0)


def weight_at(w, t):
    """The ``ExprWeight`` w at angles t."""
    return evaluate(w.expr, angles(w, t))


def mod1(y):
    """y mod 1 in [0, 1): a remainder that rounds up to 1.0 folds to 0."""
    r = np.mod(y, 1.0)
    return np.where(r >= 1.0, 0.0, r)


def log_lipschitz(w, xs):
    """Twice the grid maximum of |w'| / w, both read at w's own angles."""
    dv = np.abs(np.asarray(evaluate(w.expr.derivative(), angles(w, xs)), dtype=float))
    wv = np.asarray(weight_at(w, xs), dtype=float)
    return 2.0 * float(np.max(dv / wv))


def monotone_rows(w, a, grid_points):
    """The monotone rows n = 1, 2, ... of an expression weight, each from
    the previous row's log sum plus ln w at the orbit's term n-1."""
    xs = np.arange(grid_points) / grid_points
    af = float(a.value)
    acc = np.zeros(grid_points)
    log_lip = None
    for n in itertools.count(1):
        acc = acc + np.log(np.asarray(weight_at(w, mod1(xs - (n - 1) * af)), dtype=float))
        mn, mx = float(acc.min()), float(acc.max())
        if not (mn >= 0.0 or mx <= 0.0):
            yield MonotoneHit(n, None, False, False, math.exp(mn), math.exp(mx))
            continue
        if log_lip is None:
            log_lip = log_lipschitz(w, xs)
        up = mn >= 0.0
        gap = mn if up else -mx
        certified = gap - n * log_lip / (2 * grid_points) >= 0.0
        i = int(np.argmin(acc) if up else np.argmax(acc))
        yield MonotoneHit(
            n, ">=1" if up else "<=1", mx > 0.0 if up else mn < 0.0, certified,
            math.exp(mn), math.exp(mx), [float(xs[i])],
        )


def log_integral(w, quadrature_points):
    """(midpoint log integral on ``quadrature_points`` points, its gap to
    the one on half as many)."""

    def midpoint(m):
        xs = (np.arange(m) + 0.5) / m
        return float(np.mean(np.log(np.asarray(weight_at(w, xs), dtype=float))))

    coarse = midpoint(quadrature_points // 2)
    fine = midpoint(quadrature_points)
    return fine, abs(fine - coarse)
