"""``Expr.__call__`` against the out-of-place tree walk of
``tests/expr_oracle.py``: the same value, bit for bit and of the same type,
on generated trees and inputs, and the caller's array left as it was, unless
the caller hands it over (``_owned``), when the value is the same and may
be written over it."""

import math
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expr_oracle
from hclab.exprs import Expr

_LEAVES = st.sampled_from(["x", "pi", "e", "2", "0.5", "3.25", "-1.5"])


def _trees(children):
    return st.one_of(
        st.builds("-({})".format, children),
        st.builds("({}) {} ({})".format, children, st.sampled_from("+-*/"), children),
        st.builds("{}({})".format, st.sampled_from(["exp", "ln", "log", "sin", "cos"]), children),
    )


_SOURCES = st.recursive(_LEAVES, _trees, max_leaves=8)

_FLOATS = st.floats(-40.0, 40.0)


@st.composite
def _inputs(draw):
    kind = draw(st.sampled_from(["float", "int-array", "0-d", "1-d", "2-d"]))
    if kind == "float":
        return draw(_FLOATS)
    if kind == "int-array":
        return np.array(draw(st.lists(st.integers(-50, 50), min_size=1, max_size=12)), dtype=np.int64)
    if kind == "0-d":
        return np.array(draw(_FLOATS))
    shape = (draw(st.integers(1, 12)),) if kind == "1-d" else (draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    values = draw(st.lists(_FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=float).reshape(shape)


def _outcome(fn, x):
    """fn(x), or the type of the exception it raised (Python floats raise
    ZeroDivisionError where arrays give inf)."""
    try:
        return fn(x)
    except ZeroDivisionError as exc:
        return type(exc)


def _bits(v):
    """The type, dtype, shape and bytes of a value; an exception type
    stands for itself."""
    if isinstance(v, type):
        return v
    arr = np.asarray(v)
    return type(v), arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=300, deadline=None)
@example("x", np.arange(5.0))
@example("-x", np.arange(-3, 4))
@example("-(2*pi)", np.arange(4.0))
@example("-(2*pi) * x", np.array(0.75))
@example("exp(0.5*sin(2*pi*(x-0.3)) + 1/10)", np.linspace(0.0, 1.0, 12).reshape(3, 4))
@example("cos(sin(exp(-x))) / (x - x)", np.array([1, 2], dtype=np.int64))
@example("(x * x) / (x * x)", np.array([0, 3], dtype=np.int64))
@example("1 / (x - 0.5)", 0.5)
@given(_SOURCES, _inputs())
def test_call_matches_the_out_of_place_walk(source, x):
    expr = Expr(source)
    before = np.array(x, copy=True)
    with np.errstate(all="ignore"):
        want = _outcome(lambda v: expr_oracle.evaluate(expr, v), x)
        got = _outcome(expr, x)
    assert _bits(got) == _bits(want), (source, x, got, want)
    assert np.asarray(x).tobytes() == before.tobytes()


@settings(max_examples=200, deadline=None)
@example("exp(0.5*sin(2*pi*(x-0.3)) + 1/10)", (3, 4))
@example("(x) * (x)", (5,))
@example("2", (2, 2))
@given(_SOURCES, st.sampled_from([(1,), (7,), (3, 4)]))
def test_owned_argument_is_written_over_when_read_once(source, shape):
    # a handed-over array gives the value a kept one gives, and is the value
    # itself exactly when the expression reads x once
    expr = Expr(source)
    x = np.linspace(-3.0, 3.0, int(np.prod(shape))).reshape(shape)
    handed = x.copy()
    with np.errstate(all="ignore"):
        want = expr(x)
        got = expr(handed, _owned=True)
    assert _bits(got) == _bits(want), (source, got, want)
    assert (got is handed) == (len(re.findall(r"\bx\b", source)) == 1)


def test_exponent_is_the_argument_of_exp_when_finite_everywhere():
    # exp(u) is positive wherever u is finite; ln, or a divisor other than a
    # nonzero constant, can leave u infinite between the grid's points
    for source in ["exp(4*sin(2*pi*x))", "exp(sin(2*pi*x)/2 + 1/10)", "exp(exp(cos(x)) - x*x)"]:
        u = Expr(source).exponent
        assert u is not None and math.isclose(math.exp(u(0.3)), Expr(source)(0.3)), source
    for source in ["exp(ln(sin(2*pi*x) + 1))", "exp(1/sin(2*pi*x))", "exp(x/0)", "exp(ln(2))", "2*exp(x)", "x + 1"]:
        assert Expr(source).exponent is None, source
