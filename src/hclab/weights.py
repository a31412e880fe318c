"""Weights, step functions, and discretized functions.

A weight is a strictly positive bounded function on a group context.  Four
families are supported:

* ``ExprWeight``   -- a continuous expression in x on the circle;
* ``StepWeight``   -- a positive step function on the circle (exact rational
                      values on algebra sets);
* ``FiniteWeight`` -- an exact-rational value per element of a finite group;
* ``PAdicTableWeight`` -- an exact-rational table indexed by cosets of
                      p^level Z_p; all comparisons against 1 are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .borel import BallSet, FiniteSubset, IntervalSet
from .equidist import Boundaries, Translates, _frac, sweep_blocks
from .errors import ContextMismatch, GridMismatch, NonPositiveWeight
from .exprs import Expr
from .groups import (CIRCLE, CircleElement, CircleGroup, FiniteGroup, OrbitSequence, PAdicContext,
                     PAdicNumber)

__all__ = [
    "StepFunction",
    "Weight",
    "ExprWeight",
    "StepWeight",
    "FiniteWeight",
    "PAdicTableWeight",
    "CircleGrid",
    "DiscretizedFunction",
    "weight_product",
    "step_products",
    "integer_table",
    "circle_step_rows",
    "apply_operator",
]


# ---------------------------------------------------------------------------
# step functions


def _full_set_like(piece):
    if isinstance(piece, IntervalSet):
        return IntervalSet.full()
    if isinstance(piece, BallSet):
        return BallSet.full(piece.context)
    if isinstance(piece, FiniteSubset):
        return FiniteSubset.full(piece.group)
    raise TypeError(f"unsupported set type {type(piece)}")


@dataclass(frozen=True)
class StepFunction:
    """A finite combination sum_i value_i * indicator(E_i) with the E_i
    disjoint algebra sets covering the whole group.  Values may be any reals
    (weights impose positivity separately); rational values keep evaluation
    and integrals exact."""

    pieces: tuple[tuple[object, object], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a step function needs at least one piece")
        sets = [E for E, _ in self.pieces]
        acc = sets[0]
        for other in sets[1:]:
            if not acc.intersection(other).is_empty():
                raise ValueError("step function pieces overlap")
            acc = acc.union(other)
        if acc != _full_set_like(sets[0]):
            raise ValueError("step function pieces do not cover the group")

    @staticmethod
    def of(pairs: Iterable[tuple[object, object]]) -> "StepFunction":
        return StepFunction(tuple((E, v) for E, v in pairs))

    def value_at(self, x):
        for E, v in self.pieces:
            if E.contains(x):
                return v
        raise AssertionError("cover invariant violated")

    def integral(self):
        """sum_i measure(E_i) * value_i (exact when the values are exact)."""
        total = 0
        for E, v in self.pieces:
            total = total + E.measure() * v
        return total

    def map_values(self, fn) -> "StepFunction":
        return StepFunction(tuple((E, fn(v)) for E, v in self.pieces))

    def log(self) -> "StepFunction":
        return self.map_values(lambda v: math.log(v))

    def exp(self) -> "StepFunction":
        return self.map_values(lambda v: math.exp(v))

    def __len__(self):
        return len(self.pieces)


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Shared surface of the weight families."""

    group: object

    def value_at(self, x) -> float:
        raise NotImplementedError

    def rational_at(self, x) -> Fraction | None:
        """Exact value when the family supports it, else None."""
        return None

    def bounds(self) -> tuple[float, float]:
        raise NotImplementedError

    def translate(self, shift) -> "Weight":
        """The weight x -> w(x + shift) (x * shift multiplicatively)."""
        raise NotImplementedError

    @property
    def is_exact(self) -> bool:
        return False


class ExprWeight(Weight):
    """exp/ln/trig expression weight on the circle, strictly positive.

    Positivity and bounds are certified at grid level, tightened by a
    Lipschitz margin from the symbolic derivative.
    """

    def __init__(self, expr: Expr | str, grid_points: int = 4096, _offset: Fraction = Fraction(0)):
        self.group = CIRCLE
        self.expr = expr if isinstance(expr, Expr) else Expr(expr)
        self.grid_points = grid_points
        self._offset = _offset  # translation accumulated exactly
        xs = (np.arange(grid_points) + 0.5) / grid_points
        vals = np.asarray(self.eval_angles(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonPositiveWeight(f"{self.expr.source!r} is not finite on the circle")
        self._grid_min = float(vals.min())
        self._grid_max = float(vals.max())
        margin = self.lipschitz_bound() / (2 * grid_points)
        if self._grid_min - margin <= 0:
            raise NonPositiveWeight(f"{self.expr.source!r} is not certifiably positive")

    def eval_angles(self, t):
        return self.expr(_frac(np.asarray(t, dtype=float) + float(self._offset)))

    def value_at(self, x) -> float:
        t = float(getattr(x, "value", x))
        return float(self.eval_angles(t))

    def lipschitz_bound(self, grid_points: int = 4096) -> float:
        """Grid estimate of sup |w'|, padded by a factor 2."""
        try:
            d = self.expr.derivative()
        except Exception:
            return math.inf
        xs = _frac((np.arange(grid_points) + 0.5) / grid_points + float(self._offset))
        vals = np.abs(np.asarray(d(xs), dtype=float))
        return 2.0 * float(np.max(vals))

    def bounds(self) -> tuple[float, float]:
        return self._grid_min, self._grid_max

    def translate(self, shift) -> "ExprWeight":
        delta = getattr(shift, "value", None)
        delta = Fraction(delta) if delta is not None else Fraction(float(shift))
        return ExprWeight(self.expr, self.grid_points, (self._offset + delta) % 1)

    def __repr__(self):
        off = f", offset={self._offset}" if self._offset else ""
        return f"ExprWeight({self.expr.source!r}{off})"


class StepWeight(Weight):
    """A strictly positive circle step function used as a weight."""

    def __init__(self, step: StepFunction):
        self.group = CIRCLE
        for E, v in step.pieces:
            if not isinstance(E, IntervalSet):
                raise TypeError("StepWeight pieces must be circle sets")
            if v <= 0:
                raise NonPositiveWeight(f"step value {v} is not positive")
        self.step = step

    def value_at(self, x) -> float:
        return float(self.step.value_at(getattr(x, "value", x)))

    def rational_at(self, x) -> Fraction | None:
        v = self.step.value_at(getattr(x, "value", x))
        return v if isinstance(v, (Fraction, int)) else None

    def bounds(self) -> tuple[float, float]:
        vals = [float(v) for _, v in self.step.pieces]
        return min(vals), max(vals)

    def translate(self, shift) -> "StepWeight":
        delta = getattr(shift, "value", None)
        if delta is None:
            delta = Fraction(float(shift))
        moved = tuple((E.translated(-delta), v) for E, v in self.step.pieces)
        return StepWeight(StepFunction(moved))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for _, v in self.step.pieces)

    def __repr__(self):
        return f"StepWeight({len(self.step)} pieces)"


class FiniteWeight(Weight):
    """An exact value per element of a finite group."""

    def __init__(self, group: FiniteGroup, values: Sequence):
        if len(values) != group.order:
            raise ValueError("need one value per group element")
        vals = tuple(Fraction(v) if not isinstance(v, float) else v for v in values)
        if any(v <= 0 for v in vals):
            raise NonPositiveWeight("finite weight values must be positive")
        self.group = group
        self.values = vals

    def value_at(self, x) -> float:
        return float(self.values[int(x)])

    def rational_at(self, x) -> Fraction | None:
        v = self.values[int(x)]
        return v if isinstance(v, Fraction) else None

    def bounds(self) -> tuple[float, float]:
        fv = [float(v) for v in self.values]
        return min(fv), max(fv)

    def translate(self, shift: int) -> "FiniteWeight":
        g = self.group
        return FiniteWeight(g, [self.values[g.mul(x, shift)] for x in g.elements()])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)


class PAdicTableWeight(Weight):
    """An exact-rational weight constant on cosets of p^level Z_p.

    ``declared_locally_constant`` distinguishes a weight that genuinely is
    the stored table from a table that merely truncates a non-locally-constant
    function; the locally-constant obstruction only fires for the former.
    """

    def __init__(
        self,
        context: PAdicContext,
        level: int,
        table: dict,
        declared_locally_constant: bool = True,
    ):
        if not -context.window <= level <= context.precision:
            raise ValueError(f"table level {level} outside the context resolution")
        self.group = context
        self.context = context
        self.level = level
        self.declared_locally_constant = declared_locally_constant
        size = context.prime ** (level + context.window)
        vals = {}
        for key, raw in table.items():
            vals[int(key) % size] = Fraction(raw)
        if sorted(vals) != list(range(size)):
            raise ValueError(f"table must cover all {size} cosets at level {level}")
        if any(v <= 0 for v in vals.values()):
            raise NonPositiveWeight("table values must be positive")
        self.table = vals
        self._size = size

    def key_of(self, x: PAdicNumber) -> int:
        if x.context != self.context:
            raise ContextMismatch(f"{x.context.name} vs {self.context.name}")
        return x.residue % self._size

    def rational_at(self, x) -> Fraction:
        return self.table[self.key_of(x)]

    def value_at(self, x) -> float:
        return float(self.rational_at(x))

    def bounds(self) -> tuple[float, float]:
        fv = [float(v) for v in self.table.values()]
        return min(fv), max(fv)

    def translate(self, shift: PAdicNumber) -> "PAdicTableWeight":
        moved = {
            r: self.table[(r + shift.residue) % self._size] for r in range(self._size)
        }
        return PAdicTableWeight(self.context, self.level, moved, self.declared_locally_constant)

    def constant_level(self) -> int:
        """Smallest k >= 0 with the table constant on every coset of p^k Z_p."""
        p, m = self.context.prime, self.context.window
        for k in range(0, max(self.level, 0) + 1):
            size = p ** (k + m)
            if all(
                self.table[r] == self.table[r % size]
                for r in range(self._size)
            ):
                return k
        return max(self.level, 0)

    @property
    def is_exact(self) -> bool:
        return True

    def __repr__(self):
        return f"PAdicTableWeight({self.context.name}, level={self.level})"


# ---------------------------------------------------------------------------
# discretized functions


@dataclass(frozen=True)
class CircleGrid:
    """The uniform grid i/M on the circle."""

    points: int

    def angles(self) -> np.ndarray:
        return np.arange(self.points) / self.points

    def __len__(self) -> int:
        return self.points


@dataclass(frozen=True)
class DiscretizedFunction:
    """Function values on a finite evaluation domain.

    Circle grids index by i (the point i/M); finite groups and p-adic
    contexts by ``domain.index`` of an element.  Values may be floats,
    complex numbers, or Fractions -- rational pipelines stay exact end to end.
    """

    domain: object
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.domain):
            raise ValueError("value count does not match the domain size")

    @staticmethod
    def constant(domain, c) -> "DiscretizedFunction":
        return DiscretizedFunction(domain, tuple([c] * len(domain)))

    @staticmethod
    def delta(domain, index: int) -> "DiscretizedFunction":
        n = len(domain)
        vals = [0] * n
        vals[index % n] = 1
        return DiscretizedFunction(domain, tuple(vals))

    @staticmethod
    def from_values(domain, values) -> "DiscretizedFunction":
        return DiscretizedFunction(domain, tuple(values))

    def sup_diff(self, other: "DiscretizedFunction"):
        if self.domain != other.domain:
            raise ContextMismatch("discretized functions on different domains")
        return max(abs(a - b) for a, b in zip(self.values, other.values))

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# weight products and the weighted translation operator


def weight_product(w: Weight, a, n: int, x):
    """The n-step product w(x) w(x a^-1) ... w(x a^-(n-1)).

    Returns an exact Fraction whenever every factor is exact, otherwise a
    float.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    group = w.group
    if isinstance(group, CircleGroup) and not isinstance(x, CircleElement):
        x = CIRCLE.element(x)
    factors = []
    exact = True
    y, back = x, group.inv(a)
    for _ in range(n):
        r = w.rational_at(y)
        if r is None:
            exact = False
            factors.append(w.value_at(y))
        else:
            factors.append(r)
        y = group.mul(y, back)
    if exact:
        acc = Fraction(1)
        for r in factors:
            acc *= r
        return acc
    acc = 1.0
    for r in factors:
        acc *= float(r)
    return acc


def step_products(w: Weight, a) -> Iterator[tuple[list[int], int]]:
    """Yield, for n = 1, 2, ..., the row of n-step products w_n over a whole
    exact table weight at once, as integers over a common denominator.

    For a ``PAdicTableWeight`` the row is indexed by the residues r mod
    p^(level+window) that the table resolves (w_n(x) is row[x.residue % size]
    / den); for a ``FiniteWeight`` it is indexed by group element.  With L the
    least common denominator of the table, row n holds the integers
    w_n(x) * L^n and den is L^n, so comparisons against 1 and between entries
    are integer comparisons and no Fraction is formed.  Each row is the
    table times the previous row read one step back,
    row_n[x] = w(x) * row_{n-1}[x a^-1], and only the current row is held.
    A float value of a finite weight enters as the exact rational it is.
    Circle step weights have their own rows, ``circle_step_rows``.
    """
    if isinstance(w, PAdicTableWeight):
        if a.context != w.context:
            raise ContextMismatch(f"{a.context.name} vs {w.context.name}")
        size = w._size
        values, scale = integer_table(w.table[r] for r in range(size))
        back = [(r - a.residue) % size for r in range(size)]
    elif isinstance(w, FiniteWeight):
        g = w.group
        values, scale = integer_table(w.values)
        a_inv = g.inv(a)
        back = [g.mul(x, a_inv) for x in g.elements()]
    else:
        raise TypeError(f"step_products needs a table or finite weight, got {w!r}")
    row, den = list(values), scale
    while True:
        yield row, den
        row = [v * row[b] for v, b in zip(values, back)]
        den *= scale


def integer_table(values: Iterable) -> tuple[list[int], int]:
    """Exact rational values as integers over their least common
    denominator L: the list of value * L, and L."""
    fracs = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def circle_step_rows(w: StepWeight, a: CircleElement,
                     horizon: int = 1) -> Iterator[tuple[Translates, list[int], int]]:
    """Yield, for n = 1, 2, ..., the n-step products of a circle step weight
    as ``(points, row, den)``: w_n(x) = prod_i alpha_i^(c_i(x)), where c_i(x)
    counts the product orbit x, x-a, ..., x-(n-1)a inside piece i, is
    row[j] / den at the translate points[j].

    As for table rows (``step_products``), with L the least common
    denominator of the piece values, row[j] is the integer w_n * L^n and den
    is L^n: the pieces partition the circle, so the counts of a translate sum
    to n.  A float value enters as the exact rational it is.  The count
    vectors are exact and every vector w_n takes is realized: the rows come
    in blocks (``equidist.sweep_blocks``), the first ending at row
    ``horizon``, each from one arrangement of the events of every term it
    reaches, with the pieces' boundaries prepared once for the walk
    (``equidist.Boundaries``).  The row keeps one entry per distinct count
    vector, at the first of row n's candidates that has it, in increasing
    translate order over [0, 1): the first entry reaching any value is at
    the first translate reaching it, an exact event position or cell
    midpoint of the n-point orbit.  One sort of integer keys finds the
    distinct vectors of every row of a block.  ``points`` is a lazy
    ``equidist.Translates`` view: a translate is computed, as a Fraction,
    only when it is read.
    """
    pieces = [E for E, _ in w.step.pieces]
    values, scale = integer_table(v for _, v in w.step.pieces)
    bounds = Boundaries.prepare(a.value.denominator, *pieces)
    den = 1
    for block in sweep_blocks(bounds, OrbitSequence(CIRCLE, a), horizon):
        for q, first in enumerate(block.distinct_firsts()):
            den *= scale
            counts = block.counts[block.offsets[q] + first].tolist()
            yield Translates(block.sweep(q), first), [math.prod(map(pow, values, c)) for c in counts], den


def _weight_at(w: Weight, x, approx=None):
    """w(x), exact when the family gives a rational; otherwise the float value
    read at ``approx`` (x itself when None)."""
    r = w.rational_at(x)
    return r if r is not None else w.value_at(x if approx is None else approx)


def _grid_shift(domain: CircleGrid, a: CircleElement, mode: str) -> int:
    """The index shift realizing rotation by ``a`` on the grid."""
    s = a.value * domain.points
    if s.denominator == 1:
        return int(s) % domain.points
    if mode == "nearest":
        return int(round(float(a.value) * domain.points)) % domain.points
    raise GridMismatch(
        f"rotation {a.value} does not map the {domain.points}-point grid to itself"
    )


def apply_operator(w: Weight, a, f: DiscretizedFunction, mode: str = "strict") -> DiscretizedFunction:
    """The weighted translation operator: (T f)(x) = w(x) f(x a^-1).

    ``mode`` governs circle grids when the rotation is not a multiple of the
    grid spacing: "strict" raises GridMismatch, "nearest" snaps.  On a grid,
    a weight value that is not rational is read at the float i/M, as the
    float paths read it: at the exact i/M a float step boundary could fall
    on the other side.
    """
    domain = f.domain
    if isinstance(domain, CircleGrid):
        shift, M = _grid_shift(domain, a, mode), len(domain)
        vals = (_weight_at(w, CircleElement(Fraction(i, M), True), float(Fraction(i, M)))
                * f.values[(i - shift) % M] for i in range(M))
    else:
        back = domain.inv(a)
        vals = (_weight_at(w, x) * f.values[domain.index(domain.mul(x, back))]
                for x in domain.elements())
    return DiscretizedFunction(domain, tuple(vals))
