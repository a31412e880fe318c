"""Weights, step functions, and discretized functions.

A weight is a strictly positive bounded function on a group context.  Four
families are supported:

* ``ExprWeight``   -- a continuous expression in x on the circle;
* ``StepWeight``   -- a positive step function on the circle (exact rational
                      values on algebra sets);
* ``FiniteWeight`` -- an exact-rational value per element of a finite group;
* ``PAdicTableWeight`` -- an exact-rational table indexed by cosets of
                      p^level Z_p; all comparisons against 1 are exact.

The three exact families factor their values once, at construction, over a
pairwise-coprime base (``ExponentForm``); every exact product, log-sum and
comparison reads that form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .borel import BallSet, FiniteSubset, IntervalSet
from .equidist import BLOCK_ENTRIES, Boundaries, Translates, _frac, sweep_blocks
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
    "ExponentForm",
    "ProductRows",
    "ProductRow",
    "weight_product",
    "step_products",
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
# exact values factored over a coprime base

# the most exponents an exact weight's entries may hold, entries x base size:
# a row of its n-step products is one int64 exponent vector per entry
MAX_EXPONENT_ENTRIES = 2 ** 22
# a bound on the relative error of math.log and of each rounding in a dot
# product: math.log is within an ulp, and 2^-50 is four
_LOG_ERROR = 2.0 ** -50
# past these logs a positive rational rounds to inf, or to 0.0, in binary64
_LN_OVERFLOW, _LN_UNDERFLOW = 710.0, -746.0


def _coprime_base(numbers) -> tuple[int, ...]:
    """Pairwise coprime integers > 1 over which each of the positive
    ``numbers`` factors, by gcd refinement: a number that shares a factor g
    with a base element b is replaced, with b, by g, b/g and itself over g.
    A number coprime to the whole base (one gcd with its product) joins it
    at once, so distinct primes cost one gcd each."""
    base, product = [], 1
    todo = sorted({n for n in numbers if n > 1}, reverse=True)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        if math.gcd(x, product) == 1:
            base.append(x)
            product *= x
            continue
        i, g = next((i, g) for i, b in enumerate(base) if (g := math.gcd(x, b)) > 1)
        b = base.pop(i)
        product //= b
        todo += [g, b // g, x // g]
    return tuple(sorted(base))


def _multiplicity(n: int, b: int) -> tuple[int, int]:
    """(e, n / b^e) for the largest power b^e dividing n, in O(log e)
    divisions: the multiplicity of b^2 in n / b gives all but the last
    factor."""
    if n % b:
        return 0, n
    e, n = _multiplicity(n // b, b * b)
    if n % b:
        return 2 * e + 1, n
    return 2 * e + 2, n // b


class ExponentForm:
    """The values v_0, v_1, ... of an exact weight (one per table residue,
    group element or step piece) as exponent vectors over a pairwise-coprime
    base b_1..b_m: v_i = prod_j b_j^E[i, j].  The base refines the values'
    numerators and denominators (Bernstein, "Factoring into coprimes in
    essentially linear time", J. Algorithms 2005), so the vectors are
    unique: two products are equal exactly when their vectors are, and a
    product is 1 exactly when its vector is 0.  Products of values are sums
    of vectors, ``exponents`` (int64, one row per entry), and logs are dot
    products with ``logs`` = ln b_j.

    ``masses`` are the entries' Haar masses (equal ones when None); ``exact``
    says whether every value was given as a rational (a float value enters
    the vectors as the exact rational it is, but not the log-sum).  Values
    are factored once per distinct value; ``take`` restricts a form to some
    entries without factoring again.
    """

    def __init__(self, values, masses=None, exact: bool = True, *, _of=None, _index=None):
        self.values = tuple(values)
        self.masses = masses
        self.exact = exact
        if _of is None:
            keys: dict = {}
            index = []
            for v in self.values:
                f = v if isinstance(v, (int, Fraction)) else Fraction(v)
                if f.numerator <= 0:
                    raise NonPositiveWeight(f"weight value {v} is not positive")
                index.append(keys.setdefault((f.numerator, f.denominator), len(keys)))
            self._factor(list(keys), len(index))
            self.index = np.array(index, dtype=np.intp)
        else:
            self.base, self.logs, self.distinct, self.bits, self.tol = _of
            self.index = _index
        self.exponents = self.distinct[self.index]

    def _factor(self, pairs: list[tuple[int, int]], entries: int) -> None:
        self.base = _coprime_base([n for pair in pairs for n in pair])
        m = len(self.base)
        if entries * m > MAX_EXPONENT_ENTRIES:
            raise ValueError(f"the values factor over {m} coprime integers; {entries} entries x {m} "
                             f"exponents exceed the limit 2^{MAX_EXPONENT_ENTRIES.bit_length() - 1}")
        self.distinct = np.zeros((len(pairs), m), dtype=np.int64)
        for row, (num, den) in zip(self.distinct, pairs):
            for j, b in enumerate(self.base):
                (up, num), (down, den) = _multiplicity(num, b), _multiplicity(den, b)
                row[j] = up - down
        self.bits = [max(num.bit_length(), den.bit_length()) for num, den in pairs]
        self.logs = np.array([math.log(b) for b in self.base])
        # the error bound of one entry's log, per factor of a product: an
        # n-fold product's log is off by at most n * tol (Higham's dot
        # product bound with the error of the logs)
        weight = float((np.abs(self.distinct) @ np.abs(self.logs)).max()) if m else 0.0
        self.tol = (m + 8) * _LOG_ERROR * weight

    def take(self, entries) -> "ExponentForm":
        """The form of the given entries only, on the same base."""
        entries = list(entries)
        return ExponentForm([self.values[i] for i in entries], None, self.exact,
                            _of=(self.base, self.logs, self.distinct, self.bits, self.tol),
                            _index=self.index[entries])

    def integers(self, e) -> tuple[int, int]:
        """The coprime numerator and denominator of prod_j b_j^e[j]."""
        num = den = 1
        for b, k in zip(self.base, e.tolist() if isinstance(e, np.ndarray) else e):
            if k > 0:
                num *= b ** k
            elif k < 0:
                den *= b ** -k
        return num, den

    def value(self, e) -> Fraction:
        return Fraction(*self.integers(e))

    def exact_sign(self, e) -> int:
        """The sign of ln prod_j b_j^e[j], from the integers."""
        num, den = self.integers(e)
        return (num > den) - (num < den)

    @functools.cached_property
    def log_masses(self) -> tuple[int, list[int]]:
        """The masses m_i over their common denominator D, summed per
        distinct value: (D, [sum of m_i D over the entries of value k])."""
        if self.masses is None:
            return len(self.index), np.bincount(self.index, minlength=len(self.distinct)).tolist()
        D = math.lcm(*(m.denominator for m in self.masses))
        counts = [0] * len(self.distinct)
        for k, m in zip(self.index.tolist(), self.masses):
            counts[k] += m.numerator * (D // m.denominator)
        return D, counts

    def log_sum(self) -> tuple[int, list[int]]:
        """(D, s) with sum_i m_i ln v_i = sum_j s_j ln b_j / D exactly; s is
        0 exactly when the Haar log-integral is."""
        D, counts = self.log_masses
        return D, [sum(c * e for c, e in zip(counts, column)) for column in self.distinct.T.tolist()]

    def log_sum_bits(self) -> int:
        """sum_i m_i D max(bits(numerator v_i), bits(denominator v_i)): the
        size of the powers the reported log-sum forms, at most."""
        D, counts = self.log_masses
        return sum(c * b for c, b in zip(counts, self.bits))

    def pieces(self) -> list[tuple[Fraction, object]]:
        """The (Haar mass, value) pairs of the entries."""
        masses = self.masses or [Fraction(1, len(self.index))] * len(self.index)
        return list(zip(masses, self.values))


class ProductRows:
    """Rows n0+1, ..., n0+B of the n-step products of an exact weight: one
    exponent vector per entry over the weight's ``ExponentForm`` base
    (``exponents``, int64, entries x m, row b's entries at
    ``bounds[b]:bounds[b + 1]``), and each entry's log from it in binary64
    (``logs``), off by at most ``tol``.

    A comparison against 1 or between entries takes the sign of the float
    log when it clears the bound, and builds the integers only when it does
    not (Shewchuk, "Adaptive precision floating-point arithmetic", DCG 1997);
    equal vectors are equal products, so a tie needs no integers.  Signs and
    extremes are found for every row at once; ``rows[b]`` is row b's
    ``ProductRow``.
    """

    def __init__(self, form: ExponentForm, exponents: np.ndarray, n0: int, bounds: np.ndarray):
        self.form = form
        self.exponents = exponents
        self.n0 = n0
        self.bounds = bounds
        self.starts = bounds.tolist()
        self.row_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        self.logs = exponents @ form.logs
        self.tol = (n0 + 1 + self.row_of) * form.tol

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, b: int) -> "ProductRow":
        return ProductRow(self, b)

    def __iter__(self) -> Iterator["ProductRow"]:
        return map(self.__getitem__, range(len(self)))

    @functools.cached_property
    def signs(self) -> np.ndarray:
        """-1, 0 or 1 (int8) as each entry is below, at or above 1."""
        out = (self.logs > self.tol).view(np.int8) - (self.logs < -self.tol).view(np.int8)
        unsure = np.flatnonzero(out == 0)
        for i in unsure[self.exponents[unsure].any(axis=1)].tolist():
            out[i] = self.form.exact_sign(self.exponents[i])
        return out

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """``signs`` + 1 as bytes: 0, 1 or 2 as an entry is below, at or
        above 1."""
        return (self.signs + 1).astype(np.uint8)

    def _first_extremes(self, highest: bool) -> np.ndarray:
        """Per row, the first entry at the row's maximum (``highest``) or
        minimum, as an index into ``exponents``."""
        s = -self.logs if highest else self.logs
        starts = self.bounds[:-1]
        near = np.flatnonzero(s <= (np.minimum.reduceat(s, starts) + 2 * self.tol[starts])[self.row_of])
        # the row's least log is near, so each row's first near entry is
        first = near[np.searchsorted(near, starts)]
        tied = (self.exponents[near] == self.exponents[first[self.row_of[near]]]).all(axis=1)
        # rows whose near entries the filter cannot order: compare exact values
        for b in np.unique(self.row_of[near[~tied]]).tolist():
            values = {}
            for i in near[self.row_of[near] == b].tolist():
                e = tuple(self.exponents[i].tolist())
                if e not in values:
                    values[e] = (self.form.value(e), i)
            first[b] = (max if highest else min)(values.values(), key=lambda vi: vi[0])[1]
        return first

    @functools.cached_property
    def lowest(self) -> list[int]:
        return self._first_extremes(highest=False).tolist()

    @functools.cached_property
    def highest(self) -> list[int]:
        return self._first_extremes(highest=True).tolist()


class ProductRow:
    """Row n of ``ProductRows``: the n-step products w_n at the entries,
    their ``exponents`` (entries x m)."""

    def __init__(self, rows: ProductRows, b: int):
        self.rows = rows
        self.b = b
        self.n = rows.n0 + 1 + b
        self.start, self.stop = rows.starts[b], rows.starts[b + 1]
        self.exponents = rows.exponents[self.start:self.stop]

    @staticmethod
    def of(form: ExponentForm, exponents: np.ndarray, n: int) -> "ProductRow":
        """The row n whose exponent vectors are ``exponents``."""
        return ProductRows(form, exponents, n - 1, np.array([0, len(exponents)]))[0]

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def signs(self) -> np.ndarray:
        """-1, 0 or 1 (int8) as each entry is below, at or above 1."""
        return self.rows.signs[self.start:self.stop]

    @functools.cached_property
    def codes(self) -> bytes:
        """One byte per entry: 0, 1 or 2 as it is below, at or above 1."""
        return self.rows.codes[self.start:self.stop].tobytes()

    def sign(self, i: int) -> int:
        return int(self.rows.signs[self.start + i])

    def first_extreme(self, highest: bool) -> int:
        """The first entry at the row's maximum (``highest``) or minimum."""
        return (self.rows.highest if highest else self.rows.lowest)[self.b] - self.start

    def to_float(self, i: int) -> float:
        """Entry i rounded to binary64 (inf past its range)."""
        s, tol = float(self.rows.logs[self.start + i]), self.n * self.rows.form.tol
        if s - tol > _LN_OVERFLOW:
            return math.inf
        if s + tol < _LN_UNDERFLOW:
            return 0.0
        num, den = self.rows.form.integers(self.exponents[i])
        try:
            return num / den
        except OverflowError:
            return math.inf

    def value(self, i: int) -> Fraction:
        """Entry i as an exact Fraction."""
        return self.rows.form.value(self.exponents[i])


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Shared surface of the weight families.  ``form`` is the
    ``ExponentForm`` of a step, finite or table weight's values, None for an
    expression weight; ``form.exact`` says whether every value is rational,
    so that products and the log-integral are exact."""

    group: object
    form: ExponentForm | None = None

    def value_at(self, x) -> float:
        raise NotImplementedError

    def rational_at(self, x) -> Fraction | None:
        """Exact value when the family supports it, else None."""
        return None

    def translate(self, shift) -> "Weight":
        """The weight x -> w(x + shift) (x * shift multiplicatively)."""
        raise NotImplementedError


class ExprWeight(Weight):
    """exp/ln/trig expression weight on the circle, strictly positive.

    Positivity is certified at construction: the least value on the
    ``grid_points`` cell midpoints must exceed a Lipschitz margin from the
    symbolic derivative.
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
        margin = self.lipschitz_bound() / (2 * grid_points)
        if float(vals.min()) - margin <= 0:
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
        values = [v for _, v in step.pieces]
        self.form = ExponentForm(values, [E.measure() for E, _ in step.pieces],
                                 all(isinstance(v, (Fraction, int)) for v in values))

    def value_at(self, x) -> float:
        return float(self.step.value_at(getattr(x, "value", x)))

    def rational_at(self, x) -> Fraction | None:
        v = self.step.value_at(getattr(x, "value", x))
        return v if isinstance(v, (Fraction, int)) else None

    def translate(self, shift) -> "StepWeight":
        delta = getattr(shift, "value", None)
        if delta is None:
            delta = Fraction(float(shift))
        moved = tuple((E.translated(-delta), v) for E, v in self.step.pieces)
        return StepWeight(StepFunction(moved))

    def __repr__(self):
        return f"StepWeight({len(self.step)} pieces)"


class FiniteWeight(Weight):
    """An exact value per element of a finite group."""

    def __init__(self, group: FiniteGroup, values: Sequence):
        if len(values) != group.order:
            raise ValueError("need one value per group element")
        vals = tuple(v if isinstance(v, (Fraction, float)) else Fraction(v) for v in values)
        if any(v <= 0 for v in vals):
            raise NonPositiveWeight("finite weight values must be positive")
        self.group = group
        self.values = vals
        self.form = ExponentForm(vals, None, all(isinstance(v, Fraction) for v in vals))

    def value_at(self, x) -> float:
        return float(self.values[int(x)])

    def rational_at(self, x) -> Fraction | None:
        v = self.values[int(x)]
        return v if isinstance(v, Fraction) else None

    def translate(self, shift: int) -> "FiniteWeight":
        g = self.group
        return FiniteWeight(g, [self.values[g.mul(x, shift)] for x in g.elements()])


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
            vals[int(key) % size] = raw if isinstance(raw, Fraction) else Fraction(raw)
        if sorted(vals) != list(range(size)):
            raise ValueError(f"table must cover all {size} cosets at level {level}")
        if any(v.numerator <= 0 for v in vals.values()):
            raise NonPositiveWeight("table values must be positive")
        self.table = vals
        self._size = size
        self.form = ExponentForm([vals[r] for r in range(size)])

    def restricted(self, context: PAdicContext, level: int, keys: list[int]) -> "PAdicTableWeight":
        """The table weight on ``context`` at ``level`` whose residue s holds
        this table's value at ``keys[s]``, with the same declaration, on this
        weight's base: nothing is factored again."""
        sub = object.__new__(PAdicTableWeight)
        sub.group = sub.context = context
        sub.level = level
        sub.declared_locally_constant = self.declared_locally_constant
        sub.table = {s: self.table[r] for s, r in enumerate(keys)}
        sub._size = len(keys)
        sub.form = self.form.take(keys)
        return sub

    def key_of(self, x: PAdicNumber) -> int:
        if x.context != self.context:
            raise ContextMismatch(f"{x.context.name} vs {self.context.name}")
        return x.residue % self._size

    def rational_at(self, x) -> Fraction:
        return self.table[self.key_of(x)]

    def value_at(self, x) -> float:
        return float(self.rational_at(x))

    def translate(self, shift: PAdicNumber) -> "PAdicTableWeight":
        moved = {
            r: self.table[(r + shift.residue) % self._size] for r in range(self._size)
        }
        return PAdicTableWeight(self.context, self.level, moved, self.declared_locally_constant)

    def constant_level(self) -> int:
        """Smallest k >= 0 with the table constant on every coset of p^k Z_p."""
        p, m = self.context.prime, self.context.window
        index = self.form.index  # equal values have equal indices
        for k in range(0, max(self.level, 0) + 1):
            size = p ** (k + m)
            if size >= self._size or (index.reshape(-1, size) == index[:size]).all():
                return k
        return max(self.level, 0)

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


def step_products(w: Weight, a, horizon: int = 1) -> Iterator[ProductRow]:
    """Yield, for n = 1, 2, ..., the ``ProductRow`` of n-step products w_n
    over a whole exact table weight at once.

    For a ``PAdicTableWeight`` the row is indexed by the residues r mod
    p^(level+window) that the table resolves (w_n(x) is entry
    x.residue % size); for a ``FiniteWeight`` it is indexed by group element.
    Row n holds the weight's exponent vectors summed along the orbit,
    row_n[x] = E[x] + row_{n-1}[x a^-1], so entries grow by n max|e| and no
    integer is formed.  The rows come in ``ProductRows`` blocks, the first
    ending at row ``horizon`` and each later one as long as the walk so far,
    at most ``BLOCK_ENTRIES`` exponents each: a block is cumulative sums of
    E read along the orbit.  A float value of a finite weight enters as the
    exact rational it is.  Circle step weights have their own rows,
    ``circle_step_rows``.
    """
    if isinstance(w, PAdicTableWeight):
        if a.context != w.context:
            raise ContextMismatch(f"{a.context.name} vs {w.context.name}")

        def orbit(B):  # x - t a for t = 0..B
            return (np.arange(w._size) - np.arange(B + 1)[:, None] * a.residue) % w._size
    elif isinstance(w, FiniteWeight):
        g = w.group
        a_inv = g.inv(a)
        back = np.array([g.mul(x, a_inv) for x in g.elements()], dtype=np.intp)

        def orbit(B):  # x a^-t for t = 0..B
            out = [np.arange(len(back))]
            for _ in range(B):
                out.append(back[out[-1]])
            return np.array(out)
    else:
        raise TypeError(f"step_products needs a table or finite weight, got {w!r}")
    E = w.form.exponents
    cap = max(1, BLOCK_ENTRIES // max(1, E.size))
    last, n0, B = np.zeros_like(E), 0, horizon
    while True:
        B = max(1, min(B, cap))
        idx = orbit(B)
        block = np.cumsum(E[idx[:-1]], axis=0)
        block += last[idx[1:]]
        yield from ProductRows(w.form, block.reshape(B * len(E), E.shape[1]), n0, np.arange(B + 1) * len(E))
        last, n0, B = block[-1], n0 + B, n0 + B


def circle_step_rows(w: StepWeight, a: CircleElement,
                     horizon: int = 1) -> Iterator[tuple[Translates, ProductRow]]:
    """Yield, for n = 1, 2, ..., the n-step products of a circle step weight
    as ``(points, row)``: w_n(x) = prod_i alpha_i^(c_i(x)), where c_i(x)
    counts the product orbit x, x-a, ..., x-(n-1)a inside piece i, is entry
    j of the ``ProductRow`` ``row`` at the translate points[j].

    The row's exponent vectors are ``counts @ E``, the count vectors times
    the pieces' exponent vectors (``ExponentForm``); a float value enters as
    the exact rational it is.  The count vectors are exact and every vector
    w_n takes is realized: the rows come in blocks
    (``equidist.sweep_blocks``), the first ending at row ``horizon``, each
    from one arrangement of the events of every term it reaches, with the
    pieces' boundaries prepared once for the walk (``equidist.Boundaries``).
    The row keeps one entry per distinct count vector, at the first of row
    n's candidates that has it, in increasing translate order over [0, 1):
    the first entry reaching any value is at the first translate reaching
    it, an exact event position or cell midpoint of the n-point orbit.  One
    sort of integer keys finds the distinct vectors of every row of a block.
    ``points`` is a lazy ``equidist.Translates`` view: a translate is
    computed, as a Fraction, only when it is read.
    """
    pieces = [E for E, _ in w.step.pieces]
    bounds = Boundaries.prepare(a.value.denominator, *pieces)
    n0 = 0
    for block in sweep_blocks(bounds, OrbitSequence(CIRCLE, a), horizon):
        firsts = block.distinct_firsts()
        # every row's first candidates, row after row
        counts = block.counts[np.concatenate([start + first for start, first in zip(block.offsets, firsts)])]
        rows = ProductRows(w.form, counts @ w.form.exponents, n0,
                           np.cumsum([0] + [len(first) for first in firsts]))
        for q, first in enumerate(firsts):
            yield Translates(block.sweep(q), first), rows[q]
        n0 += len(firsts)


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
