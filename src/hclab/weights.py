"""Weights and step functions.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .borel import IntervalSet
from .equidist import BLOCK_ENTRIES, Boundaries, Translates, _frac, sweep_blocks
from .errors import ContextMismatch, NonPositiveWeight
from .exprs import Expr
from .groups import CIRCLE, CircleElement, FiniteGroup, OrbitSequence, PAdicContext, PAdicNumber

__all__ = [
    "StepFunction",
    "Weight",
    "ExprWeight",
    "StepWeight",
    "FiniteWeight",
    "PAdicTableWeight",
    "ExponentForm",
    "ProductRows",
    "weight_product",
    "step_products",
    "circle_step_rows",
]


# ---------------------------------------------------------------------------
# step functions


def _circle_cover(sets: Sequence[IntervalSet]) -> tuple[int, int]:
    """The least and greatest number of the circle sets that hold a point,
    by one sort of their arc ends and points: along [0, 1], an arc covers
    the cells after its start up to its end, and a point only itself.  A
    canonical set splits its arcs at 0, so no arc covers 0."""
    # position -> [arcs ending there, arcs starting there, points there]
    marks = {Fraction(0): [0, 0, 0], Fraction(1): [0, 0, 0]}
    for K in sets:
        for lo, hi in K.open_part:
            marks.setdefault(lo, [0, 0, 0])[1] += 1
            marks.setdefault(hi, [0, 0, 0])[0] += 1
        for pt in K.point_part:
            marks.setdefault(pt, [0, 0, 0])[2] += 1
    counts, cover = [], 0
    for position in sorted(marks)[:-1]:
        ends, starts, points = marks[position]
        cover -= ends
        counts += [cover + points, cover + starts]
        cover += starts
    return min(counts), max(counts)


@dataclass(frozen=True)
class StepFunction:
    """A finite combination sum_i value_i * indicator(E_i) with the E_i
    disjoint circle sets (``IntervalSet``) covering the circle.  Values may
    be any reals (weights impose positivity separately); rational values
    keep evaluation and integrals exact."""

    pieces: tuple[tuple[IntervalSet, object], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a step function needs at least one piece")
        sets = [E for E, _ in self.pieces]
        if not all(isinstance(E, IntervalSet) for E in sets):
            raise TypeError("step function pieces must be circle sets")
        least, most = _circle_cover(sets)
        if most > 1:
            raise ValueError("step function pieces overlap")
        if least < 1:
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
# below this float log (a dot product of up to 2^22 logs) an integer is below 2^53
_LN_EXACT_DOUBLE = 53 * math.log(2) - 2.0 ** -20


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

    ``masses`` are the entries' Haar masses (equal ones when None).  Values
    are factored once per distinct value; ``take`` restricts a form to some
    entries without factoring again.
    """

    def __init__(self, values, masses=None, *, _of=None, _index=None):
        self.values = tuple(values)
        self.masses = masses
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
            self.base, self.logs, self.distinct, self.tol = _of
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
        self.logs = np.array([math.log(b) for b in self.base])
        # the error bound of one entry's log, per factor of a product: an
        # n-fold product's log is off by at most n * tol (Higham's dot
        # product bound with the error of the logs)
        weight = float((np.abs(self.distinct) @ np.abs(self.logs)).max()) if m else 0.0
        self.tol = (m + 8) * _LOG_ERROR * weight

    def take(self, entries) -> "ExponentForm":
        """The form of the given entries only, on the same base."""
        entries = list(entries)
        return ExponentForm([self.values[i] for i in entries], None,
                            _of=(self.base, self.logs, self.distinct, self.tol),
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
        0 exactly when the Haar log-integral is.  Only the values with a
        nonzero count are summed: a form made by ``take`` shares its
        parent's distinct values, some of them absent from it."""
        D, counts = self.log_masses
        used = [c for c in counts if c]
        return D, [sum(map(operator.mul, used, compress(column, counts)))
                   for column in self.distinct.T.tolist()]

    def log_value(self, D: int, s) -> float:
        """sum_j (s_j / D) ln b_j, the ``math.fsum`` of each nonzero term in
        binary64: s_j / D is a correctly rounded ratio of integers, so no
        power is formed whatever the size of D, and the sum is off by at
        most about 5 * 2^-53 * sum_j |s_j / D| ln b_j (a rounding each of the
        ratio, the log, the product and the sum)."""
        return math.fsum(k / D * log for k, log in zip(s, self.logs.tolist()) if k)


class ProductRows:
    """Rows n0+1, ..., n0+B of the n-step products of an exact weight: one
    exponent vector per entry over the weight's ``ExponentForm`` base
    (``exponents``, int64, entries x m, row b's entries at
    ``bounds[b]:bounds[b + 1]``), and each entry's log from it in binary64
    (``logs``), off by at most ``tol``.

    A comparison against 1 or between entries takes the sign of the float
    log when it clears the bound, and builds the integers only when it does
    not (Shewchuk, "Adaptive precision floating-point arithmetic", DCG 1997);
    equal vectors are equal products, so a tie needs no integers.  Signs,
    each row's extremes and their binary64 values are found for every row
    of the block at once (``signs``, ``codes``, ``extremes``); a reader of
    row b reads its slice ``starts[b]:starts[b + 1]`` of them.
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

    @functools.cached_property
    def signs(self) -> np.ndarray:
        """-1, 0 or 1 (int8) as each entry is below, at or above 1."""
        out = (self.logs > self.tol).view(np.int8) - (self.logs < -self.tol).view(np.int8)
        unsure = np.flatnonzero(out == 0)
        for i in unsure[self.exponents[unsure].any(axis=1)].tolist():
            out[i] = self.form.exact_sign(self.exponents[i])
        return out

    @functools.cached_property
    def codes(self) -> bytes:
        """One byte per entry, ``signs`` + 1: 0, 1 or 2 as it is below, at or
        above 1."""
        return (self.signs + 1).astype(np.uint8).tobytes()

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
        for b in set(self.row_of[near[~tied]].tolist()):
            values = {}
            for i in near[self.row_of[near] == b].tolist():
                e = tuple(self.exponents[i].tolist())
                if e not in values:
                    values[e] = (self.form.value(e), i)
            first[b] = (max if highest else min)(values.values(), key=lambda vi: vi[0])[1]
        return first

    @functools.cached_property
    def extremes(self) -> list[tuple[int, int, int, int, float, float]]:
        """Per row, ``(lo, hi, lo sign, hi sign, lo value, hi value)``: the
        first entries at its minimum and maximum (indices in the row), their
        signs against 1 and ``floats``, for every row of the block at once."""
        lo, hi = self._first_extremes(highest=False), self._first_extremes(highest=True)
        both = np.concatenate([lo, hi])
        signs, values = self.signs[both].tolist(), self.floats(both).tolist()
        B, starts = len(self), self.bounds[:-1]
        return list(zip((lo - starts).tolist(), (hi - starts).tolist(),
                        signs[:B], signs[B:], values[:B], values[B:]))

    def floats(self, entries: np.ndarray) -> np.ndarray:
        """The entries rounded to binary64.  A numerator and denominator
        below 2^53 are exact doubles, int64 products of powers, so one IEEE
        division rounds once, as Python's integer division does; otherwise
        the float log decides inf and 0.0, and the integers the rest."""
        E = self.exponents[entries]
        parts = np.maximum(np.stack([E, -E]), 0)  # numerators' and denominators' exponents
        fits = (parts @ self.form.logs < _LN_EXACT_DOUBLE).all(axis=0)
        # a base integer past 2^53 has exponent 0 in a product below 2^53
        powers = np.array([b if b < 2 ** 53 else 1 for b in self.form.base], dtype=np.int64)
        num, den = (powers ** parts[:, fits]).prod(axis=2)
        out = np.empty(len(E))
        out[fits] = num / den
        rest = np.flatnonzero(~fits)
        for j, s, tol, e in zip(rest.tolist(), self.logs[entries[rest]].tolist(),
                                self.tol[entries[rest]].tolist(), E[rest].tolist()):
            if s - tol > _LN_OVERFLOW or s + tol < _LN_UNDERFLOW:
                out[j] = math.inf if s > 0 else 0.0
                continue
            num, den = self.form.integers(e)
            try:
                out[j] = num / den
            except OverflowError:
                out[j] = math.inf
        return out


# ---------------------------------------------------------------------------
# the exact weights' n-step product rows


def _entries(b: int, entries):
    """``points(b, entries)`` of a table block: an entry is its own point."""
    return entries


def step_products(w: Weight, a, horizon: int = 1) -> Iterator[tuple[Callable, ProductRows]]:
    """Yield the n-step products w_n of a finite or p-adic table weight,
    n = 1, 2, ..., over the whole table at once, as one ``(points, rows)``
    per block of rows: ``FiniteWeight.product_rows`` and
    ``PAdicTableWeight.product_rows``.  A row is indexed as the table is (by
    group element, or by the residues r mod p^(level+window) that a p-adic
    table resolves), and an entry is its own point.

    Row n holds the weight's exponent vectors summed along the orbit,
    row_n[x] = E[x] + row_{n-1}[x a^-1], with x a^-t, t = 0..B, read from the
    weight's ``orbit_index(a, B)``; so entries grow by n max|e| and no
    integer is formed.  The first block ends at row ``horizon`` and each
    later one is as long as the walk so far, at most ``BLOCK_ENTRIES``
    exponents each: a block is cumulative sums of E read along the orbit.
    """
    E = w.form.exponents
    cap = max(1, BLOCK_ENTRIES // max(1, E.size))
    last, n0, B = np.zeros_like(E), 0, horizon
    while True:
        B = max(1, min(B, cap))
        idx = w.orbit_index(a, B)
        block = np.cumsum(E[idx[:-1]], axis=0)
        block += last[idx[1:]]
        yield _entries, ProductRows(w.form, block.reshape(B * len(E), E.shape[1]), n0, np.arange(B + 1) * len(E))
        last, n0, B = block[-1], n0 + B, n0 + B


def circle_step_rows(w: StepWeight, a: CircleElement,
                     horizon: int = 1) -> Iterator[tuple[Callable, ProductRows]]:
    """Yield the n-step products of a circle step weight, n = 1, 2, ..., as
    one ``(points, rows)`` per block of rows: ``StepWeight.product_rows``.
    Row b of the ``ProductRows`` ``rows`` holds w_n(x) = prod_i
    alpha_i^(c_i(x)) for n = rows.n0 + 1 + b, where c_i(x) counts the
    product orbit x, x-a, ..., x-(n-1)a inside piece i, at some translates
    x: ``points(b, entries)`` is the lazy ``equidist.Translates`` whose item
    k is the translate of the row's entry entries[k].

    The blocks come from ``equidist.sweep_blocks``, the first ending at row
    ``horizon``, each from one arrangement of the events of every term it
    reaches, with the pieces' boundaries prepared once for the walk
    (``equidist.Boundaries``).  A row keeps one entry per distinct count
    vector, at the first of row n's candidates that has it, in increasing
    translate order over [0, 1): the first entry reaching any value is at
    the first translate reaching it, an exact event position or cell
    midpoint of the n-point orbit.  One sort finds them for a whole block
    (``SweepBlock.distinct_firsts``), whose rows are ``counts @ E`` for the
    pieces' exponent vectors E (``ExponentForm``).  A ``Translates`` holds no
    block: no row's ``Sweep`` and no translate is computed before one is
    read.
    """
    pieces = [E for E, _ in w.step.pieces]
    bounds = Boundaries.prepare(a.value.denominator, *pieces)
    seq, n0 = OrbitSequence(CIRCLE, a), 0
    for block in sweep_blocks(bounds, seq, horizon):
        firsts, ends = block.distinct_firsts()
        rows = ProductRows(w.form, block.counts[firsts] @ w.form.exponents, n0, ends)
        # every entry's first candidate, as a candidate of its row's own sweep
        local = firsts - block.offsets[rows.row_of]
        yield _translates_of(bounds, seq, rows, local), rows
        n0 += len(rows)


def _translates_of(bounds: Boundaries, seq: OrbitSequence, rows: ProductRows, local: np.ndarray) -> Callable:
    """``points(b, entries)`` of a ``circle_step_rows`` block."""
    def points(b: int, entries) -> Translates:
        return Translates(bounds, seq, rows.n0 + 1 + b, [int(local[rows.starts[b] + i]) for i in entries])
    return points


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Shared surface of the weight families.  ``value_at`` is the weight's
    own number at a point: the exact ``Fraction`` of a step, finite or table
    weight, a float for an expression weight.  ``form`` is the
    ``ExponentForm`` of an exact weight's values, so that products and the
    log-integral are exact, and such a weight yields its own n-step product
    rows: ``product_rows(a, horizon)`` gives n = 1, 2, ... as one ``(points,
    ProductRows)`` per block, ``points(b, entries)`` the points of row b's
    entries.  An expression weight has no rows, and its ``form`` is None."""

    group: object
    form: ExponentForm | None = None

    def value_at(self, x):
        raise NotImplementedError


# the cell midpoints on which an expression weight's positivity and its
# Lipschitz bound are checked
EXPR_GRID_POINTS = 4096


class ExprWeight(Weight):
    """exp/ln/trig expression weight on the circle, strictly positive.

    Positivity is certified at construction: the least value on the
    ``grid_points`` cell midpoints must exceed a Lipschitz margin from the
    symbolic derivative.
    """

    def __init__(self, expr: Expr | str, grid_points: int = EXPR_GRID_POINTS, _offset: Fraction = Fraction(0)):
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

    def _angles(self, t, out=None) -> np.ndarray:
        """The expression's own angles for the weight's angles t: t plus the
        offset, reduced mod 1 in one array, ``out`` when given (it may be t
        itself)."""
        t = np.asarray(t, dtype=float)
        x = np.add(t, float(self._offset), out=np.empty(t.shape) if out is None else out)
        return _frac(x, out=x)

    def eval_angles(self, t, out=None):
        """w at the angles t.  The expression is evaluated over the array of
        ``_angles`` (``Expr.__call__``'s ``_owned``), so the value is that
        array when the expression reads x once."""
        return self.expr(self._angles(t, out), _owned=True)

    def slope_angles(self, t) -> np.ndarray:
        """w' at the angles t, read at the same angles as ``eval_angles``."""
        return np.asarray(self.expr.derivative(self._angles(t)), dtype=float)

    def value_at(self, x) -> float:
        t = float(getattr(x, "value", x))
        return float(self.eval_angles(t))

    def lipschitz_bound(self) -> float:
        """Grid estimate of sup |w'| on the ``EXPR_GRID_POINTS`` cell
        midpoints, padded by a factor 2."""
        xs = (np.arange(EXPR_GRID_POINTS) + 0.5) / EXPR_GRID_POINTS
        return 2.0 * float(np.max(np.abs(self.slope_angles(xs))))

    def translate(self, shift) -> "ExprWeight":
        delta = getattr(shift, "value", None)
        delta = Fraction(delta) if delta is not None else Fraction(float(shift))
        return ExprWeight(self.expr, self.grid_points, (self._offset + delta) % 1)

    def __repr__(self):
        off = f", offset={self._offset}" if self._offset else ""
        return f"ExprWeight({self.expr.source!r}{off})"


class StepWeight(Weight):
    """A strictly positive circle step function used as a weight; a value
    given as a float or an integer is held as the exact rational it is."""

    def __init__(self, step: StepFunction):
        self.group = CIRCLE
        for _, v in step.pieces:
            if v <= 0:
                raise NonPositiveWeight(f"step value {v} is not positive")
        if not all(isinstance(v, Fraction) for _, v in step.pieces):
            step = step.map_values(Fraction)
        self.step = step
        self.form = ExponentForm([v for _, v in step.pieces], [E.measure() for E, _ in step.pieces])

    def value_at(self, x) -> Fraction:
        return self.step.value_at(getattr(x, "value", x))

    product_rows = circle_step_rows

    def __repr__(self):
        return f"StepWeight({len(self.step)} pieces)"


class FiniteWeight(Weight):
    """An exact value per element of a finite group; a value given as a
    float is held as the exact rational it is."""

    def __init__(self, group: FiniteGroup, values: Sequence):
        if len(values) != group.order:
            raise ValueError("need one value per group element")
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if any(v <= 0 for v in vals):
            raise NonPositiveWeight("finite weight values must be positive")
        self.group = group
        self.values = vals
        self.form = ExponentForm(vals)

    def value_at(self, x) -> Fraction:
        return self.values[int(x)]

    def orbit_index(self, a: int, B: int) -> np.ndarray:
        """The elements x a^-t, t = 0..B, one row per t, by the permutation
        x -> x a^-1."""
        g = self.group
        a_inv = g.inv(a)
        back = np.array([g.mul(x, a_inv) for x in g.elements()], dtype=np.intp)
        out = [np.arange(len(back))]
        for _ in range(B):
            out.append(back[out[-1]])
        return np.array(out)

    product_rows = step_products


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

    def value_at(self, x) -> Fraction:
        return self.table[self.key_of(x)]

    def orbit_index(self, a: PAdicNumber, B: int) -> np.ndarray:
        """The residues of x - t a mod the table's size, t = 0..B, one row
        per t."""
        if a.context != self.context:
            raise ContextMismatch(f"{a.context.name} vs {self.context.name}")
        return (np.arange(self._size) - np.arange(B + 1)[:, None] * a.residue) % self._size

    product_rows = step_products

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
# the n-step product at a point


def weight_product(w: Weight, a, n: int, x):
    """The n-step product w(x) w(x a^-1) ... w(x a^-(n-1)) of the weight's
    ``value_at``: an exact Fraction for a step, finite or table weight, a
    float for an expression weight.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    from .families import family  # the families build on this module
    group = w.group
    acc, y, back = 1, family(group).as_element(group, x), group.inv(a)
    for _ in range(n):
        acc *= w.value_at(y)
        y = group.mul(y, back)
    return acc
