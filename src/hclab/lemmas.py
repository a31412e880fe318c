"""The paper's operator identities, each checked on a discretized function.

* the power identity T_{a,w}^n = T_{a^n, w_n}, with the n-step product
  weight w_n (``operator_power_identity_check``), on ``DiscretizedFunction``
  values over a ``CircleGrid``, a finite group or a p-adic context;
* the translation, scale and multiplication conjugations of a p-adic table
  weight, whose diagrams commute exactly over the finest-ball indicator
  basis (``translation_diagram_defect``, ``ConjugationTriple``,
  ``multiplication_diagram_defect``);
* the step-function sandwich behind the Weyl-type orbit bound: a continuous
  circle function between algebra step functions within eps
  (``step_approx``), and the per-piece orbit-count check of such a step
  function (``sandwich_check``);
* the ergodic average of a circle test function (``ergodic_average``).

The checks read the engine's own pieces: ``weights.weight_product`` and
``Weight.value_at``, ``padic._ball_row`` for the scale diagram's reduced
table and the ``equidist`` sweep for the sandwich.  ``hclab.cli`` never
imports this module: no ``hclab`` task runs a lemma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .borel import IntervalSet, arc_pieces
from .equidist import Boundaries, OrbitCounter, _mod1
from .errors import ContextMismatch, GridMismatch, PlateauResolutionFailure, WindowExceeded
from .exprs import Expr
from .groups import CIRCLE, PRECISION_CAP, CircleElement, OrbitSequence, PAdicContext, PAdicNumber
from .padic import _ball_row
from .weights import PAdicTableWeight, StepFunction, Weight, weight_product

__all__ = [
    "CircleGrid",
    "DiscretizedFunction",
    "apply_operator",
    "operator_power_identity_check",
    "conjugate_translate",
    "translation_diagram_defect",
    "ConjugationTriple",
    "conjugate_scale",
    "multiplication_weight",
    "multiplication_diagram_defect",
    "step_approx",
    "SandwichResult",
    "sandwich_check",
    "TestFunction",
    "ergodic_average",
]


# ---------------------------------------------------------------------------
# discretized functions and the weighted translation operator


@dataclass(frozen=True)
class CircleGrid:
    """The uniform grid i/M on the circle."""

    points: int

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


def _weighted_shift(value: Callable, a, n: int, f: DiscretizedFunction, mode: str) -> DiscretizedFunction:
    """x -> value(x) f(x a^-n) on f's domain.  On a circle grid the index
    shift is n times the one that realizes a (``_grid_shift``), so "nearest"
    snaps a once, not a^n."""
    domain = f.domain
    if isinstance(domain, CircleGrid):
        shift, M = n * _grid_shift(domain, a, mode), len(domain)
        vals = (value(CircleElement(Fraction(i, M), True)) * f.values[(i - shift) % M] for i in range(M))
    else:
        back = domain.inv(domain.power(a, n))
        vals = (value(x) * f.values[domain.index(domain.mul(x, back))] for x in domain.elements())
    return DiscretizedFunction(domain, tuple(vals))


def apply_operator(w: Weight, a, f: DiscretizedFunction, mode: str = "strict") -> DiscretizedFunction:
    """The weighted translation operator: (T f)(x) = w(x) f(x a^-1), with
    the weight's own ``value_at``, so exact weights keep rational functions
    exact.

    ``mode`` governs circle grids when the rotation is not a multiple of the
    grid spacing: "strict" raises GridMismatch, "nearest" snaps.
    """
    return _weighted_shift(w.value_at, a, 1, f, mode)


def operator_power_identity_check(w: Weight, a, n: int, f: DiscretizedFunction):
    """Sup-norm of (T_{a,w})^n f minus the single application with the n-step
    product weight and translation a^n.  Zero exactly on rational pipelines,
    tiny float noise otherwise.  On a circle grid the rotation must map the
    grid to itself."""
    if n < 1:
        raise ValueError("need n >= 1")
    iterated = f
    for _ in range(n):
        iterated = apply_operator(w, a, iterated)
    # w_n(x) f(x a^-n), on the operator's own domain path
    return iterated.sup_diff(_weighted_shift(lambda x: weight_product(w, a, n, x), a, n, f, "strict"))


# ---------------------------------------------------------------------------
# p-adic conjugation diagrams


def _pullback(f: DiscretizedFunction, domain, scale: int, shift: int = 0) -> DiscretizedFunction:
    """f read through the residue map s -> scale s + shift: the function on
    ``domain`` whose value at residue s is f's at (scale s + shift) mod the
    size of f's domain.  The translation T_{-x'} (scale 1, shift x'), the
    scaling M_{p^v} (scale p^v) and the multiplication M_a (scale a) are
    each one such map."""
    n = len(f.domain)
    return DiscretizedFunction(domain, tuple(f.values[(scale * s + shift) % n] for s in range(len(domain))))


def _basis_defect(domain, lhs: Callable, rhs: Callable) -> Fraction:
    """Exact defect of the diagram lhs = rhs, two maps of discretized
    functions on ``domain``: the largest sup-norm of lhs(f) - rhs(f) over the
    finest-ball indicators f.  Zero when the diagram commutes."""
    worst = Fraction(0)
    for r in range(len(domain)):
        f = DiscretizedFunction.delta(domain, r)
        worst = max(worst, lhs(f).sup_diff(rhs(f)))
    return worst


def conjugate_translate(w: PAdicTableWeight, a: PAdicNumber, x_prime: PAdicNumber):
    """Translation conjugation: the same element with the shifted weight."""
    return a, w.translate(x_prime)


def translation_diagram_defect(w: PAdicTableWeight, a: PAdicNumber, x_prime: PAdicNumber) -> Fraction:
    """Exact defect of T_{-x'} T_{a,w} = T_{a, T_{-x'} w} T_{-x'} over the
    finest-ball indicator basis; zero when the diagram commutes."""
    ctx = w.context
    shifted = w.translate(x_prime)

    def translate(f):
        return _pullback(f, ctx, 1, x_prime.residue)

    return _basis_defect(ctx, lambda f: translate(apply_operator(w, a, f)),
                         lambda f: apply_operator(shifted, a, translate(f)))


@dataclass(frozen=True)
class ConjugationTriple:
    """The scale reduction: a^(n) = n a / p^v with v = v_p(n a) a unit, and
    w^(n)(y) = w_n(p^v y + x'), acting at precision reduced by v."""

    element: PAdicNumber
    weight: PAdicTableWeight
    x_prime: PAdicNumber
    n: int
    scale_exponent: int
    reduced_context: PAdicContext
    reduced_element: PAdicNumber
    reduced_weight: PAdicTableWeight

    def commutation_defect(self) -> Fraction:
        """Exact defect of M T_{a, T_{-x'}w}^n = T_{a^(n), w^(n)} M over the
        finest-ball indicator basis, with M = M_{p^v}: (M f)(y) = f(p^v y),
        original functions to reduced ones."""
        ctx = self.weight.context
        shifted = self.weight.translate(self.x_prime)

        def scale(f):
            return _pullback(f, self.reduced_context, ctx.prime ** (self.scale_exponent + ctx.window))

        def power(f):
            for _ in range(self.n):
                f = apply_operator(shifted, self.element, f)
            return f

        return _basis_defect(ctx, lambda f: scale(power(f)),
                             lambda f: apply_operator(self.reduced_weight, self.reduced_element, scale(f)))


def conjugate_scale(
    w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: PAdicNumber | int = 0
) -> ConjugationTriple:
    """Build the reduced operator data for the scale diagram.  The reduced
    table is the n-step products on the ball of radius |n a|_p around x'
    (``padic._ball_row``), read at the residues p^v s + x'."""
    if n < 1:
        raise ValueError("need n >= 1")
    ctx = w.context
    if ctx.window != 0:
        raise WindowExceeded("the scale diagram is supported on window-0 contexts")
    if not isinstance(x_prime, PAdicNumber):
        x_prime = ctx.element(x_prime)
    na = a.scalar_mul(n)
    v = na.valuation()
    if v is PRECISION_CAP:
        raise WindowExceeded("n a vanishes at working precision; no unit reduction")
    # window 0 and 0 <= v < precision: n a / p^v is a unit at precision - v
    p, size = ctx.prime, len(w.table)
    red_ctx = PAdicContext(p, ctx.precision - v)
    reduced_element = red_ctx.from_residue(na.residue // p ** v)
    level_red = min(max(w.level - v, 0), red_ctx.precision)
    row = _ball_row(w, a, n, x_prime.residue).exponents
    table = {s: w.form.value(row[(p ** v * s + x_prime.residue) % size]) for s in range(p ** level_red)}
    return ConjugationTriple(a, w, x_prime, n, v, red_ctx, reduced_element,
                             PAdicTableWeight(red_ctx, level_red, table, w.declared_locally_constant))


def multiplication_weight(w: PAdicTableWeight, a: PAdicNumber) -> PAdicTableWeight:
    """(M_a w)(x) = w(a x) on an integer-ring context with v_p(a) >= 0."""
    ctx = w.context
    if ctx.window != 0:
        raise WindowExceeded("multiplication conjugation is supported on window-0 contexts")
    v = a.valuation()
    if v is PRECISION_CAP or v < 0:
        raise WindowExceeded("need v_p(a) >= 0")
    # w(ax) is constant once a x stays in one level-l coset, i.e. at level l - v
    level = min(max(w.level - v, 0), ctx.precision)
    table = {s: w.table[a.residue * s % len(w.table)] for s in range(ctx.prime ** level)}
    return PAdicTableWeight(ctx, level, table, w.declared_locally_constant)


def multiplication_diagram_defect(w: PAdicTableWeight, a: PAdicNumber) -> Fraction:
    """Exact defect of M_a T_{a,w} = T_{1, M_a w} M_a over the indicator
    basis (integer-ring contexts)."""
    ctx = w.context
    maw = multiplication_weight(w, a)
    one = ctx.element(1)

    def multiply(f):
        return _pullback(f, ctx, a.residue)

    return _basis_defect(ctx, lambda f: multiply(apply_operator(w, a, f)),
                         lambda f: apply_operator(maw, one, multiply(f)))


# ---------------------------------------------------------------------------
# step-function approximation of a continuous function


def _bisect_edge(fn, h: float, x_false: float, x_true: float):
    """Shrink [x_false, x_true] around the crossing of fn(x) >= h, in at most
    80 halvings; the endpoints keep their predicate values.  Returns
    (x_false, x_true)."""
    for _ in range(80):
        mid = 0.5 * (x_false + x_true)
        if mid == x_false or mid == x_true:
            break
        if fn(mid % 1.0) >= h:
            x_true = mid
        else:
            x_false = mid
    return x_false, x_true


def _level_set(fn, xs: np.ndarray, vals: np.ndarray, h: float, outer: bool) -> IntervalSet:
    """{x : fn(x) >= h} located by grid scan plus bisection.

    ``outer`` pushes each boundary to the bracket endpoint just outside the
    set (giving a superset); the inner variant gives a subset.  Closed arcs.
    """
    flags = vals >= h
    M = len(xs)
    if flags.all():
        return IntervalSet.full()
    if not flags.any():
        return IntervalSet.empty()
    edges = []  # (position, entering)
    for i in range(M):
        j = (i + 1) % M
        if flags[i] == flags[j]:
            continue
        x_lo = float(xs[i])
        x_hi = float(xs[j]) if j else float(xs[0]) + 1.0
        # leaving the set: predicate True at x_lo, False at x_hi; or entering
        false_pt, true_pt = _bisect_edge(fn, h, x_hi, x_lo) if flags[i] else _bisect_edge(fn, h, x_lo, x_hi)
        edges.append(((false_pt if outer else true_pt) % 1.0, not flags[i]))
    edges.sort()
    arcs, points = [], []
    # walk entry -> exit pairs circularly
    k = len(edges)
    first_entry = next(i for i, e in enumerate(edges) if e[1])
    for i in range(first_entry, first_entry + k, 2):
        (pos_in, entering), (pos_out, leaving) = edges[i % k], edges[(i + 1) % k]
        assert entering and not leaving, "unbalanced level-set crossings"
        arc, ends = arc_pieces(Fraction(pos_in), Fraction(pos_out), "closed")
        arcs.append(arc)
        points += ends
    return IntervalSet.from_pieces(arcs, points)


def step_approx(
    target,
    eps: float,
    side: str = "above",
    grid_points: int = 4096,
) -> StepFunction:
    """Approximate a continuous circle function by an algebra step function
    within eps, from above or below.

    Cut heights are placed at midpoints between adjacent distinct grid values
    so no cut lands on a value plateau; level sets at the cuts are located by
    bisection and pushed outward (above) or inward (below) so the pointwise
    sandwich holds with margin.  Raises PlateauResolutionFailure when the
    grid cannot support cuts with gaps below eps.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if eps <= 0:
        raise ValueError("need eps > 0")
    fn = target if callable(target) else Expr(str(target))
    xs = np.arange(grid_points) / grid_points
    vals = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("target is not finite on the circle")
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax == vmin:
        return StepFunction.of([(IntervalSet.full(), vmin)])

    vrange = vmax - vmin
    pad = vrange * 1e-6 + 1e-12
    floor_v, ceil_v = vmin - pad, vmax + pad
    bands = max(2, math.ceil((ceil_v - floor_v) / (0.9 * eps)))
    raw_cuts = [floor_v + i * (ceil_v - floor_v) / bands for i in range(1, bands)]

    distinct = np.unique(vals)
    cuts = []
    for t in raw_cuts:
        idx = int(np.searchsorted(distinct, t))
        if idx <= 0 or idx >= len(distinct):
            continue  # cut outside the attained range contributes nothing
        snapped = 0.5 * (float(distinct[idx - 1]) + float(distinct[idx]))
        if not cuts or snapped > cuts[-1]:
            cuts.append(snapped)
    ladder = [floor_v] + cuts + [ceil_v]
    if any(b - a >= eps for a, b in zip(ladder, ladder[1:])):
        raise PlateauResolutionFailure(
            f"could not place cut heights with gaps below {eps} at grid {grid_points}"
        )

    outer = side == "above"
    levels = [_level_set(fn, xs, vals, h, outer) for h in cuts]
    for i in range(1, len(levels)):  # enforce nesting exactly
        levels[i] = levels[i].intersection(levels[i - 1])

    pieces = []
    r = len(cuts)
    prev = IntervalSet.full()
    for i in range(r):
        band = prev.difference(levels[i])
        value = cuts[i] if side == "above" else (floor_v if i == 0 else cuts[i - 1])
        if not band.is_empty():
            pieces.append((band, value))
        prev = levels[i]
    top_value = ceil_v if side == "above" else (cuts[-1] if cuts else floor_v)
    if not prev.is_empty():
        pieces.append((prev, top_value))
    return StepFunction.of(pieces)


# ---------------------------------------------------------------------------
# the two-sided product sandwich


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of the per-piece orbit-count check behind the two-sided
    N-step product bound.  ``ok`` holds when every piece's orbit share stays
    within eps of its measure at every translate; that is the exact
    per-factor form from which the product bound follows (exponent signs
    corrected for pieces below 1).  ``witness_x`` is the exact first
    translate at the largest deviation."""

    ok: bool
    eps: float
    N: int
    max_deviation: float
    witness_x: Fraction | None = None
    witness_piece: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def sandwich_check(phi: StepFunction, a: CircleElement, eps: float, N: int) -> SandwichResult:
    if N < 1:
        raise ValueError("need N >= 1")
    counter = OrbitCounter.from_sequence(OrbitSequence(CIRCLE, a), N, first=0)
    sweep = counter.sup_candidates(
        Boundaries.prepare(counter.denominator, *(E for E, _ in phi.pieces)))
    worst = -1.0
    witness_x = witness_piece = None
    for idx, (E, _) in enumerate(phi.pieces):
        mu = float(E.measure())
        devs = np.abs(sweep.counts[:, idx] / N - mu)
        j = int(np.argmax(devs))
        if float(devs[j]) > worst:
            worst = float(devs[j])
            witness_x = sweep.translate(j)
            witness_piece = idx
    if worst < eps:
        return SandwichResult(True, eps, N, worst)
    return SandwichResult(False, eps, N, worst, witness_x, witness_piece)


# ---------------------------------------------------------------------------
# test functions and ergodic averages


@dataclass(frozen=True)
class TestFunction:
    """A bounded test function on the circle; ``char_index`` is k for the
    character e(kx)."""

    __test__ = False  # not a pytest class

    fn: Callable[[np.ndarray], np.ndarray]
    char_index: int | None = None

    @staticmethod
    def character(k: int) -> "TestFunction":
        def fn(t):
            return np.exp(2j * np.pi * k * np.asarray(t, dtype=float))

        return TestFunction(fn, char_index=k)

    @staticmethod
    def constant(c) -> "TestFunction":
        def fn(t):
            t = np.asarray(t, dtype=float)
            return np.full(t.shape, c)

        return TestFunction(fn)


def ergodic_average(f: TestFunction, a: CircleElement, N: int, x) -> complex:
    """(1/N) * sum_{n=1}^{N-1} f(x - n a) on the circle."""
    if N < 2:
        raise ValueError("need N >= 2")
    xf = float(getattr(x, "value", x))
    af = float(a.value)
    acc = 0j
    chunk = 1 << 14
    n = 1
    while n < N:
        hi = min(N, n + chunk)
        ns = np.arange(n, hi, dtype=float)
        pts = xf - ns * af
        _mod1(pts, out=pts)
        acc += complex(np.sum(f.fn(pts)))
        n = hi
    return acc / N
