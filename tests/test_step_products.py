"""Property tests: the n-step product rows of ``step_products`` and
``circle_step_rows``, the rows composed on p-adic balls, and everything read
from them (U/L sets, monotone scans) against direct references: ``weight_product`` on small random p-adic
and finite weights, and the exact Fraction oracle of ``circle_oracle`` on
small random circle step weights."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_oracle import row_pairs, step_values_at
from exact_oracle import walk_rows
from hclab.borel import IntervalSet, interval
from hclab.equidist import Boundaries, OrbitCounter
from hclab.groups import CIRCLE, PRECISION_CAP, OrbitSequence, PAdicContext, catalog
from hclab.hctest import MonotoneHit, VerdictConfig, monotone_power_scan, verdict
from hclab.padic import _ball_row, ul_sets
from hclab.weights import (FiniteWeight, PAdicTableWeight, StepFunction, StepWeight,
                           circle_step_rows, step_products, weight_product)

PROPERTY = settings(max_examples=40, deadline=5000)

VALUES = [Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3", "5/7")]
FINITE_GROUPS = ["Z1", "Z2", "Z5", "Z6", "V4", "S3", "D4", "Q8"]


@st.composite
def padic_cases(draw):
    """A context with p in {2,3,5}, precision <= 3, window <= 1 and modulus
    <= 125; a table of at most 25 cosets; a unit, non-unit or zero shift."""
    p = draw(st.sampled_from([2, 3, 5]))
    window = draw(st.integers(0, 1))
    precision = draw(st.integers(1, 3).filter(lambda k: p ** (k + window) <= 125))
    ctx = PAdicContext(p, precision, window)
    level = draw(st.sampled_from(
        [lv for lv in range(-window, precision + 1) if p ** (lv + window) <= 25]
    ))
    size = p ** (level + window)
    table = dict(enumerate(draw(st.lists(st.sampled_from(VALUES), min_size=size, max_size=size))))
    w = PAdicTableWeight(ctx, level, table, draw(st.booleans()))
    unit = draw(st.integers(1, ctx.modulus - 1).filter(lambda u: u % p))
    shift = draw(st.integers(0, ctx.digit_count))
    return w, ctx.from_residue(unit * p ** shift)


@st.composite
def finite_cases(draw):
    g = catalog()[draw(st.sampled_from(FINITE_GROUPS))]
    values = draw(st.lists(st.sampled_from(VALUES), min_size=g.order, max_size=g.order))
    return FiniteWeight(g, values), draw(st.sampled_from(list(g.elements())))


# arc variants by (lower end included, upper end included)
VARIANTS = {(True, False): "half_open", (False, True): "half_open_right",
            (True, True): "closed", (False, False): "open"}


@st.composite
def step_cases(draw):
    """2-4 arcs with endpoints of denominator <= 20, each endpoint owned by
    one of its two arcs; rational values, half the time a value and its
    reciprocal only (so products cancel and fire late or not at all); a
    float angle whose denominator the orbit holds (0, or at least 2^-12) or a
    declared-rational angle."""
    k = draw(st.integers(2, 4))
    den = draw(st.integers(k, 20))
    cuts = sorted(draw(st.lists(st.integers(0, den - 1), min_size=k, max_size=k, unique=True)))
    starts_own = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    pool = VALUES
    if draw(st.booleans()):
        base = draw(st.sampled_from(VALUES))
        pool = [base, 1 / base]
    values = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    pieces = []
    for j in range(k):
        variant = VARIANTS[(starts_own[j], not starts_own[(j + 1) % k])]
        lo, hi = Fraction(cuts[j], den), Fraction(cuts[(j + 1) % k], den)
        pieces.append((interval(lo, hi, variant), values[j]))
    if draw(st.booleans()):
        a = CIRCLE.from_float(draw(st.just(0.0) | st.floats(2.0 ** -12, 1.0, exclude_max=True)))
    else:
        q = draw(st.integers(1, 20))
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    return StepWeight(StepFunction.of(pieces)), a


def _brute_scan(values_at, n_max, require_strict):
    """The monotone scan written out from its definition; ``values_at(n)``
    lists (point, n-step product) pairs.  With ``require_strict`` only n = 1
    may fire on a product that is identically 1."""
    for n in range(1, n_max + 1):
        pairs = values_at(n)
        vals = [v for _, v in pairs]
        mn, mx = min(vals), max(vals)
        if mn >= 1:
            direction, strict = ">=1", mx > 1
        elif mx <= 1:
            direction, strict = "<=1", mn < 1
        else:
            continue
        if strict or not require_strict or n == 1:
            witness = pairs[vals.index(mn if direction == ">=1" else mx)][0]
            return MonotoneHit(n, direction, strict, True, float(mn), float(mx), [witness])
    return None


@PROPERTY
@given(padic_cases())
def test_padic_rows_equal_weight_product(case):
    w, a = case
    ctx = w.context
    size = ctx.prime ** (w.level + ctx.window)
    for n, (row_n, _, _, values) in zip(range(1, 2 * size + 1), walk_rows(step_products(w, a))):
        assert len(values) == size and row_n == n
        for r in range(ctx.modulus):
            assert values[r % size] == weight_product(w, a, n, ctx.from_residue(r))


@PROPERTY
@given(padic_cases(), st.data())
def test_composed_rows_equal_step_products(case, data):
    # the rows that locally_constant_obstruction and ul_sets compose, on the
    # ball of radius |n a|_p around a centre, for n up to 3 * size and every
    # p^k up to p * size
    w, a = case
    ctx = w.context
    p, m = ctx.prime, ctx.window
    size = p ** (w.level + m)
    center = data.draw(st.integers(0, ctx.modulus - 1))
    powers = {p ** k for k in range(w.level + m + 2)}
    rows = walk_rows(step_products(w, a))
    for n, (_, _, _, values) in zip(range(1, max(3 * size, *powers) + 1), rows):
        if n > 3 * size and n not in powers:
            continue
        ball = _ball_row(w, a, n, center)
        assert (len(ball), ball.n0) == (1, n - 1)
        v = a.scalar_mul(n).valuation()
        j = ctx.precision if v is PRECISION_CAP else v
        step = p ** min(j + m, w.level + m)
        for r in [r for r in range(size) if (r - center) % step == 0]:
            composed = w.form.value(ball.exponents[r])
            assert composed == values[r]
            assert composed == weight_product(w, a, n, ctx.from_residue(r))


@PROPERTY
@given(finite_cases())
def test_finite_rows_equal_weight_product(case):
    w, a = case
    g = w.group
    for n, (_, _, _, values) in zip(range(1, 2 * g.order + 1), walk_rows(step_products(w, a))):
        assert values == [weight_product(w, a, n, x) for x in g.elements()]


@PROPERTY
@given(padic_cases(), st.data())
def test_ul_sets_match_enumeration(case, data):
    w, a = case
    ctx = w.context
    p, m = ctx.prime, ctx.window
    size = p ** (w.level + m)
    x_prime = ctx.from_residue(data.draw(st.integers(0, ctx.modulus - 1)))
    for k in range(1, size + 1):
        for n in (k, -k):
            v = a.scalar_mul(n).valuation()
            j = ctx.precision if v is PRECISION_CAP else v
            level = max(j, w.level)
            u, lo = [], []
            for r in range(p ** (level + m)):
                y = ctx.from_residue(r)
                dv = (y - x_prime).valuation()
                if dv is not PRECISION_CAP and dv < j:
                    continue
                if n > 0:
                    value = weight_product(w, a, n, y)
                else:
                    value = 1 / weight_product(w, a, k, y + a.scalar_mul(k))
                if value > 1:
                    u.append(r)
                elif value < 1:
                    lo.append(r)
            wit = ul_sets(w, a, n, x_prime)
            assert (wit.radius_exp, wit.level) == (j, level)
            assert (wit.u_witnesses, wit.l_witnesses) == (tuple(u), tuple(lo))


@PROPERTY
@given(padic_cases(), st.data())
def test_padic_monotone_scan_matches_brute_force(case, data):
    w, a = case
    ctx = w.context
    size = ctx.prime ** (w.level + ctx.window)
    n_max = data.draw(st.integers(1, 2 * size))
    strict = data.draw(st.booleans())
    expected = _brute_scan(
        lambda n: [(r, weight_product(w, a, n, ctx.from_residue(r))) for r in range(size)],
        n_max,
        strict,
    )
    assert monotone_power_scan(w, a, n_max, require_strict=strict) == expected


@PROPERTY
@given(finite_cases(), st.data())
def test_finite_monotone_scan_matches_brute_force(case, data):
    w, a = case
    g = w.group
    n_max = data.draw(st.integers(1, 2 * g.order))
    strict = data.draw(st.booleans())
    expected = _brute_scan(
        lambda n: [(x, weight_product(w, a, n, x)) for x in g.elements()], n_max, strict
    )
    assert monotone_power_scan(w, a, n_max, require_strict=strict) == expected


@PROPERTY
@given(step_cases(), st.data())
def test_circle_step_scan_matches_per_candidate_scan(case, data):
    w, a = case
    values_at = step_values_at(w, a)
    n_max = data.draw(st.integers(1, 12))
    strict = data.draw(st.booleans())
    expected = _brute_scan(values_at, n_max, strict)
    hit = monotone_power_scan(w, a, n_max, require_strict=strict)
    assert hit == expected
    for n, (_, points, _, values) in zip(range(1, n_max + 1), walk_rows(circle_step_rows(w, a))):
        pairs = row_pairs(points, values)
        full = values_at(n)
        assert sorted({v for _, v in pairs}) == sorted({v for _, v in full})
        assert set(pairs) <= set(full)


def test_circle_step_rows_at_near_rational_floats():
    # float angles next to 1/3 and 2/3: rounding the orbit to binary64 once
    # read row 8 as [1, 729] and row 4 as two-sided
    for angle, value, n, extremes in [
        (0.3333333333333334, Fraction(3), 8, (9, 81)),
        (0.6666666666666666, Fraction(5, 2), 4, (1, Fraction(625, 16))),
    ]:
        a = CIRCLE.from_float(angle)
        w = StepWeight(StepFunction.of([(interval(0, Fraction(2, 3), "half_open"), value),
                                        (interval(Fraction(2, 3), 1, "half_open"), 1 / value)]))
        _, points, _, values = next(itertools.islice(walk_rows(circle_step_rows(w, a)), n - 1, None))
        values = {v for _, v in row_pairs(points, values)}
        assert (min(values), max(values)) == extremes
        assert values == {v for _, v in step_values_at(w, a)(n)}


def test_circle_step_row_starts_at_the_event_at_zero():
    # D = 8, the open arc (1/16, 15/16) and the closed arc [15/16, 17/16]
    # across 0, which normalization splits at 0: the boundary at 0 is an
    # event at translate 0, so row 1 starts at that event, inside the closed
    # arc.  Pieces of a step weight cover 0, so every row has the event of
    # term 0 at translate 0 and none starts at the cell that wraps past 0.
    w = StepWeight(StepFunction.of([(interval(Fraction(1, 16), Fraction(15, 16), "open"), Fraction(2)),
                                    (interval(Fraction(15, 16), Fraction(17, 16), "closed"), Fraction(1, 2))]))
    a = CIRCLE.from_float(0.125)
    _, points, _, values = next(walk_rows(circle_step_rows(w, a)))
    pairs = row_pairs(points, values)
    assert pairs == [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(2))]
    assert pairs[0] == step_values_at(w, a)(1)[0]


def test_circle_step_row_keeps_the_first_candidate_of_each_count_vector():
    # 14 pieces at n = 30 (so 31^13 possible count vectors): the row holds
    # the first candidate of every distinct count vector, in candidate order
    values = [Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(5, 7)] * 4
    cuts = [Fraction(k, 14) for k in range(15)]
    w = StepWeight(StepFunction.of(
        [(interval(lo, hi, "half_open"), v) for lo, hi, v in zip(cuts, cuts[1:], values)]))
    a = CIRCLE.from_float(0.4142135623730951)
    n = 30
    _, points, _, row = next(itertools.islice(walk_rows(circle_step_rows(w, a)), n - 1, None))
    sweep = OrbitCounter.from_sequence(OrbitSequence(CIRCLE, a), n, first=0).sup_candidates(
        Boundaries.prepare(a.value.denominator, *(E for E, _ in w.step.pieces)))
    first = sorted(np.unique(sweep.counts, axis=0, return_index=True)[1])
    assert len(first) > 1 and list(points) == [sweep.translate(j) for j in first]
    exact = [math.prod(v ** int(c) for v, c in zip(values, sweep.counts[j])) for j in first]
    assert row == exact


# a closed arc across 0 and D = 8, so that rows past n = 8 wrap the orbit
_ACROSS_ZERO = StepWeight(StepFunction.of([
    (interval(Fraction(1, 16), Fraction(15, 16), "open"), Fraction(2)),
    (interval(Fraction(15, 16), Fraction(17, 16), "closed"), Fraction(1, 2))]))


@st.composite
def block_cases(draw):
    """A circle step weight: one piece (the whole circle), or 2-4 arcs
    whose ends each belong to the arc before, the arc after (so open,
    closed and half-open arcs) or to neither, the end then being an isolated
    one-point piece.  A declared-rational angle with denominator <= 6, so
    that the walk outruns the orbit's period, or a float angle.  A walk of
    n_max rows whose first block ends at a horizon before n_max."""
    value = st.sampled_from(VALUES)
    k = draw(st.integers(1, 4))
    if k == 1:
        pieces = [(IntervalSet.full(), draw(value))]
    else:
        den = draw(st.integers(k, 12))
        cuts = [Fraction(c, den) for c in
                sorted(draw(st.lists(st.integers(0, den - 1), min_size=k, max_size=k, unique=True)))]
        owners = draw(st.lists(st.sampled_from(["before", "after", "point"]), min_size=k, max_size=k))
        pieces = [(interval(cuts[j], cuts[(j + 1) % k],
                            VARIANTS[(owners[j] == "after", owners[(j + 1) % k] == "before")]), draw(value))
                  for j in range(k)]
        pieces += [(IntervalSet.from_pieces([], [cuts[j]]), draw(value))
                   for j in range(k) if owners[j] == "point"]
    if draw(st.booleans()):
        q = draw(st.integers(1, 6))
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    else:
        a = CIRCLE.from_float(draw(st.floats(2.0 ** -12, 1.0, exclude_max=True)))
    n_max = draw(st.integers(2, 16))
    return StepWeight(StepFunction.of(pieces)), a, n_max, draw(st.integers(1, n_max - 1))


@PROPERTY
@example((_ACROSS_ZERO, CIRCLE.from_float(0.125), 12, 3))
@given(block_cases())
def test_block_rows_equal_first_candidate_rows(case):
    # values, order, den and every translate, across at least two blocks.
    # Pieces that cover the circle put an event at translate 0 in every row,
    # so no row starts at its wrapping cell; the rows' sweeps, wrapping ones
    # among them, are checked in test_block_sweeps_are_the_per_n_sweeps
    w, a, n_max, horizon = case
    rows_at = step_values_at(w, a, first_only=True)
    rows = walk_rows(circle_step_rows(w, a, horizon))
    for n, (row_n, points, _, values) in zip(range(1, n_max + 1), rows):
        assert row_n == n
        assert row_pairs(points, values) == rows_at(n)


def _eight_pieces():
    cuts = [Fraction(k, 8) for k in range(9)]
    return StepWeight(StepFunction.of(
        [(interval(lo, hi, "half_open"), Fraction(1)) for lo, hi in zip(cuts, cuts[1:])]))


def test_block_walk_memory_is_bounded():
    # 400 rows over 8 boundary points, the horizon at 400: one block of every
    # row would hold 400 rows x ~6400 candidates x 8 pieces (~160 MB of
    # int64); blocks of at most BLOCK_ENTRIES counts keep the peak near 9 MB.
    # Values 1 keep the products trivial; the counts are what a block holds.
    a = CIRCLE.from_float(math.sqrt(2) % 1)
    tracemalloc.start()
    try:
        rows = 0
        for _, block in circle_step_rows(_eight_pieces(), a, 400):
            rows += len(block)
            if rows >= 400:
                break
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows >= 400
    assert peak < 24 * 2 ** 20


def test_walk_sorts_the_events_once_per_block(monkeypatch):
    calls = []
    arrange = Boundaries.arrange

    def counted(self, residues):
        calls.append(len(residues))
        return arrange(self, residues)

    monkeypatch.setattr(Boundaries, "arrange", counted)
    # balanced halves, so that the verdict's log-integral rule passes
    w = StepWeight(StepFunction.of([(interval(0, Fraction(1, 2), "half_open"), Fraction(2)),
                                    (interval(Fraction(1, 2), 1, "half_open"), Fraction(1, 2))]))
    a = CIRCLE.from_float(math.sqrt(3) % 1)
    # the horizon is the first block: n_max rows, one sort of all their events
    assert len(next(circle_step_rows(w, a, 40))[1]) == 40
    assert calls == [40]
    # later blocks double the walk: blocks start at rows 1, 2, 3, 5, 9, 17
    # and 33, each from one sort of the events of every term it reaches
    calls.clear()
    blocks = list(itertools.islice(circle_step_rows(w, a), 7))
    assert [rows.n0 + 1 for _, rows in blocks] == [1, 2, 3, 5, 9, 17, 33]
    assert calls == [1, 2, 4, 8, 16, 32, 64]
    # the verdict's walk passes monotone_n_max as its horizon
    calls.clear()
    rep = verdict(w, a, VerdictConfig(monotone_n_max=30))
    assert rep.walk.walked >= 1 and calls == [30]
