import cmath
import itertools
import math
import random
import timeit
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import circle_oracle as oracle
import exact_oracle
from hclab import equidist
from hclab.borel import BallSet, FiniteSubset, IntervalSet, ball, interval
from hclab.equidist import (
    Boundaries,
    OrbitCounter,
    density,
    sweep_blocks,
    sup_deviation,
    translated_density,
    uniform_convergence_sweep,
    weyl_bound,
)
from hclab.errors import FixedCharacterError
from hclab.groups import CIRCLE, OrbitSequence, PAdicContext, catalog, cyclic
from hclab.lemmas import TestFunction, ergodic_average
from hclab.weights import StepFunction, StepWeight, circle_step_rows

GOLDEN = (math.sqrt(5) - 1) / 2


def naive_density(K, seq, N, translate=None):
    """Direct enumeration oracle over k = 1..N-1."""
    count = 0
    for k in range(1, N):
        x_k = seq.term(k)
        if translate is not None:
            if seq.group is CIRCLE:
                x_k = x_k + translate
            elif isinstance(seq.group, PAdicContext):
                x_k = x_k + translate
            else:
                x_k = seq.group.mul(translate, x_k)
        if K.contains(x_k):
            count += 1
    return Fraction(count, N)


# ---------------------------------------------------------------------------
# densities


def test_density_quarter_rotation():
    seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    K = interval(0, Fraction(1, 2), "half_open")
    # members among x_1..x_4 = 3/4, 1/2, 1/4, 0 are x_3 and x_4
    assert density(K, seq, 5) == Fraction(2, 5)
    assert density(K, seq, 5) == naive_density(K, seq, 5)


def test_density_trivial_sets():
    seq = OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN))
    assert density(IntervalSet.empty(), seq, 100) == 0
    assert density(IntervalSet.full(), seq, 100) == Fraction(99, 100)


def test_density_matches_oracle_randomized():
    rng = random.Random(10)
    for _ in range(20):
        a = CIRCLE.from_float(rng.random())
        seq = OrbitSequence(CIRCLE, a)
        lo = Fraction(rng.randrange(32), 32)
        hi = Fraction(rng.randrange(32), 32)
        if lo == hi:
            continue
        K = interval(min(lo, hi), max(lo, hi), "half_open")
        N = rng.randrange(2, 200)
        assert density(K, seq, N) == naive_density(K, seq, N)


def test_translated_density_examples():
    seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    K = interval(0, Fraction(1, 2), "half_open")
    assert translated_density(K, CIRCLE.zero, seq, 5) == density(K, seq, 5)
    # x = 1/2 turns K into [1/2, 1): members x_1 = 3/4 and x_2 = 1/2
    assert translated_density(K, CIRCLE.element("1/2"), seq, 5) == Fraction(2, 5)

    ctx = PAdicContext(3, 2)
    seq3 = OrbitSequence(ctx, ctx.element(1))
    K3 = ball(ctx, 0, 1)
    x = ctx.element(1)
    assert translated_density(K3, x, seq3, 4) == Fraction(1, 4)
    assert translated_density(K3, x, seq3, 4) == naive_density(K3, seq3, 4, x)


def test_translated_density_additivity_exact():
    seq = OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN))
    X = interval(0, Fraction(1, 4), "half_open")
    Y = interval(Fraction(1, 2), Fraction(2, 3), "open")
    U = X.union(Y)
    rng = random.Random(11)
    for _ in range(25):
        x = CIRCLE.from_float(rng.random())
        N = rng.randrange(2, 300)
        assert translated_density(U, x, seq, N) == translated_density(
            X, x, seq, N
        ) + translated_density(Y, x, seq, N)


# ---------------------------------------------------------------------------
# sup deviation


def test_sup_deviation_full_set_is_exactly_one_over_N():
    for N in (2, 10, 97):
        seq = OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN))
        assert sup_deviation(IntervalSet.full(), seq, N) == 1.0 / N
    g = catalog()["S3"]
    gseq = OrbitSequence(g, 1)
    assert sup_deviation(FiniteSubset.full(g), gseq, 10) == 0.1


@st.composite
def _ball_sets_and_residues(draw):
    """A union of balls on zp(p, K) with an element and horizons, and the
    same residues as a subset of cyclic(p^K) with the element's residue."""
    p = draw(st.sampled_from([2, 3, 5]))
    K = draw(st.integers(1, 4 if p < 5 else 2))
    ctx = PAdicContext(p, K)
    balls = draw(st.lists(st.tuples(st.integers(0, K), st.integers(0, ctx.modulus - 1)), max_size=4))
    m = draw(st.integers(0, ctx.modulus - 1))
    Ns = draw(st.lists(st.integers(2, 3 * ctx.modulus), min_size=1, max_size=3))
    K_ball = BallSet.from_balls(ctx, balls)
    group = cyclic(ctx.modulus)
    return (K_ball, OrbitSequence(ctx, ctx.from_residue(m)),
            FiniteSubset.of(group, K_ball.finest_residues()), OrbitSequence(group, m), Ns)


@st.composite
def _aligned_arcs_and_cells(draw):
    """A union of the cells [i/D, (i+1)/D) under the rotation m/D, with
    horizons, and the same indices as a subset of cyclic(D) with element m."""
    D = draw(st.integers(1, 24))
    cells = draw(st.lists(st.integers(0, D - 1), unique=True, max_size=D))
    m = draw(st.integers(0, D - 1))
    Ns = draw(st.lists(st.integers(2, 3 * D), min_size=1, max_size=3))
    arcs = IntervalSet.empty()
    for i in cells:
        arcs = arcs.union(interval(Fraction(i, D), Fraction(i + 1, D), "half_open"))
    group = cyclic(D)
    return (arcs, OrbitSequence(CIRCLE, CIRCLE.element(Fraction(m, D))),
            FiniteSubset.of(group, cells), OrbitSequence(group, m), Ns)


@settings(max_examples=200, deadline=None)
@given(_ball_sets_and_residues())
def test_ball_sets_deviate_as_their_residues_in_the_cyclic_group(case):
    # zp(p, K) is cyclic(p^K): the exhaustive p-adic count and the finite
    # group's count give one supremum
    K, seq, S, finite_seq, Ns = case
    assert sup_deviation([K], seq, Ns) == sup_deviation([S], finite_seq, Ns)


@settings(max_examples=200, deadline=None)
@given(_aligned_arcs_and_cells())
def test_aligned_arcs_deviate_as_their_cells_in_the_cyclic_group(case):
    # a rotation by m/D moves the cells of 1/D as cyclic(D) moves its
    # indices, and every translate in a cell counts as the cell's start: the
    # circle's event sweep and the finite group's count give one supremum
    K, seq, S, finite_seq, Ns = case
    assert sup_deviation([K], seq, Ns) == sup_deviation([S], finite_seq, Ns)


def test_sup_deviation_dominates_sampled_translates():
    seq = OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN))
    K = interval(Fraction(1, 8), Fraction(5, 8), "half_open")
    N = 257
    sup = sup_deviation(K, seq, N)
    mu = K.measure()
    rng = random.Random(12)
    for _ in range(200):
        x = CIRCLE.from_float(rng.random())
        assert float(abs(translated_density(K, x, seq, N) - mu)) <= sup + 1e-15


def test_sup_deviation_exact_on_rational_rotation():
    # period-4 orbit: the deviation is computable by hand over one period
    seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    K = interval(0, Fraction(1, 8), "half_open")
    N = 4001  # each residue class hits 1000 times
    sup = sup_deviation(K, seq, N)
    # one orbit point inside K - x gives 1000/4001 vs measure 1/8; zero gives 1/8
    best = max(abs(1000 / 4001 - 0.125), 0.125)
    assert sup == pytest.approx(best, abs=0)


def test_sup_deviation_torsion_floor():
    seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    K = interval(0, Fraction(1, 8), "half_open")
    for N in (2, 17, 100, 5000, 10 ** 4):
        assert sup_deviation(K, seq, N) >= 0.05


def test_sup_deviation_padic_exhaustive():
    ctx = PAdicContext(3, 2)
    seq = OrbitSequence(ctx, ctx.element(1))
    K = ball(ctx, 0, 1)
    N = 10
    sup = sup_deviation(K, seq, N)
    mu = K.measure()
    best = max(
        abs(float(translated_density(K, ctx.from_residue(r), seq, N) - mu))
        for r in range(ctx.modulus)
    )
    assert sup == best


def _enumerable_cases():
    """(group, element, set) triples: two elements of every catalog group
    with a random subset, and zp / qp elements of every valuation with a
    union of two balls."""
    rng = random.Random(21)
    for g in catalog().values():
        for a in rng.sample(range(len(g)), min(2, len(g))):
            yield g, a, FiniteSubset.of(g, rng.sample(range(len(g)), rng.randint(0, len(g))))
    for ctx in (PAdicContext(2, 3), PAdicContext(3, 2), PAdicContext(3, 2, 1), PAdicContext(2, 2, 2)):
        p, m = ctx.prime, ctx.window
        K = ball(ctx, ctx.from_residue(rng.randrange(ctx.modulus)), rng.randint(-m, ctx.precision)).union(
            ball(ctx, ctx.from_residue(rng.randrange(ctx.modulus)), rng.randint(-m, ctx.precision)))
        for v in range(ctx.digit_count + 1):
            yield ctx, ctx.from_residue(rng.choice([1, p - 1]) * p ** v), K


def test_enumerable_support_and_sup_deviation_match_the_naive_orbit():
    """The merged finite / p-adic path against direct enumeration of the
    terms: ``residue_support`` against a Counter of ``term(k)``, and
    ``sup_deviation`` against the naive translated density at every
    element, for either sign and N below and above the period."""
    cases = 0
    for g, a, K in _enumerable_cases():
        mu = K.measure()
        for b in (a, g.inv(a)):  # either direction of the orbit
            seq = OrbitSequence(g, b)
            period = g.element_order(a)
            for N in sorted({max(2, (period + 1) // 2), 2 * period + 3}):
                support = seq.residue_support(N)
                assert dict(support) == Counter(seq.term(k) for k in range(1, N))
                assert len(dict(support)) == len(support)
                naive = max(abs(naive_density(K, seq, N, x) - mu) for x in g.elements())
                assert sup_deviation(K, seq, N) == float(naive)
                cases += 1
    assert cases > 100


def full_context_count(K, seq, N, x=None):
    """The exhaustive count on the set's own context, as it ran before the
    resolving context: every term y of the orbit's support on the full
    context, x + y tested against K (y itself when x is None)."""
    g = seq.group
    return sum(mult for y, mult in seq.residue_support(N) if K.contains(y if x is None else g.mul(x, y)))


@st.composite
def resolving_cases(draw):
    """A zp / qp context of at most 243 residues (p in {2, 3, 5}, window
    0-2), an empty, full or 1-4 ball set with levels -window..precision, an
    element of every valuation (zero included), either sign, a translate,
    and N on either side of the orbit's period."""
    p = draw(st.sampled_from([2, 3, 5]))
    precision, window = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    assume(p ** (precision + window) <= 243)
    ctx = PAdicContext(p, precision, window)
    kind = draw(st.sampled_from(["balls", "balls", "empty", "full"]))
    if kind == "empty":
        K = BallSet.empty(ctx)
    elif kind == "full":
        K = BallSet.full(ctx)
    else:
        balls = st.tuples(st.integers(-window, precision), st.integers(0, ctx.modulus - 1))
        K = BallSet.from_balls(ctx, draw(st.lists(balls, min_size=1, max_size=4)))
    v = draw(st.integers(0, ctx.digit_count))
    unit = draw(st.integers(1, ctx.modulus - 1).filter(lambda u: u % p))
    a = ctx.from_residue(unit * p ** v)
    period = ctx.element_order(a)
    N = draw(st.one_of(st.integers(2, max(2, period)), st.integers(period + 1, 3 * period + 3)))
    x = ctx.from_residue(draw(st.integers(0, ctx.modulus - 1)))
    return OrbitSequence(ctx, draw(st.sampled_from([a, -a]))), K, N, x


@settings(max_examples=60, deadline=None)
@given(resolving_cases())
@example((OrbitSequence(PAdicContext(3, 2, 1), PAdicContext(3, 2, 1).from_residue(2)),
          BallSet.from_balls(PAdicContext(3, 2, 1), [(-1, 0), (0, 1)]), 7,
          PAdicContext(3, 2, 1).from_residue(5)))
def test_resolving_context_counts_equal_the_full_context(case):
    seq, K, N, x = case
    mu = K.measure()
    counts = [full_context_count(K, seq, N, y) for y in seq.group.elements()]
    assert sup_deviation(K, seq, N) == float(max(abs(Fraction(c, N) - mu) for c in counts))
    assert density(K, seq, N) == Fraction(full_context_count(K, seq, N), N)
    assert translated_density(K, x, seq, N) == Fraction(counts[x.residue], N)


def test_exhaustive_count_visits_only_the_resolving_cosets(monkeypatch):
    # a radius-2 ball of a 3^8 context is resolved mod 3^2: 9 translates
    # are counted, not 6561
    ctx = PAdicContext(3, 8)
    seq = OrbitSequence(ctx, ctx.element(1))
    translates = []
    count = equidist._support_count
    monkeypatch.setattr(equidist, "_support_count",
                        lambda K, group, support, x=None: translates.append(x) or count(K, group, support, x))
    # 999 terms meet each class mod 9 exactly 111 times
    assert sup_deviation(ball(ctx, 4, 2), seq, 1000) == float(Fraction(1, 9000))
    assert len(translates) == 9
    assert {x.context.modulus for x in translates} == {9}


VARIANTS = ["open", "closed", "half_open", "half_open_right"]
ORACLE = settings(max_examples=40, deadline=None)


@st.composite
def near_rational_cases(draw):
    """A float p/q + {0, +-1e-16, 2^-45} or a declared rational p/q (q <= 97);
    1-3 sets, each of 1-3 arcs with mixed ends (closed ones among them) plus
    up to two isolated points, all ends drawn from one small pool, so that
    points sit on arc ends and sets share ends, and many of them on the grid
    1/q, so that events meet at one position; 1-3 horizons N <= 160, which
    often pass q + 1, where the points of a declared rational carry
    multiplicities."""
    q = draw(st.integers(2, 97))
    if draw(st.booleans()):
        shift = draw(st.sampled_from([0.0, 1e-16, -1e-16, 2.0 ** -45]))
        a = CIRCLE.from_float(draw(st.integers(1, q - 1)) / q + shift)
    else:
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    # ends on the grid 1/q make events of a declared rational meet
    grid = st.integers(1, q - 1).map(lambda k: Fraction(k, q))
    pool = sorted({Fraction(0), Fraction(1), *draw(st.lists(grid, min_size=1, max_size=3)),
                   *draw(st.lists(st.fractions(0, 1, max_denominator=97), max_size=3))})
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        K = IntervalSet.empty()
        for _ in range(draw(st.integers(1, 3))):
            lo = draw(st.sampled_from(pool[:-1]))
            hi = draw(st.sampled_from([b for b in pool if b > lo]))
            K = K.union(interval(lo, hi, draw(st.sampled_from(VARIANTS))))
        points = draw(st.lists(st.sampled_from(pool[:-1]), max_size=2))
        sets.append(K.union(IntervalSet.from_pieces([], points)))
    Ns = draw(st.lists(st.integers(2, 160), min_size=1, max_size=3, unique=True))
    return a, sets, Ns


def _assert_spec_level_deviations(a, sets, Ns):
    # one call for every set and horizon, as a spec makes it
    want = [[oracle.sup_deviation(K, a, N) for N in Ns] for K in sets]
    assert sup_deviation(sets, OrbitSequence(CIRCLE, a), Ns) == want


def test_spec_level_deviations_at_shared_fused_and_repeated_points():
    # a closed arc and a half-open one sharing the end 3/4, an isolated point
    # at an arc end, events meeting on the grid 1/4, points of multiplicity 2-7
    _assert_spec_level_deviations(
        CIRCLE.element(Fraction(1, 4)),
        [interval(Fraction(1, 4), Fraction(3, 4), "closed"),
         interval(Fraction(3, 4), 1, "half_open").union(IntervalSet.from_pieces([], [Fraction(1, 2)]))],
        [3, 10, 30])


def test_sup_deviation_takes_lists_of_both_or_neither():
    seq = OrbitSequence(CIRCLE, CIRCLE.element(Fraction(1, 4)))
    K = interval(Fraction(1, 4), Fraction(3, 4), "closed")
    with pytest.raises(TypeError):
        sup_deviation([K], seq, 10)
    with pytest.raises(TypeError):
        sup_deviation(K, seq, [10])


@ORACLE
@given(near_rational_cases(), st.data())
def test_circle_counts_match_exact_oracle(case, data):
    a, sets, Ns = case
    _assert_spec_level_deviations(a, sets, Ns)
    seq = OrbitSequence(CIRCLE, a)
    K, N = sets[0], max(Ns)
    assert sup_deviation(K, seq, N) == oracle.sup_deviation(K, a, N)
    # a translate at an event position, where the float counter went wrong
    b = data.draw(st.sampled_from(sorted({lo for lo, _ in K.open_part} | set(K.point_part))))
    x = (b + a.value * data.draw(st.integers(1, N - 1))) % 1
    x += data.draw(st.sampled_from([0, Fraction(1, 10 ** 20)]))
    assert translated_density(K, CIRCLE.element(x), seq, N) == naive_density(K, seq, N, CIRCLE.element(x))
    if K.measure() < 1:
        w = StepWeight(StepFunction.of([(K, Fraction(2)), (K.complement(), Fraction(1, 3))]))
        values_at = oracle.step_values_at(w, a)
        rows = exact_oracle.walk_rows(circle_step_rows(w, a))
        for n, (row_n, points, _, values) in zip(range(1, 7), rows):
            assert row_n == n
            pairs = oracle.row_pairs(points, values)
            full = values_at(n)
            assert {v for _, v in pairs} == {v for _, v in full}
            assert set(pairs) <= set(full)


@st.composite
def walk_cases(draw):
    """A declared rational p/q with q <= 12, so that a walk of up to 40
    points wraps the orbit, or a float angle whose denominator the orbit
    holds (at least 2^-12 from an integer); 1-3 sets, each of 0-2 arcs
    with mixed ends (closed ones among them) and up to two isolated points."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 12))
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    else:
        a = CIRCLE.from_float(draw(st.floats(2.0 ** -12, 1 - 2.0 ** -12)))
    sets = []
    for _ in range(draw(st.integers(1, 3))):
        K = IntervalSet.empty()
        for _ in range(draw(st.integers(0, 2))):
            den = draw(st.integers(2, 24))
            lo = draw(st.integers(0, den - 1))
            hi = draw(st.integers(lo + 1, den))
            K = K.union(interval(Fraction(lo, den), Fraction(hi, den), draw(st.sampled_from(VARIANTS))))
        points = draw(st.lists(st.fractions(0, 1).filter(lambda f: f < 1 and f.denominator <= 24), max_size=2))
        sets.append(K.union(IntervalSet.from_pieces([], points)))
    return a, sets, draw(st.integers(1, 40))


@ORACLE
# events at 2/7 and 5/7 for the point 0 sum to D = 7: the wrapping cell's
# midpoint is 0, so it comes first
@example((CIRCLE.element(Fraction(1, 7)), [interval(Fraction(2, 7), Fraction(5, 7), "open")], 1))
@given(walk_cases())
def test_prepared_boundaries_serve_every_n(case):
    # one Boundaries object read by every n of a walk gives the sweep a
    # fresh one gives, candidate by candidate, and the last sweep is the
    # brute-force one
    a, sets, n_max = case
    seq = OrbitSequence(CIRCLE, a)
    D = a.value.denominator
    bounds = Boundaries.prepare(D, *sets)
    for n in range(1, n_max + 1):
        counter = OrbitCounter.from_sequence(seq, n, first=0)
        reused = counter.sup_candidates(bounds)
        fresh = counter.sup_candidates(Boundaries.prepare(D, *sets))
        assert np.array_equal(reused.counts, fresh.counts)
        assert [reused.translate(j) for j in range(len(reused))] == [fresh.translate(j) for j in range(len(fresh))]
    expected = oracle.sweep(oracle.orbit_points(a, range(n_max)), sets)
    assert [(reused.translate(j), tuple(reused.counts[j])) for j in range(len(reused))] == expected


@ORACLE
# events at 3/10 and 9/10 for the point 0: row 1's wrapping cell comes first
@example((CIRCLE.element(Fraction(1, 7)), [interval(Fraction(3, 10), Fraction(9, 10), "open")], 12), 3)
@given(walk_cases(), st.integers(1, 40))
def test_block_sweeps_are_the_per_n_sweeps(case, horizon):
    # every row of a block walk, in the first block or a later one, holds
    # the counts of the sweep of its own n-point product orbit, in order
    a, sets, n_max = case
    seq = OrbitSequence(CIRCLE, a)
    bounds = Boundaries.prepare(a.value.denominator, *sets)
    rows = (block.counts[block.offsets[q]:block.offsets[q + 1]]
            for block in sweep_blocks(bounds, seq, horizon) for q in range(len(block)))
    for n, got in zip(range(1, n_max + 1), rows):
        want = OrbitCounter.from_sequence(seq, n, first=0).sup_candidates(bounds)
        assert np.array_equal(got, want.counts)


def test_a_block_past_the_budget_still_holds_one_row(monkeypatch):
    # every row holds more counts than the budget, so each block ends after
    # its first row, and the walk still moves on
    monkeypatch.setattr(equidist, "BLOCK_ENTRIES", 1)
    a = CIRCLE.element(Fraction(1, 7))
    bounds = Boundaries.prepare(7, interval(Fraction(1, 3), Fraction(1, 2), "open"))
    blocks = itertools.islice(sweep_blocks(bounds, OrbitSequence(CIRCLE, a), 4), 4)
    assert [(block.start, len(block)) for block in blocks] == [(0, 1), (1, 1), (2, 1), (3, 1)]


@pytest.mark.parametrize("sets,points", [((IntervalSet.empty(), IntervalSet.empty()), 5),
                                         ((interval(Fraction(1, 3), Fraction(1, 2), "open"),), 0)],
                         ids=["empty-sets", "empty-orbit"])
def test_a_sweep_without_events_has_one_candidate(sets, points):
    # no set boundaries, or no orbit points: the only candidate is the
    # translate 0, where every set counts nothing
    seq = OrbitSequence(CIRCLE, CIRCLE.element(Fraction(1, 7)))
    sweep = OrbitCounter.from_sequence(seq, points).sup_candidates(Boundaries.prepare(7, *sets))
    assert sweep.events is None
    assert len(sweep) == 1
    assert sweep.translate(0) == 0
    assert np.array_equal(sweep.counts, np.zeros((1, len(sets)), dtype=np.int64))
    assert sweep.extremes() == [(0, 0)] * len(sets)


def test_boundaries_belong_to_one_denominator():
    K = interval(Fraction(1, 3), Fraction(1, 2), "open")
    counter = OrbitCounter.from_sequence(OrbitSequence(CIRCLE, CIRCLE.element(Fraction(1, 5))), 4)
    with pytest.raises(ValueError, match="denominator 7"):
        counter.sup_candidates(Boundaries.prepare(7, K))


def test_count_in_translated_is_the_brute_force_count():
    # translates that carry an arc across 0 reach _between past one period
    sets = [interval(Fraction(1, 2), 1, "open"), interval(Fraction(3, 4), Fraction(1, 4), "closed"),
            interval(0, Fraction(1, 3), "half_open"), interval(Fraction(2, 5), Fraction(4, 5), "half_open_right"),
            IntervalSet.full(), IntervalSet.from_pieces((), [Fraction(2, 5), Fraction(7, 10)])]
    shifts = [Fraction(k, 10) for k in range(-10, 11)] + [Fraction(1, 3), Fraction(-5, 7)]
    for angle, N in ((Fraction(1, 5), 20), (Fraction(2, 7), 9), (Fraction(3, 8), 30), (Fraction(7, 10), 12)):
        seq = OrbitSequence(CIRCLE, CIRCLE.element(angle))
        counter = OrbitCounter.from_sequence(seq, N)
        for K in sets:
            got = counter.count_in_translated(K, shifts).tolist()
            assert got == [sum(K.contains(seq.term(k).value + x) for k in range(1, N)) for x in shifts]


def test_sup_deviation_near_rational_float():
    # 0.2 as a float is 3602879701896397/2^54: its 299 orbit points are
    # distinct, and none of them lies on the boundary of (1/5, 3/5)
    a = CIRCLE.from_float(0.2)
    K = interval(Fraction(1, 5), Fraction(3, 5), "open")
    sup = sup_deviation(K, OrbitSequence(CIRCLE, a), 300)
    assert sup == oracle.sup_deviation(K, a, 300)
    assert sup == pytest.approx(0.0033, abs=5e-5)


def test_sup_deviation_at_the_denominator_limit():
    # D = 2^64 exactly (uint64 wraparound) and D = 2^64 - 59 (modular
    # doubling); no room is left in a uint64 for a row beside the integer
    # part, so the events are ordered without packed keys
    K = interval(Fraction(1, 3), Fraction(5, 7), "closed").union(interval(0, Fraction(1, 9), "open"))
    # a second set sharing the end 5/7, with an isolated point at its own end
    K2 = interval(Fraction(5, 7), Fraction(8, 9), "half_open").union(IntervalSet.from_pieces([], [Fraction(8, 9)]))
    for a in (CIRCLE.from_float(2.0 ** -12 + 2.0 ** -64),
              CIRCLE.element(Fraction(12345678901234567, 2 ** 64 - 59))):
        seq = OrbitSequence(CIRCLE, a)
        want = [[oracle.sup_deviation(S, a, N) for N in (2, 40)] for S in (K, K2)]
        assert sup_deviation([K, K2], seq, [2, 40]) == want
        for N, dev in zip((2, 40), want[0]):
            assert sup_deviation(K, seq, N) == dev


def _four_closed_arcs():
    K = IntervalSet.empty()
    for lo, hi in [(Fraction(1, 10), Fraction(1, 5)), (Fraction(3, 10), Fraction(9, 20)),
                   (Fraction(1, 2), Fraction(3, 5)), (Fraction(7, 10), Fraction(9, 10))]:
        K = K.union(interval(lo, hi, "closed"))
    return K


_SIXTHS = [interval(Fraction(1, 6), Fraction(1, 2), "open"),
           interval(Fraction(1, 3), Fraction(2, 3), "half_open")]

# (angle, sets, horizons, whether some events share a position): the
# branches of the sweep's extremes that irrational angles never take
_EXTREMES_CASES = {
    # ends on the grid 1/6 of a declared 1/6: events meet at one position
    "tied": (CIRCLE.element(Fraction(1, 6)), _SIXTHS, [4, 6], True),
    # N - 1 > q: points of multiplicity up to 8, with and without ties
    "repeated": (CIRCLE.element(Fraction(2, 5)), [interval(Fraction(1, 7), Fraction(4, 7), "closed")],
                 [13, 40], False),
    "tied and repeated": (CIRCLE.element(Fraction(1, 6)), _SIXTHS, [20, 31], True),
    # D = 2^61 and 8 rows leave no room for the row beside the integer part:
    # the events are ordered by argsort
    "unpacked": (CIRCLE.from_float(2.0 ** -12 + 2.0 ** -61), [_four_closed_arcs()], [2, 50], False),
    "isolated points": (CIRCLE.from_float(0.6180339887498949),
                        [IntervalSet.from_pieces([], [Fraction(0), Fraction(1, 3), Fraction(5, 7)])],
                        [2, 30], False),
    "across zero": (CIRCLE.element(Fraction(3, 11)),
                    [interval(Fraction(5, 6), Fraction(1, 6), "closed"),
                     interval(Fraction(9, 10), Fraction(1, 10), "open").union(
                         IntervalSet.from_pieces([], [Fraction(1, 2)]))], [7, 30], False),
    "empty and full": (CIRCLE.from_float(0.6180339887498949), [IntervalSet.empty(), IntervalSet.full()],
                       [2, 30], False),
}


@pytest.mark.parametrize("case", sorted(_EXTREMES_CASES))
def test_sweep_extremes_match_the_oracle(case):
    a, sets, Ns, shared = _EXTREMES_CASES[case]
    _assert_spec_level_deviations(a, sets, Ns)
    # each sweep's extremes are those of its candidate counts, and the
    # case takes the branch it names
    seq, D = OrbitSequence(CIRCLE, a), a.value.denominator
    ties = []
    for K in sets:
        bounds = Boundaries.prepare(D, K)
        if case == "unpacked":
            assert D > 2 ** (63 - (len(bounds.floors) - 1).bit_length())
        for N in Ns:
            sweep = OrbitCounter.from_sequence(seq, N).sup_candidates(bounds)
            if K.is_empty():
                assert len(sweep) == 1
            else:
                ties.append(not sweep.events.last.all())
            assert sweep.extremes() == [(int(sweep.counts.min()), int(sweep.counts.max()))]
    assert any(ties) == shared


def test_sup_deviation_memory_per_event():
    # 4 closed arcs (8 boundary rows) at N = 2e5: the extremes are read from
    # the events' sums, with no count array per candidate (72 bytes per
    # event when one was built and rolled)
    K, seq, N = _four_closed_arcs(), OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN)), 200_000
    sup_deviation(K, seq, 100)
    tracemalloc.start()
    try:
        sup_deviation(K, seq, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 8 * (N - 1)


# ---------------------------------------------------------------------------
# the float remainder

_REMAINDER_CASES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    # tiny negatives whose remainder rounds up to 1.0
    -1e-17, -1e-300, -2.0 ** -54,
    2.0 ** 52, -(2.0 ** 52) - 1.0, 2.0 ** 52 + 0.5, 2.0 ** 60, -(2.0 ** 60), 1.7e308, -1.7e308,
    math.inf, -math.inf, math.nan, -math.nan,
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=24),
       st.sampled_from(["0-d", "1-d", "2-d"]))
def test_frac_is_np_mod_bit_for_bit(drawn, shape):
    values = np.array(drawn + _REMAINDER_CASES)
    if shape == "0-d":
        inputs = [np.array(v) for v in values]
    elif shape == "1-d":
        inputs = [values]
    else:
        pairs = values[:len(values) // 2 * 2].reshape(2, -1)
        inputs = [values.reshape(len(values), 1), pairs, pairs.T]
    with np.errstate(invalid="ignore"):
        for x in inputs:
            got = equidist._frac(x)
            assert got.shape == x.shape
            assert np.array_equal(got.view(np.uint64), np.asarray(np.mod(x, 1.0)).view(np.uint64))


@pytest.mark.parametrize("shape", [(3 * equidist._FLOOR_SLICE + 7,), (5, equidist._FLOOR_SLICE // 2 + 3), ()])
def test_frac_in_place_is_np_mod_bit_for_bit(shape):
    # in place, the floors go through a scratch array one slice at a time:
    # every slice, the last short one included, is reduced
    values = np.resize(np.array(_REMAINDER_CASES + [0.375, -7.25, 1e16 + 2.0, 3.5, -0.125]), shape)
    inplace = values.copy()
    with np.errstate(invalid="ignore"):
        assert equidist._frac(inplace, out=inplace) is inplace
        want = np.mod(values, 1.0)
    assert np.array_equal(inplace.view(np.uint64), np.asarray(want).view(np.uint64))


def test_mod1_folds_a_remainder_of_one_to_zero():
    x = np.array([-1e-17, -1e-300, -0.25, 0.5, 3.0])
    assert np.mod(x[:2], 1.0).tolist() == [1.0, 1.0]
    assert equidist._mod1(x).tolist() == [0.0, 0.0, 0.75, 0.5, 0.0]
    assert equidist._mod1(np.array(-1e-17)).tolist() == 0.0


# ---------------------------------------------------------------------------
# ergodic averages and the character bound


def test_ergodic_average_constant():
    f = TestFunction.constant(2.5)
    a = CIRCLE.from_float(GOLDEN)
    for N in (2, 7, 50):
        g = ergodic_average(f, a, N, 0.3)
        assert abs(g - 2.5 * (N - 1) / N) < 1e-12


def test_ergodic_average_half_rotation():
    f = TestFunction.character(1)
    g = ergodic_average(f, CIRCLE.element("1/2"), 3, 0.0)
    # (e(1/2) + e(0)) / 3 = (-1 + 1)/3
    assert abs(g) < 1e-12


def test_ergodic_average_geometric_bound():
    f = TestFunction.character(1)
    a = CIRCLE.from_float(GOLDEN)
    rng = random.Random(13)
    for N in (10, 100, 1000):
        bound = weyl_bound(1, a, N)
        for _ in range(20):
            g = ergodic_average(f, a, N, rng.random())
            assert abs(g) <= bound


def test_weyl_bound_values():
    assert weyl_bound(1, CIRCLE.element("1/2"), 10) == pytest.approx(0.1, abs=0)
    assert weyl_bound(1, CIRCLE.element("1/4"), 8) == pytest.approx(2 / (8 * math.sqrt(2)), rel=1e-15)
    with pytest.raises(FixedCharacterError):
        weyl_bound(4, CIRCLE.element("1/4"), 10)
    # the bound is 2 / (N |1 - e(ka)|)
    a = CIRCLE.element("1/3")
    assert weyl_bound(1, a, 5) == pytest.approx(2 / (5 * abs(1 - cmath.exp(2j * math.pi / 3))), rel=1e-12)


def test_sweep_character_respects_bound():
    for af in (GOLDEN, math.sqrt(2) - 1):
        a = CIRCLE.from_float(af)
        for k in (1, 2, 3):
            for pt in uniform_convergence_sweep(k, a, [10, 100, 1000]):
                assert pt.bound is not None
                assert pt.sup_deviation <= pt.bound
    # |1 - e(1/3)| = sqrt(3)
    for pt in uniform_convergence_sweep(1, CIRCLE.element("1/3"), [9, 99]):
        assert pt.bound == pytest.approx(2 / (pt.N * math.sqrt(3)), rel=1e-12)
        assert pt.sup_deviation <= pt.bound


def _exact_character_deviation(k, a, N):
    """|sum_{n=1}^{N-1} e(-kna) - N mean| / N at the exact angle a, via mpmath
    at enough digits for phases up to N k a ~ 10^57."""
    if k == 0:
        return mpmath.mpf(1) / N
    if (k * a) % 1 == 0:
        return mpmath.mpf(N - 1) / N
    if ((N - 1) * k * a) % 1 == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(120):
        t = mpmath.pi * (k * a.numerator) / a.denominator
        return abs(mpmath.sin((N - 1) * t) / mpmath.sin(t)) / N


@st.composite
def character_cases(draw):
    kind = draw(st.sampled_from(["float", "small", "large"]))
    if kind == "float":
        a = CIRCLE.from_float(draw(st.floats(0.0, 1.0, exclude_max=True)))
    else:
        q = draw(st.integers(1, 12) if kind == "small" else st.integers(13, 2 ** 64))
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    k = draw(st.integers(-8, 8) | st.integers(-10 ** 30, 10 ** 30))
    if a.value.denominator <= 2 ** 64 and draw(st.booleans()):
        k = draw(st.integers(-3, 3)) * a.value.denominator  # a fixed character
    N_list = draw(st.lists(st.integers(2, 10 ** 7), min_size=1, max_size=4))
    return k, a, N_list


@settings(max_examples=300, deadline=None)
@given(character_cases())
# a subnormal angle, D = 2^1074, and a rational one just past 2^64
@example((1, CIRCLE.from_float(5e-324), [10]))
@example((3, CIRCLE.element(Fraction(1, 2 ** 64 + 1)), [10]))
@example((10 ** 30, CIRCLE.element(Fraction(1, 2 ** 64)), [2, 10 ** 7]))
@example((8, CIRCLE.from_float(GOLDEN), [10 ** 7]))
@example((6, CIRCLE.element("1/3"), [2, 3, 10 ** 7]))
def test_character_sweep_closed_form(case):
    k, a, N_list = case
    if a.value.denominator > 2 ** 64:
        # as for every circle statistic, the residues mod D fit in uint64
        with pytest.raises(ValueError, match="angle denominator exceeds 2\\^64"):
            uniform_convergence_sweep(k, a, N_list)
        return
    points = uniform_convergence_sweep(k, a, N_list)
    assert [pt.N for pt in points] == sorted(set(N_list))
    fixed = (k * a.value) % 1 == 0
    for pt in points:
        exact = _exact_character_deviation(k, a.value, pt.N)
        assert abs(pt.sup_deviation - exact) <= 1e-14 * exact
        assert (pt.bound is None) == fixed
        if pt.bound is not None:
            assert pt.sup_deviation <= pt.bound
            with mpmath.workdps(120):
                bound = 1 / (pt.N * abs(mpmath.sin(mpmath.pi * (k * a.value.numerator) / a.value.denominator)))
            assert abs(pt.bound - bound) <= 1e-14 * bound


def test_character_sweep_takes_no_loop_over_n():
    # one row at the largest horizon is two sines, not 10^7 terms
    a = CIRCLE.from_float(GOLDEN)
    uniform_convergence_sweep(8, a, [10 ** 7])
    assert min(timeit.repeat(lambda: uniform_convergence_sweep(8, a, [10 ** 7]), number=1, repeat=5)) < 1e-3


def test_fixed_character_sweep_is_one_minus_one_over_n():
    Ns = [2, 3, 10, 99, 100, 2048, 2049, 10_000]
    for pt in uniform_convergence_sweep(3, CIRCLE.element("1/3"), Ns):
        assert pt.bound is None
        assert pt.sup_deviation == (pt.N - 1) / pt.N


# ---------------------------------------------------------------------------
# structural properties of the averaging map


def test_average_linearity():
    rng = random.Random(14)
    a = CIRCLE.from_float(GOLDEN)
    f1 = TestFunction.character(1)
    f2 = TestFunction.character(2)
    for _ in range(10):
        A = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = TestFunction(lambda t, A=A, B=B: A * f1.fn(t) + B * f2.fn(t))
        x = rng.random()
        N = rng.randrange(2, 200)
        lhs = ergodic_average(combo, a, N, x)
        rhs = A * ergodic_average(f1, a, N, x) + B * ergodic_average(f2, a, N, x)
        assert abs(lhs - rhs) < 1e-12


def test_average_contraction():
    rng = random.Random(15)
    a = CIRCLE.from_float(GOLDEN)
    f = TestFunction(lambda t: np.exp(2j * np.pi * np.asarray(t)) + 0.5)
    sup_f = 1.5
    for _ in range(20):
        g = ergodic_average(f, a, rng.randrange(2, 100), rng.random())
        assert abs(g) <= sup_f + 1e-12
