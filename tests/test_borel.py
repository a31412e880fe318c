import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ball_oracle as oracle
import interval_oracle
from hclab.borel import (
    BallSet,
    FiniteSubset,
    IntervalSet,
    SetForm,
    ball,
    circle_points,
    interval,
)
from hclab.errors import ContextMismatch, WindowExceeded
from hclab.groups import PAdicContext, catalog
from hclab.weights import StepFunction


def random_interval_set(rng, max_arcs=3, den=32):
    """Random algebra member: a union of arcs with rational endpoints plus
    isolated points."""
    acc = IntervalSet.empty()
    for _ in range(rng.randint(0, max_arcs)):
        a = Fraction(rng.randrange(den), den)
        b = Fraction(rng.randrange(den), den)
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        variant = rng.choice(["open", "closed", "half_open", "half_open_right"])
        acc = acc.union(interval(lo, hi, variant))
    for _ in range(rng.randint(0, 2)):
        acc = acc.union(circle_points(Fraction(rng.randrange(den), den)))
    return acc


def random_ball_set(rng, ctx, max_balls=3):
    acc = BallSet.empty(ctx)
    for _ in range(rng.randint(0, max_balls)):
        j = rng.randint(-ctx.window, ctx.precision)
        c = rng.randrange(ctx.modulus)
        acc = acc.union(ball(ctx, ctx.from_residue(c), j))
    return acc


def probe_points(*sets):
    """All endpoints and isolated points of the sets, nudged both ways, plus
    a few generic angles: enough to distinguish membership everywhere."""
    pts = {Fraction(1, 7), Fraction(3, 7), Fraction(6, 7)}
    for s in sets:
        for lo, hi in s.open_part:
            for e in (lo % 1, hi % 1):
                pts.add(e)
                pts.add((e + Fraction(1, 1024)) % 1)
                pts.add((e - Fraction(1, 1024)) % 1)
        pts.update(s.point_part)
    return sorted(pts)


# ---------------------------------------------------------------------------
# pinned examples


def test_union_disjoint_measures():
    A = interval(0, Fraction(1, 4), "open")
    B = interval(Fraction(1, 2), Fraction(3, 4), "closed")
    assert A.union(B).measure() == Fraction(1, 2)


def test_union_of_halves_is_full_circle():
    A = interval(0, Fraction(1, 2), "half_open")
    B = interval(Fraction(1, 2), 1, "half_open")
    U = A.union(B)
    assert U == IntervalSet.full()
    assert U.measure() == 1


def test_ball_sibling_merge():
    ctx = PAdicContext(3, 2)
    U = BallSet.empty(ctx)
    for r in range(3):
        U = U.union(ball(ctx, ctx.from_residue(r), 1))
    assert U == BallSet.full(ctx)
    assert U.balls == ((0, 0),)
    # oracle: residues mod 3 cover everything
    assert sorted(U.finest_residues()) == list(range(9))


def test_complement_examples():
    A = interval(0, Fraction(1, 2), "half_open")
    C = A.complement()
    assert C == interval(Fraction(1, 2), 1, "half_open")
    assert C.measure() == Fraction(1, 2)

    P = circle_points(Fraction(1, 2))
    assert P.complement().measure() == 1

    ctx = PAdicContext(3, 2)
    C3 = ball(ctx, 0, 1).complement()
    assert C3.measure() == Fraction(2, 3)
    assert C3 == ball(ctx, 1, 1).union(ball(ctx, 2, 1))


def test_measure_examples():
    # all four endpoint variants of the same arc have the same measure
    for variant in ("open", "closed", "half_open", "half_open_right"):
        assert interval(0, Fraction(1, 2), variant).measure() == Fraction(1, 2)
    ctx = PAdicContext(3, 3)
    assert ball(ctx, 0, 2).measure() == Fraction(1, 9)
    assert IntervalSet.empty().measure() == 0


def test_contains_endpoint_flags():
    half_open = interval(0, Fraction(1, 2), "half_open")
    assert half_open.contains(0)
    assert not half_open.contains(Fraction(1, 2))
    assert not interval(0, Fraction(1, 2), "open").contains(0)
    ctx = PAdicContext(3, 2)
    assert ball(ctx, 1, 1).contains(ctx.from_digits([1, 2]))  # 7 = 1 mod 3


def test_classify_examples():
    assert interval(0, Fraction(1, 2), "closed").classify() is SetForm.FORM1
    assert circle_points(Fraction(1, 2)).classify() is SetForm.FORM2
    mixed = interval(0, Fraction(1, 4), "closed").union(circle_points(Fraction(1, 2)))
    assert mixed.classify() is SetForm.FORM3


def test_ball_radius_window_guard():
    ctx = PAdicContext(3, 2, window=1)
    ball(ctx, 0, -1)  # the full windowed group
    with pytest.raises(WindowExceeded):
        ball(ctx, 0, -2)
    with pytest.raises(WindowExceeded):
        ball(ctx, 0, 3)


# ---------------------------------------------------------------------------
# algebra laws (seeded random)


def test_measure_complement_partition():
    rng = random.Random(2)
    for _ in range(200):
        A = random_interval_set(rng)
        assert A.measure() + A.complement().measure() == 1
    ctx = PAdicContext(2, 4)
    for _ in range(200):
        B = random_ball_set(rng, ctx)
        assert B.measure() + B.complement().measure() == 1


def test_operations_idempotent_normalization():
    rng = random.Random(3)
    for _ in range(100):
        A = random_interval_set(rng)
        assert A.union(A) == A
        assert A.complement().complement() == A
        assert A.union(IntervalSet.empty()) == A


def test_membership_pointwise_laws_circle():
    rng = random.Random(4)
    for _ in range(200):
        A = random_interval_set(rng)
        B = random_interval_set(rng)
        U, C = A.union(B), A.complement()
        for x in probe_points(A, B):
            assert U.contains(x) == (A.contains(x) or B.contains(x))
            assert C.contains(x) != A.contains(x)
            assert A.intersection(B).contains(x) == (A.contains(x) and B.contains(x))


def test_membership_pointwise_laws_padic_exhaustive():
    rng = random.Random(5)
    ctx = PAdicContext(3, 2)
    for _ in range(100):
        A = random_ball_set(rng, ctx)
        B = random_ball_set(rng, ctx)
        U, C = A.union(B), A.complement()
        for r in range(ctx.modulus):
            x = ctx.from_residue(r)
            assert U.contains(x) == (A.contains(x) or B.contains(x))
            assert C.contains(x) != A.contains(x)


def test_membership_dense_grid_cross_check():
    rng = random.Random(6)
    A = random_interval_set(rng)
    B = random_interval_set(rng)
    U = A.union(B)
    for i in range(10_000):
        x = Fraction(i, 10_000)
        assert U.contains(x) == (A.contains(x) or B.contains(x))


# ---------------------------------------------------------------------------
# classification closure table


def unpinch(A):
    """Include every junction point shared by two arcs (mod 1).

    A junction excluded from the set makes the complement carry an isolated
    point off the closure of its interior, which genuinely leaves the
    form1/form2 dichotomy (see test_pinched_counterexample); the closure
    table is stated for sandwich sets without such pinches.
    """
    endpoints = {}
    for lo, hi in A.open_part:
        for e in (lo % 1, hi % 1):
            endpoints[e] = endpoints.get(e, 0) + 1
    junctions = [e for e, c in endpoints.items() if c > 1]
    return A.union(circle_points(*junctions)) if junctions else A


def test_classification_closure_table():
    rng = random.Random(8)
    for _ in range(300):
        A = unpinch(random_interval_set(rng))
        B = unpinch(random_interval_set(rng))
        fa, fb = A.classify(), B.classify()
        if fa is SetForm.FORM1:
            assert A.complement().classify() in (SetForm.FORM1, SetForm.FORM2)
        if fa is SetForm.FORM1 and fb is SetForm.FORM1:
            assert A.union(B).classify() is SetForm.FORM1
        if fa is SetForm.FORM2:
            assert A.complement().classify() is SetForm.FORM1
        if fa is SetForm.FORM2 and fb is SetForm.FORM2:
            assert A.union(B).classify() is SetForm.FORM2


def test_pinched_counterexample():
    # two open arcs sharing an excluded endpoint: the set is form 1 (it is
    # open with null boundary), but its complement carries the junction as an
    # isolated point away from the interior closure, which is form 3
    A = interval(Fraction(1, 8), Fraction(1, 2), "open").union(
        interval(Fraction(1, 2), Fraction(3, 4), "open")
    )
    assert A.classify() is SetForm.FORM1
    C = A.complement()
    assert C.contains(Fraction(1, 2))
    assert C.classify() is SetForm.FORM3
    # including the junction removes the pinch and restores the dichotomy
    B = unpinch(A)
    assert B.classify() is SetForm.FORM1
    assert B.complement().classify() in (SetForm.FORM1, SetForm.FORM2)


def test_boundaries_are_finite():
    rng = random.Random(9)
    for _ in range(100):
        A = random_interval_set(rng)
        assert len(A.boundary_points()) <= 2 * len(A.open_part)
    # a ball set is clopen: nonempty ones are FORM1 outright
    ctx = PAdicContext(5, 2)
    assert ball(ctx, 3, 1).classify() is SetForm.FORM1
    assert BallSet.empty(ctx).classify() is SetForm.FORM2


@pytest.mark.parametrize("name", ["Z1", "Z7", "S3", "Q8", "A4", "Z2xZ2xZ2"])
def test_finite_subset_algebra_is_the_frozenset_algebra(name):
    g = catalog()[name]
    rng = random.Random(name)
    for _ in range(40):
        a, b = ({x for x in g.elements() if rng.random() < 0.5} for _ in range(2))
        A, B = FiniteSubset.of(g, a), FiniteSubset.of(g, b)
        for got, want in ((A.union(B), a | b), (A.intersection(B), a & b),
                          (A.difference(B), a - b), (A.complement(), set(g.elements()) - a)):
            assert got == FiniteSubset.of(g, want)
            assert frozenset(x for x in g.elements() if got.contains(x)) == want
            assert got.measure() == Fraction(len(want), g.order)
            assert got.is_empty() == (not want)
    with pytest.raises(ContextMismatch):
        FiniteSubset.full(g).union(FiniteSubset.full(catalog()["Z6"]))


def test_finite_subsets_are_clopen():
    g = catalog()["S3"]
    S = FiniteSubset.of(g, [0, 2, 4])
    assert S.classify() is SetForm.FORM1
    assert S.complement() == FiniteSubset.of(g, [1, 3, 5])
    assert S.measure() == Fraction(1, 2)
    assert not S.contains(-2) and not S.contains(6)  # outside the group, never members
    assert FiniteSubset.empty(g).classify() is SetForm.FORM2


# ---------------------------------------------------------------------------
# circle sets against the breakpoint/flag oracle

_SIXTHS = st.builds(Fraction, st.integers(-12, 18), st.just(6))


@st.composite
def raw_circle_sets(draw):
    """Empty, full, or up to 5 open arcs and 4 points on the sixths of
    [-2, 3]: arcs across 0, of one turn and longer, touching arcs, and
    points on arc ends."""
    kind = draw(st.sampled_from(["empty", "full", "pieces", "pieces"]))
    if kind == "empty":
        return [], []
    if kind == "full":
        return [(Fraction(0), Fraction(1))], [Fraction(0)]
    arcs = [(lo, lo + Fraction(length, 6))
            for lo, length in draw(st.lists(st.tuples(_SIXTHS, st.integers(0, 15)), max_size=5))]
    points = draw(st.lists(_SIXTHS, max_size=2))
    ends = [e for arc in arcs for e in arc]
    if ends:
        points += draw(st.lists(st.sampled_from(ends), max_size=2))
    return arcs, points


def assert_circle_agrees(S, ref, *inputs):
    """S is the oracle's set ``ref``, with the same membership at every arc
    end, point and cell midpoint of S, ref and the inputs."""
    assert S == ref and hash(S) == hash(ref)
    assert repr(S) == interval_oracle.render(ref)
    assert S.measure() == interval_oracle.measure(ref)
    cuts = sorted({Fraction(0), Fraction(1)}.union(
        *(set(s.point_part).union(*s.open_part) for s in (S, ref, *inputs))))
    probes = cuts + [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    assert [S.contains(v) for v in probes] == [interval_oracle.contains(ref, v) for v in probes]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(raw_circle_sets(), raw_circle_sets())
def test_interval_sets_match_the_flag_oracle(raw_a, raw_b):
    A, B = IntervalSet.from_pieces(*raw_a), IntervalSet.from_pieces(*raw_b)
    a, b = interval_oracle.from_pieces(*raw_a), interval_oracle.from_pieces(*raw_b)
    assert_circle_agrees(A, a)
    assert_circle_agrees(B, b)
    assert_circle_agrees(A.union(B), interval_oracle.union(a, b), A, B)
    assert_circle_agrees(A.intersection(B), interval_oracle.intersection(a, b), A, B)
    assert_circle_agrees(A.difference(B), interval_oracle.difference(a, b), A, B)
    assert_circle_agrees(A.complement(), interval_oracle.complement(a), A)
    for lo, hi in raw_a[0]:  # each arc, and the arc from hi round to lo
        wrapped = [(hi, lo)] if hi - lo <= 1 else []
        for variant in ("open", "closed", "half_open", "half_open_right"):
            for ends in [(lo, hi)] + wrapped:
                assert_circle_agrees(interval(*ends, variant), interval_oracle.interval(*ends, variant))


@st.composite
def circle_partitions(draw):
    """1-4 circle sets from a partition of the circle at cuts on the
    twelfths: each cell between cuts and each cut goes to a drawn piece, so
    arcs cross 0 and pieces may be empty; then one cell or cut may be
    dropped (a gap) and a drawn arc or point added to a piece (an overlap,
    unless the piece holds it already)."""
    cuts = [Fraction(c, 12) for c in sorted(set(draw(st.lists(st.integers(0, 11), min_size=1, max_size=6))))]
    k = draw(st.integers(1, 4))
    owner = st.integers(0, k - 1)
    items = [([cell], [], draw(owner)) for cell in zip(cuts, cuts[1:] + [cuts[0] + 1])]
    items += [([], [c], draw(owner)) for c in cuts]
    if draw(st.booleans()):
        del items[draw(st.integers(0, len(items) - 1))]
    if draw(st.booleans()):
        lo, length = Fraction(draw(st.integers(0, 11)), 12), Fraction(draw(st.integers(0, 12)), 12)
        items.append(([(lo, lo + length)], [], draw(owner)) if length else ([], [lo], draw(owner)))
    return [IntervalSet.from_pieces([a for arcs, _, i in items if i == piece for a in arcs],
                                    [p for _, pts, i in items if i == piece for p in pts])
            for piece in range(k)]


_HALF = Fraction(1, 2)


@settings(max_examples=150, deadline=None)
@example([interval(0, _HALF, "half_open"), interval(_HALF, 1, "half_open")])
@example([interval(0, _HALF, "closed"), interval(_HALF, 1, "half_open")])
@example([interval(0, _HALF, "half_open"), interval(_HALF, 1, "open")])
@example([IntervalSet.empty(), IntervalSet.full()])
@example([interval(Fraction(3, 4), Fraction(1, 4), "half_open"),
          interval(Fraction(1, 4), Fraction(3, 4), "half_open")])
@given(circle_partitions())
def test_circle_step_partition_matches_the_pairwise_oracle(sets):
    # the one sweep over the pieces' ends raises what the pairwise check
    # says, or nothing for a partition
    want = interval_oracle.partition_error(sets)
    pieces = [(E, Fraction(k + 1)) for k, E in enumerate(sets)]
    if want is None:
        assert StepFunction.of(pieces).pieces == tuple(pieces)
    else:
        with pytest.raises(ValueError, match=f"^{want}$"):
            StepFunction.of(pieces)


def test_step_functions_take_circle_sets_only():
    ctx, group = PAdicContext(3, 2), catalog()["Z6"]
    B = ball(ctx, 0, 1)
    F = FiniteSubset.of(group, [0, 1, 2])
    for E in (B, F):
        for pieces in ([(E, 2), (E.complement(), 3)], [(interval(0, 1), 2), (E, 3)]):
            with pytest.raises(TypeError, match="^step function pieces must be circle sets$"):
                StepFunction.of(pieces)


# ---------------------------------------------------------------------------
# ball sets against the ball-list oracle


@st.composite
def ball_lists(draw, ctx):
    """Empty, full, 0-12 balls at levels -window..precision, or such balls
    together with a complete family of p siblings, one of which may itself
    be split into its p children."""
    p, m = ctx.prime, ctx.window
    kind = draw(st.sampled_from(["empty", "full", "balls", "siblings"]))
    if kind == "empty":
        return []
    if kind == "full":
        return [(-m, 0)]
    centers = st.integers(0, ctx.modulus - 1)
    balls = draw(st.lists(st.tuples(st.integers(-m, ctx.precision), centers), max_size=12))
    if kind == "siblings":
        j = draw(st.integers(1 - m, ctx.precision))
        parent = draw(centers) % p ** (j - 1 + m)
        family = [(j, parent + t * p ** (j - 1 + m)) for t in range(p)]
        if j < ctx.precision and draw(st.booleans()):
            _, c = family.pop(draw(st.integers(0, p - 1)))
            family += [(j + 1, c + t * p ** (j + m)) for t in range(p)]
        balls += family
    return balls


@st.composite
def ball_set_cases(draw):
    """A context with p in {2, 3, 5}, window 0-2 and at most 3^6 residues,
    two ball lists."""
    p = draw(st.sampled_from([2, 3, 5]))
    window = draw(st.integers(0, 2))
    digits = max(d for d in range(1, 12) if p ** d <= 3 ** 6)
    ctx = PAdicContext(p, draw(st.integers(1, digits - window)), window)
    return ctx, draw(ball_lists(ctx)), draw(ball_lists(ctx))


def assert_agrees(S, ctx, ref):
    """The mask set S is the oracle's normalised ball list ``ref``."""
    assert S.context == ctx
    assert S.balls == ref
    assert repr(S) == oracle.render(ctx, ref)
    assert S.measure() == oracle.measure(ctx, ref)
    members = [oracle.contains(ctx, ref, r) for r in range(ctx.modulus)]
    assert [S.contains(ctx.from_residue(r)) for r in range(ctx.modulus)] == members
    assert S.finest_residues() == [r for r in range(ctx.modulus) if members[r]]
    assert S.is_empty() == (ref == ())
    rebuilt = BallSet.from_balls(ctx, reversed(ref))
    assert S == rebuilt and hash(S) == hash(rebuilt)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ball_set_cases())
def test_ball_sets_match_the_ball_list_oracle(case):
    ctx, raw_a, raw_b = case
    A, B = BallSet.from_balls(ctx, raw_a), BallSet.from_balls(ctx, raw_b)
    a, b = oracle.normalize(ctx, raw_a), oracle.normalize(ctx, raw_b)
    assert_agrees(A, ctx, a)
    assert_agrees(B, ctx, b)
    assert (A == B) == (a == b)
    assert_agrees(A.union(B), ctx, oracle.union(ctx, a, b))
    assert_agrees(A.intersection(B), ctx, oracle.intersection(ctx, a, b))
    assert_agrees(A.difference(B), ctx, oracle.difference(ctx, a, b))
    assert_agrees(A.complement(), ctx, oracle.complement(ctx, a))
    assert A.union(B) == B.union(A) and A.complement().complement() == A
    group, R = A.resolved(ctx)
    assert group == oracle.resolved(ctx, a) == R.context
    assert R.balls == a
    for j, c in raw_a:  # a lone ball is built at its own level
        assert_agrees(ball(ctx, ctx.from_residue(c), j), ctx, oracle.normalize(ctx, [(j, c)]))
