"""Tests for ``hctest.monotone_rows``, the one source of the monotone
weight-power rows read by the verdict, ``monotone_power_scan`` and
``scan.csv``."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import expr_oracle
from hclab import weights
from hclab.borel import interval
from hclab.equidist import BLOCK_ENTRIES, Sweep, SweepBlock, Translates
from hclab.groups import CIRCLE, PAdicContext, catalog, cyclic
from hclab.hctest import MonotoneHit, log_integral_report, monotone_power_scan, monotone_rows
from hclab.padic import qp_reduction
from hclab.weights import ExprWeight, FiniteWeight, PAdicTableWeight, StepFunction, StepWeight


def _scan_expr_weight(w, a, n_max, grid_points, require_strict):
    """The expression-weight scan as it was written before the rows existed:
    log sums on the grid, a Lipschitz margin for the ``certified`` flag;
    remainders by ``np.mod`` and weights by the out-of-place tree walk."""
    xs = np.arange(grid_points) / grid_points
    af = float(a.value)
    acc = np.zeros(grid_points)
    log_lip = None
    for n in range(1, n_max + 1):
        pts = expr_oracle.mod1(xs - (n - 1) * af)
        acc = acc + np.log(np.asarray(expr_oracle.weight_at(w, pts), dtype=float))
        mn, mx = float(acc.min()), float(acc.max())
        hit = None
        if mn >= 0.0:
            hit = (">=1", mx > 0.0, mn)
        elif mx <= 0.0:
            hit = ("<=1", mn < 0.0, -mx)
        if hit and (hit[1] or n == 1 or not require_strict):
            if log_lip is None:
                log_lip = expr_oracle.log_lipschitz(w, xs)
            margin = n * log_lip / (2 * grid_points)
            certified = hit[2] - margin >= 0.0
            i = int(np.argmin(acc) if hit[0] == ">=1" else np.argmax(acc))
            return MonotoneHit(
                n, hit[0], hit[1], certified,
                float(math.exp(mn)), float(math.exp(mx)), [float(xs[i])],
            )
    return None


@st.composite
def _sine_cases(draw):
    """exp(c*sin(2*pi*(x-phi)) + d): |d| >= c fires at n = 1, 0 < |d| < c
    fires once n|d| outgrows the orbit's sine sum, d = 0 never fires."""
    c = draw(st.floats(0.05, 2.0))
    phi = draw(st.floats(0.0, 1.0, exclude_max=True))
    d = c * draw(st.sampled_from([0.0]) | st.floats(-1.5, 1.5))
    angle = draw(st.floats(0.001, 0.999))
    w = ExprWeight(f"exp({c!r}*sin(2*pi*(x-{phi!r})) + {d!r})")
    return w, CIRCLE.from_float(angle)


@settings(max_examples=60, deadline=5000)
# fires at n = 2 with a log gap that clears one grid margin but not two, so
# ``certified`` depends on the margin growing with n
@example((ExprWeight("exp(0.312*sin(2*pi*(x-0.847)) + 0.247)"), CIRCLE.from_float(0.2556)),
         64, 20, True)
@given(_sine_cases(), st.sampled_from([64, 256, 1024]), st.integers(1, 20), st.booleans())
def test_expr_scan_matches_oracle(case, grid_points, n_max, strict):
    w, a = case
    expected = _scan_expr_weight(w, a, n_max, grid_points, strict)
    assert monotone_power_scan(w, a, n_max, grid_points, require_strict=strict) == expected


# one sine weight that stays two-sided, one that turns one-sided at n = 2,
# one whose log touches 0 on the grid (one-sided but not certified), a
# translated one, a constant
_ROW_WEIGHTS = [
    ExprWeight("exp(0.7*sin(2*pi*(x-0.3)))"),
    ExprWeight("exp(0.312*sin(2*pi*(x-0.847)) + 0.247)"),
    ExprWeight("exp(0.3*sin(2*pi*x) + 0.3)"),
    ExprWeight("exp(0.5*cos(2*pi*x) - 0.05)").translate(CIRCLE.from_float(0.125)),
    ExprWeight("2"),
]


@pytest.mark.parametrize("grid_points, horizon", [
    (64, 1), (1024, 7), (256, 50),
    # BLOCK_ENTRIES // grid_points = 5 rows per block, fewer than the horizon
    (BLOCK_ENTRIES // 5 - 1, 7),
])
def test_expr_rows_match_the_oracle(grid_points, horizon, monkeypatch):
    # the oracle reads no ``eval_angles``; the walk's 2-D reads are its blocks
    blocks = []
    eval_angles = ExprWeight.eval_angles

    def recorded(self, t, out=None):
        if np.ndim(t) == 2:
            blocks.append(len(t))
        return eval_angles(self, t, out)

    monkeypatch.setattr(ExprWeight, "eval_angles", recorded)
    a = CIRCLE.from_float((math.sqrt(5) - 1) / 2)
    n = 2 * horizon + 3
    for w in _ROW_WEIGHTS:
        got = list(itertools.islice(monotone_rows(w, a, grid_points, horizon), n))
        assert got == list(itertools.islice(expr_oracle.monotone_rows(w, a, grid_points), n)), w
    assert set(blocks) == {min(horizon, BLOCK_ENTRIES // grid_points)}


@pytest.mark.parametrize("scale, certified", [("1.406729", False), ("1.406732", True)])
def test_expr_margin_is_translation_invariant(scale, certified):
    # row 1's log gap sits just below, or just above, one margin 2 max|w'/w|
    # / (2 * 1024); a translate by k/1024 permutes the grid's values of w and
    # of w', so its row 1 reads the same.  A margin that read w' at the bare
    # grid would be 11.42, not 12.17, on the translate by 1/4
    w = ExprWeight(f"{scale} * (1.1 + sin(2*pi*x) * sin(2*pi*x) * cos(2*pi*x))")
    a = CIRCLE.from_float(0.3)
    keys = ("n", "direction", "strict", "certified", "min_value", "max_value")
    first = next(monotone_rows(w, a, 1024))
    assert first.direction == ">=1" and first.certified is certified
    for k in (1, 77, 256, 512, 1023):
        moved = next(monotone_rows(w.translate(Fraction(k, 1024)), a, 1024))
        assert [getattr(moved, key) for key in keys] == [getattr(first, key) for key in keys], k


def test_eval_angles_reads_any_layout():
    # a transposed block of angles, with or without a buffer to write into
    t = np.linspace(-1.5, 2.5, 24).reshape(4, 6).T
    for w in _ROW_WEIGHTS[:4]:
        want = np.array([[w.value_at(float(v)) for v in row] for row in t])
        assert np.array_equal(w.eval_angles(t), want)
        assert np.array_equal(w.eval_angles(t, out=np.empty(t.shape)), want)


def test_expr_walk_holds_two_blocks():
    # a block of 50 rows is built, evaluated and summed in one buffer,
    # beside a scratch array for a slice of the angles' floors and a mask of
    # the remainders that round to 1 (three blocks when each step made its
    # own array)
    w, a = _ROW_WEIGHTS[1], CIRCLE.from_float((math.sqrt(5) - 1) / 2)
    list(itertools.islice(monotone_rows(w, a, 1024, 50), 50))
    tracemalloc.start()
    try:
        list(itertools.islice(monotone_rows(w, a, 1024, 50), 50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 50 * 1024 * 8


def test_step_walk_hits_hold_no_block():
    # 400 one-sided rows over 8 arcs (values 2 and 3), every hit kept: each
    # holds its witness as one candidate of its row, not the row's block of
    # counts (about 88 MiB when hits held their blocks)
    cuts = [Fraction(k, 8) for k in range(9)]
    w = StepWeight(StepFunction.of([(interval(lo, hi, "half_open"), Fraction(2 + k % 2))
                                    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]))
    tracemalloc.start()
    try:
        hits = list(itertools.islice(monotone_rows(w, CIRCLE.from_float(math.sqrt(2) % 1), horizon=400), 400))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(hit.direction == ">=1" for hit in hits)
    assert held < 8 * 2 ** 20


def test_step_walk_reads_a_translate_only_for_a_read_witness(monkeypatch):
    # walking the rows builds a lazy witness for each one-sided row only,
    # builds no row's sweep and reads no translate; reading a one-sided
    # row's witness builds its row's sweep and reads one
    translates, sweeps, built = [], [], []
    translate, sweep = Sweep.translate, SweepBlock.sweep
    monkeypatch.setattr(Sweep, "translate", lambda self, j: translates.append(j) or translate(self, j))
    monkeypatch.setattr(SweepBlock, "sweep", lambda self, q: sweeps.append(q) or sweep(self, q))
    monkeypatch.setattr(weights, "Translates", lambda *args: built.append(args) or Translates(*args))
    w = StepWeight(StepFunction.of([(interval(0, Fraction(1, 2), "half_open"), Fraction(2)),
                                    (interval(Fraction(1, 2), 1, "half_open"), Fraction(1, 3))]))
    hits = list(itertools.islice(monotone_rows(w, CIRCLE.from_float((math.sqrt(5) - 1) / 2)), 50))
    assert [hit.n for hit in hits] == list(range(1, 51))
    assert (translates, sweeps) == ([], [])
    one_sided = [hit for hit in hits if hit.direction is not None]
    assert 0 < len(one_sided) < len(hits)
    assert len(built) == len(one_sided)
    for k, hit in enumerate(one_sided, 1):
        assert isinstance(hit.witness, Fraction)
        assert (len(translates), len(sweeps)) == (k, k)


@st.composite
def _balanced_tables(draw):
    """A finite weight or a p-adic table weight whose log-sum is exactly
    zero, a translation, and the period of the translation on the table when
    the weight is a coboundary h(x) / h(x a^-1), None otherwise: its rows
    are h(x) / h(x a^-n), so the row at the period is 1 everywhere.  The
    other weights have values whose product is 1."""
    if draw(st.booleans()):
        g = catalog()[draw(st.sampled_from(["Z6", "S3", "V4", "Z8", "A4", "D4"]))]
        a = draw(st.integers(0, g.order - 1))
        size, period = g.order, g.element_order(a)
        back = [g.mul(x, g.inv(a)) for x in g.elements()]

        def make(values):
            return FiniteWeight(g, values)
    else:
        p, window, precision = draw(st.sampled_from([2, 3])), draw(st.integers(0, 1)), draw(st.integers(1, 3))
        ctx = PAdicContext(p, precision, window)
        level = draw(st.integers(-window, precision))
        size = p ** (level + window)
        a = ctx.from_residue(draw(st.integers(0, ctx.modulus - 1)))
        period = size // math.gcd(a.residue, size)
        back = [(r - a.residue) % size for r in range(size)]

        def make(values):
            return PAdicTableWeight(ctx, level, dict(enumerate(values)))
    h = draw(st.lists(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(2),
                                       Fraction(3)]), min_size=size, max_size=size))
    if draw(st.booleans()):
        return make([h[x] / h[back[x]] for x in range(size)]), a, period
    return make(h[:-1] + [1 / math.prod(h[:-1], start=Fraction(1))]), a, None


@settings(max_examples=80, deadline=None)
@given(_balanced_tables())
def test_a_zero_log_sum_leaves_no_row_strictly_one_sided(case):
    # the Haar mean of ln w_n is n times that of ln w, which is zero: a row
    # >= 1 or <= 1 everywhere is 1 everywhere, so the monotone rule, which
    # needs a strict row from n = 2 on, never fires on such a weight
    w, a, period = case
    assert log_integral_report(w).exact_zero
    rows = list(itertools.islice(monotone_rows(w, a, horizon=20), 20))
    assert not any(row.strict for row in rows)
    if period is not None and period <= 20:
        assert rows[period - 1].direction is not None


@st.composite
def _isomorphic_pairs(draw):
    """One operator written in two families: a weight on zp(p, K) with a
    level-K table, or a circle step weight constant on each [k/D, (k+1)/D)
    under the rotation m/D, each with its element; and the same values on
    cyclic(p^K) or cyclic(D), with the element a mod p^K or m.  Half the
    time the values are one value and its reciprocal, so rows stay
    two-sided, or turn one-sided late."""
    zp = draw(st.booleans())
    if zp:
        p = draw(st.sampled_from([2, 3, 5]))
        K = draw(st.integers(1, 3))
        D = p ** K
    else:
        D = draw(st.integers(1, 12))
    pool = [Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3")]
    if draw(st.booleans()):
        base = draw(st.sampled_from(pool))
        pool = [base, 1 / base]
    values = draw(st.lists(st.sampled_from(pool), min_size=D, max_size=D))
    m = draw(st.integers(0, D - 1))
    if zp:
        ctx = PAdicContext(p, K)
        w, a = PAdicTableWeight(ctx, K, dict(enumerate(values))), ctx.from_residue(m)
    else:
        cuts = [Fraction(k, D) for k in range(D + 1)]
        w = StepWeight(StepFunction.of([(interval(lo, hi, "half_open"), v)
                                        for lo, hi, v in zip(cuts, cuts[1:], values)]))
        a = CIRCLE.element(Fraction(m, D))
    return w, a, FiniteWeight(cyclic(D), values), m


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_isomorphic_pairs())
def test_isomorphic_families_have_equal_rows(case):
    # the circle's event sweep, the p-adic table's residue orbit and the
    # finite group's permutation orbit are three row sources for one
    # operator: its monotone rows and its exact log integral agree
    w, a, u, b = case
    n_max = 2 * len(u.values) + 2
    assert _rows(w, a, n_max) == _rows(u, b, n_max)
    assert log_integral_report(w) == log_integral_report(u)


def _rows(weight, element, n_max):
    """The monotone rows n <= n_max of (weight, element), without their
    witnesses, which are points of the weight's own group."""
    return [(hit.n, hit.direction, hit.strict, hit.min_value, hit.max_value)
            for hit in itertools.islice(monotone_rows(weight, element, horizon=n_max), n_max)]


@st.composite
def _windowed_operators(draw):
    """A table weight on a windowed qp context, with an element whose
    coset level k = v_p(a) leaves significant digits.  Half the time the
    values are one value and its reciprocal."""
    p = draw(st.sampled_from([2, 3]))
    K, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ctx = PAdicContext(p, K, m)
    level = draw(st.integers(-m, K))
    pool = [Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3")]
    if draw(st.booleans()):
        base = draw(st.sampled_from(pool))
        pool = [base, 1 / base]
    size = p ** (level + m)
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    a = ctx.from_residue(draw(st.integers(1, ctx.modulus - 1)))
    assume(K - a.valuation() >= 1)
    return PAdicTableWeight(ctx, level, dict(enumerate(values))), a


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_windowed_operators())
def test_each_coset_problem_is_its_cyclic_group(case):
    # a coset problem of the windowed reduction is an operator on Z_p at
    # precision K - k, so on cyclic(p^(K-k)) with its table spread over the
    # residues and the element's residue: the same rows and log integral
    w, a = case
    for prob in qp_reduction(w, a):
        D, table = prob.context.modulus, prob.weight.table
        u = FiniteWeight(cyclic(D), [table[s % len(table)] for s in range(D)])
        n_max = 2 * D + 2
        assert _rows(prob.weight, prob.element, n_max) == _rows(u, prob.element.residue, n_max)
        assert log_integral_report(prob.weight) == log_integral_report(u)
