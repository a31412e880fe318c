import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import expr_oracle
from hclab.borel import IntervalSet, interval
from hclab.errors import GridMismatch, NonPositiveWeight, PlateauResolutionFailure
from hclab.exprs import Expr
from hclab.groups import CIRCLE, PAdicContext, catalog, cyclic
from hclab.hctest import VerdictConfig, log_integral_report, monotone_power_scan, monotone_rows, verdict
from hclab.lemmas import (
    CircleGrid,
    DiscretizedFunction,
    apply_operator,
    operator_power_identity_check,
    sandwich_check,
    step_approx,
)
from hclab.report import (
    RULE_LOG_INTEGRAL,
    RULE_MONOTONE,
    RULE_TORSION,
)
from hclab.weights import ExprWeight, FiniteWeight, PAdicTableWeight, StepFunction, StepWeight, weight_product

GOLDEN = (math.sqrt(5) - 1) / 2


def two_level_step():
    return StepFunction.of(
        [
            (interval(0, Fraction(1, 2), "half_open"), Fraction(2)),
            (interval(Fraction(1, 2), 1, "half_open"), Fraction(1, 2)),
        ]
    )


def random_padic_weight(rng, ctx, level):
    size = ctx.prime ** (level + ctx.window)
    table = {r: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for r in range(size)}
    return PAdicTableWeight(ctx, level, table)


# ---------------------------------------------------------------------------
# weight products


def test_weight_product_constant_one():
    w = StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(1))]))
    for n in (1, 3, 10):
        assert weight_product(w, CIRCLE.from_float(GOLDEN), n, CIRCLE.element("1/3")) == 1


def test_weight_product_two_factor():
    w = StepWeight(two_level_step())
    a = CIRCLE.element("1/2")
    for x in ("0", "1/8", "1/2", "7/8"):
        assert weight_product(w, a, 2, CIRCLE.element(x)) == 1


def test_weight_product_single_factor():
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "1"})
    a = ctx.element(1)
    assert weight_product(w, a, 1, ctx.element(0)) == Fraction(2)


def test_cocycle_identity_exact():
    rng = random.Random(30)
    ctx = PAdicContext(3, 3)
    for _ in range(40):
        w = random_padic_weight(rng, ctx, 2)
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        x = ctx.from_residue(rng.randrange(ctx.modulus))
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        lhs = weight_product(w, a, m + n, x)
        rhs = weight_product(w, a, n, x) * weight_product(w, a, m, x - a.scalar_mul(n))
        assert lhs == rhs  # exact Fractions
    w = StepWeight(two_level_step())
    for _ in range(20):
        a = CIRCLE.from_float(rng.random())
        x = CIRCLE.from_float(rng.random())
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        lhs = weight_product(w, a, m + n, x)
        rhs = weight_product(w, a, n, x) * weight_product(
            w, a, m, x - CIRCLE.power(a, n)
        )
        assert lhs == rhs


def test_cocycle_identity_float_pipeline():
    rng = random.Random(31)
    w = ExprWeight("exp(sin(2*pi*x)/2)")
    for _ in range(40):
        a = CIRCLE.from_float(rng.random())
        x = CIRCLE.from_float(rng.random())
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        lhs = weight_product(w, a, m + n, x)
        rhs = weight_product(w, a, n, x) * weight_product(w, a, m, x - CIRCLE.power(a, n))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# the operator and its powers


def test_apply_operator_identity_weight():
    g = CircleGrid(8)
    f = DiscretizedFunction.from_values(g, tuple(range(8)))
    w = StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(1))]))
    out = apply_operator(w, CIRCLE.element(0), f)
    assert out.values == f.values


def test_apply_operator_delta_shift():
    z4 = cyclic(4)
    w = FiniteWeight(z4, [2, 2, 2, 2])
    f = DiscretizedFunction.delta(z4, 0)
    out = apply_operator(w, 1, f)
    assert out.values == (0, 2, 0, 0)


def test_apply_operator_step_weight_grid():
    g = CircleGrid(4)
    w = StepWeight(two_level_step())
    f = DiscretizedFunction.constant(g, 1)
    out = apply_operator(w, CIRCLE.element("1/2"), f)
    assert out.values == (2, 2, Fraction(1, 2), Fraction(1, 2))


def test_apply_operator_grid_mismatch():
    g = CircleGrid(4)
    f = DiscretizedFunction.constant(g, 1)
    w = StepWeight(two_level_step())
    with pytest.raises(GridMismatch):
        apply_operator(w, CIRCLE.element("1/3"), f)
    apply_operator(w, CIRCLE.element("1/3"), f, mode="nearest")


def test_power_identity_trivial_and_exact():
    z4 = cyclic(4)
    rng = random.Random(32)
    w = FiniteWeight(z4, [Fraction(rng.randint(1, 5)) for _ in range(4)])
    f = DiscretizedFunction.delta(z4, 0)
    assert operator_power_identity_check(w, 1, 1, f) == 0
    assert operator_power_identity_check(w, 1, 3, f) == 0
    ctx = PAdicContext(2, 3)
    wp = random_padic_weight(rng, ctx, 2)
    fp = DiscretizedFunction.delta(ctx, 3)
    assert operator_power_identity_check(wp, ctx.element(1), 4, fp) == 0


def test_power_identity_float_grid():
    rng = random.Random(33)
    g = CircleGrid(64)
    for _ in range(20):
        c0, c1 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        w = ExprWeight(f"exp({c0}*sin(2*pi*x) + {c1}*cos(2*pi*x))")
        a = CIRCLE.rational(rng.randrange(64), 64)
        f = DiscretizedFunction.from_values(g, tuple(rng.uniform(-1, 1) for _ in range(64)))
        assert operator_power_identity_check(w, a, 5, f) <= 1e-9


# ---------------------------------------------------------------------------
# log integrals


def test_log_integral_quadrature():
    assert abs(log_integral_report(ExprWeight("exp(sin(2*pi*x))")).value) < 1e-6
    assert abs(log_integral_report(ExprWeight("2 + 0*x")).value - math.log(2)) < 1e-12
    report = log_integral_report(ExprWeight("exp(sin(2*pi*x) + 1/10)"))
    assert abs(report.value - 0.1) < 1e-6
    assert report.richardson_gap < 1e-9


@pytest.mark.parametrize("source", ["2", "2 + 0*x", "exp(sin(2*pi*(x-0.3)) + 1/10)"])
def test_midpoint_log_integral_matches_the_oracle(source):
    for w in (ExprWeight(source), ExprWeight(source).translate(CIRCLE.from_float(0.375))):
        report = log_integral_report(w, 4096)
        value, gap = expr_oracle.log_integral(w, 4096)
        assert np.array([report.value, report.richardson_gap]).tobytes() == np.array([value, gap]).tobytes()


@pytest.mark.parametrize("source", ["2", "2 + 0*x", "exp(sin(2*pi*(x-0.3)) + 1/10)", "1/(2 + cos(2*pi*x))",
                                    "x*x + 1"])
def test_midpoint_log_integral_on_an_odd_grid_matches_the_oracle(source):
    # the coarse grid of 2047 points lies over the top of the fine grid's
    # buffer of 4095, whose middle point only the fine grid holds; x read
    # twice is evaluated out of place
    for w in (ExprWeight(source), ExprWeight(source).translate(CIRCLE.from_float(0.375))):
        report = log_integral_report(w, 4095)
        value, gap = expr_oracle.log_integral(w, 4095)
        assert np.array([report.value, report.richardson_gap]).tobytes() == np.array([value, gap]).tobytes()


def test_midpoint_log_integral_holds_two_grids():
    # both midpoint grids are built and evaluated in one buffer, beside a
    # scratch array for a slice of the angles' floors (three grids when each
    # step made its own array)
    w = ExprWeight("exp(0.7*sin(2*pi*(x-0.3)) + 1/10)")
    log_integral_report(w)
    tracemalloc.start()
    try:
        log_integral_report(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (1 << 16) * 8


def test_log_integral_step_exact_zero():
    report = log_integral_report(StepWeight(two_level_step()))
    assert report.exact and report.exact_zero
    assert report.value == 0.0


def test_log_integral_additivity():
    w1 = ExprWeight("exp(sin(2*pi*x))")
    w2 = ExprWeight("exp(cos(2*pi*x)/3 + 1/5)")
    w12 = ExprWeight("exp(sin(2*pi*x)) * exp(cos(2*pi*x)/3 + 1/5)")
    v1, v2, v12 = (log_integral_report(w).value for w in (w1, w2, w12))
    assert abs(v12 - v1 - v2) < 2e-5


def test_log_integral_finite_and_table():
    z4 = cyclic(4)
    w = FiniteWeight(z4, ["2", "1/2", "3", "1/3"])
    rep = log_integral_report(w)
    assert rep.exact and rep.exact_zero
    ctx = PAdicContext(3, 2)
    tw = PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "3"})
    rep2 = log_integral_report(tw)
    assert rep2.exact and not rep2.exact_zero
    assert rep2.value == pytest.approx(math.log(Fraction(3)) / 3, rel=1e-12)


@pytest.mark.parametrize("kind", ["step", "finite"])
@pytest.mark.parametrize("values", [(2.0, 0.5), (0.4, 2.5)])
def test_float_values_are_their_exact_rationals(kind, values):
    # a float value is the binary64 rational it is: 0.4 * 2.5 is not 1
    # there, so that pair's exact log-sum is not zero
    def weight(cast):
        if kind == "finite":
            return FiniteWeight(cyclic(4), [cast(v) for v in values + values[::-1]])
        return StepWeight(StepFunction.of([(interval(0, Fraction(1, 2), "half_open"), cast(values[0])),
                                           (interval(Fraction(1, 2), 1, "half_open"), cast(values[1]))]))

    w, twin = weight(float), weight(Fraction)
    a = 1 if kind == "finite" else CIRCLE.from_float(GOLDEN)
    assert log_integral_report(w) == log_integral_report(twin)
    assert log_integral_report(w).exact_zero == (values == (2.0, 0.5))
    assert verdict(w, a).to_dict() == verdict(twin, a).to_dict()


def test_positive_weight_validation():
    with pytest.raises(NonPositiveWeight):
        ExprWeight("sin(2*pi*x)")
    with pytest.raises(NonPositiveWeight):
        StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(-1))]))
    # a weight of 0 is rejected by each class's own check
    with pytest.raises(NonPositiveWeight, match="not certifiably positive"):
        ExprWeight("0*x")
    with pytest.raises(NonPositiveWeight, match="^step value 0 is not positive$"):
        StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(0))]))
    with pytest.raises(NonPositiveWeight, match="^finite weight values must be positive$"):
        FiniteWeight(catalog()["Z2"], [1, 0])
    with pytest.raises(NonPositiveWeight, match="^table values must be positive$"):
        PAdicTableWeight(PAdicContext(3, 1), 1, {0: 1, 1: 0, 2: 1})


# ---------------------------------------------------------------------------
# step approximation


def test_step_approx_constant():
    phi = step_approx(Expr("1/3 + 0*x"), 0.25)
    assert len(phi) == 1
    assert phi.pieces[0][1] == pytest.approx(1 / 3, abs=1e-12)


def step_values_on_grid(phi, xs):
    out = np.full(len(xs), np.nan)
    assigned = np.zeros(len(xs), dtype=bool)
    for E, v in phi.pieces:
        member = np.zeros(len(xs), dtype=bool)
        for lo, hi in E.open_part:
            member |= (xs > float(lo)) & (xs < float(hi))
        for p in E.point_part:
            member |= xs == float(p)
        assert not (member & assigned).any()
        out[member] = float(v)
        assigned |= member
    assert assigned.all()
    return out


@pytest.mark.parametrize("eps", [0.5, 0.1])
@pytest.mark.parametrize("side", ["above", "below"])
def test_step_approx_sandwich(eps, side):
    W = Expr("sin(2*pi*x)")
    phi = step_approx(W, eps, side)
    if eps == 0.5:
        assert len(phi) <= 5
    xs = np.arange(100_000) / 100_000.0
    diff = step_values_on_grid(phi, xs) - np.asarray(W(xs), dtype=float)
    if side == "above":
        assert diff.min() >= 0 and diff.max() <= eps
    else:
        assert diff.max() <= 0 and diff.min() >= -eps
    # integral moves by at most eps
    quad = float(np.mean(np.asarray(W((np.arange(4096) + 0.5) / 4096))))
    assert abs(float(phi.integral()) - quad) <= eps


def test_step_approx_pieces_are_algebra_sets():
    phi = step_approx(Expr("cos(2*pi*x)"), 0.3)
    total = Fraction(0)
    for E, _ in phi.pieces:
        total += E.measure()
    assert total == 1


def test_step_approx_needs_room():
    with pytest.raises(PlateauResolutionFailure):
        # two grid values only: no admissible interior cuts at gap < eps
        step_approx(lambda t: np.where(np.asarray(t) < 0.5, 0.0, 1.0), 0.25, grid_points=64)


# ---------------------------------------------------------------------------
# sandwich check


def test_sandwich_constant_weight():
    phi = StepFunction.of([(IntervalSet.full(), Fraction(3))])
    res = sandwich_check(phi, CIRCLE.from_float(GOLDEN), 0.05, 1000)
    assert res and res.max_deviation < 0.05


def test_sandwich_two_level_golden():
    res = sandwich_check(two_level_step(), CIRCLE.from_float(GOLDEN), 0.05, 10 ** 4)
    assert res.ok
    assert res.witness_x is None


def test_sandwich_torsion_failure_with_witness():
    phi = StepFunction.of(
        [
            (interval(0, Fraction(1, 8), "half_open"), Fraction(2)),
            (interval(Fraction(1, 8), 1, "half_open"), Fraction(1)),
        ]
    )
    res = sandwich_check(phi, CIRCLE.element("1/4"), 0.05, 10 ** 4)
    assert not res.ok
    assert res.witness_x is not None and res.witness_piece is not None
    assert res.max_deviation >= 0.1


# ---------------------------------------------------------------------------
# monotone scan


def test_monotone_scan_constant_two():
    w = StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(2))]))
    hit = monotone_power_scan(w, CIRCLE.from_float(GOLDEN), 5)
    assert hit.n == 1 and hit.direction == ">=1" and hit.strict and hit.certified


def test_monotone_scan_two_level_half_rotation():
    hit = monotone_power_scan(StepWeight(two_level_step()), CIRCLE.element("1/2"), 5)
    assert hit.n == 2
    assert not hit.strict  # w_2 is identically 1
    hit_strict = monotone_power_scan(
        StepWeight(two_level_step()), CIRCLE.element("1/2"), 5, require_strict=True
    )
    assert hit_strict is None


def test_monotone_scan_strict_allows_isometry():
    # require_strict still lets an identically-1 product fire at n = 1
    one = StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(1))]))
    hit = monotone_power_scan(one, CIRCLE.element("1/2"), 5, require_strict=True)
    assert hit.n == 1 and not hit.strict


def test_monotone_scan_oscillating_none():
    w = ExprWeight("exp(sin(2*pi*x))")
    assert monotone_power_scan(w, CIRCLE.from_float(GOLDEN), 50, grid_points=256) is None


def test_monotone_scan_padic_exact():
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "1"})
    a = ctx.element(1)
    hit = monotone_power_scan(w, a, 6)
    assert hit.n == 3 and not hit.strict  # w_3 is identically 1
    assert monotone_power_scan(w, a, 6, require_strict=True) is None


def test_expression_rows_at_a_log_extreme_of_zero():
    # ln 1 is 0 everywhere: every row reads >=1, certified with no margin,
    # and none is strict
    rows = itertools.islice(monotone_rows(ExprWeight("1"), CIRCLE.from_float(GOLDEN), 64, 3), 3)
    assert [(hit.direction, hit.strict, hit.certified) for hit in rows] == [(">=1", False, True)] * 3
    # ln w = +-sin^2 is 0 at the grid point x = 0 and of one sign elsewhere
    for sign, direction in (("", ">=1"), ("-", "<=1")):
        w = ExprWeight(f"exp({sign}sin(2*pi*x)*sin(2*pi*x))")
        hit = next(monotone_rows(w, CIRCLE.from_float(GOLDEN), 64))
        assert hit.n == 1 and hit.direction == direction and hit.strict


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_torsion_first():
    rep = verdict(ExprWeight("exp(sin(2*pi*x))"), CIRCLE.element("1/4"))
    assert rep.not_hypercyclic and rep.fired_rule.rule == RULE_TORSION


def test_verdict_log_integral_fires():
    w, a = ExprWeight("exp(sin(2*pi*x) + 1/10)"), CIRCLE.from_float(GOLDEN)
    rep = verdict(w, a)
    assert rep.not_hypercyclic
    assert rep.fired_rule.rule == RULE_LOG_INTEGRAL
    assert abs(rep.fired_rule.params["value"] - 0.1) < 1e-4
    # the tolerance is a strict bound: a log integral equal to it passes
    tie = VerdictConfig(log_tolerance=rep.fired_rule.params["value"], monotone_n_max=1)
    assert verdict(w, a, tie).fired_rule is None


def test_verdict_conditions_passed():
    rep = verdict(ExprWeight("exp(sin(2*pi*x))"), CIRCLE.from_float(GOLDEN))
    assert not rep.not_hypercyclic
    assert rep.fired_rule is None


def test_verdict_finite_group_always_torsion():
    g = catalog()["S3"]
    w = FiniteWeight(g, [Fraction(1)] * 6)
    rep = verdict(w, 2)
    assert rep.fired_rule.rule == RULE_TORSION


def test_verdict_monotone_constant():
    w = StepWeight(StepFunction.of([(IntervalSet.full(), Fraction(1))]))
    rep = verdict(w, CIRCLE.from_float(GOLDEN))
    assert rep.fired_rule.rule == RULE_MONOTONE
    assert rep.fired_rule.params["n"] == 1


def test_verdict_monotone_in_horizons():
    # enlarging the scan horizon never flips a firing verdict back to passing
    w = ExprWeight("exp(sin(2*pi*x) + 1/10)")
    a = CIRCLE.from_float(GOLDEN)
    small = verdict(w, a, VerdictConfig(monotone_n_max=3))
    large = verdict(w, a, VerdictConfig(monotone_n_max=80))
    assert small.not_hypercyclic and large.not_hypercyclic
