"""The exponent form of exact weights (``weights.ExponentForm``) and every
reader of it -- row extremes and witnesses, signs against 1, the Haar
log-sum and coset products -- against the big-integer oracle of
``exact_oracle``, on table, finite and circle step weights whose values
include reciprocal pairs, equal products of different values (4 against
2 * 2) and a value whose log lies under the filter's error bound; and the
log values against mpmath where masses over up to 10^1000 put the oracle's
powers out of reach."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracle as oracle
from hclab.borel import interval
from hclab.cli import main, validate
from hclab.errors import NonPositiveWeight
from hclab.groups import CIRCLE, PAdicContext, catalog
from hclab.hctest import log_integral_report, monotone_rows
from hclab.padic import coset_log_integrals, qp_reduction
from hclab.weights import (ExponentForm, FiniteWeight, PAdicTableWeight, ProductRows, StepFunction,
                           StepWeight, _coprime_base)

NEAR_ONE = Fraction(10 ** 15 + 1, 10 ** 15)
POOLS = {
    "mixed": [Fraction(v) for v in ("1/3", "1/2", "2/3", "1", "3/2", "2", "3", "5/7", "9/4")],
    "equal products": [Fraction(v) for v in ("2", "4", "1/2", "1/4", "1")],
    "near one": [NEAR_ONE, 1 / NEAR_ONE, Fraction(1)],
}


@st.composite
def pools(draw):
    name = draw(st.sampled_from(["mixed", "reciprocal", "equal products", "near one"]))
    if name == "reciprocal":
        v = draw(st.sampled_from(POOLS["mixed"][:3] + [NEAR_ONE, Fraction(12, 7)]))
        return [v, 1 / v]
    return POOLS[name]


@st.composite
def exact_cases(draw):
    """A table weight on a zp / qp context of at most 125 residues, a finite
    weight on a catalog group, or a circle step weight of 2-4 arcs; its
    element, and the number of rows to compare."""
    kind = draw(st.sampled_from(["table", "finite", "step"]))
    pool = draw(pools())
    if kind == "table":
        p = draw(st.sampled_from([2, 3, 5]))
        window = draw(st.integers(0, 1))
        precision = draw(st.integers(1, 3).filter(lambda k: p ** (k + window) <= 125))
        ctx = PAdicContext(p, precision, window)
        level = draw(st.sampled_from([lv for lv in range(-window, precision + 1)
                                      if p ** (lv + window) <= 27]))
        size = p ** (level + window)
        values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        w = PAdicTableWeight(ctx, level, dict(enumerate(values)), draw(st.booleans()))
        unit = draw(st.integers(1, ctx.modulus - 1).filter(lambda u: u % p))
        a = ctx.from_residue(unit * p ** draw(st.integers(0, ctx.digit_count)))
        return w, a, 2 * size + 2
    if kind == "finite":
        g = catalog()[draw(st.sampled_from(["Z2", "Z5", "Z6", "S3", "D4", "Q8", "A4"]))]
        values = draw(st.lists(st.sampled_from(pool), min_size=g.order, max_size=g.order))
        return FiniteWeight(g, values), draw(st.sampled_from(list(g.elements()))), 2 * g.order + 2
    k = draw(st.integers(2, 4))
    den = draw(st.integers(k, 12))
    cuts = sorted(draw(st.lists(st.integers(0, den - 1), min_size=k, max_size=k, unique=True)))
    values = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    w = StepWeight(StepFunction.of(
        [(interval(Fraction(cuts[j], den), Fraction(cuts[(j + 1) % k], den), "half_open"), values[j])
         for j in range(k)]))
    if draw(st.booleans()):
        a = CIRCLE.from_float(draw(st.floats(2.0 ** -12, 1.0, exclude_max=True)))
    else:
        q = draw(st.integers(1, 12))
        a = CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))
    return w, a, 12


def _oracle_rows(w, a, n_max):
    """(points, integer row, den) per n from the oracle."""
    if isinstance(w, StepWeight):
        return oracle.circle_step_rows(w, a, n_max)
    return ((range(len(row)), row, den) for row, den in oracle.step_products(w, a))


def _rows(w, a, n_max):
    return oracle.walk_rows(w.product_rows(a, n_max))


def _log_bound(form, D, s):
    """1e-14 times the largest term |s_j / D ln b_j| of the log-sum
    ``form.log_value(D, s)``: the bound an exact log value keeps against
    a reference."""
    return 1e-14 * max((abs(k) / D * log for k, log in zip(s, form.logs.tolist())), default=0.0)


def _one_row(values):
    """The values as row 1 of a one-row block."""
    form = ExponentForm(values)
    return ProductRows(form, form.exponents, 0, np.array([0, len(values)]))


@settings(max_examples=60, deadline=None)
@given(exact_cases())
def test_exponent_form_matches_the_big_integer_oracle(case):
    w, a, n_max = case
    rows = zip(range(1, n_max + 1), _rows(w, a, n_max), _oracle_rows(w, a, n_max),
               monotone_rows(w, a, horizon=n_max))
    for n, (row_n, points, codes, values), (o_points, o_row, den), hit in rows:
        assert row_n == n
        assert list(points) == list(o_points)
        assert [c - 1 for c in codes] == oracle.signs(o_row, den)
        assert values == [Fraction(v, den) for v in o_row]
        assert hit == oracle.exact_hit(n, o_points, o_row, den)
    report = log_integral_report(w)
    value, zero = oracle.log_sum(oracle.log_pairs(w))
    assert report.exact_zero == zero
    assert abs(report.value - value) <= _log_bound(w.form, *w.form.log_sum())
    if isinstance(w, PAdicTableWeight) and not a.is_zero():
        cosets = coset_log_integrals(qp_reduction(w, a))
        expected = oracle.coset_products(w, a)
        assert [(c.product, c.is_zero) for c in cosets] == [(q, q == 1) for q, _, _ in expected]
        for c, (_, v, share) in zip(cosets, expected):
            bound = _log_bound(c.form, c.form.log_masses[0], c.exponents)
            assert abs(c.value - v) <= bound
            assert abs(c.global_share - share) <= bound / len(cosets)


def test_coprime_base_factors_every_value():
    base = _coprime_base([12, 18, 10 ** 15 + 1, 10 ** 15, 4, 7, 49])
    assert all(math.gcd(b, c) == 1 for b, c in itertools.combinations(base, 2))
    form = ExponentForm([Fraction(12, 18), Fraction(10 ** 15 + 1, 10 ** 15), Fraction(49, 4), 7])
    assert [form.value(e) for e in form.exponents] == list(form.values)
    # 4 against 2 * 2: equal products have equal vectors
    form = ExponentForm([Fraction(4), Fraction(2)])
    assert (form.exponents[0] == 2 * form.exponents[1]).all()


def test_values_under_the_filter_bound_are_decided_exactly(monkeypatch):
    # ln((10^15 + 1) / 10^15) ~ 1e-15 lies under the float log's error bound,
    # so each sign against 1, and the order of such values, comes from integers
    form = ExponentForm([NEAR_ONE, 1 / NEAR_ONE, Fraction(1), NEAR_ONE * NEAR_ONE])
    calls = []
    exact_sign = ExponentForm.exact_sign
    monkeypatch.setattr(ExponentForm, "exact_sign", lambda self, e: calls.append(e) or exact_sign(self, e))
    rows = ProductRows(form, form.exponents, 0, np.array([0, 4]))
    assert abs(rows.logs[0]) <= rows.tol[0]
    assert list(rows.codes) == [2, 0, 1, 2]
    assert len(calls) == 3
    # (lo, hi, their signs, their values)
    assert rows.extremes == [(1, 3, -1, 1, float(1 / NEAR_ONE), float(NEAR_ONE * NEAR_ONE))]


def test_reported_values_round_to_binary64_at_its_edges():
    # past the largest double (ties to 2^1024 included) a value reads inf,
    # below half the smallest subnormal 0.0; near either edge the integers
    # are formed and divided, as the oracle does
    values = [Fraction(10 ** 306), Fraction(2 ** 1024 - 2 ** 970), Fraction(2 ** 1024 - 2 ** 970 - 1),
              Fraction(7 ** 400), Fraction(1, 10 ** 330), Fraction(1, 2 ** 1075), Fraction(1, 2 ** 1074)]
    floats = _one_row(values).floats(np.arange(len(values))).tolist()
    assert floats == [oracle._float(v.numerator, v.denominator) for v in values]
    assert floats[1:4] == [math.inf, sys.float_info.max, math.inf] and floats[5] == 0.0


def test_block_floats_round_once_about_2_to_the_53():
    # numerators and denominators just below, at and above 2^53
    # (3^33 < 2^53 < 3^34): below it both are exact doubles and one division
    # rounds their quotient; at and above it the integers are divided, since
    # rounding each first can round twice, as it does for 3^34 / 5
    values = [Fraction(3 ** 33), Fraction(1, 3 ** 33), Fraction(3 ** 34), Fraction(1, 3 ** 34),
              Fraction(2 ** 53 - 1, 3), Fraction(3, 2 ** 53 - 1), Fraction(2 ** 53, 3), Fraction(3, 2 ** 53),
              Fraction(3 ** 33, 5 ** 22), Fraction(3 ** 34, 5), Fraction(5, 3 ** 34), Fraction(5 ** 23, 7)]
    assert float(3 ** 34) / 5 != 3 ** 34 / 5
    floats = _one_row(values).floats(np.arange(len(values))).tolist()
    assert floats == [oracle._float(v.numerator, v.denominator) for v in values]


def test_a_bench_step_walk_forms_integers_only_past_2_to_the_53(monkeypatch):
    # the weight of exact-step seed-0 case 001, walked to its n_max: the
    # extremes below 2^53 take one division each, so integers are formed
    # only for the others
    formed = []
    integers = ExponentForm.integers
    monkeypatch.setattr(ExponentForm, "integers", lambda self, e: formed.append(integers(self, e)) or formed[-1])
    w = StepWeight(StepFunction.of([
        (interval(Fraction(3, 10), Fraction(4, 5), "half_open"), Fraction(3, 11)),
        (interval(Fraction(4, 5), Fraction(3, 10), "half_open"), Fraction(22, 5))]))
    a = CIRCLE.from_float(0.019992006393607653)
    hits = list(itertools.islice(monotone_rows(w, a, horizon=50), 50))
    extremes = [v for _, row, den in itertools.islice(oracle.circle_step_rows(w, a, 50), 50)
                for v in (Fraction(min(row), den), Fraction(max(row), den))]
    fit = [v for v in extremes if max(v.numerator, v.denominator) < 2 ** 53]
    assert sorted((v.numerator, v.denominator) for v in extremes if v not in fit) == sorted(formed)
    assert 0 < len(fit) < len(extremes)
    assert [x for hit in hits for x in (hit.min_value, hit.max_value)] == [float(v) for v in extremes]


def _step_spec(k):
    return {"schema": 1, "group": {"group": "circle"}, "element": {"angle": math.sqrt(2) % 1},
            "weight": {"step": [[[["0", f"3/{10 ** k}"], "half_open"], "11/9"],
                                [[[f"3/{10 ** k}", "1"], "half_open"], "9/11"]]},
            "horizons": {"n_max": 5}}


def test_log_sum_at_a_fine_breakpoint(tmp_path):
    # values 11/9 and 9/11 on [0, 3/10^k) and the rest: the oracle raises
    # them to powers of ~10^k, the library forms none; at k = 6 the oracle's
    # powers would hold ~4e6 bits
    for k in (4, 5):
        w = StepWeight(StepFunction.of([(interval(0, Fraction(3, 10 ** k), "half_open"), Fraction(11, 9)),
                                        (interval(Fraction(3, 10 ** k), 1, "half_open"), Fraction(9, 11))]))
        value, zero = oracle.log_sum(oracle.log_pairs(w))
        report = log_integral_report(w)
        assert report.exact_zero == zero
        assert abs(report.value - value) <= _log_bound(w.form, *w.form.log_sum())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_step_spec(6)))
    assert main(["validate", "--spec", str(spec), "--task", "hctest"]) == 0
    assert main(["hctest", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 0
    log = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["hctest"]["log_integral"]
    mass = Fraction(3, 10 ** 6)
    expected = float(mass - (1 - mass)) * math.log(11 / 9)
    assert log["exact_zero"] is False and math.isclose(log["value"], expected, rel_tol=1e-12)


def test_long_walk_over_eight_pieces():
    # 400 rows over 8 arcs with values 2, 1/2, 3, 1/3: entries reach
    # 3^~100; rows 1-12, every 97th and row 400 against the oracle
    cuts = [Fraction(k, 8) for k in range(9)]
    values = [Fraction(v) for v in ("2", "1/2", "3", "1/3")] * 2
    w = StepWeight(StepFunction.of([(interval(lo, hi, "half_open"), v)
                                    for lo, hi, v in zip(cuts, cuts[1:], values)]))
    a = CIRCLE.from_float(math.sqrt(2) % 1)

    def wanted(n):
        return n <= 12 or n % 97 == 0 or n == 400

    hits = monotone_rows(w, a, horizon=400)
    rows = oracle.circle_step_rows(w, a, 400, wanted)
    checked = 0
    for n, hit, (points, row, den) in zip(range(1, 401), hits, rows):
        if wanted(n):
            assert hit == oracle.exact_hit(n, points, row, den), n
            checked += 1
    assert checked == 17


def test_a_table_of_many_coprime_values_is_rejected():
    # 6561 residues holding the 669 primes below 5000 (and 1 elsewhere): a
    # row of 6561 entries x 669 base integers would pass 2^22 exponents, so
    # validation names the limit instead
    primes = [n for n in range(2, 5000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    values = {str(r): str(primes[r]) if r < len(primes) else "1" for r in range(3 ** 8)}
    spec = {"schema": 1, "group": {"group": "zp", "p": 3, "precision": 8}, "element": "1",
            "weight": {"level": 8, "values": values}}
    assert [d for d in validate(spec, "all") if d.startswith("weight:")] == [
        "weight: the values factor over 669 coprime integers; 6561 entries x 669 exponents "
        "exceed the limit 2^22"]


def test_the_exponent_limit_admits_exactly_2_to_the_22():
    # 64 primes over 2^16 entries fill the limit; one entry more passes it
    primes = [n for n in range(2, 400) if all(n % d for d in range(2, math.isqrt(n) + 1))][:64]
    values = [Fraction(primes[i % 64]) for i in range(2 ** 16)]
    assert ExponentForm(values).exponents.shape == (2 ** 16, 64)
    with pytest.raises(ValueError, match="65537 entries x 64 exponents exceed the limit 2\\^22$"):
        ExponentForm(values + [Fraction(2)])


@pytest.mark.parametrize("value", [Fraction(0), Fraction(-2, 3), -1, 0.0])
def test_a_form_rejects_a_value_that_is_not_positive(value):
    with pytest.raises(NonPositiveWeight, match="is not positive"):
        ExponentForm([Fraction(1), value])


def test_the_exact_sign_of_each_vector():
    form = ExponentForm([Fraction(2), Fraction(3)])
    for e, sign in (([0, 0], 0), ([1, 0], 1), ([-1, 0], -1), ([1, -1], -1), ([2, -1], 1), ([-2, 1], -1)):
        assert form.exact_sign(e) == sign == form.exact_sign(np.array(e))


# values whose numerators or denominators run to hundreds of digits: near
# 1, large, small, and sharing factors with each other and with the pools
_LARGE = [Fraction(10 ** 1000 + 1, 10 ** 1000), Fraction(10 ** 1000, 10 ** 1000 + 1), Fraction(3 ** 2000, 2 ** 3000),
          Fraction(1, 7 ** 1100), Fraction(2 ** 3000 - 1), Fraction(12 ** 400, 5 ** 600 + 1)]


def _fine_case(rng, i):
    """Case i of a seeded draw: for even i a circle step weight of 2-5 arcs
    whose ends have a common denominator 2^e, 3^e or 10^e, cycling e up to
    1000, some of them only a few units apart; for odd i a table weight on a
    zp / qp context and an element of valuation below its precision.
    Values from the pools and ``_LARGE``."""
    pool = rng.choice(list(POOLS.values())) + rng.sample(_LARGE, rng.randint(1, 3))
    if i % 2:
        p = rng.choice([2, 3, 5])
        window = rng.randint(0, 1)
        precision = rng.choice([k for k in (1, 2, 3) if p ** (k + window) <= 125])
        ctx = PAdicContext(p, precision, window)
        level = rng.choice([lv for lv in range(-window, precision + 1) if p ** (lv + window) <= 27])
        values = rng.choices(pool, k=p ** (level + window))
        unit = rng.choice([u for u in range(1, ctx.modulus) if u % p])
        a = ctx.from_residue(unit * p ** rng.randrange(precision) % ctx.modulus)
        return PAdicTableWeight(ctx, level, dict(enumerate(values))), a
    den = [2, 3, 10][i // 2 % 3] ** [1, 3, 40, 300, 330, 700, 1000][i // 6 % 7]
    k = rng.randint(2, min(5, den))
    cuts = set()
    while len(cuts) < k:
        cuts.add(rng.randint(0, min(20, den - 1)) if rng.random() < 0.3 else rng.randrange(den))
    cuts = sorted(cuts)
    values = rng.choices(pool, k=k)
    w = StepWeight(StepFunction.of(
        [(interval(Fraction(cuts[j], den), Fraction(cuts[(j + 1) % k], den), "half_open"), values[j])
         for j in range(k)]))
    return w, None


def _mp_log_mean(pairs):
    """sum_i m_i ln v_i over (mass, value) pairs in mpmath, 60 digits past
    the masses' common denominator D, so that cancellation between values
    leaves 60 digits of every term s_j / D ln b_j; and that precision's
    error bound."""
    D = math.lcm(*(Fraction(m).denominator for m, _ in pairs))
    with mpmath.workdps(60 + len(str(D))):
        total = mpmath.fsum(mpmath.mpf(Fraction(m).numerator) / Fraction(m).denominator
                            * (mpmath.log(Fraction(v).numerator) - mpmath.log(Fraction(v).denominator))
                            for m, v in pairs)
        return total, mpmath.mpf(10) ** -(50 + len(str(D)))


def _assert_near(value, pairs, bound):
    """``value`` within ``bound`` of the mpmath log-mean of ``pairs``, and
    of the reference's own error, and of a few subnormal units (a term below
    2^-1022 is rounded to a multiple of 2^-1074)."""
    ref, ref_error = _mp_log_mean(pairs)
    assert abs(mpmath.mpf(value) - ref) <= bound + ref_error + 2.0 ** -1070


def test_log_values_of_fine_masses_and_large_values_match_mpmath():
    # masses over up to 10^1000 raise the oracle's values to powers of
    # ~10^1000, which it cannot form; the log values need none
    rng = random.Random(25)
    for i in range(100):
        w, a = _fine_case(rng, i)
        report = log_integral_report(w)
        _assert_near(report.value, oracle.log_pairs(w), _log_bound(w.form, *w.form.log_sum()))
        if a is None:
            continue
        cosets = coset_log_integrals(qp_reduction(w, a))
        for c, values in zip(cosets, oracle.coset_values(w, a), strict=True):
            bound = _log_bound(c.form, c.form.log_masses[0], c.exponents)
            _assert_near(c.value, [(Fraction(1, len(values)), v) for v in values], bound)
            mass = Fraction(1, len(values) * len(cosets))
            _assert_near(c.global_share, [(mass, v) for v in values], bound / len(cosets))
    # masses 1/2 + 10^-300 and 1/2 - 10^-300 of 2 and 1/2: the pieces' logs
    # cancel in the exact exponent sum, so 2 10^-300 ln 2 keeps its last bits
    half = Fraction(1, 2) + Fraction(1, 10 ** 300)
    w = StepWeight(StepFunction.of([(interval(0, half, "half_open"), Fraction(2)),
                                    (interval(half, 1, "half_open"), Fraction(1, 2))]))
    assert math.isclose(log_integral_report(w).value, 2e-300 * math.log(2), rel_tol=1e-15)
