"""Property tests: the incremental n-step product rows of ``step_products``
and everything read from them (U/L sets, monotone scans) against the direct
``weight_product`` reference on small random p-adic and finite weights."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hclab.groups import PRECISION_CAP, PAdicContext, catalog
from hclab.hctest import monotone_power_scan
from hclab.padic import ul_sets
from hclab.weights import FiniteWeight, PAdicTableWeight, step_products, weight_product

PROPERTY = settings(max_examples=40, deadline=5000, derandomize=True, database=None)

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


def _brute_scan(points, product, n_max, require_strict):
    """The monotone scan written out from its definition."""
    for n in range(1, n_max + 1):
        vals = [product(n, x) for x in points]
        mn, mx = min(vals), max(vals)
        if mn >= 1:
            direction, strict = ">=1", mx > 1
        elif mx <= 1:
            direction, strict = "<=1", mn < 1
        else:
            continue
        if strict or not require_strict:
            witness = points[vals.index(mn if direction == ">=1" else mx)]
            return n, direction, strict, float(mn), float(mx), witness
    return None


def _hit_tuple(hit):
    if hit is None:
        return None
    assert hit.certified
    return hit.n, hit.direction, hit.strict, hit.min_value, hit.max_value, hit.witness


@PROPERTY
@given(padic_cases())
def test_padic_rows_equal_weight_product(case):
    w, a = case
    ctx = w.context
    size = ctx.prime ** (w.level + ctx.window)
    for n, row in zip(range(1, 2 * size + 1), step_products(w, a)):
        assert len(row) == size
        for r in range(ctx.modulus):
            assert row[r % size] == weight_product(w, a, n, ctx.from_residue(r))


@PROPERTY
@given(finite_cases())
def test_finite_rows_equal_weight_product(case):
    w, a = case
    g = w.group
    for n, row in zip(range(1, 2 * g.order + 1), step_products(w, a)):
        assert row == [weight_product(w, a, n, x) for x in g.elements()]


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
        list(range(size)),
        lambda n, r: weight_product(w, a, n, ctx.from_residue(r)),
        n_max,
        strict,
    )
    assert _hit_tuple(monotone_power_scan(w, a, n_max, require_strict=strict)) == expected


@PROPERTY
@given(finite_cases(), st.data())
def test_finite_monotone_scan_matches_brute_force(case, data):
    w, a = case
    g = w.group
    n_max = data.draw(st.integers(1, 2 * g.order))
    strict = data.draw(st.booleans())
    expected = _brute_scan(
        list(g.elements()), lambda n, x: weight_product(w, a, n, x), n_max, strict
    )
    assert _hit_tuple(monotone_power_scan(w, a, n_max, require_strict=strict)) == expected
