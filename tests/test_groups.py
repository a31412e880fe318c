import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab.errors import WindowExceeded
from hclab.families import family
from hclab.groups import (
    CIRCLE,
    MAX_ORBIT_DENOMINATOR,
    PRECISION_CAP,
    OrbitSequence,
    PAdicContext,
    catalog,
    cyclic,
    direct_product,
    klein_four,
)


def naive_power(group, a, n):
    """n-fold multiplication oracle."""
    if n < 0:
        return naive_power(group, group.inv(a), -n)
    x = group.identity
    for _ in range(n):
        x = group.mul(x, a)
    return x


def subgroup_closure(group, a):
    """Subgroup generated by a, by closure enumeration."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        y = group.mul(x, a)
        if y not in seen:
            seen.add(y)
            frontier.append(y)
    return seen


# ---------------------------------------------------------------------------
# multiplication


def test_circle_add_folds_mod_one():
    x = CIRCLE.element("3/4")
    y = CIRCLE.element("1/2")
    assert (x + y).value == Fraction(1, 4)


def test_padic_addition_matches_integer_oracle():
    ctx = PAdicContext(3, 2)
    x = ctx.from_digits([1, 2])  # 7
    y = ctx.from_digits([2, 0])  # 2
    assert (x + y).digits() == (0, 0)  # 9 = 0 mod 9
    assert (x + y).residue == (7 + 2) % 9


def test_finite_identity():
    g = catalog()["S3"]
    for x in g.elements():
        assert g.mul(g.identity, x) == x
        assert g.mul(x, g.identity) == x


@pytest.mark.parametrize("p,K", [(2, 6), (3, 4)])
def test_padic_addition_exhaustive(p, K):
    ctx = PAdicContext(p, K)
    M = ctx.modulus
    for i in range(M):
        for j in range(M):
            s = ctx.from_residue(i) + ctx.from_residue(j)
            assert s.residue == (i + j) % M


# ---------------------------------------------------------------------------
# powers


def test_power_of_zero_is_identity():
    g = catalog()["D4"]
    for a in g.elements():
        assert g.power(a, 0) == g.identity
    assert CIRCLE.power(CIRCLE.element("2/7"), 0).value == 0


def test_circle_negative_power_is_inverse():
    a = CIRCLE.element("1/4")
    assert CIRCLE.power(a, -1).value == Fraction(3, 4)


def test_z6_power_oracle():
    g = cyclic(6)
    assert g.power(2, 4) == naive_power(g, 2, 4) == 2


def test_power_matches_nfold_oracle_everywhere():
    rng = random.Random(0)
    for g in [cyclic(6), catalog()["S3"], catalog()["Q8"]]:
        for _ in range(10):
            a = rng.randrange(g.order)
            for n in range(-64, 65):
                assert g.power(a, n) == naive_power(g, a, n)
    # additive families: exact rational arithmetic makes this exact equality
    a = CIRCLE.element(Fraction(5, 17))
    for n in range(-64, 65):
        step = CIRCLE.zero
        for _ in range(abs(n)):
            step = step + a
        if n < 0:
            step = -step
        assert CIRCLE.power(a, n).value == step.value
    ctx = PAdicContext(5, 3)
    b = ctx.element(7)
    for n in range(-64, 65):
        assert b.scalar_mul(n).residue == (7 * n) % ctx.modulus


# ---------------------------------------------------------------------------
# order / torsion / generation


def test_order_examples():
    g = cyclic(6)
    assert g.element_order(g.identity) == 1
    assert g.element_order(2) == 3
    v4 = klein_four()
    for a in v4.elements():
        if a != v4.identity:
            assert v4.element_order(a) == 2


def test_order_divides_group_order():
    for g in catalog().values():
        for a in g.elements():
            assert g.order % g.element_order(a) == 0


def test_torsion_flags():
    # the torsion rule of each family is the one test of torsion
    assert family(CIRCLE).torsion(CIRCLE, CIRCLE.element("1/4"))
    golden = CIRCLE.from_float((math.sqrt(5) - 1) / 2)
    assert family(CIRCLE).torsion(CIRCLE, golden) is None
    ctx = PAdicContext(3, 4)
    assert family(ctx).torsion(ctx, ctx.element(9)) is None  # valuation 2 <= K: nonzero
    assert family(ctx).torsion(ctx, ctx.element(0))
    assert family(ctx).torsion(ctx, ctx.element(3 ** 4))  # vanishes at working precision


def test_generates_against_closure_oracle():
    g = cyclic(6)
    assert g.generates(1) and len(subgroup_closure(g, 1)) == 6
    v4 = klein_four()
    for a in v4.elements():
        assert not v4.generates(a)
        assert len(subgroup_closure(v4, a)) < 4
    for grp in catalog().values():
        for a in grp.elements():
            assert grp.generates(a) == (len(subgroup_closure(grp, a)) == grp.order)
    big = cyclic(5)
    assert not big.generates(big.identity)


# ---------------------------------------------------------------------------
# group laws


def test_group_laws_random_triples():
    rng = random.Random(1)
    for _ in range(300):
        x = CIRCLE.from_float(rng.random())
        y = CIRCLE.from_float(rng.random())
        z = CIRCLE.from_float(rng.random())
        assert ((x + y) + z).value == (x + (y + z)).value
        assert (x + (-x)).value == 0
    ctx = PAdicContext(3, 4, window=1)
    for _ in range(300):
        x = ctx.from_residue(rng.randrange(ctx.modulus))
        y = ctx.from_residue(rng.randrange(ctx.modulus))
        z = ctx.from_residue(rng.randrange(ctx.modulus))
        assert ((x + y) + z).residue == (x + (y + z)).residue
        assert (x + (-x)).residue == 0


def test_catalog_tables_are_valid_groups():
    groups = catalog()
    assert len(groups) >= 25
    for name, g in groups.items():
        assert g.order <= 16, name
        # constructor re-checks; spot-check associativity independently
        for a in g.elements():
            for b in g.elements():
                ab = g.mul(a, b)
                for c in g.elements():
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_direct_product_structure():
    g = direct_product(cyclic(2), cyclic(4))
    assert g.order == 8
    orders = sorted(g.element_order(a) for a in g.elements())
    assert orders == [1, 2, 2, 2, 4, 4, 4, 4]


# ---------------------------------------------------------------------------
# p-adic representation details


def test_padic_window_embedding():
    ctx = PAdicContext(3, 2, window=1)
    x = ctx.element(Fraction(1, 3))
    assert x.digits() == (1, 0, 0)
    assert x.valuation() == -1
    with pytest.raises(WindowExceeded):
        ctx.element(Fraction(1, 9))


def test_padic_zero_valuation_is_capped():
    ctx = PAdicContext(3, 2)
    assert ctx.element(0).valuation() is PRECISION_CAP


# ---------------------------------------------------------------------------
# orbit sequences


def test_orbit_recurrence():
    for group, a in [
        (CIRCLE, CIRCLE.element("2/7")),
        (catalog()["D4"], 3),
        (PAdicContext(3, 3), PAdicContext(3, 3).element(2)),
    ]:
        seq = OrbitSequence(group, a)
        for n in range(2, 8):
            t_n, t_1, t_prev = seq.term(n), seq.term(1), seq.term(n - 1)
            if group is CIRCLE:
                assert (t_n - t_1).value == t_prev.value
            elif isinstance(group, PAdicContext):
                assert (t_n - t_1).residue == t_prev.residue
            else:
                assert group.mul(t_n, group.inv(t_1)) == t_prev


# the enumerable groups: the catalog and a few zp / qp contexts
ENUMERABLE = [*catalog().values(), PAdicContext(2, 3), PAdicContext(3, 2), PAdicContext(5, 1),
              PAdicContext(2, 2, 1), PAdicContext(3, 1, 2)]


@pytest.mark.parametrize("g", ENUMERABLE, ids=[g.name for g in ENUMERABLE])
def test_enumerable_group_protocol(g):
    xs = list(g.elements())
    assert [g.index(x) for x in xs] == list(range(len(g)))
    for x in xs:
        e = g.power(x, 0)
        order = g.element_order(x)
        assert g.power(x, order) == e
        assert all(g.power(x, k) != e for k in range(1, order))
        assert g.mul(x, g.inv(x)) == e
        acc, back = e, e
        for n in range(1, len(g) + 2):
            acc, back = g.mul(acc, x), g.mul(back, g.inv(x))
            assert g.power(x, n) == acc
            assert g.power(x, -n) == back


def test_orbit_supports_count_all_terms():
    N = 137
    seq = OrbitSequence(CIRCLE, CIRCLE.element("3/8"))
    vals, counts = seq.angle_support(N)
    assert counts.sum() == N - 1
    assert len(vals) == 8
    ctx = PAdicContext(2, 3)
    pseq = OrbitSequence(ctx, ctx.element(2))
    assert sum(c for _, c in pseq.residue_support(N)) == N - 1
    g = catalog()["S3"]
    gseq = OrbitSequence(g, 3)
    assert sum(c for _, c in gseq.residue_support(N)) == N - 1


def test_orbit_sign_convention():
    seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    assert seq.term(1).value == Fraction(3, 4)
    fwd = OrbitSequence(CIRCLE, CIRCLE.inv(CIRCLE.element("1/4")))
    assert fwd.term(1).value == Fraction(1, 4)


@st.composite
def _rotations(draw):
    if draw(st.booleans()):
        return CIRCLE.from_float(draw(st.floats(2.0 ** -11, 1.0, exclude_max=True)))
    q = draw(st.integers(1, 10 ** 12))
    return CIRCLE.element(Fraction(draw(st.integers(0, q - 1)), q))


@settings(max_examples=60, deadline=None)
@given(_rotations(), st.integers(2, 3000))
def test_circle_orbit_has_at_most_three_gaps(a, N):
    """Three-distance theorem (Sos 1958, Swierczkowski 1958): the points
    k*a mod 1, k = 1..N-1, cut the circle into gaps of at most three lengths."""
    seq = OrbitSequence(CIRCLE, a)
    residues, counts = seq.angle_support(N)
    V = [int(v) for v in residues]
    D = a.value.denominator
    assert V == sorted(V) and len(set(V)) == len(V) and counts.sum() == N - 1
    assert V == sorted({(-k * a.value) % 1 * D for k in range(1, N)})
    gaps = {y - x for x, y in zip(V, V[1:])} | {V[0] + D - V[-1]}
    assert len(gaps) <= 3


def test_orbit_residues_at_the_denominator_limit():
    # a float with denominator exactly 2^64, and a rational denominator near
    # the limit that is no power of two (the residues come from doubling)
    for a in (CIRCLE.from_float(2.0 ** -12 + 2.0 ** -64),
              CIRCLE.element(Fraction(12345678901234567, 2 ** 64 - 59))):
        D = a.value.denominator
        assert D <= MAX_ORBIT_DENOMINATOR
        residues, counts = OrbitSequence(CIRCLE, a).angle_support(500, first=0)
        assert [int(v) for v in residues] == sorted(k * (-a.value % 1) * D % D for k in range(500))
    with pytest.raises(ValueError, match="2\\^64"):
        OrbitSequence(CIRCLE, CIRCLE.from_float(2.0 ** -70)).angle_support(10)
