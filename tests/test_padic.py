import math
import random
from fractions import Fraction

import pytest

from hclab.errors import WindowExceeded
from hclab.groups import PRECISION_CAP, PAdicContext
from hclab.hctest import ProductWalk, VerdictConfig, log_integral_report, verdict
from hclab.lemmas import (
    conjugate_scale,
    conjugate_translate,
    multiplication_diagram_defect,
    translation_diagram_defect,
)
from hclab.padic import (
    coset_log_integrals,
    is_locally_constant,
    locally_constant_obstruction,
    qp_reduction,
    ul_scan,
    ul_sets,
)
from hclab.report import RULE_LOCALLY_CONSTANT, RULE_UL_EMPTY
from hclab.weights import PAdicTableWeight, weight_product


def three_coset_weight(ctx=None):
    ctx = ctx or PAdicContext(3, 2)
    return PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "1"})


def random_table(rng, ctx, level):
    size = ctx.prime ** (level + ctx.window)
    return PAdicTableWeight(
        ctx, level, {r: Fraction(rng.randint(1, 7), rng.randint(1, 7)) for r in range(size)}
    )


# ---------------------------------------------------------------------------
# valuation and balls


def test_valuation_of_100_base_5():
    ctx = PAdicContext(5, 4)
    assert ctx.element(100).valuation() == 2


def test_valuation_small_cases():
    ctx = PAdicContext(3, 3)
    assert ctx.element(1).valuation() == 0
    assert ctx.element(0).valuation() is PRECISION_CAP
    assert ctx.element(6).valuation() == 1
    win = PAdicContext(3, 3, window=2)
    assert win.element(Fraction(1, 9)).valuation() == -2


def _v(x):
    """The valuation, with 0 (``PRECISION_CAP``) above every other."""
    return math.inf if x.is_zero() else x.valuation()


def test_ultrametric_properties_exhaustive():
    # v(x + y) >= min(v(x), v(y)), with equality when v(x) != v(y)
    for p, K, m in ((2, 4, 0), (3, 3, 0), (3, 2, 1)):
        ctx = PAdicContext(p, K, m)
        for i in range(ctx.modulus):
            x = ctx.from_residue(i)
            for j in range(ctx.modulus):
                y = ctx.from_residue(j)
                assert _v(x + y) >= min(_v(x), _v(y))
                if _v(x) != _v(y):
                    assert _v(x + y) == min(_v(x), _v(y))


# ---------------------------------------------------------------------------
# U/L sets


def test_ul_sets_constant_weight():
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 0, {0: "1"})
    u = ul_sets(w, ctx.element(1), 1)
    assert not u.u_nonempty and not u.l_nonempty


def test_ul_sets_three_coset():
    ctx = PAdicContext(3, 2)
    w = three_coset_weight(ctx)
    a = ctx.element(1)
    u1 = ul_sets(w, a, 1, 0)
    assert u1.u_nonempty and u1.l_nonempty
    assert 0 in u1.u_witnesses and 1 in u1.l_witnesses
    u2 = ul_sets(w, a, 2, 0)
    assert u2.u_nonempty and u2.l_nonempty
    u3 = ul_sets(w, a, 3, 0)
    assert not u3.u_nonempty and not u3.l_nonempty
    assert u3.radius == Fraction(1, 3)


def test_ul_witnesses_satisfy_strict_inequalities():
    rng = random.Random(40)
    ctx = PAdicContext(3, 2)
    for _ in range(30):
        w = random_table(rng, ctx, 2)
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        n = rng.randint(1, 8)
        wit = ul_sets(w, a, n, rng.randrange(ctx.modulus))
        for r in wit.u_witnesses:
            assert weight_product(w, a, n, ctx.from_residue(r)) > 1
        for r in wit.l_witnesses:
            assert weight_product(w, a, n, ctx.from_residue(r)) < 1


def test_ul_negative_step_convention():
    ctx = PAdicContext(3, 2)
    w = three_coset_weight(ctx)
    a = ctx.element(1)
    wit = ul_sets(w, a, -3, 0)
    # w_{-3} is the reciprocal of a 3-step product, identically 1 here
    assert not wit.u_nonempty and not wit.l_nonempty


def test_ul_translation_consistency():
    rng = random.Random(41)
    ctx = PAdicContext(3, 2)
    for _ in range(20):
        w = random_table(rng, ctx, 2)
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        n = rng.randint(1, 6)
        xp = ctx.from_residue(rng.randrange(ctx.modulus))
        direct = ul_sets(w, a, n, xp)
        _, shifted = conjugate_translate(w, a, xp)
        centered = ul_sets(shifted, a, n, 0)
        size = ctx.prime ** (centered.level + ctx.window)
        assert sorted((r + xp.residue) % size for r in centered.u_witnesses) == sorted(
            direct.u_witnesses
        )
        assert sorted((r + xp.residue) % size for r in centered.l_witnesses) == sorted(
            direct.l_witnesses
        )


# ---------------------------------------------------------------------------
# locally constant weights


def test_is_locally_constant_levels():
    ctx = PAdicContext(3, 2)
    assert is_locally_constant(PAdicTableWeight(ctx, 0, {0: "1"})) == 0
    assert is_locally_constant(three_coset_weight(ctx)) == 1
    full = {r: Fraction(r + 1) for r in range(9)}
    assert is_locally_constant(PAdicTableWeight(ctx, 2, full)) == 2
    # a finer table that happens to be constant on coarser cosets
    coarse = {r: Fraction(2) if r % 3 == 0 else Fraction(1) for r in range(9)}
    assert is_locally_constant(PAdicTableWeight(ctx, 2, coarse)) == 1
    truncated = PAdicTableWeight(ctx, 2, full, declared_locally_constant=False)
    assert is_locally_constant(truncated) is None


def test_locally_constant_obstruction_fires():
    ctx = PAdicContext(3, 2)
    w = three_coset_weight(ctx)
    frag = locally_constant_obstruction(w, ctx.element(1))
    assert frag.rule == RULE_LOCALLY_CONSTANT
    assert frag.params == {"k": 1, "n": 3}
    assert frag.witnesses["constant_value"] == 1


def test_locally_constant_obstruction_constant_weight():
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 0, {0: "3"})
    frag = locally_constant_obstruction(w, ctx.element(1))
    assert frag.params == {"k": 0, "n": 1}
    assert frag.witnesses["constant_value"] == 3


def test_locally_constant_obstruction_declared_nonconstant():
    ctx = PAdicContext(3, 2)
    table = {r: Fraction(r + 1) for r in range(9)}
    w = PAdicTableWeight(ctx, 2, table, declared_locally_constant=False)
    assert locally_constant_obstruction(w, ctx.element(1)) is None


def test_ul_scan_respects_declaration():
    ctx = PAdicContext(3, 2)
    rng = random.Random(42)
    w = PAdicTableWeight(
        ctx, 2, {r: Fraction(rng.randint(2, 5)) for r in range(9)},
        declared_locally_constant=False,
    )
    # every value > 1: the whole-ring ball at level 0 has L empty
    a = ctx.element(1)
    frag = ul_scan(ProductWalk(w, a, grid_points=0, ul_n_max=10, horizon=10))
    assert frag is not None and frag.rule == RULE_UL_EMPTY
    assert frag.params["empty_side"] == "L"


def test_the_battery_skips_balls_at_the_table_level():
    # a balanced level-4 table on Z_2, declared not locally constant: at
    # n = 16 the orbit's balls have radius 2^-4, one table entry each, and
    # the table cannot resolve the weight inside them, so nothing may fire
    ctx = PAdicContext(2, 4)
    values = "3/4 5/3 1/11 4/3 9/11 1/2 11/9 1/2 2 3/11 9/5 11/3 5/9 2 3/5 11".split()
    w = PAdicTableWeight(ctx, 4, dict(enumerate(values)), declared_locally_constant=False)
    rep = verdict(w, ctx.element(1), VerdictConfig(monotone_n_max=16, ul_n_max=60))
    assert rep.verdict == "NecessaryConditionsPassed" and rep.fired_rule is None


# ---------------------------------------------------------------------------
# coset log integrals


def test_coset_log_integrals_all_zero():
    ctx = PAdicContext(3, 2)
    table = {0: "2", 3: "1/2", 6: "1", 1: "1", 4: "1", 7: "1", 2: "1", 5: "1", 8: "1"}
    w = PAdicTableWeight(ctx, 2, table)
    cosets = coset_log_integrals(qp_reduction(w, ctx.element(3)))
    assert len(cosets) == 3
    assert all(c.is_zero and c.value == 0.0 for c in cosets)


def test_coset_log_integrals_flagged_perturbation():
    ctx = PAdicContext(3, 2)
    table = {0: Fraction(2) * Fraction(21, 20), 3: "1/2", 6: "1",
             1: "1", 4: "1", 7: "1", 2: "1", 5: "1", 8: "1"}
    w = PAdicTableWeight(ctx, 2, table)
    cosets = coset_log_integrals(qp_reduction(w, ctx.element(3)))
    flagged = [c for c in cosets if not c.is_zero]
    assert len(flagged) == 1
    assert flagged[0].value == pytest.approx(math.log(1.05) / 3, abs=1e-12)
    # rational bookkeeping: the coset products multiply to the global product
    total_product = Fraction(1)
    for c in cosets:
        total_product *= c.product
    global_product = Fraction(1)
    for v in w.table.values():
        global_product *= v
    assert total_product == global_product
    # and the float shares add to the flagged share exactly (zeros are 0.0)
    assert sum(c.global_share for c in cosets) == flagged[0].global_share


def test_coset_log_integrals_unit_element():
    ctx = PAdicContext(3, 2)
    w = three_coset_weight(ctx)
    cosets = coset_log_integrals(qp_reduction(w, ctx.element(1)))  # k = 0: one coset, all of the ring
    assert len(cosets) == 1
    assert cosets[0].is_zero  # 2 * 1/2 * 1 = 1


# (p, precision, window, table level, element): zp and qp contexts, unit and
# non-unit elements (a negative valuation on qp), and tables coarser than the
# coset level k = v_p(a)
_COSET_CASES = [
    (3, 3, 0, 2, "1"), (3, 3, 0, 2, "3"), (3, 3, 0, 1, "9"), (2, 4, 0, 2, "4"), (2, 4, 0, 0, "2"),
    (3, 2, 1, 2, "1"), (3, 2, 1, 1, "3"), (3, 2, 1, 0, "1/3"), (3, 2, 1, -1, "1"), (2, 3, 2, 1, "1/2"),
]


def test_coset_log_integrals_are_the_coset_problems_log_sums():
    """Each coset log-integral is its coset problem's exact log-integral, bit
    for bit; values from {1/2, 1, 2} make both zero and nonzero cosets."""
    rng = random.Random(53)
    seen = set()
    for p, precision, window, level, value in _COSET_CASES:
        ctx = PAdicContext(p, precision, window)
        size = p ** (level + window)
        w = PAdicTableWeight(ctx, level, {r: rng.choice(("1/2", "1", "2")) for r in range(size)})
        a = ctx.element(Fraction(value))
        problems = qp_reduction(w, a)
        cosets = coset_log_integrals(problems)
        assert len(cosets) == len(problems) == p ** (a.valuation() + window)
        for c, prob in zip(cosets, problems):
            res = log_integral_report(prob.weight)
            assert c.coset == prob.coset
            assert c.value.hex() == res.value.hex()
            assert c.is_zero == res.exact_zero
            seen.add(c.is_zero)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# conjugation diagrams


def test_conjugate_translate_identity_and_inverse():
    ctx = PAdicContext(3, 2)
    w = three_coset_weight(ctx)
    a = ctx.element(1)
    _, w0 = conjugate_translate(w, a, ctx.element(0))
    assert w0.table == w.table
    _, w1 = conjugate_translate(w, a, ctx.element(1))
    assert [w1.table[r] for r in range(3)] == [Fraction(1, 2), Fraction(1), Fraction(2)]
    _, back = conjugate_translate(w1, a, ctx.element(-1))
    assert back.table == w.table


def test_translation_diagram_commutes():
    rng = random.Random(43)
    ctx = PAdicContext(3, 2)
    for _ in range(15):
        w = random_table(rng, ctx, rng.randint(1, 2))
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        xp = ctx.from_residue(rng.randrange(ctx.modulus))
        assert translation_diagram_defect(w, a, xp) == 0


def test_conjugate_scale_trivial_case():
    ctx = PAdicContext(3, 3)
    w = three_coset_weight(PAdicContext(3, 3))
    a = ctx.element(1)
    tri = conjugate_scale(w, a, 1, 0)
    assert tri.scale_exponent == 0
    assert tri.reduced_element.residue == a.residue
    assert tri.reduced_weight.table == w.table


def test_conjugate_scale_reduction():
    ctx = PAdicContext(3, 3)
    w = three_coset_weight(PAdicContext(3, 3))
    a = ctx.element(1)
    tri = conjugate_scale(w, a, 3, 0)
    assert tri.scale_exponent == 1
    assert tri.reduced_element.valuation() == 0  # always a unit
    assert tri.reduced_context.precision == 2
    # w^(3)(y) = w_3(3y) = 1 identically for the three-coset weight
    assert all(v == 1 for v in tri.reduced_weight.table.values())
    assert tri.commutation_defect() == 0


def test_conjugate_scale_unit_and_commutation_random():
    rng = random.Random(44)
    for p, K in ((2, 3), (3, 2)):
        ctx = PAdicContext(p, K)
        for _ in range(10):
            w = random_table(rng, ctx, rng.randint(1, K))
            a = ctx.from_residue(rng.randrange(1, ctx.modulus))
            n = rng.randint(1, 2 * p)
            if a.scalar_mul(n).is_zero() or ctx.precision - (
                a.scalar_mul(n).valuation() or 0
            ) < 1:
                continue
            xp = ctx.from_residue(rng.randrange(ctx.modulus))
            try:
                tri = conjugate_scale(w, a, n, xp)
            except WindowExceeded:
                continue
            assert tri.reduced_element.valuation() == 0
            assert tri.commutation_defect() == 0


def test_multiplication_diagram_commutes():
    rng = random.Random(45)
    ctx = PAdicContext(3, 2)
    for _ in range(15):
        w = random_table(rng, ctx, rng.randint(1, 2))
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        assert multiplication_diagram_defect(w, a) == 0


def test_product_of_level_k_weights_stays_level_k():
    rng = random.Random(46)
    ctx = PAdicContext(3, 3)
    for _ in range(20):
        w = random_table(rng, ctx, 1)
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        n = rng.randint(1, 6)
        # w_n evaluated on any two points of the same level-1 coset agrees
        for r in range(3):
            vals = {
                weight_product(w, a, n, ctx.from_residue(r + 3 * t)) for t in range(9)
            }
            assert len(vals) == 1


# ---------------------------------------------------------------------------
# windowed reduction


def test_qp_reduction_unit_element_is_single_problem():
    ctx = PAdicContext(3, 3, window=0)
    w = three_coset_weight(PAdicContext(3, 3, window=0))
    a = ctx.element(1)
    problems = qp_reduction(w, a)
    assert len(problems) == 1
    assert problems[0].element.residue == a.residue
    assert problems[0].weight.table == w.table


def test_qp_reduction_windowed_locally_constant():
    ctx = PAdicContext(3, 2, window=1)
    table = {r: "2" if r % 3 == 0 else ("1/2" if r % 3 == 1 else "1") for r in range(9)}
    w = PAdicTableWeight(ctx, 1, table)
    a = ctx.element(3)  # valuation 1: nine cosets of 3Z_3 in the window
    problems = qp_reduction(w, a)
    assert len(problems) == 9
    for prob in problems:
        assert prob.element.valuation() == 0
        frag = locally_constant_obstruction(prob.weight, prob.element)
        assert frag is not None  # every coset problem fires the obstruction


def test_qp_reduction_coset_integrals_match_global():
    rng = random.Random(47)
    ctx = PAdicContext(3, 2, window=1)
    w = random_table(rng, ctx, 2)
    a = ctx.element(3)
    cosets = coset_log_integrals(qp_reduction(w, a))
    prod = Fraction(1)
    for c in cosets:
        prod *= c.product
    global_prod = Fraction(1)
    for v in w.table.values():
        global_prod *= v
    assert prod == global_prod
    # all per-coset integrals zero forces the global integral to zero; the
    # converse can fail by cancellation across cosets (see below)
    if all(c.is_zero for c in cosets):
        assert global_prod == 1


def test_coset_integrals_can_cancel_globally():
    ctx = PAdicContext(3, 2)
    table = {0: "2", 3: "2", 6: "2", 1: "1/2", 4: "1/2", 7: "1/2",
             2: "1", 5: "1", 8: "1"}
    w = PAdicTableWeight(ctx, 2, table)
    cosets = coset_log_integrals(qp_reduction(w, ctx.element(3)))
    global_prod = Fraction(1)
    for c in cosets:
        global_prod *= c.product
    assert global_prod == 1  # the full integral vanishes
    assert not all(c.is_zero for c in cosets)  # but coset integrals do not


def test_qp_reduction_window_guard():
    ctx = PAdicContext(3, 2, window=1)
    w = random_table(random.Random(48), ctx, 1)
    with pytest.raises(WindowExceeded):
        qp_reduction(w, ctx.element(0))
