"""Acceptance gate: one test per criterion, each printing a PASS line and
enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
from hclab.borel import interval
from hclab.cli import main as cli_main
from hclab.equidist import sup_deviation, uniform_convergence_sweep
from hclab.exprs import Expr
from hclab.groups import CIRCLE, OrbitSequence, PAdicContext, catalog
from hclab.hctest import log_integral_report, verdict
from hclab.lemmas import (
    CircleGrid,
    DiscretizedFunction,
    conjugate_scale,
    multiplication_diagram_defect,
    operator_power_identity_check,
    step_approx,
    translation_diagram_defect,
)
from hclab.padic import coset_log_integrals, qp_reduction, ul_sets
from hclab.repcheck import fixed_irrep_multiplicity, noncyclic_equivalence_check
from hclab.weights import ExprWeight, PAdicTableWeight, weight_product

from test_borel import random_interval_set, probe_points, unpinch
from test_repcheck import cycle_count_oracle

GOLDEN = (math.sqrt(5) - 1) / 2


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def done(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.1f}s exceeds {self.limit}s"
        print(f"ACCEPTANCE PASS [{elapsed:5.1f}s < {self.limit}s] {label}")


def test_criterion_01_group_laws():
    budget = Budget(5)
    for name, g in catalog().items():
        assert g.order <= 16
        e = g.identity
        for a in g.elements():
            assert g.mul(e, a) == a == g.mul(a, e)
            assert g.mul(a, g.inv(a)) == e
            for b in g.elements():
                ab = g.mul(a, b)
                for c in g.elements():
                    assert g.mul(ab, c) == g.mul(a, g.mul(b, c))
    rng = random.Random(100)
    ctx = PAdicContext(3, 4, window=1)
    for _ in range(10_000):
        x, y, z = (CIRCLE.from_float(rng.random()) for _ in range(3))
        assert ((x + y) + z).value == (x + (y + z)).value
        assert (x + (-x)).value == 0
        u, v, w = (ctx.from_residue(rng.randrange(ctx.modulus)) for _ in range(3))
        assert ((u + v) + w).residue == (u + (v + w)).residue
        assert (u + (-u)).residue == 0
    budget.done("criterion 1: group laws, full catalog + 10^4 random triples")


def test_criterion_02_borel_algebra():
    budget = Budget(10)
    rng = random.Random(101)
    for _ in range(1000):
        A = random_interval_set(rng)
        B = random_interval_set(rng)
        U, I, C = A.union(B), A.intersection(B), A.complement()
        assert A.measure() + B.measure() == U.measure() + I.measure()
        assert A.measure() + C.measure() == 1
        for x in probe_points(A, B):
            assert U.contains(x) == (A.contains(x) or B.contains(x))
            assert C.contains(x) != A.contains(x)
    from hclab.borel import SetForm

    for _ in range(1000):
        A = unpinch(random_interval_set(rng))
        B = unpinch(random_interval_set(rng))
        fa, fb = A.classify(), B.classify()
        if fa is SetForm.FORM1:
            assert A.complement().classify() in (SetForm.FORM1, SetForm.FORM2)
        if fa is SetForm.FORM1 and fb is SetForm.FORM1:
            assert A.union(B).classify() is SetForm.FORM1
        if fa is SetForm.FORM2:
            assert A.complement().classify() is SetForm.FORM1
    budget.done("criterion 2: borel algebra laws + classification closure, 10^3 pairs")


def test_criterion_03_uniform_weyl_bound():
    budget = Budget(30)
    violations = 0
    for af in (GOLDEN, math.sqrt(2) - 1, (1 / math.pi) % 1):
        a = CIRCLE.from_float(af)
        for k in (1, 2, 3):
            for pt in uniform_convergence_sweep(k, a, [10, 100, 1000, 10_000]):
                assert pt.bound is not None
                if pt.sup_deviation > pt.bound:
                    violations += 1
    assert violations == 0
    budget.done("criterion 3: character averages within the uniform bound, 0 violations")


def test_criterion_04_homogeneous_equidistribution():
    budget = Budget(60)
    golden_seq = OrbitSequence(CIRCLE, CIRCLE.from_float(GOLDEN))
    K = interval(0, Fraction(1, 2), "half_open")
    assert sup_deviation(K, golden_seq, 10 ** 4) <= 0.01
    assert sup_deviation(K, golden_seq, 10 ** 5) <= 0.002
    torsion_seq = OrbitSequence(CIRCLE, CIRCLE.element("1/4"))
    K8 = interval(0, Fraction(1, 8), "half_open")
    for N in range(2, 10_001):
        assert sup_deviation(K8, torsion_seq, N) >= 0.05
    budget.done("criterion 4: golden-rotation sup deviations + torsion control")


def test_criterion_05_noncyclic_validator():
    budget = Budget(5)
    for name, g in catalog().items():
        assert noncyclic_equivalence_check(g), name
        for a in g.elements():
            cert = fixed_irrep_multiplicity(a, g)
            assert cert.multiplicity == cycle_count_oracle(g, a)
    budget.done("criterion 5: generation criterion validator over the catalog")


def step_values_on_grid(phi, xs):
    """Vectorized step evaluation; asserts the pieces tile the grid."""
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


def test_criterion_06_log_integral_machinery():
    budget = Budget(60)
    # (a) quadrature values
    assert abs(log_integral_report(ExprWeight("exp(sin(2*pi*x))")).value) <= 1e-5
    assert abs(log_integral_report(ExprWeight("exp(sin(2*pi*x) + 1/10)")).value - 0.1) <= 1e-5
    # (b) step approximation sandwich on a 16x verification grid
    W = Expr("sin(2*pi*x)")
    xs = np.arange(16 * 4096) / (16 * 4096)
    wv = np.asarray(W(xs), dtype=float)
    for eps in (0.5, 0.1, 0.02):
        for side in ("above", "below"):
            phi = step_approx(W, eps, side, grid_points=4096)
            pv = step_values_on_grid(phi, xs)
            diff = pv - wv
            if side == "above":
                assert diff.min() >= 0 and diff.max() <= eps
            else:
                assert diff.max() <= 0 and diff.min() >= -eps
    # (c) cocycle identity
    rng = random.Random(102)
    ctx = PAdicContext(3, 3)
    for _ in range(500):
        size = 27
        w = PAdicTableWeight(
            ctx, 3, {r: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for r in range(size)}
        )
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        x = ctx.from_residue(rng.randrange(ctx.modulus))
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        assert weight_product(w, a, m + n, x) == weight_product(w, a, n, x) * weight_product(
            w, a, m, x - a.scalar_mul(n)
        )
    we = ExprWeight("exp(sin(2*pi*x)/2 + cos(2*pi*x)/3)")
    for _ in range(500):
        a = CIRCLE.from_float(rng.random())
        x = CIRCLE.from_float(rng.random())
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        lhs = weight_product(we, a, m + n, x)
        rhs = weight_product(we, a, n, x) * weight_product(we, a, m, x - CIRCLE.power(a, n))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    # (d) operator power identity
    grid = CircleGrid(64)
    for _ in range(100):
        c0, c1 = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        w = ExprWeight(f"exp({c0}*sin(2*pi*x) + {c1}*cos(2*pi*x))")
        a = CIRCLE.rational(rng.randrange(64), 64)
        f = DiscretizedFunction.from_values(
            grid, tuple(rng.uniform(-1, 1) for _ in range(64))
        )
        n = rng.randint(1, 5)
        assert operator_power_identity_check(w, a, n, f) <= 1e-9
    ctx2 = PAdicContext(2, 4)
    for _ in range(25):
        w = PAdicTableWeight(
            ctx2, 4, {r: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for r in range(16)}
        )
        a = ctx2.from_residue(rng.randrange(1, 16))
        f = DiscretizedFunction.delta(ctx2, rng.randrange(16))
        assert operator_power_identity_check(w, a, rng.randint(1, 5), f) == 0
    budget.done("criterion 6: log integrals, step sandwich, cocycle, power identity")


def test_criterion_07_three_coset_reproduction():
    budget = Budget(1)
    ctx = PAdicContext(3, 2)
    w = PAdicTableWeight(ctx, 1, {0: "2", 1: "1/2", 2: "1"})
    a = ctx.element(1)
    for n in (1, 2):
        wit = ul_sets(w, a, n, 0)
        assert wit.u_nonempty and wit.l_nonempty
    wit3 = ul_sets(w, a, 3, 0)
    assert not wit3.u_nonempty and not wit3.l_nonempty
    rep = verdict(w, a)
    assert rep.verdict == "NotHypercyclic"
    assert rep.fired_rule.rule == "LocallyConstant"
    assert rep.fired_rule.params["k"] == 1
    one = PAdicTableWeight(ctx, 0, {0: "1"})
    rep1 = verdict(one, a)
    assert rep1.fired_rule.rule == "MonotoneWeightPower"
    assert rep1.fired_rule.params["n"] == 1
    budget.done("criterion 7: three-coset U/L + locally-constant verdict, exact")


def test_criterion_08_coset_log_integrals():
    budget = Budget(1)
    ctx = PAdicContext(3, 2)
    base = {0: "2", 3: "1/2", 6: "1", 1: "1", 4: "1", 7: "1", 2: "1", 5: "1", 8: "1"}
    w = PAdicTableWeight(ctx, 2, base)
    a = ctx.element(3)
    cosets = coset_log_integrals(qp_reduction(w, a))
    assert [c.value for c in cosets] == [0.0, 0.0, 0.0]
    perturbed = dict(base)
    perturbed[0] = Fraction(2) * Fraction(21, 20)
    w2 = PAdicTableWeight(ctx, 2, perturbed)
    cosets2 = coset_log_integrals(qp_reduction(w2, a))
    flagged = [c for c in cosets2 if not c.is_zero]
    assert len(flagged) == 1
    assert abs(flagged[0].value - math.log(1.05) / 3) <= 1e-12
    total = sum(c.global_share for c in cosets2)
    assert total == flagged[0].global_share  # the zero cosets contribute exactly 0.0
    from hclab.hctest import log_integral_report

    assert log_integral_report(w2).value == total
    budget.done("criterion 8: per-coset log integrals, exact zero tests and totals")


def test_criterion_09_conjugation_diagrams():
    budget = Budget(10)
    rng = random.Random(103)
    count = 0
    while count < 100:
        p, K = rng.choice([(2, 3), (3, 2), (5, 1)])
        ctx = PAdicContext(p, K)
        level = rng.randint(0 if p == 5 else 1, K)
        size = p ** level
        w = PAdicTableWeight(
            ctx, level, {r: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for r in range(size)}
        )
        a = ctx.from_residue(rng.randrange(1, ctx.modulus))
        n = rng.randint(1, 2 * p)
        xp = ctx.from_residue(rng.randrange(ctx.modulus))
        assert translation_diagram_defect(w, a, xp) == 0
        na = a.scalar_mul(n)
        if not na.is_zero() and (na.valuation() < ctx.precision):
            tri = conjugate_scale(w, a, n, xp)
            assert tri.reduced_element.valuation() == 0
            assert tri.commutation_defect() == 0
        assert multiplication_diagram_defect(w, a) == 0
        count += 1
    budget.done("criterion 9: conjugation diagrams commute exactly, 100 random tuples")


def test_criterion_10_determinism(tmp_path):
    budget = Budget(30)
    specs = {
        "padic.json": {
            "schema": 1,
            "group": {"group": "zp", "p": 3, "precision": 2},
            "element": "1",
            "weight": {"level": 1, "values": {"0": "2", "1": "1/2", "2": "1"}},
            "horizons": {"n_max": 6},
        },
        "eq.json": {
            "schema": 1,
            "group": {"group": "circle"},
            "element": {"angle": GOLDEN},
            "sets": [[["0", "1/2"], "half_open"]],
            "characters": [1],
            "horizons": {"N_list": [10, 100, 1000]},
        },
        "hc.json": {
            "schema": 1,
            "group": {"group": "circle"},
            "element": {"angle": GOLDEN},
            "weight": {"expr": "exp(sin(2*pi*x))"},
            "horizons": {"n_max": 10},
        },
    }
    tasks = {"padic.json": "padic", "eq.json": "equidist", "hc.json": "hctest"}
    for name, payload in specs.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        out1 = tmp_path / (name + ".run1")
        out2 = tmp_path / (name + ".run2")
        assert cli_main([tasks[name], "--spec", str(path), "--out-dir", str(out1)]) == 0
        assert cli_main([tasks[name], "--spec", str(path), "--out-dir", str(out2)]) == 0
        for artifact in sorted(os.listdir(out1)):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), artifact
    budget.done("criterion 10: byte-identical reruns for every task")
