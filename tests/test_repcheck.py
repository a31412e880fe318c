import math
import random

from hclab.lemmas import TestFunction
from hclab.groups import CIRCLE, catalog, cyclic
from hclab.repcheck import (
    circle_has_fixed_character,
    fixed_irrep_multiplicity,
    noncyclic_equivalence_check,
    regular_rep_cycles,
)


def cycle_count_oracle(group, a):
    """Independent cycle-count of x -> x*a, by following each orbit."""
    remaining = set(group.elements())
    cycles = 0
    while remaining:
        start = min(remaining)
        x = start
        while True:
            remaining.discard(x)
            x = group.mul(x, a)
            if x == start:
                break
        cycles += 1
    return cycles


def test_character_homomorphism():
    rng = random.Random(20)
    for k in (0, 1, 3, -2):
        chi = TestFunction.character(k).fn
        for _ in range(50):
            x, y = rng.random(), rng.random()
            assert abs(chi((x + y) % 1) - chi(x) * chi(y)) < 1e-12
    assert abs(TestFunction.character(0).fn(0.37) - 1) == 0


def test_circle_fixed_character_search():
    assert circle_has_fixed_character(CIRCLE.element("1/4"), 10) == 4
    assert circle_has_fixed_character(CIRCLE.from_float((math.sqrt(5) - 1) / 2), 10) is None
    assert circle_has_fixed_character(CIRCLE.element("2/5"), 10) == 5
    # denominator beyond the search bound
    assert circle_has_fixed_character(CIRCLE.element("1/17"), 10) is None
    assert circle_has_fixed_character(CIRCLE.element(0), 10) == 1


def test_fixed_irrep_multiplicity_examples():
    v4 = catalog()["V4"]
    for a in v4.elements():
        cert = fixed_irrep_multiplicity(a, v4)
        if a != v4.identity:
            assert cert.multiplicity == 2 and cert.verdict
    z5 = cyclic(5)
    cert = fixed_irrep_multiplicity(1, z5)
    assert cert.multiplicity == 1 and not cert.verdict
    z4 = cyclic(4)
    cert = fixed_irrep_multiplicity(2, z4)
    assert cert.multiplicity == 2 and cert.verdict


def test_multiplicity_equals_cycle_count_everywhere():
    for g in catalog().values():
        for a in g.elements():
            cert = fixed_irrep_multiplicity(a, g)
            assert cert.multiplicity == cycle_count_oracle(g, a)
            assert cert.multiplicity == len(regular_rep_cycles(g, a))
            assert cert.multiplicity * cert.order == g.order


def test_noncyclic_equivalence_on_catalog():
    for name, g in catalog().items():
        assert noncyclic_equivalence_check(g), name


def test_noncyclic_equivalence_details():
    z6 = cyclic(6)
    assert not fixed_irrep_multiplicity(1, z6).verdict  # generator escapes
    assert noncyclic_equivalence_check(z6)
    v4 = catalog()["V4"]
    assert all(fixed_irrep_multiplicity(a, v4).verdict for a in v4.elements())
    assert noncyclic_equivalence_check(v4)
    s3 = catalog()["S3"]
    assert max(s3.element_order(a) for a in s3.elements()) == 3 < 6
    assert noncyclic_equivalence_check(s3)
