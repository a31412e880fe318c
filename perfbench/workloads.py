"""Seeded spec generators, one per workload.

Each generator takes the workload seed and returns a batch of ``Case``s.  A
case holds the spec that hclab sees (written to its own spec file) and the
properties the generator built into it, which the benchmark checks against
the report; hclab never sees the properties.

Batches are stratified: every workload has a fixed list of size classes and
the batch visits them round-robin, so any prefix of a batch (the timed loop
stops mid-batch) has nearly the same cost mix whatever the seed.  The seed
chooses values inside a class -- angles, arc endpoints, weight tables,
ball centres -- never sizes; choices that change the amount of work, such as
the group of a finite spec or whether a p-adic element is a unit, follow the
position in the batch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = ("open", "closed", "half_open", "half_open_right")


@dataclass
class Case:
    id: str
    task: str
    spec: dict
    expect: dict = field(default_factory=dict)


def _irrational_angle(rng: random.Random) -> float:
    """sqrt of a non-square integer mod 1: a binary64 angle hclab treats as
    irrational (it is passed as a float, never as a rational string)."""
    while True:
        q = rng.randint(2, 5000)
        if math.isqrt(q) ** 2 != q:
            return math.sqrt(q) % 1.0


def _arc(rng: random.Random) -> list:
    den = rng.choice((7, 12, 30, 97))
    lo = rng.randrange(den - 1)
    hi = rng.randint(lo + 1, den)
    return [[str(Fraction(lo, den)), str(Fraction(hi, den))], rng.choice(VARIANTS)]


def _reciprocal_values(rng: random.Random, pairs: int) -> list[Fraction]:
    """2 * pairs values in reciprocal pairs (v, 1/v) with v != 1."""
    out = []
    for _ in range(pairs):
        v = Fraction(rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 3, 4, 9)))
        if v == 1:
            v = Fraction(3, 2)
        out += [v, 1 / v]
    return out


def _round_robin(classes, size, make):
    """``make(i, class, cycle)`` for i < size; ``cycle`` counts the passes
    through the classes."""
    return [make(i, classes[i % len(classes)], i // len(classes)) for i in range(size)]


# ---------------------------------------------------------------------------
# circle-float: float numpy paths of equidist and exprs


CIRCLE_FLOAT_CLASSES = [
    (sets, chars, n_max, offset)
    for n_max in (3000, 10000)
    for sets in (1, 2, 3)
    for chars in (1, 2)
    for offset in (False, True)
]


def circle_float(seed: int) -> list[Case]:
    rng = random.Random(f"circle-float/{seed}")

    def make(i, cls, cycle):
        n_sets, n_chars, n_max, offset = cls
        c = round(rng.uniform(0.3, 1.2), 4)
        phi = round(rng.random(), 6)
        expr = f"{c}*sin(2*pi*(x-{phi}))"
        if offset:
            expr += " + 1/10"
        spec = {
            "schema": 1,
            "label": f"circle-float/{seed}/{i}",
            "group": {"group": "circle"},
            "element": {"angle": _irrational_angle(rng)},
            "weight": {"expr": f"exp({expr})"},
            "sets": [_arc(rng) for _ in range(n_sets)],
            "characters": rng.sample(range(1, 9), n_chars),
            "horizons": {"N_list": [100, 1000, n_max]},
        }
        return Case(f"{i:03d}", "all", spec, {"log_offset": 0.1 if offset else 0.0})

    return _round_robin(CIRCLE_FLOAT_CLASSES, 48, make)


# ---------------------------------------------------------------------------
# padic-verdict: exact U/L scans and weight products on zp / qp


# (p, precision, window, ul_n_max, monotone n_max, declared locally constant).
# Horizons are sized so that every class costs about the same: a declared
# locally-constant table stops at the LocallyConstant rule before the U/L
# scan, so it gets a longer ul_n_max for its ul_witness.csv rows.
PADIC_CLASSES = [
    (2, 3, 0, 84, 24, True),
    (2, 3, 0, 64, 24, False),
    (2, 4, 0, 68, 16, True),
    (2, 4, 0, 60, 16, False),
    (2, 5, 0, 35, 12, True),
    (2, 5, 0, 19, 12, False),
    (3, 3, 0, 36, 12, True),
    (3, 3, 0, 20, 12, False),
    (3, 4, 0, 21, 10, True),
    (3, 4, 0, 10, 10, False),
    (5, 3, 0, 15, 8, True),
    (5, 3, 0, 7, 8, False),
    (2, 5, 1, 20, 20, True),
    (2, 4, 1, 21, 12, False),
    (3, 4, 1, 8, 10, True),
    (3, 3, 1, 11, 8, False),
]


def _balanced_table(rng: random.Random, size: int, cosets: int = 1) -> list[Fraction]:
    """Rational values whose product over each residue class mod ``cosets``
    is exactly 1 (reciprocal pairs, plus a 1 when a class has odd size).  The
    Haar log-integral is then exactly 0 on the whole group and on every coset
    of the translation's level, which is what a windowed context reduces to."""
    out = [Fraction(1)] * size
    for b in range(cosets):
        slots = list(range(b, size, cosets))
        vals = _reciprocal_values(rng, len(slots) // 2) + ([Fraction(1)] if len(slots) % 2 else [])
        rng.shuffle(vals)
        for r, v in zip(slots, vals):
            out[r] = v
    return out


def padic_verdict(seed: int) -> list[Case]:
    rng = random.Random(f"padic-verdict/{seed}")

    def make(i, cls, cycle):
        p, K, window, ul_n_max, n_max, declared = cls
        size = p ** (K + window)
        # a unit, or p times a unit, so coset_log_integrals sees 1 or p cosets
        unit = rng.choice([u for u in range(1, p * p) if u % p])
        shift = 0 if window else cycle % 2
        values = _balanced_table(rng, size, p ** (shift + window))
        keys = [str(Fraction(r, p ** window)) for r in range(size)]
        group = {"group": "qp" if window else "zp", "p": p, "precision": K}
        if window:
            group["window"] = window
        spec = {
            "schema": 1,
            "label": f"padic-verdict/{seed}/{i}",
            "group": group,
            "element": str(unit * p ** shift),
            "weight": {"level": K, "values": dict(zip(keys, map(str, values))),
                       "declared_locally_constant": declared},
            "sets": [{"center": str(rng.randrange(p ** K)), "radius_exp": rng.randint(1, K)}],
            "horizons": {"N_list": [10, 30], "n_max": n_max, "ul_n_max": ul_n_max},
        }
        return Case(f"{i:03d}", "all", spec, {"balanced": True, "declared_locally_constant": declared})

    return _round_robin(PADIC_CLASSES, 80, make)


# ---------------------------------------------------------------------------
# exact-step: exact log sums and exact monotone scans (circle steps, finite)


# catalog groups and their orders, so generating a batch needs nothing from hclab
FINITE_GROUPS = {"Z12": 12, "Z16": 16, "S3": 6, "D4": 8, "Q8": 8, "A4": 12, "Z4xZ4": 16, "Z2xZ8": 16}

# ("step", pairs, n_max, balanced) or ("finite", balanced).  Classes come in
# pairs of similar cost, so neither the median nor the 90th percentile sits
# on the edge between two cost clusters.
EXACT_CLASSES = [
    ("finite", True),
    ("step", 1, 50, False),
    ("step", 1, 30, True),
    ("step", 1, 40, True),
    ("finite", False),
    ("step", 1, 50, False),
    ("step", 2, 20, True),
    ("step", 1, 40, True),
]


def _step_weight(rng: random.Random, pairs: int, balanced: bool) -> list:
    """2 * pairs arcs; each reciprocal pair of values sits on two arcs of
    equal measure, so the exact log-integral is 0.  Unbalanced weights scale
    one value by 6/5, which makes it nonzero."""
    den = rng.choice((12, 20, 30))
    pieces_per_pair = []
    remaining = den
    for k in range(pairs):
        left = pairs - k - 1
        m = rng.randint(1, (remaining - 2 * left) // 2) if left else remaining // 2
        pieces_per_pair.append(m)
        remaining -= 2 * m
    units = []
    values = _reciprocal_values(rng, pairs)
    for k, m in enumerate(pieces_per_pair):
        units += [(m, values[2 * k]), (m, values[2 * k + 1])]
    if remaining:  # leftover measure gets value 1, which keeps the balance
        units.append((remaining, Fraction(1)))
    if not balanced:
        units[0] = (units[0][0], units[0][1] * Fraction(6, 5))
    rng.shuffle(units)
    start = rng.randrange(den)
    pieces, pos = [], start
    for m, v in units:
        lo, hi = Fraction(pos, den) % 1, Fraction(pos + m, den) % 1
        pieces.append([[[str(lo), str(hi)], "half_open"], str(v)])
        pos += m
    return pieces


def exact_step(seed: int) -> list[Case]:
    rng = random.Random(f"exact-step/{seed}")

    def make(i, cls, cycle):
        label = f"exact-step/{seed}/{i}"
        if cls[0] == "step":
            _, pairs, n_max, balanced = cls
            spec = {
                "schema": 1,
                "label": label,
                "group": {"group": "circle"},
                "element": {"angle": _irrational_angle(rng)},
                "weight": {"step": _step_weight(rng, pairs, balanced)},
                "sets": [_arc(rng)],
                "horizons": {"N_list": [10, 100], "n_max": n_max},
            }
            return Case(f"{i:03d}", "all", spec, {"balanced": balanced})
        balanced = cls[1]
        name = sorted(FINITE_GROUPS)[cycle % len(FINITE_GROUPS)]
        order = FINITE_GROUPS[name]
        values = _balanced_table(rng, order)
        if not balanced:
            values[0] *= Fraction(6, 5)
        spec = {
            "schema": 1,
            "label": label,
            "group": {"group": "finite", "name": name},
            "element": rng.randrange(1, order),
            "weight": {"values": [str(v) for v in values]},
            "sets": [{"indices": sorted(rng.sample(range(order), rng.randint(1, order - 1)))}],
            "horizons": {"N_list": [10, 100], "n_max": 30},
        }
        return Case(f"{i:03d}", "all", spec, {"balanced": balanced, "finite": True, "group_order": order})

    return _round_robin(EXACT_CLASSES, 64, make)


# ---------------------------------------------------------------------------
# orbit-exhaustive: exhaustive p-adic sup_deviation over ball unions


# (p, precision, window, element valuation, balls per set, N_list); the
# modulus p^(precision + window) is 3^4..3^6 or 2^6..2^9
ORBIT_CLASSES = [
    (3, 4, 0, 0, 40, [10, 100]),
    (2, 6, 0, 0, 12, [10, 100, 1000]),
    (3, 4, 1, 2, 8, [10, 100]),
    (2, 6, 1, 1, 6, [10, 100]),
    (3, 6, 0, 4, 3, [10, 100]),
    (2, 8, 0, 3, 5, [10, 100]),
    (3, 4, 0, 0, 12, [10, 100, 1000]),
    (2, 8, 1, 5, 3, [10, 100]),
]


def _disjoint_balls(rng: random.Random, p: int, K: int, m: int, count: int) -> list[dict]:
    """``count`` balls of one level that normalisation cannot fuse (no parent
    gets all p children), so every seed gives sets of exactly ``count`` balls.
    A ball of level j holds the residues mod p^(j+m) of a window-m context,
    and its centre is residue / p^m."""
    levels = [j for j in range(2 - m, K + 1) if p ** (j + m - 1) * (p - 1) >= count]
    j = rng.choice(levels)
    residues = list(range(p ** (j + m)))
    rng.shuffle(residues)
    taken, per_parent = [], {}
    for r in residues:
        parent = r % p ** (j + m - 1)
        if per_parent.get(parent, 0) < p - 1:
            per_parent[parent] = per_parent.get(parent, 0) + 1
            taken.append(r)
            if len(taken) == count:
                break
    return [{"center": str(Fraction(r, p ** m)), "radius_exp": j} for r in taken]


def orbit_exhaustive(seed: int) -> list[Case]:
    rng = random.Random(f"orbit-exhaustive/{seed}")

    def make(i, cls, cycle):
        p, K, window, v, n_balls, N_list = cls
        unit = rng.choice([u for u in range(1, p ** K) if u % p])
        group = {"group": "qp" if window else "zp", "p": p, "precision": K}
        if window:
            group["window"] = window
        spec = {
            "schema": 1,
            "label": f"orbit-exhaustive/{seed}/{i}",
            "group": group,
            "element": str(unit * p ** v),
            "sets": [_disjoint_balls(rng, p, K, window, n) for n in (n_balls, max(3, n_balls // 3))],
            "horizons": {"N_list": N_list},
        }
        return Case(f"{i:03d}", "equidist", spec, {})

    return _round_robin(ORBIT_CLASSES, 40, make)


GENERATORS = {
    "circle-float": circle_float,
    "padic-verdict": padic_verdict,
    "exact-step": exact_step,
    "orbit-exhaustive": orbit_exhaustive,
}
