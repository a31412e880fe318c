"""An exact brute-force oracle for circle orbit counts in translated sets.

Orbit points and set ends are exact, and every count is taken point by
point: v + x is tested against the set's open arcs and isolated points, in
integers over one common denominator.  The candidate translates x are every
exact event position b - v (b a set boundary, v an orbit point) and the
exact midpoint of every cell between consecutive events, the cell after the
last event wrapping past 0 to the first.  Candidates run in increasing
translate order over [0, 1), so the first candidate at an extreme is the
first translate reaching it."""

import math
from collections import Counter
from fractions import Fraction


def orbit_points(a, ks):
    """The points -k*a mod 1 for k in ``ks``, with multiplicities."""
    return Counter((-k * a.value) % 1 for k in ks)


def sweep(points, sets):
    """(translate, per-set counts) at every candidate, in translate order.

    Orbit points, set ends and candidates are integers over one common
    denominator D, twice the lcm of every denominator in play: each event
    is then even, so each cell midpoint is an integer too.  A translate
    becomes a ``Fraction`` only when it is returned."""
    ends = {b % 1 for K in sets for lo, hi in K.open_part for b in (lo, hi)}
    ends |= {pt for K in sets for pt in K.point_part}
    D = 2 * math.lcm(*(f.denominator for f in (*ends, *points)))

    def scaled(f):
        return f.numerator * (D // f.denominator)

    ints = {scaled(v): m for v, m in points.items()}
    members = [([(scaled(lo), scaled(hi)) for lo, hi in K.open_part], {scaled(pt) for pt in K.point_part})
               for K in sets]
    events = sorted({(scaled(b) - v) % D for b in ends for v in ints})
    xs = [0]
    if events:
        cells = [(x + y) // 2 for x, y in zip(events, events[1:])]
        cells.append((events[-1] + events[0] + D) // 2 % D)
        xs = sorted(events + cells)

    def count(arcs, singles, x):
        # the terms v with v + x in the set, tested one by one
        total = 0
        for v, m in ints.items():
            t = (v + x) % D
            if t in singles or any(lo < t < hi for lo, hi in arcs):
                total += m
        return total

    return [(Fraction(x, D), tuple(count(arcs, singles, x) for arcs, singles in members)) for x in xs]


def sup_deviation(K, a, N):
    """sup over translates of |count/N - measure(K)| for the terms 1..N-1."""
    mu = K.measure()
    counts = [c for _, (c,) in sweep(orbit_points(a, range(1, N)), [K])]
    return float(max(abs(Fraction(c, N) - mu) for c in (min(counts), max(counts))))


def step_values_at(w, a, first_only=False):
    """``values_at(n)``: the (translate, w_n) pairs of a circle step weight at
    every candidate of the product orbit x, x-a, ..., x-(n-1)a; with
    ``first_only``, at the first candidate of each distinct vector of piece
    counts only, which is what a ``circle_step_rows`` row holds."""
    sets = [E for E, _ in w.step.pieces]
    alphas = [Fraction(v) for _, v in w.step.pieces]

    def values_at(n):
        out, seen = [], set()
        for x, counts in sweep(orbit_points(a, range(n)), sets):
            if first_only and counts in seen:
                continue
            seen.add(counts)
            prod = Fraction(1)
            for alpha, c in zip(alphas, counts):
                prod *= alpha ** c
            out.append((x, prod))
        return out

    return values_at


def row_pairs(points, values):
    """The (translate, w_n) pairs of a ``circle_step_rows`` row, from its
    translates and exact values (``exact_oracle.walk_rows``)."""
    assert len(points) == len(values)
    return list(zip(points, values))
