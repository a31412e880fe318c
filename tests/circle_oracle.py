"""An exact brute-force oracle for circle orbit counts in translated sets.

Every orbit point is a ``Fraction``.  The count of a set at a translate x is
taken point by point with ``IntervalSet.contains(v + x)``, at every exact
event position b - v (b a set boundary, v an orbit point) and at the exact
midpoint of every cell between consecutive events, the cell after the last
event wrapping past 0 to the first.  Candidates run in increasing translate
order over [0, 1), so the first candidate at an extreme is the first
translate reaching it."""

from collections import Counter
from fractions import Fraction


def orbit_points(a, ks):
    """The points -k*a mod 1 for k in ``ks``, with multiplicities."""
    return Counter((-k * a.value) % 1 for k in ks)


def sweep(points, sets):
    """(translate, per-set counts) at every candidate, in translate order."""
    ends = {b % 1 for K in sets for lo, hi in K.open_part for b in (lo, hi)}
    ends |= {pt for K in sets for pt in K.point_part}
    events = sorted({(b - v) % 1 for b in ends for v in points})
    xs = [Fraction(0)]
    if events:
        cells = [(x + y) / 2 for x, y in zip(events, events[1:])]
        cells.append((events[-1] + events[0] + 1) / 2 % 1)
        xs = sorted(events + cells)
    return [
        (x, tuple(sum(m for v, m in points.items() if K.contains(v + x)) for K in sets))
        for x in xs
    ]


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


def row_pairs(points, row, den):
    """The (translate, w_n) pairs of a ``circle_step_rows`` row
    ``(points, row, den)``, as exact Fractions."""
    assert len(points) == len(row)
    return [(x, Fraction(v, den)) for x, v in zip(points, row)]
