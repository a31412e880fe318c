"""The big-integer arithmetic of exact weights, kept as a test oracle for
their exponent form (``hclab.weights.ExponentForm``): integer tables over a
least common denominator, n-step rows of integers over L^n, circle step
rows as per-entry products of powers, the Haar log-sum reduced as one
Fraction, and coset products of Fractions.  Nothing here factors a value or
reads a float log, so it shares no arithmetic with what it checks;
``walk_rows`` only reads the rows under test out of the library's blocks."""

import math
from fractions import Fraction

from hclab.equidist import Boundaries, Translates, sweep_blocks
from hclab.groups import CIRCLE, OrbitSequence
from hclab.hctest import MonotoneHit
from hclab.weights import FiniteWeight, PAdicTableWeight


def integer_table(values):
    """Exact rational values as integers over their least common
    denominator L: the list of value * L, and L."""
    fracs = [Fraction(v) for v in values]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def step_products(w, a):
    """(row, den) for n = 1, 2, ...: the n-step products of a table or
    finite weight as integers row[x] over den = L^n, by
    row_n[x] = w(x) * row_{n-1}[x a^-1]."""
    if isinstance(w, PAdicTableWeight):
        size = len(w.table)
        values, scale = integer_table(w.table[r] for r in range(size))
        back = [(r - a.residue) % size for r in range(size)]
    elif isinstance(w, FiniteWeight):
        g = w.group
        values, scale = integer_table(w.values)
        a_inv = g.inv(a)
        back = [g.mul(x, a_inv) for x in g.elements()]
    else:
        raise TypeError(w)
    row, den = list(values), scale
    while True:
        yield row, den
        row = [v * row[b] for v, b in zip(values, back)]
        den *= scale


def circle_step_rows(w, a, horizon=1, wanted=None):
    """(points, row, den) for n = 1, 2, ...: a circle step weight's rows at
    the first candidate of each count vector, each entry the product of the
    piece values' integers to their counts, over den = L^n.  Rows whose n
    ``wanted`` rejects yield None for row, and cost no products."""
    values, scale = integer_table(v for _, v in w.step.pieces)
    bounds = Boundaries.prepare(a.value.denominator, *(E for E, _ in w.step.pieces))
    seq, n, den = OrbitSequence(CIRCLE, a), 0, 1
    for block in sweep_blocks(bounds, seq, horizon):
        firsts, ends = block.distinct_firsts()
        for q in range(len(block)):
            n, den = n + 1, den * scale
            first = firsts[ends[q]:ends[q + 1]]
            row = None
            if wanted is None or wanted(n):
                row = [math.prod(map(pow, values, c)) for c in block.counts[first].tolist()]
            yield Translates(bounds, seq, n, first - block.offsets[q]), row, den


def _float(num, den):
    try:
        return num / den
    except OverflowError:
        return math.inf


def exact_hit(n, points, values, den):
    """The monotone row of the products values[i] / den at points[i]; the
    witness is the first point at the extreme."""
    mn, mx = min(values), max(values)
    lo, hi = _float(mn, den), _float(mx, den)
    if not (mn >= den or mx <= den):
        return MonotoneHit(n, None, False, False, lo, hi)
    up = mn >= den
    i = values.index(mn if up else mx)
    return MonotoneHit(n, ">=1" if up else "<=1", mx > den if up else mn < den, True,
                       lo, hi, [points[i]])


def walk_rows(blocks):
    """The rows of a walk's blocks, n = 1, 2, ...: (n, points, codes,
    values) per row, read from its block (a ``weights.step_products``
    ``ProductRows``, or a ``weights.circle_step_rows`` ``(points, rows)``):
    the lazy translates of its entries on the circle, their indices on a
    table, its bytes against 1 and its exact values."""
    for block in blocks:
        points, rows = block if isinstance(block, tuple) else (lambda b, entries: entries, block)
        for b, (start, stop) in enumerate(zip(rows.starts, rows.starts[1:])):
            yield (rows.n0 + 1 + b, points(b, range(stop - start)), rows.codes[start:stop],
                   [rows.form.value(e) for e in rows.exponents[start:stop]])


def signs(values, den):
    """-1, 0 or 1 per product values[i] / den against 1."""
    return [(v > den) - (v < den) for v in values]


def log_sum(pairs):
    """(value, exact_zero) of sum_i m_i ln v_i over (mass, value) pairs:
    the product of the values to the powers m_i D, with D the common
    denominator of the masses, reduced as one Fraction."""
    masses = [Fraction(m) for m, _ in pairs]
    D = math.lcm(*(m.denominator for m in masses))
    num = den = 1
    for m, (_, v) in zip(masses, pairs):
        c = m.numerator * (D // m.denominator)
        v = Fraction(v)
        num *= v.numerator ** c
        den *= v.denominator ** c
    Q = Fraction(num, den)
    return (math.log(Q.numerator) - math.log(Q.denominator)) / D, Q == 1


def log_pairs(w):
    """The (Haar mass, value) pieces of a step, finite or table weight."""
    if isinstance(w, PAdicTableWeight):
        mass = Fraction(1, len(w.table))
        return [(mass, v) for v in w.table.values()]
    if isinstance(w, FiniteWeight):
        return [(Fraction(1, w.group.order), v) for v in w.values]
    return [(E.measure(), v) for E, v in w.step.pieces]


def coset_values(w, a):
    """The table values over each coset b + p^k Z_p, k = v_p(a), in the
    order of b: p^(max(level, k) - k) values per coset."""
    ctx = w.context
    p, m, k = ctx.prime, ctx.window, a.valuation()
    level = max(w.level, k)
    step = p ** (k + m)
    return [[w.rational_at(ctx.from_residue(b + t * step)) for t in range(p ** (level - k))]
            for b in range(step)]


def coset_products(w, a):
    """(product, value, global_share) per coset b + p^k Z_p, k = v_p(a):
    the Fraction product of the table values over the coset and its log."""
    cosets = coset_values(w, a)
    out = []
    for values in cosets:
        product = math.prod(values, start=Fraction(1))
        ln_q = math.log(product.numerator) - math.log(product.denominator)
        out.append((product, ln_q / len(values), ln_q / (len(values) * len(cosets))))
    return out
