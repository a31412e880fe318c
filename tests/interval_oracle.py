"""A breakpoint/flag oracle for circle interval sets.

Every operation collects all arc ends and points as cuts, decides
membership at each cut and at the midpoint of each cell between cuts by
testing every arc in turn, combines the flags pointwise and reassembles the
arcs and points from them.  Canonicalising a raw bag of pieces is the same
pass with the identity."""

from fractions import Fraction

from hclab.borel import IntervalSet

_VARIANTS = {
    "open": (False, False),
    "closed": (True, True),
    "half_open": (True, False),        # [lo, hi)
    "half_open_right": (False, True),  # (lo, hi]
}


def _normalize(arcs: list[tuple[Fraction, Fraction]], points: list[Fraction]) -> IntervalSet:
    """Canonicalize raw arcs and points (splitting wraps, fusing arcs joined
    by an included point, absorbing covered points)."""
    flat: list[tuple[Fraction, Fraction]] = []
    for lo, hi in arcs:
        lo, hi = Fraction(lo), Fraction(hi)
        if lo == hi:
            continue
        if hi < lo:
            raise ValueError(f"arc ({lo}, {hi}) has reversed endpoints")
        if hi - lo > 1:  # an open arc longer than the circle covers it entirely
            flat.append((Fraction(0), Fraction(1)))
            points.append(Fraction(0))
            continue
        if hi - lo == 1:  # exactly one turn: everything but the shared endpoint
            e = lo % 1
            if e == 0:
                flat.append((Fraction(0), Fraction(1)))
            else:
                flat.extend([(e, Fraction(1)), (Fraction(0), e)])
                points.append(Fraction(0))
            continue
        shift = lo // 1
        lo2, hi2 = lo - shift, hi - shift  # now 0 <= lo2 < 1, lo2 < hi2 <= lo2+1
        if hi2 <= 1:
            flat.append((lo2, hi2))
        else:  # wraps through 0, which is then an interior point
            flat.append((lo2, Fraction(1)))
            if hi2 - 1 > 0:
                flat.append((Fraction(0), hi2 - 1))
            points.append(Fraction(0))
    pts = sorted({Fraction(p) % 1 for p in points})
    tmp = IntervalSet(tuple(sorted(flat)), tuple(pts))
    # a raw bag of arcs may overlap; run it through the flag machinery once
    return _combine(tmp, IntervalSet.empty(), lambda a, b: a)


def _combine(A: IntervalSet, B: IntervalSet, op) -> IntervalSet:
    bps = {Fraction(0), Fraction(1)}
    for s in (A, B):
        for lo, hi in s.open_part:
            bps.add(lo)
            bps.add(hi)
        bps.update(s.point_part)
    cuts = sorted(bps)

    def raw_contains(s: IntervalSet, v: Fraction) -> bool:
        # membership against the possibly-unnormalized representation
        for lo, hi in s.open_part:
            if lo < v < hi:
                return True
        return (v % 1) in s.point_part

    seg_flags = []
    for i in range(len(cuts) - 1):
        mid = (cuts[i] + cuts[i + 1]) / 2
        seg_flags.append(op(raw_contains(A, mid), raw_contains(B, mid)))
    pt_flags = [op(raw_contains(A, c % 1), raw_contains(B, c % 1)) for c in cuts]

    arcs: list[tuple[Fraction, Fraction]] = []
    points: list[Fraction] = []
    i = 0
    nseg = len(seg_flags)
    while i < nseg:
        if not seg_flags[i]:
            i += 1
            continue
        start = i
        # extend through included junction points
        while i + 1 < nseg and seg_flags[i + 1] and pt_flags[i + 1]:
            i += 1
        arcs.append((cuts[start], cuts[i + 1]))
        i += 1
    for j, c in enumerate(cuts):
        if j == len(cuts) - 1:
            continue  # 1 is the same circle point as 0
        if not pt_flags[j]:
            continue
        left_in = j > 0 and seg_flags[j - 1]
        right_in = seg_flags[j] if j < nseg else False
        if left_in and right_in:
            continue  # interior to a fused arc
        points.append(c)
    return IntervalSet(tuple(arcs), tuple(sorted(points)))


def from_pieces(arcs, points) -> IntervalSet:
    return _normalize(list(arcs), list(points))


def interval(lo, hi, variant: str = "half_open") -> IntervalSet:
    """An arc of the circle with the given endpoint inclusion variant."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; use one of {sorted(_VARIANTS)}")
    lo, hi = Fraction(lo), Fraction(hi)
    inc_lo, inc_hi = _VARIANTS[variant]
    if lo == hi:
        return from_pieces((), [lo] if (inc_lo or inc_hi) else ())
    if hi < lo:  # wrap through 0
        hi = hi + 1
    pts = []
    if inc_lo:
        pts.append(lo % 1)
    if inc_hi:
        pts.append(hi % 1)
    return from_pieces([(lo, hi)], pts)


def contains(s: IntervalSet, v: Fraction) -> bool:
    """Membership of the circle point v, testing every arc in turn."""
    v = Fraction(v) % 1
    return any(lo < v < hi for lo, hi in s.open_part) or v in s.point_part


def measure(s: IntervalSet) -> Fraction:
    return sum((hi - lo for lo, hi in s.open_part), Fraction(0))


def union(A: IntervalSet, B: IntervalSet) -> IntervalSet:
    return _combine(A, B, lambda a, b: a or b)


def intersection(A: IntervalSet, B: IntervalSet) -> IntervalSet:
    return _combine(A, B, lambda a, b: a and b)


def difference(A: IntervalSet, B: IntervalSet) -> IntervalSet:
    return _combine(A, B, lambda a, b: a and not b)


def complement(A: IntervalSet) -> IntervalSet:
    return _combine(A, IntervalSet.empty(), lambda a, b: not a)


def translated(A: IntervalSet, delta) -> IntervalSet:
    d = Fraction(delta)
    arcs = [(lo + d, hi + d) for lo, hi in A.open_part]
    pts = [(p + d) % 1 for p in A.point_part]
    return _normalize(arcs, pts)


def render(s: IntervalSet) -> str:
    """The ``repr`` of the set."""
    arcs = ", ".join(f"({lo},{hi})" for lo, hi in s.open_part)
    pts = ", ".join(str(p) for p in s.point_part)
    return f"IntervalSet[{arcs} | {{{pts}}}]"


def partition_error(sets: list[IntervalSet]) -> str | None:
    """The pairwise partition check of circle step pieces: each piece
    against the union of the earlier ones, then the union against the whole
    circle.  The message ``StepFunction`` raises, or None for a partition."""
    acc = sets[0]
    for other in sets[1:]:
        if not acc.intersection(other).is_empty():
            return "step function pieces overlap"
        acc = acc.union(other)
    if acc != IntervalSet.full():
        return "step function pieces do not cover the group"
    return None
