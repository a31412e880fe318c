"""The algebra of null-boundary sets: exact set operations and measures.

Three representations, one per group family:

* ``IntervalSet`` on the circle -- disjoint open arcs plus finitely many
  isolated points, with exact rational endpoints.  Endpoint inclusion is
  carried explicitly, so the four variants of an arc with the same closure
  stay distinct.
* ``BallSet`` on a p-adic context -- finite unions of balls (cosets of
  p^j Z_p); clopen, so the boundary is empty.
* ``FiniteSubset`` on a finite group -- arbitrary subsets (discrete
  topology, everything clopen).

Set operations on the circle go through a breakpoint/flag decomposition:
collect all endpoints, decide membership per elementary segment and per
breakpoint, combine pointwise, then reassemble.  That makes union and
complement exact and trivially correct.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ContextMismatch, WindowExceeded
from .groups import CircleElement, FiniteGroup, PAdicContext, PAdicNumber

__all__ = [
    "SetForm",
    "IntervalSet",
    "interval",
    "BallSet",
    "ball",
    "FiniteSubset",
    "union",
    "intersection",
    "complement",
    "measure",
    "contains",
    "classify_form",
]


class SetForm(enum.Enum):
    """Canonical forms of algebra members.

    FORM1: a set sandwiched between a nonempty open set and its closure
    (null boundary).  FORM2: a null remnant -- a finite point set, possibly
    empty.  FORM3: a FORM1 set together with extra boundary-style points.
    """

    FORM1 = "form1"
    FORM2 = "form2"
    FORM3 = "form3"


# ---------------------------------------------------------------------------
# circle interval sets


def _as_fraction(x) -> Fraction:
    if isinstance(x, CircleElement):
        return x.value
    return Fraction(x)


@dataclass(frozen=True)
class IntervalSet:
    """A member of the circle algebra: sorted disjoint open arcs within
    [0, 1] plus isolated included points in [0, 1).

    Arcs that merely touch stay separate unless the junction point is
    included, in which case normalization fuses them.  Wrap-around is
    normalized by splitting at 0.
    """

    open_part: tuple[tuple[Fraction, Fraction], ...]
    point_part: tuple[Fraction, ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet((), ())

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet(((Fraction(0), Fraction(1)),), (Fraction(0),))

    @staticmethod
    def from_pieces(arcs: Iterable[tuple[Fraction, Fraction]], points: Iterable[Fraction]) -> "IntervalSet":
        return _normalize(list(arcs), list(points))

    # -- queries -------------------------------------------------------------

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.open_part), Fraction(0))

    def contains(self, x) -> bool:
        v = _as_fraction(x) % 1
        arcs = self.open_part
        idx = bisect_right(arcs, (v, Fraction(2))) - 1
        if idx >= 0:
            lo, hi = arcs[idx]
            if lo < v < hi:
                return True
        pts = self.point_part
        j = bisect_left(pts, v)
        return j < len(pts) and pts[j] == v

    def boundary_points(self) -> frozenset[Fraction]:
        """Arc endpoints, with the circle identification 1 == 0."""
        out = set()
        for lo, hi in self.open_part:
            out.add(lo % 1)
            out.add(hi % 1)
        return frozenset(out)

    def is_empty(self) -> bool:
        return not self.open_part and not self.point_part

    def translated(self, delta) -> "IntervalSet":
        """The set shifted by delta (exact; wrap renormalized at 0)."""
        d = _as_fraction(delta)
        arcs = [(lo + d, hi + d) for lo, hi in self.open_part]
        pts = [(p + d) % 1 for p in self.point_part]
        return _normalize(arcs, pts)

    # -- algebra -------------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a or b)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a and b)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return _combine(self, other, lambda a, b: a and not b)

    def complement(self) -> "IntervalSet":
        return _combine(self, IntervalSet.empty(), lambda a, b: not a)

    def classify(self) -> SetForm:
        if not self.open_part:
            return SetForm.FORM2
        boundary = self.boundary_points()
        if all(p in boundary for p in self.point_part):
            return SetForm.FORM1
        return SetForm.FORM3

    def __repr__(self):
        arcs = ", ".join(f"({lo},{hi})" for lo, hi in self.open_part)
        pts = ", ".join(str(p) for p in self.point_part)
        return f"IntervalSet[{arcs} | {{{pts}}}]"


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


_VARIANTS = {
    "open": (False, False),
    "closed": (True, True),
    "half_open": (True, False),        # [lo, hi)
    "half_open_right": (False, True),  # (lo, hi]
}


def interval(lo, hi, variant: str = "half_open") -> IntervalSet:
    """An arc of the circle with the given endpoint inclusion variant."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; use one of {sorted(_VARIANTS)}")
    lo, hi = Fraction(lo), Fraction(hi)
    inc_lo, inc_hi = _VARIANTS[variant]
    if lo == hi:
        return IntervalSet.from_pieces((), [lo] if (inc_lo or inc_hi) else ())
    if hi < lo:  # wrap through 0
        hi = hi + 1
    pts = []
    if inc_lo:
        pts.append(lo % 1)
    if inc_hi:
        pts.append(hi % 1)
    return IntervalSet.from_pieces([(lo, hi)], pts)


def circle_points(*pts) -> IntervalSet:
    return IntervalSet.from_pieces((), [Fraction(p) for p in pts])


# ---------------------------------------------------------------------------
# p-adic ball sets


@dataclass(frozen=True)
class BallSet:
    """A finite disjoint union of balls ``center + p^j Z_p``.

    Balls are stored as (level j, center residue mod p^(j+window)); the p
    siblings of a parent ball merge during normalization.  Every ball set is
    clopen, so boundaries are empty and measures are exact powers of p
    (scaled by the window normalization that gives the whole context mass 1).
    """

    context: PAdicContext
    balls: tuple[tuple[int, int], ...]

    @staticmethod
    def empty(context: PAdicContext) -> "BallSet":
        return BallSet(context, ())

    @staticmethod
    def full(context: PAdicContext) -> "BallSet":
        return BallSet(context, ((-context.window, 0),))

    @staticmethod
    def from_balls(context: PAdicContext, balls: Iterable[tuple[int, int]]) -> "BallSet":
        return BallSet(context, _normalize_balls(context, list(balls)))

    def _check(self, other: "BallSet") -> None:
        if self.context != other.context:
            raise ContextMismatch(f"{self.context.name} vs {other.context.name}")

    def measure(self) -> Fraction:
        p, m = self.context.prime, self.context.window
        return sum((Fraction(1, p ** (j + m)) for j, _ in self.balls), Fraction(0))

    def contains(self, x: PAdicNumber) -> bool:
        if x.context != self.context:
            raise ContextMismatch(f"{x.context.name} vs {self.context.name}")
        p, m = self.context.prime, self.context.window
        return any(x.residue % p ** (j + m) == c for j, c in self.balls)

    def resolved(self, group: PAdicContext) -> tuple[PAdicContext, "BallSet"]:
        """The coarsest context that resolves the set, and the set on it.

        Balls of level at most j are unions of cosets of p^j Z_p, so whether
        a residue lies in the set depends only on it mod p^(j + window): the
        context of precision max(1, j) and the same window.  ``group`` must
        be the set's own context."""
        if group != self.context:
            raise ContextMismatch(f"{group.name} vs {self.context.name}")
        ctx = self.context
        finest = max((j for j, _ in self.balls), default=1)
        coarse = PAdicContext(ctx.prime, max(1, finest), ctx.window)
        if coarse == ctx:
            return ctx, self
        return coarse, BallSet(coarse, self.balls)

    def union(self, other: "BallSet") -> "BallSet":
        self._check(other)
        return BallSet.from_balls(self.context, self.balls + other.balls)

    def complement(self) -> "BallSet":
        ctx = self.context
        p, m = ctx.prime, ctx.window
        level = max((j for j, _ in self.balls), default=-m)
        scale = p ** (level + m)
        covered = {
            r for r in range(scale)
            if any(r % p ** (j + m) == c for j, c in self.balls)
        }
        return BallSet.from_balls(ctx, [(level, r) for r in range(scale) if r not in covered])

    def intersection(self, other: "BallSet") -> "BallSet":
        self._check(other)
        out = []
        p, m = self.context.prime, self.context.window
        for j1, c1 in self.balls:
            for j2, c2 in other.balls:
                if j1 > j2:
                    (j1_, c1_), (j2_, c2_) = (j2, c2), (j1, c1)
                else:
                    (j1_, c1_), (j2_, c2_) = (j1, c1), (j2, c2)
                # finer ball j2_ intersects coarser j1_ iff it sits inside it
                if c2_ % p ** (j1_ + m) == c1_:
                    out.append((j2_, c2_))
        return BallSet.from_balls(self.context, out)

    def difference(self, other: "BallSet") -> "BallSet":
        return self.intersection(other.complement())

    def is_empty(self) -> bool:
        return not self.balls

    def translated(self, delta: PAdicNumber) -> "BallSet":
        p, m = self.context.prime, self.context.window
        moved = [(j, (c + delta.residue) % p ** (j + m)) for j, c in self.balls]
        return BallSet.from_balls(self.context, moved)

    def classify(self) -> SetForm:
        return SetForm.FORM2 if self.is_empty() else SetForm.FORM1

    def finest_residues(self) -> list[int]:
        """All stored residues (level precision) belonging to the set."""
        ctx = self.context
        p, m = ctx.prime, ctx.window
        out = [
            r for r in range(ctx.modulus)
            if any(r % p ** (j + m) == c for j, c in self.balls)
        ]
        return out

    def __repr__(self):
        inner = ", ".join(f"{c}+p^{j}Zp" for j, c in self.balls)
        return f"BallSet({self.context.name}; {inner})"


def _normalize_balls(ctx: PAdicContext, balls: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    p, m, K = ctx.prime, ctx.window, ctx.precision
    work = set()
    for j, c in balls:
        if not -m <= j <= K:
            raise WindowExceeded(f"ball level {j} outside [{-m}, {K}]")
        work.add((j, c % p ** (j + m)))
    changed = True
    while changed:
        changed = False
        # drop balls contained in a coarser one
        pruned = set()
        for j, c in work:
            inside = any(
                (j2, c2) != (j, c) and j2 <= j and c % p ** (j2 + m) == c2
                for j2, c2 in work
            )
            if not inside:
                pruned.add((j, c))
        if pruned != work:
            work, changed = pruned, True
            continue
        # fuse complete sibling families into their parent
        for j, c in sorted(work, reverse=True):
            if j <= -m:
                continue
            parent = c % p ** (j - 1 + m)
            siblings = {(j, parent + t * p ** (j - 1 + m)) for t in range(p)}
            if siblings <= work:
                work -= siblings
                work.add((j - 1, parent))
                changed = True
                break
    return tuple(sorted(work))


def ball(context: PAdicContext, center, radius_exp: int) -> BallSet:
    """The ball of radius p**(-radius_exp) around ``center``."""
    x = center if isinstance(center, PAdicNumber) else context.element(center)
    if not -context.window <= radius_exp <= context.precision:
        raise WindowExceeded(
            f"radius exponent {radius_exp} outside [{-context.window}, {context.precision}]"
        )
    return BallSet.from_balls(context, [(radius_exp, x.residue)])


# ---------------------------------------------------------------------------
# finite-group subsets


@dataclass(frozen=True)
class FiniteSubset:
    group: FiniteGroup
    members: frozenset[int]

    @staticmethod
    def of(group: FiniteGroup, members: Iterable[int]) -> "FiniteSubset":
        ms = frozenset(int(m) for m in members)
        if any(not 0 <= m < group.order for m in ms):
            raise ValueError("member index out of range")
        return FiniteSubset(group, ms)

    @staticmethod
    def empty(group: FiniteGroup) -> "FiniteSubset":
        return FiniteSubset(group, frozenset())

    @staticmethod
    def full(group: FiniteGroup) -> "FiniteSubset":
        return FiniteSubset(group, frozenset(range(group.order)))

    def _check(self, other: "FiniteSubset") -> None:
        if self.group is not other.group and self.group.cayley != other.group.cayley:
            raise ContextMismatch("subsets of different groups")

    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.group.order)

    def contains(self, x: int) -> bool:
        return int(x) in self.members

    def resolved(self, group: FiniteGroup) -> tuple[FiniteGroup, "FiniteSubset"]:
        """A subset of a finite group resolves only on the group itself."""
        return group, self

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check(other)
        return FiniteSubset(self.group, self.members | other.members)

    def intersection(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check(other)
        return FiniteSubset(self.group, self.members & other.members)

    def difference(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check(other)
        return FiniteSubset(self.group, self.members - other.members)

    def complement(self) -> "FiniteSubset":
        return FiniteSubset(self.group, frozenset(range(self.group.order)) - self.members)

    def is_empty(self) -> bool:
        return not self.members

    def classify(self) -> SetForm:
        # discrete topology: every nonempty set is clopen
        return SetForm.FORM2 if self.is_empty() else SetForm.FORM1


# ---------------------------------------------------------------------------
# free-function facade


def union(a, b):
    return a.union(b)


def intersection(a, b):
    return a.intersection(b)


def complement(a):
    return a.complement()


def measure(a) -> Fraction:
    return a.measure()


def contains(a, x) -> bool:
    return a.contains(x)


def classify_form(a) -> SetForm:
    return a.classify()
