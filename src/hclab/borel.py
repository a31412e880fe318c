"""The algebra of null-boundary sets: exact set operations and measures.

Three representations, one per group family:

* ``IntervalSet`` on the circle -- disjoint open arcs plus finitely many
  isolated points, with exact rational endpoints.  Endpoint inclusion is
  carried explicitly, so the four variants of an arc with the same closure
  stay distinct.
* ``BallSet`` on a p-adic context -- finite unions of balls (cosets of
  p^j Z_p), held as one residue mask at the set's finest level.
* ``FiniteSubset`` on a finite group -- arbitrary subsets, held as one byte
  per element index.

The last two are mask sets (``_MaskSet``): clopen, with one measure,
complement and elementwise algebra on their masks.

Circle sets are put into canonical form in one place,
``IntervalSet.from_pieces``: one sort of the arcs, fusing as it goes.  A
union is the canonical form of both sets' pieces, a complement is one walk
over the sorted arcs and points, and intersection and difference follow by
De Morgan.  Every result is exact.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ContextMismatch, WindowExceeded
from .groups import CircleElement, FiniteGroup, PAdicContext, PAdicNumber

__all__ = [
    "SetForm",
    "IntervalSet",
    "interval",
    "circle_points",
    "arc_pieces",
    "BallSet",
    "ball",
    "FiniteSubset",
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


_ZERO, _ONE, _TWO = Fraction(0), Fraction(1), Fraction(2)


def _as_fraction(x) -> Fraction:
    if isinstance(x, CircleElement):
        return x.value
    return Fraction(x)


@dataclass(frozen=True)
class IntervalSet:
    """A member of the circle algebra: sorted disjoint open arcs within
    [0, 1] plus included points in [0, 1).

    The form is canonical, so equal sets compare and hash equal.  Arcs that
    overlap, or touch at an included point, are fused into one; arcs that
    touch at an excluded point stay apart.  Nothing fuses across 0: an arc
    through 0 is split into (lo, 1) and (0, hi), and 0 is kept as a point.
    The points are the included arc ends and the isolated points; a point
    inside an arc is dropped.
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
        """The canonical set of raw open arcs (lo <= hi, anywhere on the real
        line) and points, in one sort: split the arcs at 0, fuse the sorted
        arcs that overlap or meet at an included point, and drop the points
        inside an arc."""
        flat: list[tuple[Fraction, Fraction]] = []
        pts = {Fraction(p) % 1 for p in points}
        for lo, hi in arcs:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo == hi:
                continue
            if hi < lo:
                raise ValueError(f"arc ({lo}, {hi}) has reversed endpoints")
            if hi - lo > 1:  # an open arc longer than the circle covers it entirely
                flat.append((_ZERO, _ONE))
                pts.add(_ZERO)
                continue
            lo, hi = lo % 1, hi - lo // 1  # now 0 <= lo < 1, lo < hi <= lo + 1
            if hi <= 1:
                flat.append((lo, hi))
            else:  # wraps through 0, which is then an interior point
                flat += [(lo, _ONE), (_ZERO, hi - 1)]
                pts.add(_ZERO)
        fused: list[tuple[Fraction, Fraction]] = []
        for lo, hi in sorted(flat):
            if fused and (lo < fused[-1][1] or lo == fused[-1][1] and lo in pts):
                if hi > fused[-1][1]:
                    fused[-1] = (fused[-1][0], hi)
            else:
                fused.append((lo, hi))
        arcs = tuple(fused)
        return IntervalSet(arcs, tuple(sorted(p for p in pts if not _in_arc(arcs, p))))

    # -- queries -------------------------------------------------------------

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.open_part), Fraction(0))

    def contains(self, x) -> bool:
        v = _as_fraction(x) % 1
        if _in_arc(self.open_part, v):
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

    # -- algebra -------------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pieces(self.open_part + other.open_part,
                                       self.point_part + other.point_part)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.complement().union(other).complement()

    def complement(self) -> "IntervalSet":
        """One walk over the sorted arcs and points: the gaps between the
        arcs, split at the isolated points, plus 0 and every arc end that
        the set leaves out."""
        gaps, pos = [], _ZERO
        for lo, hi in sorted(self.open_part + tuple((p, p) for p in self.point_part)):
            if lo > pos:
                gaps.append((pos, lo))
            pos = hi
        if pos < 1:
            gaps.append((pos, _ONE))
        ends = {_ZERO}.union(*((lo, hi % 1) for lo, hi in self.open_part))
        return IntervalSet(tuple(gaps), tuple(sorted(ends.difference(self.point_part))))

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


def _in_arc(arcs: tuple[tuple[Fraction, Fraction], ...], v: Fraction) -> bool:
    """Whether v lies inside one of the sorted disjoint arcs."""
    idx = bisect_right(arcs, (v, _TWO)) - 1
    return idx >= 0 and v < arcs[idx][1] and arcs[idx][0] < v


_VARIANTS = {
    "open": (False, False),
    "closed": (True, True),
    "half_open": (True, False),        # [lo, hi)
    "half_open_right": (False, True),  # (lo, hi]
}


def arc_pieces(lo, hi, variant: str = "half_open") -> tuple[tuple[Fraction, Fraction], list[Fraction]]:
    """The raw open arc and the included ends of an arc with the given
    endpoint inclusion variant, for ``IntervalSet.from_pieces``; hi < lo
    wraps through 0."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; use one of {sorted(_VARIANTS)}")
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        hi = hi + 1
    inc_lo, inc_hi = _VARIANTS[variant]
    return (lo, hi), [e for e, inc in ((lo, inc_lo), (hi, inc_hi)) if inc]


def interval(lo, hi, variant: str = "half_open") -> IntervalSet:
    """An arc of the circle with the given endpoint inclusion variant."""
    arc, ends = arc_pieces(lo, hi, variant)
    return IntervalSet.from_pieces([arc], ends)


def circle_points(*pts) -> IntervalSet:
    return IntervalSet.from_pieces((), [Fraction(p) for p in pts])


# ---------------------------------------------------------------------------
# mask sets of the enumerable groups

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class _MaskSet:
    """A subset of an enumerable group held as one byte per position, 1 when
    the position lies in the set; the subclass says what a position is.
    Every such set is clopen, so boundaries are empty.  ``_aligned`` puts
    two sets on common positions: it returns both masks as booleans and the
    constructor of a result mask."""

    mask: bytes

    def _elementwise(self, other, op):
        mine, theirs, build = self._aligned(other)
        return build(op(mine, theirs).tobytes())

    def measure(self) -> Fraction:
        return Fraction(self.mask.count(1), len(self.mask))

    def is_empty(self) -> bool:
        return 1 not in self.mask

    def complement(self):
        return replace(self, mask=self.mask.translate(_FLIP))

    def classify(self) -> SetForm:
        return SetForm.FORM2 if self.is_empty() else SetForm.FORM1

    def union(self, other):
        return self._elementwise(other, np.logical_or)

    def intersection(self, other):
        return self._elementwise(other, np.logical_and)

    def difference(self, other):
        return self._elementwise(other, lambda a, b: a & ~b)


@dataclass(frozen=True)
class BallSet(_MaskSet):
    """A finite union of balls ``center + p^j Z_p``, held as one residue
    mask at its finest level.

    ``mask[r]`` is 1 when the ball r + p^level Z_p lies in the set, for the
    residues r mod p^(level + window), so membership is one index and the
    measure is the share of ones.  Operations lift the coarser mask to the
    finer level (a ball is the union of its p children, so lifting repeats
    the mask) and combine elementwise.  Every set is kept at the coarsest
    level at which it is a union of balls, so equal sets compare and hash
    equal; ``balls`` reads its maximal balls back.
    """

    context: PAdicContext
    level: int
    mask: bytes

    @staticmethod
    def empty(context: PAdicContext) -> "BallSet":
        return BallSet(context, -context.window, b"\x00")

    @staticmethod
    def full(context: PAdicContext) -> "BallSet":
        return BallSet(context, -context.window, b"\x01")

    @staticmethod
    def from_balls(context: PAdicContext, balls: Iterable[tuple[int, int]]) -> "BallSet":
        """The union of the balls (level j, center residue)."""
        balls = list(balls)
        for j, _ in balls:
            _check_radius(context, j)
        level = max((j for j, _ in balls), default=-context.window)
        mask = bytearray(context.prime ** (level + context.window))
        for j, c in balls:
            step = context.prime ** (j + context.window)
            mask[c % step::step] = b"\x01" * (len(mask) // step)
        return _coarsest(context, level, bytes(mask))

    def _lifted(self, level: int) -> np.ndarray:
        """The mask at a level no coarser than the set's, as booleans."""
        return np.frombuffer(self.mask * self.context.prime ** (level - self.level), dtype=bool)

    def _aligned(self, other: "BallSet"):
        if self.context != other.context:
            raise ContextMismatch(f"{self.context.name} vs {other.context.name}")
        level = max(self.level, other.level)
        return self._lifted(level), other._lifted(level), lambda mask: _coarsest(self.context, level, mask)

    def contains(self, x: PAdicNumber) -> bool:
        if x.context is not self.context and x.context != self.context:
            raise ContextMismatch(f"{x.context.name} vs {self.context.name}")
        return self.mask[x.residue % len(self.mask)] == 1

    def resolved(self, group: PAdicContext) -> tuple[PAdicContext, "BallSet"]:
        """The coarsest context that resolves the set, and the set on it.

        Whether a residue lies in the set depends only on it mod
        p^(level + window): the context of precision max(1, level) and the
        same window.  ``group`` must be the set's own context."""
        if group != self.context:
            raise ContextMismatch(f"{group.name} vs {self.context.name}")
        ctx = self.context
        coarse = PAdicContext(ctx.prime, max(1, self.level), ctx.window)
        if coarse == ctx:
            return ctx, self
        return coarse, BallSet(coarse, self.level, self.mask)

    def finest_residues(self) -> list[int]:
        """All stored residues (level precision) belonging to the set."""
        return np.flatnonzero(self._lifted(self.context.precision)).tolist()

    @property
    def balls(self) -> tuple[tuple[int, int], ...]:
        """The maximal balls of the set -- those whose parent is not in it --
        as (level, center residue), sorted."""
        inside = [np.frombuffer(self.mask, dtype=bool)]
        while len(inside[-1]) > 1:  # a ball is inside when its p children are
            inside.append(inside[-1].reshape(self.context.prime, -1).all(axis=0))
        out, parent = [], np.zeros(1, dtype=bool)
        for j, here in enumerate(reversed(inside), start=-self.context.window):
            maximal = here & ~np.tile(parent, len(here) // len(parent))
            out.extend((j, int(c)) for c in np.flatnonzero(maximal))
            parent = here
        return tuple(out)

    def __repr__(self):
        inner = ", ".join(f"{c}+p^{j}Zp" for j, c in self.balls)
        return f"BallSet({self.context.name}; {inner})"


def _coarsest(context: PAdicContext, level: int, mask: bytes) -> BallSet:
    """The set of ``mask`` at ``level``, at the coarsest level that still
    resolves it: go up while the mask repeats with the period of the parent
    level."""
    p = context.prime
    while level > -context.window and mask == mask[: len(mask) // p] * p:
        mask, level = mask[: len(mask) // p], level - 1
    return BallSet(context, level, mask)


def _check_radius(context: PAdicContext, radius_exp: int) -> None:
    if not -context.window <= radius_exp <= context.precision:
        raise WindowExceeded(
            f"radius exponent {radius_exp} outside [{-context.window}, {context.precision}]"
        )


def ball(context: PAdicContext, center, radius_exp: int) -> BallSet:
    """The ball of radius p**(-radius_exp) around ``center``; one ball is
    already at its coarsest level."""
    x = center if isinstance(center, PAdicNumber) else context.element(center)
    _check_radius(context, radius_exp)
    mask = bytearray(context.prime ** (radius_exp + context.window))
    mask[x.residue % len(mask)] = 1
    return BallSet(context, radius_exp, bytes(mask))


@dataclass(frozen=True)
class FiniteSubset(_MaskSet):
    """A subset of a finite group, held as one byte per element index."""

    group: FiniteGroup
    mask: bytes

    @staticmethod
    def of(group: FiniteGroup, members: Iterable[int]) -> "FiniteSubset":
        ms = [int(m) for m in members]
        if any(not 0 <= m < group.order for m in ms):
            raise ValueError("member index out of range")
        mask = bytearray(group.order)
        for m in ms:
            mask[m] = 1
        return FiniteSubset(group, bytes(mask))

    @staticmethod
    def empty(group: FiniteGroup) -> "FiniteSubset":
        return FiniteSubset(group, bytes(group.order))

    @staticmethod
    def full(group: FiniteGroup) -> "FiniteSubset":
        return FiniteSubset(group, b"\x01" * group.order)

    def _aligned(self, other: "FiniteSubset"):
        if self.group is not other.group and self.group.cayley != other.group.cayley:
            raise ContextMismatch("subsets of different groups")
        return (np.frombuffer(self.mask, dtype=bool), np.frombuffer(other.mask, dtype=bool),
                lambda mask: FiniteSubset(self.group, mask))

    def contains(self, x: int) -> bool:
        x = int(x)
        return 0 <= x < len(self.mask) and self.mask[x] == 1

    def resolved(self, group: FiniteGroup) -> tuple[FiniteGroup, "FiniteSubset"]:
        """A subset of a finite group resolves only on the group itself."""
        return group, self
