"""Orbit density statistics, uniform-deviation suprema, and character sweeps.

The density of an orbit in a set K counts terms x_k with 1 <= k <= N-1 and
divides by N (so the density of the full group is (N-1)/N, not 1; the skew
is kept deliberately and documented rather than "fixed").

On the circle the orbit is held as integer residues V, the points V/D for
the denominator D of the rotation's exact angle, and the supremum over
translates of |density - measure| is computed exactly: the translated count
is piecewise constant in the translate, with breakpoints at the set
boundaries shifted by orbit points, so the counts at those event positions
and on the cells between them realize the supremum.  A spec's orbit is
sorted once per horizon and shared by all its sets; a set has one event row
per distinct boundary position, so a closed arc takes two rows; and the
counts come from cumulative sums of the events' count changes
(``Events.set_counts``), from which a set's least and greatest count are
read directly.  Finite and p-adic
contexts are exhausted, by one count over their shared group surface
(``mul``, ``elements``).  A p-adic ball set whose finest ball has level j
is a union of cosets of p^j Z_p, so its counts are taken on the quotient
mod p^(j + window), the coarsest context that resolves it, with the orbit
and the translates projected there (``_resolved``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence
from typing import Iterator

import numpy as np

from .borel import IntervalSet
from .errors import FixedCharacterError
from .groups import CircleElement, OrbitSequence, orbit_denominator

__all__ = [
    "OrbitCounter",
    "Sweep",
    "Boundaries",
    "Events",
    "SweepBlock",
    "sweep_blocks",
    "Translates",
    "density",
    "translated_density",
    "sup_deviation",
    "weyl_bound",
    "uniform_convergence_sweep",
    "SweepPoint",
]


# an array reduced mod 1 in place has its floors taken a slice at a time
# into one scratch array this long: small enough to be reused from the heap,
# where a scratch array of the whole grid is a fresh mapping, page-faulted in
_FLOOR_SLICE = 1 << 13


def _frac(x, out=None) -> np.ndarray:
    """x - floor(x) in ``out`` (a new float array when not given; it may be
    x, and must be C-contiguous), where the floors go a slice at a time
    through one small scratch array: ``np.mod(x, 1.0)`` bit for bit, at a
    fraction of its cost.  The subtraction is exact (Sterbenz), and for
    negative x both forms round the one exact value 1 - frac|x|."""
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    xs, flat = x.reshape(-1), out.reshape(-1, copy=False)
    floors = np.empty(min(_FLOOR_SLICE, xs.size))
    for i in range(0, xs.size, _FLOOR_SLICE):
        part = xs[i:i + _FLOOR_SLICE]
        np.subtract(part, np.floor(part, out=floors[:part.size]), out=flat[i:i + _FLOOR_SLICE])
    return out


def _mod1(arr: np.ndarray, out=None) -> np.ndarray:
    # x - floor(x) may round up to exactly 1.0 for tiny negative inputs;
    # fold that back to 0 so results stay in [0, 1)
    out = _frac(arr, out)
    out[out >= 1.0] = 0.0
    return out


# ---------------------------------------------------------------------------
# counting orbit points in translated circle sets

class OrbitCounter:
    """Exact counting of a circle orbit, a multiset of points, in translated
    sets.

    Every point is V/D for an integer residue V, where D is the denominator
    of the rotation's exact angle; the sorted distinct residues are held in
    uint64 with their multiplicities.  ``count_in_translated`` counts the
    points v with v + x in K at explicit translates x, and ``sup_candidates``
    counts at every translate at once, from the cumulative sums of the count
    changes of its events against one row per distinct boundary position of
    a set (``Events.set_counts``).  Nothing is rounded.
    """

    def __init__(self, residues: np.ndarray, counts: np.ndarray, denominator: int):
        self.residues = np.asarray(residues, dtype=np.uint64)
        self.denominator = denominator
        self.counts = np.asarray(counts, dtype=np.int64)
        self.cum = np.concatenate([[0], np.cumsum(self.counts)])
        self.total = int(self.cum[-1])

    @classmethod
    def from_sequence(cls, seq: OrbitSequence, N: int, first: int = 1) -> "OrbitCounter":
        """Counter over the terms first..N-1 of a circle orbit sequence; with
        ``first = 0`` that is the N-point product orbit x, x-a, ...,
        x-(N-1)a of the point x itself."""
        residues, counts = seq.angle_support(N, first)
        return cls(residues, counts, seq.element.value.denominator)

    def _below(self, t: int) -> int:
        """Number of points with residue < t, for 0 <= t <= D."""
        if t >= self.denominator:
            return self.total
        return int(self.cum[np.searchsorted(self.residues, np.uint64(t))])

    def _between(self, t0: int, t1: int) -> int:
        """Number of points with residue in t0..t1 mod D (t1 - t0 < D)."""
        shift = t0 // self.denominator * self.denominator
        t0, t1 = t0 - shift, t1 - shift
        if t1 < t0:
            return 0
        if t1 < self.denominator:
            return self._below(t1 + 1) - self._below(t0)
        return self.total - self._below(t0) + self._below(t1 - self.denominator + 1)

    def count_in_translated(self, K: IntervalSet, xs: Sequence) -> np.ndarray:
        """For each exact translate x (a Fraction, an int or a
        CircleElement), the number of points v with v + x in K."""
        D = self.denominator
        out = []
        for x in xs:
            x = Fraction(getattr(x, "value", x))
            total = 0
            for lo, hi in K.open_part:
                # v + x in (lo, hi) iff V lies in the open (c, c + (hi - lo) D) mod D
                c = (lo - x) * D
                total += self._between(math.floor(c) + 1, math.ceil(c + (hi - lo) * D) - 1)
            for pt in K.point_part:
                c = (pt - x) * D
                if c.denominator == 1:
                    total += self._between(int(c), int(c))
            out.append(total)
        return np.array(out, dtype=np.int64)

    def sup_candidates(self, bounds: "Boundaries") -> "Sweep":
        """The counts of every set of ``bounds`` at every translate, as one
        ``Sweep`` of the orbit's events against the sets' boundaries
        (``Boundaries.arrange``): its candidate counts, event positions and
        wrap order are built only when read, and ``Sweep.extremes`` reads
        each set's least and greatest count from the events' cumulative sums
        (``Events.set_counts``).  Everything that depends only on the sets
        and D is prepared once, in ``bounds``, so a walk over n reuses it.
        """
        D = self.denominator
        if bounds.denominator != D:
            raise ValueError(f"boundaries prepared for denominator {bounds.denominator}, not {D}")
        if not len(bounds.floors) or not len(self.residues):
            return Sweep(bounds)
        repeated = self.total > len(self.residues)
        return Sweep(bounds, bounds.arrange(self.residues), self.counts if repeated else None)


@dataclass(frozen=True, eq=False)
class Events:
    """The events of circle points V/D, V in the sorted ``residues``, against
    prepared ``Boundaries``, in translate order (``Boundaries.arrange``).

    Sorted event m is boundary row ``rows[m]`` met by a point, at the
    position ``ints[m] + fracs[ranks[rows[m]]]`` in units of 1/D; ``last[m]``
    says whether it is the last event at its position, and ``ends`` lists
    those.  ``wraps[i, r]`` says whether point r lies in set i on the cell
    that wraps past 0.
    """

    bounds: "Boundaries"
    residues: np.ndarray
    ints: np.ndarray
    rows: np.ndarray
    last: np.ndarray
    wraps: np.ndarray

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return np.flatnonzero(self.last)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The integer parts and fraction ranks of the distinct positions."""
        return self.ints[self.ends], self.bounds.ranks[self.rows[self.ends]]

    def points(self) -> np.ndarray:
        """The index in ``residues`` of each event's point: V = floor(b D)
        minus the event's integer part, mod D."""
        floors = self.bounds.floors[self.rows]
        V = np.subtract(floors, self.ints)
        np.add(V, np.uint64(self.bounds.denominator % 2 ** 64), out=V, where=self.ints > floors)
        return np.searchsorted(self.residues, V)

    def set_counts(self, mults: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each set in turn, ``(cells, at)``: its count of the points,
        with multiplicities ``mults`` (all 1 when None), on the cell after
        each event position and at the position itself.

        An event changes its set's count by its row's change times its
        point's multiplicity.  From the count on the cell that wraps past 0,
        the cumulative sums of the cell changes are the counts on the cell
        after each event, and the count at an event is that less its change
        that takes effect only after it (cell minus at).  When no two events
        share a position, each event is its own position and nothing more is
        gathered; otherwise the sums are read at the last event of each
        position, whose late change gains those of the position's earlier
        events.
        """
        bounds = self.bounds
        mult = None if mults is None else mults[self.points()]
        shared = not self.last.all()
        if shared:
            tied = np.flatnonzero(~self.last)
            tied_at = np.searchsorted(self.ends, tied)
        for i in range(bounds.sets):
            mine = bounds.owner == i
            cells = np.take(np.where(mine, bounds.cell, 0), self.rows)
            late = np.take(np.where(mine, bounds.cell - bounds.at, 0), self.rows)
            if mult is None:
                base = np.count_nonzero(self.wraps[i])
            else:
                base = mults[self.wraps[i]].sum()
                cells *= mult
                late *= mult
            cells[0] += base
            np.cumsum(cells, out=cells)
            if shared:
                late_tied = late[tied]
                cells, late = cells[self.ends], late[self.ends]
                np.add.at(late, tied_at, late_tied)
            yield cells, np.subtract(cells, late, out=late)


@dataclass(frozen=True, eq=False)
class Boundaries:
    """The boundaries of one or more circle sets, prepared for ordering their
    events with orbits of denominator D (``arrange``) and counting them
    (``Events.set_counts``).

    A set has one row per distinct boundary position b mod 1: a closed
    arc's end point shares the row of its open part's end, so a closed arc
    takes two rows, as an open one does.  A row holds floor(b D) mod D
    (uint64) and the rank of the fractional part of b D among the rows' (the
    distinct parts are ``fracs``, in units of 1/D), with its set
    (``owner``) and the change of that set's count on the cell after the
    event and at the event itself: an open arc excludes its ends, an
    isolated point counts only at its event, and the changes of a shared
    position add.  Rows are in rank order.  ``arcs`` holds, per arc, its
    start row, its stop row, whether it wraps past 0 when the two have equal
    integer parts, and its set.  None of this depends on the orbit, so one
    object serves every n of a walk.
    """

    sets: int
    denominator: int
    floors: np.ndarray
    ranks: np.ndarray
    fracs: tuple
    owner: np.ndarray
    cell: np.ndarray
    at: np.ndarray
    arcs: tuple

    def arrange(self, residues: np.ndarray) -> Events:
        """The events of the points V/D, V in the sorted ``residues``, in
        translate order.

        A boundary b meets the point V/D when the translate is the event
        position (b D - V)/D mod 1: floor(b D) - V mod D, exactly in uint64
        for all rows and points at once, plus the fractional part of b D,
        whose rank is held here.  The rows are in rank order, so sorting the
        (integer part, row) pairs orders every event; the pair is packed into
        one uint64 key when D leaves room for the row.  A point lies in a set
        on the cell that wraps past 0 when one of the set's arcs starts at a
        position not below its stop (the arcs of a set are disjoint, so at
        most one does).
        """
        L, B = len(residues), len(self.floors)
        # where V > floor the uint64 difference wraps past 0 and D is added
        # back (for D = 2^64 the wrap alone is the residue)
        floors = self.floors[:, None]
        ints = np.subtract(floors, residues)
        np.add(ints, np.uint64(self.denominator % 2 ** 64), out=ints, where=residues > floors)
        wraps = np.zeros((self.sets, L), dtype=bool)
        for lo, hi, tie_wraps, i in self.arcs:
            wraps[i] |= ints[lo] >= ints[hi] if tie_wraps else ints[lo] > ints[hi]
        shift = (B - 1).bit_length()
        # packed keys stay below 2^63, so an int64 view of them reads the rows
        if self.denominator <= 2 ** (63 - shift):
            np.left_shift(ints, np.uint64(shift), out=ints)
            ints |= np.arange(B, dtype=np.uint64)[:, None]
            keys = ints.ravel()
            # each row's keys fall in two descending runs (the residues
            # ascend, and wrap once past the row's floor), which timsort merges
            keys.sort(kind="stable")
            rows = keys.view(np.int64) & ((1 << shift) - 1)
            ints = np.right_shift(keys, np.uint64(shift), out=keys)
        else:
            order = np.argsort(ints, axis=None, kind="stable")
            rows, ints = order // L, ints.ravel()[order]
        last = np.ones(len(ints), dtype=bool)
        np.not_equal(ints[1:], ints[:-1], out=last[:-1])
        tied = np.flatnonzero(~last[:-1])
        last[tied] = self.ranks[rows[tied]] != self.ranks[rows[tied + 1]]
        return Events(self, residues, ints, rows, last, wraps)

    @classmethod
    def prepare(cls, denominator: int, *sets: IntervalSet) -> "Boundaries":
        D = orbit_denominator(denominator)
        # (set, numerator and denominator of b mod 1) -> [change on the
        # cell after, change at the event]
        changes: dict = {}
        arcs = []

        def change(i, b, cell, at):
            key = (i, b.numerator % b.denominator, b.denominator)
            row = changes.setdefault(key, [0, 0])
            row[0] += cell
            row[1] += at
            return key

        for i, K in enumerate(sets):
            for lo, hi in K.open_part:
                arcs.append((change(i, lo, 1, 0), change(i, hi, -1, -1), i))
            for pt in K.point_part:
                change(i, pt, 0, 1)
        if not changes:
            empty = np.zeros(0, dtype=np.uint64)
            return cls(len(sets), D, empty, empty, (), empty, empty, empty, ())
        keys = list(changes)
        floors = np.array([n * D // d for _, n, d in keys], dtype=np.uint64)
        # the fractional parts of b D, as numerators over a common denominator
        M = math.lcm(*(d for _, _, d in keys))
        fracs = [n * D % d * (M // d) for _, n, d in keys]
        distinct = sorted(set(fracs))
        rank_of = {k: r for r, k in enumerate(distinct)}
        ranks = np.array([rank_of[k] for k in fracs], dtype=np.int32)
        # rows in rank order, so that sorting (integer part, row) pairs
        # leaves equal integer parts in fraction order
        order = np.argsort(ranks, kind="stable")
        ranks = ranks[order]
        row_of = {keys[j]: r for r, j in enumerate(order.tolist())}
        cell, at = zip(*(changes[k] for k in keys))
        return cls(
            len(sets), D, floors[order], ranks, tuple(Fraction(k, M) for k in distinct),
            np.array([i for i, _, _ in keys], dtype=np.int32)[order],
            np.array(cell, dtype=np.int64)[order], np.array(at, dtype=np.int64)[order],
            tuple((row_of[lo], row_of[hi], bool(ranks[row_of[lo]] >= ranks[row_of[hi]]), i)
                  for lo, hi, i in arcs),
        )


class Sweep:
    """Exact orbit counts in one or more sets at every candidate translate,
    from one orbit's ``Events`` (None when there are none: no set
    boundaries, or no points), whose points have the multiplicities
    ``mults`` (all 1 when None).

    A set's translated count is constant between consecutive event
    positions, so the candidates are the events and one translate in each
    cell between them, its exact midpoint; the cell after the last event
    wraps past 0 to the first.  Candidates run in increasing translate order
    over [0, 1), and ``counts[j, i]`` is set i's count at candidate j.  With
    no events the only candidate is the translate 0.  The events are the
    distinct positions of the sorted orbit's events against one row per
    boundary position of a set, and the counts are cumulative sums of their
    changes (``Events.set_counts``).  The counts, event positions and wrap
    order are built when first read; the length and ``extremes`` read none
    of them.
    """

    def __init__(self, bounds: Boundaries, events: Events | None = None, mults: np.ndarray | None = None):
        self.bounds, self.events, self.mults = bounds, events, mults

    def __len__(self) -> int:
        return 1 if self.events is None else 2 * int(np.count_nonzero(self.events.last))

    def extremes(self) -> list[tuple[int, int]]:
        """Each set's least and greatest count over every translate."""
        if self.events is None:
            return [(0, 0)] * self.bounds.sets
        return [(int(min(cells.min(), at.min())), int(max(cells.max(), at.max())))
                for cells, at in self.events.set_counts(self.mults)]

    @functools.cached_property
    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The integer parts and fraction ranks of the event positions."""
        return self.events.positions()

    @functools.cached_property
    def wrap_first(self) -> bool:
        """Whether the wrapping cell's candidate comes first (with events)."""
        ints, ranks = self._positions
        return _wrap_first(ints, ranks, self.bounds.fracs, self.bounds.denominator, 0, -1)

    @functools.cached_property
    def counts(self) -> np.ndarray:
        # set i's count at position g in row 2g and on the cell after it in
        # row 2g + 1, then the wrapping cell moved first when it comes first
        out = np.zeros((len(self), self.bounds.sets), dtype=np.int64)
        if self.events is None:
            return out
        for i, (cells, at) in enumerate(self.events.set_counts(self.mults)):
            out[0::2, i] = at
            out[1::2, i] = cells
        return np.roll(out, 1, axis=0) if self.wrap_first else out

    def translate(self, j: int) -> Fraction:
        """The exact translate of candidate j."""
        if self.events is None:
            return Fraction(0)
        ints, ranks = self._positions
        fracs, D, G = self.bounds.fracs, self.bounds.denominator, len(ints)
        g, in_cell = divmod((j - self.wrap_first) % (2 * G), 2)
        here = int(ints[g]) + fracs[ranks[g]]
        if not in_cell:
            return here / D
        # the midpoint of the cell to the next position, past 0 after the last
        after = int(ints[(g + 1) % G]) + fracs[ranks[(g + 1) % G]] + (D if g + 1 == G else 0)
        return ((here + after) / 2 % D) / D


def _wrap_first(ints: np.ndarray, ranks: np.ndarray, fracs: tuple, D: int, first: int, last: int) -> bool:
    """Whether the cell from event ``last`` past 0 to event ``first`` comes
    first in a sweep over those events: its midpoint, (last + first + D)/2
    mod D, lies below the first event when last + first >= D: by the integer
    parts unless they sum to D - 1, as the fractional parts lie in [0, 1)."""
    over = int(ints[last]) + int(ints[first]) - D
    return over >= 0 or (over == -1 and fracs[ranks[last]] + fracs[ranks[first]] >= 1)


# the most (row, candidate, set) counts one block of a walk holds
BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """The candidate counts of rows n = start+1 .. start+len of a
    product-orbit walk, from one arrangement of the events of every term the
    block reaches.

    Row n is the n-point orbit x, x-a, ..., x-(n-1)a (terms 0..n-1), and
    its counts are those of the ``Sweep`` that ``OrbitCounter.sup_candidates``
    gives that orbit, in that sweep's order.  ``counts`` holds every row's,
    row after row: row q's are ``counts[offsets[q]:offsets[q + 1]]``.
    """

    start: int
    counts: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def distinct_firsts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(firsts, bounds)``: the candidates at which each row's count
        vectors first appear, ascending, row q's in firsts[bounds[q]:bounds[q
        + 1]].  One sort of integer keys (row, count vector, candidate): a
        count is at most the block's last n, so the vectors pack in that
        radix, and the first key of each (row, vector) holds its first
        candidate; a key that would leave int64 is replaced by its rank."""
        rows, size = len(self), len(self.counts)
        key = np.repeat(np.arange(rows, dtype=np.int64), np.diff(self.offsets))
        span, n = rows, self.start + rows
        for column, radix in [(c, n + 1) for c in self.counts.T] + [(np.arange(size), size)]:
            if span * radix >= 2 ** 63:
                key = np.unique(key, return_inverse=True)[1]
                span = int(key.max()) + 1
            key = key * radix + column
            span *= radix
        key.sort()
        vectors = key // size
        new = np.ones(size, dtype=bool)
        np.not_equal(vectors[1:], vectors[:-1], out=new[1:])
        firsts = np.sort(key[new] % size)
        return firsts, np.searchsorted(firsts, self.offsets)


def sweep_blocks(bounds: Boundaries, seq: OrbitSequence, horizon: int = 1) -> Iterator[SweepBlock]:
    """The candidate counts of the product orbits of ``seq``'s terms 0..n-1
    in every set of ``bounds``, for n = 1, 2, ..., in ``SweepBlock``s.

    The first block ends at row ``horizon`` and each later one doubles the
    walk, unless a block would hold more than ``BLOCK_ENTRIES`` counts by
    the bound of two candidates per (boundary, term) event; then it ends
    sooner, after at least one row.
    """
    start = 0
    while True:
        stop = max(horizon, 2 * start, start + 1)
        while stop > start + 1 and _block_entries(bounds, start, stop) > BLOCK_ENTRIES:
            stop = start + (stop - start) // 2
        yield _sweep_block(bounds, seq, start, stop)
        start = stop


def _block_entries(bounds: Boundaries, start: int, stop: int) -> int:
    """The bound on a block's counts: its row sums (one more than its rows),
    two candidates per (boundary, point) event, and the sets."""
    points = min(stop, bounds.denominator)
    return (stop - start + 1) * 2 * len(bounds.floors) * points * bounds.sets


def _sweep_block(bounds: Boundaries, seq: OrbitSequence, start: int, stop: int) -> SweepBlock:
    """Rows start+1 .. stop of a product-orbit walk (``sweep_blocks``).

    Term k's point is residues[k % P] (the orbit has period P when P < stop).
    Along the block's candidates (event g at 2g, the cell after it at
    2g + 1), a term changes a set's count at its own events only, by the
    boundary's change at the event and on the cell after it, from its count
    on the cell that wraps past 0.  Those changes are summed per term (terms
    below ``start`` in one sum); cumulative sums along the candidates and
    then over the terms are every row's counts at every block candidate.  A
    row's candidates are its own events and, for each, the block cell just
    after it, which lies in the row's cell after that event.
    """
    D, S, rows = bounds.denominator, bounds.sets, stop - start
    residues = seq.angle_terms(stop, first=0)
    P = len(residues)
    if not len(bounds.floors):
        return SweepBlock(start, np.zeros((rows, S), dtype=np.int64), np.arange(rows + 1))
    order = np.argsort(residues)
    events = bounds.arrange(residues[order])
    term = order[events.points()]
    B, G = len(bounds.floors), len(events.ends)
    group = np.empty((B, P), dtype=np.int64)
    group[events.rows, term] = np.repeat(np.arange(G), np.diff(events.ends, prepend=-1))
    birth = np.minimum.reduceat(term, np.concatenate(([0], events.ends[:-1] + 1)))
    wraps = np.empty_like(events.wraps)
    wraps[:, order] = events.wraps
    ints, ranks = events.positions()

    # (sum, point, times): sum 0 gathers the terms below start, sum j >= 1 is
    # the term start + j - 1
    before = np.maximum((start - 1 - np.arange(P)) // P + 1, 0)
    points = np.concatenate([np.flatnonzero(before), np.arange(start, stop) % P])
    sums = np.concatenate([np.zeros(len(points) - rows, dtype=np.int64), np.arange(1, rows + 1)])
    times = np.concatenate([before[before > 0], np.ones(rows, dtype=np.int64)])
    steps = np.zeros((rows + 1, 2 * G, S), dtype=np.int64)
    at, cell, owner = bounds.at[:, None], bounds.cell[:, None], bounds.owner[:, None]
    slots = 2 * group[:, points]
    np.add.at(steps, (sums, slots, owner), at * times)
    np.add.at(steps, (sums, slots + 1, owner), (cell - at) * times)
    sets, wrapping = np.nonzero(wraps[:, points])
    np.add.at(steps, (sums[wrapping], 0, sets), times[wrapping])
    np.cumsum(steps, axis=1, out=steps)
    np.cumsum(steps, axis=0, out=steps)

    alive = birth[None, :] < np.arange(start + 1, stop + 1)[:, None]
    # each row's first and last events; the wrapping cell's rule is read
    # once per run of rows that share them
    ends = alive.argmax(axis=1) * G + (G - 1 - alive[:, ::-1].argmax(axis=1))
    runs = np.flatnonzero(np.diff(ends, prepend=-1))
    rules = [_wrap_first(ints, ranks, bounds.fracs, D, e // G, e % G)
             for e in ends[runs].tolist()]
    wrap_first = np.repeat(rules, np.diff(runs, append=rows))
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(2 * alive.sum(axis=1), out=offsets[1:])
    # each row's live (event, cell) pairs, in one pass over the rows' steps
    counts = np.compress(alive.ravel(), steps[1:].reshape(rows * G, 2 * S), axis=0).reshape(-1, S)
    if wrap_first.any():
        # those rows move their wrapping cell, their last candidate, first
        source = np.arange(len(counts)) - np.repeat(wrap_first, np.diff(offsets))
        source[offsets[:-1][wrap_first]] = offsets[1:][wrap_first] - 1
        counts = counts[source]
    return SweepBlock(start, counts, offsets)


@dataclass(frozen=True, eq=False)
class Translates(Sequence):
    """The exact translates of chosen candidates of the sweep of row n of a
    product-orbit walk over ``bounds`` (``sweep_blocks``): item i is the
    translate of its candidate candidates[i].  Nothing is computed before an
    item is read, and no block is held, only the walk's boundaries and
    orbit: a read sweeps row n's orbit again (``OrbitCounter.sup_candidates``)."""

    bounds: Boundaries
    seq: OrbitSequence
    n: int
    candidates: Sequence[int]

    def _sweep(self) -> Sweep:
        return OrbitCounter.from_sequence(self.seq, self.n, first=0).sup_candidates(self.bounds)

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, i: int) -> Fraction:
        return self._sweep().translate(int(self.candidates[i]))

    def __iter__(self) -> Iterator[Fraction]:
        sweep = self._sweep()
        return (sweep.translate(int(j)) for j in self.candidates)


# ---------------------------------------------------------------------------
# densities


def _resolved(K, seq: OrbitSequence, translate=None):
    """K, the orbit and a translate on the coarsest context that resolves K
    (``K.resolved``).  Membership in a p-adic ball set of finest level j
    reads only the residue mod p^(j + window), and reduction to that
    quotient is a homomorphism onto it, so the orbit's element and the
    translate are projected there (``from_residue``) and every count stays
    the same, while the orbit's period and support shrink with the context.
    A finite group resolves to itself."""
    group, K = K.resolved(seq.group)
    if group != seq.group:
        seq = OrbitSequence(group, group.from_residue(seq.element.residue))
        if translate is not None:
            translate = group.from_residue(translate.residue)
    return K, seq, translate


def _support_count(K, group, support, x=None) -> int:
    """Terms y of an enumerable orbit's support (``residue_support``) with
    x * y in K, counted with multiplicity (y itself when x is None)."""
    return sum(mult for y, mult in support if K.contains(y if x is None else group.mul(x, y)))


def density(K, seq: OrbitSequence, N: int) -> Fraction:
    """Fraction of terms x_1 .. x_{N-1} lying in K (divisor N)."""
    return translated_density(K, None, seq, N)


def translated_density(K, x, seq: OrbitSequence, N: int) -> Fraction:
    """Density of the translated set: counts terms with x * x_k in K (x_k
    itself when x is None), by the group family's ``orbit_count``."""
    if N < 2:
        raise ValueError("need N >= 2")
    from .families import family  # the families build on this module
    return Fraction(family(seq.group).orbit_count(K, seq, N, x), N)


def sup_deviation(K, seq: OrbitSequence, N):
    """sup over translates x of |translated density - measure(K)|.

    ``K`` and ``N`` may both be lists, of sets and of horizons: the result
    is then a list over the sets of their deviations, each a list over the
    horizons.  The extreme counts are exact and come from the group
    family's ``orbit_extremes``: on the circle the orbit is sorted once per
    N and shared by every set, and each set's counts at every event position
    and on every cell between them come from cumulative sums
    (``OrbitCounter.sup_candidates``); finite and p-adic contexts are
    exhausted on the coarsest context that resolves K (``_resolved``).
    """
    many = isinstance(K, (list, tuple))
    if many != isinstance(N, (list, tuple)):
        raise TypeError("sup_deviation takes one set and one N, or a list of each")
    sets, Ns = (K, [int(n) for n in N]) if many else ([K], [int(N)])
    if min(Ns, default=2) < 2:
        raise ValueError("need N >= 2")
    from .families import family  # the families build on this module
    out = []
    for S, row in zip(sets, family(seq.group).orbit_extremes(sets, seq, Ns)):
        mu = S.measure()
        # |count/N - mu| is extremal at the extreme counts; finish in exact
        # rational arithmetic so trivial cases come out exact
        out.append([float(max(abs(Fraction(hi, n) - mu), abs(Fraction(lo, n) - mu)))
                    for n, (lo, hi) in zip(Ns, row)])
    return out if many else out[0][0]


# ---------------------------------------------------------------------------
# character averages


def _character_residue(k: int, a: CircleElement) -> tuple[int, int]:
    """(r, D) with k a = r/D mod 1 exactly: D is the denominator of the
    exact angle, bounded as for every circle statistic (``orbit_denominator``)."""
    D = orbit_denominator(a.value.denominator)
    return k * a.value.numerator % D, D


def _sin_pi(t: int, D: int) -> float:
    """|sin(pi t/D)| for an integer t: from min(t, D - t)/D for t mod D,
    rounded once, so the float argument lies in [0, pi/2]."""
    t %= D
    return math.sin(math.pi * (min(t, D - t) / D))


def weyl_bound(k: int, a: CircleElement, N: int) -> float:
    """The uniform averaging bound 2 / (N |1 - e(k a)|) for a character,
    1 / (N sin(pi r/D)) for k a = r/D mod 1.

    Raises FixedCharacterError when k*a is an integer, i.e. the character is
    fixed by the rotation and the bound's hypothesis fails.
    """
    r, D = _character_residue(k, a)
    if r == 0:
        raise FixedCharacterError(k, a.value)
    return 1 / _sin_pi(r, D) / N


@dataclass(frozen=True)
class SweepPoint:
    N: int
    sup_deviation: float
    bound: float | None


def uniform_convergence_sweep(k: int, a: CircleElement, N_list: Sequence[int]) -> list[SweepPoint]:
    """Sup over translates of |ergodic average - mean| at each N, for the
    character e(kx).

    Its average at x is e(kx) S_N / N, S_N = sum_{n=1}^{N-1} e(-kna), so the
    deviation is the same at every x.  With k a = r/D mod 1 for exact
    integers r and D, |S_N| = |sin(pi (N-1) r/D)| / sin(pi r/D) when r != 0,
    and each row is that over N from the two residues r and (N-1) r mod D,
    with no sum over n; its averaging bound (``weyl_bound``) divides the same
    denominator sine, so no row exceeds it.  The trivial character deviates from its mean
    1 by 1/N, and a character fixed by the rotation (r = 0, k != 0) by (N-1)/N
    from its mean 0, with no bound.
    """
    Ns = sorted(set(int(N) for N in N_list))
    if not Ns or Ns[0] < 2:
        raise ValueError("need horizons N >= 2")
    r, D = _character_residue(k, a)
    if k == 0:
        return [SweepPoint(N, 1 / N, None) for N in Ns]
    if r == 0:
        return [SweepPoint(N, (N - 1) / N, None) for N in Ns]
    sine = _sin_pi(r, D)
    return [SweepPoint(N, _sin_pi((N - 1) * r, D) / sine / N, weyl_bound(k, a, N)) for N in Ns]
