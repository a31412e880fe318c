"""Orbit density statistics, uniform-deviation suprema, and ergodic averages.

The density of an orbit in a set K counts terms x_k with 1 <= k <= N-1 and
divides by N (so the density of the full group is (N-1)/N, not 1; the skew
is kept deliberately and documented rather than "fixed").

On the circle the orbit is held as integer residues V, the points V/D for
the denominator D of the rotation's exact angle, and the supremum over
translates of |density - measure| is computed exactly: the translated count
is piecewise constant in the translate, with breakpoints at the set
boundaries shifted by orbit points, so the counts at those event positions
and on the cells between them realize the supremum.  Finite and p-adic
contexts are exhausted, by one count over their shared group surface
(``mul``, ``elements``).  A p-adic ball set whose finest ball has level j
is a union of cosets of p^j Z_p, so its counts are taken on the quotient
mod p^(j + window), the coarsest context that resolves it, with the orbit
and the translates projected there (``_resolved``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from collections.abc import Sequence
from typing import Callable, Iterator

import numpy as np

from .borel import IntervalSet
from .errors import FixedCharacterError
from .groups import MAX_ORBIT_DENOMINATOR, CircleElement, CircleGroup, OrbitSequence

__all__ = [
    "DensityStat",
    "TestFunction",
    "OrbitCounter",
    "Sweep",
    "Boundaries",
    "Events",
    "SweepBlock",
    "sweep_blocks",
    "Translates",
    "density",
    "density_stat",
    "translated_density",
    "sup_deviation",
    "ergodic_average",
    "weyl_bound",
    "uniform_convergence_sweep",
    "SweepPoint",
]


def _frac(x) -> np.ndarray:
    """x - floor(x) in a new float array: ``np.mod(x, 1.0)`` bit for bit, at
    a fraction of its cost.  The subtraction is exact (Sterbenz), and for
    negative x both forms round the one exact value 1 - frac|x|."""
    x = np.asarray(x, dtype=float)
    out = np.floor(x, out=np.empty_like(x))
    return np.subtract(x, out, out=out)


def _mod1(arr: np.ndarray) -> np.ndarray:
    # x - floor(x) may round up to exactly 1.0 for tiny negative inputs;
    # fold that back to 0 so results stay in [0, 1)
    out = _frac(arr)
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
    sweeps all translates at once.  Nothing is rounded.
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
        ``first = 0`` and the sign -1 that is the N-point product orbit x,
        x-a, ..., x-(N-1)a of the point x itself."""
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
        ``Sweep``.

        The events of all sets come in translate order from one
        ``Boundaries.arrange``; the cumulative starts and stops then give
        each set's count at every event and on every cell between
        consecutive events, from its count on the cell that wraps past 0.
        Everything that depends only on the sets and D is prepared once, in
        ``bounds``, so a walk over n reuses it.
        """
        D = self.denominator
        if bounds.denominator != D:
            raise ValueError(f"boundaries prepared for denominator {bounds.denominator}, not {D}")
        S = bounds.sets
        L = len(self.residues)
        if not len(bounds.floors) or not L:
            return Sweep(np.zeros((1, S), dtype=np.int64), D)
        events = bounds.arrange(self.residues)
        base = [int(self.counts[wraps].sum()) for wraps in events.wraps]
        # each point's multiplicity times its boundary's changes, per event
        row_of = events.order // L
        mult = self.counts[events.order - row_of * L]
        cell = bounds.cell[row_of] * mult
        at = bounds.at[row_of] * mult
        owner = bounds.owner[row_of] if S > 1 else None
        del row_of, mult
        starts = events.starts
        counts = np.empty((2 * len(starts), S), dtype=np.int64)
        for i in range(S):
            cell_i, at_i = cell, at
            if owner is not None:
                cell_i, at_i = np.where(owner == i, cell, 0), np.where(owner == i, at, 0)
            step = np.add.reduceat(cell_i, starts)
            after = base[i] + np.cumsum(step)
            counts[0::2, i] = after - step + np.add.reduceat(at_i, starts)
            counts[1::2, i] = after
        wrap_first = _wrap_first(events.ints, events.ranks, bounds.fracs, D, 0, -1)
        if wrap_first:
            counts = np.roll(counts, 1, axis=0)
        return Sweep(counts, D, events.ints, events.ranks, bounds.fracs, wrap_first)


@dataclass(frozen=True, eq=False)
class Events:
    """The events of circle points V/D against prepared ``Boundaries``, in
    translate order (``Boundaries.arrange``).

    Sorted event m is boundary row ``order[m] // L`` met by point
    ``order[m] % L``, for L points.  The distinct event positions begin at
    the sorted events ``starts`` and sit at ``ints + fracs[ranks]`` in units
    of 1/D.  ``wraps[i, r]`` says whether point r lies in set i on the cell
    that wraps past 0.
    """

    order: np.ndarray
    starts: np.ndarray
    ints: np.ndarray
    ranks: np.ndarray
    wraps: np.ndarray


@dataclass(frozen=True, eq=False)
class Boundaries:
    """The boundaries of one or more circle sets, prepared for ordering their
    events with orbits of denominator D (``arrange``).

    Each boundary b is held as floor(b D) mod D (uint64) and the rank of the
    fractional part of b D among the boundaries' (the distinct parts are
    ``fracs``, in units of 1/D), in rank order, with its set (``owner``) and
    the change of that set's count on the cell after the event and at the
    event itself: an open arc excludes its ends, an isolated point counts
    only at its event.  ``arcs`` holds, per arc, its start row, its stop
    row, whether it wraps past 0 when the two have equal integer parts, and
    its set.  None of this depends on the orbit, so one object serves every
    n of a walk.
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
        """The events of the points V/D, V in ``residues``, in translate
        order.

        A boundary b meets the point V/D when the translate is the event
        position (b D - V)/D mod 1: floor(b D) - V mod D, exactly in uint64
        for all boundaries and points at once, plus the fractional part of
        b D, whose rank is held here.  The rows are in fraction order, so one
        stable sort of the integer parts orders every event.  A point lies in
        a set on the cell that wraps past 0 when one of the set's arcs starts
        at a position not below its stop (the arcs of a set are disjoint, so
        at most one does).
        """
        L = len(residues)
        # where V > floor the uint64 difference wraps past 0 and D is added
        # back (for D = 2^64 the wrap alone is the residue)
        B = self.floors[:, None]
        ints = np.subtract(B, residues)
        np.add(ints, np.uint64(self.denominator % 2 ** 64), out=ints, where=residues > B)
        wraps = np.zeros((self.sets, L), dtype=bool)
        for lo, hi, tie_wraps, i in self.arcs:
            wraps[i] |= ints[lo] >= ints[hi] if tie_wraps else ints[lo] > ints[hi]
        # the per-event arrays are dropped as soon as they are read, which
        # keeps the peak memory near a few arrays of events
        flat = ints.ravel()
        del ints
        order = np.argsort(flat, kind="stable")
        event_ints = flat[order]
        del flat
        event_ranks = self.ranks[order // L]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (event_ints[1:] != event_ints[:-1]) | (event_ranks[1:] != event_ranks[:-1])
        starts = np.flatnonzero(new)
        return Events(order, starts, event_ints[starts], event_ranks[starts], wraps)

    @classmethod
    def prepare(cls, denominator: int, *sets: IntervalSet) -> "Boundaries":
        D = denominator
        if D > MAX_ORBIT_DENOMINATOR:
            raise ValueError(f"angle denominator exceeds 2^{MAX_ORBIT_DENOMINATOR.bit_length() - 1}")
        # (boundary, set, change on the cell after, change at the event)
        ends = []
        for i, K in enumerate(sets):
            for lo, hi in K.open_part:
                ends += [(lo, i, 1, 0), (hi, i, -1, -1)]
            ends += [(pt, i, 0, 1) for pt in K.point_part]
        if not ends:
            empty = np.zeros(0, dtype=np.uint64)
            return cls(len(sets), D, empty, empty, (), empty, empty, empty, ())
        bs, owner, cell, at = zip(*ends)
        floors = np.array([b.numerator * D // b.denominator % D for b in bs], dtype=np.uint64)
        # the fractional parts of b D, as numerators over a common denominator
        M = math.lcm(*(b.denominator for b in bs))
        keys = [b.numerator * D % b.denominator * (M // b.denominator) for b in bs]
        distinct = sorted(set(keys))
        rank_of = {k: r for r, k in enumerate(distinct)}
        ranks = np.array([rank_of[k] for k in keys], dtype=np.int32)
        # rows in fraction order, so that a stable sort of the integer parts
        # leaves equal integer parts in fraction order
        rows = np.argsort(ranks, kind="stable")
        position = np.empty_like(rows)
        position[rows] = np.arange(len(rows))
        return cls(
            len(sets), D, floors[rows], ranks[rows], tuple(Fraction(k, M) for k in distinct),
            np.array(owner, dtype=np.int32)[rows],
            np.array(cell, dtype=np.int8)[rows], np.array(at, dtype=np.int8)[rows],
            tuple((int(position[j]), int(position[j + 1]), bool(ranks[j] >= ranks[j + 1]), owner[j])
                  for j, e in enumerate(ends) if e[2] == 1),
        )


@dataclass(frozen=True, eq=False)
class Sweep:
    """Exact orbit counts in one or more sets at every candidate translate.

    A set's translated count is constant between consecutive event
    positions, so the candidates are the events and one translate in each
    cell between them, its exact midpoint; the cell after the last event
    wraps past 0 to the first.  Candidates run in increasing translate order
    over [0, 1), and ``counts[j, i]`` is set i's count at candidate j.  With
    no events (no set boundaries, or no points) the only candidate is the
    translate 0.

    Event g sits at ``event_ints[g] + fracs[event_ranks[g]]``, in units of
    1/D.
    """

    counts: np.ndarray
    denominator: int
    event_ints: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint64))
    event_ranks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fracs: tuple = ()
    wrap_first: bool = False  # the wrapping cell's candidate comes first

    def __len__(self) -> int:
        return len(self.counts)

    def _position(self, g: int) -> Fraction:
        return int(self.event_ints[g]) + self.fracs[self.event_ranks[g]]

    def translate(self, j: int) -> Fraction:
        """The exact translate of candidate j."""
        G = len(self.event_ints)
        if not G:
            return Fraction(0)
        g, in_cell = divmod((j - self.wrap_first) % (2 * G), 2)
        D = self.denominator
        if not in_cell:
            return self._position(g) / D
        if g + 1 < G:
            return (self._position(g) + self._position(g + 1)) / (2 * D)
        return ((self._position(g) + self._position(0) + D) / 2 % D) / D


def _wrap_first(ints: np.ndarray, ranks: np.ndarray, fracs: tuple, D: int, first: int, last: int) -> bool:
    """Whether the cell from event ``last`` past 0 to event ``first`` comes
    first in a sweep over those events: its midpoint, (last + first + D)/2
    mod D, lies below the first event when last + first >= D."""
    return int(ints[last]) + fracs[ranks[last]] + int(ints[first]) + fracs[ranks[first]] >= D


# the most (row, candidate, set) counts one block of a walk holds
BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class SweepBlock:
    """The sweeps of rows n = start+1 .. start+len of a product-orbit walk,
    from one arrangement of the events of every term the block reaches.

    Row n is the n-point orbit x, x-a, ..., x-(n-1)a (terms 0..n-1).  Its
    events are the block's events whose ``birth``, the first term meeting
    that position, is below n; ``sweep(q)`` is row start+1+q, the sweep
    ``OrbitCounter.sup_candidates`` gives that orbit.  ``counts`` holds
    every row's candidate counts, row after row: row q's are
    ``counts[offsets[q]:offsets[q + 1]]``, in its sweep's order.
    """

    start: int
    denominator: int
    counts: np.ndarray
    offsets: np.ndarray
    birth: np.ndarray
    event_ints: np.ndarray
    event_ranks: np.ndarray
    fracs: tuple
    wrap_first: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def sweep(self, q: int) -> Sweep:
        counts = self.counts[self.offsets[q]:self.offsets[q + 1]]
        if not len(self.birth):
            return Sweep(counts, self.denominator)
        alive = self.birth <= self.start + q
        return Sweep(counts, self.denominator, self.event_ints[alive], self.event_ranks[alive],
                     self.fracs, bool(self.wrap_first[q]))

    def distinct_firsts(self) -> list[np.ndarray]:
        """Per row, the candidates at which a count vector first appears, in
        candidate order: one stable sort of integer keys (row, count vector)
        for the whole block.  A count is at most the block's last n, so the
        vectors pack in that radix; when the packed key would leave int64,
        the key so far is replaced by its dense rank."""
        rows = len(self)
        key = np.repeat(np.arange(rows, dtype=np.int64), np.diff(self.offsets))
        span, radix = rows, self.start + rows + 1
        for column in self.counts.T:
            if span * radix >= 2 ** 63:
                key = np.unique(key, return_inverse=True)[1]
                span = int(key.max()) + 1
            key = key * radix + column
            span *= radix
        order = np.argsort(key, kind="stable")
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[order[1:]] != key[order[:-1]]
        first = np.zeros(len(key), dtype=bool)
        first[order[new]] = True
        return [np.flatnonzero(first[self.offsets[q]:self.offsets[q + 1]]) for q in range(rows)]


def sweep_blocks(bounds: Boundaries, seq: OrbitSequence, horizon: int = 1) -> Iterator[SweepBlock]:
    """The sweeps of the product orbits of ``seq``'s terms 0..n-1 in every
    set of ``bounds``, for n = 1, 2, ..., in ``SweepBlock``s.

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
    empty = np.zeros(0, dtype=np.int64)
    if not len(bounds.floors):
        return SweepBlock(start, D, np.zeros((rows, S), dtype=np.int64), np.arange(rows + 1),
                          empty, empty, empty, bounds.fracs, np.zeros(rows, dtype=bool))
    events = bounds.arrange(residues)
    B, G = len(bounds.floors), len(events.starts)
    group = np.empty(B * P, dtype=np.int64)
    group[events.order] = np.repeat(np.arange(G), np.diff(events.starts, append=B * P))
    group = group.reshape(B, P)
    birth = np.minimum.reduceat(events.order % P, events.starts)

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
    sets, wrapping = np.nonzero(events.wraps[:, points])
    np.add.at(steps, (sums[wrapping], 0, sets), times[wrapping])
    np.cumsum(steps, axis=1, out=steps)
    np.cumsum(steps, axis=0, out=steps)

    alive = birth[None, :] < np.arange(start + 1, stop + 1)[:, None]
    # each row's first and last events; the wrapping cell's rule is read
    # once per run of rows that share them
    ends = alive.argmax(axis=1) * G + (G - 1 - alive[:, ::-1].argmax(axis=1))
    runs = np.flatnonzero(np.diff(ends, prepend=-1))
    rules = [_wrap_first(events.ints, events.ranks, bounds.fracs, D, e // G, e % G)
             for e in ends[runs].tolist()]
    wrap_first = np.repeat(rules, np.diff(runs, append=rows))
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(2 * alive.sum(axis=1), out=offsets[1:])
    row_of, candidates = np.nonzero(np.repeat(alive, 2, axis=1))
    del alive
    if wrap_first.any():
        # those rows move their wrapping cell, their last candidate, first
        source = np.arange(len(candidates)) - np.repeat(wrap_first, np.diff(offsets))
        source[offsets[:-1][wrap_first]] = offsets[1:][wrap_first] - 1
        candidates = candidates[source]
    counts = steps[row_of + 1, candidates]
    return SweepBlock(start, D, counts, offsets, birth, events.ints, events.ranks, bounds.fracs,
                      wrap_first)


@dataclass(frozen=True, eq=False)
class Translates(Sequence):
    """The exact translates of chosen candidates of a sweep, each computed
    only when it is read: item i is ``sweep.translate(candidates[i])``."""

    sweep: Sweep
    candidates: np.ndarray

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, i: int) -> Fraction:
        return self.sweep.translate(int(self.candidates[i]))


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class DensityStat:
    """A density with its raw count; value * N is always the integer count."""

    N: int
    count: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.count, self.N)


def _terms_in_set(K, seq: OrbitSequence, N: int, translate=None) -> int:
    if isinstance(seq.group, CircleGroup):
        counter = OrbitCounter.from_sequence(seq, N)
        return int(counter.count_in_translated(K, [0 if translate is None else translate])[0])
    K, seq, translate = _resolved(K, seq, translate)
    return _support_count(K, seq.group, seq.residue_support(N), translate)


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
        seq = OrbitSequence(group, group.from_residue(seq.element.residue), seq.sign)
        if translate is not None:
            translate = group.from_residue(translate.residue)
    return K, seq, translate


def _support_count(K, group, support, x=None) -> int:
    """Terms y of an enumerable orbit's support (``residue_support``) with
    x * y in K, counted with multiplicity (y itself when x is None)."""
    return sum(mult for y, mult in support if K.contains(y if x is None else group.mul(x, y)))


def density(K, seq: OrbitSequence, N: int) -> Fraction:
    """Fraction of terms x_1 .. x_{N-1} lying in K (divisor N)."""
    if N < 2:
        raise ValueError("need N >= 2")
    return Fraction(_terms_in_set(K, seq, N), N)


def density_stat(K, seq: OrbitSequence, N: int) -> DensityStat:
    if N < 2:
        raise ValueError("need N >= 2")
    return DensityStat(N, _terms_in_set(K, seq, N))


def translated_density(K, x, seq: OrbitSequence, N: int) -> Fraction:
    """Density of the translated set: counts terms with x * x_k in K."""
    if N < 2:
        raise ValueError("need N >= 2")
    return Fraction(_terms_in_set(K, seq, N, translate=x), N)


def sup_deviation(K, seq: OrbitSequence, N: int) -> float:
    """sup over translates x of |translated density - measure(K)|.

    Exact on the circle: the counts at every event position and on every
    cell between them (``OrbitCounter.sup_candidates``).  Finite and p-adic
    contexts are exhausted on the coarsest context that resolves K
    (``_resolved``): the orbit's support is built once there and counted at
    every translate that context enumerates, one per coset of the finest
    ball of a p-adic set.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    mu = K.measure()
    if isinstance(seq.group, CircleGroup):
        counter = OrbitCounter.from_sequence(seq, N)
        counts = counter.sup_candidates(Boundaries.prepare(counter.denominator, K)).counts
        lo, hi = int(counts.min()), int(counts.max())
    else:
        K, seq, _ = _resolved(K, seq)
        group, support = seq.group, seq.residue_support(N)
        counts = [_support_count(K, group, support, x) for x in group.elements()]
        lo, hi = min(counts), max(counts)
    # |count/N - mu| is extremal at the extreme counts; finish in exact
    # rational arithmetic so trivial cases come out exact
    return float(max(abs(Fraction(hi, N) - mu), abs(Fraction(lo, N) - mu)))


# ---------------------------------------------------------------------------
# test functions and ergodic averages


@dataclass(frozen=True)
class TestFunction:
    """A bounded test function on the circle with its exact mean when known."""

    __test__ = False  # not a pytest class

    fn: Callable[[np.ndarray], np.ndarray]
    mean: complex | None = None
    char_index: int | None = None
    label: str = ""

    @staticmethod
    def character(k: int) -> "TestFunction":
        def fn(t):
            return np.exp(2j * np.pi * k * np.asarray(t, dtype=float))

        return TestFunction(fn, mean=(1.0 + 0j) if k == 0 else 0j, char_index=k, label=f"e(kx), k={k}")

    @staticmethod
    def constant(c) -> "TestFunction":
        def fn(t):
            t = np.asarray(t, dtype=float)
            return np.full(t.shape, c)

        return TestFunction(fn, mean=c, label=f"const {c}")

    @staticmethod
    def from_callable(fn, mean=None, label="") -> "TestFunction":
        return TestFunction(fn, mean=mean, label=label)

    def resolved_mean(self, quadrature_points: int = 1 << 14) -> complex:
        if self.mean is not None:
            return self.mean
        xs = (np.arange(quadrature_points) + 0.5) / quadrature_points
        return complex(np.mean(self.fn(xs)))


def ergodic_average(f: TestFunction, a: CircleElement, N: int, x) -> complex:
    """(1/N) * sum_{n=1}^{N-1} f(x - n a) on the circle."""
    if N < 2:
        raise ValueError("need N >= 2")
    xf = float(getattr(x, "value", x))
    af = float(a.value)
    acc = 0j
    chunk = 1 << 14
    n = 1
    while n < N:
        hi = min(N, n + chunk)
        ns = np.arange(n, hi, dtype=float)
        pts = _mod1(xf - ns * af)
        acc += complex(np.sum(f.fn(pts)))
        n = hi
    return acc / N


def weyl_bound(k: int, a: CircleElement, N: int) -> float:
    """The uniform averaging bound 2 / (N |1 - e(k a)|) for a character.

    Raises FixedCharacterError when k*a is an integer, i.e. the character is
    fixed by the rotation and the bound's hypothesis fails.
    """
    frac = (k * a.value) % 1
    if frac == 0:
        raise FixedCharacterError(k, a.value)
    return 1.0 / (N * math.sin(math.pi * float(frac)))


@dataclass(frozen=True)
class SweepPoint:
    N: int
    sup_deviation: float
    bound: float | None


def uniform_convergence_sweep(
    f: TestFunction,
    a: CircleElement,
    N_list: Sequence[int],
    x_samples: Sequence | None = None,
) -> list[SweepPoint]:
    """Sup over translates of |ergodic average - mean| at each N.

    A character's average at x is e(kx) S_N / N, S_N = sum_{n=1}^{N-1}
    e(-kna), so its deviation is the same at every x: summed once, at x = 0,
    it is the supremum over all translates, with the averaging bound
    attached when that exists.  Other test functions take the max over
    ``x_samples``.
    """
    Ns = sorted(set(int(N) for N in N_list))
    if not Ns or Ns[0] < 2:
        raise ValueError("need horizons N >= 2")
    if f.char_index is not None:
        xs = np.zeros(1)
    elif x_samples is None or not len(x_samples):
        raise ValueError("a test function that is not a character needs translates in x_samples")
    else:
        xs = np.asarray([float(getattr(x, "value", x)) for x in x_samples], dtype=float)
    mean = f.resolved_mean()
    af = float(a.value)
    acc = np.zeros(len(xs), dtype=complex)
    out = []
    n = 1
    chunk = 1 << 11
    for N in Ns:
        while n < N:
            hi = min(N, n + chunk)
            ns = np.arange(n, hi, dtype=float)
            pts = _mod1(xs[None, :] - ns[:, None] * af)
            acc += f.fn(pts).sum(axis=0)
            n = hi
        dev = float(np.max(np.abs(acc / N - mean)))
        bound = None
        if f.char_index is not None:
            try:
                bound = weyl_bound(f.char_index, a, N)
            except FixedCharacterError:
                bound = None
        out.append(SweepPoint(N, dev, bound))
    return out
