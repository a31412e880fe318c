"""Orbit density statistics, uniform-deviation suprema, and ergodic averages.

The density of an orbit in a set K counts terms x_k with 1 <= k <= N-1 and
divides by N (so the density of the full group is (N-1)/N, not 1; the skew
is kept deliberately and documented rather than "fixed").

On the circle the supremum over translates of |density - measure| is computed
exactly: the translated density is a piecewise-constant function of the
translate whose breakpoints are exactly the set boundaries shifted by orbit
points, so evaluating at those event points, just after them, and at gap
midpoints realizes the supremum.  Finite and p-adic contexts are exhausted
outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .borel import IntervalSet
from .errors import FixedCharacterError
from .groups import CIRCLE, CircleElement, CircleGroup, FiniteGroup, OrbitSequence, PAdicContext

__all__ = [
    "DensityStat",
    "TestFunction",
    "OrbitCounter",
    "product_counter",
    "density",
    "density_stat",
    "translated_density",
    "sup_deviation",
    "ergodic_average",
    "weyl_bound",
    "uniform_convergence_sweep",
    "SweepPoint",
]


def _mod1(arr: np.ndarray) -> np.ndarray:
    # float % 1.0 may round up to exactly 1.0 for tiny negative inputs;
    # fold that back to 0 so results stay in [0, 1)
    out = np.mod(arr, 1.0)
    return np.where(out >= 1.0, 0.0, out)


# ---------------------------------------------------------------------------
# counting orbit points in translated circle sets


class OrbitCounter:
    """Vectorized counting of (multiset) circle points inside translated sets.

    Holds sorted distinct angles with multiplicities; ``count_in_translated``
    returns, for an array of translates x, how many points v satisfy
    v + x in K.  Endpoint decisions happen at binary64 granularity.
    """

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values = np.asarray(values, dtype=float)
        counts = np.asarray(counts, dtype=np.int64)
        self.cum = np.concatenate([[0], np.cumsum(counts)])
        self.total = int(self.cum[-1])

    @classmethod
    def from_sequence(cls, seq: OrbitSequence, N: int) -> "OrbitCounter":
        vals, cnts = seq.angle_support(N)
        return cls(vals, cnts)

    def _less(self, t: np.ndarray, strict: bool) -> np.ndarray:
        side = "left" if strict else "right"
        return self.cum[np.searchsorted(self.values, t, side=side)]

    def count_in_translated(self, K: IntervalSet, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.zeros(len(x), dtype=np.int64)
        for lo, hi in K.open_part:
            l = _mod1(float(lo) - x)
            h = _mod1(float(hi) - x)
            wraps = l > h
            if hi - lo > Fraction(1, 2):
                wraps = wraps | (l == h)  # a full-length arc shifts onto itself
            inside = self._less(h, strict=True) - self._less(l, strict=False)
            wrapped = (self.total - self._less(l, strict=False)) + self._less(h, strict=True)
            total += np.where(wraps, wrapped, np.maximum(inside, 0))
        for pt in K.point_part:
            t = _mod1(float(pt) - x)
            total += self._less(t, strict=False) - self._less(t, strict=True)
        return total

    def sup_candidates(self, K: IntervalSet, extra: Sequence[float] = ()) -> np.ndarray:
        """Translate values realizing every value of the piecewise-constant
        translated count: the event points, points just after them, and gap
        midpoints."""
        boundaries = {float(lo) % 1.0 for lo, _ in K.open_part}
        boundaries |= {float(hi) % 1.0 for _, hi in K.open_part}
        boundaries |= {float(p) for p in K.point_part}
        if not boundaries:
            base = np.array([0.0, 0.25, 0.5, 0.75])
        else:
            b = np.array(sorted(boundaries))
            events = np.unique(_mod1((b[:, None] - self.values[None, :]).reshape(-1)))
            after = _mod1(np.nextafter(events, 2.0))
            base = np.unique(np.concatenate([events, after]))
        if len(base) > 1:
            mids = (base[:-1] + base[1:]) / 2.0
            wrap_mid = ((base[-1] + base[0] + 1.0) / 2.0) % 1.0
            base = np.concatenate([base, mids, [wrap_mid]])
        if len(extra):
            base = np.concatenate([base, _mod1(np.asarray(extra, dtype=float))])
        return np.unique(base)


def product_counter(a: CircleElement, N: int) -> OrbitCounter:
    """Counter over the N-point product orbit x, x-a, ..., x-(N-1)a: the
    orbit terms 1..N-1 plus the point itself, with coinciding angles merged
    (torsion orbits return to 0)."""
    vals, cnts = OrbitSequence(CIRCLE, a).angle_support(N)
    vals, where = np.unique(np.concatenate([vals, [0.0]]), return_inverse=True)
    merged = np.zeros(len(vals), dtype=np.int64)
    np.add.at(merged, where, np.concatenate([cnts, [1]]).astype(np.int64))
    return OrbitCounter(vals, merged)


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
    group = seq.group
    if isinstance(group, CircleGroup):
        counter = OrbitCounter.from_sequence(seq, N)
        x = 0.0 if translate is None else float(translate.value)
        return int(counter.count_in_translated(K, np.array([x]))[0])
    if isinstance(group, PAdicContext):
        count = 0
        for res, mult in seq.residue_support(N):
            v = group.from_residue(res)
            pt = v if translate is None else v + translate
            if K.contains(pt):
                count += mult
        return count
    if isinstance(group, FiniteGroup):
        count = 0
        for idx, mult in seq.index_support(N):
            pt = idx if translate is None else group.mul(translate, idx)
            if K.contains(pt):
                count += mult
        return count
    raise TypeError(f"unsupported group {group!r}")


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


def sup_deviation(K, seq: OrbitSequence, N: int, x_samples: Sequence = ()) -> float:
    """sup over translates x of |translated density - measure(K)|.

    Exact (at binary64 granularity) on the circle via event points; exhaustive
    over the group for finite and p-adic contexts.  ``x_samples`` appends
    extra translates, e.g. a cross-check grid.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    group = seq.group
    mu = K.measure()
    if isinstance(group, CircleGroup):
        counter = OrbitCounter.from_sequence(seq, N)
        xs = counter.sup_candidates(K, [float(getattr(x, "value", x)) for x in x_samples])
        counts = counter.count_in_translated(K, xs)
        # |count/N - mu| is extremal at the extreme counts; finish in exact
        # rational arithmetic so trivial cases come out exact
        lo, hi = int(counts.min()), int(counts.max())
        return float(max(abs(Fraction(hi, N) - mu), abs(Fraction(lo, N) - mu)))
    if isinstance(group, PAdicContext):
        best = Fraction(0)
        for r in range(group.modulus):
            x = group.from_residue(r)
            best = max(best, abs(translated_density(K, x, seq, N) - mu))
        return float(best)
    if isinstance(group, FiniteGroup):
        best = Fraction(0)
        for x in group.elements():
            best = max(best, abs(translated_density(K, x, seq, N) - mu))
        return float(best)
    raise TypeError(f"unsupported group {group!r}")


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
