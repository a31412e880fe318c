"""Group contexts: finite Cayley-table groups, the circle, and truncated p-adics.

Conventions shared by every context:

* the group operation is multiplicative for finite groups and additive for
  the circle and the p-adic families;
* Haar measure is normalized to total mass 1;
* values are immutable and all operations are pure, so everything here is
  safe to share across threads.

Circle angles are held as exact ``Fraction`` values (binary64 inputs embed
exactly), with a separate ``declared_rational`` flag: torsion detection uses
the flag, never float pattern matching.  p-adic numbers are truncated to a
fixed resolution chosen at context creation and all arithmetic is exact on
the stored residue.

Finite groups and p-adic contexts are enumerable and share one surface:
``elements()``, ``len``, ``index`` (an element's position in ``elements()``),
``mul``, ``inv``, ``power`` and ``element_order``; a p-adic context writes
them additively (``+``, negation, ``scalar_mul``).  Whatever exhausts a
group -- ``OrbitSequence.residue_support`` and ``equidist.sup_deviation``
-- is one path over that surface.  ``equidist`` exhausts the coarsest
context that resolves the set it counts (``BallSet.resolved``): a ball set
of finest level j reads only residues mod p^(j + window), so its counts run
on ``PAdicContext(p, max(1, j), window)``, whose elements are reached from
the spec's context by ``from_residue``; a finite group resolves to itself.  The circle has
``mul``, ``inv`` and ``power`` only; its orbits are integer residues
(``OrbitSequence.angle_support``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ContextMismatch, WindowExceeded

__all__ = [
    "FiniteGroup",
    "cyclic",
    "direct_product",
    "symmetric_3",
    "dihedral_4",
    "quaternion_8",
    "alternating_4",
    "klein_four",
    "catalog",
    "CircleGroup",
    "CIRCLE",
    "CircleElement",
    "PAdicContext",
    "PAdicNumber",
    "PRECISION_CAP",
    "OrbitSequence",
    "MAX_ORBIT_DENOMINATOR",
    "MAX_CIRCLE_HORIZON",
]


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup:
    """A finite group given by an explicit Cayley table on indices 0..n-1.

    The constructor validates the table: it must be a Latin square with a
    two-sided identity and consistent inverses, and associativity is checked
    exhaustively for orders up to 64.
    """

    def __init__(self, cayley: Sequence[Sequence[int]], name: str = "G"):
        self.cayley = tuple(tuple(int(v) for v in row) for row in cayley)
        self.order = len(self.cayley)
        self.name = name
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self._validate()

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.cayley[e][x] == x and self.cayley[x][e] == x for x in range(n)):
                return e
        raise ValueError(f"table for {self.name!r} has no identity")

    def _find_inverses(self) -> tuple[int, ...]:
        n, e = self.order, self.identity
        inv = []
        for x in range(n):
            try:
                inv.append(self.cayley[x].index(e))
            except ValueError:
                raise ValueError(f"element {x} of {self.name!r} has no inverse") from None
        return tuple(inv)

    def _validate(self) -> None:
        n = self.order
        rng = range(n)
        for row in self.cayley:
            if len(row) != n or sorted(row) != list(rng):
                raise ValueError(f"table for {self.name!r} is not a Latin square")
        for j in rng:
            col = sorted(self.cayley[i][j] for i in rng)
            if col != list(rng):
                raise ValueError(f"table for {self.name!r} is not a Latin square")
        for x in rng:
            if self.cayley[x][self.inverses[x]] != self.identity:
                raise ValueError(f"inverses of {self.name!r} are inconsistent")
        if n <= 64:
            for a in rng:
                for b in rng:
                    ab = self.cayley[a][b]
                    for c in rng:
                        if self.cayley[ab][c] != self.cayley[a][self.cayley[b][c]]:
                            raise ValueError(f"table for {self.name!r} is not associative")

    # -- arithmetic --------------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def power(self, a: int, n: int) -> int:
        """a**n for any integer n, by repeated squaring."""
        if n < 0:
            return self.power(self.inverses[a], -n)
        acc, base = self.identity, a
        while n:
            if n & 1:
                acc = self.cayley[acc][base]
            base = self.cayley[base][base]
            n >>= 1
        return acc

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.cayley[x][a]
            n += 1
        return n

    def index(self, a: int) -> int:
        """Position of ``a`` in ``elements()``: the element itself."""
        return a

    def generates(self, a: int) -> bool:
        """True iff the cyclic subgroup generated by ``a`` is all of G."""
        return self.element_order(a) == self.order

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group Zn of order n, written additively on indices."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    pairs = [(a, b) for a in g.elements() for b in h.elements()]
    index = {p: i for i, p in enumerate(pairs)}
    table = [
        [index[(g.mul(a1, a2), h.mul(b1, b2))] for (a2, b2) in pairs]
        for (a1, b1) in pairs
    ]
    return FiniteGroup(table, name or f"{g.name}x{h.name}")


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    deg = len(perms[0])
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(deg))  # (p . q)(i) = p(q(i))
            row.append(index[comp])
        table.append(row)
    return FiniteGroup(table, name)


def symmetric_3() -> FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    return _perm_group(perms, "S3")


def alternating_4() -> FiniteGroup:
    def parity(p):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        return inv % 2

    perms = sorted(p for p in itertools.permutations(range(4)) if parity(p) == 0)
    return _perm_group(perms, "A4")


def dihedral_4() -> FiniteGroup:
    # elements r^a s^b with r^4 = s^2 = e and s r = r^-1 s
    elems = [(a, b) for b in range(2) for a in range(4)]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for (a1, b1) in elems:
        row = []
        for (a2, b2) in elems:
            a = (a1 + (a2 if b1 == 0 else -a2)) % 4
            row.append(index[(a, (b1 + b2) % 2)])
        table.append(row)
    return FiniteGroup(table, "D4")


def quaternion_8() -> FiniteGroup:
    # elements +-1, +-i, +-j, +-k encoded as (sign, axis)
    unit = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(s, u) for s in (1, -1) for u in range(4)]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for (s1, u1) in elems:
        row = []
        for (s2, u2) in elems:
            sgn, u = unit[(u1, u2)]
            row.append(index[(s1 * s2 * sgn, u)])
        table.append(row)
    return FiniteGroup(table, "Q8")


def klein_four() -> FiniteGroup:
    g = direct_product(cyclic(2), cyclic(2), "V4")
    return g


def catalog() -> dict[str, FiniteGroup]:
    """The built-in finite-group catalog (all orders <= 16).

    The groups are built once per process, on first use, and shared; each
    call returns a fresh dict of them."""
    return dict(_catalog_groups())


@functools.cache
def _catalog_groups() -> dict[str, FiniteGroup]:
    groups: dict[str, FiniteGroup] = {}
    for n in range(1, 17):
        g = cyclic(n)
        groups[g.name] = g
    groups["V4"] = klein_four()
    groups["S3"] = symmetric_3()
    groups["D4"] = dihedral_4()
    groups["Q8"] = quaternion_8()
    groups["A4"] = alternating_4()
    for parts in [(2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (3, 4)]:
        g = direct_product(cyclic(parts[0]), cyclic(parts[1]))
        groups[g.name] = g
    g = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2), "Z2xZ2xZ2")
    groups[g.name] = g
    return groups


# ---------------------------------------------------------------------------
# the circle


@dataclass(frozen=True)
class CircleElement:
    """An angle in [0, 1), held exactly as a Fraction.

    ``declared_rational`` marks elements built through the exact-rational
    constructor; only those are treated as torsion.  Floats embed exactly
    (every binary64 is rational) but stay flagged non-torsion.
    """

    value: Fraction
    declared_rational: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % 1)

    def __add__(self, other: "CircleElement") -> "CircleElement":
        return CircleElement(
            (self.value + other.value) % 1,
            self.declared_rational and other.declared_rational,
        )

    def __neg__(self) -> "CircleElement":
        return CircleElement((-self.value) % 1, self.declared_rational)

    def __sub__(self, other: "CircleElement") -> "CircleElement":
        return self + (-other)


class CircleGroup:
    """The circle written additively as [0, 1) with Lebesgue-Haar measure."""

    name = "circle"

    def element(self, x) -> CircleElement:
        """Build an element; strings and Fractions declare rationality."""
        if isinstance(x, CircleElement):
            return x
        if isinstance(x, (str, Fraction, int)):
            return CircleElement(Fraction(x) % 1, True)
        if isinstance(x, float):
            return CircleElement(Fraction(x) % 1, False)
        raise TypeError(f"cannot build circle element from {type(x)}")

    def rational(self, num, den=None) -> CircleElement:
        frac = Fraction(num) if den is None else Fraction(num, den)
        return CircleElement(frac % 1, True)

    def from_float(self, x: float) -> CircleElement:
        return CircleElement(Fraction(x) % 1, False)

    @property
    def zero(self) -> CircleElement:
        return CircleElement(Fraction(0), True)

    def mul(self, x: CircleElement, y: CircleElement) -> CircleElement:
        return x + y

    def inv(self, x: CircleElement) -> CircleElement:
        return -x

    def power(self, a: CircleElement, n: int) -> CircleElement:
        # exact, so the double-and-add ladder and n-fold addition agree
        return CircleElement((n * a.value) % 1, a.declared_rational)

    def __repr__(self):
        return "CircleGroup()"


CIRCLE = CircleGroup()


# ---------------------------------------------------------------------------
# truncated p-adic contexts


class _PrecisionCap:
    """Valuation of a value indistinguishable from 0 at the working precision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PRECISION_CAP"


PRECISION_CAP = _PrecisionCap()


@dataclass(frozen=True)
class PAdicContext:
    """A truncated p-adic group.

    ``window = 0`` models the p-adic integers; ``window = m > 0`` models the
    finite slice of the p-adic field whose elements have valuation >= -m.
    Elements carry digits for exponents -window .. precision-1, i.e. the
    stored residue is ``p**window * x  mod  p**(precision+window)``, and all
    arithmetic is exact on that residue.
    """

    prime: int
    precision: int
    window: int = 0

    def __post_init__(self):
        if self.prime < 2:
            raise ValueError("prime must be >= 2")
        if self.precision < 1 or self.window < 0:
            raise ValueError("need precision >= 1 and window >= 0")

    @property
    def digit_count(self) -> int:
        return self.precision + self.window

    @functools.cached_property
    def modulus(self) -> int:
        return self.prime ** self.digit_count

    @property
    def name(self) -> str:
        if self.window:
            return f"Q{self.prime}(K={self.precision},m={self.window})"
        return f"Z{self.prime}(K={self.precision})"

    def from_residue(self, residue: int) -> "PAdicNumber":
        return PAdicNumber(self, residue % self.modulus)

    def element(self, value) -> "PAdicNumber":
        """Embed an integer or rational exactly; the denominator must be a
        power of p no larger than the window allows."""
        frac = Fraction(value) if not isinstance(value, Fraction) else value
        den = frac.denominator
        scale = self.prime ** self.window
        if scale % den != 0:
            raise WindowExceeded(
                f"{frac} has denominator {den}, outside the window of {self.name}"
            )
        return self.from_residue(frac.numerator * (scale // den))

    def from_digits(self, digits: Sequence[int]) -> "PAdicNumber":
        """Digits run from exponent -window upward, little-endian."""
        if len(digits) > self.digit_count:
            raise ValueError("too many digits for this context")
        res = 0
        for i, d in enumerate(digits):
            if not 0 <= d < self.prime:
                raise ValueError(f"digit {d} out of range for p={self.prime}")
            res += d * self.prime ** i
        return self.from_residue(res)

    def elements(self) -> Iterator["PAdicNumber"]:
        for r in range(self.modulus):
            yield PAdicNumber(self, r)

    # -- the enumerable-group surface, written additively -------------------

    def mul(self, x: "PAdicNumber", y: "PAdicNumber") -> "PAdicNumber":
        return x + y

    def inv(self, x: "PAdicNumber") -> "PAdicNumber":
        return -x

    def power(self, x: "PAdicNumber", n: int) -> "PAdicNumber":
        return x.scalar_mul(n)

    def element_order(self, x: "PAdicNumber") -> int:
        return self.modulus // math.gcd(x.residue, self.modulus)

    def index(self, x: "PAdicNumber") -> int:
        """Position of ``x`` in ``elements()``: its stored residue."""
        return x.residue

    def __len__(self) -> int:
        return self.modulus


@dataclass(frozen=True)
class PAdicNumber:
    context: PAdicContext
    residue: int

    def _check(self, other: "PAdicNumber") -> None:
        if self.context is not other.context and self.context != other.context:
            raise ContextMismatch(f"{self.context.name} vs {other.context.name}")

    def digits(self) -> tuple[int, ...]:
        res, p = self.residue, self.context.prime
        out = []
        for _ in range(self.context.digit_count):
            res, d = divmod(res, p)
            out.append(d)
        return tuple(out)

    def __add__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check(other)
        return PAdicNumber(self.context, (self.residue + other.residue) % self.context.modulus)

    def __sub__(self, other: "PAdicNumber") -> "PAdicNumber":
        self._check(other)
        return PAdicNumber(self.context, (self.residue - other.residue) % self.context.modulus)

    def __neg__(self) -> "PAdicNumber":
        return PAdicNumber(self.context, (-self.residue) % self.context.modulus)

    def scalar_mul(self, k: int) -> "PAdicNumber":
        return PAdicNumber(self.context, (k * self.residue) % self.context.modulus)

    def valuation(self):
        """Exponent of the lowest nonzero digit, offset by the window;
        PRECISION_CAP when every stored digit is 0."""
        if self.residue == 0:
            return PRECISION_CAP
        v = 0
        res, p = self.residue, self.context.prime
        while res % p == 0:
            res //= p
            v += 1
        return v - self.context.window

    def is_zero(self) -> bool:
        return self.residue == 0

    def __repr__(self):
        return f"PAdic({self.context.name}, digits={self.digits()})"


# ---------------------------------------------------------------------------
# orbit sequences


# the largest angle denominator D a circle orbit may have: its points are
# integer residues mod D, held in uint64
MAX_ORBIT_DENOMINATOR = 2 ** 64
# the largest horizon N a circle orbit statistic may run to: its terms are
# held as arrays of up to N residues
MAX_CIRCLE_HORIZON = 10 ** 7


def orbit_denominator(D: int) -> int:
    """D, the denominator of an exact circle angle, when every circle
    statistic can hold its residues mod D in uint64; a ValueError otherwise."""
    if D > MAX_ORBIT_DENOMINATOR:
        raise ValueError(f"angle denominator exceeds 2^{MAX_ORBIT_DENOMINATOR.bit_length() - 1}")
    return D


def _multiples_mod(m: int, D: int, first: int, count: int) -> np.ndarray:
    """k*m mod D for k = first .. first+count-1, exactly, as uint64."""
    if D & (D - 1) == 0:
        # uint64 arithmetic wraps mod 2^64, so it reduces mod every power of two
        ks = np.arange(first, first + count, dtype=np.uint64)
        return (ks * np.uint64(m)) & np.uint64(D - 1)
    # D < 2^64 here; double the run: the multiples for j < 2L are those for
    # j < L and those plus L*m
    out = np.array([first * m % D], dtype=np.uint64)
    bound = np.uint64(D)
    while len(out) < count:
        shift = np.uint64(len(out) * m % D)
        moved = out + shift
        # a sum past 2^64 wrapped; subtracting D in uint64 corrects it too
        out = np.concatenate([out, np.where((moved < out) | (moved >= bound), moved - bound, moved)])
    return out[:count]


@dataclass(frozen=True)
class OrbitSequence:
    """The sequence ``a**-k`` for k = 1, 2, ... (additively, ``-k*a``).
    Statistics over it always run over k = 1 .. N-1."""

    group: object
    element: object

    def term(self, k: int):
        return self.group.power(self.element, -k)

    # -- compressed supports over k = 1 .. N-1 ------------------------------

    def angle_terms(self, N: int, first: int = 1) -> np.ndarray:
        """Integer residues V of the circle terms first..N-1, in term order
        and at most one period: the point of term first + j is V[j % len(V)]
        / D, where D is the denominator of the rotation's exact angle (a power
        of two for a binary64 angle), since the orbit has period D.  The
        residues k*m mod D are exact in uint64, which bounds D by
        ``MAX_ORBIT_DENOMINATOR``."""
        if not isinstance(self.group, CircleGroup):
            raise TypeError("angle_terms is circle-only")
        if N > MAX_CIRCLE_HORIZON:
            raise ValueError(f"circle horizons are capped at {MAX_CIRCLE_HORIZON}")
        step = (-self.element.value) % 1
        m, D = step.numerator, orbit_denominator(step.denominator)
        return _multiples_mod(m, D, first, min(max(N - first, 0), D))

    def angle_support(self, N: int, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Distinct circle points of terms first..N-1 with multiplicities, as
        integer residues V/D (``angle_terms``) sorted ascending.  Residues
        of one period are distinct, so no sort need be stable."""
        residues = self.angle_terms(N, first)
        distinct = len(residues)
        counts = (N - first - 1 - np.arange(distinct, dtype=np.int64)) // distinct + 1
        if not distinct or counts[0] == counts[-1]:
            return np.sort(residues), counts
        order = np.argsort(residues)
        return residues[order], counts[order]

    def residue_support(self, N: int) -> list[tuple[object, int]]:
        """Distinct terms 1..N-1 of a finite-group or p-adic orbit with their
        multiplicities, as (element, multiplicity) in order of first
        appearance: the orbit has period ``element_order(a**-1)``."""
        if isinstance(self.group, CircleGroup):
            raise TypeError("residue_support needs an enumerable group; the circle has angle_support")
        g = self.group
        count = N - 1
        step = g.inv(self.element)
        period = g.element_order(step)
        out, x = [], step
        for r in range(1, min(period, count) + 1):
            out.append((x, (count - r) // period + 1))
            x = g.mul(x, step)
        return out
