"""p-adic specifics: U/L ball tests, locally-constant detection and its
obstruction, the reduction to coset problems at level v_p(a)
(``qp_reduction``), the coset log-integrals, which are those problems'
exact log-sums, and the conjugation diagrams.

Everything here is exact: weights are rational coset tables, products are
sums of exponent vectors over the table's coprime base
(``weights.ExponentForm``), and every comparison against 1 is decided
exactly, by a filtered float log and integers when the filter cannot tell
(``weights.ProductRows.codes``, a byte per entry).  The only floats
produced are the final values of log integrals.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .borel import BallSet, ball
from .errors import ContextMismatch, InternalInconsistency, WindowExceeded
from .groups import PRECISION_CAP, PAdicContext, PAdicNumber
from .report import RULE_LOCALLY_CONSTANT, RULE_UL_EMPTY, RuleFiring
from .weights import (DiscretizedFunction, ExponentForm, PAdicTableWeight, ProductRows, apply_operator,
                      weight_product)

__all__ = [
    "ULWitness",
    "ul_sets",
    "ULRow",
    "ul_row",
    "ul_scan",
    "is_locally_constant",
    "locally_constant_obstruction",
    "CosetIntegral",
    "coset_log_integrals",
    "conjugate_translate",
    "translation_diagram_defect",
    "ConjugationTriple",
    "conjugate_scale",
    "multiplication_diagram_defect",
    "CosetProblem",
    "qp_reduction",
]


@functools.lru_cache(maxsize=1024)
def _p_power(p: int, j: int) -> Fraction:
    return Fraction(1, p ** j) if j >= 0 else Fraction(p ** (-j))


def _orbit_radius_exp(a: PAdicNumber, n: int) -> int:
    """Ball level v_p(n a), capped at the context precision when n a vanishes
    at working precision."""
    na = a.scalar_mul(n)
    v = na.valuation()
    return a.context.precision if v is PRECISION_CAP else v


# a byte per ball representative: the n-step product there is below, equal
# to or above 1
_BELOW, _EQUAL, _ABOVE = 0, 1, 2
_IS_ABOVE = bytes.maketrans(b"\0\1\2", b"\0\0\1")
_IS_BELOW = bytes.maketrans(b"\0\1\2", b"\1\0\0")
_FLIP = bytes.maketrans(b"\0\1\2", b"\2\1\0")


@dataclass(frozen=True)
class ULWitness:
    """The U/L test at one (n, x'): which residues of the ball around x' of
    radius |n a|_p carry an n-step product above / below 1.

    ``residues`` are the ball's representatives and ``signs`` holds one byte
    per representative (below, equal to or above 1), so a witness costs a
    byte per residue however many are kept."""

    n: int
    x_prime: int
    radius_exp: int
    radius: Fraction
    level: int  # residues are cosets of p^level Z_p
    residues: range
    signs: bytes

    @property
    def u_witnesses(self) -> tuple[int, ...]:
        return tuple(itertools.compress(self.residues, self.signs.translate(_IS_ABOVE)))

    @property
    def l_witnesses(self) -> tuple[int, ...]:
        return tuple(itertools.compress(self.residues, self.signs.translate(_IS_BELOW)))

    @property
    def u_nonempty(self) -> bool:
        return _ABOVE in self.signs

    @property
    def l_nonempty(self) -> bool:
        return _BELOW in self.signs


def _ul_witness(w: PAdicTableWeight, a: PAdicNumber, n: int, j: int, x_prime: int, codes: bytes) -> ULWitness:
    """U and L inside the ball of radius |n a|_p = p^-j around the residue
    x_prime, read from ``codes``, the byte of each |n|-step product by table
    residue (a row's slice of ``ProductRows.codes``; only the ball's entries
    are read).
    Negative n uses the inverse-operator convention
    w_{-k}(x) = 1 / w_k(x + k a)."""
    ctx = w.context
    level = max(j, w.level)
    p, m = ctx.prime, ctx.window
    size = len(codes)
    step = p ** (j + m)
    reps = range(x_prime % step, p ** (level + m), step)
    if n > 0:
        # the ball's residues past the table's are one representative
        signs = codes[reps.start % size::step]
    else:
        offset = -n * a.residue
        signs = bytes(codes[(r + offset) % size] for r in reps).translate(_FLIP)
    return ULWitness(
        n=n,
        x_prime=x_prime,
        radius_exp=j,
        radius=_p_power(p, j),
        level=level,
        residues=reps,
        signs=signs,
    )


def _ball_row(w: PAdicTableWeight, a: PAdicNumber, n: int, center: int) -> ProductRows:
    """The n-step products (n >= 1) on the ball of radius |n a|_p around the
    residue ``center``, as a one-row ``ProductRows`` by table residue whose
    exponent vectors off the ball are 0, by composing rows instead of
    stepping through all n of them.

    With n = q p^e and q prime to p: row p^(i+1) on the ball of radius
    |p^(i+1) a|_p is the sum of p exponent vectors of row p^i on the ball of
    radius |p^i a|_p, row_{p^(i+1)}[r] = sum_{t<p} row_{p^i}[r - t p^i a],
    and row n is likewise a sum of q vectors of row p^e.  Each ball is p
    times smaller than the one before until it is one residue, so the work
    is about 2 size + e p + q |ball| vector sums."""
    if a.context != w.context:
        raise ContextMismatch(f"{a.context.name} vs {w.context.name}")
    ctx = w.context
    m, size = ctx.window, len(w.table)
    digits = w.level + m  # size = p^digits
    e, q = 0, n
    while q % ctx.prime == 0:
        e, q = e + 1, q // ctx.prime

    def ball(i):
        # the residues mod size of the ball of radius |p^i a|_p around center
        step = ctx.prime ** min(_orbit_radius_exp(a, ctx.prime ** i) + m, digits)
        return np.arange(center % size, center % size + size, step) % size

    def fold(row, shift, times, residues):
        out = np.zeros_like(row)
        out[residues] = row[(residues[:, None] - np.arange(times) * shift) % size].sum(axis=1)
        return out

    E, first = w.form.exponents, ball(0)
    row = np.zeros_like(E)
    row[first] = E[first]
    for i in range(e):
        row = fold(row, ctx.prime ** i * a.residue, ctx.prime, ball(i + 1))
    row = fold(row, ctx.prime ** e * a.residue, q, ball(e))
    return ProductRows(w.form, row, n - 1, np.array([0, len(row)]))


def _ball_test(w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: int) -> tuple[ULWitness, ProductRows]:
    """The U/L test around the residue x_prime at n != 0, from the |n|-step
    products on its ball (``_ball_row``), with that row."""
    row = _ball_row(w, a, abs(n), x_prime + (0 if n > 0 else -n * a.residue))
    return _ul_witness(w, a, n, _orbit_radius_exp(a, n), x_prime, row.codes), row


def ul_sets(w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: PAdicNumber | int = 0) -> ULWitness:
    """Exact enumeration of U and L inside the ball of radius |n a|_p.

    A hypercyclic operator requires both nonempty for every n != 0 and every
    center; the returned witnesses satisfy the strict inequalities exactly.
    """
    if n == 0:
        raise ValueError("need n != 0")
    if not isinstance(x_prime, PAdicNumber):
        x_prime = w.context.element(x_prime)
    return _ball_test(w, a, n, x_prime.residue)[0]


@dataclass(frozen=True)
class ULRow:
    """What the U/L readers take from one n-step row: the test around
    x' = 0 (a row of ``ul_witness.csv``) and ``ul_scan``'s firing at n, the
    first ball with an empty U or L, or None."""

    origin: ULWitness
    empty: RuleFiring | None


def ul_row(w: PAdicTableWeight, a: PAdicNumber, n: int, codes: bytes) -> ULRow:
    """The ``ULRow`` of row n of ``step_products``, read from ``codes``, its
    slice of the block's ``ProductRows.codes``: a byte per table residue, as
    the n-step product there is below, at or above 1.

    For weights declared non-locally-constant only balls strictly coarser
    than the table level are meaningful (inside one table coset the stored
    values cannot resolve the true variation), so finer balls are skipped.
    """
    ctx = w.context
    j = _orbit_radius_exp(a, n)
    empty = None
    if w.declared_locally_constant or j < w.level:
        step = ctx.prime ** (j + ctx.window)
        # ball b holds codes[b::step]; past the table level a ball is one entry
        b = next((b for b in range(step)
                  if _BELOW not in codes[b::step] or _ABOVE not in codes[b::step]), None)
        if b is not None:
            witness = _ul_witness(w, a, n, j, b, codes)
            empty = RuleFiring(
                RULE_UL_EMPTY,
                {"n": n, "x_prime": b, "empty_side": "L" if witness.u_nonempty else "U"},
                {
                    "radius": witness.radius,
                    "u_witnesses": witness.u_witnesses[:4],
                    "l_witnesses": witness.l_witnesses[:4],
                },
            )
    return ULRow(_ul_witness(w, a, n, j, 0, codes), empty)


def is_locally_constant(w: PAdicTableWeight) -> int | None:
    """Smallest k with the table constant on every coset of p^k Z_p, by exact
    table inspection; None for weights declared to merely truncate a
    non-locally-constant function."""
    if not w.declared_locally_constant:
        return None
    return w.constant_level()


def locally_constant_obstruction(w: PAdicTableWeight, a: PAdicNumber) -> RuleFiring | None:
    """For a k-level locally constant weight the p^k-step product is constant
    on the ball of radius |p^k a|_p, so U or L there must be empty; that
    violates the ball test and fires.  Returns None for weights declared
    non-locally-constant; raises InternalInconsistency if neither set is
    empty (an arithmetic bug, used as a self-test)."""
    k = is_locally_constant(w)
    if k is None:
        return None
    n = w.context.prime ** k
    witness, row = _ball_test(w, a, n, 0)
    if witness.u_nonempty and witness.l_nonempty:
        raise InternalInconsistency(
            "p^k-step product of a k-level weight varies on the test ball"
        )
    return RuleFiring(
        RULE_LOCALLY_CONSTANT,
        {"k": k, "n": n},
        {
            "constant_value": w.form.value(row.exponents[0]),
            "radius": witness.radius,
            "u_nonempty": witness.u_nonempty,
            "l_nonempty": witness.l_nonempty,
        },
    )


def ul_scan(walk) -> RuleFiring | None:
    """Scan n = 1..``walk.ul_n_max`` and every ball of radius |n a|_p for an
    empty U or L, reading the ``ULRow``s of ``walk``, an
    ``hctest.ProductWalk``; the first firing wins."""
    rows = itertools.islice(walk.ul_rows(), walk.ul_n_max)
    return next((row.empty for row in rows if row.empty is not None), None)


# ---------------------------------------------------------------------------
# coset log integrals


@dataclass(frozen=True)
class CosetIntegral:
    """ln-integral of the weight over one coset b + p^k Z_p.

    ``value`` renormalizes the coset to mass 1 (the scale at which each
    coset is itself a full integer ring); ``global_share`` is the same
    quantity weighted by the coset's Haar mass, so the shares sum to the
    full log integral.  The zero test is exact: the product of the table
    values over the coset is 1, its exponent vector ``exponents`` over the
    table's base is 0.
    """

    coset: BallSet
    exponents: tuple[int, ...]
    value: float
    global_share: float
    form: ExponentForm = field(repr=False, compare=False)

    @property
    def product(self) -> Fraction:
        return self.form.value(self.exponents)

    @property
    def is_zero(self) -> bool:
        return not any(self.exponents)


def coset_log_integrals(problems: list[CosetProblem]) -> list[CosetIntegral]:
    """Per-coset ln-integrals at the coset level k = v_p(a), one per coset
    problem of ``qp_reduction``: with (D, s) the ``ExponentForm.log_sum`` of
    the problem's weight, ``value`` is its ``log_value(D, s)`` and
    ``global_share`` the same sum over D times the number of cosets."""
    out = []
    for prob in problems:
        form = prob.weight.form
        D, s = form.log_sum()
        out.append(CosetIntegral(prob.coset, tuple(s), form.log_value(D, s),
                                 form.log_value(D * len(problems), s), form))
    return out


# ---------------------------------------------------------------------------
# conjugation diagrams


def _translate_function(f: DiscretizedFunction, shift: PAdicNumber) -> DiscretizedFunction:
    """T_{-shift} on a discretized function: x -> f(x + shift)."""
    ctx = f.domain
    n = ctx.modulus
    return DiscretizedFunction(
        ctx, tuple(f.values[(r + shift.residue) % n] for r in range(n))
    )


def conjugate_translate(w: PAdicTableWeight, a: PAdicNumber, x_prime: PAdicNumber):
    """Translation conjugation: the same element with the shifted weight."""
    return a, w.translate(x_prime)


def translation_diagram_defect(w: PAdicTableWeight, a: PAdicNumber, x_prime: PAdicNumber) -> Fraction:
    """Exact defect of T_{-x'} T_{a,w} = T_{a, T_{-x'} w} T_{-x'} over the
    finest-ball indicator basis; zero when the diagram commutes."""
    ctx = w.context
    shifted = w.translate(x_prime)
    worst = Fraction(0)
    for r in range(ctx.modulus):
        f = DiscretizedFunction.delta(ctx, r)
        lhs = _translate_function(apply_operator(w, a, f), x_prime)
        rhs = apply_operator(shifted, a, _translate_function(f, x_prime))
        worst = max(worst, lhs.sup_diff(rhs))
    return worst


@dataclass(frozen=True)
class ConjugationTriple:
    """The scale reduction: a^(n) = n a / p^v with v = v_p(n a) a unit, and
    w^(n)(y) = w_n(p^v y + x'), acting at precision reduced by v."""

    element: PAdicNumber
    weight: PAdicTableWeight
    x_prime: PAdicNumber
    n: int
    scale_exponent: int
    reduced_context: PAdicContext
    reduced_element: PAdicNumber
    reduced_weight: PAdicTableWeight

    def scale_map(self, f: DiscretizedFunction) -> DiscretizedFunction:
        """M_{p^v}: (M f)(y) = f(p^v y), original functions to reduced ones."""
        ctx, red = self.weight.context, self.reduced_context
        p = ctx.prime
        factor = p ** (self.scale_exponent + ctx.window)
        vals = tuple(
            f.values[(factor * s) % ctx.modulus] for s in range(red.modulus)
        )
        return DiscretizedFunction(red, vals)

    def commutation_defect(self) -> Fraction:
        """Exact defect of M T_{a, T_{-x'}w}^n = T_{a^(n), w^(n)} M over the
        finest-ball indicator basis."""
        ctx = self.weight.context
        shifted = self.weight.translate(self.x_prime)
        worst = Fraction(0)
        for r in range(ctx.modulus):
            f = DiscretizedFunction.delta(ctx, r)
            powered = f
            for _ in range(self.n):
                powered = apply_operator(shifted, self.element, powered)
            lhs = self.scale_map(powered)
            rhs = apply_operator(self.reduced_weight, self.reduced_element, self.scale_map(f))
            worst = max(worst, lhs.sup_diff(rhs))
        return worst


def conjugate_scale(
    w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: PAdicNumber | int = 0
) -> ConjugationTriple:
    """Build the reduced operator data for the scale diagram."""
    if n == 0:
        raise ValueError("need n != 0")
    ctx = w.context
    if ctx.window != 0:
        raise WindowExceeded("the scale diagram is supported on window-0 contexts")
    if not isinstance(x_prime, PAdicNumber):
        x_prime = ctx.element(x_prime)
    na = a.scalar_mul(n)
    v = na.valuation()
    if v is PRECISION_CAP:
        raise WindowExceeded("n a vanishes at working precision; no unit reduction")
    reduced_element = na.exact_divide_p_power(v)
    red_ctx = reduced_element.context
    level_red = min(max(w.level - v, 0), red_ctx.precision)
    p = ctx.prime
    table = {}
    for s in range(p ** level_red):
        x_res = (p ** v * s + x_prime.residue) % ctx.modulus
        table[s] = weight_product(w, a, n, ctx.from_residue(x_res))
    reduced_weight = PAdicTableWeight(red_ctx, level_red, table, w.declared_locally_constant)
    return ConjugationTriple(
        element=a,
        weight=w,
        x_prime=x_prime,
        n=n,
        scale_exponent=v,
        reduced_context=red_ctx,
        reduced_element=reduced_element,
        reduced_weight=reduced_weight,
    )


def multiplication_weight(w: PAdicTableWeight, a: PAdicNumber) -> PAdicTableWeight:
    """(M_a w)(x) = w(a x) on an integer-ring context with v_p(a) >= 0."""
    ctx = w.context
    if ctx.window != 0:
        raise WindowExceeded("multiplication conjugation is supported on window-0 contexts")
    v = a.valuation()
    if v is PRECISION_CAP or v < 0:
        raise WindowExceeded("need v_p(a) >= 0")
    # w(ax) is constant once a x stays in one level-l coset, i.e. at level l - v
    level = min(max(w.level - v, 0), ctx.precision)
    p = ctx.prime
    table = {
        s: w.rational_at(ctx.from_residue((a.residue * s) % ctx.modulus))
        for s in range(p ** level)
    }
    return PAdicTableWeight(ctx, level, table, w.declared_locally_constant)


def multiplication_diagram_defect(w: PAdicTableWeight, a: PAdicNumber) -> Fraction:
    """Exact defect of M_a T_{a,w} = T_{1, M_a w} M_a over the indicator
    basis (integer-ring contexts)."""
    ctx = w.context
    maw = multiplication_weight(w, a)
    one = ctx.element(1)

    def m_a(f: DiscretizedFunction) -> DiscretizedFunction:
        return DiscretizedFunction(
            ctx, tuple(f.values[(a.residue * s) % ctx.modulus] for s in range(ctx.modulus))
        )

    worst = Fraction(0)
    for r in range(ctx.modulus):
        f = DiscretizedFunction.delta(ctx, r)
        lhs = m_a(apply_operator(w, a, f))
        rhs = apply_operator(maw, one, m_a(f))
        worst = max(worst, lhs.sup_diff(rhs))
    return worst


# ---------------------------------------------------------------------------
# windowed-field reduction to integer-ring problems


@dataclass(frozen=True)
class CosetProblem:
    """One restricted problem of the windowed reduction: the operator on the
    coset b + p^k Z_p rescaled to an integer-ring context."""

    coset: BallSet
    context: PAdicContext
    element: PAdicNumber
    weight: PAdicTableWeight


def qp_reduction(w: PAdicTableWeight, a: PAdicNumber) -> list[CosetProblem]:
    """Split a problem into the family of coset problems at level
    k = v_p(a); the translation fixes each coset of p^k Z_p, and each
    restriction rescales to an ordinary integer-ring problem.  The verdict
    decides a windowed problem by them, and ``coset_log_integrals`` reads
    them on every context."""
    ctx = w.context
    v = a.valuation()
    if v is PRECISION_CAP:
        raise WindowExceeded("translation element vanishes at working precision")
    k = v
    if ctx.precision - k < 1:
        raise WindowExceeded("coset level leaves no significant digits")
    p, m = ctx.prime, ctx.window
    sub_ctx = PAdicContext(p, ctx.precision - k, 0)
    sub_a = sub_ctx.from_residue(a.residue // p ** (k + m))
    level_sub = min(max(w.level - k, 0), sub_ctx.precision)
    problems = []
    for b in range(p ** (k + m)):
        keys = [(p ** (k + m) * s + b) % ctx.modulus % len(w.table) for s in range(p ** level_sub)]
        problems.append(
            CosetProblem(
                coset=ball(ctx, ctx.from_residue(b), k),
                context=sub_ctx,
                element=sub_a,
                weight=w.restricted(sub_ctx, level_sub, keys),
            )
        )
    return problems
