"""p-adic specifics: U/L ball tests, locally-constant detection and its
obstruction, coset log-integrals, and the conjugation/reduction diagrams.

Everything here is exact: weights are rational coset tables, products are
Fraction arithmetic, and all comparisons against 1 are decided without
floats.  The only floats produced are the final values of log integrals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .borel import BallSet, ball
from .errors import InternalInconsistency, WindowExceeded
from .groups import PRECISION_CAP, PAdicContext, PAdicNumber
from .report import RULE_LOCALLY_CONSTANT, RULE_UL_EMPTY, RuleFiring
from .weights import DiscretizedFunction, PAdicTableWeight, apply_operator, step_products, weight_product

__all__ = [
    "valuation",
    "padic_ball",
    "ULWitness",
    "ul_sets",
    "ul_trace",
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


def valuation(x: PAdicNumber):
    """Index of the lowest nonzero stored digit (window-offset), or
    PRECISION_CAP when the value vanishes at working precision."""
    return x.valuation()


def padic_ball(context: PAdicContext, center, radius_exp: int) -> BallSet:
    return ball(context, center, radius_exp)


def _p_power(p: int, j: int) -> Fraction:
    return Fraction(1, p ** j) if j >= 0 else Fraction(p ** (-j))


def _orbit_radius_exp(a: PAdicNumber, n: int) -> int:
    """Ball level v_p(n a), capped at the context precision when n a vanishes
    at working precision."""
    na = a.scalar_mul(n)
    v = na.valuation()
    return a.context.precision if v is PRECISION_CAP else v


@dataclass(frozen=True)
class ULWitness:
    """The U/L test at one (n, x'): which residues of the ball around x' of
    radius |n a|_p carry an n-step product above / below 1."""

    n: int
    x_prime: int
    radius_exp: int
    radius: Fraction
    level: int  # residues are cosets of p^level Z_p
    u_witnesses: tuple[int, ...]
    l_witnesses: tuple[int, ...]

    @property
    def u_nonempty(self) -> bool:
        return bool(self.u_witnesses)

    @property
    def l_nonempty(self) -> bool:
        return bool(self.l_witnesses)


def _ul_witness(w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: int, row: list) -> ULWitness:
    """U and L inside the ball of radius |n a|_p around the residue x_prime,
    read from ``row``, the |n|-step products of ``step_products``.  Negative
    n uses the inverse-operator convention w_{-k}(x) = 1 / w_k(x + k a)."""
    ctx = w.context
    j = _orbit_radius_exp(a, n)
    level = max(j, w.level)
    p, m = ctx.prime, ctx.window
    size = len(row)
    offset = 0 if n > 0 else -n * a.residue
    step = p ** (j + m)
    base = x_prime % step
    u_list, l_list = [], []
    for t in range(p ** (level - j)):
        rep = base + t * step
        value = row[(rep + offset) % size]
        if n < 0:
            value = 1 / value
        if value > 1:
            u_list.append(rep)
        elif value < 1:
            l_list.append(rep)
    return ULWitness(
        n=n,
        x_prime=x_prime,
        radius_exp=j,
        radius=_p_power(p, j),
        level=level,
        u_witnesses=tuple(u_list),
        l_witnesses=tuple(l_list),
    )


def _row(w: PAdicTableWeight, a: PAdicNumber, n: int) -> list:
    """The n-step product row, n >= 1."""
    return next(itertools.islice(step_products(w, a), n - 1, None))


def ul_sets(w: PAdicTableWeight, a: PAdicNumber, n: int, x_prime: PAdicNumber | int = 0) -> ULWitness:
    """Exact enumeration of U and L inside the ball of radius |n a|_p.

    A hypercyclic operator requires both nonempty for every n != 0 and every
    center; the returned witnesses satisfy the strict inequalities exactly.
    """
    if n == 0:
        raise ValueError("need n != 0")
    if not isinstance(x_prime, PAdicNumber):
        x_prime = w.context.element(x_prime)
    return _ul_witness(w, a, n, x_prime.residue, _row(w, a, abs(n)))


def ul_trace(w: PAdicTableWeight, a: PAdicNumber, n_max: int) -> Iterator[ULWitness]:
    """``ul_sets`` around 0 for n = 1..n_max, from one pass of
    ``step_products``."""
    for n, row in zip(range(1, n_max + 1), step_products(w, a)):
        yield _ul_witness(w, a, n, 0, row)


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
    row = _row(w, a, n)
    witness = _ul_witness(w, a, n, 0, row)
    if witness.u_nonempty and witness.l_nonempty:
        raise InternalInconsistency(
            "p^k-step product of a k-level weight varies on the test ball"
        )
    constant = row[0]
    return RuleFiring(
        RULE_LOCALLY_CONSTANT,
        {"k": k, "n": n},
        {
            "constant_value": constant,
            "radius": witness.radius,
            "u_nonempty": witness.u_nonempty,
            "l_nonempty": witness.l_nonempty,
        },
    )


def ul_scan(w: PAdicTableWeight, a: PAdicNumber, n_max: int) -> RuleFiring | None:
    """Scan n = 1..n_max and every ball of radius |n a|_p for an empty U or L.

    For weights declared non-locally-constant only balls strictly coarser
    than the table level are meaningful (inside one table coset the stored
    values cannot resolve the true variation), so finer balls are skipped.
    """
    ctx = w.context
    p, m = ctx.prime, ctx.window
    for n, row in zip(range(1, n_max + 1), step_products(w, a)):
        j = _orbit_radius_exp(a, n)
        if not w.declared_locally_constant and j >= w.level:
            continue
        for b in range(p ** (j + m)):
            witness = _ul_witness(w, a, n, b, row)
            if witness.u_nonempty and witness.l_nonempty:
                continue
            side = "U" if not witness.u_nonempty else "L"
            return RuleFiring(
                RULE_UL_EMPTY,
                {"n": n, "x_prime": b, "empty_side": side},
                {
                    "radius": witness.radius,
                    "u_witnesses": witness.u_witnesses[:4],
                    "l_witnesses": witness.l_witnesses[:4],
                },
            )
    return None


# ---------------------------------------------------------------------------
# coset log integrals


@dataclass(frozen=True)
class CosetIntegral:
    """ln-integral of the weight over one coset b + p^k Z_p.

    ``value`` renormalizes the coset to mass 1 (the scale at which each
    coset is itself a full integer ring); ``global_share`` is the same
    quantity weighted by the coset's Haar mass, so the shares sum to the
    full log integral.  The zero test is exact: the rational product of
    the table values over the coset equals 1.
    """

    coset: BallSet
    product: Fraction
    value: float
    global_share: float

    @property
    def is_zero(self) -> bool:
        return self.product == 1


def coset_log_integrals(w: PAdicTableWeight, a: PAdicNumber) -> list[CosetIntegral]:
    """Per-coset ln-integrals at the coset level k = v_p(a)."""
    v = a.valuation()
    if v is PRECISION_CAP:
        raise ValueError("translation element vanishes at working precision")
    ctx = w.context
    p, m = ctx.prime, ctx.window
    k = v
    level = max(w.level, k)
    step = p ** (k + m)
    out = []
    for b in range(step):
        product = Fraction(1)
        for t in range(p ** (level - k)):
            rep = b + t * step
            product *= w.rational_at(ctx.from_residue(rep))
        ln_q = math.log(product.numerator) - math.log(product.denominator)
        out.append(
            CosetIntegral(
                coset=ball(ctx, ctx.from_residue(b), k),
                product=product,
                value=ln_q / p ** (level - k),
                global_share=ln_q / p ** (level + m),
            )
        )
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
    """Split a windowed problem into the family of coset problems at level
    k = v_p(a); the translation fixes each coset of p^k Z_p, and each
    restriction rescales to an ordinary integer-ring problem."""
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
        table = {
            s: w.rational_at(ctx.from_residue((p ** (k + m) * s + b) % ctx.modulus))
            for s in range(p ** level_sub)
        }
        problems.append(
            CosetProblem(
                coset=ball(ctx, ctx.from_residue(b), k),
                context=sub_ctx,
                element=sub_a,
                weight=PAdicTableWeight(sub_ctx, level_sub, table, w.declared_locally_constant),
            )
        )
    return problems
