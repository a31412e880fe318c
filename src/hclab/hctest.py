"""The necessary-condition battery for weighted translation operators.

Implemented tests, each of which a hypercyclic operator would have to pass:

* torsion of the translation element (finite order / declared-rational
  rotation / zero p-adic step);
* the zero-log-integral condition, computed by midpoint quadrature on the
  circle and by exact rational product bookkeeping for step, finite and
  p-adic table weights;
* the monotone weight-power scan: no n-step product may be >= 1 everywhere
  or <= 1 everywhere;
* on p-adic contexts, the locally-constant obstruction and the U/L ball
  emptiness scan (delegated to the padic module).

A passing verdict never claims hypercyclicity; it only reports that no test
fired at the configured horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import padic as _padic
from .borel import IntervalSet
from .equidist import OrbitCounter, _mod1
from .errors import GridMismatch, NonPositiveWeight, PlateauResolutionFailure
from .exprs import Expr
from .groups import CIRCLE, CircleElement, CircleGroup, FiniteGroup, PAdicContext
from .report import (
    CONDITIONS_PASSED,
    NOT_HYPERCYCLIC,
    RULE_LOG_INTEGRAL,
    RULE_MONOTONE,
    RULE_TORSION,
    RuleFiring,
    VerdictReport,
)
from .weights import (
    CircleGrid,
    DiscretizedFunction,
    ExprWeight,
    FiniteWeight,
    PAdicTableWeight,
    StepFunction,
    StepWeight,
    Weight,
    apply_operator,
    step_products,
    weight_product,
)

__all__ = [
    "StepFunction",
    "Weight",
    "ExprWeight",
    "StepWeight",
    "FiniteWeight",
    "PAdicTableWeight",
    "CircleGrid",
    "DiscretizedFunction",
    "weight_product",
    "apply_operator",
    "operator_power_identity_check",
    "LogIntegralResult",
    "log_integral",
    "log_integral_report",
    "step_approx",
    "SandwichResult",
    "sandwich_check",
    "MonotoneHit",
    "monotone_power_scan",
    "VerdictConfig",
    "verdict",
]


# ---------------------------------------------------------------------------
# operator power identity


def operator_power_identity_check(w: Weight, a, n: int, f: DiscretizedFunction, mode: str = "strict"):
    """Sup-norm of (T_{a,w})^n f minus the single application with the n-step
    product weight and translation a^n.  Zero exactly on rational pipelines,
    tiny float noise otherwise."""
    if n < 1:
        raise ValueError("need n >= 1")
    iterated = f
    for _ in range(n):
        iterated = apply_operator(w, a, iterated, mode=mode)

    domain = f.domain
    if isinstance(domain, FiniteGroup):
        a_n = domain.power(a, n)
        direct = DiscretizedFunction(
            domain,
            tuple(
                weight_product(w, a, n, x) * f.values[domain.mul(x, domain.inv(a_n))]
                for x in domain.elements()
            ),
        )
        return iterated.sup_diff(direct)
    if isinstance(domain, CircleGrid):
        M = domain.points
        s = a.value * M
        if s.denominator != 1:
            if mode != "nearest":
                raise GridMismatch("rotation is off-grid; use mode='nearest'")
            shift = int(round(float(a.value) * M))
        else:
            shift = int(s)
        vals = []
        for i in range(M):
            x = CircleElement(Fraction(i, M), True)
            vals.append(weight_product(w, a, n, x) * f.values[(i - n * shift) % M])
        return iterated.sup_diff(DiscretizedFunction(domain, tuple(vals)))
    if isinstance(domain, PAdicContext):
        vals = []
        for r in range(domain.modulus):
            x = domain.from_residue(r)
            vals.append(
                weight_product(w, a, n, x)
                * f.values[(r - n * a.residue) % domain.modulus]
            )
        return iterated.sup_diff(DiscretizedFunction(domain, tuple(vals)))
    raise TypeError(f"unsupported domain {domain!r}")


# ---------------------------------------------------------------------------
# the log integral


def _ln_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class LogIntegralResult:
    value: float
    method: str
    exact: bool
    exact_zero: bool | None = None
    quadrature_points: int | None = None
    richardson_gap: float | None = None


def _exact_log_sum(pairs) -> LogIntegralResult | None:
    """sum_i m_i ln(v_i) with rational m_i, v_i, bookkept as ln(prod v^c)/D."""
    masses, values = [], []
    for m, v in pairs:
        if not isinstance(v, (Fraction, int)):
            return None
        masses.append(Fraction(m))
        values.append(Fraction(v))
    D = 1
    for m in masses:
        D = D * m.denominator // math.gcd(D, m.denominator)
    Q = Fraction(1)
    for m, v in zip(masses, values):
        Q *= v ** int(m * D)
    return LogIntegralResult(
        value=_ln_fraction(Q) / D,
        method="exact-log-sum",
        exact=True,
        exact_zero=(Q == 1),
    )


def log_integral_report(w: Weight, quadrature_points: int = 1 << 16) -> LogIntegralResult:
    """The Haar integral of ln w, with the evidence used to compute it."""
    if isinstance(w, ExprWeight):
        def midpoint(m):
            xs = (np.arange(m) + 0.5) / m
            vals = np.log(np.asarray(w.eval_angles(xs), dtype=float))
            return float(np.mean(vals))

        coarse = midpoint(quadrature_points // 2)
        fine = midpoint(quadrature_points)
        return LogIntegralResult(
            value=fine,
            method="midpoint-quadrature",
            exact=False,
            quadrature_points=quadrature_points,
            richardson_gap=abs(fine - coarse),
        )
    if isinstance(w, StepWeight):
        pairs = [(E.measure(), v) for E, v in w.step.pieces]
        exact = _exact_log_sum(pairs)
        if exact is not None:
            return exact
        total = sum(float(m) * math.log(float(v)) for m, v in pairs)
        return LogIntegralResult(total, "float-log-sum", exact=False)
    if isinstance(w, FiniteWeight):
        mass = Fraction(1, w.group.order)
        exact = _exact_log_sum((mass, v) for v in w.values)
        if exact is not None:
            return exact
        total = sum(float(mass) * math.log(float(v)) for v in w.values)
        return LogIntegralResult(total, "float-log-sum", exact=False)
    if isinstance(w, PAdicTableWeight):
        ctx = w.context
        mass = Fraction(1, ctx.prime ** (w.level + ctx.window))
        exact = _exact_log_sum((mass, v) for v in w.table.values())
        assert exact is not None  # table values are always Fractions
        return exact
    raise TypeError(f"unsupported weight {w!r}")


def log_integral(w: Weight, quadrature_points: int = 1 << 16) -> float:
    return log_integral_report(w, quadrature_points).value


# ---------------------------------------------------------------------------
# step-function approximation of a continuous function


def _bisect_edge(fn, h: float, x_false: float, x_true: float, iters: int = 80):
    """Shrink [x_false, x_true] around the crossing of fn(x) >= h; the
    endpoints keep their predicate values.  Returns (x_false, x_true)."""
    for _ in range(iters):
        mid = 0.5 * (x_false + x_true)
        if mid == x_false or mid == x_true:
            break
        if fn(mid % 1.0) >= h:
            x_true = mid
        else:
            x_false = mid
    return x_false, x_true


def _level_set(fn, xs: np.ndarray, vals: np.ndarray, h: float, outer: bool) -> IntervalSet:
    """{x : fn(x) >= h} located by grid scan plus bisection.

    ``outer`` pushes each boundary to the bracket endpoint just outside the
    set (giving a superset); the inner variant gives a subset.  Closed arcs.
    """
    flags = vals >= h
    M = len(xs)
    if flags.all():
        return IntervalSet.full()
    if not flags.any():
        return IntervalSet.empty()
    edges = []  # (position, entering)
    for i in range(M):
        j = (i + 1) % M
        if flags[i] == flags[j]:
            continue
        x_lo = float(xs[i])
        x_hi = float(xs[j]) if j else float(xs[0]) + 1.0
        if flags[i]:  # leaving the set: predicate True at x_lo, False at x_hi
            false_pt, true_pt = _bisect_edge(fn, h, x_hi, x_lo)
            edges.append(((false_pt if outer else true_pt) % 1.0, False))
        else:  # entering
            false_pt, true_pt = _bisect_edge(fn, h, x_lo, x_hi)
            edges.append(((false_pt if outer else true_pt) % 1.0, True))
    edges.sort()
    arcs = IntervalSet.empty()
    # walk entry -> exit pairs circularly
    k = len(edges)
    first_entry = next(i for i, e in enumerate(edges) if e[1])
    i = first_entry
    used = 0
    from .borel import interval as _interval

    while used < k:
        pos_in, entering = edges[i % k]
        assert entering, "unbalanced level-set crossings"
        pos_out, leaving = edges[(i + 1) % k]
        assert not leaving
        arcs = arcs.union(_interval(Fraction(pos_in), Fraction(pos_out), "closed"))
        i += 2
        used += 2
    return arcs


def step_approx(
    target,
    eps: float,
    side: str = "above",
    grid_points: int = 4096,
) -> StepFunction:
    """Approximate a continuous circle function by an algebra step function
    within eps, from above or below.

    Cut heights are placed at midpoints between adjacent distinct grid values
    so no cut lands on a value plateau; level sets at the cuts are located by
    bisection and pushed outward (above) or inward (below) so the pointwise
    sandwich holds with margin.  Raises PlateauResolutionFailure when the
    grid cannot support cuts with gaps below eps.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if eps <= 0:
        raise ValueError("need eps > 0")
    fn = target if callable(target) else Expr(str(target))
    xs = np.arange(grid_points) / grid_points
    vals = np.asarray(fn(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("target is not finite on the circle")
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax == vmin:
        return StepFunction.of([(IntervalSet.full(), vmin)])

    vrange = vmax - vmin
    pad = vrange * 1e-6 + 1e-12
    floor_v, ceil_v = vmin - pad, vmax + pad
    bands = max(2, math.ceil((ceil_v - floor_v) / (0.9 * eps)))
    raw_cuts = [floor_v + i * (ceil_v - floor_v) / bands for i in range(1, bands)]

    distinct = np.unique(vals)
    cuts = []
    for t in raw_cuts:
        idx = int(np.searchsorted(distinct, t))
        if idx <= 0 or idx >= len(distinct):
            continue  # cut outside the attained range contributes nothing
        snapped = 0.5 * (float(distinct[idx - 1]) + float(distinct[idx]))
        if not cuts or snapped > cuts[-1]:
            cuts.append(snapped)
    ladder = [floor_v] + cuts + [ceil_v]
    if any(b - a >= eps for a, b in zip(ladder, ladder[1:])):
        raise PlateauResolutionFailure(
            f"could not place cut heights with gaps below {eps} at grid {grid_points}"
        )

    outer = side == "above"
    levels = [_level_set(fn, xs, vals, h, outer) for h in cuts]
    for i in range(1, len(levels)):  # enforce nesting exactly
        levels[i] = levels[i].intersection(levels[i - 1])

    pieces = []
    r = len(cuts)
    prev = IntervalSet.full()
    for i in range(r):
        band = prev.difference(levels[i])
        value = cuts[i] if side == "above" else (floor_v if i == 0 else cuts[i - 1])
        if not band.is_empty():
            pieces.append((band, value))
        prev = levels[i]
    top_value = ceil_v if side == "above" else (cuts[-1] if cuts else floor_v)
    if not prev.is_empty():
        pieces.append((prev, top_value))
    return StepFunction.of(pieces)


# ---------------------------------------------------------------------------
# the two-sided product sandwich


def _product_counter(a: CircleElement, N: int) -> OrbitCounter:
    """Counter over the N-point product orbit x, x-a, ..., x-(N-1)a."""
    from .groups import OrbitSequence

    seq = OrbitSequence(CIRCLE, a)
    vals, cnts = seq.angle_support(N)  # terms 1..N-1
    vals = np.concatenate([vals, [0.0]])
    cnts = np.concatenate([cnts, [1]])
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    # merge a duplicate zero (torsion orbits hit it)
    keep_vals, keep_cnts = [], []
    for v, c in zip(vals, cnts):
        if keep_vals and keep_vals[-1] == v:
            keep_cnts[-1] += c
        else:
            keep_vals.append(float(v))
            keep_cnts.append(int(c))
    return OrbitCounter(np.asarray(keep_vals), np.asarray(keep_cnts))


@dataclass(frozen=True)
class SandwichResult:
    """Outcome of the per-piece orbit-count check behind the two-sided
    N-step product bound.  ``ok`` holds when every piece's orbit share stays
    within eps of its measure at every event translate; that is the exact
    per-factor form from which the product bound follows (exponent signs
    corrected for pieces below 1)."""

    ok: bool
    eps: float
    N: int
    max_deviation: float
    witness_x: float | None = None
    witness_piece: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def sandwich_check(phi: StepFunction, a: CircleElement, eps: float, N: int) -> SandwichResult:
    if N < 1:
        raise ValueError("need N >= 1")
    for E, _ in phi.pieces:
        if not isinstance(E, IntervalSet):
            raise TypeError("sandwich_check runs on circle step functions")
    counter = _product_counter(a, N)
    candidates = np.unique(
        np.concatenate([counter.sup_candidates(E) for E, _ in phi.pieces])
    )
    worst = -1.0
    witness_x = witness_piece = None
    for idx, (E, _) in enumerate(phi.pieces):
        mu = float(E.measure())
        counts = counter.count_in_translated(E, candidates)
        devs = np.abs(counts / N - mu)
        j = int(np.argmax(devs))
        if float(devs[j]) > worst:
            worst = float(devs[j])
            witness_x = float(candidates[j])
            witness_piece = idx
    ok = worst < eps
    return SandwichResult(
        ok=ok,
        eps=eps,
        N=N,
        max_deviation=worst,
        witness_x=None if ok else witness_x,
        witness_piece=None if ok else witness_piece,
    )


# ---------------------------------------------------------------------------
# monotone weight-power scan


@dataclass(frozen=True)
class MonotoneHit:
    """Evidence that the n-step product is one-sided against 1."""

    n: int
    direction: str  # ">=1" or "<=1"
    strict: bool
    certified: bool
    min_value: float
    max_value: float
    witness: object = None


def _scan_expr_weight(w: ExprWeight, a, n_max, grid_points, require_strict):
    xs = np.arange(grid_points) / grid_points
    af = float(a.value)
    acc = np.zeros(grid_points)
    log_lip = None
    for n in range(1, n_max + 1):
        pts = _mod1(xs - (n - 1) * af)
        acc = acc + np.log(np.asarray(w.eval_angles(pts), dtype=float))
        mn, mx = float(acc.min()), float(acc.max())
        hit = None
        if mn >= 0.0:
            hit = (">=1", mx > 0.0, mn)
        elif mx <= 0.0:
            hit = ("<=1", mn < 0.0, -mx)
        if hit and (hit[1] or not require_strict):
            if log_lip is None:
                d = w.expr.derivative()
                dv = np.abs(np.asarray(d(xs), dtype=float))
                wv = np.asarray(w.eval_angles(xs), dtype=float)
                log_lip = 2.0 * float(np.max(dv / wv))
            margin = n * log_lip / (2 * grid_points)
            certified = hit[2] - margin >= 0.0
            i = int(np.argmin(acc) if hit[0] == ">=1" else np.argmax(acc))
            return MonotoneHit(
                n, hit[0], hit[1], certified,
                float(math.exp(mn)), float(math.exp(mx)), witness=float(xs[i]),
            )
    return None


def _scan_exact_pairs(rows, n_max, require_strict):
    """Shared exact scan: ``rows`` yields, for n = 1, 2, ..., the n-step
    products as (point, value) pairs; the witness is the first extreme point."""
    for n, pairs in zip(range(1, n_max + 1), rows):
        vals = [v for _, v in pairs]
        mn, mx = min(vals), max(vals)
        hit = None
        if mn >= 1:
            hit = (">=1", mx > 1)
        elif mx <= 1:
            hit = ("<=1", mn < 1)
        if hit and (hit[1] or not require_strict):
            extreme = mn if hit[0] == ">=1" else mx
            pt = next(x for x, v in pairs if v == extreme)
            return MonotoneHit(
                n, hit[0], hit[1], True, float(mn), float(mx), witness=pt
            )
    return None


def monotone_power_scan(
    w: Weight,
    a,
    n_max: int,
    grid_points: int = 1024,
    require_strict: bool = False,
) -> MonotoneHit | None:
    """Smallest n <= n_max whose n-step product is >= 1 everywhere or <= 1
    everywhere (on the evaluation grid for expression weights; exactly for
    step, finite, and p-adic table weights).  None when no n fires."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if isinstance(w, ExprWeight):
        return _scan_expr_weight(w, a, n_max, grid_points, require_strict)
    if isinstance(w, StepWeight):
        if not w.is_exact:
            raise NonPositiveWeight("exact scan requires rational step values")

        def values_at(n):
            counter = _product_counter(a, n)
            candidates = np.unique(
                np.concatenate([counter.sup_candidates(E) for E, _ in w.step.pieces])
            )
            alphas = [Fraction(v) for _, v in w.step.pieces]
            per_piece = [
                counter.count_in_translated(E, candidates) for E, _ in w.step.pieces
            ]
            out = []
            for col, x in enumerate(candidates):
                prod = Fraction(1)
                for alpha, counts in zip(alphas, per_piece):
                    prod *= alpha ** int(counts[col])
                out.append((float(x), prod))
            return out

        return _scan_exact_pairs(map(values_at, range(1, n_max + 1)), n_max, require_strict)
    if isinstance(w, (PAdicTableWeight, FiniteWeight)):
        # p-adic points are the residues the table resolves, finite ones the elements
        rows = (list(enumerate(row)) for row in step_products(w, a))
        return _scan_exact_pairs(rows, n_max, require_strict)
    raise TypeError(f"unsupported weight {w!r}")


# ---------------------------------------------------------------------------
# the verdict battery


@dataclass(frozen=True)
class VerdictConfig:
    log_tolerance: float = 1e-5
    quadrature_points: int = 1 << 16
    monotone_n_max: int = 50
    monotone_grid: int = 1024
    ul_n_max: int | None = None
    metadata: dict | None = None

    def resolved_ul_n_max(self, context: PAdicContext) -> int:
        if self.ul_n_max is not None:
            return self.ul_n_max
        return min(context.modulus * context.prime, 64)


def _torsion_firing(w: Weight, a) -> RuleFiring | None:
    group = w.group
    if isinstance(group, FiniteGroup):
        return RuleFiring(
            RULE_TORSION,
            {"order": group.element_order(a)},
            {"element": a, "group": group.name},
        )
    if isinstance(group, CircleGroup):
        if a.declared_rational:
            return RuleFiring(
                RULE_TORSION,
                {"order": a.value.denominator},
                {"angle": a.value},
            )
        return None
    if isinstance(group, PAdicContext):
        if a.is_torsion():
            return RuleFiring(
                RULE_TORSION,
                {"reason": "translation element is 0 at working precision"},
                {},
            )
        return None
    raise TypeError(f"unsupported group {group!r}")


def _log_firing(w: Weight, config: VerdictConfig) -> tuple[RuleFiring | None, LogIntegralResult]:
    res = log_integral_report(w, config.quadrature_points)
    if res.exact:
        fired = not res.exact_zero
    else:
        fired = abs(res.value) > config.log_tolerance
    if not fired:
        return None, res
    return (
        RuleFiring(
            RULE_LOG_INTEGRAL,
            {"value": res.value, "tolerance": config.log_tolerance, "exact": res.exact},
            {"method": res.method},
        ),
        res,
    )


def _monotone_firing(w: Weight, a, config: VerdictConfig) -> RuleFiring | None:
    """Battery form of the scan: n = 1 may fire without strictness (the
    isometry case w_1 == 1), larger n must be strict somewhere -- an exactly
    constant-1 product at n >= 2 is the cyclic/locally-constant phenomenon
    and is reported by the sharper rules instead."""
    first = monotone_power_scan(w, a, 1, config.monotone_grid, require_strict=False)
    strict = monotone_power_scan(
        w, a, config.monotone_n_max, config.monotone_grid, require_strict=True
    )
    hit = None
    if first is not None:
        hit = first if (strict is None or strict.n >= first.n) else strict
    else:
        hit = strict
    if hit is None:
        return None
    return RuleFiring(
        RULE_MONOTONE,
        {"n": hit.n, "direction": hit.direction, "strict": hit.strict,
         "certified": hit.certified},
        {"min_value": hit.min_value, "max_value": hit.max_value, "witness": hit.witness},
    )


def _context_name(group) -> str:
    return getattr(group, "name", repr(group))


def verdict(w: Weight, a, config: VerdictConfig | None = None) -> VerdictReport:
    """Run the necessary-condition battery; the first firing rule wins.

    Order: torsion, then the zero-log-integral test, then the monotone
    weight-power scan, then (p-adic only) the locally-constant obstruction
    and the U/L ball scan.  Windowed p-adic contexts decompose into coset
    problems that each run the full battery.
    """
    config = config or VerdictConfig()
    group = w.group
    tolerances = {
        "log_tolerance": config.log_tolerance,
        "quadrature_points": config.quadrature_points,
    }
    horizons = {"monotone_n_max": config.monotone_n_max}
    notes = []
    metadata = dict(config.metadata or {})

    def report(fired: RuleFiring | None) -> VerdictReport:
        return VerdictReport(
            verdict=NOT_HYPERCYCLIC if fired else CONDITIONS_PASSED,
            fired_rule=fired,
            tolerances=tolerances,
            horizons=horizons,
            context=_context_name(group),
            notes=tuple(notes),
            metadata=metadata,
        )

    fired = _torsion_firing(w, a)
    if fired:
        return report(fired)

    if isinstance(group, PAdicContext) and group.window > 0:
        # decompose the windowed problem into coset problems over Z_p
        horizons["coset_level"] = a.valuation()
        problems = _padic.qp_reduction(w, a)
        notes.append(f"windowed context reduced to {len(problems)} coset problems")
        for prob in problems:
            sub = verdict(prob.weight, prob.element, config)
            if sub.not_hypercyclic:
                inner = sub.fired_rule
                params = dict(inner.params)
                params["coset"] = str(prob.coset)
                return report(RuleFiring(inner.rule, params, inner.witnesses))
        return report(None)

    fired, log_res = _log_firing(w, config)
    if fired:
        return report(fired)
    notes.append(f"log integral {log_res.value:.3e} ({log_res.method})")

    fired = _monotone_firing(w, a, config)
    if fired:
        return report(fired)

    if isinstance(group, PAdicContext):
        ul_n_max = config.resolved_ul_n_max(group)
        horizons["ul_n_max"] = ul_n_max
        fragment = _padic.locally_constant_obstruction(w, a)
        if fragment is not None:
            return report(fragment)
        fragment = _padic.ul_scan(w, a, ul_n_max)
        if fragment is not None:
            return report(fragment)

    return report(None)
