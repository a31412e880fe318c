"""The necessary-condition battery for weighted translation operators.

Implemented tests, each of which a hypercyclic operator would have to pass:

* torsion of the translation element (finite order / declared-rational
  rotation / zero p-adic step);
* the zero-log-integral condition, computed by midpoint quadrature on the
  circle and exactly, as an exponent sum over the weight's coprime base
  (``weights.ExponentForm``), for step, finite and p-adic table weights;
* the monotone weight-power scan: no n-step product may be >= 1 everywhere
  or <= 1 everywhere;
* on p-adic contexts, the locally-constant obstruction and the U/L ball
  emptiness scan (delegated to the padic module).

A passing verdict never claims hypercyclicity; it only reports that no test
fired at the configured horizons.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import padic as _padic
from .equidist import BLOCK_ENTRIES, _mod1
from .families import family
from .report import (
    CONDITIONS_PASSED,
    NOT_HYPERCYCLIC,
    RULE_LOG_INTEGRAL,
    RULE_MONOTONE,
    RuleFiring,
    VerdictReport,
)
from .weights import ExprWeight, Weight
# bound here only for the benchmark's tracer self-check, which reads
# hctest.weight_product (perfbench/tests/test_perfbench.py)
from .weights import weight_product  # noqa: F401

__all__ = [
    "LogIntegralResult",
    "log_integral_report",
    "MonotoneHit",
    "monotone_rows",
    "ProductWalk",
    "monotone_power_scan",
    "VerdictConfig",
    "verdict",
]


@dataclass(frozen=True)
class VerdictConfig:
    """The battery's tolerances and horizons; a library function that takes
    one of these settings defaults to its value here."""

    log_tolerance: float = 1e-5
    quadrature_points: int = 1 << 16
    monotone_n_max: int = 50
    monotone_grid: int = 1024
    ul_n_max: int | None = None


# ---------------------------------------------------------------------------
# the log integral


@dataclass(frozen=True)
class LogIntegralResult:
    value: float
    method: str
    exact: bool
    exact_zero: bool | None = None
    quadrature_points: int | None = None
    richardson_gap: float | None = None


def log_integral_report(w: Weight,
                        quadrature_points: int = VerdictConfig.quadrature_points) -> LogIntegralResult:
    """The Haar integral of ln w, with the evidence used to compute it: a
    midpoint quadrature for an expression weight, the exact log-sum of the
    ``ExponentForm`` of a step, finite or table weight."""
    if w.form is not None:
        # sum_i m_i ln(v_i) = sum_j (s_j / D) ln(b_j) from the exponent sum s
        # (``ExponentForm.log_sum``): it is zero exactly when s is
        D, s = w.form.log_sum()
        return LogIntegralResult(w.form.log_value(D, s), "exact-log-sum", exact=True, exact_zero=not any(s))

    def midpoint(grid):
        # the mean of ln w at the midpoints (k + 1/2)/m of the k that
        # ``grid`` holds, k < m = len(grid), computed over the grid
        np.add(grid, 0.5, out=grid)
        np.divide(grid, len(grid), out=grid)
        vals = np.asarray(w.eval_angles(grid, out=grid), dtype=float)
        return float(np.mean(np.log(vals, out=vals)))

    # one buffer holds the fine grid's k; the coarse grid's k are
    # written over its top, which is then restored from its bottom
    m, half = quadrature_points, quadrature_points // 2
    grid = np.arange(m, dtype=float)
    top = grid[m - half:]
    np.subtract(top, m - half, out=top)
    coarse = midpoint(top)
    np.add(grid[:half], m - half, out=top)
    fine = midpoint(grid)
    return LogIntegralResult(
        value=fine,
        method="midpoint-quadrature",
        exact=False,
        quadrature_points=quadrature_points,
        richardson_gap=abs(fine - coarse),
    )


# ---------------------------------------------------------------------------
# monotone weight-power scan


@dataclass(frozen=True, eq=False)
class MonotoneHit:
    """One row of the monotone weight-power scan: the extremes of the n-step
    product and, when it is one-sided against 1, the evidence that it is.
    ``direction`` is None on a row that is not one-sided, and only a
    one-sided row has a ``witness``: the first point at the extreme, read
    only when asked for, from the one-item sequence ``witness_at`` (the
    ``equidist.Translates`` of one candidate on the circle, the entry index
    on a table)."""

    n: int
    direction: str | None  # ">=1", "<=1" or None
    strict: bool
    certified: bool
    min_value: float
    max_value: float
    witness_at: Sequence = field(default=(), repr=False)

    @property
    def witness(self):
        return self.witness_at[0] if len(self.witness_at) else None

    def __eq__(self, other) -> bool:
        keys = ("n", "direction", "strict", "certified", "min_value", "max_value", "witness")
        return isinstance(other, MonotoneHit) and all(getattr(self, k) == getattr(other, k) for k in keys)


# the largest x whose e^x is finite in binary64
_LN_MAX = math.log(sys.float_info.max)


def _expr_rows(w: ExprWeight, a, grid_points: int, horizon: int) -> Iterator[MonotoneHit]:
    """Rows from log sums on the grid; decisions stay in log space, with a
    Lipschitz margin computed once, at the first one-sided row.  The log
    sums come in blocks of ``horizon`` rows, fewer when a block would hold
    more than ``BLOCK_ENTRIES`` entries, and at least one.  An extreme past
    binary64's range reads inf, as an exact row's does."""
    xs = np.arange(grid_points) / grid_points
    af = float(a.value)
    block = max(1, min(horizon, BLOCK_ENTRIES // grid_points))
    # every block is built, evaluated and summed in this one buffer
    logs = np.empty((block, grid_points))
    acc = np.zeros(grid_points)
    log_lip = None
    for start in itertools.count(0, block):
        # row n adds ln w at the orbit's term n-1, x - (n-1)a
        steps = np.arange(start, start + block, dtype=float)[:, None]
        np.subtract(xs, np.multiply(steps, af, out=steps), out=logs)
        np.log(w.eval_angles(_mod1(logs, out=logs), out=logs), out=logs)
        logs[0] += acc
        # one add per row: a cumulative sum down the columns walks each one
        # as its own strided chain
        for prev, row in zip(logs, logs[1:]):
            np.add(prev, row, out=row)
        acc[:] = logs[-1]
        mins, maxs = logs.min(axis=1), logs.max(axis=1)
        for n, row, mn, mx in zip(range(start + 1, start + block + 1), logs, mins.tolist(), maxs.tolist()):
            try:
                lo, hi = math.exp(mn), math.exp(mx)
            except OverflowError:  # mx, at least mn, is past binary64's range
                lo, hi = math.exp(mn) if mn <= _LN_MAX else math.inf, math.inf
            if not (mn >= 0.0 or mx <= 0.0):
                yield MonotoneHit(n, None, False, False, lo, hi)
                continue
            if log_lip is None:
                dv = np.abs(w.slope_angles(xs))
                wv = np.asarray(w.eval_angles(xs), dtype=float)
                log_lip = 2.0 * float(np.max(dv / wv))
            up = mn >= 0.0
            gap = mn if up else -mx
            certified = gap - n * log_lip / (2 * grid_points) >= 0.0
            i = int(np.argmin(row) if up else np.argmax(row))
            yield MonotoneHit(
                n, ">=1" if up else "<=1", not up or mx > 0.0, certified, lo, hi, [float(xs[i])],
            )


def _walk_steps(w: Weight, a, grid_points: int, ul_n_max: int, horizon: int):
    """(monotone row, U/L row or None) for n = 1, 2, ...  An expression
    weight's rows are float log sums on the grid (``_expr_rows``).  An exact
    weight yields its own rows, in blocks of ``(points, ProductRows)``
    (``Weight.product_rows``); on a p-adic table weight the ``padic.ULRow``
    for n <= ul_n_max is read from the same row's codes as its monotone row,
    and ``ul_n_max`` is 0 but on an unwindowed p-adic context.  Each row's
    monotone row is read from its block's ``ProductRows.extremes``; a
    one-sided row's witness is the one-item sequence ``points(b, [entry])``
    of its first entry at the extreme: the lazy ``equidist.Translates`` of
    it on the circle, the entry's index on a table.  The first block of rows
    ends at max(horizon, ul_n_max).  Nothing runs before the first read."""
    horizon = max(horizon, ul_n_max)
    if w.form is None:
        yield from ((hit, None) for hit in _expr_rows(w, a, grid_points, horizon))
        return
    n = 0
    for points, rows in w.product_rows(a, horizon):
        for b, (lo, hi, lo_sign, hi_sign, lo_value, hi_value) in enumerate(rows.extremes):
            n += 1
            if lo_sign >= 0 or hi_sign <= 0:
                up = lo_sign >= 0
                hit = MonotoneHit(n, ">=1" if up else "<=1", not up or hi_sign > 0, True,
                                  lo_value, hi_value, points(b, [lo if up else hi]))
            else:
                hit = MonotoneHit(n, None, False, False, lo_value, hi_value)
            yield hit, (_padic.ul_row(w, a, n, rows.codes[rows.starts[b]:rows.starts[b + 1]])
                        if n <= ul_n_max else None)


def monotone_rows(w: Weight, a, grid_points: int = VerdictConfig.monotone_grid,
                  horizon: int = 1) -> Iterator[MonotoneHit]:
    """Yield, for n = 1, 2, ..., the monotone row of the n-step product: on
    the ``grid_points``-point grid for expression weights, in blocks of
    ``horizon`` rows; exactly for step, finite and p-adic table weights,
    whose first block of rows ends at ``horizon`` (``_walk_steps``)."""
    return (hit for hit, _ in _walk_steps(w, a, grid_points, 0, horizon))


class ProductWalk:
    """One lazily advanced walk of the n-step products of (w, a), shared by
    every reader in a spec: the verdict's monotone rule and U/L scan,
    ``scan.csv`` and ``ul_witness.csv``.

    ``hits()`` yields the monotone rows and ``ul_rows()`` the p-adic U/L rows
    (``padic.ULRow``, for n <= ``ul_n_max``, None past it), both from n = 1;
    ``ul_n_max`` is the U/L horizon the walk was built with.
    Each n is computed once, when the first reader reaches it, and only
    these small per-n results are kept; a block of rows lives in the walk's
    generator (``_walk_steps``) only while it is current.  Nothing runs
    before the first read.  ``horizon`` is the n the readers are expected
    to reach: rows come in blocks, and the first ends there.
    """

    def __init__(self, w: Weight, a, grid_points: int, ul_n_max: int, horizon: int):
        self.ul_n_max = ul_n_max
        self._steps = _walk_steps(w, a, grid_points, ul_n_max, horizon)
        self._walked: list[tuple] = []

    @property
    def walked(self) -> int:
        """How many n the walk has reached."""
        return len(self._walked)

    def _read(self, field: int):
        for n in itertools.count():
            if n == len(self._walked):
                self._walked.append(next(self._steps))
            yield self._walked[n][field]

    def hits(self) -> Iterator[MonotoneHit]:
        return self._read(0)

    def ul_rows(self) -> Iterator:
        return self._read(1)


def _fires(row: MonotoneHit, require_strict: bool) -> bool:
    return row.direction is not None and (row.strict or row.n == 1 or not require_strict)


def monotone_power_scan(
    w: Weight,
    a,
    n_max: int,
    grid_points: int = VerdictConfig.monotone_grid,
    require_strict: bool = False,
) -> MonotoneHit | None:
    """Smallest n <= n_max whose n-step product is >= 1 everywhere or <= 1
    everywhere (on the evaluation grid for expression weights; exactly for
    step, finite, and p-adic table weights).  None when no n fires.

    With ``require_strict`` a product that is identically 1 fires only at
    n = 1 (the isometry case w == 1); from n = 2 on it must differ from 1
    somewhere."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    rows = itertools.islice(monotone_rows(w, a, grid_points, n_max), n_max)
    return next((row for row in rows if _fires(row, require_strict)), None)


# ---------------------------------------------------------------------------
# the verdict battery


def _log_firing(w: Weight, config: VerdictConfig) -> tuple[RuleFiring | None, LogIntegralResult]:
    res = log_integral_report(w, config.quadrature_points)
    fired = not res.exact_zero if res.exact else abs(res.value) > config.log_tolerance
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


def _monotone_firing(walk: ProductWalk, config: VerdictConfig) -> RuleFiring | None:
    """Battery form of the scan: n = 1 may fire without strictness (the
    isometry case w_1 == 1), larger n must be strict somewhere -- an exactly
    constant-1 product at n >= 2 is the cyclic/locally-constant phenomenon
    and is reported by the sharper rules instead."""
    for row in itertools.islice(walk.hits(), config.monotone_n_max):
        if _fires(row, require_strict=True):
            return RuleFiring(
                RULE_MONOTONE,
                {"n": row.n, "direction": row.direction, "strict": row.strict,
                 "certified": row.certified},
                {"min_value": row.min_value, "max_value": row.max_value, "witness": row.witness},
            )
    return None


def verdict(w: Weight, a, config: VerdictConfig | None = None) -> VerdictReport:
    """Run the necessary-condition battery; the first firing rule wins.

    Order: torsion, then the zero-log-integral test, then the monotone
    weight-power scan, then (p-adic only) the locally-constant obstruction
    and the U/L ball scan.  Windowed p-adic contexts decompose into coset
    problems that each run the full battery.  The group's family gives the
    torsion rule, the decomposition and the rules after the scan.
    """
    config = config or VerdictConfig()
    group = w.group
    fam = family(group)
    tolerances = {
        "log_tolerance": config.log_tolerance,
        "quadrature_points": config.quadrature_points,
    }
    horizons = {"monotone_n_max": config.monotone_n_max}
    notes = []
    log_res = problems = None
    walk = ProductWalk(w, a, config.monotone_grid, fam.ul_n_max(group, config), config.monotone_n_max)

    def report(fired: RuleFiring | None) -> VerdictReport:
        return VerdictReport(
            verdict=NOT_HYPERCYCLIC if fired else CONDITIONS_PASSED,
            fired_rule=fired,
            tolerances=tolerances,
            horizons=horizons,
            context=group.name,
            notes=tuple(notes),
            log_integral=log_res,
            walk=walk,
            coset_problems=problems,
        )

    fired = fam.torsion(group, a)
    if fired:
        return report(fired)

    problems = fam.coset_problems(w, a)
    if problems is not None:
        horizons["coset_level"] = a.valuation()
        notes.append(f"windowed context reduced to {len(problems)} coset problems")
        for prob in problems:
            sub = verdict(prob.weight, prob.element, config)
            if sub.not_hypercyclic:
                inner = sub.fired_rule
                params = {**inner.params, "coset": str(prob.coset)}
                return report(RuleFiring(inner.rule, params, inner.witnesses))
        return report(None)

    fired, log_res = _log_firing(w, config)
    if fired:
        return report(fired)
    notes.append(f"log integral {log_res.value:.3e} ({log_res.method})")

    fired = _monotone_firing(walk, config)
    if fired:
        return report(fired)
    return report(fam.table_rules(w, a, walk, horizons))
