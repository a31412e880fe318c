"""Tests for ``hctest.monotone_rows``, the one source of the monotone
weight-power rows read by the verdict, ``monotone_power_scan`` and
``scan.csv``."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.equidist import _mod1
from hclab.groups import CIRCLE
from hclab.hctest import MonotoneHit, monotone_power_scan
from hclab.weights import ExprWeight


def _scan_expr_weight(w, a, n_max, grid_points, require_strict):
    """The expression-weight scan as it was written before the rows existed:
    log sums on the grid, a Lipschitz margin for the ``certified`` flag."""
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
        if hit and (hit[1] or n == 1 or not require_strict):
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


@st.composite
def _sine_cases(draw):
    """exp(c*sin(2*pi*(x-phi)) + d): |d| >= c fires at n = 1, 0 < |d| < c
    fires once n|d| outgrows the orbit's sine sum, d = 0 never fires."""
    c = draw(st.floats(0.05, 2.0))
    phi = draw(st.floats(0.0, 1.0, exclude_max=True))
    d = c * draw(st.sampled_from([0.0]) | st.floats(-1.5, 1.5))
    angle = draw(st.floats(0.001, 0.999))
    w = ExprWeight(f"exp({c!r}*sin(2*pi*(x-{phi!r})) + {d!r})")
    return w, CIRCLE.from_float(angle)


@settings(max_examples=60, deadline=5000, derandomize=True)
# fires at n = 2 with a log gap that clears one grid margin but not two, so
# ``certified`` depends on the margin growing with n
@example((ExprWeight("exp(0.312*sin(2*pi*(x-0.847)) + 0.247)"), CIRCLE.from_float(0.2556)),
         64, 20, True)
@given(_sine_cases(), st.sampled_from([64, 256, 1024]), st.integers(1, 20), st.booleans())
def test_expr_scan_matches_oracle(case, grid_points, n_max, strict):
    w, a = case
    expected = _scan_expr_weight(w, a, n_max, grid_points, strict)
    assert monotone_power_scan(w, a, n_max, grid_points, require_strict=strict) == expected
