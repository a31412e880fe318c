"""Every seed-0 spec of the benchmark's workloads (``perfbench/workloads.py``)
passes ``validate``, so a stricter validation cannot turn the benchmark's
specs into failures; the circle step walks of the exact-step specs agree
with the exact oracle, the expression-weight walks and log integrals of the
circle-float specs with the out-of-place oracle, their arcs' deviations lie
within the Erdős–Turán bound, and the exhaustive p-adic counts of the ball
sets agree with the count on the full context.  The generators are loaded
read-only, by path."""

import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact_oracle
import expr_oracle
from circle_oracle import row_pairs, step_values_at
from hclab.cli import parse_spec, validate
from hclab.equidist import TestFunction, density, sup_deviation, uniform_convergence_sweep
from hclab.groups import OrbitSequence
from hclab.hctest import log_integral_report, monotone_rows
from hclab.weights import StepWeight, circle_step_rows

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _generators():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.GENERATORS


GENERATORS = _generators()


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_bench_specs_validate(workload):
    for case in GENERATORS[workload](0):
        assert validate(case.spec, case.task) == [], case.id


def test_bench_step_walks_match_the_oracle():
    # with the spec's n_max as the horizon, as the verdict passes it: every
    # row's monotone hit (extremes, direction, strictness, witness) against
    # the integer oracle, and the first 8 rows' (translate, value) pairs
    # against the brute-force one, which is cubic in n
    walks = 0
    for case in GENERATORS["exact-step"](0):
        spec, _ = parse_spec(case.spec, case.task)
        if not isinstance(spec.weight, StepWeight):
            continue
        walks += 1
        w, a, n_max = spec.weight, spec.element, spec.verdict_config().monotone_n_max
        hits, rows = monotone_rows(w, a, horizon=n_max), exact_oracle.circle_step_rows(w, a, n_max)
        for n, hit, (points, row, den) in zip(range(1, n_max + 1), hits, rows):
            assert hit == exact_oracle.exact_hit(n, points, row, den), (case.id, n)
        rows_at = step_values_at(w, a, first_only=True)
        rows = exact_oracle.walk_rows(circle_step_rows(w, a, n_max))
        for n, (_, points, _, values) in zip(range(1, 9), rows):
            assert row_pairs(points, values) == rows_at(n), (case.id, n)
    assert walks > 0


def test_bench_expr_walks_match_the_oracle():
    # every row the verdict can read, with the spec's n_max as the horizon,
    # and the midpoint log integral, bit for bit
    cases = GENERATORS["circle-float"](0)
    for case in cases:
        spec, _ = parse_spec(case.spec, case.task)
        config = spec.verdict_config()
        w, a, n_max = spec.weight, spec.element, config.monotone_n_max
        rows = itertools.islice(monotone_rows(w, a, config.monotone_grid, n_max), n_max)
        expected = itertools.islice(expr_oracle.monotone_rows(w, a, config.monotone_grid), n_max)
        assert list(rows) == list(expected), case.id
        log = log_integral_report(w, config.quadrature_points)
        value, gap = expr_oracle.log_integral(w, config.quadrature_points)
        assert np.array([log.value, log.richardson_gap]).tobytes() == np.array([value, gap]).tobytes(), case.id
    assert cases


def _full_context_counts(K, seq, N):
    """The count at every translate x of the full context, x + y in K over
    the orbit's support y: K's residue mask correlated with the support."""
    mask = np.zeros(seq.group.modulus, dtype=np.int64)
    mask[K.finest_residues()] = 1
    counts = np.zeros_like(mask)
    for y, mult in seq.residue_support(N):
        counts += mult * np.roll(mask, -y.residue)
    return counts


@pytest.mark.parametrize("workload", ["orbit-exhaustive", "padic-verdict"])
def test_bench_ball_counts_match_the_full_context(workload):
    checked = 0
    for case in GENERATORS[workload](0):
        spec, _ = parse_spec(case.spec, case.task)
        seq = OrbitSequence(spec.group, spec.element)
        for K in spec.sets:
            mu = K.measure()
            for N in spec.horizons["N_list"]:
                counts = _full_context_counts(K, seq, N)
                expected = max(abs(Fraction(int(c), N) - mu) for c in (counts.min(), counts.max()))
                assert sup_deviation(K, seq, N) == float(expected), (case.id, N)
                assert density(K, seq, N) == Fraction(int(counts[0]), N), (case.id, N)
                checked += 1
    assert checked > 0


def _erdos_turan(a, N, K_max=64):
    """The least over K <= K_max of the Erdős–Turán bound on the extreme
    discrepancy of the N - 1 points n a, n = 1..N-1: 6/(K+1) + (4/pi)
    sum_{k<=K} (1/k - 1/(K+1)) |S_k|/(N-1), S_k = sum_{n=1}^{N-1} e(-kna)
    (Kuipers & Niederreiter, Uniform Distribution of Sequences, 1974, ch. 2,
    Thm 2.5), with |S_k|/N from the closed-form character sweep."""
    mean = [point.sup_deviation * N / (N - 1) for k in range(1, K_max + 1)
            for point in uniform_convergence_sweep(TestFunction.character(k), a, [N])]
    return min(6 / (K + 1) + 4 / math.pi * sum((1 / k - 1 / (K + 1)) * mean[k - 1] for k in range(1, K + 1))
               for K in range(1, K_max + 1))


def test_circle_sweep_is_within_the_erdos_turan_bound():
    # every arc of the circle-float specs of seeds 0-2 at each horizon: a set
    # of r arcs deviates by at most ((N-1)/N) r D + 1/N at every translate,
    # D bounding the discrepancy of the N - 1 orbit points; the event sweep
    # and the closed-form character sums share no code
    checked, worst = 0, 0.0
    for case in (case for seed in range(3) for case in GENERATORS["circle-float"](seed)):
        spec, _ = parse_spec(case.spec, case.task)
        Ns = spec.horizons["N_list"]
        bounds = {N: _erdos_turan(spec.element, N) for N in Ns}
        devs = sup_deviation(spec.sets, OrbitSequence(spec.group, spec.element), Ns)
        for literal, row in zip(case.spec["sets"], devs):
            r = 1 if isinstance(literal[1], str) else len(literal)  # one arc, or a union of arcs
            for N, dev in zip(Ns, row):
                bound = (N - 1) / N * r * bounds[N] + 1 / N
                assert dev <= bound, (case.id, literal, N)
                checked, worst = checked + 1, max(worst, dev / bound)
    assert checked == 864 and worst < 1
