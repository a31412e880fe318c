"""The benchmark's tracer (``perfbench/tracer.py``) wraps hclab functions by
module and qualified name.  Resolving every name here makes a rename fail the
test suite instead of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = []
    for module, qualname in _load_tracer().FUNCTIONS:
        mod = importlib.import_module(f"hclab.{module}")
        # as Tracer.installed does: a module global, or a method in its class __dict__
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            found = attr in getattr(getattr(mod, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(mod, qualname, None))
        if not found:
            missing.append(f"{module}.{qualname}")
    assert missing == []


def test_traced_sweep_points_count_every_candidate():
    # the benchmark reads len() of each sup_candidates result as its
    # sup_candidates.points: a circle sup_deviation must go through
    # sup_candidates, once per (set, horizon), and the length must be the
    # sweep's candidate count, 2 per event position or 1 with no events
    # (the empty set), as the brute-force sweep of circle_oracle lists them;
    # under the declared 1/6, events on the sixths share positions
    from fractions import Fraction

    import circle_oracle
    import hclab.cli  # noqa: F401  (the tracer patches every hclab module)
    from hclab import equidist
    from hclab.borel import IntervalSet, interval
    from hclab.groups import CIRCLE, OrbitSequence

    sets = [interval(Fraction(1, 5), Fraction(3, 5), "closed"), IntervalSet.empty(), IntervalSet.full(),
            interval(Fraction(1, 6), Fraction(1, 2), "closed"),
            interval(Fraction(3, 4), Fraction(1, 4), "half_open").union(
                IntervalSet.from_pieces([], [Fraction(1, 2)]))]
    Ns = [2, 9, 40]
    tracer = _load_tracer().Tracer()
    angles = (CIRCLE.element(Fraction(2, 7)), CIRCLE.element(Fraction(1, 6)),
              CIRCLE.from_float(0.6180339887498949))
    for a in angles:
        seq = OrbitSequence(CIRCLE, a)
        before = tracer.metrics(1, 1.0, 1.0)
        with tracer.installed():
            equidist.sup_deviation(sets, seq, Ns)
        after = tracer.metrics(1, 1.0, 1.0)
        key = "equidist.OrbitCounter.sup_candidates"
        candidates = sum(len(circle_oracle.sweep(circle_oracle.orbit_points(a, range(1, N)), [K]))
                         for K in sets for N in Ns)
        assert after[f"{key}.calls"] - before[f"{key}.calls"] == len(sets) * len(Ns)
        assert after[f"{key}.points"] - before[f"{key}.points"] == candidates
