"""Self-check of the benchmark: every generator on a tiny batch, untraced and
traced.  Run from the root of a checkout with

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import (  # noqa: E402
    DEFAULT_SEED, END_TO_END_UNITS, MIN_SAMPLES, ROOT, TAIL, WORK, Batch, import_hclab, load_golden, tail_percentile,
)
from tracer import MODULES, Tracer, metric_names, unit_of  # noqa: E402
from workloads import GENERATORS  # noqa: E402

TINY = 8


@pytest.fixture(scope="module")
def cli():
    return import_hclab()


@pytest.fixture
def work(tmp_path_factory):
    path = WORK / f"selfcheck-{tmp_path_factory.getbasetemp().name}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", list(GENERATORS))
def test_generator_is_seeded(workload):
    first = [c.spec for c in GENERATORS[workload](7)[:TINY]]
    assert first == [c.spec for c in GENERATORS[workload](7)[:TINY]]
    assert first != [c.spec for c in GENERATORS[workload](8)[:TINY]]


@pytest.mark.parametrize("workload", list(GENERATORS))
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 11])
def test_tiny_batch_has_no_errors(cli, work, workload, seed):
    batch = Batch(cli, GENERATORS[workload](seed)[:TINY], work)
    assert batch.invalid() == []
    for i in range(len(batch.cases)):
        batch.execute(i)
    # the first cases of the default seed are also the first of its golden batch
    records, problems = batch.check(load_golden(workload, seed))
    error_rate = sum(not r["ok"] for r in records) / len(records)
    assert problems == [] and error_rate == 0


def test_traced_run_reports_every_module(cli, work):
    tracer = Tracer()
    specs = 0
    for workload, generate in GENERATORS.items():
        batch = Batch(cli, generate(DEFAULT_SEED)[:TINY], work / workload)
        with tracer.installed():
            for i in range(len(batch.cases)):
                batch.execute(i)
        records, problems = batch.check(None)
        assert problems == []
        specs += len(records)
    metrics = tracer.metrics(specs, traced_s=1.0, untraced_s=1.0)
    assert list(metrics) == metric_names()
    for module in MODULES:
        assert metrics[f"{module}.self_s"] > 0, module
    assert metrics["weights.weight_product.calls"] > 0
    assert metrics["equidist.OrbitCounter.sup_candidates.points"] > 0


def test_tracer_restores_the_functions(cli):
    import hclab.hctest
    import hclab.weights

    before = (cli.verdict, hclab.hctest.weight_product, hclab.weights.weight_product,
              hclab.borel.BallSet.__dict__["from_balls"])
    with Tracer().installed():
        assert cli.verdict is not before[0]
        assert hclab.hctest.weight_product is hclab.weights.weight_product
    after = (cli.verdict, hclab.hctest.weight_product, hclab.weights.weight_product,
             hclab.borel.BallSet.__dict__["from_balls"])
    assert after == before


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [unit_of(n) for n in metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)


def test_tail_percentile_counts_the_samples_beyond_it():
    p90, beyond = tail_percentile([float(t) for t in range(MIN_SAMPLES)])
    assert beyond >= TAIL and p90 < MIN_SAMPLES - TAIL
    assert tail_percentile([float(t) for t in range(50)])[1] < TAIL
