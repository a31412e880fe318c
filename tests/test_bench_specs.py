"""Every seed-0 spec of the benchmark's workloads (``perfbench/workloads.py``)
passes ``validate``, so a stricter validation cannot turn the benchmark's
specs into failures.  The generators are loaded read-only, by path."""

import importlib.util
import sys
from pathlib import Path

import pytest

from hclab.cli import validate

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
