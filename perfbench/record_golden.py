"""Record the golden answers of the default seed, one file per workload.

    python3 perfbench/record_golden.py [workload ...]

Runs every spec of the default-seed batch once, requires a clean exit and
every generator property to hold, and writes the extracted answers and the
report sha256 to perfbench/golden/<workload>.json.  Re-record only when a
change to hclab is meant to change its answers.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, GOLDEN, WORK, Batch, import_hclab
from workloads import GENERATORS


def record(cli, workload: str) -> dict:
    work = WORK / f"golden-{workload}-{os.getpid()}"
    try:
        batch = Batch(cli, GENERATORS[workload](DEFAULT_SEED), work)
        for i in range(len(batch.cases)):
            batch.execute(i)
        records, problems = batch.check(None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise SystemExit(f"{workload}: {problems}")
    cases = {r["case"]: {"answer": r["answer"], "report_sha256": r["sha256"]} for r in records}
    return {"seed": DEFAULT_SEED, "cases": cases}


def main(argv: list[str]) -> int:
    cli = import_hclab()
    GOLDEN.mkdir(exist_ok=True)
    for workload in argv or list(GENERATORS):
        path = GOLDEN / f"{workload}.json"
        path.write_text(json.dumps(record(cli, workload), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
