"""hclab's benchmark: spec throughput and per-spec latency of `hclab <task>`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload circle-float --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The benchmark generates a seeded batch of spec files for the workload and
drives ``hclab.cli.main([...])`` in-process, from one thread, in a closed loop
with one client: each spec starts when the previous one has finished.  With
``--trace 0`` it cycles through the batch for ``--seconds`` seconds and
reports the end-to-end metrics, per-spec times scaled to a reference host
speed (see REFERENCE_S).  With ``--trace 1`` it runs the batch once
untraced and once with every layer function wrapped (see tracer.py) and
reports the per-layer metrics; the batch is fixed by the seed, so call counts
repeat exactly.  Every report is checked (answers.py) and its sha256 is
recorded in ``.perfbench_out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# run hygiene, before numpy is imported: one BLAS/OpenMP thread, and no
# HCLAB_THREADS, whose value report.json records
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HCLAB_THREADS", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden"
DEFAULT_SEED = 0
SETUP_SAMPLES = 11
# the timed loop runs for --seconds and for at least this many specs, so that
# at least 10 samples lie beyond spec_s_p90
MIN_SAMPLES = 100
TAIL = 10
# A shared virtual machine can change speed by a quarter within a minute (seen
# on a 2-vCPU KVM guest), and every spec time changes with it.  A fixed kernel
# of interpreted integer steps and numpy array work, the two kinds of work
# hclab does, is timed after every spec and tracks that speed; the timing
# metrics are scaled to a host on which the kernel takes REFERENCE_S, i.e.
# multiplied by REFERENCE_S / (the run's median kernel time).  Raw times are
# printed too.  The set-up samples are spread over the run, so that they see
# the same host speed as the kernel.
REFERENCE_LOOPS = 25_000
REFERENCE_ARRAY = np.random.default_rng(0).random(40_000)
REFERENCE_S = 0.003

sys.path.insert(0, str(HERE))

from answers import check_properties, compare, extract  # noqa: E402
from tracer import Tracer, unit_of  # noqa: E402
from workloads import GENERATORS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "specs_per_s": "1/s",
    "spec_s_p50": "s",
    "spec_s_p90": "s",
    "peak_rss_mb": "MB",
}


def import_hclab():
    """Import hclab from this checkout's src/, never from anywhere else."""
    if not (SRC / "hclab" / "cli.py").is_file():
        raise ImportError(f"no hclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hclab.cli

    if Path(hclab.cli.__file__).resolve().parent != (SRC / "hclab").resolve():
        raise ImportError(f"hclab was imported from {hclab.cli.__file__}, not {SRC}")
    return hclab.cli


def time_reference() -> float:
    """Wall time of the fixed kernel that tracks the host's current speed."""
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    np.sort(np.sin(REFERENCE_ARRAY * 6.283) + REFERENCE_ARRAY)
    return perf_counter() - start


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports hclab.cli."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import hclab.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return perf_counter() - start


class Batch:
    """A workload's generated spec files and the executions made of them."""

    def __init__(self, cli, cases: list, work: Path):
        self.cli = cli
        self.cases = cases
        self.work = work
        self.paths = []
        for case in self.cases:
            path = work / "specs" / f"{case.id}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(case.spec, indent=1))
            self.paths.append(str(path))
        self.executions = []  # (case index, out dir, exit code, seconds, stderr)

    def invalid(self) -> list[str]:
        """Diagnostics of `hclab validate` for every generated spec."""
        out = []
        for case, path in zip(self.cases, self.paths):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(["validate", "--spec", path, "--task", case.task])
            if code != 0:
                out.append(f"{case.id}: {stdout.getvalue().strip()}")
        return out

    def execute(self, index: int) -> float:
        """One closed-loop request: `hclab <task> --spec ... --out-dir <fresh>`."""
        case = self.cases[index]
        out_dir = str(self.work / "out" / str(len(self.executions)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = self.cli.main([case.task, "--spec", self.paths[index], "--out-dir", out_dir])
            except Exception as exc:  # a traceback is a failed spec, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
        self.executions.append((index, out_dir, code, seconds, stderr.getvalue()))
        return seconds

    def check(self, golden: dict | None) -> tuple[list[dict], list[str]]:
        """Check every execution; returns per-execution records and problems."""
        records, problems, first_digest = [], [], {}
        for index, out_dir, code, seconds, stderr in self.executions:
            case = self.cases[index]
            record = {"case": case.id, "seconds": seconds, "exit": code, "sha256": None, "ok": False}
            records.append(record)
            if code != 0:
                problems.append(f"{case.id}: exit {code} {stderr.strip()[:200]}")
                continue
            try:
                raw = Path(out_dir, "report.json").read_bytes()
                answer = extract(json.loads(raw))
                found = check_properties(case.expect, answer)
            except (OSError, ValueError, LookupError, TypeError) as exc:
                problems.append(f"{case.id}: report not understood: {exc!r}")
                continue
            record["answer"] = answer
            record["sha256"] = digest = hashlib.sha256(raw).hexdigest()
            if first_digest.setdefault(case.id, digest) != digest:
                found.append("report differs between runs of the same spec")
            if golden is not None:
                expected = golden.get(case.id)
                if expected is None:
                    found.append("no golden answer recorded")
                else:
                    found += compare(expected["answer"], answer, "answer")
                    record["golden_identical"] = digest == expected["report_sha256"]
            problems += [f"{case.id}: {p}" for p in found]
            record["ok"] = not found
        return records, problems


def load_golden(workload: str, seed: int) -> dict | None:
    path = GOLDEN / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())["cases"]


def run_untraced(batch: Batch, seconds: float) -> tuple[float, list[float], list[float]]:
    """Cycle through the batch until ``seconds`` have passed and at least
    MIN_SAMPLES specs ran.  The reference kernel is timed after each spec, and
    the SETUP_SAMPLES set-up samples are spread evenly over the run.  Returns
    the loop's wall time without them, the kernel times and the set-up times."""
    reference, setup = [], []
    gc.collect()
    start = perf_counter()
    i = 0
    while i < MIN_SAMPLES or perf_counter() - start < seconds:
        if len(setup) < SETUP_SAMPLES and perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(time_setup())
        batch.execute(i % len(batch.cases))
        reference.append(time_reference())
        i += 1
    return perf_counter() - start - sum(reference) - sum(setup), reference, setup


def run_traced(batch: Batch):
    """Each spec of the batch once untraced and once traced, interleaved so
    that drift in machine speed hits both sides alike; the tracer and the
    traced and untraced totals."""
    tracer = Tracer()
    traced = untraced = 0.0
    gc.collect()
    for i in range(len(batch.cases)):
        untraced += batch.execute(i)
        with tracer.installed():
            traced += batch.execute(i)
    return tracer, traced, untraced


def tail_percentile(times: list[float]) -> tuple[float, int]:
    """The 90th percentile of ``times`` and how many samples lie beyond it."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return p90, sum(t > p90 for t in times)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_hclab()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    try:
        batch = Batch(cli, GENERATORS[workload](seed), work)
        invalid = batch.invalid()
        batch.execute(0)  # untimed warm-up
        batch.executions.clear()
        if trace:
            tracer, traced_s, untraced_s = run_traced(batch)
        else:
            wall, reference, setup = run_untraced(batch, seconds)
        records, problems = batch.check(load_golden(workload, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    problems = [f"invalid spec {d}" for d in invalid] + problems
    digests = sorted({(r["case"], r["sha256"]) for r in records if r["sha256"]})
    summary_digest = hashlib.sha256(json.dumps(digests).encode()).hexdigest()

    lines = [f"{workload} seed={seed}: {attempted} specs attempted, {failed} failed, "
             f"error_rate {failed / attempted:.4f} ratio"]
    if trace:
        metrics = tracer.metrics(len(batch.cases), traced_s, untraced_s)
        units = {name: unit_of(name) for name in metrics}
        lines.append(f"traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s, "
                     f"{len(batch.cases)} specs each")
    else:
        times = [r["seconds"] for r in records]
        completed = attempted - failed
        p90, beyond = tail_percentile(times)
        if beyond < TAIL:
            problems.append(f"only {beyond} of {len(times)} samples beyond spec_s_p90, need {TAIL}")
        setup_s = statistics.median(setup)
        kernel_s = statistics.median(reference)
        scale = REFERENCE_S / kernel_s
        rate, p50 = completed / wall, statistics.median(times)
        metrics = {
            "setup_s": setup_s * scale,
            "specs_per_s": rate / scale,
            "spec_s_p50": p50 * scale,
            "spec_s_p90": p90 * scale,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        lines += [
            f"  reference kernel {kernel_s * 1e3:.3f} ms (median of {len(reference)}); "
            f"times scaled by {scale:.4f} to a {REFERENCE_S * 1e3:g} ms kernel, raw in brackets",
            f"  setup_s      {metrics['setup_s']:.4f} s   [{setup_s:.4f}] "
            f"(median of {SETUP_SAMPLES} fresh interpreters)",
            f"  specs_per_s  {metrics['specs_per_s']:.4f} 1/s [{rate:.4f}] "
            f"(n={completed} in {wall:.2f} s)",
            f"  spec_s_p50   {metrics['spec_s_p50']:.4f} s   [{p50:.4f}] (n={len(times)})",
            f"  spec_s_p90   {metrics['spec_s_p90']:.4f} s   [{p90:.4f}] "
            f"(n={len(times)}, {beyond} beyond)",
            f"  peak_rss_mb  {peak_rss_mb:.1f} MB",
        ]
    lines.append(f"reports: {len(digests)} distinct specs, sha256 of digests {summary_digest}")
    identical = [r["golden_identical"] for r in records if "golden_identical" in r]
    if identical:
        lines.append(f"reports byte-identical to the golden run: {sum(identical)}/{len(identical)}")
    OUT.mkdir(exist_ok=True)
    run_file = OUT / f"{tag}.json"
    payload = {"workload": workload, "seed": seed, "trace": trace, "records": records,
               "problems": problems, "reports_digest": summary_digest}
    if trace:
        payload["spans"] = tracer.span_rows()
    run_file.write_text(json.dumps(payload, indent=1))
    lines.append(f"per-spec records{' and spans' if trace else ''}: {run_file.relative_to(ROOT)}")
    for p in problems[:20]:
        lines.append(f"FAILED {p}")
    return {
        "lines": lines,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in GENERATORS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
