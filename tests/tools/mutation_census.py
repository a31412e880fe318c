"""A mutation census of hclab's ordering comparisons.

    python tests/tools/mutation_census.py padic hctest equidist
    python tests/tools/mutation_census.py padic --line 211

For each named module of ``src/hclab``, every ordering comparison is
flipped at its boundary (``<`` with ``<=``, ``>`` with ``>=``), one at a
time.  Each mutant is written into a copy of ``src/`` in a temporary
directory, and tier-1 runs against that copy with ``-x``.  One row per
mutant names the site, the flip and the outcome: ``killed`` when tier-1
fails, ``survived`` when it passes, ``timeout`` when it runs past
``TIMEOUT`` seconds (a flipped loop bound can hang).  A survivor costs a
full tier-1 run, so the census runs on demand; pytest does not collect
this file.  Tier-1 first runs once on the unmutated copy; when it does not
pass there, the census stops with exit code 2 before any flip.  Otherwise
the exit code is 1 when any mutant survived or timed out, and 0 when tier-1
killed every one.

The flip is made in the source text, between the comparison's two
operands as ``ast`` locates them, so every other byte of the module and
every line number stay as they are.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TIMEOUT = 600.0  # seconds per tier-1 run
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def sites(source: bytes) -> list[tuple[int, int, int, str]]:
    """(line, column, byte offset, operator) of every ordering comparison,
    in source order; the offset is where the operator starts."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, ORDERING):
                continue
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            found = re.search(rb"[<>]=?", source[lo:hi])
            line = source.count(b"\n", 0, lo + found.start()) + 1
            out.append((line, lo + found.start() - starts[line - 1] + 1, lo + found.start(),
                        found.group().decode()))
    return sorted(out)


def flip(source: bytes, offset: int, op: str) -> bytes:
    """The source with the comparison ``op`` at byte ``offset`` flipped at
    its boundary; every other byte stays."""
    return source[:offset] + FLIP[op].encode() + source[offset + len(op):]


def tier1(src: Path) -> str:
    """Run tier-1 with -x against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/hclab, such as padic")
    parser.add_argument("--line", type=int, action="append", help="only the comparisons on this line")
    args = parser.parse_args(argv)
    tally: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        # a copy on which tier-1 already fails would read every mutant as killed
        clean = tier1(src)
        if clean != "survived":
            print(f"tier-1 {'times out' if clean == 'timeout' else 'fails'} on the unmutated copy; "
                  "no mutant was run", file=sys.stderr)
            return 2
        for module in args.modules:
            path = src / "hclab" / f"{module}.py"
            source = path.read_bytes()
            for line, col, offset, op in sites(source):
                if args.line and line not in args.line:
                    continue
                path.write_bytes(flip(source, offset, op))
                try:
                    outcome = tier1(src)
                finally:
                    path.write_bytes(source)
                tally[outcome] = tally.get(outcome, 0) + 1
                print(f"{module}.py:{line}:{col}  {op:>2} -> {FLIP[op]:<2}  {outcome}", flush=True)
    print("  ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    return 1 if tally.keys() - {"killed"} else 0


if __name__ == "__main__":
    sys.exit(main())
