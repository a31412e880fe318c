"""Outside-in tracing of hclab's layers.

hclab has no tracing of its own, so the traced run wraps each listed public
function from outside: every ``hclab.*`` module global bound to the function
object is rebound to the wrapper (``cli``, ``hctest`` and ``padic`` import by
name, so patching only the defining module would miss their calls), and
methods are replaced on their class.  Spans are aggregated in memory by
(function, parent function), so hot calls such as ``weight_product`` or
``BallSet.contains`` cost a few dictionary updates each, not a record.

A span's self time is its duration minus the time covered by its child
spans; the calls are synchronous in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

MODULES = ("padic", "weights", "hctest", "equidist", "borel", "exprs", "groups", "cli", "report", "repcheck")

# (module, qualified name) of every traced function
FUNCTIONS = (
    ("padic", "ul_scan"),
    ("padic", "ul_sets"),
    ("padic", "coset_log_integrals"),
    ("padic", "qp_reduction"),
    ("padic", "locally_constant_obstruction"),
    ("weights", "weight_product"),
    ("hctest", "verdict"),
    ("hctest", "log_integral_report"),
    ("hctest", "monotone_power_scan"),
    ("equidist", "sup_deviation"),
    ("equidist", "translated_density"),
    ("equidist", "uniform_convergence_sweep"),
    ("equidist", "OrbitCounter.count_in_translated"),
    ("equidist", "OrbitCounter.sup_candidates"),
    ("borel", "BallSet.contains"),
    ("borel", "BallSet.from_balls"),
    ("borel", "IntervalSet.contains"),
    ("borel", "IntervalSet.union"),
    ("exprs", "Expr.__call__"),
    ("groups", "catalog"),
    ("groups", "OrbitSequence.angle_support"),
    ("groups", "OrbitSequence.residue_support"),
    ("cli", "parse_spec"),
    ("cli", "run"),
    ("report", "jsonable"),
    ("repcheck", "noncyclic_equivalence_check"),
)

# functions whose result size is a work count: the number of translates
# sup_candidates returns
RESULT_SIZES = {"equidist.OrbitCounter.sup_candidates": "points"}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, qualname in FUNCTIONS:
        key = f"{module}.{qualname}"
        names += [f"{key}.calls", f"{key}.self_s"]
        if key in RESULT_SIZES:
            names.append(f"{key}.{RESULT_SIZES[key]}")
    names.append("hctest.verdict.calls_per_spec")
    for module in MODULES:
        names += [f"{module}.self_s", f"{module}.share"]
    names.append("trace.overhead_frac")
    return names


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".share") or name == "trace.overhead_frac":
        return "ratio"
    return "count"


class Tracer:
    """Aggregated spans: (name, parent name) -> [calls, total_s, self_s]."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}
        self.sizes: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]

    def wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size_of = name in RESULT_SIZES

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
            if size_of:
                sizes[name] = sizes.get(name, 0) + len(result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Wrap every listed function for the duration of the block."""
        undo = []
        try:
            for module, qualname in FUNCTIONS:
                name = f"{module}.{qualname}"
                mod = sys.modules[f"hclab.{module}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                original = getattr(mod, qualname)
                wrapper = self.wrap(name, original)
                for mod_name, other in list(sys.modules.items()):
                    if mod_name != "hclab" and not mod_name.startswith("hclab."):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
                            undo.append((other, attr, original))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def metrics(self, specs: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics over a traced batch of ``specs`` specs that took
        ``traced_s`` seconds, against ``untraced_s`` for the same specs."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, _parent), (n, _total, own) in self.spans.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for module, qualname in FUNCTIONS:
            key = f"{module}.{qualname}"
            out[f"{key}.calls"] = calls.get(key, 0)
            out[f"{key}.self_s"] = self_s.get(key, 0.0)
            module_self[module] += self_s.get(key, 0.0)
            if key in RESULT_SIZES:
                out[f"{key}.{RESULT_SIZES[key]}"] = self.sizes.get(key, 0)
        out["hctest.verdict.calls_per_spec"] = calls.get("hctest.verdict", 0) / specs
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
            out[f"{module}.share"] = module_self[module] / traced_s
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def span_rows(self) -> list[dict]:
        """The aggregated spans, for the trace file written when a run ends."""
        return [
            {"name": name, "parent": parent, "calls": n, "total_s": total, "self_s": own}
            for (name, parent), (n, total, own) in sorted(self.spans.items())
        ]
