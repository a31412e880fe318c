"""Experiment runner: declarative JSON specs in, JSON reports and CSV traces out.

Usage:  hclab <task> --spec experiment.json [--out-dir DIR] [--threads N]

Tasks: equidist, reps, hctest, padic, all, validate.  Exit codes: 0 on
success (a NotHypercyclic verdict is data, not failure), 2 for parse or
validation errors, 3 for runtime errors.  Rational numbers in spec files are
strings like "1/2" so nothing is lost to float parsing; re-running the same
spec reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import padic as padic_mod
from .borel import BallSet, FiniteSubset, IntervalSet, ball, interval
from .equidist import TestFunction, sup_deviation, uniform_convergence_sweep
from .errors import HclabError, SpecValidationError
from .groups import CIRCLE, FiniteGroup, OrbitSequence, PAdicContext, catalog
from .hctest import VerdictConfig, log_integral_report, verdict
from .repcheck import circle_has_fixed_character, fixed_irrep_multiplicity, noncyclic_equivalence_check
from .report import VerdictReport, jsonable
from .weights import (ExprWeight, FiniteWeight, PAdicTableWeight, StepFunction,
                      StepWeight, step_products)

SCHEMA_VERSION = 1
TASKS = ("equidist", "reps", "hctest", "padic", "all")

_TOP_KEYS = {
    "schema", "task", "group", "element", "weight", "sets", "characters",
    "horizons", "tolerances", "lp_exponent", "label",
}
_HORIZON_KEYS = {"N_list", "n_max", "ul_n_max", "k_max"}
_TOLERANCE_KEYS = {"log_tolerance", "quadrature_points", "grid_points"}


@dataclass
class ExperimentSpec:
    """A fully-resolved experiment: every object is constructed and validated
    before any computation starts."""

    raw: dict
    task: str
    group: object
    element: object = None
    weight: object = None
    sets: list = field(default_factory=list)
    set_ids: list = field(default_factory=list)
    characters: list = field(default_factory=list)
    horizons: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    lp_exponent: object = None
    label: str = ""

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def verdict_config(self) -> VerdictConfig:
        return VerdictConfig(
            log_tolerance=float(self.tolerances.get("log_tolerance", 1e-5)),
            quadrature_points=int(self.tolerances.get("quadrature_points", 1 << 16)),
            monotone_n_max=int(self.horizons.get("n_max", 50)),
            monotone_grid=int(self.tolerances.get("grid_points", 1024)),
            ul_n_max=self.horizons.get("ul_n_max"),
            metadata={"lp_exponent": self.lp_exponent} if self.lp_exponent else {},
        )


# ---------------------------------------------------------------------------
# parsing


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact for n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _parse_int_list(value, field, minimum, diags):
    """A list of integers >= minimum (JSON integers or integer strings), or
    None with a diagnostic that names the field."""
    if not isinstance(value, list):
        diags.append(f"{field}: expected a list of integers, got {value!r}")
        return None
    out = []
    for entry in value:
        try:
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ValueError
            k = int(entry)
        except ValueError:
            diags.append(f"{field}: {entry!r} is not an integer")
            return None
        if minimum is not None and k < minimum:
            diags.append(f"{field}: {entry!r} is below the minimum {minimum}")
            return None
        out.append(k)
    return out


def _parse_group(desc, diags):
    if not isinstance(desc, dict) or "group" not in desc:
        diags.append("group: expected an object with a 'group' field")
        return None
    kind = desc["group"]
    if kind == "circle":
        if set(desc) - {"group"}:
            diags.append("group: circle takes no extra fields")
        return CIRCLE
    if kind == "finite":
        extra = set(desc) - {"group", "name"}
        if extra:
            diags.append(f"group: unknown fields {sorted(extra)}")
        name = desc.get("name")
        groups = catalog()
        if name not in groups:
            diags.append(f"group: unknown finite group {name!r}; catalog: {sorted(groups)}")
            return None
        return groups[name]
    if kind in ("zp", "qp"):
        allowed = {"group", "p", "precision"} | ({"window"} if kind == "qp" else set())
        extra = set(desc) - allowed
        if extra:
            diags.append(f"group: unknown fields {sorted(extra)}")
        try:
            context = PAdicContext(
                int(desc["p"]),
                int(desc.get("precision", 4)),
                int(desc.get("window", 0)) if kind == "qp" else 0,
            )
        except (KeyError, ValueError) as exc:
            diags.append(f"group: {exc}")
            return None
        if not _is_prime(context.prime):
            diags.append(f"group: p = {context.prime} is not a prime")
            return None
        return context
    diags.append(f"group: unknown kind {kind!r}")
    return None


def _parse_element(group, desc, diags):
    if desc is None:
        return None
    try:
        if group is CIRCLE:
            if isinstance(desc, dict):
                if "rational" in desc:
                    return CIRCLE.element(str(desc["rational"]))
                if "angle" in desc:
                    return CIRCLE.from_float(float(desc["angle"]))
                diags.append("element: need 'rational' or 'angle'")
                return None
            if isinstance(desc, str):
                return CIRCLE.element(desc)
            return CIRCLE.from_float(float(desc))
        if isinstance(group, FiniteGroup):
            idx = desc["index"] if isinstance(desc, dict) else int(desc)
            if not 0 <= int(idx) < group.order:
                diags.append(f"element: index {idx} out of range for {group.name}")
                return None
            return int(idx)
        if isinstance(group, PAdicContext):
            if isinstance(desc, dict):
                if "digits" in desc:
                    return group.from_digits([int(d) for d in desc["digits"]])
                if "value" in desc:
                    return group.element(Fraction(str(desc["value"])))
                diags.append("element: need 'digits' or 'value'")
                return None
            return group.element(Fraction(str(desc)))
    except (HclabError, ValueError, ZeroDivisionError) as exc:
        diags.append(f"element: {exc}")
        return None
    diags.append("element: unsupported group")
    return None


def _parse_circle_set(desc, diags):
    def one(piece):
        if isinstance(piece, dict):
            if set(piece) != {"point"}:
                raise SpecValidationError(f"set literal {piece!r} not understood")
            p = Fraction(str(piece["point"]))
            return IntervalSet.from_pieces((), [p])
        if (
            isinstance(piece, list)
            and len(piece) == 2
            and isinstance(piece[0], list)
            and len(piece[0]) == 2
        ):
            lo, hi = (Fraction(str(v)) for v in piece[0])
            return interval(lo, hi, str(piece[1]))
        raise SpecValidationError(f"set literal {piece!r} not understood")

    try:
        pieces = desc if (isinstance(desc, list) and desc and not _is_arc_literal(desc)) else [desc]
        acc = IntervalSet.empty()
        for piece in pieces:
            acc = acc.union(one(piece))
        return acc
    except (HclabError, ValueError) as exc:
        diags.append(f"sets: {exc}")
        return None


def _is_arc_literal(desc) -> bool:
    return (
        isinstance(desc, list)
        and len(desc) == 2
        and isinstance(desc[0], list)
        and isinstance(desc[1], str)
    )


def _parse_padic_set(group, desc, diags):
    def one(piece):
        if not isinstance(piece, dict) or set(piece) != {"center", "radius_exp"}:
            raise SpecValidationError(f"ball literal {piece!r} not understood")
        return ball(group, group.element(Fraction(str(piece["center"]))), int(piece["radius_exp"]))

    try:
        pieces = desc if isinstance(desc, list) else [desc]
        acc = BallSet.empty(group)
        for piece in pieces:
            acc = acc.union(one(piece))
        return acc
    except (HclabError, ValueError) as exc:
        diags.append(f"sets: {exc}")
        return None


def _parse_sets(group, descs, diags):
    out, ids = [], []
    for i, desc in enumerate(descs):
        if group is CIRCLE:
            s = _parse_circle_set(desc, diags)
        elif isinstance(group, PAdicContext):
            s = _parse_padic_set(group, desc, diags)
        elif isinstance(group, FiniteGroup):
            if isinstance(desc, dict) and set(desc) == {"indices"}:
                s = FiniteSubset.of(group, [int(v) for v in desc["indices"]])
            else:
                diags.append(f"sets: finite sets need {{'indices': [...]}}, got {desc!r}")
                s = None
        else:
            s = None
        if s is not None:
            out.append(s)
            ids.append(f"set{i}")
    return out, ids


def _parse_weight(group, desc, diags):
    if desc is None:
        return None
    try:
        if group is CIRCLE:
            if isinstance(desc, dict) and "expr" in desc:
                extra = set(desc) - {"expr", "grid_points"}
                if extra:
                    diags.append(f"weight: unknown fields {sorted(extra)}")
                return ExprWeight(str(desc["expr"]), int(desc.get("grid_points", 4096)))
            if isinstance(desc, dict) and "step" in desc:
                pieces = []
                for entry in desc["step"]:
                    set_desc, value = entry
                    E = _parse_circle_set(set_desc, diags)
                    if E is None:
                        return None
                    pieces.append((E, Fraction(str(value))))
                return StepWeight(StepFunction.of(pieces))
            diags.append("weight: circle weights need 'expr' or 'step'")
            return None
        if isinstance(group, FiniteGroup):
            if isinstance(desc, dict) and "values" in desc:
                return FiniteWeight(group, [Fraction(str(v)) for v in desc["values"]])
            diags.append("weight: finite weights need {'values': [...]}")
            return None
        if isinstance(group, PAdicContext):
            table_desc = desc.get("table", desc) if isinstance(desc, dict) else None
            if not isinstance(table_desc, dict) or "values" not in table_desc:
                diags.append("weight: p-adic weights need {'level': k, 'values': {...}}")
                return None
            level = int(table_desc.get("level", group.precision))
            size = group.prime ** (level + group.window)
            values = {}
            for key, val in table_desc["values"].items():
                res = group.element(Fraction(str(key))).residue % size
                values[res] = Fraction(str(val))
            declared = bool(desc.get("declared_locally_constant", True)) if isinstance(desc, dict) else True
            return PAdicTableWeight(group, level, values, declared)
    except (HclabError, ValueError) as exc:
        diags.append(f"weight: {exc}")
        return None
    diags.append("weight: unsupported group")
    return None


def parse_spec(raw: dict, task: str) -> tuple[ExperimentSpec | None, list[str]]:
    diags: list[str] = []
    if not isinstance(raw, dict):
        return None, ["spec: top level must be a JSON object"]
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        diags.append(f"spec: unknown fields {sorted(unknown)}")
    if raw.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        diags.append(f"spec: unsupported schema {raw.get('schema')!r}")
    horizons = raw.get("horizons", {})
    if not isinstance(horizons, dict) or set(horizons) - _HORIZON_KEYS:
        diags.append(f"horizons: allowed keys {sorted(_HORIZON_KEYS)}")
        horizons = {}
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict) or set(tolerances) - _TOLERANCE_KEYS:
        diags.append(f"tolerances: allowed keys {sorted(_TOLERANCE_KEYS)}")
        tolerances = {}

    group = _parse_group(raw.get("group"), diags)
    if group is None:
        return None, diags
    element = _parse_element(group, raw.get("element"), diags)
    weight = _parse_weight(group, raw.get("weight"), diags)
    sets, set_ids = _parse_sets(group, raw.get("sets", []), diags)
    characters = _parse_int_list(raw.get("characters", []), "characters", None, diags) or []
    if "N_list" in horizons:
        _parse_int_list(horizons["N_list"], "horizons.N_list", 2, diags)

    spec = ExperimentSpec(
        raw=raw,
        task=task,
        group=group,
        element=element,
        weight=weight,
        sets=sets,
        set_ids=set_ids,
        characters=characters,
        horizons=horizons,
        tolerances=tolerances,
        lp_exponent=raw.get("lp_exponent"),
        label=str(raw.get("label", "")),
    )

    # task-specific requirements
    needs_element = task in ("equidist", "hctest", "padic") or (
        task == "all" and group is not CIRCLE
    )
    if needs_element and element is None:
        diags.append(f"{task}: an 'element' is required")
    if task in ("hctest", "padic") and weight is None:
        diags.append(f"{task}: a 'weight' is required")
    if task == "equidist" and not sets and not characters:
        diags.append("equidist: at least one set or character is required")
    if task == "padic" and not isinstance(group, PAdicContext):
        diags.append("padic: requires a zp or qp group")
    if task == "reps" and not isinstance(group, FiniteGroup) and group is not CIRCLE:
        diags.append("reps: requires a finite group or the circle")
    if task == "reps" and group is CIRCLE and element is None:
        diags.append("reps: the circle variant needs an 'element'")
    return spec, diags


def validate(raw: dict, task: str) -> list[str]:
    """Human-readable diagnostics; empty iff the spec is runnable."""
    _, diags = parse_spec(raw, task)
    return diags


# ---------------------------------------------------------------------------
# task runners


def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _run_equidist(spec: ExperimentSpec, out_dir: str) -> dict:
    N_list = [int(n) for n in spec.horizons.get("N_list", [10, 100, 1000])]
    seq = OrbitSequence(spec.group, spec.element)
    rows = []
    summary = []
    for set_id, K in zip(spec.set_ids, spec.sets):
        for N in sorted(N_list):
            dev = sup_deviation(K, seq, N)
            rows.append([N, set_id, repr(dev), ""])
            summary.append({"N": N, "set_id": set_id, "sup_deviation": dev})
    if spec.characters and spec.group is CIRCLE:
        samples = np.arange(128) / 128.0
        for k in spec.characters:
            f = TestFunction.character(k)
            for point in uniform_convergence_sweep(f, spec.element, sorted(N_list), samples):
                bound = "" if point.bound is None else repr(point.bound)
                rows.append([point.N, f"char{k}", repr(point.sup_deviation), bound])
                summary.append(
                    {"N": point.N, "set_id": f"char{k}",
                     "sup_deviation": point.sup_deviation, "bound": point.bound}
                )
    _write_csv(os.path.join(out_dir, "equidist.csv"),
               ["N", "set_id", "sup_deviation", "bound"], rows)
    return {"rows": summary}


def _run_reps(spec: ExperimentSpec, out_dir: str) -> dict:
    if spec.group is CIRCLE:
        k_max = int(spec.horizons.get("k_max", 64))
        k = circle_has_fixed_character(spec.element, k_max)
        return {
            "kind": "circle",
            "k_max": k_max,
            "fixed_character": k,
            "has_fixed_character": k is not None,
        }
    group = spec.group
    elements = [spec.element] if spec.element is not None else list(group.elements())
    per_element = []
    for a in elements:
        cert = fixed_irrep_multiplicity(a, group)
        per_element.append(
            {"element": a, "order": cert.order,
             "multiplicity": cert.multiplicity, "verdict": cert.verdict}
        )
    return {
        "kind": "finite",
        "group": group.name,
        "order": group.order,
        "noncyclic_equivalence_holds": noncyclic_equivalence_check(group),
        "elements": per_element,
    }


def _monotone_trace(spec: ExperimentSpec) -> list[list]:
    """Running min/max of the n-step products, grid- or table-level."""
    w, a = spec.weight, spec.element
    n_max = int(spec.horizons.get("n_max", 20))
    out = []
    if spec.group is CIRCLE:
        xs = np.arange(256) / 256.0
        acc = np.zeros(256)
        af = float(a.value)
        for n in range(1, n_max + 1):
            pts = np.mod(xs - (n - 1) * af, 1.0)
            vals = np.asarray(w.eval_angles(pts), dtype=float) if isinstance(w, ExprWeight) \
                else np.array([w.value_at(float(t)) for t in pts])
            acc = acc + np.log(vals)
            fired = bool(acc.min() >= 0 or acc.max() <= 0)
            out.append([n, repr(float(np.exp(acc.min()))), repr(float(np.exp(acc.max()))), fired])
    else:
        for n, row in zip(range(1, n_max + 1), step_products(w, a)):
            mn, mx = min(row), max(row)
            out.append([n, repr(float(mn)), repr(float(mx)), bool(mn >= 1 or mx <= 1)])
    return out


def _run_hctest(spec: ExperimentSpec, out_dir: str, rep: VerdictReport) -> dict:
    log_res = None
    try:
        log_res = log_integral_report(spec.weight, spec.verdict_config().quadrature_points)
    except HclabError:
        pass
    _write_csv(os.path.join(out_dir, "scan.csv"),
               ["n", "w_n_min", "w_n_max", "monotone_fired"], _monotone_trace(spec))
    payload = rep.to_dict()
    if log_res is not None:
        payload["log_integral"] = jsonable(
            {"value": log_res.value, "method": log_res.method,
             "exact": log_res.exact, "exact_zero": log_res.exact_zero,
             "richardson_gap": log_res.richardson_gap}
        )
    return payload


def _run_padic(spec: ExperimentSpec, out_dir: str, rep: VerdictReport) -> dict:
    group, w, a = spec.group, spec.weight, spec.element
    n_max = spec.verdict_config().resolved_ul_n_max(group)
    rows = []
    if group.window == 0:
        for witness in padic_mod.ul_trace(w, a, n_max):
            rows.append(
                [witness.n, 0, str(witness.radius), witness.u_nonempty, witness.l_nonempty,
                 " ".join(map(str, witness.u_witnesses)),
                 " ".join(map(str, witness.l_witnesses))]
            )
    _write_csv(os.path.join(out_dir, "ul_witness.csv"),
               ["n", "x_prime", "radius", "u_nonempty", "l_nonempty",
                "u_witnesses", "l_witnesses"], rows)
    payload = rep.to_dict()
    payload["locally_constant_level"] = padic_mod.is_locally_constant(w)
    if not a.is_zero():
        cosets = padic_mod.coset_log_integrals(w, a)
        payload["coset_log_integrals"] = [
            {"coset": str(c.coset), "value": c.value,
             "global_share": c.global_share, "exact_zero": c.is_zero}
            for c in cosets
        ]
        payload["coset_log_integral_total"] = sum(c.global_share for c in cosets)
    return payload


def run(spec: ExperimentSpec, out_dir: str, threads: int = 1) -> dict:
    """Execute the resolved spec, write artifacts, return the report payload."""
    os.makedirs(out_dir, exist_ok=True)
    results: dict = {}
    tasks = [spec.task]
    if spec.task == "all":
        tasks = ["equidist"] if spec.sets or spec.characters else []
        if isinstance(spec.group, FiniteGroup) or spec.group is CIRCLE:
            tasks.append("reps")
        if spec.weight is not None:
            tasks.append("hctest")
        if isinstance(spec.group, PAdicContext) and spec.weight is not None:
            tasks.append("padic")
    # the hctest and padic runners share one verdict
    rep = None
    if "hctest" in tasks or "padic" in tasks:
        rep = verdict(spec.weight, spec.element, spec.verdict_config())
    for task in tasks:
        if task == "equidist":
            results[task] = _run_equidist(spec, out_dir)
        elif task == "reps":
            results[task] = _run_reps(spec, out_dir)
        elif task == "hctest":
            results[task] = _run_hctest(spec, out_dir, rep)
        else:
            results[task] = _run_padic(spec, out_dir, rep)
    envelope = {
        "schema": SCHEMA_VERSION,
        "task": spec.task,
        "label": spec.label,
        "spec_hash": spec.spec_hash,
        "lp_exponent": spec.lp_exponent,
        "threads": threads,
        "tolerances": jsonable(spec.tolerances),
        "horizons": jsonable(spec.horizons),
        "results": jsonable(results),
    }
    _write_json(os.path.join(out_dir, "report.json"), envelope)
    return envelope


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hclab",
        description="equidistribution statistics and weighted-translation necessary-condition tests",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS + ("validate",):
        p = sub.add_parser(task)
        p.add_argument("--spec", help="experiment JSON file")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("HCLAB_THREADS", "1")))
        if task == "reps":
            p.add_argument("--group", help="catalog group name (shortcut for a spec file)")
            p.add_argument("--element", type=int, help="restrict to one element index")
        if task == "validate":
            p.add_argument("--task", dest="target_task", default="all",
                           choices=TASKS, help="task to validate against")
    return parser


def _load_raw(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    task = args.task

    try:
        if task == "reps" and args.spec is None and getattr(args, "group", None):
            raw = {"schema": 1, "task": "reps", "group": {"group": "finite", "name": args.group}}
            if args.element is not None:
                raw["element"] = args.element
        elif args.spec is None:
            print("error: --spec is required", file=sys.stderr)
            return 2
        else:
            raw = _load_raw(args.spec)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    target = getattr(args, "target_task", task)
    if task == "validate":
        diags = validate(raw, target)
        for d in diags:
            print(d)
        return 0 if not diags else 2

    spec, diags = parse_spec(raw, task)
    if diags or spec is None:
        for d in diags:
            print(f"invalid spec: {d}", file=sys.stderr)
        return 2
    try:
        envelope = run(spec, args.out_dir, threads=args.threads)
    except HclabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    summary = {"task": envelope["task"], "spec_hash": envelope["spec_hash"][:12]}
    for name, payload in envelope["results"].items():
        if isinstance(payload, dict) and "verdict" in payload:
            summary[name] = payload["verdict"]
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
