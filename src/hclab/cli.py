"""Experiment runner: declarative JSON specs in, JSON reports and CSV traces out.

Usage:  hclab <task> --spec experiment.json [--out-dir DIR]

Tasks: equidist, reps, hctest, padic, all, validate.  Exit codes: 0 on
success (a NotHypercyclic verdict is data, not failure), 2 for parse or
validation errors, 3 for runtime errors, an unusable --out-dir among them.
Each spec object is read by its one table (``families.read_fields``).
Rational numbers in spec files are strings like "1/2" so nothing is lost to
float parsing; re-running the same spec reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import islice

from . import padic as padic_mod
from .equidist import _resolved, sup_deviation, uniform_convergence_sweep
from .errors import HclabError
from .families import (_FIELD_ERRORS, MAX_EXHAUSTIVE_PAIRS, MAX_GRID_POINTS, _given, _integer, _parse_int_list,
                       family, parse_group, read_fields)
from .groups import MAX_CIRCLE_HORIZON, OrbitSequence
from .hctest import VerdictConfig, log_integral_report, verdict
from .report import VerdictReport, jsonable

SCHEMA_VERSION = 1
TASKS = ("equidist", "reps", "hctest", "padic", "all")


def _horizon_list(value, name, diags, group):
    horizons = _parse_int_list(value, name, 2, diags, family(group).max_horizon)
    if horizons == []:
        diags.append(f"{name}: expected at least one horizon")
    return horizons


def _tolerance(value, name, diags, group):
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, bool) and math.isfinite(float(value)) and float(value) >= 0:
            return float(value)
    diags.append(f"{name}: expected a number >= 0, got {value!r}")


# the tables of the settings objects; N_list and k_max are ``ExperimentSpec``'s
# own settings, the others ``VerdictConfig`` fields, named as here but for
# ``_VERDICT_FIELDS``.  A literal spells integers below 2^28600, so a value's
# exponents are below 28600, and a walk of n_max <= 10^7 rows keeps its
# exponents below 2.9e11 < 2^62
_SETTINGS = {
    "horizons": {"N_list": _horizon_list, "n_max": _integer(1, MAX_CIRCLE_HORIZON),
                 "ul_n_max": _integer(1, MAX_CIRCLE_HORIZON), "k_max": _integer(1)},
    "tolerances": {"grid_points": _integer(1, MAX_GRID_POINTS), "quadrature_points": _integer(2, MAX_GRID_POINTS),
                   "log_tolerance": _tolerance},
}
_OWN_SETTINGS = ("N_list", "k_max")
_VERDICT_FIELDS = {"n_max": "monotone_n_max", "grid_points": "monotone_grid"}


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
    characters: list = field(default_factory=list)
    horizons: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    # the VerdictConfig fields the spec's settings give
    verdict_settings: dict = field(default_factory=dict)
    # the orbit horizons of equidist and the character search bound of reps
    N_list: list = field(default_factory=lambda: [10, 100, 1000])
    k_max: int = 64
    lp_exponent: float | None = None
    label: str = ""

    @property
    def spec_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def verdict_config(self) -> VerdictConfig:
        """The settings the spec gives over ``VerdictConfig``'s defaults."""
        return VerdictConfig(**self.verdict_settings)


# ---------------------------------------------------------------------------
# parsing


def _parse_field(name, parse, group, desc, diags):
    """``desc`` by the family parser ``parse``; a raised error names the field."""
    try:
        return parse(group, desc, diags)
    except _FIELD_ERRORS as exc:
        diags.append(f"{name}: {exc}")
        return None


def _family_field(parser):
    """The reader of a field by the family's ``parser``; a null is not given."""
    return lambda value, name, diags, group: (
        None if value is None else _parse_field(name, getattr(family(group), parser), group, value, diags))


def _sets(value, name, diags, group):
    if not isinstance(value, list):
        diags.append(f"{name}: expected a list of sets, got {value!r}")
        return []
    parsed = (_parse_field(name, family(group).parse_set, group, desc, diags) for desc in value)
    return [s for s in parsed if s is not None]


def _characters(value, name, diags, group):
    characters = _parse_int_list(value, name, None, diags)
    if characters and not family(group).characters:
        diags.append(f"{name}: character sweeps need the circle group")
    return characters or []


def _settings(value, name, diags, group):
    fields = read_fields(value, name, _SETTINGS[name], diags, group)
    if fields is None:
        diags.append(f"{name}: expected an object, got {value!r}")
    return fields or {}


def _lp_exponent(value, name, diags, group):
    # a JSON number, finite and >= 1, compared as it is: a long integer never overflows
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 1 <= value < math.inf:
        return value
    diags.append(f"{name}: expected a finite number >= 1, got {value!r}")


# the top-level fields, each read with the spec's group, which is read first
_SPEC_FIELDS = {
    "schema": _integer(SCHEMA_VERSION, SCHEMA_VERSION), "group": _given,
    "label": lambda value, *_: str(value), "element": _family_field("parse_element"),
    "weight": _family_field("parse_weight"), "sets": _sets, "characters": _characters,
    "horizons": _settings, "tolerances": _settings, "lp_exponent": _lp_exponent,
}


def _unmet(raw, fam, task) -> Iterator[str]:
    """The diagnostics of the fields ``task`` needs and the spec lacks; a
    field that was given but rejected already has its own.  Every task but
    reps reads the element, and reps reads it on the families that say so."""
    if raw.get("element") is None:
        if task != "reps":
            yield f"{task}: an 'element' is required"
        elif fam.reps_element:
            yield fam.reps_element
    if task in ("hctest", "padic") and raw.get("weight") is None:
        yield f"{task}: a 'weight' is required"
    if task == "equidist" and raw.get("sets", []) == [] and raw.get("characters", []) == []:
        yield "equidist: at least one set or character is required"
    if task in fam.task_needs:
        yield fam.task_needs[task]


def parse_spec(raw: dict, task: str) -> tuple[ExperimentSpec | None, list[str]]:
    if not isinstance(raw, dict):
        return None, ["spec: top level must be a JSON object"]
    diags: list[str] = []
    group = parse_group(raw.get("group"), diags)
    # without a group only the keys are checked: the family reads the rest
    fields = read_fields(raw, "", _SPEC_FIELDS if group else dict.fromkeys(_SPEC_FIELDS, _given), diags, group)
    if group is None:
        return None, diags
    settings = {**fields.get("horizons", {}), **fields.get("tolerances", {})}
    spec = ExperimentSpec(
        raw=raw, task=task, group=group, element=fields.get("element"), weight=fields.get("weight"),
        sets=fields.get("sets", []), characters=fields.get("characters", []), horizons=raw.get("horizons", {}),
        tolerances=raw.get("tolerances", {}), **{k: settings[k] for k in _OWN_SETTINGS if k in settings},
        verdict_settings={_VERDICT_FIELDS.get(k, k): v for k, v in settings.items() if k not in _OWN_SETTINGS},
        lp_exponent=fields.get("lp_exponent"), label=fields.get("label", ""))
    fam = family(group)
    diags += _unmet(raw, fam, task)
    # a family with no largest horizon counts its orbits exhaustively: per
    # set and horizon N, every translate of the context R that resolves the
    # set against min(ord_R(step), N - 1) distinct terms
    if not diags and task in ("equidist", "all") and fam.max_horizon is None:
        seq, pairs = OrbitSequence(group, spec.element), 0
        for K in spec.sets:
            _, sub, _ = _resolved(K, seq)
            period = sub.group.element_order(sub.element)
            pairs += len(sub.group) * sum(min(period, N - 1) for N in set(spec.N_list))
        if pairs > MAX_EXHAUSTIVE_PAIRS:
            diags.append(f"equidist: the exhaustive counts visit {pairs} (translate, term) pairs, "
                         f"above the limit {MAX_EXHAUSTIVE_PAIRS}")
    return spec, diags


def validate(raw: dict, task: str) -> list[str]:
    """Human-readable diagnostics; empty iff the spec is runnable."""
    _, diags = parse_spec(raw, task)
    return diags


# ---------------------------------------------------------------------------
# task runners


@contextlib.contextmanager
def _replacing(path: str):
    """A text file that replaces ``path`` when the block completes; if the
    block fails, the partial file is removed and ``path`` is untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _atomic_write(path: str, data: str) -> None:
    with _replacing(path) as fh:
        fh.write(data)


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """Stream the rows into the file as they are made; none is held."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _run_equidist(spec: ExperimentSpec, out_dir: str) -> dict:
    Ns = sorted(set(spec.N_list))
    seq = OrbitSequence(spec.group, spec.element)
    rows = []
    summary = []
    for i, devs in enumerate(sup_deviation(spec.sets, seq, Ns)):
        for N, dev in zip(Ns, devs):
            rows.append([N, f"set{i}", repr(dev), ""])
            summary.append({"N": N, "set_id": f"set{i}", "sup_deviation": dev})
    for k in spec.characters:
        for point in uniform_convergence_sweep(k, spec.element, Ns):
            bound = "" if point.bound is None else repr(point.bound)
            rows.append([point.N, f"char{k}", repr(point.sup_deviation), bound])
            summary.append(
                {"N": point.N, "set_id": f"char{k}",
                 "sup_deviation": point.sup_deviation, "bound": point.bound}
            )
    _write_csv(os.path.join(out_dir, "equidist.csv"),
               ["N", "set_id", "sup_deviation", "bound"], rows)
    return {"rows": summary}


def _run_hctest(spec: ExperimentSpec, out_dir: str, rep: VerdictReport) -> dict:
    # the battery's log-integral, or, when it stopped before its log rule,
    # one at its quadrature setting; the scan to its monotone horizon
    log_res = rep.log_integral or log_integral_report(spec.weight, rep.tolerances["quadrature_points"])
    rows = islice(rep.walk.hits(), rep.horizons["monotone_n_max"])
    _write_csv(os.path.join(out_dir, "scan.csv"),
               ["n", "w_n_min", "w_n_max", "monotone_fired"],
               ([r.n, repr(r.min_value), repr(r.max_value), r.direction is not None]
                for r in rows))
    payload = rep.to_dict()
    payload["log_integral"] = jsonable(
        {"value": log_res.value, "method": log_res.method,
         "exact": log_res.exact, "exact_zero": log_res.exact_zero,
         "richardson_gap": log_res.richardson_gap}
    )
    return payload


def _run_padic(spec: ExperimentSpec, out_dir: str, rep: VerdictReport) -> dict:
    w, a = spec.weight, spec.element
    # none on a windowed context, whose U/L rows are in its coset problems
    origins = (ul.origin for ul in islice(rep.walk.ul_rows(), rep.walk.ul_n_max))
    _write_csv(os.path.join(out_dir, "ul_witness.csv"),
               ["n", "x_prime", "radius", "u_nonempty", "l_nonempty",
                "u_witnesses", "l_witnesses"],
               ([o.n, 0, str(o.radius), o.u_nonempty, o.l_nonempty,
                 " ".join(map(str, o.u_witnesses)), " ".join(map(str, o.l_witnesses))]
                for o in origins))
    payload = rep.to_dict()
    payload["locally_constant_level"] = padic_mod.is_locally_constant(w)
    if not a.is_zero():
        cosets = padic_mod.coset_log_integrals(rep.coset_problems or padic_mod.qp_reduction(w, a))
        payload["coset_log_integrals"] = [
            {"coset": str(c.coset), "value": c.value,
             "global_share": c.global_share, "exact_zero": c.is_zero}
            for c in cosets
        ]
        payload["coset_log_integral_total"] = sum(c.global_share for c in cosets)
    return payload


def run(spec: ExperimentSpec, out_dir: str) -> dict:
    """Execute the resolved spec, write artifacts, return the report payload."""
    os.makedirs(out_dir, exist_ok=True)
    results: dict = {}
    tasks = [spec.task]
    if spec.task == "all":  # each task whose needs the spec meets, in TASKS order
        tasks = [t for t in TASKS[:-1] if not any(_unmet(spec.raw, family(spec.group), t))]
    # the hctest and padic runners share one verdict
    rep = None
    if "hctest" in tasks or "padic" in tasks:
        rep = verdict(spec.weight, spec.element, spec.verdict_config())
        if spec.lp_exponent:  # carried as the report's metadata only
            rep = replace(rep, metadata={"lp_exponent": spec.lp_exponent})
    for task in tasks:
        if task == "equidist":
            results[task] = _run_equidist(spec, out_dir)
        elif task == "reps":
            results[task] = family(spec.group).reps(spec.group, spec.element, spec.k_max)
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
        "tolerances": jsonable(spec.tolerances),
        "horizons": jsonable(spec.horizons),
        "results": jsonable(results),
    }
    _atomic_write(os.path.join(out_dir, "report.json"), json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    return envelope


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hclab",
        description="equidistribution statistics and weighted-translation necessary-condition tests",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS + ("validate",):
        p = sub.add_parser(task)
        p.add_argument("--spec", help="experiment JSON file")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        if task == "reps":
            p.add_argument("--group", help="catalog group name (shortcut for a spec file)")
            p.add_argument("--element", type=int, help="restrict to one element index")
        if task == "validate":
            p.add_argument("--task", dest="target_task", default="all",
                           choices=TASKS, help="task to validate against")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    task = args.task

    try:
        if task == "reps" and args.spec is None and getattr(args, "group", None):
            raw = {"schema": 1, "group": {"group": "finite", "name": args.group}}
            if args.element is not None:
                raw["element"] = args.element
        elif args.spec is None:
            print("error: --spec is required", file=sys.stderr)
            return 2
        else:
            with open(args.spec) as fh:
                raw = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError, or an integer past 4300 digits
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    if task == "validate":
        diags = validate(raw, args.target_task)
        for d in diags:
            print(d)
        return 0 if not diags else 2

    spec, diags = parse_spec(raw, task)
    if diags or spec is None:
        for d in diags:
            print(f"invalid spec: {d}", file=sys.stderr)
        return 2
    try:
        envelope = run(spec, args.out_dir)
    except (HclabError, OSError) as exc:  # an --out-dir that is a file, or under one
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
