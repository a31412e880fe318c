"""Experiment runner: declarative JSON specs in, JSON reports and CSV traces out.

Usage:  hclab <task> --spec experiment.json [--out-dir DIR]

Tasks: equidist, reps, hctest, padic, all, validate.  Exit codes: 0 on
success (a NotHypercyclic verdict is data, not failure), 2 for parse or
validation errors, 3 for runtime errors.  Rational numbers in spec files are
strings like "1/2" so nothing is lost to float parsing; re-running the same
spec reproduces every output byte for byte.
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
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from . import padic as padic_mod
from .borel import BallSet, FiniteSubset, IntervalSet, arc_pieces
from .equidist import TestFunction, sup_deviation, uniform_convergence_sweep
from .errors import HclabError, SpecValidationError
from .groups import (CIRCLE, MAX_CIRCLE_HORIZON, MAX_ORBIT_DENOMINATOR, FiniteGroup, OrbitSequence,
                     PAdicContext, catalog)
from .hctest import VerdictConfig, log_integral_report, log_sum_bits, verdict
from .repcheck import circle_has_fixed_character, fixed_irrep_multiplicity, noncyclic_equivalence_check
from .report import VerdictReport, jsonable
from .weights import ExprWeight, FiniteWeight, PAdicTableWeight, StepFunction, StepWeight

SCHEMA_VERSION = 1
TASKS = ("equidist", "reps", "hctest", "padic", "all")

_TOP_KEYS = {
    "schema", "task", "group", "element", "weight", "sets", "characters",
    "horizons", "tolerances", "lp_exponent", "label",
}
_HORIZON_KEYS = {"N_list", "n_max", "ul_n_max", "k_max"}
_TOLERANCE_KEYS = {"log_tolerance", "quadrature_points", "grid_points"}
# the most residues p^(precision + window) a zp / qp context may have: the
# exhaustive p-adic paths visit every residue
MAX_PADIC_RESIDUES = 3 ** 8
# the most bits the exact log-sum of a step, finite or p-adic table weight
# may form: its reported value forms prod_i v_i^(c_i), c_i = m_i D, for
# masses m_i over their common denominator D (``hctest.log_sum_bits``).  It
# also bounds every exponent a value has over its coprime base by 2^22
MAX_LOG_SUM_BITS = 2 ** 22
# integer settings, their minima and maxima: a walk of n_max rows holds
# exponents up to n_max * 2^22, below 2^62 at the circle horizon 10^7
_INT_SETTINGS = (
    ("horizons", "n_max", 1, MAX_CIRCLE_HORIZON), ("horizons", "ul_n_max", 1, MAX_CIRCLE_HORIZON),
    ("horizons", "k_max", 1, None),
    ("tolerances", "grid_points", 1, None), ("tolerances", "quadrature_points", 2, None),
)


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
            ul_n_max=int(self.horizons["ul_n_max"]) if "ul_n_max" in self.horizons else None,
            metadata={"lp_exponent": self.lp_exponent} if self.lp_exponent else {},
        )


# ---------------------------------------------------------------------------
# parsing


@functools.lru_cache(maxsize=4096)
def _rational(text: str) -> Fraction:
    """The rational a spec string spells; a weight's tables repeat a few
    strings, so each is parsed once."""
    return Fraction(text)


def _parse_int(value, field, minimum, diags, maximum=None):
    """An integer in [minimum, maximum] (a JSON integer or an integer
    string; None leaves that side open), or None with a diagnostic that
    names the field."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        k = int(value)
    except ValueError:
        diags.append(f"{field}: {value!r} is not an integer")
        return None
    if minimum is not None and k < minimum:
        diags.append(f"{field}: {value!r} is below the minimum {minimum}")
        return None
    if maximum is not None and k > maximum:
        diags.append(f"{field}: {value!r} is above the maximum {maximum}")
        return None
    return k


def _parse_int_list(value, field, minimum, diags, maximum=None):
    """A list of integers in [minimum, maximum], or None with a diagnostic
    that names the field."""
    if not isinstance(value, list):
        diags.append(f"{field}: expected a list of integers, got {value!r}")
        return None
    out = [_parse_int(entry, field, minimum, diags, maximum) for entry in value]
    return None if None in out else out


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
        if not isinstance(name, str) or name not in groups:
            diags.append(f"group: unknown finite group {name!r}; catalog: {sorted(groups)}")
            return None
        return groups[name]
    if kind in ("zp", "qp"):
        allowed = {"group", "p", "precision"} | ({"window"} if kind == "qp" else set())
        extra = set(desc) - allowed
        if extra:
            diags.append(f"group: unknown fields {sorted(extra)}")
        p = _parse_int(desc.get("p"), "group.p", 2, diags)
        precision = _parse_int(desc.get("precision", 4), "group.precision", 1, diags)
        window = _parse_int(desc.get("window", 0), "group.window", 0, diags)
        if None in (p, precision, window):
            return None
        digits = precision + window
        # p >= 2, so a digit count at the limit's bit length already exceeds
        # it; testing that first never forms a huge power
        if digits >= MAX_PADIC_RESIDUES.bit_length() or p ** digits > MAX_PADIC_RESIDUES:
            diags.append(f"group: {p}^{digits} residues exceed the limit {MAX_PADIC_RESIDUES}")
            return None
        # the residue limit keeps p small enough for trial division
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            diags.append(f"group: p = {p} is not a prime")
            return None
        return PAdicContext(p, precision, window)
    diags.append(f"group: unknown kind {kind!r}")
    return None


def _parse_element(group, desc, diags):
    if desc is None:
        return None
    try:
        if group is CIRCLE:
            if isinstance(desc, dict):
                if "rational" in desc:
                    element = CIRCLE.element(str(desc["rational"]))
                elif "angle" in desc:
                    element = CIRCLE.from_float(float(desc["angle"]))
                else:
                    diags.append("element: need 'rational' or 'angle'")
                    return None
            elif isinstance(desc, str):
                element = CIRCLE.element(desc)
            else:
                element = CIRCLE.from_float(float(desc))
            # the orbit is held as integer residues mod the angle's denominator
            if element.value.denominator > MAX_ORBIT_DENOMINATOR:
                diags.append(f"element: the angle's denominator, at least "
                             f"2^{element.value.denominator.bit_length() - 1}, exceeds the limit "
                             f"2^{MAX_ORBIT_DENOMINATOR.bit_length() - 1}")
                return None
            return element
        if isinstance(group, FiniteGroup):
            if isinstance(desc, dict):
                if "index" not in desc:
                    diags.append("element: need 'index'")
                    return None
                desc = desc["index"]
            idx = _parse_int(desc, "element", 0, diags)
            if idx is not None and idx >= group.order:
                diags.append(f"element: index {idx} out of range for {group.name}")
                return None
            return idx
        if isinstance(group, PAdicContext):
            if isinstance(desc, dict):
                if "digits" in desc:
                    digits = _parse_int_list(desc["digits"], "element.digits", 0, diags)
                    return None if digits is None else group.from_digits(digits)
                if "value" in desc:
                    return group.element(Fraction(str(desc["value"])))
                diags.append("element: need 'digits' or 'value'")
                return None
            return group.element(Fraction(str(desc)))
    except (HclabError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        diags.append(f"element: {exc}")
        return None
    diags.append("element: unsupported group")
    return None


def _parse_circle_set(desc, diags):
    arcs, points = [], []
    try:
        pieces = desc if (isinstance(desc, list) and desc and not _is_arc_literal(desc)) else [desc]
        for piece in pieces:
            if isinstance(piece, dict) and set(piece) == {"point"}:
                points.append(Fraction(str(piece["point"])))
            elif (
                isinstance(piece, list)
                and len(piece) == 2
                and isinstance(piece[0], list)
                and len(piece[0]) == 2
            ):
                lo, hi = (Fraction(str(v)) for v in piece[0])
                arc, ends = arc_pieces(lo, hi, str(piece[1]))
                arcs.append(arc)
                points += ends
            else:
                raise SpecValidationError(f"set literal {piece!r} not understood")
        return IntervalSet.from_pieces(arcs, points)
    except (HclabError, ValueError, ZeroDivisionError) as exc:
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
    try:
        pieces = desc if isinstance(desc, list) else [desc]
        balls = []
        for piece in pieces:
            if not isinstance(piece, dict) or set(piece) != {"center", "radius_exp"}:
                raise SpecValidationError(f"ball literal {piece!r} not understood")
            radius_exp = _parse_int(piece["radius_exp"], "sets.radius_exp", None, diags)
            if radius_exp is None:
                return None
            balls.append((radius_exp, group.element(Fraction(str(piece["center"]))).residue))
        return BallSet.from_balls(group, balls)
    except (HclabError, ValueError, ZeroDivisionError) as exc:
        diags.append(f"sets: {exc}")
        return None


def _parse_sets(group, descs, diags):
    out, ids = [], []
    if not isinstance(descs, list):
        diags.append(f"sets: expected a list of sets, got {descs!r}")
        return out, ids
    for i, desc in enumerate(descs):
        if group is CIRCLE:
            s = _parse_circle_set(desc, diags)
        elif isinstance(group, PAdicContext):
            s = _parse_padic_set(group, desc, diags)
        elif isinstance(group, FiniteGroup):
            s = None
            if isinstance(desc, dict) and set(desc) == {"indices"}:
                indices = _parse_int_list(desc["indices"], "sets", 0, diags)
                try:
                    s = FiniteSubset.of(group, indices) if indices is not None else None
                except ValueError as exc:
                    diags.append(f"sets: {exc}")
            else:
                diags.append(f"sets: finite sets need {{'indices': [...]}}, got {desc!r}")
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
                grid_points = _parse_int(desc.get("grid_points", 4096), "weight.grid_points", 1, diags)
                if grid_points is None:
                    return None
                return ExprWeight(str(desc["expr"]), grid_points)
            if isinstance(desc, dict) and "step" in desc:
                pieces = []
                for entry in desc["step"]:
                    set_desc, value = entry
                    E = _parse_circle_set(set_desc, diags)
                    if E is None:
                        return None
                    pieces.append((E, _rational(str(value))))
                return StepWeight(StepFunction.of(pieces))
            diags.append("weight: circle weights need 'expr' or 'step'")
            return None
        if isinstance(group, FiniteGroup):
            if isinstance(desc, dict) and "values" in desc:
                return FiniteWeight(group, [_rational(str(v)) for v in desc["values"]])
            diags.append("weight: finite weights need {'values': [...]}")
            return None
        if isinstance(group, PAdicContext):
            nested = isinstance(desc, dict) and "table" in desc
            table_desc = desc["table"] if nested else desc
            if not isinstance(table_desc, dict) or not isinstance(table_desc.get("values"), dict):
                diags.append("weight: p-adic weights need {'level': k, 'values': {...}}")
                return None
            if nested:
                extra = ((set(desc) - {"table", "declared_locally_constant"})
                         | (set(table_desc) - {"level", "values"}))
            else:
                extra = set(desc) - {"level", "values", "declared_locally_constant"}
            if extra:
                diags.append(f"weight: unknown fields {sorted(extra)}")
            # checked before p^(level + window) is formed
            level = _parse_int(table_desc.get("level", group.precision), "weight.level",
                               -group.window, diags, maximum=group.precision)
            if level is None:
                return None
            size = group.prime ** (level + group.window)
            values = {}
            for key, val in table_desc["values"].items():
                res = group.element(_rational(str(key))).residue % size
                values[res] = _rational(str(val))
            declared = desc.get("declared_locally_constant", True)
            if not isinstance(declared, bool):
                diags.append(f"weight: declared_locally_constant must be true or false, got {declared!r}")
                return None
            return PAdicTableWeight(group, level, values, declared)
    except (HclabError, TypeError, ValueError, ZeroDivisionError) as exc:
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
    if weight is not None:
        bits = log_sum_bits(weight)
        if bits > MAX_LOG_SUM_BITS:
            diags.append(f"weight: the exact log-sum forms powers of at least 2^{bits.bit_length() - 1} bits, "
                         f"above the limit 2^{MAX_LOG_SUM_BITS.bit_length() - 1}")
    sets, set_ids = _parse_sets(group, raw.get("sets", []), diags)
    characters = _parse_int_list(raw.get("characters", []), "characters", None, diags) or []
    if characters and group is not CIRCLE:
        diags.append("characters: character sweeps need the circle group")
    if "N_list" in horizons:
        # circle statistics hold up to N residues per orbit
        if _parse_int_list(horizons["N_list"], "horizons.N_list", 2, diags,
                           MAX_CIRCLE_HORIZON if group is CIRCLE else None) == []:
            diags.append("horizons.N_list: expected at least one horizon")
    sections = {"horizons": horizons, "tolerances": tolerances}
    for section, key, minimum, maximum in _INT_SETTINGS:
        if key in sections[section]:
            _parse_int(sections[section][key], f"{section}.{key}", minimum, diags, maximum)
    if "log_tolerance" in tolerances:
        tol = tolerances["log_tolerance"]
        try:
            ok = not isinstance(tol, bool) and math.isfinite(float(tol)) and float(tol) >= 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            diags.append(f"tolerances.log_tolerance: expected a number >= 0, got {tol!r}")

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

    # task-specific requirements; a field that was given but rejected
    # already has its own diagnostic.  A weight given to ``all`` runs the
    # verdict, which translates by the element
    needs_element = task in ("equidist", "hctest", "padic") or (
        task == "all" and (group is not CIRCLE or raw.get("weight") is not None)
    )
    if needs_element and raw.get("element") is None:
        diags.append(f"{task}: an 'element' is required")
    if task in ("hctest", "padic") and raw.get("weight") is None:
        diags.append(f"{task}: a 'weight' is required")
    if task == "equidist" and raw.get("sets", []) == [] and raw.get("characters", []) == []:
        diags.append("equidist: at least one set or character is required")
    if task == "padic" and not isinstance(group, PAdicContext):
        diags.append("padic: requires a zp or qp group")
    if task == "reps" and not isinstance(group, FiniteGroup) and group is not CIRCLE:
        diags.append("reps: requires a finite group or the circle")
    if task == "reps" and group is CIRCLE and raw.get("element") is None:
        diags.append("reps: the circle variant needs an 'element'")
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


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    """Stream the rows into the file as they are made; none is held."""
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _run_equidist(spec: ExperimentSpec, out_dir: str) -> dict:
    Ns = sorted({int(n) for n in spec.horizons.get("N_list", [10, 100, 1000])})
    seq = OrbitSequence(spec.group, spec.element)
    rows = []
    summary = []
    for set_id, devs in zip(spec.set_ids, sup_deviation(spec.sets, seq, Ns)):
        for N, dev in zip(Ns, devs):
            rows.append([N, set_id, repr(dev), ""])
            summary.append({"N": N, "set_id": set_id, "sup_deviation": dev})
    for k in spec.characters:
        f = TestFunction.character(k)
        for point in uniform_convergence_sweep(f, spec.element, Ns):
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


def _run_hctest(spec: ExperimentSpec, out_dir: str, rep: VerdictReport) -> dict:
    config = spec.verdict_config()
    log_res = rep.log_integral
    if log_res is None:  # the battery stopped before its log rule
        try:
            log_res = log_integral_report(spec.weight, config.quadrature_points)
        except HclabError:
            pass
    rows = islice(rep.walk.hits(), config.monotone_n_max)
    _write_csv(os.path.join(out_dir, "scan.csv"),
               ["n", "w_n_min", "w_n_max", "monotone_fired"],
               ([r.n, repr(r.min_value), repr(r.max_value), r.direction is not None]
                for r in rows))
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
    # a windowed context has its U/L rows in its coset problems
    origins = (ul.origin for ul in islice(rep.walk.ul_rows(), n_max)) if group.window == 0 else ()
    _write_csv(os.path.join(out_dir, "ul_witness.csv"),
               ["n", "x_prime", "radius", "u_nonempty", "l_nonempty",
                "u_witnesses", "l_witnesses"],
               ([o.n, 0, str(o.radius), o.u_nonempty, o.l_nonempty,
                 " ".join(map(str, o.u_witnesses)), " ".join(map(str, o.l_witnesses))]
                for o in origins))
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


def run(spec: ExperimentSpec, out_dir: str) -> dict:
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
        "tolerances": jsonable(spec.tolerances),
        "horizons": jsonable(spec.horizons),
        "results": jsonable(results),
    }
    _write_json(os.path.join(out_dir, "report.json"), envelope)
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


def _load_raw(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
        envelope = run(spec, args.out_dir)
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
