"""Correctness gate: answer fields taken from report.json, the properties each
generator built in, and comparison against recorded golden answers."""

from __future__ import annotations

import math

# float fields are compared against the golden answers within this relative
# tolerance (absolute below 1e-12); everything else must match exactly
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12


def _verdict_answer(payload: dict) -> dict:
    fired = payload.get("fired_rule")
    return {
        "verdict": payload["verdict"],
        "rule": fired and fired["rule"],
        "params": fired and fired["params"],
    }


def extract(report: dict) -> dict:
    """The answer fields of one report: verdicts with the fired rule and its
    params, equidist rows, reps multiplicities and fixed character, the
    log-integral value and exact_zero flag, the locally-constant level and
    the coset log-integrals."""
    results = report["results"]
    out = {}
    if "equidist" in results:
        out["equidist"] = [
            [row["N"], row["set_id"], row["sup_deviation"], row.get("bound")]
            for row in results["equidist"]["rows"]
        ]
    if "reps" in results:
        reps = results["reps"]
        if reps["kind"] == "circle":
            out["reps"] = {"fixed_character": reps["fixed_character"]}
        else:
            out["reps"] = {
                "noncyclic_equivalence_holds": reps["noncyclic_equivalence_holds"],
                "elements": [[e["element"], e["order"], e["multiplicity"]] for e in reps["elements"]],
            }
    if "hctest" in results:
        hc = results["hctest"]
        out["hctest"] = _verdict_answer(hc)
        log = hc.get("log_integral")
        if log is not None:
            out["hctest"]["log_integral"] = [log["value"], log["exact_zero"]]
    if "padic" in results:
        pa = results["padic"]
        out["padic"] = _verdict_answer(pa)
        out["padic"]["locally_constant_level"] = pa["locally_constant_level"]
        if "coset_log_integrals" in pa:
            out["padic"]["cosets"] = [
                [c["coset"], c["value"], c["exact_zero"]] for c in pa["coset_log_integrals"]
            ]
    return out


def check_properties(expect: dict, answer: dict) -> list[str]:
    """Properties the generator built into the spec, for any seed."""
    problems = []
    hc = answer.get("hctest")
    if "log_offset" in expect:  # circle-float
        value = hc["log_integral"][0]
        if not math.isclose(value, expect["log_offset"], abs_tol=1e-6):
            problems.append(f"log integral {value} != {expect['log_offset']}")
        if expect["log_offset"]:
            if hc["rule"] != "LogIntegralNonzero":
                problems.append(f"+ 1/10 weight fired {hc['rule']}, not LogIntegralNonzero")
        elif hc["verdict"] != "NecessaryConditionsPassed":
            problems.append(f"zero-mean sine weight gave {hc['verdict']} ({hc['rule']})")
        if answer["reps"]["fixed_character"] is not None:
            problems.append("irrational angle reported a fixed character")
        for N, set_id, dev, bound in answer["equidist"]:
            if set_id.startswith("char") and not dev <= bound * (1 + FLOAT_RTOL):
                problems.append(f"{set_id} N={N}: deviation {dev} above the bound {bound}")
    if "balanced" in expect:
        for task in ("hctest", "padic"):
            rule = answer.get(task, {}).get("rule")
            if expect["balanced"] and rule == "LogIntegralNonzero":
                problems.append(f"balanced weight fired LogIntegralNonzero in {task}")
        log = hc.get("log_integral")
        if log is not None and log[1] is not expect["balanced"]:
            problems.append(f"exact_zero is {log[1]} for balanced={expect['balanced']}")
        if not expect["balanced"] and not expect.get("finite") and hc["rule"] != "LogIntegralNonzero":
            problems.append(f"unbalanced step weight fired {hc['rule']}, not LogIntegralNonzero")
    if expect.get("declared_locally_constant"):
        for task in ("hctest", "padic"):
            if answer[task]["verdict"] != "NotHypercyclic":
                problems.append(f"declared locally-constant table passed in {task}")
    if expect.get("finite"):
        if hc["rule"] != "Torsion":
            problems.append(f"finite group fired {hc['rule']}, not Torsion")
        else:
            (element, order, mult), = answer["reps"]["elements"]
            if hc["params"]["order"] != order or order * mult != expect["group_order"]:
                problems.append("torsion order disagrees with the regular-representation count")
    for N, set_id, dev, _ in answer.get("equidist", []):
        if not 0.0 <= dev <= 1.0:
            problems.append(f"{set_id} N={N}: deviation {dev} outside [0, 1]")
    return problems


def compare(golden, actual, path: str = "") -> list[str]:
    """Exact comparison, except floats within FLOAT_RTOL."""
    if isinstance(golden, float) or isinstance(actual, float):
        if (isinstance(golden, (int, float)) and isinstance(actual, (int, float))
                and not isinstance(golden, bool) and not isinstance(actual, bool)
                and math.isclose(golden, actual, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)):
            return []
        return [f"{path}: {actual!r} != golden {golden!r}"]
    if isinstance(golden, dict) and isinstance(actual, dict):
        if golden.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != golden {sorted(golden)}"]
        return [d for k in golden for d in compare(golden[k], actual[k], f"{path}.{k}")]
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return [f"{path}: length {len(actual)} != golden {len(golden)}"]
        return [d for i, (g, a) in enumerate(zip(golden, actual)) for d in compare(g, a, f"{path}[{i}]")]
    if golden != actual or type(golden) is not type(actual):
        return [f"{path}: {actual!r} != golden {golden!r}"]
    return []
