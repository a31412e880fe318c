import csv
import inspect
import io
import json
import math
import os
import time
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import exact_oracle
from hclab.cli import TASKS, _atomic_write, _write_csv, main, parse_spec, run, validate
from hclab.families import MAX_LITERAL_DIGITS
from hclab.hctest import VerdictConfig, monotone_rows, verdict
from hclab.weights import ExprWeight, FiniteWeight, PAdicTableWeight, StepWeight

GOLDEN_ANGLE = 0.6180339887498949


def circle_spec(**extra):
    spec = {
        "schema": 1,
        "group": {"group": "circle"},
        "element": {"angle": GOLDEN_ANGLE},
    }
    spec.update(extra)
    return spec


def three_coset_spec():
    return {
        "schema": 1,
        "group": {"group": "zp", "p": 3, "precision": 2},
        "element": "1",
        "weight": {"level": 1, "values": {"0": "2", "1": "1/2", "2": "1"}},
        "horizons": {"n_max": 6},
    }


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# validation


def test_validate_well_formed_spec():
    assert validate(three_coset_spec(), "padic") == []
    assert validate(circle_spec(weight={"expr": "exp(sin(2*pi*x))"}), "hctest") == []


def test_validate_missing_weight():
    diags = validate(circle_spec(), "hctest")
    assert len(diags) == 1 and "weight" in diags[0]


def test_validate_bad_radius():
    spec = {
        "schema": 1,
        "group": {"group": "zp", "p": 3, "precision": 2},
        "element": "1",
        "weight": {"level": 1, "values": {"0": "2", "1": "1/2", "2": "1"}},
        "sets": [{"center": "0", "radius_exp": 5}],
    }
    diags = validate(spec, "padic")
    assert any("radius" in d or "sets" in d for d in diags)


def test_validate_rejects_unknown_fields():
    diags = validate(circle_spec(bogus=1), "reps")
    assert any("unknown fields" in d for d in diags)


def test_validate_rejects_bad_characters_and_horizons(tmp_path, capsys):
    cases = [
        (circle_spec(characters=["x"]), "characters"),
        (circle_spec(characters=[1], horizons={"N_list": [1]}), "horizons.N_list"),
        (circle_spec(characters=[2], horizons={"N_list": []}), "horizons.N_list"),
        (circle_spec(characters=[1], horizons={"N_list": [10, "y"]}), "horizons.N_list"),
    ]
    for i, (payload, field) in enumerate(cases):
        assert any(d.startswith(field) for d in validate(payload, "equidist"))
        path = write_spec(tmp_path, payload, f"bad{i}.json")
        assert main(["validate", "--spec", path]) == 2
        assert main(["all", "--spec", path, "--out-dir", str(tmp_path / f"o{i}")]) == 2
        assert field in capsys.readouterr().err


def test_validate_requires_prime_p(tmp_path, capsys):
    payload = three_coset_spec()
    payload["group"] = {"group": "zp", "p": 4, "precision": 2}
    payload["weight"] = {"level": 1, "values": {"0": "2", "1": "1/2", "2": "1", "3": "1"}}
    assert any("group" in d and "prime" in d for d in validate(payload, "padic"))
    path = write_spec(tmp_path, payload)
    assert main(["padic", "--spec", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "group: p = 4 is not a prime" in capsys.readouterr().err
    payload["group"] = {"group": "qp", "p": 7, "precision": 2, "window": 1}
    payload["weight"] = {"level": 0, "values": {str(r): "1" for r in range(7)}}
    assert not any("prime" in d for d in validate(payload, "padic"))


def test_validate_bounds_padic_residues(tmp_path, capsys):
    payload = dict(three_coset_spec(), group={"group": "zp", "p": 3, "precision": 30})
    del payload["weight"]
    payload["sets"] = [{"center": "0", "radius_exp": 1}]
    path = write_spec(tmp_path, payload)
    assert main(["equidist", "--spec", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "group: 3^30 residues exceed the limit 6561" in capsys.readouterr().err
    payload["group"] = {"group": "qp", "p": 2, "precision": 10 ** 9, "window": 1}
    assert any("exceed the limit 6561" in d for d in validate(payload, "equidist"))
    payload["group"] = {"group": "zp", "p": 3, "precision": 8}
    assert validate(payload, "equidist") == []
    payload["group"] = {"group": "qp", "p": 3, "precision": 7, "window": 1}
    assert validate(payload, "equidist") == []
    # the exhaustive counts of one union of two finest balls at 3^8 stay
    # within their limit, and one-point sets cost no pairs at all
    assert validate(_ZP8, "equidist") == []
    assert validate(dict(_ZP8, sets=[{"center": str(c), "radius_exp": 8} for c in range(3)]), "equidist") == []
    # the limit itself validates: two balls of 5^5 are counted at its 3125
    # translates against 3125 + 75 terms, 10^7 pairs
    at_limit = {"schema": 1, "group": {"group": "zp", "p": 5, "precision": 5}, "element": "1",
                "sets": [[{"center": "0", "radius_exp": 5}, {"center": "1", "radius_exp": 5}]],
                "horizons": {"N_list": [3126, 76]}}
    assert validate(at_limit, "equidist") == []
    assert validate(dict(at_limit, horizons={"N_list": [3126, 77]}), "equidist") == [
        "equidist: the exhaustive counts visit 10003125 (translate, term) pairs, above the limit 10000000"]


# masses with denominators 2^21, 2^21 + 1, 5 * 10^7 and 10^1000: the exact
# log-sum's value is formed from the exponent sum alone, so none of them is
# too fine
@pytest.mark.parametrize("breakpoint", [f"1/{2 ** 21}", f"1/{2 ** 21 + 1}", "0.33333334", "1e-1000"],
                         ids=["2^21", "2^21+1", "0.33333334", "1e-1000"])
def test_fine_step_masses_validate_and_run(tmp_path, breakpoint):
    spec = write_spec(tmp_path, _probe(_STEP, ("weight", "step"), _split_step(breakpoint)))
    assert main(["validate", "--spec", spec, "--task", "hctest"]) == 0
    out = tmp_path / "out"
    assert main(["hctest", "--spec", spec, "--out-dir", str(out)]) == 0
    log = json.loads((out / "report.json").read_text())["results"]["hctest"]["log_integral"]
    mass = Fraction(breakpoint)
    # 2 on the breakpoint's mass and 1/2 on the rest
    assert log["exact_zero"] is False
    assert math.isclose(log["value"], float(2 * mass - 1) * math.log(2), rel_tol=1e-15)


@pytest.mark.parametrize("c", [4, 100, 700])
def test_exp_rooted_weights_validate_and_pass(tmp_path, c):
    # exp(u) of a u finite at every x is positive wherever it is finite: the
    # sampled Lipschitz margin is taken on u against binary64's exp range
    # (1.07 at c = 700), not on w (which rejected every c >= 4)
    spec = write_spec(tmp_path, circle_spec(weight={"expr": f"exp({c}*sin(2*pi*x))"}, horizons={"n_max": 20}))
    assert main(["validate", "--spec", spec, "--task", "hctest"]) == 0
    out = tmp_path / "out"
    assert main(["hctest", "--spec", spec, "--out-dir", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["results"]["hctest"]
    assert result["verdict"] == "NecessaryConditionsPassed"
    assert abs(result["log_integral"]["value"]) <= 1e-12


@pytest.mark.parametrize("expr,message", [
    ("exp(800*sin(2*pi*x))", "is not finite on the circle"),
    # u = pi*(2k + 1) on every grid point, so w = 1 there, but u reaches 731.7
    # at x = 7/131072, where w overflows: u's margin is 4687
    ("exp(746*sin(8192*pi*x))", "is not certifiably finite on the circle"),
    ("exp(-745 - sin(2*pi*x))", "is not certifiably positive"),
    # the weight sin + 1 has a zero at 3/4, off the grid: ln inside exp
    # keeps the margin
    ("exp(ln(sin(2*pi*x) + 1))", "is not certifiably positive"),
    ("0*x", "is not certifiably positive"),
    ("sin(2*pi*x)", "is not certifiably positive"),
])
def test_weights_that_are_not_positive_by_construction_keep_their_checks(expr, message):
    with np.errstate(over="ignore"):
        diags = validate(circle_spec(weight={"expr": expr}), "hctest")
    assert diags == [f"weight: {expr!r} {message}"]


def _probe(base, path, value):
    """``base`` with the entry at ``path`` (a tuple of keys) set to ``value``."""
    spec = json.loads(json.dumps(base))
    node = spec
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return spec


_EXPR = circle_spec(weight={"expr": "exp(sin(2*pi*x))"})
_FINITE = {"schema": 1, "group": {"group": "finite", "name": "Z6"}, "element": 1,
           "weight": {"values": ["2", "1/2", "1", "1", "1", "1"]}}
_STEP = circle_spec(weight={"step": [[[["0", "1"], "half_open"], "1"]]})
_QP = dict(three_coset_spec(), group={"group": "qp", "p": 3, "precision": 2, "window": 1})
_BARE = {"group": {"group": "circle"}}
# zp at 3^8 with the default horizons: a union of two balls of radius 3^-8
# takes 6561 * (9 + 99 + 999) = 7,263,027 pairs of its exhaustive counts (one
# ball is one point of the group, counted from the orbit's period alone)
_ZP8 = {"schema": 1, "group": {"group": "zp", "p": 3, "precision": 8}, "element": "1",
        "sets": [[{"center": "0", "radius_exp": 8}, {"center": "1", "radius_exp": 8}]]}


# a literal for which Fraction would build 10^99999999999
_TINY = "1e-99999999999"
_TOO_FINE = "{}: the decimal exponent -99999999999 of a rational literal exceeds the limit 4300"


def _split_step(breakpoint):
    """A circle step weight of 2 on [0, breakpoint) and 1/2 on the rest."""
    return [[[["0", breakpoint], "half_open"], "2"], [[[breakpoint, "1"], "half_open"], "1/2"]]


_PROBES = [
    (_EXPR, ("horizons", "n_max"), "abc", "horizons.n_max"),
    (_EXPR, ("horizons", "n_max"), 0, "horizons.n_max"),
    (_EXPR, ("horizons", "n_max"), 2.5, "horizons.n_max"),
    # a walk's exponents stay in int64: n_max and ul_n_max are at most 10^7
    (_EXPR, ("horizons", "n_max"), 10 ** 7 + 1, "horizons.n_max: 10000001 is above the maximum 10000000"),
    (_STEP, ("horizons", "n_max"), 10 ** 30, "horizons.n_max"),
    (three_coset_spec(), ("horizons", "ul_n_max"), 10 ** 30, "horizons.ul_n_max"),
    (three_coset_spec(), ("horizons", "ul_n_max"), "abc", "horizons.ul_n_max"),
    (three_coset_spec(), ("horizons", "ul_n_max"), 0, "horizons.ul_n_max"),
    (_EXPR, ("horizons", "k_max"), "abc", "horizons.k_max"),
    (_EXPR, ("horizons", "k_max"), 0, "horizons.k_max"),
    # the L^p exponent is a JSON number, finite and >= 1: strict JSON has no NaN
    (_EXPR, ("lp_exponent",), float("nan"), "lp_exponent"),
    (_EXPR, ("lp_exponent",), float("inf"), "lp_exponent"),
    (_EXPR, ("lp_exponent",), True, "lp_exponent"),
    (_EXPR, ("lp_exponent",), "x", "lp_exponent"),
    (_EXPR, ("lp_exponent",), 0.5, "lp_exponent"),
    (_EXPR, ("tolerances", "grid_points"), 0, "tolerances.grid_points"),
    (_EXPR, ("tolerances", "log_tolerance"), "x", "tolerances.log_tolerance"),
    (_EXPR, ("tolerances", "quadrature_points"), 1, "tolerances.quadrature_points"),
    (_FINITE, ("group", "name"), ["Z6"], "group"),
    (_FINITE, ("element",), {"foo": 1}, "element"),
    (_FINITE, ("sets",), [{"indices": [99]}], "sets"),
    (_FINITE, ("sets",), [{"indices": ["a"]}], "sets"),
    (_STEP, ("weight", "step"), 5, "weight"),
    (three_coset_spec(), ("weight", "values"), ["2", "1/2", "1"], "weight"),
    (three_coset_spec(), ("weight", "declared_locally_constant"), "no", "weight"),
    (three_coset_spec(), ("group", "precision"), 2.5, "group.precision"),
    (three_coset_spec(), ("group", "p"), True, "group.p"),
    (_QP, ("group", "window"), -1, "group.window"),
    # every task but reps reads the element, so ``all`` needs it with or
    # without a weight; on the circle it runs reps and equidist with it
    (_EXPR, ("element",), None, "all: an 'element' is required"),
    (_BARE, ("sets",), [[["0", "1/2"], "half_open"]], "all: an 'element' is required"),
    (_BARE, ("characters",), [3], "all: an 'element' is required"),
    (_BARE, ("schema",), 1, "all: an 'element' is required"),
    (_EXPR, ("element",), {"angle": 2.0 ** -70}, "element"),
    (_EXPR, ("element",), {"rational": f"1/{2 ** 64 + 1}"}, "element"),
    (_EXPR, ("element",), "1e-30", "element"),
    (_EXPR, ("element",), {"angle": float("inf")}, "element"),
    (_EXPR, ("weight", "grid_points"), 0, "weight.grid_points"),
    (_EXPR, ("weight", "grid_points"), 1.5, "weight.grid_points"),
    (three_coset_spec(), ("sets",), [{"center": "0", "radius_exp": 1.5}], "sets.radius_exp"),
    (three_coset_spec(), ("sets",), [{"center": "0", "radius_exp": True}], "sets.radius_exp"),
    (three_coset_spec(), ("weight", "level"), 1.5, "weight.level"),
    (three_coset_spec(), ("weight", "level"), True, "weight.level"),
    (three_coset_spec(), ("weight", "level"), -1, "weight.level"),
    (three_coset_spec(), ("weight", "level"), 10 ** 7, "weight.level"),
    (three_coset_spec(), ("weight", "bogus"), 1, "weight"),
    (three_coset_spec(), ("element",), {"digits": [1.5]}, "element.digits"),
    (three_coset_spec(), ("weight",), {"table": {"level": 1, "values": {}, "bogus": 1}}, "weight"),
    # a zero denominator in any rational literal
    (_EXPR, ("sets",), [[["0", "1/0"], "open"]], "sets: Fraction(1, 0)"),
    (_EXPR, ("sets",), [{"point": "1/0"}], "sets: Fraction(1, 0)"),
    (three_coset_spec(), ("sets",), [{"center": "1/0", "radius_exp": 1}], "sets"),
    (_STEP, ("weight", "step"), [[[["0", "1"], "half_open"], "1/0"]], "weight"),
    (_FINITE, ("weight", "values"), ["1/0", "1", "1", "1", "1", "1"], "weight"),
    (three_coset_spec(), ("weight", "values"), {"0": "1/0", "1": "1", "2": "1"}, "weight"),
    # character sweeps exist on the circle only
    (three_coset_spec(), ("characters",), [1, 2], "characters"),
    (_FINITE, ("characters",), [1], "characters"),
    # circle set literals keep their exact diagnostics
    (_EXPR, ("sets",), [[["0", "1/2"], "half-open"]], "sets: unknown variant 'half-open'; "),
    (_EXPR, ("sets",), [[["a", "1/2"], "open"]], "sets: Invalid literal for Fraction: 'a'"),
    (_EXPR, ("sets",), [["x"]], "sets: set literal 'x' not understood"),
    (_EXPR, ("sets",), [{"pt": "1"}], "sets: set literal {'pt': '1'} not understood"),
    (_EXPR, ("sets",), [None], "sets: set literal None not understood"),
    (_FINITE, ("sets",), [None], "sets: finite sets need {'indices': [...]}, got None"),
    # an arc inside a step weight is part of the weight
    (_STEP, ("weight", "step"), [[None, "2"]], "weight: set literal None not understood"),
    # sets come as a list on every group
    (_EXPR, ("sets",), 5, "sets"),
    (_FINITE, ("sets",), 5, "sets"),
    (three_coset_spec(), ("sets",), 5, "sets"),
    # a circle orbit statistic holds up to MAX_CIRCLE_HORIZON residues
    (_EXPR, ("horizons", "N_list"), [10, 20000000], "horizons.N_list"),
    # a rational literal's decimal exponent is at most 4300 in size, in
    # every field that reads one
    (_EXPR, ("sets",), [[["0", _TINY], "open"]], _TOO_FINE.format("sets")),
    (_EXPR, ("sets",), [{"point": _TINY}], _TOO_FINE.format("sets")),
    (_EXPR, ("element",), _TINY, _TOO_FINE.format("element")),
    (_EXPR, ("element",), {"rational": _TINY}, _TOO_FINE.format("element")),
    (three_coset_spec(), ("element",), {"value": _TINY}, _TOO_FINE.format("element")),
    (three_coset_spec(), ("element",), _TINY, _TOO_FINE.format("element")),
    (three_coset_spec(), ("sets",), [{"center": _TINY, "radius_exp": 1}], _TOO_FINE.format("sets")),
    (three_coset_spec(), ("weight", "values"), {_TINY: "2", "1": "1/2", "2": "1"}, _TOO_FINE.format("weight")),
    (three_coset_spec(), ("weight", "values"), {"0": _TINY, "1": "1/2", "2": "1"}, _TOO_FINE.format("weight")),
    (_FINITE, ("weight", "values"), [_TINY, "1", "1", "1", "1", "1"], _TOO_FINE.format("weight")),
    (_STEP, ("weight", "step"), [[[["0", "1"], "half_open"], _TINY]], _TOO_FINE.format("weight")),
    # every spec object is checked against its one table: unknown keys,
    # booleans read as numbers and grids past 2^22 points exit 2
    (_EXPR, ("element",), {"angle": GOLDEN_ANGLE, "x": 1}, "element: unknown fields ['x']"),
    (_EXPR, ("element",), {"rational": "1/3", "angle": GOLDEN_ANGLE}, "element: need 'rational' or 'angle'"),
    (_FINITE, ("element",), {"index": 1, "x": 1}, "element: unknown fields ['x']"),
    (three_coset_spec(), ("element",), {"value": "1", "x": 1}, "element: unknown fields ['x']"),
    (_STEP, ("weight", "x"), 1, "weight: unknown fields ['x']"),
    (_FINITE, ("weight", "x"), 1, "weight: unknown fields ['x']"),
    (_EXPR, ("element",), True, "element.angle: expected a number, got True"),
    (_EXPR, ("element",), {"angle": False}, "element.angle: expected a number, got False"),
    (_EXPR, ("schema",), True, "schema: True is not an integer"),
    (_EXPR, ("tolerances", "quadrature_points"), 2 ** 40,
     "tolerances.quadrature_points: 1099511627776 is above the maximum 4194304"),
    (_EXPR, ("tolerances", "grid_points"), 2 ** 22 + 1,
     "tolerances.grid_points: 4194305 is above the maximum 4194304"),
    (_EXPR, ("weight", "grid_points"), 2 ** 40, "weight.grid_points: 1099511627776 is above the maximum 4194304"),
    # three such unions take 21,789,081 pairs, past the exhaustive limit
    (_ZP8, ("sets",), [[{"center": str(c), "radius_exp": 8} for c in (2 * i, 2 * i + 1)] for i in range(3)],
     "equidist: the exhaustive counts visit 21789081 (translate, term) pairs, above the limit 10000000"),
    # the task is the command's, never the spec's
    (_EXPR, ("task",), "padic", "spec: unknown fields ['task']"),
    (_EXPR, ("task",), 5, "spec: unknown fields ['task']"),
]

# the line that says a required field is missing, which a field that was
# given but rejected must not add to its own diagnostic
_REQUIRED = {
    "element": "an 'element' is required",
    "weight": "a 'weight' is required",
    "sets": "at least one set or character is required",
}


@pytest.mark.parametrize("base,path,value,field", _PROBES,
                         ids=[f"{'.'.join(p)}={v!r}" for _, p, v, _ in _PROBES])
def test_validate_rejects_probe(tmp_path, capsys, base, path, value, field):
    spec = write_spec(tmp_path, _probe(base, path, value))
    assert main(["validate", "--spec", spec]) == 2
    assert any(line.startswith(field) for line in capsys.readouterr().out.splitlines())
    assert main(["all", "--spec", spec, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"invalid spec: {field}" in capsys.readouterr().err
    if path[0] in _REQUIRED and value is not None:
        for task in ("equidist", "hctest", "padic"):
            assert _REQUIRED[path[0]] not in " ".join(validate(_probe(base, path, value), task))


# one-field mutations of the probe bases: every key path of each base and
# every probed path, set to a value from a pool of hostile values
_POOL = [None, True, 0, -1, 2 ** 40, 10 ** 30, 1e300, "nan", "x", [], {}, "1/0", "1" * (MAX_LITERAL_DIGITS + 1)]


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_TARGETS = sorted({(json.dumps(base, sort_keys=True), path) for base, probed, _, _ in _PROBES
                   for path in [probed, *_key_paths(base)]})


@given(target=st.sampled_from(_TARGETS), value=st.sampled_from(_POOL))
@example(target=(json.dumps(_EXPR, sort_keys=True), ("weight", "grid_points")), value=2 ** 40)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validate_exits_0_or_2_on_every_mutation(tmp_path, capsys, target, value):
    base, path = target
    spec = write_spec(tmp_path, _probe(json.loads(base), path, value))
    assert main(["validate", "--spec", spec]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_a_circle_angle_at_the_denominator_limit_validates():
    # 1/2^64 is the finest angle the orbit's uint64 residues hold
    spec = {"schema": 1, "group": {"group": "circle"}, "element": {"rational": f"1/{2 ** 64}"},
            "weight": {"expr": "2"}, "sets": [[["0", "1/2"], "half_open"]]}
    assert validate(spec, "all") == []


def test_rational_literals_are_bounded():
    # Fraction("1e-10000000") alone builds 10^(10^7) in seconds; a literal
    # past either limit is rejected before it is parsed
    spec = _probe(_BARE, ("sets",), [[["0", "1e-10000000"], "open"]])
    spec.update(element="1/3", horizons={"N_list": [10]})
    start = time.perf_counter()
    assert validate(spec, "equidist") == [
        "sets: the decimal exponent -10000000 of a rational literal exceeds the limit 4300"]
    assert time.perf_counter() - start < 1
    at_limits = [f"1e-{MAX_LITERAL_DIGITS}", f"1E+{MAX_LITERAL_DIGITS}", "1" * MAX_LITERAL_DIGITS,
                 "0." + "1" * (MAX_LITERAL_DIGITS - 1)]
    for text in at_limits:
        assert validate(_probe(_EXPR, ("sets",), [{"point": text}]), "equidist") == []
    long = "1/" + "3" * MAX_LITERAL_DIGITS
    assert validate(_probe(_EXPR, ("sets",), [{"point": long}]), "equidist") == [
        "sets: a rational literal of 4301 digits exceeds the limit 4300"]


def test_a_json_integer_past_the_digit_limit_is_a_read_error(tmp_path, capsys):
    # json.load raises ValueError, not JSONDecodeError, for an integer of
    # more than 4300 digits; it used to end in a traceback and exit 1
    path = tmp_path / "spec.json"
    path.write_text('{"schema": 1, "group": {"group": "circle"}, "element": ' + "1" * 5000 + "}")
    assert main(["validate", "--spec", str(path)]) == 2
    assert "error: cannot read spec: Exceeds the limit (4300 digits)" in capsys.readouterr().err


def test_parse_spec_resolves_objects():
    spec, diags = parse_spec(three_coset_spec(), "padic")
    assert diags == []
    assert spec.weight.value_at(spec.group.element(4)) == spec.weight.table[1]
    assert spec.spec_hash == spec.spec_hash  # stable


# ---------------------------------------------------------------------------
# runs


def test_cli_exit_codes(tmp_path, capsys):
    good = write_spec(tmp_path, three_coset_spec())
    assert main(["padic", "--spec", good, "--out-dir", str(tmp_path / "out")]) == 0
    bad = write_spec(tmp_path, {"schema": 1, "group": {"group": "circle"}, "zzz": 1}, "bad.json")
    assert main(["hctest", "--spec", bad, "--out-dir", str(tmp_path / "o2")]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["hctest", "--spec", missing]) == 2


def test_an_unusable_out_dir_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # an --out-dir that is a file, or a path under one, exits 3 before the
    # verdict runs; it used to end in a FileExistsError or
    # NotADirectoryError traceback
    monkeypatch.setattr("hclab.cli.verdict", lambda *args: pytest.fail("the verdict ran"))
    spec = write_spec(tmp_path, _EXPR)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "out"):
        assert main(["all", "--spec", spec, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")


def _bench_spec(workload, index, path, value):
    """A seed-0 benchmark spec with one field set to ``value``."""
    from test_bench_specs import GENERATORS

    return _probe(GENERATORS[workload](0)[index].spec, path, value)


@pytest.mark.parametrize("workload,index,path,value,field", [
    ("exact-step", 1, ("horizons", "n_max"), 10 ** 30, "horizons.n_max"),
    ("circle-float", 0, ("element",), None, "all: an 'element' is required"),
])
def test_bench_spec_mutations_are_rejected(tmp_path, capsys, workload, index, path, value, field):
    # both passed validation once, then ended in a traceback
    spec = write_spec(tmp_path, _bench_spec(workload, index, path, value))
    assert main(["all", "--spec", spec, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"invalid spec: {field}" in capsys.readouterr().err


_DROPPABLE = ("element", "weight", "sets", "characters", "horizons")


@pytest.mark.parametrize("workload", ["circle-float", "exact-step", "orbit-exhaustive", "padic-verdict"])
def test_validate_agrees_with_the_run(tmp_path, capsys, workload):
    # a spec that validate accepts for a task runs it to exit 0 or 3, one it
    # rejects exits 2, and none ends in a traceback: four seed-0 bench specs
    # of different classes, each with none, one or two of its fields dropped
    from test_bench_specs import GENERATORS

    drops = [()] + [(f,) for f in _DROPPABLE] + list(combinations(_DROPPABLE, 2))
    for case in GENERATORS[workload](0)[::5][:4]:
        for blob in {json.dumps({k: v for k, v in case.spec.items() if k not in fields}) for fields in drops}:
            raw = json.loads(blob)
            path = write_spec(tmp_path, raw)
            for task in TASKS:
                expected = (0, 3) if validate(raw, task) == [] else (2,)
                code = main([task, "--spec", path, "--out-dir", str(tmp_path / "out")])
                assert code in expected, (case.id, blob, task)


def test_unset_settings_keep_the_library_defaults():
    spec, diags = parse_spec(_EXPR, "all")
    assert diags == [] and spec.verdict_config() == VerdictConfig()
    assert spec.weight.grid_points == inspect.signature(ExprWeight).parameters["grid_points"].default
    # N_list and k_max are the spec's own settings, read by equidist and reps
    assert (spec.N_list, spec.k_max) == ([10, 100, 1000], 64)
    spec, diags = parse_spec(dict(_EXPR, horizons={"k_max": "3", "N_list": [100, "10", 100]}), "all")
    assert diags == [] and spec.verdict_config() == VerdictConfig()
    assert (spec.N_list, spec.k_max) == ([100, 10, 100], 3)


@pytest.mark.parametrize("k_max,fixed", [("3", None), ("4", 4)])
def test_circle_reps_reads_the_checked_k_max(tmp_path, k_max, fixed):
    spec, diags = parse_spec(circle_spec(element="1/4", horizons={"k_max": k_max}), "reps")
    assert diags == []
    report = run(spec, str(tmp_path))
    assert report["results"]["reps"]["k_max"] == int(k_max)
    assert report["results"]["reps"]["fixed_character"] == fixed
    # the report echoes the horizons as the spec gave them
    assert report["horizons"] == {"k_max": k_max}


@pytest.mark.parametrize("section,key,value,config_field,read", [
    ("horizons", "n_max", 7, "monotone_n_max", 7),
    ("horizons", "ul_n_max", "9", "ul_n_max", 9),
    ("tolerances", "grid_points", 33, "monotone_grid", 33),
    ("tolerances", "quadrature_points", "100", "quadrature_points", 100),
    ("tolerances", "log_tolerance", "1e-3", "log_tolerance", 0.001),
    ("tolerances", "log_tolerance", 0, "log_tolerance", 0.0),
])
def test_each_given_setting_reaches_its_verdict_field(section, key, value, config_field, read):
    spec, diags = parse_spec(_probe(_EXPR, (section, key), value), "all")
    assert diags == []
    assert spec.verdict_config() == VerdictConfig(**{config_field: read})
    spec, _ = parse_spec(dict(_probe(_EXPR, (section, key), value), lp_exponent=2), "all")
    assert spec.verdict_config() == VerdictConfig(**{config_field: read})


def test_lp_exponent_takes_every_finite_number_from_one():
    for value in (1, 1.0, 2.5, 10 ** 400):
        assert validate(dict(_EXPR, lp_exponent=value), "all") == []
    assert validate(dict(_EXPR, lp_exponent=-math.inf), "all") == [
        "lp_exponent: expected a finite number >= 1, got -inf"]


def test_an_integer_tolerance_past_binary64_is_rejected(tmp_path, capsys):
    # float() of a JSON integer of 401 digits overflows
    spec = write_spec(tmp_path, _probe(_EXPR, ("tolerances", "log_tolerance"), 10 ** 400))
    assert main(["validate", "--spec", spec]) == 2
    assert capsys.readouterr().out == f"tolerances.log_tolerance: expected a number >= 0, got {10 ** 400!r}\n"


def test_values_past_binary64_are_reported_as_inf(tmp_path):
    # A4 with one value 10^30: w_n reaches 10^(30 n), past binary64 from
    # n = 11; every row is still decided exactly, and its extreme reads inf
    payload = _bench_spec("exact-step", 0, ("weight", "values", 0), str(10 ** 30))
    out = tmp_path / "out"
    assert main(["all", "--spec", write_spec(tmp_path, payload), "--out-dir", str(out)]) == 0
    rows = list(csv.reader(io.StringIO((out / "scan.csv").read_text())))[1:]
    assert len(rows) == 30 and rows[-1][2] == "inf" and rows[0][2] == "1e+30"
    spec, _ = parse_spec(payload, "all")
    hits = monotone_rows(spec.weight, spec.element, horizon=30)
    expected = (exact_oracle.exact_hit(n, range(len(row)), row, den)
                for n, (row, den) in enumerate(exact_oracle.step_products(spec.weight, spec.element), 1))
    assert list(islice(hits, 30)) == list(islice(expected, 30))
    assert [[str(h.n), repr(h.min_value), repr(h.max_value), str(h.direction is not None)]
            for h in islice(monotone_rows(spec.weight, spec.element, horizon=30), 30)] == rows


def test_padic_run_fires_locally_constant(tmp_path):
    spec = write_spec(tmp_path, three_coset_spec())
    out = tmp_path / "out"
    assert main(["padic", "--spec", spec, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    result = report["results"]["padic"]
    assert result["verdict"] == "NotHypercyclic"
    assert result["fired_rule"]["rule"] == "LocallyConstant"
    assert result["fired_rule"]["params"]["k"] == 1
    assert (out / "ul_witness.csv").exists()
    lines = (out / "ul_witness.csv").read_text().splitlines()
    n3 = [l for l in lines if l.startswith("3,")][0]
    assert "False,False" in n3


def test_reps_run_v4(tmp_path):
    spec = write_spec(
        tmp_path, {"schema": 1, "group": {"group": "finite", "name": "V4"}}
    )
    out = tmp_path / "reps"
    assert main(["reps", "--spec", spec, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = report["results"]["reps"]["elements"]
    non_identity = [r for r in rows if r["order"] > 1]
    assert len(non_identity) == 3
    assert all(r["verdict"] for r in non_identity)


def test_equidist_run_golden_monotone_deviation(tmp_path):
    spec = write_spec(
        tmp_path,
        circle_spec(
            sets=[[["0", "1/2"], "half_open"]],
            horizons={"N_list": [10, 100, 1000]},
        ),
    )
    out = tmp_path / "eq"
    assert main(["equidist", "--spec", spec, "--out-dir", str(out)]) == 0
    lines = (out / "equidist.csv").read_text().splitlines()
    assert lines[0] == "N,set_id,sup_deviation,bound"
    devs = [float(l.split(",")[2]) for l in lines[1:]]
    assert devs == sorted(devs, reverse=True)


def test_equidist_rows_read_one_sorted_horizon_list(tmp_path):
    # a repeated or unsorted horizon gives one row per set and N, as it does
    # per character
    spec = write_spec(
        tmp_path,
        circle_spec(sets=[[["0", "1/2"], "half_open"]], characters=[2],
                    horizons={"N_list": ["100", 10, 100]}),
    )
    out = tmp_path / "eq"
    assert main(["equidist", "--spec", spec, "--out-dir", str(out)]) == 0
    keys = [tuple(l.split(",")[:2]) for l in (out / "equidist.csv").read_text().splitlines()[1:]]
    assert keys == [("10", "set0"), ("100", "set0"), ("10", "char2"), ("100", "char2")]
    rows = json.loads((out / "report.json").read_text())["results"]["equidist"]["rows"]
    assert [(r["N"], r["set_id"]) for r in rows] == [(int(N), k) for N, k in keys]


def test_hctest_run_writes_scan(tmp_path):
    spec = write_spec(
        tmp_path,
        circle_spec(weight={"expr": "exp(sin(2*pi*x) + 1/10)"}, horizons={"n_max": 8}),
    )
    out = tmp_path / "hc"
    assert main(["hctest", "--spec", spec, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    result = report["results"]["hctest"]
    assert result["verdict"] == "NotHypercyclic"
    assert result["fired_rule"]["rule"] == "LogIntegralNonzero"
    scan = (out / "scan.csv").read_text().splitlines()
    assert scan[0] == "n,w_n_min,w_n_max,monotone_fired"
    assert len(scan) == 9


def test_step_scan_matches_monotone_verdict(tmp_path):
    # 2 on the closed arc [1/3, 5/6], 1/2 on the rest: the log-integral is 0,
    # and under a half turn w_2 is 1 except at the arc's endpoints, where it is 4
    spec = write_spec(
        tmp_path,
        circle_spec(
            element={"angle": 0.5},
            weight={"step": [[[["1/3", "5/6"], "closed"], "2"],
                             [[["5/6", "1/3"], "open"], "1/2"]]},
            horizons={"n_max": 4},
        ),
    )
    out = tmp_path / "hc"
    assert main(["hctest", "--spec", spec, "--out-dir", str(out)]) == 0
    fired = json.loads((out / "report.json").read_text())["results"]["hctest"]["fired_rule"]
    assert fired["rule"] == "MonotoneWeightPower"
    n = fired["params"]["n"]
    lines = (out / "scan.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # every n up to n_max, past the firing one
    row = lines[n].split(",")
    assert row[0] == str(n) and row[3] == "True"
    assert float(row[1]) == fired["witnesses"]["min_value"]
    assert float(row[2]) == fired["witnesses"]["max_value"]


@pytest.mark.parametrize("expr,grid_points,battery_rows", [
    ("exp(sin(2*pi*x))", None, 50),  # passes: scan.csv reuses the battery's rows
    ("exp(sin(2*pi*x) + 1/10)", None, None),  # the log rule fires: scan.csv starts the walk
    ("exp(sin(2*pi*x))", 256, 50),
])
def test_expr_scan_is_the_verdict_rows(tmp_path, expr, grid_points, battery_rows):
    payload = circle_spec(weight={"expr": expr})
    if grid_points is not None:
        payload["tolerances"] = {"grid_points": grid_points}
    spec, _ = parse_spec(payload, "hctest")
    rep = verdict(spec.weight, spec.element, spec.verdict_config())
    assert rep.walk.walked == (battery_rows or 0)
    out = tmp_path / "hc"
    assert main(["hctest", "--spec", write_spec(tmp_path, payload), "--out-dir", str(out)]) == 0

    def expected(points):
        rows = islice(monotone_rows(spec.weight, spec.element, points), 50)
        return [[str(r.n), repr(r.min_value), repr(r.max_value), str(r.direction is not None)]
                for r in rows]

    lines = (out / "scan.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 50
    assert rows == expected(grid_points or 1024)
    if grid_points is not None:
        assert rows != expected(1024)


def test_expr_rows_past_binary64_read_inf(tmp_path):
    # row n of exp(1) is e^n, whose log-sum passes ln(max double) at n = 710
    payload = circle_spec(element={"angle": 0.41421356237309515}, weight={"expr": "exp(1)"},
                          horizons={"n_max": 800})
    out = tmp_path / "all"
    assert main(["all", "--spec", write_spec(tmp_path, payload), "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "scan.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 801))
    assert all(math.isfinite(float(row[1])) for row in rows[:709])
    assert all(row[1:3] == ["inf", "inf"] for row in rows[709:])


_ZP_UL = dict(three_coset_spec(),
              weight=dict(three_coset_spec()["weight"], declared_locally_constant=False))
_STEP_HALVES = circle_spec(weight={"step": [[[["0", "1/2"], "half_open"], "2"],
                                            [[["1/2", "1"], "half_open"], "1/2"]]},
                           horizons={"n_max": 8})


@pytest.mark.parametrize("payload,source", [(_ZP_UL, "step_products"),
                                            (_STEP_HALVES, "circle_step_rows")])
def test_all_starts_one_row_walk(tmp_path, monkeypatch, payload, source):
    # the verdict's rules, scan.csv and ul_witness.csv all read one walk
    starts = []

    def counted(rows):
        def start(*args):
            starts.append(rows.__name__)
            return rows(*args)
        return start

    for cls in (StepWeight, FiniteWeight, PAdicTableWeight):
        monkeypatch.setattr(cls, "product_rows", counted(cls.product_rows))
    out = tmp_path / "all"
    assert main(["all", "--spec", write_spec(tmp_path, payload), "--out-dir", str(out)]) == 0
    assert starts == [source]
    assert len((out / "scan.csv").read_text().splitlines()) == 1 + payload["horizons"]["n_max"]


def test_all_task_bundles(tmp_path):
    spec = write_spec(
        tmp_path,
        circle_spec(
            weight={"expr": "exp(sin(2*pi*x))"},
            sets=[[["0", "1/4"], "open"]],
            horizons={"N_list": [10, 100]},
        ),
    )
    out = tmp_path / "all"
    assert main(["all", "--spec", spec, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]) == {"equidist", "reps", "hctest"}
    assert report["results"]["hctest"]["verdict"] == "NecessaryConditionsPassed"


def test_reps_group_shortcut(tmp_path, capsys):
    assert main(["reps", "--group", "Z6", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["reps"]["noncyclic_equivalence_holds"] is True
    # the shortcut is the spec file that names the group and nothing else
    spec = write_spec(tmp_path, {"schema": 1, "group": {"group": "finite", "name": "Z6"}})
    assert main(["reps", "--spec", spec, "--out-dir", str(tmp_path / "file")]) == 0
    assert json.loads((tmp_path / "file" / "report.json").read_text())["spec_hash"] == report["spec_hash"]


def test_spec_hash_and_metadata_embedded(tmp_path):
    raw = three_coset_spec()
    raw["lp_exponent"] = 2
    spec = write_spec(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["padic", "--spec", spec, "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["spec_hash"]) == 64
    assert report["schema"] == 1
    assert report["lp_exponent"] == 2
    assert report["results"]["padic"]["metadata"] == {"lp_exponent": 2}


def test_set_literals_union_and_point(tmp_path):
    spec = write_spec(
        tmp_path,
        circle_spec(
            sets=[
                [[["0", "1/4"], "open"], {"point": "1/2"}],  # one set: arc + point
                [["3/4", "7/8"], "closed"],
            ],
            horizons={"N_list": [50]},
        ),
    )
    out = tmp_path / "lit"
    assert main(["equidist", "--spec", spec, "--out-dir", str(out)]) == 0
    lines = (out / "equidist.csv").read_text().splitlines()
    assert [l.split(",")[1] for l in lines[1:]] == ["set0", "set1"]


def test_padic_ball_set_literal():
    spec = {
        "schema": 1,
        "group": {"group": "zp", "p": 3, "precision": 2},
        "element": "1",
        "sets": [
            {"center": "4", "radius_exp": 1},
            [{"center": "0", "radius_exp": 2}, {"center": "1", "radius_exp": 2}],
        ],
        "horizons": {"N_list": [10]},
    }
    parsed, diags = parse_spec(spec, "equidist")
    assert diags == []
    from fractions import Fraction

    assert parsed.sets[0].measure() == Fraction(1, 3)
    assert parsed.sets[1].measure() == Fraction(2, 9)


def test_padic_set_of_many_fine_balls_validates():
    # 3,000 distinct level-8 balls (7 is a unit mod 3^8) on the largest
    # context validation accepts
    spec = {
        "schema": 1,
        "group": {"group": "zp", "p": 3, "precision": 8},
        "element": "1",
        "sets": [[{"center": str(7 * c % 3 ** 8), "radius_exp": 8} for c in range(3000)]],
        "horizons": {"N_list": [10]},
    }
    assert validate(spec, "equidist") == []
    parsed, diags = parse_spec(spec, "equidist")
    assert diags == []
    assert parsed.sets[0].measure() == Fraction(3000, 6561)


def test_circle_set_of_many_arcs_validates():
    # 2,000 disjoint arcs of length 1/4000, each endpoint variant 500 times,
    # and an isolated point in every fourth gap
    variants = ["open", "closed", "half_open", "half_open_right"]
    arcs = [[[f"{i}/2000", f"{2 * i + 1}/4000"], variants[i % 4]] for i in range(2000)]
    points = [{"point": f"{4 * i + 3}/8000"} for i in range(0, 2000, 4)]
    spec = circle_spec(sets=[arcs + points], horizons={"N_list": [10]})
    assert validate(spec, "equidist") == []
    parsed, diags = parse_spec(spec, "equidist")
    assert diags == []
    (S,) = parsed.sets
    assert S.measure() == Fraction(1, 2)
    assert len(S.open_part) == 2000
    # 2 included ends per closed arc, 1 per half-open arc, 1 per point
    assert len(S.point_part) == 500 * 2 + 1000 + 500


def test_rerun_is_byte_identical(tmp_path):
    spec = write_spec(tmp_path, three_coset_spec())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["padic", "--spec", spec, "--out-dir", str(out1)]) == 0
    assert main(["padic", "--spec", spec, "--out-dir", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_streamed_csv_is_byte_identical(tmp_path):
    # rows streamed from a generator give the bytes of the whole trace built
    # in memory first, and only the finished file is left behind
    header = ["n", "value", "note"]
    rows = [[n, repr(n / 7), f'a,"b"\n{n}' if n % 3 else True] for n in range(2000)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(str(tmp_path / "whole.csv"), buf.getvalue())
    path = tmp_path / "trace.csv"
    _write_csv(str(path), header, (row for row in rows))
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["trace.csv", "whole.csv"]

    def failing():
        yield rows[0]
        raise RuntimeError("row failed")

    # a row source that fails leaves the earlier file as it was, and no .tmp
    with pytest.raises(RuntimeError, match="row failed"):
        _write_csv(str(path), header, failing())
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["trace.csv", "whole.csv"]
