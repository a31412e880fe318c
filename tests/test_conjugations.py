"""The paper's conjugations as end-to-end oracles of a whole run.

An automorphism phi of a finite group G conjugates the weighted translation
T_{a,w} to T_{phi(a), w o phi^-1}, by f -> f o phi^-1, and carries each set
K to phi(K).  So every necessary condition gives the same outcome on both
specs of a pair, each witness maps through phi, and the orbit's counts in
K and in phi(K) are the same.  Each pair runs both specs through
``cli.main`` and compares the two runs.

The same holds for the translations x -> x + t of every family (a is
unchanged, w becomes w(. - t) and K becomes K + t) and for the reflection
x -> -x of the circle (a becomes -a, w becomes w(-.) and K becomes -K).
"""

import csv
import json
import math
import random
from fractions import Fraction

import pytest

from hclab import cli
from hclab.groups import catalog
from hclab.report import RULE_LOG_INTEGRAL, RULE_MONOTONE, RULE_TORSION

GROUPS = catalog()
VALUES = ["2", "1/2", "3", "1/3", "5/4", "4/5", "1", "7/2", "2/7", "11/9"]


def _cyclic_automorphism(rng):
    """x -> k x on a cyclic catalog group, with k prime to its order."""
    n = rng.randint(2, 16)
    k = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
    return GROUPS[f"Z{n}"], [k * x % n for x in range(n)]


def _inner_automorphism(rng):
    """x -> h x h^-1 on a noncyclic catalog group."""
    g = GROUPS[rng.choice(["S3", "D4", "Q8", "A4", "Z2xZ8", "Z4xZ4"])]
    h = rng.randrange(g.order)
    return g, [g.mul(g.mul(h, x), g.inv(h)) for x in g.elements()]


def _spec(rng, g):
    n = g.order
    return {
        "schema": 1, "group": {"group": "finite", "name": g.name}, "element": rng.randrange(n),
        "weight": {"values": [rng.choice(VALUES) for _ in range(n)]},
        "sets": [{"indices": rng.sample(range(n), rng.randint(0, n))} for _ in range(rng.randint(1, 3))],
        "horizons": {"N_list": [rng.randint(2, 40), 100], "n_max": rng.randint(1, 30)},
    }


def _image(spec, phi):
    """The spec of T_{phi(a), w o phi^-1} with every set carried by phi."""
    values = [None] * len(phi)
    for x, v in enumerate(spec["weight"]["values"]):
        values[phi[x]] = v
    return {**spec, "element": phi[spec["element"]], "weight": {"values": values},
            "sets": [{"indices": [phi[x] for x in K["indices"]]} for K in spec["sets"]]}


def _run(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / name
    code = cli.main(["all", "--spec", str(path), "--out-dir", str(out)])
    with open(out / "scan.csv", newline="") as fh:
        scan = [(row["n"], row["w_n_min"], row["w_n_max"]) for row in csv.DictReader(fh)]
    return code, json.loads((out / "report.json").read_text())["results"], (out / "equidist.csv").read_bytes(), scan


@pytest.mark.parametrize("automorphism", [_cyclic_automorphism, _inner_automorphism])
def test_automorphic_finite_specs_run_alike(tmp_path, automorphism):
    rng = random.Random(automorphism.__name__)
    for i in range(200):
        g, phi = automorphism(rng)
        spec = _spec(rng, g)
        code, results, equidist_csv, scan = _run(tmp_path, f"{i}", spec)
        image_code, image, image_equidist_csv, image_scan = _run(tmp_path, f"{i}-image", _image(spec, phi))
        assert (image_code, image_equidist_csv, image_scan) == (code, equidist_csv, scan), spec
        hctest, image_hctest = results["hctest"], image["hctest"]
        assert image_hctest["verdict"] == hctest["verdict"] == "NotHypercyclic", spec
        fired = hctest["fired_rule"]
        assert fired["rule"] == RULE_TORSION, spec
        assert image_hctest["fired_rule"] == {
            **fired, "witnesses": {**fired["witnesses"], "element": phi[fired["witnesses"]["element"]]}}, spec
        assert image_hctest["log_integral"] == hctest["log_integral"], spec
        assert image["equidist"] == results["equidist"], spec


# ---------------------------------------------------------------------------
# translations and the circle's reflection


# the fields of a fired rule that name a place on the group: the first ball
# or point a scan meets, and what it reads there.  A translation moves those
# places and may change which one a scan meets first, so the pairs below
# compare every other field.
_PLACES = {"x_prime", "empty_side", "witness", "u_witnesses", "l_witnesses",
           "constant_value", "u_nonempty", "l_nonempty"}


def _placeless(fired):
    if fired is None:
        return None
    if "coset" in fired["params"]:
        # the first coset problem of a windowed context that fires: a
        # translation permutes the cosets, so the rule and its fields are
        # those of whichever coset comes first
        return "a coset problem"
    return {"rule": fired["rule"],
            "params": {k: v for k, v in fired["params"].items() if k not in _PLACES},
            "witnesses": {k: v for k, v in fired["witnesses"].items() if k not in _PLACES}}


def _assert_alike(tmp_path, name, spec, image, angle=None):
    """Both specs run to the same exit code, verdict, fired rule (up to its
    places; ``angle`` maps a torsion witness), log integral, ``equidist.csv``
    and ``n, w_n_min, w_n_max`` columns of ``scan.csv``.  Returns the run's
    fired rule up to its places."""
    code, results, equidist_csv, scan = _run(tmp_path, name, spec)
    image_code, image_results, image_equidist_csv, image_scan = _run(tmp_path, f"{name}-image", image)
    assert (image_code, image_equidist_csv, image_scan) == (code, equidist_csv, scan), spec
    hctest, image_hctest = results["hctest"], image_results["hctest"]
    assert image_hctest["verdict"] == hctest["verdict"], spec
    assert image_hctest["log_integral"] == hctest["log_integral"], spec
    fired = _placeless(hctest["fired_rule"])
    if angle is not None and fired is not None and "angle" in fired["witnesses"]:
        fired["witnesses"]["angle"] = str(angle(Fraction(fired["witnesses"]["angle"])))
    assert _placeless(image_hctest["fired_rule"]) == fired, spec
    return fired


def _q(x) -> str:
    return str(Fraction(x))


def _circle_partition(rng, k):
    """k nonempty pieces of the circle as set literals: cuts on a 1/den
    grid, the open cell between two cuts and each cut drawn to a piece, and
    a cell written with an end's inclusion variant when its piece holds that
    end too, else the end as a point."""
    while True:
        den = rng.choice((6, 12, 20))
        cuts = sorted(rng.sample(range(den), rng.randint(1, 5)))
        cells = [(Fraction(c, den), Fraction(d, den)) for c, d in zip(cuts, cuts[1:] + [cuts[0] + den])]
        cell_owner = [rng.randrange(k) for _ in cells]
        cut_owner = [rng.randrange(k) for _ in cuts]
        if set(cell_owner) == set(range(k)):
            break
    pieces = [[] for _ in range(k)]
    for i, ((lo, hi), owner) in enumerate(zip(cells, cell_owner)):
        j = (i + 1) % len(cuts)
        with_lo = cut_owner[i] == owner and rng.random() < 0.5
        with_hi = cut_owner[j] == owner and rng.random() < 0.5
        variant = {(False, False): "open", (True, True): "closed",
                   (True, False): "half_open", (False, True): "half_open_right"}[with_lo, with_hi]
        pieces[owner].append([[_q(lo), _q(hi)], variant])
        if with_lo:
            cut_owner[i] = None
        if with_hi:
            cut_owner[j] = None
    for c, owner in zip(cuts, cut_owner):
        if owner is not None:
            pieces[owner].append({"point": _q(Fraction(c, den))})
    return pieces


def _measure(piece) -> Fraction:
    return sum((Fraction(hi) - Fraction(lo) for (lo, hi), _ in (p for p in piece if isinstance(p, list))),
               Fraction(0))


def _circle_step_spec(rng):
    """A circle step spec: a random partition's pieces carry values drawn
    at random, or reciprocal pairs on pieces of equal measure (a zero log
    integral); the angle is binary64 or, a third of the time, rational."""
    pieces = _circle_partition(rng, rng.randint(1, 4))
    if rng.random() < 0.5:
        values = [rng.choice(VALUES) for _ in pieces]
    else:
        values, by_measure = ["1"] * len(pieces), {}
        for i, piece in enumerate(pieces):
            by_measure.setdefault(_measure(piece), []).append(i)
        for group in by_measure.values():
            for i, j in zip(group[::2], group[1::2]):
                v = Fraction(rng.choice(VALUES))
                values[i], values[j] = _q(v), _q(1 / v)
    if rng.random() < 1 / 3:
        element = _q(Fraction(rng.randrange(1, 24), 24))
    else:
        element = {"angle": math.sqrt(rng.randint(2, 5000)) % 1.0}
    sets = [rng.choice(_circle_partition(rng, 2)) for _ in range(rng.randint(1, 2))]
    return {"schema": 1, "group": {"group": "circle"}, "element": element,
            "weight": {"step": [[piece, value] for piece, value in zip(pieces, values)]},
            "sets": sets, "horizons": {"N_list": [rng.randint(2, 30), 60], "n_max": rng.randint(1, 20)}}


def _map_circle_set(piece_list, point, arc):
    return [{"point": _q(point(Fraction(p["point"])))} if isinstance(p, dict) else arc(*p) for p in piece_list]


def _map_circle_spec(spec, point, arc, element):
    weight = [[_map_circle_set(piece, point, arc), value] for piece, value in spec["weight"]["step"]]
    return {**spec, "element": element(spec["element"]), "weight": {"step": weight},
            "sets": [_map_circle_set(K, point, arc) for K in spec["sets"]]}


_TRANSLATES = [Fraction(1, 7), Fraction(1, 2), Fraction(5, 13)]


def test_translated_circle_step_specs_run_alike(tmp_path):
    rng = random.Random("circle translation")
    for i in range(200):
        spec, t = _circle_step_spec(rng), _TRANSLATES[i % 3]
        image = _map_circle_spec(
            spec, lambda p: p + t,
            lambda ends, variant: [[_q(Fraction(ends[0]) + t), _q(Fraction(ends[1]) + t)], variant],
            lambda element: element)
        _assert_alike(tmp_path, f"{i}", spec, image)


_REFLECTED = {"open": "open", "closed": "closed", "half_open": "half_open_right", "half_open_right": "half_open"}


def test_reflected_circle_step_specs_run_alike(tmp_path):
    # [l, r) maps to (-r, -l], and {"angle": -a} is -a mod 1 exactly
    rng = random.Random("circle reflection")
    for i in range(200):
        spec = _circle_step_spec(rng)
        image = _map_circle_spec(
            spec, lambda p: -p,
            lambda ends, variant: [[_q(-Fraction(ends[1])), _q(-Fraction(ends[0]))], _REFLECTED[variant]],
            lambda a: {"angle": -a["angle"]} if isinstance(a, dict) else _q(-Fraction(a)))
        _assert_alike(tmp_path, f"{i}", spec, image, angle=lambda a: -a % 1)


def _padic_spec(rng):
    """A zp or qp table spec of at most 125 residues: a table at a drawn
    level with random, reciprocal-pair or constant-1 values, 1-2 ball sets
    and short horizons."""
    p = rng.choice([2, 3, 5])
    window = rng.choice([0, 0, 1])
    precision = rng.randint(1, 4 - window if p == 2 else 3 - window if p == 3 else 2 - window)
    level = rng.randint(-window, precision)
    scale, size = p ** window, p ** (level + window)
    kind = rng.choice(["random", "random", "pairs", "pairs", "one"])
    if kind == "random":
        values = [rng.choice(VALUES) for _ in range(size)]
    elif kind == "pairs":
        values = ["1"] * size
        for r in range(0, size - 1, 2):
            v = Fraction(rng.choice(VALUES))
            values[r], values[r + 1] = _q(v), _q(1 / v)
        rng.shuffle(values)
    else:
        values = ["1"] * size
    group = {"group": "qp" if window else "zp", "p": p, "precision": precision}
    if window:
        group["window"] = window
    modulus = p ** (precision + window)

    def ball():
        return {"center": _q(Fraction(rng.randrange(modulus), scale)),
                "radius_exp": rng.randint(-window, precision)}

    return {"schema": 1, "group": group, "element": _q(Fraction(rng.randrange(1, modulus), scale)),
            "weight": {"level": level, "values": {_q(Fraction(r, scale)): v for r, v in enumerate(values)},
                       "declared_locally_constant": rng.random() < 0.5},
            "sets": [[ball() for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 2))],
            "horizons": {"N_list": [rng.randint(2, 20), 30], "n_max": rng.randint(1, 10),
                         "ul_n_max": rng.randint(1, 12)}}


def _translated_padic_spec(spec, t):
    weight = spec["weight"]
    return {**spec, "weight": {**weight, "values": {_q(Fraction(k) + t): v for k, v in weight["values"].items()}},
            "sets": [[{**b, "center": _q(Fraction(b["center"]) + t)} for b in K] for K in spec["sets"]]}


def _zp(values, element="1"):
    """A zp spec, p = 3, with the table of the given values at level 1."""
    return {"schema": 1, "group": {"group": "zp", "p": 3, "precision": 2}, "element": element,
            "weight": {"level": 1, "values": {str(r): v for r, v in enumerate(values)}},
            "sets": [[{"center": "1", "radius_exp": 1}]], "horizons": {"N_list": [10], "n_max": 5}}


# each (family, rule) pair that can fire first, beside the drawn specs
_COVERAGE = [
    (_zp(["1", "1", "1"]), RULE_MONOTONE),
    (_zp(["2", "1/2", "3"]), RULE_LOG_INTEGRAL),
    ({"schema": 1, "group": {"group": "circle"}, "element": {"angle": math.sqrt(2) % 1.0},
      "weight": {"expr": "exp(1e-7)"}, "sets": [[["0", "1/3"], "half_open"]],
      "horizons": {"N_list": [10], "n_max": 5}}, RULE_MONOTONE),
]


def test_translated_padic_table_specs_run_alike(tmp_path):
    rng = random.Random("padic translation")
    rules = set()
    for i in range(200):
        spec = _padic_spec(rng)
        p, window = spec["group"]["p"], spec["group"].get("window", 0)
        t = Fraction(rng.randrange(1, p ** (spec["group"]["precision"] + window)), p ** window)
        fired = _assert_alike(tmp_path, f"{i}", spec, _translated_padic_spec(spec, t))
        rules.add(fired["rule"] if isinstance(fired, dict) else fired)
    assert len(rules) >= 4, rules


@pytest.mark.parametrize("spec, rule", _COVERAGE, ids=["zp-one", "zp-2-1/2-3", "circle-exp-1e-7"])
def test_each_rule_fires_first_on_its_coverage_spec(tmp_path, spec, rule):
    code, results, _, _ = _run(tmp_path, "spec", spec)
    assert code == 0 and results["hctest"]["fired_rule"]["rule"] == rule
    if spec["group"]["group"] == "zp":
        assert _assert_alike(tmp_path, "moved", spec, _translated_padic_spec(spec, Fraction(2)))["rule"] == rule
