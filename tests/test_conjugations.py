"""The paper's conjugations as end-to-end oracles of a whole run.

An automorphism phi of a finite group G conjugates the weighted translation
T_{a,w} to T_{phi(a), w o phi^-1}, by f -> f o phi^-1, and carries each set
K to phi(K).  So every necessary condition gives the same outcome on both
specs of a pair, each witness maps through phi, and the orbit's counts in
K and in phi(K) are the same.  Each pair runs both specs through
``cli.main`` and compares the two runs.
"""

import csv
import json
import math
import random

import pytest

from hclab import cli
from hclab.groups import catalog
from hclab.report import RULE_TORSION

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
