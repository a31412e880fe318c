import json
import os

from hclab.cli import main, parse_spec, validate

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


def test_parse_spec_resolves_objects():
    spec, diags = parse_spec(three_coset_spec(), "padic")
    assert diags == []
    assert spec.weight.rational_at(spec.group.element(4)) == spec.weight.table[1]
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


def test_rerun_is_byte_identical(tmp_path):
    spec = write_spec(tmp_path, three_coset_spec())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["padic", "--spec", spec, "--out-dir", str(out1)]) == 0
    assert main(["padic", "--spec", spec, "--out-dir", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
