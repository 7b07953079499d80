import json
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "conevol.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cone_iv_orthant3():
    code, out, _ = run_cli(
        "cone-iv", str(FIXTURES / "orthant3.json"), "--samples", "40000", "--seed", "7"
    )
    assert code == 0
    obj = json.loads(out)
    exact = [0.125, 0.375, 0.375, 0.125]
    for k in range(4):
        assert abs(obj["values"][k] - exact[k]) <= 4 * obj["std_errors"][k]
    assert obj["exact_values"] == exact
    assert obj["n_samples"] == 40000 and obj["seed"] == 7


def test_arr_chi_braid4():
    code, out, _ = run_cli("arr-chi", "--family", "braid:4")
    assert code == 0
    obj = json.loads(out)
    assert obj["chi"] == [0, -6, 11, -6, 1]  # t(t-1)(t-2)(t-3)


def test_verify_gauss_bonnet_exit_zero():
    code, out, _ = run_cli(
        "verify", "gauss-bonnet", str(FIXTURES / "square-cone.json"),
        "--seed", "1", "--samples", "20000",
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["status"] == "pass"


def test_verify_failure_exit_one():
    # an absurd tolerance forces a statistical failure
    code, out, _ = run_cli(
        "verify", "sommerville", str(FIXTURES / "orthant3.json"),
        "--samples", "2000", "--seed", "1", "--tolerance-sigmas", "0.0001",
    )
    assert code == 1


def run_main(capsys, *args):
    """`cli.main` in-process: (exit code, stdout, stderr)."""
    from conevol import cli

    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_bad_input_through_the_console_entry_point(tmp_path):
    # one case through a fresh interpreter: an input error is reported on
    # stderr without a traceback; the cases below run in-process
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "inequalities": [[0.5, -1]]}))
    code, out, err = run_cli("cone-info", str(bad))
    assert code == 2 and "error" in err and "Traceback" not in err and out == ""


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    code, _, err = run_main(capsys, "cone-iv", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_main(capsys, "cone-info", str(bad))
    assert code == 2
    code, _, _ = run_main(capsys, "arr-family", "frobnicate:9")
    assert code == 2
    code, _, _ = run_main(capsys, "verify", "unknown-identity", str(FIXTURES / "orthant2.json"))
    assert code == 2
    code, _, _ = run_main(capsys, "no-such-verb")
    assert code == 2
    # entries the exact layer rejects: a float, a boolean, a zero denominator
    for verb, obj in (
        ("cone-info", {"d": 2, "inequalities": [[0.5, -1]]}),
        ("cone-info", {"d": 2, "inequalities": [[True, -1]]}),
        ("cone-info", {"d": 2, "inequalities": [["1/0", -1]]}),
        ("arr-chi", {"d": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]}),
    ):
        bad.write_text(json.dumps(obj))
        code, out, err = run_main(capsys, verb, str(bad))
        assert code == 2 and "error" in err and out == "", (verb, obj)
    # a top-level value that is not an object is rejected by its type, in
    # every verb that reads a cone or an arrangement file
    for text, kind in (("null", "NoneType"), ('"d"', "str"), ('["d"]', "list"),
                       ('["d", "normals"]', "list")):
        bad.write_text(text)
        for argv in (["cone-info", str(bad)], ["cone-iv", str(bad)], ["arr-chi", str(bad)],
                     ["verify", "kinematic", str(bad), str(bad)]):
            code, out, err = run_main(capsys, *argv)
            assert code == 2 and f"must be an object, got {kind}" in err and out == "", (
                argv, text, err)
    # a row or a field that is not a list is rejected by the field's name; a
    # string row is not read digit by digit
    for verb, obj, name in (
        ("cone-info", {"d": 2, "inequalities": [5]}, "normal"),
        ("cone-info", {"d": 2, "inequalities": [[1, 0]], "equalities": 7}, "equality"),
        ("cone-info", {"d": 2, "inequalities": ["12"]}, "normal"),
        ("arr-chi", {"d": 2, "normals": [5]}, "normal"),
    ):
        bad.write_text(json.dumps(obj))
        code, out, err = run_main(capsys, verb, str(bad))
        assert code == 2 and name in err and out == "", (verb, obj, err)
    # an ambient dimension that is not an int >= 1 is rejected by name
    for verb, obj in (
        ("cone-info", {"d": 2.7, "inequalities": [[-1, 0]]}),
        ("cone-info", {"d": True, "inequalities": [[-1]]}),
        ("cone-info", {"d": -1, "inequalities": [[-1, 0]]}),
        ("arr-chi", {"d": 2.9, "normals": [[1, 0], [0, 1]]}),
        ("arr-chi", {"d": -1, "normals": [[1, 0]]}),
    ):
        bad.write_text(json.dumps(obj))
        code, out, err = run_main(capsys, verb, str(bad))
        assert code == 2 and "'d'" in err and out == "", (verb, obj, err)
    # a generic spec with an unknown key, a repeated key or a part with no '='
    # is rejected by the key, not read as the default seed or the last value;
    # one no draw can meet is rejected, not redrawn forever: R^1 has one
    # hyperplane, and entries in [-9, 9] give 112 lines in R^2
    for spec, key in (("generic:n=5,d=3,sed=4", "'sed'"), ("generic:n=5,d=3,n=7", "'n'"),
                      ("generic:n=5,d=3,7", "'7'"), ("generic:n=2,d=1", "one hyperplane"),
                      ("generic:n=150,d=2", "no generic draw")):
        code, out, err = run_main(capsys, "arr-chi", "--family", spec)
        assert code == 2 and key in err and out == "", (spec, err)
    # steiner-mgf outside its finite-variance domain t < ln 2 / 2
    code, _, err = run_main(capsys, "verify", "steiner-mgf", str(FIXTURES / "square-cone.json"),
                            "--t-grid", "12", "--samples", "2000")
    assert code == 2 and "error" in err
    # rotation counts below one (two for the kinematic checks), a tolerance
    # that is not a positive number, an empty or non-finite t-grid, a
    # kinematic or face-alternation index outside 0..d and a slice level
    # below 2 are input errors, not failed or vacuous checks
    pair = [str(FIXTURES / "orthant2.json")] * 2
    square = str(FIXTURES / "square-cone.json")
    for argv, name in (
        (["kinematic", *pair, "--trials", "0"], "trials"),
        (["kinematic", *pair, "--trials", "-3"], "trials"),
        # the kinematic SEs are sample standard deviations over rotations
        (["kinematic", *pair, "--trials", "1"], "trials must be at least 2"),
        (["polar-kinematic", *pair, "--trials", "1"], "trials must be at least 2"),
        (["crofton", *pair, "--trials", "0"], "trials"),
        (["sommerville", square, "--tolerance-sigmas", "-1"], "tolerance_sigmas"),
        (["sommerville", square, "--tolerance-sigmas", "nan"], "tolerance_sigmas"),
        (["genfun", square, "--t-grid", ""], "t-grid"),
        (["steiner-mgf", square, "--t-grid", ""], "t-grid"),
        (["genfun", square, "--t-grid", "nan"], "t-grid"),
        (["genfun", square, "--t-grid", "0.3,inf"], "t-grid"),
        (["steiner-mgf", square, "--t-grid", "-inf"], "t-grid"),
        (["kinematic", *pair, "--k", "9"], "index k"),
        (["polar-kinematic", *pair, "--k", "9"], "index k"),
        (["polar-kinematic", *pair, "--k", "-1"], "index k"),
        (["face-alternation", square, "--k", "9"], "index k"),
        (["generic-slice", "--family", "braid:4", "--j", "0"], "requires j >= 2"),
        (["generic-slice", "--family", "braid:4", "--j", "1"], "requires j >= 2"),
        # a cone check takes exactly its number of cone files, a family
        # check none, an arrangement check at most one
        (["euler"], "takes 1 cone file, got 0"),
        (["euler", pair[0], str(FIXTURES / "line2.json")], "takes 1 cone file, got 2"),
        (["kinematic", pair[0]], "takes 2 cone files, got 1"),
        (["hug-schneider", pair[0], "--n", "3", "--d", "2"], "takes 0 cone files, got 1"),
        (["hug-schneider", "--n", "2", "--d", "1"], "one hyperplane"),
        (["zaslavsky", str(FIXTURES / "braid3.json"), str(FIXTURES / "bc2.json")],
         "at most 1 arrangement file"),
        # a t whose weights, or the squares the SE takes of them, overflow
        (["genfun", pair[0], "--t-grid", "400"], "t = 400"),
        (["genfun", pair[0], "--t-grid", "300"], "t = 300"),
        (["steiner-mgf", pair[0], "--t-grid=-400"], "t = -400"),
    ):
        code, out, err = run_main(capsys, "verify", *argv, "--samples", "500")
        assert code == 2 and name in err and out == "", (argv, err)
        assert "Traceback" not in err, argv


def test_verify_steiner_mgf_default_grid():
    code, out, _ = run_cli(
        "verify", "steiner-mgf", str(FIXTURES / "square-cone.json"),
        "--samples", "2000", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


def test_byte_identical_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(
            "cone-iv", str(FIXTURES / "square-cone.json"),
            "--samples", "5000", "--seed", "3", "--workers", "2",
            "-o", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fixture_files_round_trip(tmp_path, capsys):
    polar_file = tmp_path / "polar.json"
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "normals" in obj:
            code, _, _ = run_main(capsys, "arr-chi", str(path))
            assert code == 0, path
        else:
            code, out, _ = run_main(capsys, "cone-polar", str(path))
            assert code == 0, path
            # polar twice reproduces the original canonical file
            polar_file.write_text(out)
            code, out2, _ = run_main(capsys, "cone-polar", str(polar_file))
            assert code == 0, path
            assert json.loads(out2) == obj, path


def test_cone_info_table():
    code, out, _ = run_cli(
        "cone-info", str(FIXTURES / "orthant2.json"), "--format", "table"
    )
    assert code == 0
    assert "f-vector" in out and "[1, 2, 1]" in out


def test_arr_regions_family():
    code, out, _ = run_cli("arr-regions", "--family", "bc:2")
    assert code == 0
    obj = json.loads(out)
    assert obj["counts"]["2"] == 8 and obj["match"] is True


def test_arr_regions_exit_one_on_count_mismatch(monkeypatch, capsys):
    from conevol import cli

    real = cli.regions_j
    monkeypatch.setattr(cli, "regions_j", lambda *a, **k: real(*a, **k)[1:])
    assert cli.main(["arr-regions", "--family", "bc:2"]) == 1
    assert json.loads(capsys.readouterr().out)["match"] is False


def test_arr_family_round_trip():
    code, out, _ = run_cli("arr-family", "generic:n=4,d=2,seed=11")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 2 and len(obj["normals"]) == 4


def test_verify_crofton_cli():
    code, out, _ = run_cli(
        "verify", "crofton", str(FIXTURES / "orthant2.json"),
        str(FIXTURES / "line2.json"), "--trials", "20000", "--seed", "2",
    )
    assert code == 0
    rep = json.loads(out)[0]
    assert rep["status"] == "pass"
    assert abs(rep["rhs"] - 0.5) < 1e-9


def test_verify_klivans_swartz_cli():
    code, out, _ = run_cli(
        "verify", "klivans-swartz", "--family", "braid:3", "--j", "3",
        "--samples", "20000", "--seed", "4",
    )
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


def test_verify_zaslavsky_cli():
    code, out, _ = run_cli("verify", "zaslavsky", str(FIXTURES / "three-lines.json"))
    assert code == 0
    assert json.loads(out)[0]["status"] == "pass"


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0


def test_fixture_bytes_are_canonical():
    # serializing the parsed object reproduces each fixture verbatim
    from conevol.arrangement import arrangement_from_json, arrangement_to_json
    from conevol.cone import cone_from_json, cone_to_json

    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.load(open(path))
        if "normals" in obj:
            assert arrangement_to_json(arrangement_from_json(obj)) == obj, path.name
        else:
            assert cone_to_json(cone_from_json(obj)) == obj, path.name


def test_json_surface_matches_recorded_output(capsys):
    # a lineality whose RREF has a "p/q" entry: cone-info writes it as the
    # lineality, cone-polar as the polar's equalities; both outputs were
    # recorded when the fields were still stored as Fraction RREF rows
    cone = str(FIXTURES / "skew-lineality.json")
    for argv, recorded in ((["cone-info", cone, "--format", "json"], "cone-info"),
                           (["cone-polar", cone], "cone-polar")):
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        assert out == (FIXTURES / "expected" / f"skew-lineality.{recorded}.json").read_text()


def test_arrangement_file_and_family_together_exit_two(capsys):
    # two arrangements are an input error, not the --family one read silently
    bc2 = str(FIXTURES / "bc2.json")
    for argv in (["arr-chi", bc2, "--family", "braid:3"],
                 ["arr-regions", bc2, "--family", "braid:3"],
                 ["verify", "zaslavsky", bc2, "--family", "braid:3"],
                 ["verify", "klivans-swartz", bc2, "--family", "braid:3", "--samples", "500"],
                 ["verify", "generic-slice", bc2, "--family", "braid:3"]):
        code, out, err = run_main(capsys, *argv)
        assert code == 2 and out == "" and bc2 in err and "braid:3" in err, (argv, err)


# one small argument list per identity of `conevol verify`
_ORTHANT2 = str(FIXTURES / "orthant2.json")
_VERIFY_ARGV = {
    "euler": [_ORTHANT2],
    "gauss-bonnet": [_ORTHANT2],
    "sommerville": [_ORTHANT2],
    "face-alternation": [_ORTHANT2, "--k", "1"],
    "statdim-alternation": [_ORTHANT2],
    "statdim-consistency": [_ORTHANT2],
    "genfun": [_ORTHANT2],
    "steiner-mgf": [_ORTHANT2],
    "mcmullen": [_ORTHANT2],
    "kinematic": [_ORTHANT2, _ORTHANT2, "--trials", "2"],
    "polar-kinematic": [_ORTHANT2, _ORTHANT2, "--trials", "2"],
    "crofton": [_ORTHANT2, str(FIXTURES / "line2.json"), "--trials", "2"],
    "zaslavsky": ["--family", "braid:3"],
    "klivans-swartz": ["--family", "braid:3"],
    "generic-slice": ["--family", "braid:3"],
    "hug-schneider": ["--n", "3", "--d", "2"],
    "family-statdim": ["--family", "braid", "--j", "2"],
}


def test_verify_argv_covers_every_identity():
    from conevol import cli

    assert set(_VERIFY_ARGV) == set(cli._IDENTITIES)


@pytest.mark.parametrize("identity", sorted(_VERIFY_ARGV))
def test_every_identity_dispatches(identity, capsys):
    code, out, _ = run_main(capsys, "verify", identity, *_VERIFY_ARGV[identity],
                            "--samples", "500")
    reports = json.loads(out)
    assert code in (0, 1) and reports and all("status" in r for r in reports)
    if identity == "genfun":
        # the default --t-grid is the suite's Steiner grid
        from conevol.identities import STEINER_T_GRID

        assert [r["identity"] for r in reports] == [
            f"genfun-alternation[t={t}]" for t in STEINER_T_GRID]


def test_verify_help_lists_every_identity(capsys):
    from conevol import cli

    code, out, _ = run_main(capsys, "verify", "--help")
    assert code == 0
    for name in cli._IDENTITIES:
        assert name in out, name
    assert len(cli._IDENTITIES) == 17
