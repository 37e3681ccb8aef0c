import json
import os

import pytest

from capergo.cli import main
from capergo.scenarios import REGISTRY


def run_cli(args):
    return main(args)


def test_list_names_every_scenario(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    assert len(REGISTRY) >= 12
    for name, _, _, _ in REGISTRY:
        assert name in out


def test_run_writes_report_and_csv(tmp_path, capsys):
    code = run_cli(["run", "finite-swap-ergodic", "--out", str(tmp_path)])
    assert code == 0
    rep_path = tmp_path / "finite-swap-ergodic" / "report.json"
    report = json.loads(rep_path.read_text())
    assert report["overall"] is True
    assert report["scenario"] == "finite-swap-ergodic"
    assert all("check" in c and "verdict" in c for c in report["checks"])
    csvs = list((tmp_path / "finite-swap-ergodic").glob("*.csv"))
    assert csvs, "expected at least one csv table"


def test_run_is_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        out = tmp_path / str(i)
        assert run_cli(["run", "rotation-swap-halves", "--out",
                        str(out)]) == 0
        paths.append(out / "rotation-swap-halves" / "report.json")
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPERGO_OUT", str(tmp_path / "envout"))
    assert run_cli(["run", "finite-swap-ergodic"]) == 0
    assert (tmp_path / "envout" / "finite-swap-ergodic" /
            "report.json").exists()


def test_unknown_scenario_is_config_error(tmp_path):
    assert run_cli(["run", "no-such-scenario", "--out", str(tmp_path)]) == 2


def test_bad_override_is_config_error(tmp_path):
    assert run_cli(["run", "finite-swap-ergodic", "--set", "oops",
                    "--out", str(tmp_path)]) == 2


def test_unknown_override_key_is_config_error(tmp_path):
    assert run_cli(["run", "rotation-swap-halves", "--set", "N=64", "--set",
                    "bogus=1", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"name": "rotation-swap-halves",
                               "config": {"N": 64, "bogus": 1}}))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "rotation-swap-halves").exists()


def test_zero_horizon_override_is_config_error(tmp_path):
    assert run_cli(["run", "rotation-swap-halves", "--set", "N=0",
                    "--out", str(tmp_path)]) == 2


def test_scenario_file_with_overrides(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"name": "rotation-swap-halves",
                               "config": {"N": 64}}))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "rotation-swap-halves" /
                      "report.json").read_text())
    assert rep["config"]["N"] == 64


def test_scenario_file_unknown_name(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"name": "bogus"}))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("obj", [
    [],
    {"name": "rotation-swap-halves", "config": [["N", 64]]},
    {"name": "rotation-swap-halves", "config": "N=64"},
    {"name": ["rotation-swap-halves"]},
], ids=["list", "config-list", "config-string", "unhashable-name"])
def test_scenario_file_of_wrong_shape_is_config_error(tmp_path, capsys, obj):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(obj))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "rotation-swap-halves").exists()


@pytest.mark.parametrize("name,setting", [
    ("rotation-swap-halves", "N=inf"),
    ("rotation-swap-halves", "N=nan"),
    ("rotation-swap-halves", "N=2.5"),
    ("rotation-swap-halves", "N=-3"),
    ("rotation-swap-halves", "N=many"),
    ("periodic-cycle-sqrt-moment", "cycle_length=0"),
    ("lyapunov-periodic-oracle", "period=0"),
    ("lyapunov-periodic-oracle", "d=0"),
    ("rotation-swap-birkhoff", "points=0"),
])
def test_bad_integer_override_is_config_error(tmp_path, capsys, name,
                                              setting):
    assert run_cli(["run", name, "--set", setting,
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s must be an integer >= 1"
                          % setting.split("=")[0])
    assert not (tmp_path / name).exists()


def test_integral_float_override_is_accepted(tmp_path):
    assert run_cli(["run", "rotation-swap-halves", "--set", "N=64.0",
                    "--out", str(tmp_path)]) == 0


def test_check_capacity_subcommand(tmp_path, capsys):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(
        {"n": 2, "kind": "lambda", "lambda": [["1", "0"], ["0", "1"]]}))
    assert run_cli(["check-capacity", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["subadditive"] is True
    assert out["additive"] is False


def test_core_subcommand(tmp_path, capsys):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(
        {"n": 2, "kind": "lambda", "lambda": [["1", "0"], ["0", "1"]]}))
    assert run_cli(["core", str(path)]) == 0
    verts = json.loads(capsys.readouterr().out)
    from fractions import Fraction
    parsed = sorted([Fraction(x) for x in v] for v in verts)
    assert parsed == [[0, 1], [1, 0]]


def test_missing_capacity_file(tmp_path):
    assert run_cli(["check-capacity", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("obj", [
    {"n": 2, "table": {"0": "0", "1": None, "2": "1/2", "3": "1"}},
    {"n": 100, "table": {"0": "0", "1": "1"}},
    {"n": 2, "table": {"0": "0", "1": "1/2", "7": "1/2", "3": "1"}},
    {"n": 2, "table": {"0": "0", "1": "1/0", "2": "1/2", "3": "1"}},
    {"n": "2", "table": {"0": "0", "1": "1/2", "2": "1/2", "3": "1"}},
    {"kind": "lambda", "lambda": [["1/2", None]]},
    ["not", "an", "object"],
], ids=["null-value", "huge-n", "mask-out-of-range", "zero-denominator",
        "string-n", "null-in-lambda", "not-an-object"])
@pytest.mark.parametrize("command", ["core", "check-capacity"])
def test_malformed_capacity_file_is_config_error(tmp_path, capsys, obj,
                                                 command):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(obj))
    assert run_cli([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_core_rejects_n6_before_building_bases(tmp_path, capsys,
                                               monkeypatch):
    from capergo import setfun

    def no_bases(n):
        raise AssertionError("bases built for n=%d" % n)

    monkeypatch.setattr(setfun, "_bases", no_bases)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(
        {"n": 6, "table": {str(a): "%d/6" % bin(a).count("1")
                           for a in range(64)}}))
    assert run_cli(["core", str(path)]) == 2
    assert "10424128 candidate bases" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["core", "check-capacity"])
def test_lambda_file_rejects_n40_before_building_envelope(tmp_path, capsys,
                                                          monkeypatch,
                                                          command):
    from capergo import serialize

    def no_envelope(family):
        raise AssertionError("envelope built on %d points" % len(family[0]))

    monkeypatch.setattr(serialize, "UpperProbability", no_envelope)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"kind": "lambda", "lambda": [["1/40"] * 40]}))
    assert run_cli([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "2**n = %d" % 2 ** 40 in err and "4**n = %d" % 4 ** 40 in err


@pytest.mark.parametrize("command", ["core", "check-capacity"])
def test_table_file_rejects_n13_before_building_capacity(tmp_path, capsys,
                                                         monkeypatch,
                                                         command):
    from capergo import serialize

    def no_capacity(n, table):
        raise AssertionError("capacity built on %d points" % n)

    monkeypatch.setattr(serialize, "Capacity", no_capacity)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(
        {"n": 13, "table": {str(a): "%d/13" % bin(a).count("1")
                            for a in range(1 << 13)}}))
    assert run_cli([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "2**n = %d" % 2 ** 13 in err and "4**n = %d" % 4 ** 13 in err


COCYCLE_SCENARIOS = {"lyapunov-periodic-oracle", "oseledets-two-cycle",
                     "kingman-two-cycle"}


@pytest.mark.parametrize("name", [entry[0] for entry in REGISTRY])
def test_lyapunov_accepts_exactly_the_cocycle_scenarios(tmp_path,
                                                        monkeypatch, name):
    from capergo import cli

    ran = []
    monkeypatch.setattr(cli, "cmd_run", lambda ns: ran.append(ns.scenario)
                        or 0)
    code = run_cli(["lyapunov", name, "--out", str(tmp_path)])
    if name in COCYCLE_SCENARIOS:
        assert (code, ran) == (0, [name])
    else:
        assert (code, ran) == (2, [])


def test_lyapunov_subcommand_runs_cocycle_scenarios(tmp_path):
    assert run_cli(["lyapunov", "kingman-two-cycle", "--out",
                    str(tmp_path)]) == 0
    assert (tmp_path / "kingman-two-cycle" / "report.json").exists()


def test_lyapunov_rejects_other_scenarios(tmp_path):
    assert run_cli(["lyapunov", "finite-swap-ergodic", "--out",
                    str(tmp_path)]) == 2


def test_seed_flag_changes_seeded_config(tmp_path):
    for seed, sub in ((3, "a"), (4, "b")):
        assert run_cli(["run", "polynomial-birkhoff", "--seed", str(seed),
                        "--out", str(tmp_path / sub)]) == 0
    a = json.loads((tmp_path / "a" / "polynomial-birkhoff" /
                    "report.json").read_text())
    b = json.loads((tmp_path / "b" / "polynomial-birkhoff" /
                    "report.json").read_text())
    assert a["config"]["seed"] == 3 and b["config"]["seed"] == 4


@pytest.mark.parametrize("command", ["run", "core", "check-capacity"])
def test_directory_argument_is_config_error(tmp_path, capsys, command):
    directory = tmp_path / "job.json"
    directory.mkdir()
    assert run_cli([command, str(directory)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
