import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_core_subcommand_prints_near_equal_exact_vertices(tmp_path,
                                                          capsys):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(
        {"n": 2, "kind": "lambda",
         "lambda": [["500000000001/1000000000000",
                     "499999999999/1000000000000"], ["1/2", "1/2"]]}))
    assert run_cli(["core", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == [
        ["500000000001/1000000000000", "499999999999/1000000000000"],
        ["1/2", "1/2"]]


def test_missing_capacity_file(tmp_path):
    assert run_cli(["check-capacity", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("obj, message", [
    ({"n": 2, "table": {"0": "0", "1": None, "2": "1/2", "3": "1"}},
     "not a finite number or 'p/q' string within float range: None"),
    ({"n": 100, "table": {"0": "0", "1": "1"}},
     "capacities limited to n <= 12 points: n=100 needs a 2**n = 2**100 "
     "entry table and 2**n (2**n - 1) / 2 = 2**99 (2**100 - 1) event "
     "pairs\n"),
    ({"n": 2, "table": {"0": "0", "1": "1/2", "7": "1/2", "3": "1"}},
     "event mask '7' out of range for n=2"),
    ({"n": 2, "table": {"0": "0", "1": "1/0", "2": "1/2", "3": "1"}},
     "zero denominator in '1/0'"),
    ({"n": "2", "table": {"0": "0", "1": "1/2", "2": "1/2", "3": "1"}},
     "'n' must be an integer >= 1"),
    ({"kind": "lambda", "lambda": [["1/2", None]]},
     "not a finite number or 'p/q' string within float range: None"),
    (["not", "an", "object"], "capacity file must hold a JSON object"),
    # 2**n keys, two of them naming mask 1
    ({"n": 2, "table": {"0": "0", "1": "1/2", "01": "1/2", "3": "1"}},
     "keys '1' and '01' name the same event mask 1"),
    ({"n": 1, "table": {"0": "1/2", "1": "1"}},
     "capacity of empty set must be 0"),
    # keys and values past int()'s 4300-digit limit
    ({"n": 2, "table": {"0": "0", "1": "1/2", "0" * 4400 + "1": "1/2",
                        "3": "1"}},
     "keys '1' and %.60r name the same event mask 1" % ("0" * 4400 + "1")),
    ({"n": 2, "table": {"0": "0", "1": "1/2", "1" * 5000: "1/2", "3": "1"}},
     "event mask %.60r out of range for n=2" % ("1" * 5000)),
    ({"n": 1, "table": {"0": "0", "1": "1" * 5000}},
     "too many digits in %.60r" % ("1" * 5000)),
    ({"n": 1, "table": [0, 1]}, "'table' must map event masks to values"),
    ({"kind": "lambda", "lambda": {"0": ["1"]}},
     "'lambda' must be a list of probability vectors"),
    ({"kind": "lambda", "lambda": [["1/2", "1/2"], "1"]},
     "'lambda' must be a list of probability vectors"),
], ids=["null-value", "huge-n", "mask-out-of-range", "zero-denominator",
        "string-n", "null-in-lambda", "not-an-object", "repeated-mask",
        "nonzero-empty-set", "long-zero-padded-key", "long-key",
        "long-value", "table-as-list", "lambda-as-object",
        "lambda-member-not-a-list"])
@pytest.mark.parametrize("command", ["core", "check-capacity"])
def test_malformed_capacity_file_is_config_error(tmp_path, capsys, obj,
                                                 message, command):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(obj))
    assert run_cli([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)


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
    assert "2**n = %d entry table" % 2 ** 40 in err
    assert "2**n (2**n - 1) / 2 = %d event pairs" % (
        2 ** 40 * (2 ** 40 - 1) // 2) in err


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
    assert "2**n = %d entry table" % 2 ** 13 in err
    assert "2**n (2**n - 1) / 2 = %d event pairs" % (
        2 ** 13 * (2 ** 13 - 1) // 2) in err


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


@pytest.mark.parametrize("name, code", [("kingman-two-cycle", 0),
                                        ("finite-swap-ergodic", 2)])
def test_lyapunov_reads_the_scenario_name_from_a_file(tmp_path, capsys,
                                                      name, code):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"name": name}))
    out = tmp_path / "out"
    assert run_cli(["lyapunov", str(cfg), "--out", str(out)]) == code
    assert (out / name / "report.json").exists() == (code == 0)
    if code:
        assert capsys.readouterr().err == \
            "error: not a cocycle scenario: %r\n" % name


def test_lyapunov_reads_its_scenario_file_once(tmp_path, monkeypatch):
    from capergo import serialize

    real, paths = serialize.load_json, []
    monkeypatch.setattr(serialize, "load_json",
                        lambda path: paths.append(path) or real(path))
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"name": "kingman-two-cycle",
                               "config": {"seed": 3}}))
    out = tmp_path / "out"
    assert run_cli(["lyapunov", str(cfg), "--out", str(out)]) == 0
    assert paths == [str(cfg)]
    report = json.loads((out / "kingman-two-cycle" /
                         "report.json").read_text())
    assert report["config"]["seed"] == 3


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


_HUGE = "1" + "0" * 400  # an integer beyond float range


@pytest.mark.parametrize("command,text", [
    ("run", "[" * 100_000 + "]" * 100_000),
    ("core", "[" * 100_000 + "]" * 100_000),
    ("check-capacity", "[" * 100_000 + "]" * 100_000),
    ("core", '{"n": 1, "table": {"0": 0, "1": %s}}' % _HUGE),
    ("check-capacity", '{"n": 1, "table": {"0": 0, "1": %s}}' % _HUGE),
    ("check-capacity",
     '{"n": 2, "table": {"0": 0.0, "1": 0.5, "2": %s, "3": 1}}' % _HUGE),
    ("core", '{"kind": "lambda", "lambda": [[0.5, "%s/3"]]}' % _HUGE),
], ids=["deep-run", "deep-core", "deep-check-capacity", "huge-int-core",
        "huge-int-check-capacity", "huge-int-among-floats",
        "huge-rational-among-floats"])
def test_pathological_json_file_is_config_error(tmp_path, capsys, command,
                                                text):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run_cli([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# --- fuzz: every input ends in exit 0, 1 or 2 without a traceback ----------

_NAMES = [entry[0] for entry in REGISTRY] + ["no-such-scenario"]
_KEYS = sorted({key for _, _, params, _ in REGISTRY for key in params}) + \
    ["no_such_key"]
_VALUES = ["0", "-1", "nan", "inf", "1e400", "9" * 500, "abc", "3", "0.5"]

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() |
    st.text(max_size=4) | st.sampled_from(["1/2", "1/0", "-1/3", "x/y"]),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_number = st.sampled_from([0, 1, -1, 0.5, "1/2", "1/3", "2/3", "1/0",
                           1e400, float("nan"), 10 ** 500, True, None, "abc"])
_vector = st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(
    any).map(lambda ks: ["%d/%d" % (k, sum(ks)) for k in ks])


@st.composite
def _tables(draw):
    """A full 2**n table, of counting-capacity or of drawn values."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = ["%d/%d" % (bin(a).count("1"), n) for a in range(1 << n)]
    else:
        values = draw(st.lists(_number, min_size=1 << n, max_size=1 << n))
    return {"n": n, "table": {str(a): v for a, v in enumerate(values)}}


_capacity_files = _json | _tables() | st.fixed_dictionaries({
    "n": st.integers(-1, 3) | _json,
    "table": st.dictionaries(st.sampled_from(["0", "1", "2", "3", "4", "-1",
                                              "01", "x"]),
                             _number, max_size=5) | _json}) | \
    st.fixed_dictionaries({
        "kind": st.sampled_from(["lambda", "table", "other"]),
        "lambda": st.lists(_vector | st.lists(_number, max_size=4),
                           max_size=3) | _json})
_scenario_files = _json | st.fixed_dictionaries({
    "name": st.sampled_from(_NAMES) | _json,
    "config": st.dictionaries(st.sampled_from(_KEYS), _number | _json,
                              max_size=3) | _json})


_FILE, _OUT = "<file>", "<out>"  # stand for paths in the drawn argv


@st.composite
def _argvs(draw):
    """An argv and the JSON object that its file argument, if any, holds."""
    command = draw(st.sampled_from(["run", "lyapunov", "core",
                                    "check-capacity"]))
    if command in ("core", "check-capacity"):
        return [command, _FILE], draw(_capacity_files)
    obj = None
    if command == "run" and draw(st.booleans()):
        argv, obj = [command, _FILE], draw(_scenario_files)
    else:
        argv = [command, draw(st.sampled_from(_NAMES))]
    for key, value in draw(st.lists(st.tuples(st.sampled_from(_KEYS),
                                              st.sampled_from(_VALUES)),
                                    max_size=3)):
        argv += ["--set", "%s=%s" % (key, value)]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(_VALUES))]
    return argv + ["--out", _OUT], obj


@pytest.fixture
def small_cli(monkeypatch):
    """The scenarios and the capacity constructors stand in small: the
    fuzz is over the CLI's input handling, not over the checks."""
    from capergo import scenarios, serialize

    for name, (fn, params, desc) in list(scenarios.BY_NAME.items()):
        monkeypatch.setitem(scenarios.BY_NAME, name,
                            (lambda config: ([], {}), params, desc))

    def small(real, points):
        def build(*args):
            if points(*args) > 4:
                raise ValueError("stand-in: more than 4 points")
            return real(*args)
        return build

    monkeypatch.setattr(serialize, "Capacity",
                        small(serialize.Capacity, lambda n, table: n))
    monkeypatch.setattr(serialize, "UpperProbability",
                        small(serialize.UpperProbability,
                              lambda family: max(map(len, family),
                                                 default=0)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_cli_fuzz_exits_0_1_or_2_without_traceback(tmp_path, small_cli,
                                                   case):
    argv, obj = case
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    paths = {_FILE: str(path), _OUT: str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
