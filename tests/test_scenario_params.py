"""Declared scenario parameters: every config value is checked against the
registry's one declaration (default, type, inclusive range) before the
scenario function is entered, and report.json records the resolved
values."""

import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capergo import scenarios
from capergo.cli import main

NAMES = [entry[0] for entry in scenarios.REGISTRY]
DECLARED = [(name, key) for name, _, params, _ in scenarios.REGISTRY
            for key in params]
VALUES = [0, -1, 2.5, 1e9, math.inf, math.nan, "abc", True, 10 ** 30]


def _accepted(value, default, lo, hi):
    """The declaration's rule, written out: a real number (not a bool)
    inside [lo, hi], and integral when the default is an int."""
    if type(value) not in (int, float) or value != value:
        return False
    if not lo <= value <= hi:
        return False
    return isinstance(default, float) or float(value).is_integer()


@pytest.mark.parametrize("name", NAMES)
def test_every_scenario_runs_at_its_lower_bounds(tmp_path, name):
    params = scenarios.BY_NAME[name][1]
    argv = ["run", name, "--out", str(tmp_path)]
    for key, (_, lo, _) in params.items():
        argv += ["--set", "%s=%r" % (key, lo)]
    assert main(argv) in (0, 1)
    report = json.loads((tmp_path / name / "report.json").read_text())
    assert report["config"] == {k: p[1] for k, p in params.items()}


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(DECLARED), value=st.sampled_from(VALUES),
       from_file=st.booleans())
def test_declared_value_is_checked_before_the_scenario_starts(
        tmp_path_factory, case, value, from_file):
    name, key = case
    _, params, desc = scenarios.BY_NAME[name]
    entered = []

    def spy(config):
        entered.append(config)
        return [], {}

    out = tmp_path_factory.mktemp("run")
    if from_file:
        job = out / "job.json"
        job.write_text(json.dumps({"name": name, "config": {key: value}}))
        argv = ["run", str(job)]
    else:
        argv = ["run", name, "--set", "%s=%s" % (key, value)]
    err = io.StringIO()
    with mock.patch.dict(scenarios.BY_NAME, {name: (spy, params, desc)}), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 2)
    assert (code == 2) == (not entered)
    if code == 2:
        assert err.getvalue().startswith("error: %s " % key)
    default, lo, hi = params[key]
    # a --set value arrives as text, so True is the string "True" there
    sent = "True" if value is True and not from_file else value
    assert bool(entered) == _accepted(sent, default, lo, hi)
    if entered:
        assert type(entered[0][key]) is type(default)
        assert entered[0][key] == value


@pytest.mark.parametrize("name,argv", [
    ("z-density-counterexample", ["--set", "K=3"]),
    ("z-density-counterexample", ["--set", "K=12.5"]),
    ("remark-sqrt-cesaro", ["--set", "K=-1"]),
    ("polynomial-birkhoff", ["--set", "streams=0"]),
    ("polynomial-birkhoff", ["--set", "streams=1"]),
    ("rotation-swap-ergodic", ["--set", "tol=inf"]),
    ("rotation-swap-ergodic", ["--set", "N=1e9"]),
    ("rotation-swap-birkhoff", ["--set", "seed=7.9"]),
    ("finite-swap-ergodic", ["--set", "seed=abc"]),
    ("lyapunov-periodic-oracle", ["--set", "d=30"]),
    ("finite-swap-ergodic", ["--seed", str(2 ** 64)]),
])
def test_out_of_declaration_value_is_config_error(tmp_path, capsys,
                                                  monkeypatch, name, argv):
    def never(config):
        raise AssertionError("scenario entered with %r" % config)

    _, params, desc = scenarios.BY_NAME[name]
    monkeypatch.setitem(scenarios.BY_NAME, name, (never, params, desc))
    assert main(["run", name, "--out", str(tmp_path)] + argv) == 2
    key = argv[1].split("=")[0] if argv[0] == "--set" else "seed"
    assert capsys.readouterr().err.startswith("error: %s " % key)
    assert not (tmp_path / name).exists()


def test_report_records_resolved_values(tmp_path):
    assert main(["run", "rotation-swap-halves", "--set", "N=64.0",
                 "--set", "tol=0", "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "rotation-swap-halves" /
                         "report.json").read_text())
    assert report["config"]["N"] == 64
    assert isinstance(report["config"]["N"], int)
    assert report["config"]["tol"] == 0.0
    assert isinstance(report["config"]["tol"], float)
