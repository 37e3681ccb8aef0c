"""Record a paired parent/change benchmark run as a BENCH_*.json file.

    python3 bench/record.py <parent-rev> <out.json>

The change is the checkout this script sits in.  The parent revision is
extracted with ``git archive`` into a temporary directory (under
``$TMPDIR``), so both sides run the benchmark code of their own tree.
The command, the workloads and the run length are read from the
checkout's ``BENCHMARK.json``, so both sides run every declared workload
for the same ``run_seconds``.  For each workload it runs ``<command>
--workload <w> --seed <s> --seconds <run_seconds> --trace 0`` on both
sides in PAIRS pairs; pair k uses seed k + 1, and the side that runs
first alternates from pair to pair, parent first on pair 0.  Ten pairs
is the fewest on which a gain may be claimed (the change must read
lower in at least nine of them).

More measurements ride along on the same two trees:

- per workload, one ``--trace 1`` run on each side (seed PAIRS + 1),
  whose per-layer metrics (calls, inclusive and self time and work
  counts of every traced capergo function, as means per block) are
  written next to the workload medians;
- per scenario, PAIRS more alternating pairs in which a small driver
  times ``capergo.cli.main(["run", <name>, "--seed", "7", "--out",
  <tmp>])`` in-process for every registry entry of that side's tree,
  taking the best of SCENARIO_REPEATS runs;
- PAIRS more alternating pairs in which each command of the ``"cli"``
  record is timed as a process (``python3 -m capergo.cli`` on the side's
  own ``src``): ``capergo list``, ``capergo run`` of each CLI_RUNS
  scenario, and ``capergo check-capacity`` on two CLI_N-point table
  files, the uniform sqrt table and the uniform x**2 table, all under a
  temporary directory; the record says whether both sides printed the
  same output (a run's console line without its wall time, and its
  ``report.json``);
- per acceptance criterion, CRITERION_PAIRS alternating pairs of
  ``pytest tests/test_acceptance.py`` runs, each criterion's duration
  read from pytest's JUnit XML report;
- one Tier-1 run (the whole ``pytest`` suite) on each side, with its
  wall time and its counts of tests and failed tests;
- one ``python3 bench/traffic.py`` run on each side, the side's own
  copy, whose counts of unreached, executable and physical
  ``src/capergo`` lines and whose exit code are written under ``reach``.

Every pytest run records each failed test as ``classname::name`` with the
first line of its message, and prints them to standard error.

The output holds both commits, every run's result line and provenance
record, and per workload, per scenario and per criterion the median of
each metric on each side, the change/parent ratio of the medians, the
distance between the quartiles of the parent's runs, and the number of
pairs in which the change read lower than the parent.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
RUN_TIMEOUT_S = 1800
SCENARIO_REPEATS = 3
CRITERION_PAIRS = 5
CLI_N = 12  # serialize.N_LIMIT: the largest table a capacity file may hold
# scenarios timed as `capergo run` processes: one that needs no numpy, and
# the rotation-swap orbit averages
CLI_RUNS = ("finite-swap-ergodic", "rotation-swap-birkhoff")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
SIDES = ("parent", "change")
# BLAS pinned to one thread, as capbench pins it
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

# run in a tree's root: prints {scenario: best seconds} as its last line
SCENARIO_DRIVER = """
import contextlib, io, json, sys, tempfile, time
sys.path.insert(0, "src")
from capergo import cli, scenarios
best = {}
with tempfile.TemporaryDirectory() as out:
    for name, _, _, _ in scenarios.REGISTRY:
        times = []
        for _ in range(%d):
            started = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", name, "--seed", "7", "--out", out])
            times.append(time.perf_counter() - started)
            if code != 0:
                sys.exit("%%s exited with %%d" %% (name, code))
        best[name] = min(times)
print(json.dumps(best))
""" % SCENARIO_REPEATS


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout


def extract(rev, dest):
    """Write the tree of rev into dest with git archive."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_lines(argv, tree, env=None):
    """The standard output lines of argv run in tree; exits on failure."""
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed in %s (exit %d):\n%s"
                         % (" ".join(argv), tree, proc.returncode,
                            proc.stderr[-2000:]))
    return lines


def run_once(tree, command, workload, seed, seconds, trace=0):
    """(result, provenance) of one capbench run in tree."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    lines = run_lines(argv, tree)
    provenance = None
    for line in lines:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
    return json.loads(lines[-1]), provenance


def time_scenarios(tree):
    """{scenario: best in-process `capergo run` seconds} in tree."""
    env = dict(os.environ, **ONE_THREAD)
    lines = run_lines([sys.executable, "-c", SCENARIO_DRIVER], tree, env)
    return json.loads(lines[-1])


def cli_tables(dest):
    """{name: path} of the CLI_N-point capacity files written into dest:
    the uniform P under sqrt (floats) and under x**2 (exact)."""
    sizes = [bin(a).count("1") for a in range(1 << CLI_N)]
    tables = {"sqrt": [math.sqrt(k / CLI_N) for k in sizes],
              "square": ["%d/%d" % (k * k, CLI_N ** 2) for k in sizes]}
    paths = {}
    for name, values in tables.items():
        paths[name] = os.path.join(dest, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump({"n": CLI_N, "table": {str(a): v for a, v
                                              in enumerate(values)}}, fh)
    return paths


def cli_commands(dest):
    """{name: capergo arguments} of the commands timed as processes:
    `list`, `run` of each CLI_RUNS scenario with its report under dest,
    and `check-capacity` on each table file `cli_tables` writes there."""
    commands = {"list": ["list"]}
    for scenario in CLI_RUNS:
        commands["run " + scenario] = ["run", scenario, "--out", dest]
    for name, path in cli_tables(dest).items():
        commands["check-capacity " + name] = ["check-capacity", path]
    return commands


def time_cli(tree, commands):
    """({name: seconds}, {name: output}) of one `capergo` process per
    command, run on tree's own src.  A run's output is its console line
    without the wall time, followed by the report.json it wrote."""
    env = dict(os.environ, PYTHONPATH="src", **ONE_THREAD)
    seconds, out = {}, {}
    for name, args in commands.items():
        started = time.perf_counter()
        lines = run_lines([sys.executable, "-m", "capergo.cli"] + args,
                          tree, env)
        seconds[name] = time.perf_counter() - started
        out[name] = re.sub(r" \(\d+\.\d+s\)", "", "\n".join(lines))
        if args[0] == "run":
            with open(os.path.join(args[3], args[1], "report.json")) as fh:
                out[name] += "\n" + fh.read()
    return seconds, out


def code_reach(tree):
    """{unreached, executable, physical, exit} of one `bench/traffic.py`
    run in tree: the counts of src/capergo lines its last two lines
    print, and its exit code (1 when an op failed its oracle)."""
    proc = subprocess.run([sys.executable, "bench/traffic.py"], cwd=tree,
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    counts = re.search(r"^(\d+) of (\d+) executable src/capergo lines "
                       r"unreached.*\n(\d+) physical src/capergo lines$",
                       proc.stdout, re.M)
    if counts is None:
        raise SystemExit("bench/traffic.py printed no line counts in %s "
                         "(exit %d):\n%s" % (tree, proc.returncode,
                                             proc.stderr[-2000:]))
    unreached, executable, physical = map(int, counts.groups())
    return {"unreached": unreached, "executable": executable,
            "physical": physical, "exit": proc.returncode}


def failure_of(case):
    """{test, message} of a JUnit test case that failed or errored, with
    the test as classname::name and the message's first line; else
    None."""
    node = case.find("failure")
    if node is None:
        node = case.find("error")
    if node is None:
        return None
    lines = (node.get("message") or node.text or "").splitlines()
    return {"test": "%s::%s" % (case.get("classname"), case.get("name")),
            "message": lines[0] if lines else ""}


def run_pytest(tree, args):
    """{wall_s, tests, failed, failures, durations} of one pytest run in
    tree, with each failed test's `failure_of` record and each test's
    duration (setup, call and teardown) read from its JUnit XML report.
    Failing tests are recorded and printed to stderr, not fatal."""
    env = dict(os.environ, PYTHONPATH="src", **ONE_THREAD)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "junit.xml")
        started = time.perf_counter()
        proc = subprocess.run(PYTEST + args + ["--junitxml", report],
                              cwd=tree, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - started
        if not os.path.exists(report):
            raise SystemExit("pytest wrote no report in %s (exit %d):\n%s"
                             % (tree, proc.returncode, proc.stdout[-2000:]))
        cases = list(ET.parse(report).getroot().iter("testcase"))
    failures = [f for f in map(failure_of, cases) if f is not None]
    for f in failures:
        print("FAILED in %s: %s: %s" % (tree, f["test"], f["message"]),
              file=sys.stderr)
    return {"wall_s": wall, "tests": len(cases), "failed": len(failures),
            "failures": failures,
            "durations": {c.get("name"): float(c.get("time"))
                          for c in cases}}


def time_criteria(tree):
    """({criterion test name: seconds}, failures) of one acceptance run in
    tree."""
    run = run_pytest(tree, ["tests/test_acceptance.py"])
    return ({name: t for name, t in run["durations"].items()
             if name.startswith("test_criterion_")}, run["failures"])


def paired(runs, values_of):
    """Medians per side, change/parent ratios, the parent's quartile
    spread and change wins per metric; values_of(run) gives a run's
    {metric: value}."""
    values = {side: {} for side in SIDES}
    for run in runs:
        for name, v in values_of(run).items():
            values[run["side"]].setdefault(name, []).append(v)
    median = {side: {k: statistics.median(v) for k, v in vals.items()}
              for side, vals in values.items()}
    ratio = {k: median["change"][k] / v
             for k, v in median["parent"].items() if v}
    quartiles = {k: statistics.quantiles(v, n=4)
                 for k, v in values["parent"].items()}
    spread = {k: q[2] - q[0] for k, q in quartiles.items()}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = values_of(run)
    wins = {k: sum(1 for p in pairs.values()
                   if p["change"][k] < p["parent"][k])
            for k in median["parent"]}
    return {"median": median, "ratio_change_over_parent": ratio,
            "parent_quartile_spread": spread, "change_lower_in_pairs": wins}


def summarise(runs):
    """The paired statistics of the runs' metrics, and failed/attempted
    op counts per side."""
    out = paired(runs, lambda run: {k: m["value"] for k, m
                                    in run["result"]["metrics"].items()})
    failed = {side: sum(r["result"]["failed"] for r in runs
                        if r["side"] == side) for side in SIDES}
    attempted = {side: sum(r["result"]["attempted"] for r in runs
                           if r["side"] == side) for side in SIDES}
    return dict(out, failed=failed, attempted=attempted)


def order_of(k):
    """The sides in the order they run in pair k: parent first on even k."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("out", help="path of the JSON file to write")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, PAIRS + 1))
    parent = git("rev-parse", "--verify", args.parent + "^{commit}").strip()
    change = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no",
                     "--", "src", "capbench").strip())
    tmp = tempfile.mkdtemp(prefix="capergo-bench-")
    try:
        extract(parent, tmp)
        trees = {"parent": tmp, "change": ROOT}
        report = {"parent": {"rev": args.parent, "commit": parent},
                  "change": {"commit": change,
                             "src_or_capbench_uncommitted": dirty},
                  "seconds": seconds, "pairs": PAIRS, "seeds": seeds,
                  "workloads": {}, "reach": {}}
        for side in SIDES:
            reach = report["reach"][side] = code_reach(trees[side])
            print("reach %s: %d of %d executable lines unreached, %d "
                  "physical lines, exit %d" % (
                      side, reach["unreached"], reach["executable"],
                      reach["physical"], reach["exit"]), file=sys.stderr)
        for workload in workloads:
            runs = []
            for k, seed in enumerate(seeds):
                for side in order_of(k):
                    result, prov = run_once(trees[side], command, workload,
                                            seed, seconds)
                    runs.append({"side": side, "pair": k,
                                 "seed": seed, "result": result,
                                 "provenance": prov})
                    print("%s pair %d %s: %s" % (
                        workload, k, side, ", ".join(
                            "%s %.4g" % (name, m["value"]) for name, m
                            in sorted(result["metrics"].items()))),
                          file=sys.stderr)
            per_layer = {"seed": PAIRS + 1, "failed": {}, "attempted": {}}
            for side in SIDES:
                result, _ = run_once(trees[side], command, workload,
                                     PAIRS + 1, seconds, trace=1)
                per_layer[side] = {name: m["value"] for name, m
                                   in result["metrics"].items()}
                per_layer["failed"][side] = result["failed"]
                per_layer["attempted"][side] = result["attempted"]
                print("%s traced %s" % (workload, side), file=sys.stderr)
            report["workloads"][workload] = dict(summarise(runs), runs=runs,
                                                 per_layer=per_layer)
        runs = []
        for k in range(PAIRS):
            for side in order_of(k):
                runs.append({"side": side, "pair": k,
                             "seconds": time_scenarios(trees[side])})
                print("scenarios pair %d %s: %.3f s in all" % (
                    k, side, sum(runs[-1]["seconds"].values())),
                      file=sys.stderr)
        report["scenarios"] = dict(paired(runs, lambda run: run["seconds"]),
                                   repeats=SCENARIO_REPEATS, runs=runs)
        runs, printed = [], {}
        with tempfile.TemporaryDirectory() as dest:
            commands = cli_commands(dest)
            for k in range(PAIRS):
                for side in order_of(k):
                    seconds, printed[side] = time_cli(trees[side], commands)
                    runs.append({"side": side, "pair": k,
                                 "seconds": seconds})
                    print("cli pair %d %s: %s" % (
                        k, side, ", ".join("%s %.3f s" % kv for kv
                                           in sorted(seconds.items()))),
                          file=sys.stderr)
        report["cli"] = dict(paired(runs, lambda run: run["seconds"]),
                             n=CLI_N, runs=runs,
                             same_output=printed["parent"] == printed[
                                 "change"])
        runs = []
        for k in range(CRITERION_PAIRS):
            for side in order_of(k):
                seconds, failures = time_criteria(trees[side])
                runs.append({"side": side, "pair": k, "seconds": seconds,
                             "failures": failures})
                print("criteria pair %d %s: %.1f s in all" % (
                    k, side, sum(runs[-1]["seconds"].values())),
                      file=sys.stderr)
        report["criteria"] = dict(paired(runs, lambda run: run["seconds"]),
                                  runs=runs)
        report["tier1"] = {}
        for side in SIDES:
            run = run_pytest(trees[side], [])
            report["tier1"][side] = {
                k: run[k] for k in ("wall_s", "tests", "failed", "failures")}
            print("tier-1 %s: %d tests, %d failed, %.1f s" % (
                side, run["tests"], run["failed"], run["wall_s"]),
                  file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
