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

The output holds both commits, every run's result line and provenance
record, and per workload the median of each metric on each side, the
change/parent ratio of the medians, the distance between the quartiles
of the parent's runs, and the number of pairs in which the change read
lower than the parent.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
RUN_TIMEOUT_S = 1800


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout


def extract(rev, dest):
    """Write the tree of rev into dest with git archive."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, command, workload, seed, seconds):
    """(result, provenance) of one untraced capbench run in tree."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed in %s (exit %d):\n%s"
                         % (" ".join(argv), tree, proc.returncode,
                            proc.stderr[-2000:]))
    provenance = None
    for line in lines:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
    return json.loads(lines[-1]), provenance


def summarise(runs):
    """Medians per side, change/parent ratios and change wins per metric."""
    values = {"parent": {}, "change": {}}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values[run["side"]].setdefault(name, []).append(m["value"])
    median = {side: {k: statistics.median(v) for k, v in vals.items()}
              for side, vals in values.items()}
    ratio = {k: median["change"][k] / v
             for k, v in median["parent"].items() if v}
    quartiles = {k: statistics.quantiles(v, n=4)
                 for k, v in values["parent"].items()}
    spread = {k: q[2] - q[0] for k, q in quartiles.items()}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    wins = {k: sum(1 for p in pairs.values()
                   if p["change"]["metrics"][k]["value"]
                   < p["parent"]["metrics"][k]["value"])
            for k in median["parent"]}
    failed = {side: sum(r["result"]["failed"] for r in runs
                        if r["side"] == side) for side in values}
    attempted = {side: sum(r["result"]["attempted"] for r in runs
                           if r["side"] == side) for side in values}
    return {"median": median, "ratio_change_over_parent": ratio,
            "parent_quartile_spread": spread,
            "change_lower_in_pairs": wins, "failed": failed,
            "attempted": attempted}


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
                  "workloads": {}}
        for workload in workloads:
            runs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for side in order:
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
            report["workloads"][workload] = dict(summarise(runs), runs=runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
