"""Smoke test of the benchmark itself, at one cycle of blocks per run.

    python3 capbench/smoke.py

For every workload, untraced and traced, it checks that the result line
has exactly the contract's keys, that every metric BENCHMARK.json names
is emitted with its unit, and that no op failed.  It also checks that
the traced runs together reach every wrapped capergo function, and that
the benchmark refuses to run, without a result, where src/ is missing.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(argv, cwd=ROOT):
    return subprocess.run([sys.executable] + argv, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    reached = set()
    for wl in bench["workloads"]:
        for trace in (0, 1):
            proc = run([RUN, "--workload", wl["name"], "--seed", "1",
                        "--seconds", "1", "--trace", str(trace)])
            result = result_of(proc)
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), \
                set(metrics) ^ set(declared[trace])
            for name, unit in declared[trace].items():
                assert metrics[name]["unit"] == unit, name
                assert isinstance(metrics[name]["value"], (int, float))
            assert result["attempted"] >= 1
            assert result["failed"] == 0 and result["correct"], \
                proc.stderr[-2000:]
            if trace:
                reached |= {name[:-len(".calls")]
                            for name, m in metrics.items()
                            if name.endswith(".calls") and m["value"] > 0}
            print("ok %-18s trace=%d attempted=%d" % (
                wl["name"], trace, result["attempted"]))
    spans = {name[:-len(".calls")] for name in declared[1]
             if name.endswith(".calls")}
    assert spans <= reached, "never traced: %s" % sorted(spans - reached)
    print("ok every wrapped function was reached")

    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = os.path.join(ROOT, ".capbench-tmp", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bench["command"][1:] + ["--workload",
                                           bench["workloads"][0]["name"],
                                           "--seed", "1", "--seconds", "1",
                                           "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass  # another run still uses it
    print("ok refuses to run without src/")


if __name__ == "__main__":
    main()
