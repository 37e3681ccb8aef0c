"""capbench: time-to-verdict benchmark for capergo.

    python3 capbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Runs one workload (or, with ``all``, each workload in its own process)
as a closed loop: one client issues the next op when the previous one
has returned.  Ops come in blocks of fixed shape with fresh seeded
inputs; blocks run until ``--seconds`` have passed.  Every op's output
is checked against an oracle after its block has been timed.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` each block runs twice, untraced and then with every
public capergo function wrapped (see tracer.py); the result carries
per-function calls, inclusive and self time and work counts, as means
per block, plus the tracing overhead.  The traced outputs must equal
the untraced ones.

capergo is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# pin numpy/BLAS to one thread before numpy is imported anywhere
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ["finite-sweep", "finite-large", "scenario-registry",
         "cocycle-spectra"]
SETUP_CHILDREN = 6
SETUP_SAMPLES = 5  # reference-task samples taken after a set-up
TRACE_FAILURES_SHOWN = 5


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * \
        (pos - lo)


def setup(name, seed):
    """Import capergo and generate the first block; returns (workload,
    its scratch directory, first block, calibrator, seconds taken)."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    workdir = os.path.join(ROOT, ".capbench-tmp",
                           "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    first = wl.block(0)
    seconds = time.perf_counter() - started
    from calibrate import Calibrator
    cal = Calibrator(wl.reference)
    for _ in range(SETUP_SAMPLES):
        cal.sample()
    return wl, workdir, first, cal, seconds


def cleanup(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
    except OSError:
        pass


def setup_in_children(name, seed):
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    def __init__(self):
        self.failed = 0
        self.attempted = 0
        self.next_op = 0

    def run_block(self, ops, cal, tracer=None):
        """Time every op of a block, taking reference-task samples
        between ops; returns (latencies, latencies scaled to the
        reference speed, outputs)."""
        outputs, spans = [], []
        clock = time.perf_counter
        first = self.next_op
        cal.sample()
        for k, op in enumerate(ops):
            if cal.due():
                cal.sample()
            if tracer is not None:
                tracer.op_id = first + k
            t0 = clock()
            try:
                outputs.append(op.run())
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outputs.append(None)
            spans.append((t0, clock()))
        cal.sample()
        latencies = [t1 - t0 for t0, t1 in spans]
        scaled = [(t1 - t0) * cal.scale(t0, t1) for t0, t1 in spans]
        return latencies, scaled, outputs

    def check_block(self, ops, outputs):
        digests = []
        for op, out in zip(ops, outputs):
            self.attempted += 1
            ok, digest = False, None
            if out is not None:
                try:
                    ok, digest = op.check(out)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            if not ok:
                self.failed += 1
                print("FAILED op %s" % op.kind, file=sys.stderr)
            digests.append(digest)
        return digests


def provenance(args, wl):
    import numpy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no usable git: the source digest still identifies it
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "capergo")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "capergo_src_sha256": src.hexdigest(),
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "loop": "closed, 1 client"}


def measure(args):
    wl, workdir, first, cal, own_setup = setup(args.workload, args.seed)
    try:
        return _measure(args, wl, first, cal, own_setup)
    finally:
        cleanup(workdir)


def _measure(args, wl, first, cal, own_setup):
    runner = Runner()
    prov = provenance(args, wl)
    latencies, scaled, walls, raw_walls = [], [], [], []
    tracer = None
    if args.trace:
        from tracer import COUNT_NAMES, SPAN_NAMES, Tracer
        tracer = Tracer()
        overheads = []
        mismatches = 0
    started = time.perf_counter()
    b = 0
    while True:
        ops = first if b == 0 else wl.block(b)
        lat, lat_scaled, outs = runner.run_block(ops, cal)
        digests = runner.check_block(ops, outs)
        if tracer is not None:
            tracer.install()
            try:
                t_lat, _, t_outs = runner.run_block(ops, cal, tracer)
            finally:
                tracer.uninstall()
            t_digests = runner.check_block(ops, t_outs)
            for k, (d1, d2) in enumerate(zip(digests, t_digests)):
                if d1 != d2 and d1 is not None:
                    mismatches += 1
                    runner.failed += 1
                    if mismatches <= TRACE_FAILURES_SHOWN:
                        print("traced output differs: %s" % ops[k].kind,
                              file=sys.stderr)
            overheads.append(sum(t_lat) - sum(lat))
        runner.next_op += len(ops)
        latencies.extend(lat)
        scaled.extend(lat_scaled)
        walls.append(sum(lat_scaled))
        raw_walls.append(sum(lat))
        b += 1
        # end on a whole cycle of block shapes, so every run has one mix
        if time.perf_counter() - started >= args.seconds and \
                b % wl.cycle == 0:
            break

    ordered = sorted(scaled)  # scaled[k] belongs to op id k
    tail = percentile(ordered, wl.tail_pct)
    beyond = sum(1 for x in ordered if x > tail)
    raw = sorted(latencies)
    prov.update({"blocks": b, "ops": len(latencies),
                 "block_walls_s": [round(w, 4) for w in walls],
                 "tail_percentile": wl.tail_pct,
                 "tail_samples_beyond": beyond,
                 "reference_parts": list(wl.reference),
                 "reference_s": cal.reference_s,
                 "reference_median_s": cal.median(),
                 "unscaled": {
                     "wall_s": statistics.mean(raw_walls),
                     "op_ms_p50": percentile(raw, 50.0) * 1e3,
                     "op_ms_tail": percentile(raw, wl.tail_pct) * 1e3},
                 "fail_ratio": runner.failed / max(runner.attempted, 1)})
    human = []
    if tracer is None:
        setups = [{"setup_s": own_setup,
                    "reference_median_s": statistics.median(
                        cal.samples[:SETUP_SAMPLES])}]
        setups += setup_in_children(wl.name, args.seed)
        prov["setups"] = setups
        metrics = {
            "setup_s": (statistics.median(
                x["setup_s"] * cal.reference_s / x["reference_median_s"]
                for x in setups), "s"),
            "wall_s": (statistics.mean(walls), "s"),
            "op_ms_p50": (percentile(ordered, 50.0) * 1e3, "ms"),
            "op_ms_tail": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        human.append("op_ms_tail is p%g: %d of %d ops beyond it"
                     % (wl.tail_pct, beyond, len(latencies)))
    else:
        metrics = {}
        summary = tracer.summary()
        for name in SPAN_NAMES:
            row = summary[name]
            metrics[name + ".calls"] = (row["calls"] / b, "count")
            metrics[name + ".total_s"] = (row["total_s"] / b, "s")
            metrics[name + ".self_s"] = (row["self_s"] / b, "s")
        for name in COUNT_NAMES:
            metrics[name] = (tracer.counts.get(name, 0) / b, "count")
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
        human += _shares(summary, "self-time share, all ops")
        raw_tail = percentile(raw, wl.tail_pct)
        slow = {k for k, x in enumerate(latencies) if x >= raw_tail}
        human += _shares(tracer.summary(slow),
                         "self-time share, ops at or beyond the tail")
        human.append("traced spans: %d in %d blocks; traced outputs "
                     "%s the untraced ones" % (
                         len(tracer.spans), b,
                         "equal" if not mismatches else "DIFFER from"))
        prov["trace_mismatches"] = mismatches
    print(json.dumps({"provenance": prov}, sort_keys=True))
    for line in human:
        print(line)
    print("fail_ratio %.6g (%d of %d ops failed)" % (
        prov["fail_ratio"], runner.failed, runner.attempted))
    for name, (value, unit) in metrics.items():
        print("%-56s %.6g %s" % (name, value, unit))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _shares(summary, label):
    total = sum(row["self_s"] for row in summary.values())
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:5]
    return ["%s: %s" % (label, ", ".join(
        "%s %.1f%%" % (name, 100.0 * row["self_s"] / total)
        for name, row in top if row["self_s"] > 0))] if total else []


def run_all(args):
    """Each workload in its own process, so peak memory stays apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("== %s" % name)
        for line in lines[:-1]:
            print("   " + line)
        if proc.returncode != 0 or not lines:
            raise SystemExit("workload %s exited with %d"
                             % (name, proc.returncode))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = value
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capergo", "__init__.py")):
        print("error: capergo sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    if args.setup_only:
        _, workdir, _, cal, seconds = setup(args.workload, args.seed)
        cleanup(workdir)
        print(json.dumps({"setup_s": seconds,
                          "reference_median_s": cal.median()}))
        return 0
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
