"""Print the capergo lines that no benchmark workload reaches.

    python3 bench/traffic.py

Runs the first blocks of every workload declared in ``BENCHMARK.json``
(one whole cycle of block shapes each, seed 1) under ``sys.settrace``,
in a temporary directory, and checks every op against its oracle.  Then
it prints, grouped by file and function, the executable lines of
``src/capergo`` that no workload reached, and their count.  A line is
executable when some instruction of the compiled file carries its
number.  Last it prints the physical line count of ``src/capergo`` (every
line of its ``.py`` files, as ``wc -l`` counts them).

capergo is imported from ``src/`` and the workloads from
``capbench/workloads.py`` of the checkout this script sits in; nothing
is written under the checkout.  Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "capergo")
SEED = 1


def traced(run) -> tuple:
    """(run(), the (file, line) pairs of capergo's own files it reached)."""
    reached = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    sys.settrace(calls)
    try:
        return run(), reached
    finally:
        sys.settrace(None)


def executable_lines(path: str) -> dict:
    """{line: name of the innermost function holding it} for the lines
    of path that carry an instruction.  Comprehensions and lambdas count
    as part of the function they sit in."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec", dont_inherit=True)
    owner = {}
    stack = [code]
    while stack:
        co = stack.pop()
        anonymous = co.co_name.startswith("<") and co is not code
        for _, _, line in co.co_lines():
            if line is not None and not (anonymous and line in owner):
                owner[line] = co.co_qualname
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return owner


def spans(lines: list) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def run_workloads(names: list) -> int:
    """Run one cycle of blocks of each workload; the number of failed ops."""
    import workloads  # imports capergo, so its module code is traced too

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            started = time.monotonic()
            workdir = os.path.join(tmp, name)
            os.makedirs(workdir)
            wl = workloads.WORKLOADS[name](SEED, workdir)
            ops = 0
            for b in range(wl.cycle):
                for op in wl.block(b):
                    ok, _ = op.check(op.run())
                    failed += not ok
                    ops += 1
            print("# %s: %d blocks, %d ops, %.1f s traced"
                  % (name, wl.cycle, ops, time.monotonic() - started),
                  file=sys.stderr)
    return failed


def main() -> int:
    sys.dont_write_bytecode = True
    # one BLAS thread, as capbench runs, set before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "capbench")]
    failed, reached = traced(lambda: run_workloads(names))
    total = missed = physical = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path) as fh:
            physical += sum(1 for _ in fh)
        owner = executable_lines(path)
        unreached = {}
        for line in sorted(owner):
            if (path, line) not in reached:
                unreached.setdefault(owner[line], []).append(line)
        total += len(owner)
        missed += sum(map(len, unreached.values()))
        if unreached:
            print("src/capergo/%s" % fname)
            for name, lines in sorted(unreached.items(),
                                      key=lambda kv: kv[1][0]):
                print("  %s: %s" % (name, spans(lines)))
    print("%d of %d executable src/capergo lines unreached by %s"
          % (missed, total, ", ".join(names)))
    print("%d physical src/capergo lines" % physical)
    if failed:
        print("%d ops failed their oracle" % failed, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
