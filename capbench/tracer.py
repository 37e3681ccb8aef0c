"""Span tracer that wraps capergo's public functions from outside.

capergo modules bind imported names by value (``from .setfun import
core_vertices``), so wrapping a function in its defining module alone
misses most calls.  ``Tracer.install`` replaces the function object in
every loaded ``capergo.*`` namespace that holds it, and wraps methods
(and ``__init__`` for classes) on the class itself, where every caller
looks them up.  ``uninstall`` puts the originals back.

Spans live in memory as ``(op_id, name, start, end, parent)`` tuples;
``summary`` turns them into per-function calls, inclusive time and self
time (span time minus the time covered by its child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction


# --- work counts, computed from a call's arguments or result -------------

def _cells(args, result, pre):
    family = args["family"]
    return (1 << len(family[0])) * len(family)


def _dyadic_depth(cuts) -> int:
    depth = 1
    for x in cuts:
        den = Fraction(x).denominator
        depth = max(depth, den.bit_length() - 1)
    return depth


def _reads(args, result, pre):
    # one bit read per binary digit of f's resolution, per orbit term
    return args["n"] * _dyadic_depth(args["f"].cuts)


def _stdout_pos():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _bytes_out(args, result, pre):
    """Bytes a CLI call wrote: printed output plus report and CSV files."""
    argv = list(args["argv"] or [])
    total = 0
    after = _stdout_pos()
    if pre is not None and after is not None:
        total += after - pre
    if argv and argv[0] == "run" and "--out" in argv:
        directory = os.path.join(argv[argv.index("--out") + 1], argv[1])
        if os.path.isdir(directory):
            for entry in os.scandir(directory):
                total += entry.stat().st_size
    return total


# (module, attribute path, {count name: count function}, pre-call hook)
TARGETS = [
    ("setfun", "UpperProbability", {"cells": _cells}, None),
    ("setfun", "classify_capacity", {}, None),
    ("setfun", "choquet_integral", {}, None),
    ("setfun", "core_vertices",
     {"vertices": lambda a, r, p: len(r)}, None),
    ("setfun", "core_range", {}, None),
    ("setfun", "product_upper", {}, None),
    ("finitedyn", "cycle_decomposition", {}, None),
    ("finitedyn", "ergodicity_check", {}, None),
    ("finitedyn", "ergodic_skeleton", {}, None),
    ("finitedyn", "weak_mixing_check", {}, None),
    ("finitedyn", "skeleton", {}, None),
    ("intervaldyn", "correlation_sequence",
     {"terms": lambda a, r, p: len(r)}, None),
    ("intervaldyn", "orbit_average",
     {"steps": lambda a, r, p: a["n"]}, None),
    ("intervaldyn", "polynomial_orbit_average", {"reads": _reads}, None),
    ("intervaldyn", "PiecewiseAffineMap.preimage", {}, None),
    ("intervaldyn", "verify_eigenfunction", {}, None),
    ("ergocheck", "independence_check", {}, None),
    ("ergocheck", "squared_deviation_check", {}, None),
    ("ergocheck", "sqrt_moment_check", {}, None),
    ("ergocheck", "choquet_independence_check", {}, None),
    ("ergocheck", "extract_null_density_set", {}, None),
    ("ergocheck", "process_slln_check", {}, None),
    ("cocycle", "lyapunov_qr", {"steps": lambda a, r, p: a["n"]}, None),
    ("cocycle", "monodromy_oracle", {}, None),
    ("cocycle", "oseledets_filtration",
     {"steps": lambda a, r, p: a["n"]}, None),
    ("cocycle", "subadditive_check", {}, None),
    ("cocycle", "subadditive_limit_finite", {}, None),
    ("scenarios", "run_scenario", {}, None),
    ("cli", "main", {"bytes_out": _bytes_out}, _stdout_pos),
    ("serialize", "capacity_from_json", {}, None),
]

SPAN_NAMES = ["%s.%s" % (mod, attr) for mod, attr, _, _ in TARGETS]
COUNT_NAMES = ["%s.%s.%s" % (mod, attr, c)
               for mod, attr, counts, _ in TARGETS for c in counts]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op_id = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "capergo" or name.startswith("capergo.")]
        for mod_name, attr, counts, pre in TARGETS:
            name = "%s.%s" % (mod_name, attr)
            module = importlib.import_module("capergo." + mod_name)
            if "." in attr:  # a method, wrapped on its class
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth,
                            self._wrap(name, owner.__dict__[meth],
                                       counts, pre))
                continue
            original = getattr(module, attr)
            if inspect.isclass(original):  # a constructor: wrap __init__
                self._patch(original, "__init__",
                            self._wrap(name, original.__dict__["__init__"],
                                       counts, pre))
                continue
            wrapper = self._wrap(name, original, counts, pre)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)
        self._verify()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _verify(self):
        """No capergo namespace may still hold an unwrapped target."""
        originals = {id(orig) for _, _, orig in self._patches}
        for name, mod in sys.modules.items():
            if name == "capergo" or name.startswith("capergo."):
                for key, value in vars(mod).items():
                    if id(value) in originals:
                        raise RuntimeError("unwrapped %s.%s" % (name, key))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, counts, pre_hook):
        sig = inspect.signature(fn)
        count_items = [("%s.%s" % (name, c), f) for c, f in counts.items()]
        spans = self.spans
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            pre = pre_hook() if pre_hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (tracer.op_id, name, start, end, parent)
            if count_items:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, f in count_items:
                    tracer.counts[key] += f(bound.arguments, result, pre)
            return result

        return wrapper

    def summary(self, op_ids=None) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over the given ops."""
        child = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in SPAN_NAMES}
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            if op_ids is not None and op not in op_ids:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out
