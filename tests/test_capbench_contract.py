"""The benchmark's hold on capergo.

capbench, outside the package, wraps capergo functions by name
(`capbench/tracer.py` TARGETS), reads some of their parameters by name
to count work, and calls them with particular keywords.  These tests
fail when a change to capergo breaks any of that.
"""

import importlib
import importlib.util
import inspect
import os
from fractions import Fraction

import numpy as np
import pytest

from capergo import cli, cocycle, finitedyn, intervaldyn, setfun

F = Fraction
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "capbench_tracer", os.path.join(ROOT, "capbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(module_name, attr):
    """The object the tracer wraps for one target."""
    owner = getattr(importlib.import_module("capergo." + module_name),
                    attr.split(".")[0])
    if "." in attr:
        return owner.__dict__[attr.split(".")[1]]
    return owner.__dict__["__init__"] if inspect.isclass(owner) else owner


def _workload_calls():
    """One small call per capergo entry point capbench's workloads use,
    with the keywords they pass; looked up on the modules at call time,
    so installed wrappers see them."""
    v = setfun.UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    t = finitedyn.Endomap([1, 0])
    finitedyn.ergodicity_check(v, t)
    assert finitedyn.ergodic_skeleton(v, t)["ok"]
    verts = setfun.core_vertices(v)
    setfun.core_range(v, 0b01, verts)
    finitedyn.weak_mixing_check(v, t, product_oracle=True)
    gen = cocycle.MatrixGen.periodic([np.diag([2.0, 1.0]),
                                      np.diag([1.0, 0.5])])
    cocycle.lyapunov_qr(gen, 0, 20, burn_in=4)
    cocycle.monodromy_oracle(gen, [0, 1])
    cocycle.oseledets_filtration(gen, 0, 20)
    rot = cocycle.MatrixGen.from_json({"kind": "rotation_angle", "d": 2,
                                       "angle_scale": 1.5})
    cocycle.lyapunov_qr(rot, 0.25, 20)
    # the work counts read these calls' parameters by name
    mp = intervaldyn.PiecewiseAffineMap.rotation_swap()
    half = intervaldyn.IntervalSet([(0, 1)], 2)
    f = intervaldyn.PiecewiseConstant.indicator(half)
    intervaldyn.orbit_average(mp, f, 0.3, 10)
    intervaldyn.correlation_sequence(intervaldyn.RestrictedLebesgue(half),
                                     mp, half, half, 4)
    unit = intervaldyn.PiecewiseConstant([0, F(1, 2), 1], [0, 1], c=1)
    intervaldyn.polynomial_orbit_average(
        unit, lambda i: i * i, intervaldyn.BitstreamPoint(1, 64), 4)
    assert cli.main(["list"]) == 0


def test_tracer_wraps_every_target_and_uninstalls(tracer_module):
    originals = [_traced(mod, attr) for mod, attr, _, _ in
                 tracer_module.TARGETS]
    tracer = tracer_module.Tracer()
    tracer.install()  # raises on a target capergo no longer has
    try:
        for (mod, attr, _, _), original in zip(tracer_module.TARGETS,
                                               originals):
            wrapped = _traced(mod, attr)
            assert wrapped is not original, (mod, attr)
            assert wrapped.__wrapped__ is original, (mod, attr)
    finally:
        tracer.uninstall()
    assert [_traced(mod, attr) for mod, attr, _, _ in
            tracer_module.TARGETS] == originals


def test_workload_calls_bind_and_feed_every_work_count(tracer_module,
                                                        capsys):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        _workload_calls()
    finally:
        tracer.uninstall()
    assert set(tracer.counts) == set(tracer_module.COUNT_NAMES)
