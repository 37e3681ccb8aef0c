"""Built-in scenario registry: each named scenario reruns one of the
worked examples or counterexamples as a deterministic check battery.

A scenario is a function config -> (checks, csv_tables); checks are
JSON-ready dicts with a boolean verdict each, csv_tables maps a check
name to rows for the CSV sidecar files.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import cocycle, ergocheck, finitedyn, intervaldyn, setfun
from .ergocheck import FiniteSystem, IntervalSystem
from .finitedyn import Endomap
from .intervaldyn import (GOLDEN, IntervalSet, PiecewiseAffineMap,
                          PiecewiseConstant, RestrictedLebesgue)
from .numeric import encode
from .setfun import UpperProbability


class ConfigError(ValueError):
    pass


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return encode(x)


def _check(name, verdict, **details):
    return {"check": name, "verdict": bool(verdict),
            "details": _jsonable(details)}


def _rep_check(rep: ergocheck.ConvergenceReport):
    dev = rep.final_deviation
    return _check(rep.name, rep.verdict, status=rep.status,
                  final_deviation=None if dev is None else float(dev),
                  tolerance=float(rep.tolerance), target=float(rep.target))


# ---------------------------------------------------------------------------
# interval-regime scenarios


def _swap_system(alpha):
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    p1 = RestrictedLebesgue(IntervalSet([(0, 1)], 2))
    p2 = RestrictedLebesgue(IntervalSet([(1, 2)], 2))
    return IntervalSystem(mp, [p1, p2])


def rotation_swap_ergodic(config):
    sys = _swap_system(config["alpha"])
    b, c = IntervalSet([(0, 0.5)], 2), IntervalSet([(1, 1.7)], 2)
    rep = ergocheck.independence_check(sys, sys.family[0], b, c, config["N"],
                                       tol=config["tol"])
    return [_rep_check(rep)], {"independence": rep.csv_rows()}


def rotation_swap_birkhoff(config):
    n, tol = config["N"], config["tol"]
    mp = PiecewiseAffineMap.rotation_swap(config["alpha"])
    f = PiecewiseConstant.indicator(IntervalSet([(1, 2)], 2))
    rng = random.Random(config["seed"])
    points = [rng.uniform(0.0, 2.0) for _ in range(config["points"])]
    rows = [("point", "average", "deviation")]
    worst = 0.0
    for x in points:
        avg = float(intervaldyn.orbit_average(mp, f, x, n))
        dev = abs(avg - 0.5)
        worst = max(worst, dev)
        rows.append((x, avg, dev))
    checks = [_check("orbit_average", worst <= tol, worst_deviation=worst,
                     target=0.5, tolerance=tol, n=n)]
    return checks, {"orbit_average": rows}


def rotation_swap_halves(config):
    sys = _swap_system(config["alpha"])
    b = c = IntervalSet([(0, 1)], 2)
    rep = ergocheck.independence_check(sys, sys.family[0], b, c, config["N"],
                                       tol=config["tol"])
    terms = intervaldyn.correlation_sequence(sys.family[0], sys.map, b, c, 6)
    alternating = all(float(t) == (1.0 if i % 2 == 0 else 0.0)
                      for i, t in enumerate(terms))
    checks = [_check("halves_alternate", alternating,
                     first_terms=[float(t) for t in terms]),
              _rep_check(rep)]
    return checks, {"independence": rep.csv_rows()}


def doubling_weak_mixing(config):
    mp = PiecewiseAffineMap.doubling()
    leb = RestrictedLebesgue(IntervalSet([(0, 1)], 1))
    sys = IntervalSystem(mp, [leb])
    b = c = IntervalSet([(0, Fraction(1, 2))], 1)
    rep = ergocheck.squared_deviation_check(sys, leb, b, c, config["N"],
                                            tol=config["tol"])
    # density-zero exception set on the raw deviations
    terms = intervaldyn.correlation_sequence(leb, mp, b, c,
                                             config["kvn_horizon"])
    devs = [float(t) for t in terms]
    kvn = ergocheck.extract_null_density_set(devs, 0.25)
    kvn_ok = (not kvn["refused"] and
              kvn["certificate"]["window_density"][-1] <= 1e-2)
    checks = [_rep_check(rep),
              _check("null_density_extraction", kvn_ok,
                     density_at_horizon=kvn["certificate"]
                     ["window_density"][-1] if not kvn["refused"] else None)]
    return checks, {"squared_deviation": rep.csv_rows()}


def doubling_paste_not_weakmixing(config):
    mp = PiecewiseAffineMap.doubling_paste()
    p1 = RestrictedLebesgue(IntervalSet([(0, 1)], 2))
    p2 = RestrictedLebesgue(IntervalSet([(1, 2)], 2))

    def v_of(s):
        return max(p1(s), p2(s))

    rng = random.Random(config["seed"])
    events = [IntervalSet([(0, 1)], 2), IntervalSet([(1, 2)], 2),
              IntervalSet([(Fraction(1, 4), Fraction(3, 2))], 2)]
    for _ in range(config["events"]):
        a = Fraction(rng.randrange(0, 63), 32)
        b = Fraction(rng.randrange(1, 16), 32)
        events.append(IntervalSet([(a, min(a + b, Fraction(2)))], 2))
    invariant = all(v_of(mp.preimage(e)) == v_of(e) for e in events)

    f = PiecewiseConstant([0, 1, 2], [1, -1], c=2)
    eig_minus = intervaldyn.verify_eigenfunction(f, mp, -1)
    eig_plus = intervaldyn.verify_eigenfunction(f, mp, 1)

    # finite analog: the two-point swap carries the same eigenfunction
    # obstruction, with an exact positive squared-deviation limit
    v, swap = _finite_swap()
    fsys = FiniteSystem(v, swap)
    rep = ergocheck.squared_deviation_check(fsys, v.family[0], 0b01, 0b01, 64)
    wm = finitedyn.weak_mixing_check(v, swap)
    checks = [
        _check("v_invariant", invariant, events_tested=len(events)),
        _check("eigenfunction_minus_one", eig_minus),
        _check("eigenfunction_plus_one_rejected", not eig_plus),
        _check("finite_analog_limit", rep.exact_limit == Fraction(1, 4),
               exact_limit=rep.exact_limit),
        _check("finite_analog_not_weak_mixing",
               wm["ok"] and not wm["weak_mixing"]
               and not wm["product_ergodic"]),
    ]
    return checks, {"finite_analog": rep.csv_rows()}


def sqrt_moment_doubling(config):
    mp = PiecewiseAffineMap.doubling()
    leb = RestrictedLebesgue(IntervalSet([(0, 1)], 1))
    sys = IntervalSystem(mp, [leb])
    b = c = IntervalSet([(0, Fraction(1, 2))], 1)
    out = ergocheck.sqrt_moment_check(sys, leb, b, c, 0.5, config["N"],
                                      tol=config["tol"])
    final = out["partials"][-1]
    ok = out["verdict"] and abs(final - 0.5) <= config["tol"]
    rows = [("checkpoint", "partial_mean", "lower", "upper")]
    for q, v in zip(out["checkpoints"], out["partials"]):
        rows.append((q, v, out["lower"], out["upper"]))
    checks = [_check("sqrt_moment_bounds", ok, final=final,
                     lower=out["lower"], upper=out["upper"])]
    return checks, {"sqrt_moment": rows}


def polynomial_birkhoff(config):
    n, streams, seed = config["n"], config["streams"], config["seed"]
    tol = config["tol"]
    f = PiecewiseConstant([0, Fraction(1, 2), 1], [0, 1], c=1)
    budget = n * n + 8
    rows = [("stream", "average", "deviation")]
    hits = 0
    for s in range(streams):
        x = intervaldyn.BitstreamPoint(seed + s, budget)
        avg = float(intervaldyn.polynomial_orbit_average(
            f, lambda i: i * i, x, n))
        dev = abs(avg - 0.5)
        hits += dev <= tol
        rows.append((seed + s, avg, dev))
    checks = [_check("polynomial_birkhoff", hits >= streams - 1,
                     within_tolerance=hits, streams=streams, n=n)]
    return checks, {"polynomial_birkhoff": rows}


# ---------------------------------------------------------------------------
# finite-regime scenarios


def _finite_swap():
    swap = Endomap([1, 0])
    v = UpperProbability([[Fraction(1), Fraction(0)],
                          [Fraction(0), Fraction(1)]])
    return v, swap


def finite_swap_ergodic(config):
    v, swap = _finite_swap()
    erg = finitedyn.ergodicity_check(v, swap)
    sk = finitedyn.ergodic_skeleton(v, swap)
    sys = FiniteSystem(v, swap)
    rep = ergocheck.independence_check(sys, v.family[0], 0b01, 0b01, 64)
    q_ok = sk["ok"] and sk["skeleton"] == [Fraction(1, 2), Fraction(1, 2)]
    checks = [
        _check("ergodicity", erg["ergodic"]),
        _check("skeleton", q_ok, skeleton=sk.get("skeleton")),
        _check("independence_exact",
               rep.exact_limit == rep.target == Fraction(1, 2),
               exact_limit=rep.exact_limit, target=rep.target),
    ]
    return checks, {"independence": rep.csv_rows()}


def choquet_independence_swap(config):
    v, swap = _finite_swap()
    sys = FiniteSystem(v, swap)
    f = [Fraction(1), Fraction(0)]
    g = [Fraction(1), Fraction(0)]
    rep = ergocheck.choquet_independence_check(sys, f, g, 64)
    ok = rep.exact_limit == rep.target == Fraction(1, 2)
    checks = [_check("choquet_independence", ok,
                     exact_limit=rep.exact_limit, target=rep.target)]
    return checks, {"choquet_independence": rep.csv_rows()}


def finite_swap_slln(config):
    v, swap = _finite_swap()
    sys = FiniteSystem(v, swap)
    out = ergocheck.process_slln_check(sys, [0, 1], depth=3)
    ok = out["stationary"] and out["slln"]["verdict"] and \
        out["slln"]["target"] == Fraction(1, 2)
    checks = [_check("process_slln", ok, stationary=out["stationary"],
                     target=out["slln"]["target"])]
    return checks, {}


def periodic_cycle_sqrt_moment(config):
    r0 = config["cycle_length"]
    t = Endomap([(i + 1) % r0 for i in range(r0)])
    p = [Fraction(1, r0)] * r0
    v = UpperProbability([p])
    sys = FiniteSystem(v, t)
    out = ergocheck.sqrt_moment_check(sys, p, 0b1, 0b1, 0.5, 64)
    target = (1.0 / r0) * math.sqrt(1.0 / r0)  # P^{1/2}(B) P(C)
    ok = abs(out["exact_limit"] - target) <= 1e-12
    checks = [_check("periodic_sqrt_moment", ok,
                     exact_limit=out["exact_limit"], target=target)]
    return checks, {}


def sqrt_distortion_core(config):
    half = Fraction(1, 2)
    mu = setfun.distort([half, half], math.sqrt)
    flags = setfun.classify_capacity(mu)
    verts = setfun.core_vertices(mu)
    s = math.sqrt(0.5)
    expected = sorted([(s, 1 - s), (1 - s, s)])
    got = sorted((float(v[0]), float(v[1])) for v in verts)
    verts_ok = (len(got) == 2 and
                all(abs(a - b) <= 1e-12
                    for ga, ea in zip(got, expected) for a, b in zip(ga, ea)))
    f = [1, 0]
    ci = setfun.choquet_integral(mu, f)
    best = max(sum(float(vi) * fi for vi, fi in zip(v, f)) for v in verts)
    checks = [
        _check("concave", flags["concave"] and flags["subadditive"]),
        _check("core_vertices", verts_ok, vertices=got),
        _check("choquet_value", abs(float(ci) - s) <= 1e-12, value=float(ci)),
        _check("max_over_core", abs(float(ci) - best) <= 1e-12),
    ]
    return checks, {}


def remark_sqrt_cesaro(config):
    out = ergocheck.paper_sequence_6_remark(config["K"])
    t = out["targets"]
    ok_even = abs(out["sqrt_cesaro_even_window"] - t["even"]) <= 1e-2
    ok_odd = abs(out["sqrt_cesaro_odd_window"] - t["odd"]) <= 1e-2
    ok_plain = abs(out["plain_cesaro"] - 0.25) <= 1e-3
    checks = [
        _check("even_window", ok_even, value=out["sqrt_cesaro_even_window"],
               target=t["even"]),
        _check("odd_window", ok_odd, value=out["sqrt_cesaro_odd_window"],
               target=t["odd"]),
        _check("plain_cesaro", ok_plain, value=out["plain_cesaro"]),
    ]
    return checks, {}


def z_density_counterexample(config):
    k = config["K"]
    even_windows = [1 << (2 * j) for j in range(6, k + 1)]
    odd_windows = [1 << (2 * j + 1) for j in range(6, k + 1)]
    # two-sided window densities |A & [-n, n]| / (2n + 1); A has no
    # negative members
    dens = {n: ergocheck.block_power_count(n) / (2 * n + 1)
            for n in even_windows + odd_windows}
    d_even, d_odd = dens[even_windows[-1]], dens[odd_windows[-1]]
    ok = (abs(d_even - 1 / 6) <= 2e-2 and abs(d_odd - 1 / 3) <= 2e-2
          and abs(d_even - d_odd) >= 0.1)
    # the evens in [-n, n] number 2 * (n // 2) + 1
    half = all(abs((n // 2 * 2 + 1) / (2 * n + 1) - 0.5) <= 1 / (2 * n + 1)
               for n in (10, 101, 1000))
    checks = [
        _check("subsequence_densities", ok, even=d_even, odd=d_odd),
        _check("even_integers_density", half),
    ]
    rows = [("window", "density")] + list(dens.items())
    return checks, {"density": rows}


# ---------------------------------------------------------------------------
# cocycle scenarios
GENERATOR_TRIES = 200  # draws before random_periodic_generator gives up


def random_periodic_generator(rng, d, ell, min_gap=0.05):
    """Random invertible periodic generator whose monodromy exponents are
    either equal (complex pairs) or separated by more than min_gap, so
    block identification is unambiguous."""
    for _ in range(GENERATOR_TRIES):
        mats = []
        for _ in range(ell):
            while True:
                m = np.array([[rng.uniform(-1, 1) for _ in range(d)]
                              for _ in range(d)])
                if abs(np.linalg.det(m)) > 0.1:
                    mats.append(m)
                    break
        gen = cocycle.MatrixGen.periodic(mats)
        exps = cocycle.monodromy_oracle(gen, list(range(ell))).exponents
        gaps = [a - b for a, b in zip(exps, exps[1:])]
        if all(g < 1e-9 or g > min_gap for g in gaps):
            return gen
    raise RuntimeError("no well-separated generator found")


def compare_with_oracle(gen, ell, n):
    """Worst block-averaged deviation of QR exponents from the monodromy.

    Within an equal-modulus block the individual QR diagonals fluctuate
    (complex pairs rotate), but block sums telescope exactly, so the
    comparison averages over the oracle's multiplicity blocks.  The
    averaging window is aligned to a whole number of periods.
    """
    burn = n // 5
    burn += (n - burn) % ell
    qr = cocycle.lyapunov_qr(gen, 0, n, burn_in=burn)
    oracle = cocycle.monodromy_oracle(gen, list(range(ell)))
    worst = 0.0
    i = 0
    exps = oracle.exponents
    while i < len(exps):
        j = i
        while j + 1 < len(exps) and exps[i] - exps[j + 1] <= 1e-9:
            j += 1
        qr_mean = sum(qr.exponents[i:j + 1]) / (j - i + 1)
        worst = max(worst, abs(qr_mean - exps[i]))
        i = j + 1
    return worst, qr, oracle


def lyapunov_periodic_oracle(config):
    rng = random.Random(config["seed"])
    ell = config["period"]
    gen = random_periodic_generator(rng, config["d"], ell)
    worst, qr, oracle = compare_with_oracle(gen, ell, config["N"])
    sub = cocycle.subadditive_check(gen, 0, k=1, n_max=30,
                                   seed=config["seed"])
    checks = [
        _check("qr_vs_monodromy", worst <= 1e-6, worst=worst,
               qr=qr.exponents, oracle=oracle.exponents),
        _check("subadditivity", sub["subadditive"] and sub["linear_bound"]),
    ]
    rows = [("k", "exponent", "multiplicity", "n", "error_estimate")]
    for i, lam in enumerate(qr.exponents):
        rows.append((i + 1, lam, 1, qr.n, worst))
    return checks, {"spectrum": rows}


def oseledets_two_cycle(config):
    gen = cocycle.MatrixGen.periodic([np.diag([2.0, 1.0]),
                                      np.diag([1.0, 2.0])])
    spec = cocycle.lyapunov_qr(gen, 0, 1000)
    scalar_ok = max(abs(e - 0.5 * math.log(2)) for e in spec.exponents) < 1e-9
    # gapped diagonal generator: exact filtration known
    gen2 = cocycle.MatrixGen.periodic([np.diag([2.0, 0.5])])
    approx = cocycle.oseledets_filtration(gen2, 0, config["N"])
    dir_ok = all(abs(lam - lam_x) <= 1e-2
                 for lam, lam_x in approx.checks["directional"])
    inv_ok = all(abs(a - b) <= 1e-2
                 for a, b in approx.checks["invariance"])
    ang_ok = all(a <= 1e-4 for a in approx.checks["angles"])
    v2 = approx.filtration[-1][:, 0]
    v2_ok = abs(abs(v2[1]) - 1.0) <= 1e-9  # slow space = span(e2)
    checks = [
        _check("scalar_monodromy", scalar_ok, exponents=spec.exponents),
        _check("directional_exponents", dir_ok,
               pairs=approx.checks["directional"]),
        _check("exponent_invariance", inv_ok),
        _check("principal_angles", ang_ok, angles=approx.checks["angles"]),
        _check("slow_space", v2_ok),
    ]
    return checks, {}


def kingman_two_cycle(config):
    gen = cocycle.MatrixGen.periodic([np.diag([2.0, 1.0]),
                                      np.diag([1.0, 2.0])])
    t = Endomap([1, 0])

    def f_seq(n):
        return [math.log(np.linalg.norm(cocycle.cocycle_matrix(gen, x, n), 2))
                for x in range(2)]

    out = cocycle.subadditive_limit_finite(f_seq, t, horizon=40)
    target = 0.5 * math.log(2)
    ok = out["ok"] and out["stabilized"] and \
        all(abs(float(v) - target) <= 1e-9 for v in out["f_star"])
    const = cocycle.subadditive_limit_finite(lambda n: [-n, -n], t, 20)
    const_ok = const["ok"] and all(float(v) == -1 for v in const["f_star"])
    checks = [
        _check("kingman_limit", ok, f_star=[float(v) for v in out["f_star"]],
               target=target),
        _check("linear_case", const_ok),
    ]
    return checks, {}


# ---------------------------------------------------------------------------
# registry
#
# Each entry declares its parameters once, as key -> (default, low, high):
# the value's type is the default's type (int or float), and the inclusive
# range [low, high] keeps every run non-vacuous and within its work budget.

SEED = (7, -2 ** 63, 2 ** 63 - 1)  # any signed 64-bit seed
ALPHA = (GOLDEN, 0.001, 0.999)  # rotation_swap needs 0 < alpha < 1

REGISTRY = [
    ("rotation-swap-ergodic", rotation_swap_ergodic,
     {"alpha": ALPHA, "N": (100000, 1, 10 ** 6), "tol": (1e-3, 0.0, 0.1),
      "seed": SEED},
     "asymptotic independence on the rotation-swap circle"),
    ("rotation-swap-birkhoff", rotation_swap_birkhoff,
     {"alpha": ALPHA, "N": (100000, 1, 10 ** 6), "tol": (5e-3, 0.0, 0.1),
      "points": (20, 1, 50), "seed": SEED},
     "pathwise Birkhoff averages at seeded points"),
    ("rotation-swap-halves", rotation_swap_halves,
     {"alpha": ALPHA, "N": (4096, 1, 10 ** 6), "tol": (1e-3, 0.0, 0.1),
      "seed": SEED},
     "half-window correlations alternate 1, 0"),
    ("finite-swap-ergodic", finite_swap_ergodic, {"seed": SEED},
     "two-point swap: exact ergodicity and independence"),
    ("finite-swap-slln", finite_swap_slln, {"seed": SEED},
     "stationary process law of large numbers on the swap"),
    ("choquet-independence-swap", choquet_independence_swap, {"seed": SEED},
     "Choquet-integral independence on the swap"),
    ("doubling-weak-mixing", doubling_weak_mixing,
     {"N": (24, 1, 10 ** 4), "tol": (1e-2, 0.0, 0.1),
      "kvn_horizon": (4096, 1, 20000), "seed": SEED},
     "squared deviations vanish for the doubling map"),
    ("doubling-paste-not-weakmixing", doubling_paste_not_weakmixing,
     {"events": (20, 0, 10 ** 4), "seed": SEED},
     "ergodic but not weakly mixing: eigenfunction obstruction"),
    ("sqrt-distortion-core", sqrt_distortion_core, {"seed": SEED},
     "sqrt distortion: core vertices and Choquet maximum"),
    ("remark-sqrt-cesaro", remark_sqrt_cesaro,
     {"K": (12, 1, 14), "seed": SEED},
     "square-root Cesaro means with two subsequence limits"),
    ("z-density-counterexample", z_density_counterexample,
     {"K": (12, 6, 14), "seed": SEED},
     "integer block set with no natural density"),
    ("sqrt-moment-doubling", sqrt_moment_doubling,
     {"N": (400, 1, 10 ** 4), "tol": (1e-2, 0.0, 0.1), "seed": SEED},
     "sqrt-moment Cesaro bounds on the doubling map"),
    ("periodic-cycle-sqrt-moment", periodic_cycle_sqrt_moment,
     {"cycle_length": (3, 1, 16), "seed": SEED},
     "periodic case: lower sqrt-moment bound attained exactly"),
    ("polynomial-birkhoff", polynomial_birkhoff,
     {"n": (2000, 1, 10 ** 4), "streams": (10, 2, 20),
      "tol": (0.05, 0.0, 0.1), "seed": SEED},
     "Birkhoff averages along squares on bitstream orbits"),
    ("lyapunov-periodic-oracle", lyapunov_periodic_oracle,
     # N >= 10 leaves at least one whole period after the burn-in
     {"d": (3, 1, 8), "period": (4, 1, 8), "N": (10000, 10, 10 ** 5),
      "seed": SEED},
     "QR exponents against the exact monodromy spectrum"),
    ("oseledets-two-cycle", oseledets_two_cycle,
     {"N": (10000, 1, 10 ** 5), "seed": SEED},
     "filtration approximant checks on diagonal cocycles"),
    ("kingman-two-cycle", kingman_two_cycle, {"seed": SEED},
     "subadditive limit on a two-cycle matrix cocycle"),
]

BY_NAME = {name: (fn, params, desc) for name, fn, params, desc in REGISTRY}

# the matrix-cocycle scenarios, which `capergo lyapunov` accepts
COCYCLE = frozenset({"lyapunov-periodic-oracle", "oseledets-two-cycle",
                     "kingman-two-cycle"})


def _resolve(name, params, given):
    """The config: each declared key's default, or its given value checked
    against the declared type and range.  An integral float passes for an
    int key; a bool, a string, nan or inf never does."""
    for key in given:
        if key not in params:
            raise ConfigError("unknown config key %r for %s" % (key, name))
    config = {}
    for key, (default, lo, hi) in params.items():
        value = given.get(key, default)
        kind = type(default)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not lo <= value <= hi
                or kind is int and isinstance(value, float)
                and not value.is_integer()):
            raise ConfigError("%s must be %s >= %r and <= %r, got %r" % (
                key, "an integer" if kind is int else "a number", lo, hi,
                value))
        config[key] = kind(value)
    return config


def run_scenario(name: str, overrides: dict = None, seed: int = None):
    """Execute a named scenario; returns the report dict.

    The overrides, and the seed if given, are checked against the
    scenario's declared parameters before the scenario starts.
    """
    if name not in BY_NAME:
        raise ConfigError("unknown scenario %r" % name)
    fn, params, desc = BY_NAME[name]
    given = dict(overrides or {})
    if seed is not None:
        given["seed"] = seed
    config = _resolve(name, params, given)
    checks, csv_tables = fn(config)
    overall = all(c["verdict"] for c in checks)
    report = {"scenario": name, "description": desc,
              "config": config, "checks": checks,
              "overall": overall}
    return report, csv_tables
