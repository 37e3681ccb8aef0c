"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and
records a single pass/fail line (echoed in the terminal summary).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from capergo import cli, ergocheck, finitedyn, scenarios, setfun
from capergo.cocycle import oseledets_filtration
from capergo.ergocheck import FiniteSystem, IntervalSystem
from capergo.finitedyn import Endomap
from capergo.intervaldyn import (BitstreamPoint, IntervalSet,
                                 PiecewiseAffineMap, PiecewiseConstant,
                                 RestrictedLebesgue, orbit_average,
                                 polynomial_orbit_average,
                                 verify_eigenfunction)
from capergo.scenarios import compare_with_oracle, random_periodic_generator
from capergo.setfun import (Capacity, UpperProbability, choquet_integral,
                            core_range, core_vertices, distort, mask_of)

F = Fraction
ALPHA = 0.6180339887


def _random_prob(rng, n, denom=12, sparse=False):
    support = list(range(n))
    if sparse and n > 1:
        keep = rng.randint(1, n)
        support = rng.sample(range(n), keep)
    weights = {i: rng.randint(1, denom) for i in support}
    total = sum(weights.values())
    return [F(weights.get(i, 0), total) for i in range(n)]


def _pushforward(p, t):
    """The vector P o T^{-1}: the mass at i moves to T i."""
    out = [0] * t.n
    for i, w in enumerate(p):
        out[t(i)] = out[t(i)] + w
    return out


def _random_interval_set(rng, c=1, denom=32):
    pieces = []
    for _ in range(rng.randint(1, 2)):
        a = rng.randint(0, denom * c - 1)
        b = rng.randint(a + 1, denom * c)
        pieces.append((F(a, denom), F(b, denom)))
    return IntervalSet(pieces, c=c)


def test_criterion_01_rotation_swap_independence(acceptance_log):
    started = time.monotonic()
    mp = PiecewiseAffineMap.rotation_swap(ALPHA)
    p1 = RestrictedLebesgue(IntervalSet([(0, 1)], 2))
    sys = IntervalSystem(mp, [p1])
    b = IntervalSet([(0, F(1, 2))], 2)
    c = IntervalSet([(1, F(17, 10))], 2)
    rep = ergocheck.independence_check(sys, p1, b, c, 100_000, tol=1e-3)
    elapsed = time.monotonic() - started
    dev = abs(rep.partials[-1] - 0.175)
    ok = dev <= 1e-3 and abs(rep.target - 0.175) <= 1e-12 and elapsed < 10
    acceptance_log(1, "rotation-swap independence -> 0.175", ok,
                   "dev %.1e, %.1fs" % (dev, elapsed))
    assert ok


def test_criterion_02_pathwise_birkhoff_rotation_swap(acceptance_log):
    mp = PiecewiseAffineMap.rotation_swap(ALPHA)
    f = PiecewiseConstant.indicator(IntervalSet([(1, 2)], 2))
    rng = random.Random(7)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0, 2)
        avg = orbit_average(mp, f, x, 100_000)
        worst = max(worst, abs(float(avg) - 0.5))
    ok = worst <= 5e-3
    acceptance_log(2, "pathwise averages -> 1/2 at 20 points", ok,
                   "worst dev %.1e" % worst)
    assert ok


def test_criterion_03_exhaustive_finite_equivalence(acceptance_log):
    started = time.monotonic()
    checked = 0
    ok = True
    for n in range(1, 5):
        for idx, image in enumerate(itertools.product(range(n), repeat=n)):
            t = Endomap(list(image))
            atoms = finitedyn.invariant_atoms(t)
            rng = random.Random((n, idx).__hash__())
            for _ in range(200):
                fam = [_random_prob(rng, n, sparse=rng.random() < 0.5)
                       for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.5:
                    # close the family under pushforward so the envelope
                    # is invariant and the ergodic branch gets exercised
                    closed = []
                    for p in fam:
                        seen = []
                        cur = p
                        while cur not in seen:
                            seen.append(cur)
                            cur = _pushforward(cur, t)
                        closed.extend(seen)
                    fam = closed
                v = UpperProbability(fam)
                erg = finitedyn.ergodicity_check(v, t)
                sk = finitedyn.ergodic_skeleton(v, t)
                checked += 1
                if erg["ergodic"] != sk["ok"]:
                    ok = False
                    break
                if sk["ok"]:
                    q = sk["skeleton"]
                    verts = core_vertices(v)
                    for r in range(len(atoms) + 1):
                        for combo in itertools.combinations(atoms, r):
                            mask = 0
                            for a in combo:
                                mask |= a
                            lo, hi = core_range(v, mask, verts)
                            qa = sum(q[i] for i in range(n)
                                     if mask & (1 << i))
                            if not lo == hi == qa:
                                ok = False
                                break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 300
    acceptance_log(3, "finite equivalence, all maps n<=4", ok,
                   "%d instances, %.0fs" % (checked, elapsed))
    assert ok


def test_criterion_04_choquet_grid_and_core(acceptance_log):
    rng = random.Random(104)
    levels = 10 ** 4
    thresholds = np.arange(1, levels + 1) / levels
    worst = 0.0
    for _ in range(500):
        n = rng.randint(2, 5)
        raw = [F(rng.randint(1, 100), 100) for _ in range(1 << n)]
        table = [F(0)] * (1 << n)
        for a in range(1, 1 << n):
            best = raw[a]
            for i in range(n):
                if a & (1 << i):
                    best = max(best, table[a ^ (1 << i)])
            table[a] = best
        full = (1 << n) - 1
        mu = Capacity(n, [x / table[full] for x in table])
        f = [F(rng.randint(0, levels), levels) for _ in range(n)]
        # grid-Riemann sum of the level function over 10^4 slices
        masks = np.zeros(levels, dtype=np.int64)
        for i in range(n):
            masks += (thresholds <= float(f[i])).astype(np.int64) << i
        table_f = np.array([float(x) for x in mu.table])
        grid = table_f[masks].sum() / levels
        worst = max(worst, abs(float(choquet_integral(mu, f)) - grid))
    grid_ok = worst <= 1e-9

    core_ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        p = _random_prob(rng, n, denom=24)
        cmult = F(rng.randint(2, 6))
        mu = distort(p, lambda x: min(cmult * x, F(1)))
        verts = core_vertices(mu)
        f = [F(rng.randint(0, 12), 3) for _ in range(n)]
        best = max(sum(vi * fi for vi, fi in zip(vert, f)) for vert in verts)
        if choquet_integral(mu, f) != best:
            core_ok = False
            break
    ok = grid_ok and core_ok
    acceptance_log(4, "Choquet grid oracle + core maximum", ok,
                   "grid dev %.1e" % worst)
    assert ok


def test_criterion_05_sqrt_sequence_limits(acceptance_log):
    out = ergocheck.paper_sequence_6_remark(12)
    t = out["targets"]
    dev_even = abs(out["sqrt_cesaro_even_window"] - 0.45118)
    dev_odd = abs(out["sqrt_cesaro_odd_window"] - 0.40237)
    dev_plain = abs(out["plain_cesaro"] - 0.25)
    ok = dev_even <= 1e-2 and dev_odd <= 1e-2 and dev_plain <= 1e-3
    ok = ok and abs(t["even"] - 0.45118) <= 1e-4 \
        and abs(t["odd"] - 0.40237) <= 1e-4
    acceptance_log(5, "sqrt-sequence window limits", ok,
                   "devs %.1e / %.1e / %.1e" % (dev_even, dev_odd, dev_plain))
    assert ok


def test_criterion_06_no_natural_density(acceptance_log):
    lows = [1 << (2 * k) for k in range(6, 13)]
    highs = [1 << (2 * k + 1) for k in range(6, 13)]
    # two-sided window density |A & [-n, n]| / (2n + 1) at the last window
    lo = ergocheck.block_power_count(lows[-1]) / (2 * lows[-1] + 1)
    hi = ergocheck.block_power_count(highs[-1]) / (2 * highs[-1] + 1)
    ok = abs(lo - 1 / 6) <= 2e-2 and abs(hi - 1 / 3) <= 2e-2 \
        and hi - lo >= 0.1
    acceptance_log(6, "block set has no natural density", ok,
                   "estimates %.4f vs %.4f" % (lo, hi))
    assert ok


def test_criterion_07_doubling_paste_battery(acceptance_log):
    mp = PiecewiseAffineMap.doubling_paste()
    p1 = RestrictedLebesgue(IntervalSet([(0, 1)], 2))
    p2 = RestrictedLebesgue(IntervalSet([(1, 2)], 2))

    def v_of(s):
        return max(p1(s), p2(s))

    rng = random.Random(107)
    invariant = all(
        v_of(mp.preimage(s)) == v_of(s)
        for s in (_random_interval_set(rng, c=2, denom=64)
                  for _ in range(200)))
    sign = PiecewiseConstant([0, 1, 2], [F(1), F(-1)], c=2)
    eigen = verify_eigenfunction(sign, mp, F(-1))

    doubling = PiecewiseAffineMap.doubling()
    leb = RestrictedLebesgue(IntervalSet([(0, 1)], 1))
    half = IntervalSet([(0, F(1, 2))], 1)
    sysd = IntervalSystem(doubling, [leb])
    mixing = ergocheck.squared_deviation_check(sysd, leb, half, half, 24,
                                              tol=1e-2)
    swap = FiniteSystem(
        UpperProbability([[F(1), F(0)], [F(0), F(1)]]), Endomap([1, 0]))
    analog = ergocheck.squared_deviation_check(swap, [F(1), F(0)],
                                               0b01, 0b01, 16)
    not_wm = finitedyn.weak_mixing_check(swap.v, swap.t)
    ok = invariant and eigen and mixing.verdict \
        and analog.exact_limit == F(1, 4) and not not_wm["weak_mixing"]
    acceptance_log(7, "doubling-paste battery", ok)
    assert ok


def test_criterion_08_sqrt_moment_bounds(acceptance_log):
    rng = random.Random(108)
    mp = PiecewiseAffineMap.doubling()
    leb = RestrictedLebesgue(IntervalSet([(0, 1)], 1))
    sys = IntervalSystem(mp, [leb])
    all_in = True
    for _ in range(50):
        b = _random_interval_set(rng, c=1)
        c = _random_interval_set(rng, c=1)
        out = ergocheck.sqrt_moment_check(sys, leb, b, c, 0.5, 400, tol=1e-2)
        if not out["verdict"]:
            all_in = False
            break
    exact = True
    for r in range(2, 6):
        t = Endomap([(i + 1) % r for i in range(r)])
        p = [F(1, r)] * r
        fsys = FiniteSystem(UpperProbability([p]), t)
        out = ergocheck.sqrt_moment_check(fsys, p, 1, 1, 0.5, 4 * r)
        if abs(out["exact_limit"] - math.sqrt(1 / r) / r) > 1e-12:
            exact = False
    ok = all_in and exact
    acceptance_log(8, "sqrt-moment bounds, 50 random pairs", ok)
    assert ok


def test_criterion_09_lyapunov_oracle_agreement(acceptance_log):
    started = time.monotonic()
    rng = random.Random(109)
    worst = 0.0
    for d in (2, 3):
        for _ in range(10):
            ell = rng.randint(1, 6)
            gen = random_periodic_generator(rng, d, ell)
            dev, _, _ = compare_with_oracle(gen, ell, 10_000)
            worst = max(worst, dev)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed < 30
    acceptance_log(9, "QR spectrum vs monodromy, 20 gens", ok,
                   "worst %.1e, %.1fs" % (worst, elapsed))
    assert ok


def test_criterion_10_met_invariances(acceptance_log):
    rng = random.Random(110)
    ok = True
    for _ in range(5):
        ell = rng.randint(1, 4)
        gen = random_periodic_generator(rng, 3, ell, min_gap=0.1)
        approx = oseledets_filtration(gen, 0, 10_000)
        for lam, lam_x in approx.checks["directional"]:
            ok = ok and abs(lam - lam_x) <= 1e-2
        for a, b in approx.checks["invariance"]:
            ok = ok and abs(a - b) <= 1e-2
        ok = ok and max(approx.checks["angles"]) <= 1e-4
    acceptance_log(10, "Oseledets directional/invariance/angles", ok)
    assert ok


def test_criterion_11_polynomial_birkhoff(acceptance_log):
    f = PiecewiseConstant.indicator(IntervalSet([(0, F(1, 2))], 1))
    n = 2000
    budget = n * n + 64
    hits = 0
    for stream in range(10):
        x = BitstreamPoint(seed=7 + stream, budget=budget)
        avg = polynomial_orbit_average(f, lambda i: i * i, x, n)
        if abs(float(avg) - 0.5) <= 0.05:
            hits += 1
    ok = hits >= 9
    acceptance_log(11, "polynomial-time averages, 10 streams", ok,
                   "%d/10 within 0.05" % hits)
    assert ok


def test_criterion_12_deterministic_reports(acceptance_log, tmp_path):
    ok = True
    for name, _, _, _ in scenarios.REGISTRY:
        blobs = []
        for run in range(3):
            out = tmp_path / ("%s-%d" % (name, run))
            code = cli.main(["run", name, "--out", str(out)])
            if code != 0:
                ok = False
            blobs.append((out / name / "report.json").read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            ok = False
        if not ok:
            break
    acceptance_log(12, "byte-identical reports, 3 runs each", ok)
    assert ok
