"""Cesaro-characterization checks of ergodicity and weak mixing.

The checks run on a system of either regime: a `FiniteSystem` (exact
rational limits via cycle periodicity, tolerance zero) or an
`IntervalSystem` (partial Cesaro means at checkpoints N/8, N/4, N/2, N
against a tolerance).  Each system supplies prob(p, event),
q_measure(event) (the shared skeleton Q, or None when there is none) and
the correlation terms P(B & T^{-i}C); one Cesaro pipeline turns them
into every check.

Alongside: the closed-form count of the paper's integer block set with
no natural density, Koopman-von Neumann extraction of a density-zero
exception set, the square-root sequence with no Cesaro limit, and the
stationary-process SLLN check.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import finitedyn, intervaldyn
from .finitedyn import Endomap
from .intervaldyn import IntervalSet, PiecewiseAffineMap, RestrictedLebesgue
from .numeric import close
from .setfun import UpperProbability, choquet_integral, indices_of


def checkpoints_of(n: int) -> list[int]:
    pts = sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2), n})
    return pts


@dataclass
class ConvergenceReport:
    name: str
    checkpoints: list
    partials: list
    target: object
    tolerance: object
    status: str = "ok"  # "ok" or "no-skeleton"
    exact_limit: object = None

    @property
    def final_deviation(self):
        """|limit - target|, or None when there is no skeleton to check."""
        if self.status != "ok":
            return None
        if self.exact_limit is not None:
            return abs(self.exact_limit - self.target)
        return abs(self.partials[-1] - self.target)

    @property
    def verdict(self) -> bool:
        dev = self.final_deviation
        return dev is not None and dev <= self.tolerance

    def csv_rows(self):
        rows = [("checkpoint", "partial_mean", "target", "deviation")]
        for n, v in zip(self.checkpoints, self.partials):
            rows.append((n, float(v), float(self.target),
                         float(abs(v - self.target))))
        return rows

    def summary(self):
        dev = self.final_deviation
        return {"check": self.name, "verdict": bool(self.verdict),
                "status": self.status,
                "final_deviation": None if dev is None else float(dev),
                "tolerance": float(self.tolerance),
                "target": float(self.target)}


@dataclass
class FiniteSystem:
    """An upper probability v with the endomap t, and their ergodic
    skeleton (None when ergodic_skeleton fails)."""

    v: UpperProbability
    t: Endomap
    skeleton: Optional[list] = field(init=False)

    def __post_init__(self):
        sk = finitedyn.ergodic_skeleton(self.v, self.t)
        self.skeleton = sk["skeleton"] if sk["ok"] else None

    def prob(self, p: Sequence, mask: int):
        return sum((p[i] for i in indices_of(mask)), Fraction(0))

    def q_measure(self, mask: int):
        if self.skeleton is None:
            return None
        return self.prob(self.skeleton, mask)

    def correlations(self, p: Sequence, b: int, c: int, n: int):
        """The terms P(B & T^{-i}C) for i < n, and one period of them.

        The mask orbit C, T^{-1}C, ... is eventually periodic; it is run
        once, until a mask repeats.
        """
        seen = {}
        masks = []
        while c not in seen:
            seen[c] = len(masks)
            masks.append(c)
            c = self.t.preimage_mask(c)
        terms = [self.prob(p, b & m) for m in masks]
        start = seen[c]
        cycle = terms[start:]
        return ([terms[i] if i < start else
                 cycle[(i - start) % len(cycle)] for i in range(n)], cycle)


@dataclass
class IntervalSystem:
    """A piecewise-affine map with a family of restricted Lebesgue
    measures; the shared skeleton is normalized Lebesgue on [0, c).

    `family` and every `p` passed to the checks hold `RestrictedLebesgue`
    measures.
    """

    map: PiecewiseAffineMap
    family: list[RestrictedLebesgue]

    def prob(self, p: RestrictedLebesgue, s: IntervalSet):
        return p(s)

    def q_measure(self, s: IntervalSet):
        return s.measure() / self.map.c

    def correlations(self, p: RestrictedLebesgue, b: IntervalSet,
                     c: IntervalSet, n: int):
        """The terms P(B & T^{-i}C) for i < n; they have no known period."""
        return intervaldyn.correlation_sequence(p, self.map, b, c, n), None


System = FiniteSystem | IntervalSystem


def _cesaro(sys: System, p, b, c, n: int, transform: Callable):
    """Checkpoints, partial Cesaro means of transform(P(B & T^{-i}C)) at
    them, and the exact limit (the mean over one period) when the terms
    are eventually periodic, else None."""
    pts = checkpoints_of(n)
    terms, cycle = sys.correlations(p, b, c, n)
    partials = []
    total = Fraction(0)
    k = 0
    for i, x in enumerate(terms):
        total = total + transform(x)
        if k < len(pts) and i + 1 == pts[k]:
            partials.append(total / (i + 1))
            k += 1
    limit = None
    if cycle is not None:
        limit = sum(map(transform, cycle), Fraction(0)) / len(cycle)
    return pts, partials, limit


def _skeleton_check(name, sys, p, b, c, n, tol, float_tol, transform,
                    target) -> ConvergenceReport:
    """Cesaro report for transform(term, center) against target(center),
    where center = P(B) Q(C) for the shared skeleton Q.

    The tolerance defaults to 0 against an exact limit and to float_tol
    against partial means.
    """
    q = sys.q_measure(c)
    if q is None:
        return ConvergenceReport(name, checkpoints_of(n), [], 0, 0,
                                 status="no-skeleton")
    center = sys.prob(p, b) * q
    pts, partials, limit = _cesaro(sys, p, b, c, n,
                                   lambda x: transform(x, center))
    if tol is None:
        tol = float_tol if limit is None else 0
    return ConvergenceReport(name, pts, partials, target(center), tol,
                             exact_limit=limit)


def independence_check(sys: System, p, b, c, n: int,
                       tol=None) -> ConvergenceReport:
    """Cesaro mean of P(B & T^{-i}C) against the target P(B) Q(C)."""
    return _skeleton_check("independence", sys, p, b, c, n, tol, 1e-3,
                           lambda x, center: x, lambda center: center)


def squared_deviation_check(sys: System, p, b, c, n: int,
                            tol=None) -> ConvergenceReport:
    """Cesaro mean of |P(B & T^{-i}C) - P(B)Q(C)|^2; zero iff weak mixing."""
    return _skeleton_check("squared_deviation", sys, p, b, c, n, tol, 1e-2,
                           lambda x, center: (x - center) ** 2,
                           lambda center: 0)


def choquet_independence_check(sys: System, f: Sequence, g: Sequence,
                               n: int) -> ConvergenceReport:
    """Choquet average of f * (g o T^i) against (int f dV)(int g dQ).

    Finite regime only: each checkpoint evaluates an exact Choquet
    integral of the running Cesaro average, and the exact limit is the
    Choquet integral of f times the common conditional expectation of g.
    """
    if not isinstance(sys, FiniteSystem):
        raise NotImplementedError("choquet check runs on finite systems")
    pts = checkpoints_of(n)
    if sys.skeleton is None:
        return ConvergenceReport("choquet_independence", pts, [], 0, 0,
                                 status="no-skeleton")
    if any(x < 0 for x in g):
        raise ValueError("g must be nonnegative")
    t, v = sys.t, sys.v
    m = v.n
    orbit = list(range(m))  # orbit[x] = T^i x
    running = [Fraction(0)] * m
    partials = []
    k = 0
    for i in range(pts[-1]):
        for x in range(m):
            running[x] = running[x] + Fraction(f[x]) * g[orbit[x]]
        orbit = [t(x) for x in orbit]
        if i + 1 == pts[k]:
            avg = [r / (i + 1) for r in running]
            partials.append(choquet_integral(v, avg))
            k += 1
    ghat = finitedyn.common_cond_exp(g, t)
    limit = choquet_integral(v, [Fraction(f[x]) * ghat[x] for x in range(m)])
    target = choquet_integral(v, list(f)) * sum(
        Fraction(g[x]) * sys.skeleton[x] for x in range(m))
    return ConvergenceReport("choquet_independence", pts, partials, target,
                             0, exact_limit=limit)


def sqrt_moment_check(sys: System, p, b, c, r, n: int,
                      tol=1e-2) -> dict:
    """Cesaro means of P(B & T^{-i}C)**r against the two-sided bounds.

    The bounds are [P(B)**r * P(C) - tol, P(B)**r * P(C)**r + tol].  The
    exact limit is checked against them when the terms are eventually
    periodic, else the partial means from N/2 on.
    """
    pts, partials, limit = _cesaro(sys, p, b, c, n, lambda x: float(x) ** r)
    pb, pc = float(sys.prob(p, b)), float(sys.prob(p, c))
    lower, upper = pb ** r * pc, pb ** r * pc ** r
    if limit is None:
        checked = [v for q, v in zip(pts, partials) if q >= n // 2]
    else:
        checked = [limit]
    verdict = all(lower - tol <= v <= upper + tol for v in checked)
    return {"partials": partials, "checkpoints": pts, "exact_limit": limit,
            "lower": lower, "upper": upper, "verdict": verdict,
            "tolerance": tol}


# ---------------------------------------------------------------------------
# density-zero sets


def block_power_count(n: int) -> int:
    """|A intersect [0, n]| for A the integers in some [2^{2j}, 2^{2j+1}]
    (endpoints included), in closed form so huge windows stay cheap."""
    total = 0
    j = 0
    while (1 << (2 * j)) <= n:
        lo = 1 << (2 * j)
        total += min(n, 2 * lo) - lo + 1
        j += 1
    return total


KVN_LEVELS = 8


def extract_null_density_set(seq: Sequence[float], limit: float) -> dict:
    """Koopman-von Neumann extraction of a density-zero exception set.

    Level sets J_m = {n : |seq_n - limit| > 1/m} are merged blockwise:
    N_m is chosen empirically as the first index from which the running
    density of J_{m+1} stays below 1/(m+1), and J picks up J_{m+1} on
    (N_m, N_{m+1}].  Off J, deviations past block m are at most 1/(m+1).
    Refuses when the Cesaro mean of |seq - limit| has not converged to 0
    over the horizon.  Blocks run up to m = KVN_LEVELS.
    """
    horizon = len(seq)
    devs = [abs(x - limit) for x in seq]
    cesaro_tail = sum(devs) / horizon
    if cesaro_tail > 1.0 / (KVN_LEVELS + 1):
        return {"refused": True, "cesaro_mean": cesaro_tail}

    # first index from which the running density of J_m stays <= 1/m:
    # the last window n at which it is still too high, else 0
    def settle_index(m):
        counts = list(itertools.accumulate(
            (d > 1.0 / m for d in devs), initial=0))  # |J_m & [0, n)|
        return next((n for n in range(horizon, 0, -1)
                     if counts[n] / n > 1.0 / m), 0)

    blocks = []
    prev = 0
    for m in range(2, KVN_LEVELS + 2):
        nm = max(prev + 1, settle_index(m))
        if nm >= horizon:
            break
        blocks.append((prev, nm, m))
        prev = nm
    blocks.append((prev, horizon, blocks[-1][2] + 1 if blocks else 2))

    j = []  # ascending: the blocks tile [0, horizon) in order
    off_dev = []
    for lo, hi, m in blocks:
        j.extend(n for n in range(lo, hi) if devs[n] > 1.0 / m)
        off = [d for d in devs[lo:hi] if not d > 1.0 / m]
        off_dev.append({"block_threshold": 1.0 / m,
                        "max_off_deviation": max(off, default=0.0)})
    pts = checkpoints_of(horizon)
    return {"refused": False, "indices": j,
            "certificate": {"checkpoints": pts,
                            "window_density": [bisect.bisect_left(j, n) / n
                                               for n in pts],
                            "blocks": off_dev}}


# ---------------------------------------------------------------------------
# the no-Cesaro-limit sequence of square roots


def _remark_block_sum(n: int, w) -> float:
    """Sum of w(a_i) for i = 1..n via per-block counts, where a_i is 1/4
    on the blocks (2^{2k-1}, 2^{2k}] and elsewhere 1/2 at even i, 0 at
    odd i."""
    total = 0.0
    k = 0
    while True:
        q_lo = (1 << (2 * k - 1)) if k else 0  # quarter block (q_lo, 2^{2k}]
        q_hi = 1 << (2 * k)
        if q_lo >= n:
            break
        cnt = min(q_hi, n) - q_lo
        if cnt > 0:
            total += w(Fraction(1, 4)) * cnt
        a_lo, a_hi = q_hi, 1 << (2 * k + 1)  # alternating block (a_lo, a_hi]
        if a_lo < n:
            m = min(a_hi, n)
            evens = m // 2 - a_lo // 2
            odds = (m - a_lo) - evens
            total += w(Fraction(1, 2)) * evens + w(Fraction(0)) * odds
        k += 1
    return total


def paper_sequence_6_remark(K: int) -> dict:
    """Cesaro means of sqrt(a_i) along n = 2^{2K} and n = 2^{2K+1}.

    The two subsequence limits differ (1/3 + 1/(6 sqrt 2) versus
    1/6 + 1/(3 sqrt 2)), while the plain Cesaro mean of a_i tends to 1/4.
    """
    if K > 14:
        raise ValueError("block budget: K <= 14")
    sqrt_w = lambda a: math.sqrt(float(a))
    plain_w = float
    n_even, n_odd = 1 << (2 * K), 1 << (2 * K + 1)
    return {
        "sqrt_cesaro_even_window": _remark_block_sum(n_even, sqrt_w) / n_even,
        "sqrt_cesaro_odd_window": _remark_block_sum(n_odd, sqrt_w) / n_odd,
        "plain_cesaro": _remark_block_sum(n_even, plain_w) / n_even,
        "targets": {"even": 1 / 3 + 1 / (6 * math.sqrt(2)),
                    "odd": 1 / 6 + 1 / (3 * math.sqrt(2)),
                    "plain": 0.25},
    }


# ---------------------------------------------------------------------------
# stationary-process SLLN


def process_slln_check(sys: System, h: Sequence, depth: int) -> dict:
    """Stationarity of Y_k = h o T^{k-1} plus the per-point SLLN.

    Stationarity compares V of every depth-d cylinder event with V of its
    one-step shift (an exact event-algebra identity when V is invariant).
    The SLLN compares each point's exact Birkhoff limit of h with
    int h dQ; the failure set must be V-null.  All three comparisons go
    through `numeric.close`: exact on exact values, within FLOAT_TOL once
    a float is involved.
    """
    if depth > 8:
        raise ValueError("depth budget: depth <= 8")
    if not isinstance(sys, FiniteSystem):
        raise NotImplementedError("process checks run on finite systems")
    t, v = sys.t, sys.v
    m = v.n
    # depth-d cylinder events {x : (h(x), h(Tx), ...) = word} as masks
    cylinders = {}
    for x in range(m):
        word = []
        y = x
        for _ in range(depth):
            word.append(h[y])
            y = t(y)
        word = tuple(word)
        cylinders[word] = cylinders.get(word, 0) | (1 << x)
    witness = next((word for word, mask in cylinders.items()
                    if not close(v.table[mask],
                                 v.table[t.preimage_mask(mask)])), None)
    out = {"stationary": witness is None, "witness": witness}
    if sys.skeleton is None:
        out["slln"] = {"status": "no-skeleton"}
        return out
    target = sum(Fraction(h[x]) * sys.skeleton[x] for x in range(m))
    limits = finitedyn.common_cond_exp(h, t)
    fail_mask = 0
    for x in range(m):
        if not close(limits[x], target):
            fail_mask |= 1 << x
    out["slln"] = {"status": "ok", "target": target,
                   "failure_mask": fail_mask,
                   "verdict": close(v.table[fail_mask], 0)}
    return out
