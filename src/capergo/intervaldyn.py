"""Interval-union sets on a circle segment [0, c) and piecewise-affine maps.

Two arithmetic modes coexist: exact (Fraction endpoints) and float; the
rule that tells them apart, the float tolerance and the "p/q" encoding
live in `capergo.numeric`.  All intervals are half-open [a, b); boundary
points belong to the right-continuous side, so partitions and preimages
stay half-open and measure computations never see boundary ambiguity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .numeric import close, is_exact, parse

BOUNDARY_SNAP = 1e-15
DOUBLING_BUDGET = 24

# default irrational rotation parameter: reversed golden ratio, badly
# approximable, so Birkhoff sums converge at the best worst-case rate
GOLDEN = 0.6180339887498949


class BudgetError(RuntimeError):
    pass


class BoundaryHitError(RuntimeError):
    pass


class IntervalSet:
    """Sorted disjoint half-open intervals inside [0, c)."""

    def __init__(self, intervals: Sequence = (), c=2):
        self.c = parse(c)
        self.intervals = self._normalize(intervals)

    def _normalize(self, raw):
        pieces = []
        for a, b in raw:
            a, b = parse(a), parse(b)
            if not (0 <= a and b <= self.c):
                raise ValueError("interval outside [0, c)")
            if a < b:
                pieces.append((a, b))
        pieces.sort()
        merged = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return [tuple(p) for p in merged]

    def measure(self):
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._check(other)
        return IntervalSet(self.intervals + other.intervals, self.c)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        self._check(other)
        out = []
        j = 0
        for a, b in self.intervals:
            while j < len(other.intervals) and other.intervals[j][1] <= a:
                j += 1
            k = j
            while k < len(other.intervals) and other.intervals[k][0] < b:
                lo = max(a, other.intervals[k][0])
                hi = min(b, other.intervals[k][1])
                if lo < hi:
                    out.append((lo, hi))
                k += 1
        return IntervalSet(out, self.c)

    def complement(self) -> "IntervalSet":
        out = []
        prev = parse(0)
        for a, b in self.intervals:
            if prev < a:
                out.append((prev, a))
            prev = b
        if prev < self.c:
            out.append((prev, self.c))
        return IntervalSet(out, self.c)

    def _check(self, other):
        if self.c != other.c:
            raise ValueError("mismatched circumference")

    def __eq__(self, other):
        return (self.c == other.c and self.intervals == other.intervals)

    def __repr__(self):
        return "IntervalSet(%r, c=%s)" % (self.intervals, self.c)


class RestrictedLebesgue:
    """A |-> Lebesgue measure of A intersected with a window."""

    def __init__(self, window: IntervalSet):
        self.window = window

    def __call__(self, s: IntervalSet):
        return s.intersect(self.window).measure()


def _float_ceil(v) -> float:
    """The least float at or above v."""
    f = float(v)
    return math.nextafter(f, math.inf) if f < v else f


class PiecewiseAffineMap:
    """Branch list (lo, hi, slope, intercept): x -> slope*x + intercept.

    Branch domains partition [0, c) and each branch image already lies in
    [0, c), so applying the map never needs an explicit mod.  `kind` names
    the closed forms that the correlations and orbit averages may use; only
    the named constructors set it, so it always matches the branches.
    """

    def __init__(self, branches, c=2):
        self.c = parse(c)
        self.kind = "custom"
        self.branches = [(parse(lo), parse(hi), parse(s), parse(t))
                         for lo, hi, s, t in branches]
        self.expanding = any(abs(b[2]) > 1 for b in self.branches)
        # Float branch data for float points.  A float x satisfies lo <= x
        # exactly when it satisfies _float_ceil(lo) <= x, and Fraction *
        # float + Fraction evaluates as float(s) * x + float(t), so float
        # compares and float arithmetic reproduce the exact-compare path
        # bit for bit.
        self._snap = [float(lo) for lo, _, _, _ in self.branches if lo != 0]
        self._float_branches = [
            (_float_ceil(lo), _float_ceil(hi), float(s), float(t))
            for lo, hi, s, t in self.branches]

    def apply(self, x):
        if isinstance(x, float):
            for lo in self._snap:
                if abs(x - lo) < BOUNDARY_SNAP:
                    raise BoundaryHitError("orbit hit a branch boundary")
            # a float subclass such as numpy's float64 takes the exact
            # compares, whose result type depends on the branch's exactness
            if type(x) is float:
                for lo, hi, s, t in self._float_branches:
                    if lo <= x < hi:
                        return s * x + t
                raise ValueError("point outside [0, c)")
        for lo, hi, s, t in self.branches:
            if lo <= x < hi:
                return s * x + t
        raise ValueError("point outside [0, c)")

    def preimage(self, s_set: IntervalSet) -> IntervalSet:
        if s_set.c != self.c:
            raise ValueError("mismatched circumference")
        out = []
        for lo, hi, s, t in self.branches:
            img_lo, img_hi = s * lo + t, s * hi + t
            if s < 0:
                img_lo, img_hi = img_hi, img_lo
            for a, b in s_set.intervals:
                a2, b2 = max(a, img_lo), min(b, img_hi)
                if a2 < b2:
                    xa, xb = (a2 - t) / s, (b2 - t) / s
                    if s < 0:
                        xa, xb = xb, xa
                    out.append((max(xa, lo), min(xb, hi)))
        return IntervalSet(out, self.c)

    @classmethod
    def _named(cls, kind, branches, c):
        mp = cls(branches, c)
        mp.kind = kind
        return mp

    @classmethod
    def rotation(cls, alpha, c=1):
        c = parse(c)
        alpha = parse(alpha) % c
        if alpha == 0:
            return cls._named("rotation", [(0, c, 1, 0)], c)
        return cls._named("rotation", [(0, c - alpha, 1, alpha),
                                       (c - alpha, c, 1, alpha - c)], c)

    @classmethod
    def doubling(cls):
        return cls._named("doubling", [(0, Fraction(1, 2), 2, 0),
                                       (Fraction(1, 2), 1, 2, -1)], c=1)

    @classmethod
    def rotation_swap(cls, alpha=GOLDEN):
        alpha = parse(alpha)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0,1)")
        # [0,1) rotates by alpha then moves up to [1,2); [1,2) drops down
        return cls._named("rotation_swap", [(0, 1 - alpha, 1, alpha + 1),
                                            (1 - alpha, 1, 1, alpha),
                                            (1, 2, 1, -1)], c=2)

    @classmethod
    def doubling_paste(cls):
        # [0,1) doubles mod 1 then moves up to [1,2); [1,2) drops down
        return cls._named("doubling_paste", [(0, Fraction(1, 2), 2, 1),
                                             (Fraction(1, 2), 1, 2, 0),
                                             (1, 2, 1, -1)], c=2)


class PiecewiseConstant:
    """Function on [0, c): value values[j] on [cuts[j], cuts[j+1])."""

    def __init__(self, cuts, values, c=2):
        self.c = parse(c)
        self.cuts = [parse(x) for x in cuts]
        self.values = list(values)
        if len(self.values) != len(self.cuts) - 1:
            raise ValueError("need one value per piece")
        if self.cuts[0] != 0 or self.cuts[-1] != self.c:
            raise ValueError("pieces must cover [0, c)")
        if any(a >= b for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError("cuts must increase")

    def __call__(self, x):
        # the last piece whose left cut is <= x: the first one below 0,
        # the last one at or past c
        j = bisect_right(self.cuts, x, 1, len(self.values))
        return self.values[j - 1]

    def pieces(self):
        for j, v in enumerate(self.values):
            yield IntervalSet([(self.cuts[j], self.cuts[j + 1])], self.c), v

    @classmethod
    def indicator(cls, s: IntervalSet):
        cuts = [parse(0)]
        values = []
        for a, b in s.intervals:
            if a > cuts[-1]:
                values.append(0)
                cuts.append(a)
            values.append(1)
            cuts.append(b)
        if cuts[-1] < s.c:
            values.append(0)
            cuts.append(s.c)
        if len(cuts) == 1:  # empty set
            cuts.append(s.c)
            values.append(0)
        return cls(cuts, values, s.c)


def correlation_sequence(p: RestrictedLebesgue, mp: PiecewiseAffineMap,
                         b: IntervalSet, c_set: IntervalSet, n: int) -> list:
    """Terms P(B intersect T^{-i} C) for i = 0 .. n-1.

    For the plain doubling map each term i >= 1 comes from the identity
    Leb([a,b) & T^{-i}C) = (b-a)|C| + (H(2^i b mod 1) - H(2^i a mod 1))/2^i
    with H(u) = |C & [0,u)| - u|C|, summed over the pieces [a, b) of B
    within the window.  Endpoints are carried as u -> 2u mod 1 and keep
    their input denominators, so the exponential interval blowup (and with
    it the iterate budget) disappears; the terms are Fractions, exact on
    float endpoints too, and past the dyadic level of every such endpoint
    they equal P(B)|C|.  Other expanding maps may take at most DOUBLING_BUDGET
    preimage steps.
    """
    if n < 1:
        return []
    if mp.kind == "doubling":
        return _doubling_correlations(p, b, c_set, n)
    if mp.kind == "rotation_swap" or (mp.kind == "rotation" and mp.c == 1):
        return _rotation_correlations(p, mp, b, c_set, n)
    if mp.expanding and n - 1 > DOUBLING_BUDGET:
        raise BudgetError("preimage budget exceeded at iterate %d"
                          % (DOUBLING_BUDGET + 1))
    out = []
    cur = c_set
    for i in range(n):
        out.append(p(b.intersect(cur)))
        if i + 1 < n:
            cur = mp.preimage(cur)
    return out


def _rot_overlap(x_pieces, y_pieces, t):
    """Measure of X intersected with the unit-circle rotate of Y by -t.

    Exact when t and every endpoint are Fractions, float when t is.
    """
    t = t % 1
    total = 0.0 if isinstance(t, float) else Fraction(0)
    for a, b in y_pieces:
        a2 = (a - t) % 1
        b2 = a2 + (b - a)
        shifted = [(a2, b2)] if b2 <= 1 else [(a2, 1), (0, b2 - 1)]
        for lo, hi in shifted:
            for xa, xb in x_pieces:
                l, h = max(lo, xa), min(hi, xb)
                if l < h:
                    total += h - l
    return total


def _split_halves(pieces):
    """Split [0,2) pieces into lower and (down-shifted) upper unit parts."""
    low, up = [], []
    for a, b in pieces:
        if a < 1:
            low.append((a, min(b, 1)))
        if b > 1:
            up.append((max(a, 1) - 1, b - 1))
    return low, up


def _rotation_correlations(p, mp, b, c_set, n):
    """Closed-form terms for the circle rotation and the rotation-swap map.

    The i-th preimage is a rotate of C (rotation) or, for the swap map, a
    parity-alternating pair of rotates of C's two unit halves: the square
    of the swap map rotates each half by alpha.  The terms are Fractions
    when alpha and every endpoint of C and of B within the window are,
    and floats otherwise.
    """
    bw = b.intersect(p.window)
    ends = [v for s in (bw, c_set) for piece in s.intervals for v in piece]
    exact = is_exact(mp.branches[0][3]) and all(map(is_exact, ends))
    num = Fraction if exact else float
    bw_f = [(num(a), num(hi)) for a, hi in bw.intervals]
    if mp.kind == "rotation":
        alpha = num(mp.branches[0][3]) % 1
        cf = [(num(a), num(hi)) for a, hi in c_set.intervals]
        return [_rot_overlap(bw_f, cf, (i * alpha) % 1) for i in range(n)]
    alpha = num(mp.branches[0][3]) - 1  # lower branch sends x to x+a+1
    x_low, x_up = _split_halves(bw_f)
    y0, y1 = _split_halves([(num(a), num(hi))
                            for a, hi in c_set.intervals])
    out = []
    for i in range(n):
        k = i // 2
        if i % 2 == 0:
            val = _rot_overlap(x_low, y0, (k * alpha) % 1) + \
                _rot_overlap(x_up, y1, (k * alpha) % 1)
        else:
            val = _rot_overlap(x_low, y1, ((k + 1) * alpha) % 1) + \
                _rot_overlap(x_up, y0, (k * alpha) % 1)
        out.append(val)
    return out


def _doubling_correlations(p, b, c_set, n):
    # Leb(T^{-i}C & [0,x)) = x|C| + H(2^i x mod 1) / 2^i, where
    # H(u) = |C & [0,u)| - u|C|; each endpoint u is carried as 2u mod 1
    cs = [(Fraction(lo), Fraction(hi)) for lo, hi in c_set.intervals]
    c_len = sum((hi - lo for lo, hi in cs), Fraction(0))

    def h(u):
        return sum((min(hi, u) - lo for lo, hi in cs if lo < u),
                   -u * c_len)

    ends = [(Fraction(lo), Fraction(hi))
            for lo, hi in b.intersect(p.window).intervals]
    base = sum((hi - lo for lo, hi in ends), Fraction(0)) * c_len
    out = [p(b.intersect(c_set))]
    for i in range(1, n):
        ends = [(2 * lo % 1, 2 * hi % 1) for lo, hi in ends]
        out.append(base + sum((h(hi) - h(lo) for lo, hi in ends),
                              Fraction(0)) / (1 << i))
    return out


def orbit_average(mp: PiecewiseAffineMap, f, x, n: int):
    """(1/n) * sum of f(T^i x) over i = 0 .. n-1 by forward iteration.

    Rotation-family maps with a float start use a vectorized closed form
    for the orbit (the swap map's square rotates each half by alpha).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(x, float) and isinstance(f, PiecewiseConstant) and \
            mp.kind in ("rotation", "rotation_swap"):
        return _orbit_average_rotation(mp, f, x, n)
    total = Fraction(0) if is_exact(x) else 0.0
    for _ in range(n):
        total += f(x)
        x = mp.apply(x)
    return total / n


def _orbit_average_rotation(mp, f, x, n):
    import numpy as np
    cuts = np.array([float(v) for v in f.cuts])
    vals = np.array([float(v) for v in f.values])
    if mp.kind == "rotation":
        alpha = float(mp.branches[0][3]) % float(mp.c)
        pos = (x + alpha * np.arange(n)) % float(mp.c)
    else:
        alpha = float(mp.branches[0][3]) - 1
        pos = np.empty(n)
        if x >= 1:
            pos[0] = x
            start_low, off = x - 1, 1
        else:
            start_low, off = x, 0
        k = np.arange(n - off)
        low = (start_low + alpha * ((k + 1) // 2)) % 1.0
        low[1::2] += 1.0  # odd steps from the lower half land in [1, 2)
        pos[off:] = low
    # boundary-hit detection against branch cuts and f's cuts
    edges = sorted({float(br[0]) for br in mp.branches} |
                   {float(v) for v in f.cuts})
    for e in edges:
        if e and np.any(np.abs(pos - e) < BOUNDARY_SNAP):
            raise BoundaryHitError("orbit hit a partition boundary")
    idx = np.searchsorted(cuts, pos, side="right") - 1
    return float(vals[np.clip(idx, 0, len(vals) - 1)].mean())


class BitstreamPoint:
    """Deterministic fair-coin binary expansion; bit m is the m-th digit.

    Applying the doubling map m times to the encoded point just moves the
    read head to offset m, so orbit values at arbitrary iterates are exact
    reads of finitely many bits.  The `budget` bits are those of
    `random.Random(seed).getrandbits(budget)`, bit k being that integer's
    2^k digit; they are held as little-endian bytes, so a read costs O(1)
    whatever the budget.
    """

    def __init__(self, seed: int, budget: int):
        import random
        self.budget = budget
        # getrandbits, not randbytes: the two differ in the last partial
        # 32-bit word when budget % 32 != 0
        self._bits = random.Random(seed).getrandbits(budget).to_bytes(
            (budget + 7) // 8, "little")

    def bit(self, k: int) -> int:
        if k >= self.budget:
            raise BudgetError("bit budget exceeded")
        if k < 0:
            raise ValueError("negative bit index")
        return self._bits[k >> 3] >> (k & 7) & 1

    def value_at(self, m: int, depth: int) -> Fraction:
        """The first `depth` binary digits of T^m x, as a dyadic rational."""
        if m + depth > self.budget:
            raise BudgetError("bit budget exceeded")
        num = 0
        for j in range(depth):
            num = (num << 1) | self.bit(m + j)
        return Fraction(num, 1 << depth)


def _dyadic_depth(f: PiecewiseConstant) -> int:
    depth = 0
    for x in f.cuts:
        fr = Fraction(x) if not isinstance(x, Fraction) else x
        d = fr.denominator
        if d & (d - 1):
            raise ValueError("f endpoints must be dyadic")
        depth = max(depth, d.bit_length() - 1)
    return depth


def polynomial_orbit_average(f: PiecewiseConstant, p, x: BitstreamPoint,
                             n: int):
    """(1/n) * sum over i = 1..n of f(T^{p(i)} x) on the doubling shift.

    f must have dyadic endpoints: its value at T^m x then depends on
    finitely many bits, read exactly from the stream.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if f.c != 1:
        raise ValueError("polynomial averages run on the unit circle")
    depth = max(_dyadic_depth(f), 1)
    total = Fraction(0)
    for i in range(1, n + 1):
        m = p(i)
        if m < 0:
            raise ValueError("polynomial must be nonnegative")
        total += f(x.value_at(m, depth))
    return total / n


def verify_eigenfunction(f: PiecewiseConstant, mp: PiecewiseAffineMap,
                         lam) -> bool:
    """Decide f(T x) = lam * f(x) off a finite set of boundary points.

    The composition f o T is piecewise constant on the refinement of the
    map's branches against the preimages of f's pieces; on each refined
    piece both sides are single labels, compared exactly (or within
    FLOAT_TOL in float mode).
    """
    cuts = set()
    for lo, hi, _, _ in mp.branches:
        cuts.add(lo)
        cuts.add(hi)
    for x in f.cuts:
        cuts.add(parse(x))
    for piece, _ in f.pieces():
        pre = mp.preimage(piece)
        for a, b in pre.intervals:
            cuts.add(a)
            cuts.add(b)
    cuts = sorted(cuts, key=float)
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            continue
        mid = (a + b) / 2
        lhs = f(mp.apply(mid))
        rhs = lam * f(mid)
        if not close(lhs, rhs):
            return False
    return True
