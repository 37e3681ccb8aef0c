"""Interval-union sets on a circle segment [0, c) and piecewise-affine maps.

Two arithmetic modes coexist: exact (Fraction endpoints) and float; the
rule that tells them apart, the float tolerance and the "p/q" encoding
live in `capergo.numeric`.  All intervals are half-open [a, b); boundary
points belong to the right-continuous side, so partitions stay half-open
and measure computations never see boundary ambiguity.  Preimages are
stored half-open too: under a negative-slope branch the true preimage of
[a, b) is closed on the right, so there they are exact only up to their
endpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numeric import close, is_exact, parse

BOUNDARY_SNAP = 1e-15
DOUBLING_BUDGET = 24
SWAP_CHUNK = 4096  # rotation-swap correlation terms computed at a time

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
        if not self.c > 0:
            raise ValueError("circumference c must be positive, got %s" % c)
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

    Branch domains tile [0, c) in order, as the constructor checks.  Each
    branch image must lie in [0, c), so applying the map never needs an
    explicit mod; `apply` rejects a point outside [0, c).  `kind` names the
    closed forms that the correlations and orbit averages may use; only
    `doubling` and `rotation_swap` set it, so it always matches the branches.
    """

    def __init__(self, branches, c=2):
        self.c = parse(c)
        if not self.c > 0:
            raise ValueError("circumference c must be positive, got %s" % c)
        self.kind = "custom"
        self.branches = [(parse(lo), parse(hi), parse(s), parse(t))
                         for lo, hi, s, t in branches]
        ends = [0] + [hi for _, hi, _, _ in self.branches]
        if not self.branches or ends[-1] != self.c or any(
                lo != end or lo >= hi
                for (lo, hi, _, _), end in zip(self.branches, ends)):
            raise ValueError("branches must tile [0, c) in order")
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
    def rotation(cls, alpha):
        """x -> x + alpha mod 1 on the unit circle."""
        alpha = parse(alpha) % 1
        if alpha == 0:
            return cls([(0, 1, 1, 0)], c=1)
        return cls([(0, 1 - alpha, 1, alpha), (1 - alpha, 1, 1, alpha - 1)],
                   c=1)

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
        return cls([(0, Fraction(1, 2), 2, 1), (Fraction(1, 2), 1, 2, 0),
                    (1, 2, 1, -1)], c=2)


class PiecewiseConstant:
    """Function on [0, c): value values[j] on [cuts[j], cuts[j+1])."""

    def __init__(self, cuts, values, c=2):
        self.c = parse(c)
        if not self.c > 0:
            raise ValueError("circumference c must be positive, got %s" % c)
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
        if cuts[-1] < s.c:  # the empty set's one piece is this zero
            values.append(0)
            cuts.append(s.c)
        return cls(cuts, values, s.c)


def correlation_sequence(p: RestrictedLebesgue, mp: PiecewiseAffineMap,
                         b: IntervalSet, c_set: IntervalSet, n: int) -> list:
    """Terms P(B intersect T^{-i} C) for i = 0 .. n-1, from the preimages
    of C; expanding maps may take at most DOUBLING_BUDGET preimage steps.
    B, C and the window must lie on the map's circle.

    Closed forms: for the doubling map each term i >= 1 comes from
    Leb([a,b) & T^{-i}C) = (b-a)|C| + (H(2^i b mod 1) - H(2^i a mod 1))/2^i
    with H(u) = |C & [0,u)| - u|C|, summed over the pieces [a, b) of B
    within the window.  Every endpoint is held as an integer numerator over
    q, the lcm of the denominators of all of them (floats by their exact
    values), and carried as U -> 2U mod q; q^2 H(U/q) is an integer too,
    so term i is built as one Fraction over q^2 2^i.  The exponential
    interval blowup (and with it the iterate budget) disappears; the terms
    are Fractions, exact on float endpoints too, and past the dyadic level
    of every such endpoint they equal P(B)|C|.  Term 0 is P(B & C) itself.

    For the rotation-swap map with a float among alpha and the endpoints
    of C and of B within the window, the terms are float overlaps of B
    with rotates of C's two unit halves; all-exact inputs take the
    preimage path and give Fractions.
    """
    if any(s.c != mp.c for s in (b, c_set, p.window)):
        raise ValueError("mismatched circumference")
    if n < 1:
        return []
    if mp.kind == "doubling":
        return _doubling_correlations(p, b, c_set, n)
    if mp.kind == "rotation_swap":
        bw = b.intersect(p.window)
        ends = [v for s in (bw, c_set) for piece in s.intervals for v in piece]
        if not all(map(is_exact, [mp.branches[0][3]] + ends)):
            return _swap_correlations(mp, bw, c_set, n)
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


def _split_halves(pieces):
    """Split [0,2) pieces into lower and down-shifted upper unit floats."""
    low, up = [], []
    for a, b in pieces:
        a, b = float(a), float(b)
        if a < 1:
            low.append((a, min(b, 1)))
        if b > 1:
            up.append((max(a, 1) - 1, b - 1))
    return low, up


def _rot_overlaps(x_pieces, y_pieces, t):
    """Measure of X intersected with the unit-circle rotate of Y by -t, for
    each shift in the array t.

    Overlaps are added piece by piece in a fixed order: for each piece of
    Y its rotate, then the part of it that wraps past 1, each against
    every piece of X.  np.maximum and np.minimum return their first
    argument on ties, as max and min do, so every term is bit for bit the
    one a scalar loop over the same pieces gives.
    """
    t = t % 1
    total = np.zeros(len(t))
    for a, b in y_pieces:
        a2 = (a - t) % 1
        b2 = a2 + (b - a)
        for lo, hi, live in ((a2, np.minimum(b2, 1), True),
                             (0.0, b2 - 1, b2 > 1)):
            for xa, xb in x_pieces:
                l, h = np.maximum(lo, xa), np.minimum(hi, xb)
                total += np.where(live & (l < h), h - l, 0.0)
    return total


def _swap_correlations(mp, bw, c_set, n):
    """Float terms for the rotation-swap map, B already cut to the window.

    The i-th preimage of C is a parity-alternating pair of rotates of C's
    two unit halves: the square of the swap map rotates each half by alpha.
    The terms are computed SWAP_CHUNK at a time, so memory stays flat in n.
    """
    alpha = float(mp.branches[0][3]) - 1  # lower branch sends x to x+a+1
    x_low, x_up = _split_halves(bw.intervals)
    halves = _split_halves(c_set.intervals)
    out = []
    for start in range(0, n, SWAP_CHUNK):
        i = np.arange(start, min(start + SWAP_CHUNK, n))
        terms = np.empty(len(i))
        for odd in (0, 1):
            at = i % 2 == odd
            k = i[at] // 2
            y_low, y_up = halves[odd], halves[1 - odd]
            terms[at] = (_rot_overlaps(x_low, y_low, (k + odd) * alpha) +
                         _rot_overlaps(x_up, y_up, k * alpha))
        out += terms.tolist()
    return out


def _doubling_correlations(p, b, c_set, n):
    # Leb(T^{-i}C & [0,x)) = x|C| + h(2^i x mod 1) / 2^i, where
    # h(u) = |C & [0,u)| - u|C|.  Endpoints are integer numerators over q,
    # carried as U -> 2U mod q, and hq(U) = q^2 h(U/q) is an integer.
    cs = [(Fraction(lo), Fraction(hi)) for lo, hi in c_set.intervals]
    bs = [(Fraction(lo), Fraction(hi))
          for lo, hi in b.intersect(p.window).intervals]
    q = math.lcm(*(x.denominator for piece in cs + bs for x in piece))

    cs = [(int(lo * q), int(hi * q)) for lo, hi in cs]
    ends = [(int(lo * q), int(hi * q)) for lo, hi in bs]
    c_len = sum(hi - lo for lo, hi in cs)

    def hq(u):
        return (q * sum(min(hi, u) - lo for lo, hi in cs if lo < u)
                - u * c_len)

    base = sum(hi - lo for lo, hi in ends) * c_len
    out = [p(b.intersect(c_set))]
    for i in range(1, n):
        ends = [(2 * lo % q, 2 * hi % q) for lo, hi in ends]
        out.append(Fraction((base << i) +
                            sum(hq(hi) - hq(lo) for lo, hi in ends),
                            q * q << i))
    return out


def orbit_average(mp: PiecewiseAffineMap, f, x, n: int):
    """(1/n) * sum of f(T^i x) over i = 0 .. n-1 by forward iteration.

    x and a piecewise-constant f lie on the map's circle.  The rotation-swap
    map vectorizes such an f along a float start's orbit (its square
    rotates each half by alpha).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(f, PiecewiseConstant) and f.c != mp.c:
        raise ValueError("mismatched circumference")
    if not 0 <= x < mp.c:
        raise ValueError("point outside [0, c)")
    if isinstance(x, float) and isinstance(f, PiecewiseConstant) and \
            mp.kind == "rotation_swap":
        return _orbit_average_swap(mp, f, x, n)
    total = Fraction(0) if is_exact(x) else 0.0
    for _ in range(n):
        total += f(x)
        x = mp.apply(x)
    return total / n


def _orbit_average_swap(mp, f, x, n):
    # f is read as the loop reads it: a float point lies at or past a cut
    # exactly when it lies at or past the least float at or above the cut
    cuts = np.array([_float_ceil(v) for v in f.cuts])
    vals = np.array([float(v) for v in f.values])
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
    # the loop's boundary check: the map's nonzero branch cuts only
    for e in mp._snap:
        if np.any(np.abs(pos - e) < BOUNDARY_SNAP):
            raise BoundaryHitError("orbit hit a branch boundary")
    idx = np.searchsorted(cuts, pos, side="right") - 1
    # added left to right, as the loop adds them (mean() sums pairwise)
    terms = vals[np.clip(idx, 0, len(vals) - 1)]
    return float(np.add.accumulate(terms)[-1] / n)


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

    def digits(self, m: int, depth: int) -> int:
        """The first `depth` binary digits of T^m x, as an integer r:
        T^m x lies in [r, r + 1) / 2^depth."""
        if m + depth > self.budget:
            raise BudgetError("bit budget exceeded")
        num = 0
        for k in range(m, m + depth):
            num = (num << 1) | self.bit(k)
        return num


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
    finitely many bits, read exactly from the stream.  With 2^depth the
    finest denominator of f's cuts, each read is the integer of the first
    depth bits, and f's cuts are scaled to integers over 2^depth, so a
    read finds its piece without building a Fraction.  The values are
    added from int 0 in the order of the reads, so an exact sum is the
    same number as one from Fraction(0), float rounding is that of a
    plain loop, and Fraction(0) + total has the type that loop ends with.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if f.c != 1:
        raise ValueError("polynomial averages run on the unit circle")
    depth = max(_dyadic_depth(f), 1)
    cuts = [int(Fraction(v) * (1 << depth)) for v in f.cuts]
    last = len(f.values)
    total = 0
    for i in range(1, n + 1):
        m = p(i)
        if m < 0:
            raise ValueError("polynomial must be nonnegative")
        # the last piece whose scaled left cut is <= the read, as f(x)
        r = x.digits(m, depth)
        total += f.values[bisect_right(cuts, r, 1, last) - 1]
    return (Fraction(0) + total) / n


def _eigen_cuts(f: PiecewiseConstant, mp: PiecewiseAffineMap) -> list:
    """The sorted cuts of the refinement `verify_eigenfunction` reads."""
    cuts = {x for lo, hi, _, _ in mp.branches for x in (lo, hi)}
    cuts.update(f.cuts)
    for lo, hi, s, t in mp.branches:
        if s:  # a constant branch lies on one side of every cut
            cuts.update(x for x in ((y - t) / s for y in f.cuts)
                        if lo < x < hi)
    return sorted(cuts)


def verify_eigenfunction(f: PiecewiseConstant, mp: PiecewiseAffineMap,
                         lam) -> bool:
    """Decide f(T x) = lam * f(x) off a finite set of boundary points.

    Both sides are constant between consecutive cuts of a refinement: the
    map's branch endpoints, f's cuts and, within each branch x -> s x + t
    with s != 0, the points (y - t) / s strictly inside it, y a cut of f.
    On each refined piece both sides are single labels, read at its
    midpoint and compared exactly (or within FLOAT_TOL in float mode).
    """
    if f.c != mp.c:
        raise ValueError("mismatched circumference")
    cuts = _eigen_cuts(f, mp)
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        lhs = f(mp.apply(mid))
        rhs = lam * f(mid)
        if not close(lhs, rhs):
            return False
    return True
