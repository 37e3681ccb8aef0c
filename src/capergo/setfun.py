"""Monotone set functions on finite spaces.

Events on a ground set {0, ..., n-1} are encoded as bitmasks, so a set
function is just a table of 2**n values.  Everything that can stay in
exact rational arithmetic does; tables may also hold floats (for
distortions like sqrt).

How a table is compared is decided once, by `numeric.decide_arithmetic`
when the `Capacity` is built, and the capacity keeps that decision:
`Capacity.arithmetic` hands it to every check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numeric import close, decide_arithmetic

Number = object  # Fraction or float; kept loose on purpose

# core_vertices solves C(2**n + n - 2, n - 1) candidate bases: 52,360 at
# n=5 and 10,424,128 at n=6
CORE_N_LIMIT = 5


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subset_sums(p: Sequence, zero) -> list:
    """[zero + sum of p[i] over i in A, for every mask A].

    sums[a] = sums[a ^ top] + p[top] for top the highest bit of a, so each
    sum adds its terms in ascending index order, as sum() would.
    """
    sums = [zero]
    for x in p:
        sums += [s + x for s in sums]
    return sums


def indices_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class Capacity:
    """A monotone set function with mu(empty)=0 and mu(ground)=1.

    `table` holds the values by mask, of the types given, and
    `arithmetic()` the tuple `numeric.decide_arithmetic` gives for them.
    """

    def __init__(self, n: int, table: Sequence):
        self.table = table = list(table)
        (vals,), one, eq, le_ = decide_arithmetic([table])
        self._set(n, (vals, one, eq, le_))
        self._validate()

    def _set(self, n, arithmetic):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if len(arithmetic[0]) != 1 << n:
            raise ValueError("table must have 2**n entries")
        self.n = n
        self._arithmetic = arithmetic

    @functools.cached_property
    def table(self) -> list:
        """The values by mask, as given to `Capacity()`; only an exact
        envelope builds its own, as Fractions, on first read."""
        vals, one, _, _ = self._arithmetic
        return [Fraction(v, one) for v in vals]

    def arithmetic(self) -> tuple:
        """(values, one, eq, le): the table as its checks compare it,
        as `numeric.decide_arithmetic` decided it."""
        return self._arithmetic

    def _validate(self):
        vals, one, eq, le_ = self._arithmetic
        full = (1 << self.n) - 1
        if not eq(vals[0], 0):
            raise ValueError("capacity of empty set must be 0")
        if not eq(vals[full], one):
            raise ValueError("capacity of ground set must be 1")
        for a in range(1 << self.n):
            for i in range(self.n):
                if not a & (1 << i):
                    if not le_(vals[a], vals[a | (1 << i)]):
                        raise ValueError(
                            "capacity not monotone at %r vs %r"
                            % (indices_of(a), indices_of(a | (1 << i)))
                        )

    def is_exact(self) -> bool:
        return self._arithmetic[2] is operator.eq

    @classmethod
    def additive(cls, weights: Sequence) -> "Capacity":
        """Capacity induced by a probability vector."""
        return cls(len(weights), subset_sums(weights, Fraction(0)))


class UpperProbability(Capacity):
    """Envelope max_{P in family} P(A) of finitely many probability vectors."""

    def __init__(self, family: Sequence[Sequence]):
        if not family:
            raise ValueError("family must be nonempty")
        n = len(family[0])
        # an all-exact family is validated and summed in integers over its
        # common denominator, which skips a gcd on every Fraction operation
        rows, one, eq, le_ = decide_arithmetic(family)
        for p in rows:
            if len(p) != n:
                raise ValueError("family members must share a ground set")
            if not eq(sum(p), one):
                raise ValueError("family members must be probability vectors")
            if any(not le_(0, x) for x in p):
                raise ValueError("family members must be nonnegative")
        self.family = [list(p) for p in family]
        # a family with a float entry sums from Fraction(0), as a Fraction
        # DP would, so the exact entries of its table are Fractions
        zero = 0 if eq is operator.eq else Fraction(0)
        table = None
        for p in rows:
            sums = subset_sums(p, zero)
            table = sums if table is None else list(map(max, table, sums))
        if eq is operator.eq:
            # exact nonnegative members summing to one: the table is
            # monotone and normalised as built
            self._set(n, (table, one, eq, le_))
        else:
            # decided and validated as any other table: float members
            # that never set the max leave an exact one
            Capacity.__init__(self, n, table)


def classify_capacity(mu: Capacity) -> dict:
    """Flags {additive, subadditive, concave} with a witness for each failure.

    Concavity here is submodularity: mu(A|B) + mu(A&B) <= mu(A) + mu(B).
    A witness is a pair of event masks violating the property: the first
    in row-major order over all 4**n pairs.  Every law is symmetric in
    (A, B) and holds on (A, A), so only the pairs A < B are scanned.
    """
    n = mu.n
    t, _, eq, le_ = mu.arithmetic()
    additive = True
    subadditive = True
    concave = True
    witnesses = {}
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if a & b == 0:
                s = t[a] + t[b]
                if additive and not eq(t[a | b], s):
                    additive = False
                    witnesses["additive"] = (a, b)
                if subadditive and not le_(t[a | b], s):
                    subadditive = False
                    witnesses["subadditive"] = (a, b)
            join, meet = a | b, a & b
            if concave and not le_(t[join] + t[meet], t[a] + t[b]):
                concave = False
                witnesses["concave"] = (a, b)
    return {"additive": additive, "subadditive": subadditive,
            "concave": concave, "witnesses": witnesses}


def choquet_integral(mu: Capacity, f: Sequence) -> Number:
    """Choquet integral of the vector f against mu.

    Computed by the layer formula: with distinct values v_1 < ... < v_k,
        integral = v_1 + sum_j (v_j - v_{j-1}) * mu({f >= v_j}),
    which agrees with the two-tail improper-integral definition and is
    exact for rational inputs.
    """
    if len(f) != mu.n:
        raise ValueError("f must be defined on the ground set")
    values = sorted(set(f))
    total = values[0]
    prev = values[0]
    for v in values[1:]:
        level = mask_of(i for i in range(mu.n) if f[i] >= v)
        total = total + (v - prev) * mu.table[level]
        prev = v
    return total


def distort(p: Sequence, g: Callable) -> Capacity:
    """Capacity A -> g(P(A)) for a probability vector p and distortion g.

    g must be nondecreasing with g(0)=0 and g(1)=1; checked on the
    attained values of P.
    """
    base = Capacity.additive(p)
    if not close(g(base.table[0]), 0) or not close(g(base.table[-1]), 1):
        raise ValueError("distortion must fix 0 and 1")
    table = [g(x) for x in base.table]
    return Capacity(base.n, table)


# ---------------------------------------------------------------------------
# core computations


def _candidate_count(n: int) -> int:
    """C(2**n - 2 + n, n - 1): the (n-1)-subsets of the constraint rows."""
    return math.comb((1 << n) - 2 + n, n - 1)


@functools.cache
def _bases(n: int):
    """Nonsingular candidate bases of the core of a capacity on n points.

    The constraint rows are the proper event masks 1 .. 2**n - 2 in
    ascending order (P(A) <= mu(A)), then the n nonnegativity rows
    (p_i >= 0).  A candidate basis is the normalisation row plus n - 1 of
    these, taken in `itertools.combinations` order; none of this depends
    on mu, so it is built once per n, on first use.
    Returns read-only flat int8 views (rows, adj, det) over the
    nonsingular bases, in candidate order: basis k has row indices
    rows[k*(n-1):(k+1)*(n-1)], and its matrix A satisfies
    A @ adj[k*n*n:(k+1)*n*n] (row-major) == det[k] * I with det[k] > 0.
    Each A is a 0/1 matrix of size n <= 5, so its determinant and
    cofactors are integers of magnitude at most 5 and LU's rounding error
    is far below 1/2: rounding recovers them exactly, and the identity
    A @ adj == det * I is checked in integers for every kept basis.
    """
    from array import array  # only here, so importing capergo stays cheap

    import numpy as np

    masks = list(range(1, (1 << n) - 1)) + [1 << i for i in range(n)]
    vecs = np.array([[m >> j & 1 for j in range(n)] for m in masks], np.int64)
    eye = np.eye(n, dtype=np.int64)
    rows, adj, det = array("B"), array("b"), array("b")
    combos = itertools.combinations(range(len(vecs)), n - 1)
    while batch := list(itertools.islice(combos, 512)):
        c = np.array(batch, dtype=np.intp).reshape(len(batch), n - 1)
        a = np.concatenate([np.ones((len(c), 1, n), np.int64), vecs[c]], 1)
        d = np.abs(np.rint(np.linalg.det(a)).astype(np.int64))
        keep = d != 0
        a, c, d = a[keep], c[keep], d[keep, None, None]
        # inv(A) * |det| is the adjugate scaled by the sign of det, so
        # A @ adj == |det| * I with a positive determinant
        b = np.rint(np.linalg.inv(a) * d).astype(np.int64)
        if not (a @ b == d * eye).all():
            raise ArithmeticError("rounded adjugate fails A @ adj == det * I")
        rows.extend(c.ravel().tolist())
        # array("b") rejects anything outside int8
        det.extend(d.ravel().tolist())
        adj.extend(b.ravel().tolist())
    return tuple(memoryview(a).toreadonly() for a in (rows, adj, det))


def core_vertices(mu: Capacity) -> list[list]:
    """Vertices of {P additive prob.: P(A) <= mu(A) for all A}.

    A vertex solves the normalisation plus n - 1 binding constraints.  The
    constraint rows are 0/1 masks that do not depend on mu, so the
    nonsingular bases and their integer adjugates are cached once per n
    (`_bases`).  For mu this takes the bases whose rows are all active
    (mu(A) < 1, or a nonnegativity row), solves each as
    x = adj @ rhs / det, and keeps the nonnegative solutions that satisfy
    every constraint, deduplicated first-seen in candidate order.  Each
    is tested as x * det * scale.  Exact tables stay exact (integers
    scaled by the lcm of the denominators) and equal solutions are merged
    exactly; a table with any float entry is solved in floats, tested and
    merged with tolerance 1e-9, dividing by det only the kept solutions.
    n is guarded by CORE_N_LIMIT.
    """
    n = mu.n
    if n > CORE_N_LIMIT:
        raise ValueError(
            "core_vertices limited to n <= %d: n=%d has %d candidate bases"
            % (CORE_N_LIMIT, n, _candidate_count(n)))
    rows, adj, det = _bases(n)
    full = (1 << n) - 1
    vals, scale, _, le_ = mu.arithmetic()
    active = [not le_(scale, vals[a]) for a in range(1, full)] + [True] * n
    exact = mu.is_exact()
    vals = vals if exact else [float(x) for x in vals]
    tol = 0 if exact else 1e-9
    # a solution x is held as x * d * scale: in integers when exact
    caps = {d: [d * (u + tol) for u in vals[1:full]] for d in set(det)}
    bounds = vals[1:full] + [0] * n  # right-hand side of each row
    m, nn = n - 1, n * n
    found = []
    for k, d in enumerate(det):
        r = rows[k * m:k * m + m]
        if not all([active[i] for i in r]):
            continue
        rhs = [scale] + [bounds[i] for i in r]
        a = adj[k * nn:k * nn + nn]
        x = []
        for i in range(0, nn, n):
            v = sum(map(operator.mul, a[i:i + n], rhs))
            if v + d * tol < 0:
                break
            x.append(v)
        else:
            sums = subset_sums(x, 0)
            if all(map(operator.le, sums[1:full], caps[d])):
                found.append((x, d))
    if not exact:
        return _first_seen([[v / d for v in x] for x, d in found], tol)
    # x is the vertex times d * scale; over the common denominator
    # lcm(det) * scale, equal vertices have equal integer rows
    lcm = math.lcm(*caps)
    rows = dict.fromkeys(tuple(v * (lcm // d) for v in x) for x, d in found)
    return [[Fraction(v, lcm * scale) for v in row] for row in rows]


def _first_seen(rows: list, eps: float) -> list:
    """The float rows not within eps (max norm) of an earlier kept row, in
    order.  Kept rows are bucketed by their first coordinate in buckets of
    width 2 * eps, so only the neighbouring buckets can hold a match."""
    kept = []
    near = {}
    for row in rows:
        b = math.floor(row[0] / (2 * eps))
        if any(max(abs(x - y) for x, y in zip(row, k)) <= eps
               for j in (b - 1, b, b + 1) for k in near.get(j, ())):
            continue
        near.setdefault(b, []).append(row)
        kept.append(row)
    return kept


def core_range(mu: Capacity, event, vertices=None) -> tuple:
    """(min, max) of P(event) over the core.

    Via the given vertices if any.  Otherwise, for an upper envelope V in
    closed form: the family lies in the core and attains V, so the max is
    V(B) and the min is 1 - V(complement of B); for any other capacity,
    via core_vertices.
    """
    mask = event if isinstance(event, int) else mask_of(event)
    if vertices is None and isinstance(mu, UpperProbability):
        return 1 - mu.table[((1 << mu.n) - 1) ^ mask], mu.table[mask]
    if vertices is None:
        vertices = core_vertices(mu)
    if not vertices:
        raise ValueError("core is empty")
    idx = indices_of(mask)
    vals = [sum((v[i] for i in idx), Fraction(0)) for v in vertices]
    return min(vals), max(vals)


def product_upper(v1: UpperProbability,
                  v2: UpperProbability) -> UpperProbability:
    """Product upper probability on the product ground set.

    Built as the upper envelope of {P1 x P2 : Pi a core vertex of Vi};
    point (i, j) of the product space is index i * n2 + j.  The envelope
    over vertex pairs equals the envelope over all core pairs because
    each P1 x P2 evaluation is bilinear in (P1, P2).
    """
    vs1 = core_vertices(v1)
    vs2 = vs1 if v2 is v1 else core_vertices(v2)
    n2 = v2.n
    family = []
    for p1 in vs1:
        for p2 in vs2:
            family.append([p1[i] * p2[j]
                           for i in range(v1.n) for j in range(n2)])
    return UpperProbability(family)
