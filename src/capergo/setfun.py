"""Monotone set functions on finite spaces.

Events on a ground set {0, ..., n-1} are encoded as bitmasks, so a set
function is just a table of 2**n values.  Everything that can stay in
exact rational arithmetic does; tables may also hold floats (for
distortions like sqrt).  The exact/float rule, including the comparison
tolerance for floats, lives in `capergo.numeric`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numeric import FLOAT_TOL, close, is_exact, le

Number = object  # Fraction or float; kept loose on purpose


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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
    """A monotone set function with mu(empty)=0 and mu(ground)=1."""

    def __init__(self, n: int, table: Sequence, *, validate: bool = True):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        if len(table) != 1 << n:
            raise ValueError("table must have 2**n entries")
        self.n = n
        self.table = list(table)
        if validate:
            self._validate()

    def _validate(self):
        full = (1 << self.n) - 1
        if not close(self.table[0], 0):
            raise ValueError("capacity of empty set must be 0")
        if not close(self.table[full], 1):
            raise ValueError("capacity of ground set must be 1")
        for a in range(1 << self.n):
            for i in range(self.n):
                if not a & (1 << i):
                    if not le(self.table[a], self.table[a | (1 << i)]):
                        raise ValueError(
                            "capacity not monotone at %r vs %r"
                            % (indices_of(a), indices_of(a | (1 << i)))
                        )

    def __call__(self, event) -> Number:
        if isinstance(event, int):
            return self.table[event]
        return self.table[mask_of(event)]

    def is_exact(self) -> bool:
        return all(is_exact(x) for x in self.table)

    @classmethod
    def additive(cls, weights: Sequence) -> "Capacity":
        """Capacity induced by a probability vector."""
        n = len(weights)
        table = [sum((weights[i] for i in indices_of(a)), Fraction(0))
                 for a in range(1 << n)]
        return cls(n, table)


class UpperProbability(Capacity):
    """Envelope max_{P in family} P(A) of finitely many probability vectors."""

    def __init__(self, family: Sequence[Sequence]):
        if not family:
            raise ValueError("family must be nonempty")
        n = len(family[0])
        for p in family:
            if len(p) != n:
                raise ValueError("family members must share a ground set")
            if not close(sum(p, Fraction(0)), 1):
                raise ValueError("family members must be probability vectors")
            if any(not le(0, x) for x in p):
                raise ValueError("family members must be nonnegative")
        self.family = [list(p) for p in family]
        table = None
        for p in self.family:
            # sums[a] = sums[a ^ top] + p[top] for top the highest bit of
            # a: terms added in ascending index order, as sum() would
            sums = [Fraction(0)]
            for x in p:
                sums += [s + x for s in sums]
            table = sums if table is None else list(map(max, table, sums))
        super().__init__(n, table)


def classify_capacity(mu: Capacity) -> dict:
    """Flags {additive, subadditive, concave} with a witness for each failure.

    Concavity here is submodularity: mu(A|B) + mu(A&B) <= mu(A) + mu(B).
    A witness is a pair of event masks violating the property.
    """
    n = mu.n
    additive = True
    subadditive = True
    concave = True
    witnesses = {}
    for a in range(1 << n):
        for b in range(1 << n):
            if a & b == 0:
                s = mu.table[a] + mu.table[b]
                if additive and not close(mu.table[a | b], s):
                    additive = False
                    witnesses["additive"] = (a, b)
                if subadditive and not le(mu.table[a | b], s):
                    subadditive = False
                    witnesses["subadditive"] = (a, b)
            join, meet = a | b, a & b
            if concave and not le(mu.table[join] + mu.table[meet],
                                   mu.table[a] + mu.table[b]):
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


def _cross_products(vecs: list, n: int) -> dict:
    """{T: y} over the sorted (n-2)-subsets T of the rows `vecs`, where
    det([1; vecs[t] for t in T; v]) == v . y for every vector v.

    Built level by level: the minors of (1, T[0], ..., T[k-1]) on every
    set of k + 1 columns, each expanded along its last row into minors
    of the level below.
    """
    cols = [list(itertools.combinations(range(n), k + 1)) for k in range(n)]
    where = [{c: i for i, c in enumerate(level)} for level in cols]
    minors = {(): [1] * n}  # the ones row on each single column
    for k in range(1, n - 1):
        terms = [[((-1) ** (k + p), J[p], where[k - 1][J[:p] + J[p + 1:]])
                  for p in range(k + 1)] for J in cols[k]]
        minors = {s + (t,): [sum(sign * vecs[t][j] * m[q]
                                 for sign, j, q in expansion)
                             for expansion in terms]
                  for s, m in minors.items()
                  for t in range(s[-1] + 1 if s else 0, len(vecs))}
    drop = [where[n - 2][tuple(c for c in range(n) if c != j)]
            for j in range(n)]
    return {s: [(-1) ** (n - 1 + j) * m[drop[j]] for j in range(n)]
            for s, m in minors.items()}


@functools.cache
def _bases(n: int):
    """Nonsingular candidate bases of the core of a capacity on n points.

    The constraint rows are the proper event masks 1 .. 2**n - 2 in
    ascending order (P(A) <= mu(A)), then the n nonnegativity rows
    (p_i >= 0).  A candidate basis is the normalisation row plus n - 1 of
    these, taken in `itertools.combinations` order; none of this depends
    on mu, so it is built once per n, on first use, in exact integers.
    Returns read-only flat int8 views (rows, adj, det) over the
    nonsingular bases, in candidate order: basis k has row indices
    rows[k*(n-1):(k+1)*(n-1)], and its matrix A satisfies
    A @ adj[k*n*n:(k+1)*n*n] (row-major) == det[k] * I with det[k] > 0.
    """
    from array import array  # only here, so importing capergo stays cheap

    full = (1 << n) - 1
    vecs = [[a >> j & 1 for j in range(n)] for a in range(1, full)] + \
        [[int(i == j) for j in range(n)] for i in range(n)]
    rows, adj, det = array("B"), array("b"), array("b")
    if n == 1:  # the normalisation row alone
        adj.append(1)
        det.append(1)
    else:
        cross = _cross_products(vecs, n)
        for c in itertools.combinations(range(len(vecs)), n - 1):
            # det(A) by Laplace along its last row
            d = sum(map(operator.mul, vecs[c[-1]], cross[c[:-1]]))
            if not d:
                continue
            # cofactors of basis row i >= 1 come from the other rows;
            # moving row i to the end takes n - 1 - i swaps
            cof = [None] + [[(-1) ** (n - 1 - i) * y
                             for y in cross[c[:i - 1] + c[i:]]]
                            for i in range(1, n)]
            # the ones row's, from column 0 of adj @ A == det * I
            cof[0] = [-sum(cof[i][j] * vecs[c[i - 1]][0] for i in range(1, n))
                      for j in range(n)]
            cof[0][0] += d
            s = 1 if d > 0 else -1
            rows.extend(c)
            det.append(s * d)  # array("b") rejects anything outside int8
            adj.extend([s * cof[i][j] for j in range(n) for i in range(n)])
    return tuple(memoryview(a).toreadonly() for a in (rows, adj, det))


def core_vertices(mu: Capacity, n_limit: int = 5) -> list[list]:
    """Vertices of {P additive prob.: P(A) <= mu(A) for all A}.

    A vertex solves the normalisation plus n - 1 binding constraints.  The
    constraint rows are 0/1 masks that do not depend on mu, so the
    nonsingular bases and their integer adjugates are cached once per n
    (`_bases`).  For mu this takes the bases whose rows are all active
    (mu(A) < 1, or a nonnegativity row), solves each as
    x = adj @ rhs / det, and keeps the nonnegative solutions that satisfy
    every constraint, deduplicated first-seen in candidate order.  Exact
    tables stay exact (integers scaled by the lcm of the denominators);
    a table with any float entry is solved in floats with tolerance
    1e-9.  There are C(2**n + n - 2, n - 1) candidate bases, 52,360 at
    n=5 and 10,424,128 at n=6, so n is guarded by n_limit.
    """
    n = mu.n
    if n > n_limit:
        raise ValueError(
            "core_vertices limited to n <= %d: n=%d has %d candidate bases"
            % (n_limit, n, _candidate_count(n)))
    rows, adj, det = _bases(n)
    full = (1 << n) - 1
    table = mu.table
    active = [not le(1, table[a]) for a in range(1, full)] + [True] * n
    exact = mu.is_exact()
    if exact:
        # an exact solution is held as x * d * scale, in integers
        scale = math.lcm(*(Fraction(x).denominator for x in table))
        vals = [int(x * scale) for x in table]
        tol = 0
        caps = {d: [d * u for u in vals[1:full]] for d in set(det)}
    else:
        scale = 1.0
        vals = [float(x) for x in table]
        tol = 1e-9
        caps = dict.fromkeys(set(det), [u + tol for u in vals[1:full]])
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
            if not exact:
                v /= d
            if v + tol < 0:
                break
            x.append(v)
        else:
            # sums[a] = sums[a ^ top] + x[top]: each subset sum adds its
            # terms in ascending index order
            sums = [0]
            for v in x:
                sums += [s + v for s in sums]
            if all(map(operator.le, sums[1:full], caps[d])):
                found.append((x, d * scale if exact else 1.0))
    kept = _first_seen(found, max(tol, 1e-10))
    if exact:
        return [[Fraction(v, den) for v in row] for row, den in kept]
    return [row for row, _ in kept]


def _first_seen(points: list, eps: float) -> list:
    """The (row, den) points whose key row / den is not within eps (max
    norm) of the key of an earlier kept point, in order.  Kept keys are
    bucketed by their first coordinate in buckets of width 2 * eps, so
    only the neighbouring buckets can hold a match."""
    kept = []
    near = {}
    for row, den in points:
        # int / int rounds correctly, as float(Fraction(v, den)) does
        key = [v / den for v in row]
        b = math.floor(key[0] / (2 * eps))
        if any(max(abs(x - y) for x, y in zip(key, k)) <= eps
               for j in (b - 1, b, b + 1) for k in near.get(j, ())):
            continue
        near.setdefault(b, []).append(key)
        kept.append((row, den))
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


def in_core(mu: Capacity, p: Sequence, tol=FLOAT_TOL) -> bool:
    if not close(sum(p, Fraction(0)), 1, tol):
        return False
    for a in range(1, 1 << mu.n):
        if not le(sum(p[i] for i in indices_of(a)), mu.table[a], tol):
            return False
    return True


def product_upper(v1: UpperProbability, v2: UpperProbability,
                  n_limit: int = 5) -> UpperProbability:
    """Product upper probability on the product ground set.

    Built as the upper envelope of {P1 x P2 : Pi a core vertex of Vi};
    point (i, j) of the product space is index i * n2 + j.  The envelope
    over vertex pairs equals the envelope over all core pairs because
    each P1 x P2 evaluation is bilinear in (P1, P2).
    """
    vs1 = core_vertices(v1, n_limit)
    vs2 = core_vertices(v2, n_limit)
    n2 = v2.n
    family = []
    for p1 in vs1:
        for p2 in vs2:
            family.append([p1[i] * p2[j]
                           for i in range(v1.n) for j in range(n2)])
    return UpperProbability(family)
