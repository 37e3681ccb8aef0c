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

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .numeric import close, decide_arithmetic

Number = object  # Fraction or float; kept loose on purpose

# core_vertices reads its bases off `_bases(n)`, whose C(2**n + n - 2, n - 1)
# candidates are 52,360 at n=5 and 10,424,128 at n=6, on both routes: a
# table that is submodular, tested exactly and never within a tolerance,
# solves one basis per distinct marginal vector (its first tight one in
# candidate order, which orders the vertices), and every other table
# enumerates them all.  n=6 and 7 stay out for this greedy route too,
# where no enumeration could check it.
CORE_N_LIMIT = 5
# a float table's solutions are tested and merged within this tolerance
_CORE_TOL = 1e-9


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
    A witness is a pair of event masks violating the property: for the
    disjoint laws the first disjoint pair A < B in row-major order (B runs
    over the submasks of A's complement: 3**n steps), for concavity the
    first failing local pair (`_local_witness`), each compared on its own:
    a float table whose local slacks each lie within FLOAT_TOL is concave.
    """
    n = mu.n
    t, _, eq, le_ = mu.arithmetic()
    full = (1 << n) - 1
    witnesses = {}
    for a in range(full + 1):
        rest, b = full ^ a, 0
        while b := (b - rest) & rest:
            if b > a:
                s = t[a] + t[b]
                if "additive" not in witnesses and not eq(t[a | b], s):
                    witnesses["additive"] = (a, b)
                if "subadditive" not in witnesses and not le_(t[a | b], s):
                    witnesses["subadditive"] = (a, b)
    if (local := _local_witness(t, n, le_)) is not None:
        witnesses["concave"] = local
    return {law: law not in witnesses for law in
            ("additive", "subadditive", "concave")} | {"witnesses": witnesses}


def _local_witness(t: list, n: int, le_) -> tuple | None:
    """The first local pair (S+i, S+j), S ascending and i < j outside S,
    at which t[S+i+j] + t[S] <= t[S+i] + t[S+j] fails under le_, or None:
    compared exactly, they decide the law on all pairs (Schrijver 2003)."""
    for s, ts in enumerate(t):
        up = [s | 1 << i for i in range(n) if not s >> i & 1]
        for j, a in enumerate(up):
            for b in up[j + 1:]:
                if not le_(t[a | b] + ts, t[a] + t[b]):
                    return a, b
    return None


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
    (`_bases`).  The bases solved come from one of two routes:

    - greedy (`_greedy_bases`), when the table t the solves read (1 on the
      ground set and on every row with mu(A) = 1) is submodular on the
      local pairs (`_local_witness`), compared exactly: integer numerators
      for an exact table, Fraction(x) for a float one, never within a
      tolerance.
      The core is then the base polytope, whose vertices are the n!
      marginal vectors (Edmonds 1970, Shapley 1971); each distinct one is
      solved at its first basis, in candidate order, of rows tight at it.
    - enumeration, otherwise or when a greedy basis fails its solve: every
      basis whose rows are all active (mu(A) < 1, or a nonnegativity row).

    Each basis is solved as x = adj @ rhs / det and kept when x is
    nonnegative and satisfies every constraint (`_basic_solutions`), and
    the kept solutions are deduplicated first-seen in candidate order
    (`_merged`).  So a vertex is listed at the first basis that yields it
    on either route, and both routes give the same list.  Exact tables
    stay exact; a table with any float entry is solved in floats, tested
    and merged within _CORE_TOL.  n is guarded by CORE_N_LIMIT.
    """
    n = mu.n
    if n > CORE_N_LIMIT:
        raise ValueError(
            "core_vertices limited to n <= %d: n=%d has %d candidate bases"
            % (CORE_N_LIMIT, n, _candidate_count(n)))
    ks = _greedy_bases(mu)
    found = ks and _basic_solutions(mu, ks)
    if not found or len(found) < len(ks):
        found = _basic_solutions(mu, range(len(_bases(n)[2])))
    return _merged(mu, found)


def _constraints(mu: Capacity) -> tuple:
    """(vals, scale, tol, active): the table as the basis solves read it,
    in integers over scale with tol 0 when exact, else as floats with
    scale 1 and tol _CORE_TOL.  active[r] says whether row r may enter a
    basis: the event rows 1 .. 2**n - 2 with mu(A) < 1, then the n
    nonnegativity rows."""
    vals, scale, _, le_ = mu.arithmetic()
    full = (1 << mu.n) - 1
    active = [not le_(scale, vals[a]) for a in range(1, full)] + [True] * mu.n
    if mu.is_exact():
        return vals, scale, 0, active
    return [float(x) for x in vals], scale, _CORE_TOL, active


def _greedy_bases(mu: Capacity):
    """The ascending positions in `_bases(n)` of the greedy route's bases,
    or None when the gate fails or a marginal vector has no basis.

    A marginal vector x's basis is the first (n-1)-combination, in
    candidate order, of its tight rows (active rows with |x(A) - mu(A)| <=
    tol, nonnegativity rows with x_i <= tol) that is a nonsingular basis,
    found by bisection over `_bases(n)`'s rows, which are in that order.
    """
    n = mu.n
    full = (1 << n) - 1
    vals, scale, tol, active = _constraints(mu)
    t = [0] + [u if a else scale for u, a in zip(vals[1:full], active)]
    t.append(scale)
    exact_t = t if mu.is_exact() else \
        decide_arithmetic([list(map(Fraction, t))])[0][0]
    # every row with mu(A) = 1 reads scale = t[N], so t[N-i] <= t[N], and a
    # submodular t is then monotone: t(S+i) - t(S) >= t(N) - t(N-i) >= 0
    if _local_witness(exact_t, n, operator.le) is not None:
        return None
    rows, _, det = _bases(n)
    m = n - 1
    positions = range(len(det))

    def basis(k):
        return rows[k * m:k * m + m].tolist()

    def first_basis(tight):  # None when no combination is a basis
        for c in map(list, itertools.combinations(tight, m)):
            k = bisect.bisect_left(positions, c, key=basis)
            if k < len(det) and basis(k) == c:
                return k

    ks = set()
    for x in dict.fromkeys(_marginal_vectors(t, n)):
        sums = subset_sums(x, 0)
        tight = [r for r in range(full - 1)
                 if active[r] and abs(sums[r + 1] - vals[r + 1]) <= tol]
        tight += [full - 1 + i for i in range(n) if x[i] <= tol]
        ks.add(first_basis(tight))
    return None if None in ks else sorted(ks)


def _marginal_vectors(t: list, n: int):
    """x with x[i] = t[S | i] - t[S], S the points before i, for each
    ordering of the points, as tuples."""
    for order in itertools.permutations(range(n)):
        x = [0] * n
        s = 0
        for i in order:
            x[i] = t[s | 1 << i] - t[s]
            s |= 1 << i
        yield tuple(x)


def _basic_solutions(mu: Capacity, ks) -> list:
    """[(x, d)] for the bases at positions ks, in order, whose rows are all
    active and whose solution passes every constraint.

    Basis k is solved as x = adj @ rhs, the solution times d * scale (in
    integers when exact), with d = det[k].  It passes when x + d * tol >= 0
    and, for every proper event A, x(A) <= d * (mu(A) + tol).
    """
    n = mu.n
    rows, adj, det = _bases(n)
    full = (1 << n) - 1
    vals, scale, tol, active = _constraints(mu)
    caps = functools.cache(lambda d: [d * (u + tol) for u in vals[1:full]])
    bounds = vals[1:full] + [0] * n  # right-hand side of each row
    m, nn = n - 1, n * n
    found = []
    for k in ks:
        r = rows[k * m:k * m + m]
        if all([active[i] for i in r]):
            d = det[k]
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
                if all(map(operator.le, sums[1:full], caps(d))):
                    found.append((x, d))
    return found


def _merged(mu: Capacity, found: list) -> list[list]:
    """The vertices of the (x, d) solutions, first-seen: exactly for an
    exact table, within _CORE_TOL (max norm) for a float one."""
    if not mu.is_exact():
        return _first_seen([[v / d for v in x] for x, d in found],
                           _CORE_TOL)
    # x is the vertex times d * scale; over the common denominator
    # lcm(d) * scale, equal vertices have equal integer rows
    scale = mu.arithmetic()[1]
    lcm = math.lcm(*{d for _, d in found})
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
