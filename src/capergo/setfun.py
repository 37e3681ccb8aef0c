"""Monotone set functions on finite spaces.

Events on a ground set {0, ..., n-1} are encoded as bitmasks, so a set
function is just a table of 2**n values.  Everything that can stay in
exact rational arithmetic does; tables may also hold floats (for
distortions like sqrt).  The exact/float rule, including the comparison
tolerance for floats, lives in `capergo.numeric`.
"""

from __future__ import annotations

import itertools
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
        table = []
        for a in range(1 << n):
            idx = indices_of(a)
            table.append(max(sum((p[i] for i in idx), Fraction(0))
                             for p in family))
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


def _solve_linear(rows, rhs):
    """Solve a square system by Gaussian elimination.

    Exact if every entry is rational, float otherwise.  Returns None for
    singular systems.
    """
    n = len(rows)
    exact = all(is_exact(x) for row in rows for x in row) and \
        all(is_exact(x) for x in rhs)
    if exact:
        a = [[Fraction(x) for x in row] + [Fraction(rhs[i])]
             for i, row in enumerate(rows)]
        zero_tol = 0
    else:
        a = [[float(x) for x in row] + [float(rhs[i])]
             for i, row in enumerate(rows)]
        zero_tol = 1e-11
    for col in range(n):
        piv = None
        best = zero_tol
        for r in range(col, n):
            if abs(a[r][col]) > best:
                piv, best = r, abs(a[r][col])
                if zero_tol == 0:
                    break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def core_vertices(mu: Capacity, n_limit: int = 6) -> list[list]:
    """Vertices of {P additive prob.: P(A) <= mu(A) for all A}.

    Enumerates candidate active sets of n-1 inequality constraints plus
    the normalisation, solves each exactly, and keeps feasible solutions.
    Exponential in n, so guarded by n_limit.
    """
    n = mu.n
    if n > n_limit:
        raise ValueError("core_vertices limited to n <= %d" % n_limit)
    exact = mu.is_exact()
    tol = 0 if exact else 1e-9
    # constraints as (coeff_mask, bound): sum_{i in mask} p_i <= bound,
    # or nonnegativity rows stored as ("pos", i)
    constraints = []
    full = (1 << n) - 1
    for a in range(1, full):
        if le(1, mu.table[a]):
            continue  # never strictly binding given normalisation
        constraints.append(("ub", a, mu.table[a]))
    for i in range(n):
        constraints.append(("pos", i, 0))

    def row_of(c):
        kind, key, bound = c
        if kind == "ub":
            return [1 if key & (1 << i) else 0 for i in range(n)], bound
        row = [0] * n
        row[key] = 1
        return row, 0

    seen = []
    vertices = []
    norm_row = [1] * n
    for combo in itertools.combinations(constraints, n - 1):
        rows = [norm_row]
        rhs = [1]
        for c in combo:
            r, b = row_of(c)
            rows.append(r)
            rhs.append(b)
        sol = _solve_linear(rows, rhs)
        if sol is None:
            continue
        if any(not le(0, x, tol) for x in sol):
            continue
        feasible = True
        for a in range(1, full):
            s = sum(sol[i] for i in indices_of(a))
            if not le(s, mu.table[a], tol):
                feasible = False
                break
        if not feasible:
            continue
        keyed = [float(x) for x in sol]
        dup = False
        for v in seen:
            if max(abs(x - y) for x, y in zip(keyed, v)) <= max(tol, 1e-10):
                dup = True
                break
        if not dup:
            seen.append(keyed)
            vertices.append(sol)
    return vertices


def core_range(mu: Capacity, event, vertices=None) -> tuple:
    """(min, max) of P(event) over the core, via its vertices."""
    if vertices is None:
        vertices = core_vertices(mu)
    if not vertices:
        raise ValueError("core is empty")
    mask = event if isinstance(event, int) else mask_of(event)
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
                  n_limit: int = 6) -> UpperProbability:
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
