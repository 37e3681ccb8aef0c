import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capergo import setfun
from capergo.numeric import is_exact, le
from capergo.setfun import (Capacity, UpperProbability, choquet_integral,
                            classify_capacity, core_range, core_vertices,
                            distort, indices_of, mask_of, product_upper,
                            subset_sums)

F = Fraction


def riemann_oracle(mu, f, levels=10 ** 4):
    """Grid evaluation of the layer integral for f with values in [0, 1].

    Exact whenever the values of f sit on the level lattice, because the
    level function is constant between consecutive lattice points.
    """
    assert all(0 <= v <= 1 for v in f)
    step = F(1, levels)
    total = F(0)
    for j in range(1, levels + 1):
        t = j * step
        mask = mask_of(i for i in range(mu.n) if f[i] >= t)
        total += mu.table[mask] * step
    return total


def random_capacity(rng, n):
    """Random monotone normalized table with rational values."""
    raw = [F(rng.randint(1, 200), 200) for _ in range(1 << n)]
    table = [F(0)] * (1 << n)
    for a in range(1, 1 << n):
        best = raw[a]
        for i in range(n):
            if a & (1 << i):
                best = max(best, table[a ^ (1 << i)])
        table[a] = best
    full = (1 << n) - 1
    return Capacity(n, [x / table[full] for x in table])


def random_prob(rng, n, denom=24):
    cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
    parts = [a - b for a, b in zip(cuts + [denom], [0] + cuts)]
    return [F(p, denom) for p in parts]


def concave_distortion(rng):
    """Piecewise-linear concave g with g(0)=0, g(1)=1 (min of lines)."""
    c = F(rng.randint(1, 5))
    # g(x) = min(c*x, (x + c - 1)/c)? keep simple: min(c*x, 1) is concave
    return lambda x: min(c * x, F(1))


# --- examples ---------------------------------------------------------------


def test_choquet_uniform_two_points():
    mu = Capacity.additive([F(1, 2), F(1, 2)])
    assert choquet_integral(mu, [0, 1]) == F(1, 2)


@pytest.mark.parametrize("f", [[1], [0, 1, 2]], ids=["short", "long"])
def test_choquet_rejects_f_off_the_ground_set(f):
    mu = Capacity.additive([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError,
                       match="^f must be defined on the ground set$"):
        choquet_integral(mu, f)


def test_choquet_constant_is_translation():
    rng = random.Random(3)
    for _ in range(20):
        mu = random_capacity(rng, 3)
        c = F(rng.randint(-5, 5), 3)
        assert choquet_integral(mu, [c] * 3) == c


def test_choquet_sqrt_distortion_matches_riemann_grid():
    mu = distort([F(1, 2), F(1, 2)], math.sqrt)
    val = choquet_integral(mu, [1, 0])
    assert abs(val - math.sqrt(0.5)) <= 1e-12
    # float-table grid oracle at 1e4 levels
    step = 1e-4
    grid = sum(float(mu.table[mask_of(i for i in (0, 1) if [1, 0][i] >= j * step)])
               for j in range(1, 10 ** 4 + 1)) * step
    assert abs(val - grid) <= 1e-12


def test_classify_probability_all_true():
    mu = Capacity.additive([F(1, 4), F(1, 4), F(1, 2)])
    flags = classify_capacity(mu)
    assert flags["additive"] and flags["subadditive"] and flags["concave"]


def test_classify_max_of_diracs():
    v = UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    flags = classify_capacity(v)
    assert not flags["additive"]
    assert flags["subadditive"]
    assert flags["witnesses"]["additive"] == (1, 2)


def _first_witness(t, n, fails, disjoint):
    """The first pair (a, b) in row-major order over all 4**n mask pairs,
    disjoint ones only if asked, on which fails(t, a, b) holds."""
    return next(((a, b) for a in range(1 << n) for b in range(1 << n)
                 if not (disjoint and a & b) and fails(t, a, b)), None)


def _classify_matches_ordered_scan(mu):
    """Assert classify_capacity's flags and witnesses against the ordered
    4**n scan, which compares with the table's own eq and le; return the
    laws that fail."""
    vals, _, eq, le_ = mu.arithmetic()
    laws = {
        "additive": (lambda t, a, b: not eq(t[a | b], t[a] + t[b]), True),
        "subadditive": (lambda t, a, b: not le_(t[a | b], t[a] + t[b]),
                        True),
        "concave": (lambda t, a, b: not le_(t[a | b] + t[a & b],
                                            t[a] + t[b]), False),
    }
    flags = classify_capacity(mu)
    failed = set()
    for law, (fails, disjoint) in laws.items():
        witness = _first_witness(vals, mu.n, fails, disjoint)
        assert flags[law] == (witness is None)
        assert flags["witnesses"].get(law) == witness
        if witness:
            failed.add(law)
    return failed


def test_classify_failure_flags_match_a_brute_force_scan():
    cases = [
        UpperProbability([[F(1), F(0)], [F(0), F(1)]]),
        # P**2 is superadditive: V({0, 1}) = 1 > V({0}) + V({1}) = 1/2
        distort([F(1, 2), F(1, 2)], lambda x: x * x),
        # subadditive, but V({0,1,2}) + V({1}) > V({0,1}) + V({1,2})
        Capacity(3, [0, F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1, F(1, 2), 1]),
    ]
    failed = set()
    for mu in cases:
        failed |= _classify_matches_ordered_scan(mu)
    assert failed == {"additive", "subadditive", "concave"}


@st.composite
def classify_tables(draw):
    """(constructor, arguments) of a capacity on 1-4 points: an exact or
    float envelope, an additive table, a sqrt distortion, or the running
    max of random levels over subsets, exact or float.  Small integer
    levels make ties, on which the exact and tolerant comparisons of
    each law are decided."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["envelope", "additive", "sqrt", "levels"]))
    exact = draw(st.booleans())
    weights = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)

    def prob(w):
        return [F(x, sum(w)) if exact else x / sum(w) for x in w]

    if kind == "envelope":
        return UpperProbability, (
            [prob(w) for w in draw(st.lists(weights, min_size=1,
                                            max_size=3))],)
    if kind == "additive":
        return Capacity.additive, (prob(draw(weights)),)
    if kind == "sqrt":
        return distort, (prob(draw(weights)), math.sqrt)
    full = (1 << n) - 1
    top = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, top), min_size=full - 1,
                        max_size=full - 1))
    levels = [0] + raw + [top]
    for a in range(1, full):  # masks below a come first
        for i in range(n):
            if a >> i & 1:
                levels[a] = max(levels[a], levels[a ^ 1 << i])
    return Capacity, (n, [F(x, top) if exact else x / top for x in levels])


@settings(max_examples=300, deadline=None)
@given(classify_tables())
def test_classify_matches_the_ordered_scan_on_random_tables(spec):
    build, args = spec
    _classify_matches_ordered_scan(build(*args))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_visits_each_unordered_pair_once(monkeypatch, n):
    """On an additive table no law fails, so concavity is compared on
    every pair a < b, and both disjoint laws on every disjoint one."""
    mu = Capacity.additive([F(1, n)] * n)
    vals, one, eq, le_ = mu.arithmetic()
    counts = {"eq": 0, "le": 0}

    def counting(name, compare):
        def wrapped(x, y):
            counts[name] += 1
            return compare(x, y)
        return wrapped

    monkeypatch.setattr(mu, "arithmetic", lambda: (
        vals, one, counting("eq", eq), counting("le", le_)))
    flags = classify_capacity(mu)
    assert flags["additive"] and flags["subadditive"] and flags["concave"]
    pairs = (1 << n) * ((1 << n) - 1) // 2
    disjoint = (3 ** n - 1) // 2
    assert counts == {"eq": disjoint, "le": pairs + disjoint}


@pytest.mark.parametrize("n, table, message", [
    (0, [0], "ground set must be nonempty"),
    (2, [0, 1], "table must have 2**n entries"),
    (1, [F(1, 2), 1], "capacity of empty set must be 0"),
    (1, [0, 0.5], "capacity of ground set must be 1"),
], ids=["n0", "short-table", "empty-set", "ground-set"])
def test_capacity_rejects_table_with_pinned_message(n, table, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        Capacity(n, table)


def test_monotonicity_violation_rejected():
    table = [F(0)] * 8
    table[7] = F(1)
    table[1] = F(9, 10)  # {0}
    table[3] = F(1, 10)  # {0,1} smaller than its subset
    table[5] = table[6] = F(9, 10)
    with pytest.raises(ValueError):
        Capacity(3, table)


@pytest.mark.parametrize("table", [
    [0, F(1, 3), F(1, 2), 1],  # exact: ints stay ints
    [0.0, 0.25, 0.5, 1.0],
    [0, 0.25, F(1, 2), 1],  # mixed
])
def test_capacity_table_keeps_given_values_and_types(table):
    mu = Capacity(2, table)
    assert mu.table == table
    assert [type(x) for x in mu.table] == [type(x) for x in table]


def test_distort_must_fix_endpoints():
    with pytest.raises(ValueError):
        distort([F(1, 2), F(1, 2)], lambda x: x / 2)


# --- Choquet properties -----------------------------------------------------


def test_choquet_positive_homogeneity_and_translation():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        mu = random_capacity(rng, n)
        f = [F(rng.randint(-10, 10), 4) for _ in range(n)]
        a = F(rng.randint(0, 6), 2)
        c = F(rng.randint(-8, 8), 3)
        base = choquet_integral(mu, f)
        assert choquet_integral(mu, [a * x for x in f]) == a * base
        assert choquet_integral(mu, [x + c for x in f]) == base + c


def test_choquet_monotone_in_f():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 4)
        mu = random_capacity(rng, n)
        f = [F(rng.randint(-10, 10), 4) for _ in range(n)]
        g = [x + F(rng.randint(0, 6), 5) for x in f]
        assert choquet_integral(mu, f) <= choquet_integral(mu, g)


def test_choquet_riemann_agreement_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 5)
        mu = random_capacity(rng, n)
        f = [F(rng.randint(0, 10 ** 4), 10 ** 4) for _ in range(n)]
        assert choquet_integral(mu, f) == riemann_oracle(mu, f)


def test_dominated_convergence_eventually_constant():
    rng = random.Random(14)
    mu = random_capacity(rng, 3)
    f = [F(1), F(2), F(0)]
    seq = [[x + F(1, k) for x in f] for k in range(1, 6)] + [f] * 3
    vals = [choquet_integral(mu, fk) for fk in seq]
    assert vals[-1] == vals[-2] == choquet_integral(mu, f)


# --- cores ------------------------------------------------------------------


def test_core_of_additive_is_single_point():
    p = [F(1, 6), F(1, 3), F(1, 2)]
    verts = core_vertices(Capacity.additive(p))
    assert verts == [p]


def test_core_of_dirac_envelope_is_simplex():
    v = UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    verts = sorted(core_vertices(v))
    assert verts == [[F(0), F(1)], [F(1), F(0)]]


def test_core_can_be_empty():
    mu = Capacity(2, [F(0), F(3, 10), F(3, 10), F(1)])
    assert core_vertices(mu) == []
    with pytest.raises(ValueError, match="^core is empty$"):
        core_range(mu, 0b01)


def test_core_keeps_exact_vertices_closer_than_any_float_tolerance():
    a = F(500000000001, 10 ** 12)
    v = UpperProbability([[a, 1 - a], [F(1, 2), F(1, 2)]])
    verts = core_vertices(v)
    assert verts == [[a, 1 - a], [F(1, 2), F(1, 2)]]
    # a plain capacity with the same table reads the range off the vertices
    assert core_range(Capacity(2, v.table), 0b10) == (1 - a, F(1, 2))


def test_float_member_that_never_sets_the_max_leaves_envelope_exact():
    a = F(500000000001, 10 ** 12)
    v = UpperProbability([[a, 1 - a], [F(1, 2), F(1, 2)], [0.5, 0.5]])
    assert v.is_exact()
    assert all(type(x) is F for x in v.table)
    assert core_vertices(v) == [[a, 1 - a], [F(1, 2), F(1, 2)]]


def test_sqrt_distortion_core_vertices():
    mu = distort([F(1, 2), F(1, 2)], math.sqrt)
    verts = sorted((float(a), float(b)) for a, b in core_vertices(mu))
    s = math.sqrt(0.5)
    assert len(verts) == 2
    assert abs(verts[0][0] - (1 - s)) <= 1e-12
    assert abs(verts[0][1] - s) <= 1e-12


def test_family_members_lie_in_core_and_envelope_is_tight():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(2, 4)
        fam = [random_prob(rng, n) for _ in range(rng.randint(1, 3))]
        v = UpperProbability(fam)
        for p in fam:
            # P lies in the core: P(A) <= V(A) on every event
            assert all(map(le, subset_sums(p, 0), v.table))
        verts = core_vertices(v)
        for a in range(1, 1 << n):
            lo, hi = core_range(v, a, verts)
            assert hi == v.table[a]  # the max over the core attains V


def test_concave_choquet_is_max_over_core():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(2, 4)
        p = random_prob(rng, n)
        g = concave_distortion(rng)
        mu = distort(p, g)
        assert classify_capacity(mu)["concave"]
        verts = core_vertices(mu)
        f = [F(rng.randint(0, 12), 3) for _ in range(n)]
        best = max(sum(vi * fi for vi, fi in zip(vert, f))
                   for vert in verts)
        assert choquet_integral(mu, f) == best


def test_core_range_bounds():
    rng = random.Random(17)
    v = UpperProbability([random_prob(rng, 3) for _ in range(3)])
    verts = core_vertices(v)
    for a in range(1, 7):
        lo, hi = core_range(v, a, verts)
        assert lo <= hi <= v.table[a]


# --- products ---------------------------------------------------------------


def test_product_rectangle_law():
    rng = random.Random(18)
    for _ in range(8):
        v1 = UpperProbability([random_prob(rng, 2)
                               for _ in range(rng.randint(1, 2))])
        v2 = UpperProbability([random_prob(rng, 3)
                               for _ in range(rng.randint(1, 2))])
        prod = product_upper(v1, v2)
        for a in range(1, 4):
            for b in range(1, 8):
                rect = 0
                for i in range(2):
                    for j in range(3):
                        if a & (1 << i) and b & (1 << j):
                            rect |= 1 << (i * 3 + j)
                assert prod.table[rect] == v1.table[a] * v2.table[b]


def test_product_diagonal_of_dirac_envelope():
    v = UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    prod = product_upper(v, v)
    diag = (1 << 0) | (1 << 3)  # pairs (0,0) and (1,1)
    assert prod.table[diag] == F(1)


def test_product_symmetric_under_swap():
    rng = random.Random(19)
    v1 = UpperProbability([random_prob(rng, 2)])
    v2 = UpperProbability([random_prob(rng, 2), random_prob(rng, 2)])
    p12 = product_upper(v1, v2)
    p21 = product_upper(v2, v1)
    for a in range(4):
        for b in range(4):
            m12 = 0
            m21 = 0
            for i in range(2):
                for j in range(2):
                    if a & (1 << i) and b & (1 << j):
                        m12 |= 1 << (i * 2 + j)
                        m21 |= 1 << (j * 2 + i)
            assert p12.table[m12] == p21.table[m21]


# --- differential oracle: the brute-force core enumerator --------------------


def _solve_linear(rows, rhs):
    """Solve a square system by Gaussian elimination.

    Exact if every entry is rational, float otherwise.  Returns None for
    singular systems.
    """
    n = len(rows)
    exact = all(is_exact(x) for row in rows for x in row) and \
        all(is_exact(x) for x in rhs)
    if exact:
        a = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(rows)]
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


def _bareiss_solve(rows, rhs):
    """(y, d) for a square integer system with d = |det| > 0 and
    rows @ y = d * rhs, by fraction-free (Bareiss) elimination and
    back substitution in integers; None for a singular system.

    By Cramer's rule y = d * rows^-1 @ rhs is an integer vector, so every
    division of the back substitution is exact."""
    n = len(rows)
    a = [list(row) + [r] for row, r in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        for i in range(k + 1, n):
            ai, aik = a[i], a[i][k]
            for j in range(k + 1, n + 1):
                ai[j] = (ai[j] * a[k][k] - aik * a[k][j]) // prev
        prev = a[k][k]
    d = prev  # the last pivot is +-det
    y = [0] * n
    for i in range(n - 1, -1, -1):
        y[i] = (d * a[i][n] - sum(a[i][j] * y[j]
                                  for j in range(i + 1, n))) // a[i][i]
    return (y, d) if d > 0 else ([-v for v in y], -d)


def _integer_core_vertices(mu):
    """The exact branch of brute_force_core_vertices, in integers.

    The table is scaled to integers t over the lcm L of its denominators,
    so q = L * P solves the same 0/1 rows with right-hand sides L, t[A]
    and 0.  Each candidate is solved as y = d * q by `_bareiss_solve`,
    tested as y >= 0 and sum of y over A <= d * t[A] for every event,
    and kept unless its reduced (y, d) was kept before."""
    n = mu.n
    full = (1 << n) - 1
    table = [F(x) for x in mu.table]
    lcm = math.lcm(*(x.denominator for x in table))
    t = [x.numerator * (lcm // x.denominator) for x in table]
    members = [[i for i in range(n) if a >> i & 1] for a in range(1, full)]
    constraints = [([a >> i & 1 for i in range(n)], t[a])
                   for a in range(1, full) if t[a] < lcm]
    constraints += [([int(i == j) for j in range(n)], 0) for i in range(n)]
    seen, vertices = set(), []
    for combo in itertools.combinations(constraints, n - 1):
        solved = _bareiss_solve([[1] * n] + [row for row, _ in combo],
                                [lcm] + [bound for _, bound in combo])
        if solved is None:
            continue
        y, d = solved
        if any(v < 0 for v in y) or any(
                sum(y[i] for i in idx) > d * t[a]
                for a, idx in enumerate(members, 1)):
            continue
        g = math.gcd(d, *y)
        key = (d // g,) + tuple(v // g for v in y)
        if key not in seen:
            seen.add(key)
            vertices.append([F(v, d * lcm) for v in y])
    return vertices


def brute_force_core_vertices(mu):
    """One linear solve per (n-1)-subset of the active constraints, in
    itertools.combinations order; feasible solutions deduplicated
    first-seen, exactly for an exact table (in integers, by
    `_integer_core_vertices`) and on float keys within 1e-9 otherwise."""
    if mu.is_exact():
        return _integer_core_vertices(mu)
    n = mu.n
    tol = 1e-9  # sol and the table's values are compared within tol
    full = (1 << n) - 1
    constraints = [(a, mu.table[a]) for a in range(1, full)
                   if not le(1, mu.table[a])]
    constraints += [(1 << i, None) for i in range(n)]  # p_i >= 0
    seen, vertices = [], []
    for combo in itertools.combinations(constraints, n - 1):
        rows = [[1] * n] + [[key >> i & 1 for i in range(n)]
                            for key, _ in combo]
        rhs = [1] + [0 if bound is None else bound for _, bound in combo]
        sol = _solve_linear(rows, rhs)
        if sol is None or any(x < -tol for x in sol):
            continue
        if not all(sum(sol[i] for i in indices_of(a)) <= mu.table[a] + tol
                   for a in range(1, full)):
            continue
        keyed = [float(x) for x in sol]
        if any(max(abs(x - y) for x, y in zip(keyed, v)) <= tol
               for v in seen):
            continue
        seen.append(keyed)
        vertices.append(sol)
    return vertices


def _exact_prob(weights):
    total = sum(weights)
    return [F(w, total) for w in weights]


def _weight_lists(n):
    """n nonnegative integer weights with a positive sum; the wide range
    makes some tables' common denominator too large for int64."""
    return st.lists(st.one_of(st.integers(0, 12), st.integers(0, 10 ** 15)),
                    min_size=n, max_size=n).filter(lambda w: sum(w) > 0)


_weights = st.integers(1, 4).flatmap(_weight_lists)


@st.composite
def exact_capacities(draw):
    """Envelopes of 1-3 rational vectors, or min(c * P, 1) and P**2
    distortions, on up to 4 points (n = 5 is too slow for the oracle
    on a dense table), as (constructor, arguments): the test builds the
    capacity, so a fault in construction fails it, not the import."""
    w = draw(_weights)
    n = len(w)
    kind = draw(st.sampled_from(["envelope", "concave", "convex"]))
    if kind == "envelope":
        extra = draw(st.lists(st.lists(st.integers(0, 12), min_size=n,
                                       max_size=n).filter(any),
                              max_size=2))
        return UpperProbability, ([_exact_prob(w)] +
                                  [_exact_prob(e) for e in extra],)
    if kind == "concave":
        c = F(draw(st.integers(4, 24)), 4)
        return distort, (_exact_prob(w), lambda x: min(c * x, F(1)))
    return distort, (_exact_prob(w), lambda x: x * x)


@settings(max_examples=60, deadline=None)
@given(exact_capacities())
@example((UpperProbability, ([_exact_prob([10 ** 15 + 1, 3, 7, 10 ** 14]),
                              _exact_prob([1, 2, 3, 4])],)))
def test_core_vertices_match_brute_force_exact(spec):
    build, args = spec
    mu = build(*args)
    got = core_vertices(mu)
    assert got == brute_force_core_vertices(mu)
    assert all(type(x) is F for v in got for x in v)


@pytest.mark.parametrize("build, args", [
    # the Dirac member pins V(A) = 1 on every A containing point 0
    (UpperProbability, ([[F(1, 5)] * 5, [F(1), F(0), F(0), F(0), F(0)]],)),
    (distort, ([F(1, 10), F(2, 10), F(3, 10), F(1, 10), F(3, 10)],
               lambda x: min(3 * x, F(1)))),
    (Capacity.additive, ([F(1, 15), F(2, 15), F(3, 15), F(4, 15),
                          F(5, 15)],)),
], ids=["envelope-with-dirac", "min-linear", "additive"])
def test_core_vertices_match_brute_force_exact_n5(build, args):
    mu = build(*args)
    assert core_vertices(mu) == brute_force_core_vertices(mu)


@pytest.mark.parametrize("seed", [1, 2])
def test_core_vertices_match_brute_force_float_n5(seed):
    rng = random.Random(seed)
    p = [rng.uniform(1.0, 2.0) for _ in range(5)]
    total = sum(p)
    mu = distort([x / total for x in p], math.sqrt)
    got, want = core_vertices(mu), brute_force_core_vertices(mu)
    assert len(got) == len(want) == 120
    assert max(abs(x - y) for v, w in zip(got, want)
               for x, y in zip(v, w)) <= 1e-12


def test_cached_bases_are_exact_adjugates():
    for n in range(1, 6):
        rows, adj, det = setfun._bases(n)
        full = (1 << n) - 1
        vecs = [[a >> j & 1 for j in range(n)] for a in range(1, full)] + \
            [[int(i == j) for j in range(n)] for i in range(n)]
        combos = list(itertools.combinations(range(len(vecs)), n - 1))
        kept = [tuple(rows[k * (n - 1):(k + 1) * (n - 1)])
                for k in range(len(det))]
        if n <= 4:  # every nonsingular candidate, in candidate order
            assert kept == [c for c in combos if _solve_linear(
                [[1] * n] + [vecs[t] for t in c], [1] * n) is not None]
        for k, c in enumerate(kept):
            a = [[1] * n] + [vecs[t] for t in c]
            b = [adj[k * n * n + j * n:k * n * n + j * n + n]
                 for j in range(n)]
            assert det[k] > 0
            assert [[sum(a[i][t] * b[t][j] for t in range(n))
                     for j in range(n)] for i in range(n)] == \
                [[det[k] * (i == j) for j in range(n)] for i in range(n)]
    assert [len(setfun._bases(n)[2]) for n in range(1, 6)] == \
        [1, 4, 27, 476, 26405]


# sha256 of b"|".join(rows, adj, det) as built by the exact cofactor
# expansion that the batched LU build replaced
BASES_SHA256 = {
    1: "5d13af8df9c18076eac00e16187f10bdde8bc6be1bd80eed7049c02afe0abedb",
    2: "2927e6f69478e1b231866b6b086357e02254c10e456a91e6fa7131d4a44d4be2",
    3: "9a89d566373891665f2ec5d88b2ab563ebe17132b15404e544e09d7c1deb9eb6",
    4: "6f38ec193654e95ea4d5b787163125a8776f6dc05b53f9da261bfcd9cde9e048",
    5: "2db3020ce8165d636645c5b9554fe70cdead7812763c74acb01d17da68a759e5",
}


@pytest.mark.parametrize("n", sorted(BASES_SHA256))
def test_cached_bases_bytes_are_pinned(n):
    bases = setfun._bases(n)
    assert [x.format for x in bases] == ["B", "b", "b"]
    assert all(x.readonly for x in bases)
    assert hashlib.sha256(b"|".join(bytes(x) for x in bases)).hexdigest() \
        == BASES_SHA256[n]


def test_importing_the_finite_layers_loads_no_numpy():
    # setfun imports numpy inside _bases only, so the finite layers start
    # without it
    code = ("import sys, capergo.setfun, capergo.finitedyn; "
            "sys.exit('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode \
        == 0


def test_core_vertices_limit_names_the_basis_count():
    mu = Capacity.additive([F(1, 6)] * 6)
    with pytest.raises(ValueError, match="10424128 candidate bases"):
        core_vertices(mu)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any),
    min_size=1, max_size=3)))
def test_closed_form_core_range_matches_vertices(family):
    v = UpperProbability([_exact_prob(w) for w in family])
    verts = core_vertices(v)
    for a in range(1 << v.n):
        assert core_range(v, a) == core_range(v, a, verts)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(0, 12),
                       st.floats(0.0, 1.0, allow_subnormal=False)),
             min_size=n, max_size=n).filter(lambda w: sum(w) > 0),
    min_size=1, max_size=3)))
def test_envelope_table_matches_per_mask_sums(family):
    fam = []
    for w in family:
        total = sum(w)
        fam.append([F(x, total) if isinstance(total, int) else x / total
                    for x in w])
    v = UpperProbability(fam)
    want = [max(sum((p[i] for i in indices_of(a)), F(0)) for p in fam)
            for a in range(1 << v.n)]
    assert v.table == want
    assert [type(x) for x in v.table] == [type(x) for x in want]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(0, 12),
                       st.floats(0.0, 1.0, allow_subnormal=False)),
             min_size=n, max_size=n).filter(lambda w: sum(w) > 0),
    min_size=1, max_size=3)))
def test_envelope_table_passes_capacity_validation(family):
    fam = []
    for w in family:
        total = sum(w)
        fam.append([F(x, total) if isinstance(total, int) else x / total
                    for x in w])
    v = UpperProbability(fam)
    Capacity(v.n, v.table)  # validates: normalised and monotone


def test_envelope_validates_only_with_negative_entries(monkeypatch):
    """An exact family's table is not validated a second time; a family
    with a float entry, negative or not, is validated once, on its
    decided table."""
    checked = []
    real = Capacity._validate

    def spy(self):
        checked.append(self.arithmetic()[0])
        return real(self)

    monkeypatch.setattr(Capacity, "_validate", spy)
    UpperProbability([[F(1, 3), F(2, 3)], [F(1, 4), F(3, 4)]])
    assert checked == []
    v = UpperProbability([[F(1, 3), F(2, 3)], [0.25, 0.75]])
    assert checked == [v.arithmetic()[0]] == [[0, F(1, 3), 0.75, 1]]
    # a float member that never sets the max leaves an exact table
    v = UpperProbability([[F(1, 2), F(1, 2)], [0.5, 0.5]])
    assert v.is_exact() and checked[1:] == [[0, 1, 1, 2]]
    UpperProbability([[1.0 + 1e-13, -1e-13]])  # within FLOAT_TOL of >= 0
    assert len(checked) == 3
    v = UpperProbability([[-1e-13, 1 + 1e-13]])
    assert checked[3:] == [v.arithmetic()[0]] == [v.table]


# --- differential oracle: the Fraction envelope DP --------------------------


def _parent_envelope(family):
    """The envelope table as built before the integer DP: a subset-sum DP
    per member, started from Fraction(0), then a running max."""
    table = None
    for p in family:
        sums = [F(0)]
        for x in p:
            sums += [s + x for s in sums]
        table = sums if table is None else list(map(max, table, sums))
    return table


@st.composite
def _families(draw, floats):
    """1-4 members on 1-5 points, drawn from a pool so that members
    repeat.  Exact members come from `_weights`' entry range, so a
    family's common denominator can pass 2**63, or are Diracs with int
    entries 0 and 1; with floats, some entries of a member are
    float(x)."""
    n = draw(st.integers(1, 5))
    dirac = st.integers(0, n - 1).map(lambda i: [int(j == i)
                                                 for j in range(n)])
    member = st.one_of(_weight_lists(n).map(_exact_prob), dirac)
    if floats:
        member = st.tuples(member, st.lists(st.booleans(), min_size=n,
                                            max_size=n)).map(
            lambda pf: [float(x) if f else x for x, f in zip(*pf)])
    pool = draw(st.lists(member, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_families(floats=False))
@example([_exact_prob([10 ** 15 + 1, 3, 7, 10 ** 14]),
          _exact_prob([1, 2, 3, 4]), [0, 1, 0, 0]])
@example([[1, 0], [F(1, 3), F(2, 3)], [1, 0]])
def test_exact_envelope_matches_fraction_dp(family):
    v = UpperProbability(family)
    assert v.table == _parent_envelope(family)
    assert all(type(x) is F for x in v.table)


@settings(max_examples=300, deadline=None)
@given(_families(floats=True).filter(
    lambda fam: any(type(x) is float for p in fam for x in p)))
@example([[0.25, 0.75], [F(1, 3), F(2, 3)]])
@example([[0.5, F(1, 2)], [1, 0]])
def test_float_and_mixed_envelopes_match_fraction_dp(family):
    v = UpperProbability(family)
    want = _parent_envelope(family)
    assert v.table == want
    assert [type(x) for x in v.table] == [type(x) for x in want]


@pytest.mark.parametrize("family,message", [
    ([], "nonempty"),
    ([[]], "probability vectors"),
    # a member's sum is checked before the next member's length
    ([[F(1, 3), F(1, 3)], [F(1)]], "probability vectors"),
    ([[1 / 3, 1 / 3], [1.0]], "probability vectors"),
    ([[F(1, 2), F(1, 2)], [F(1)]], "share a ground set"),
    ([[0.5, 0.5], [1]], "share a ground set"),
    ([[F(3, 2), F(-1, 2)]], "nonnegative"),
    ([[1.5, -0.5]], "nonnegative"),
])
def test_envelope_rejects_family_with_pinned_message(family, message):
    with pytest.raises(ValueError, match=message):
        UpperProbability(family)

