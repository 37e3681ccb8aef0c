import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capergo import setfun
from capergo.numeric import is_exact, le
from capergo.setfun import (Capacity, UpperProbability, choquet_integral,
                            classify_capacity, core_range, core_vertices,
                            distort, in_core, indices_of, mask_of,
                            product_upper)

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


def test_monotonicity_violation_rejected():
    table = [F(0)] * 8
    table[7] = F(1)
    table[1] = F(9, 10)  # {0}
    table[3] = F(1, 10)  # {0,1} smaller than its subset
    table[5] = table[6] = F(9, 10)
    with pytest.raises(ValueError):
        Capacity(3, table)


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
            assert in_core(v, p)
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


def brute_force_core_vertices(mu):
    """One linear solve per (n-1)-subset of the active constraints, in
    itertools.combinations order; feasible solutions deduplicated
    first-seen on float keys within max(tol, 1e-10)."""
    n = mu.n
    tol = 0 if mu.is_exact() else 1e-9
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
        if sol is None or any(not le(0, x, tol) for x in sol):
            continue
        if not all(le(sum(sol[i] for i in indices_of(a)), mu.table[a], tol)
                   for a in range(1, full)):
            continue
        keyed = [float(x) for x in sol]
        if any(max(abs(x - y) for x, y in zip(keyed, v)) <= max(tol, 1e-10)
               for v in seen):
            continue
        seen.append(keyed)
        vertices.append(sol)
    return vertices


def _exact_prob(weights):
    total = sum(weights)
    return [F(w, total) for w in weights]


# 1-4 nonnegative integer weights with a positive sum; the wide range
# makes some tables' common denominator too large for int64 arithmetic
_weights = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.one_of(st.integers(0, 12), st.integers(0, 10 ** 15)),
    min_size=n, max_size=n).filter(lambda w: sum(w) > 0))


@st.composite
def exact_capacities(draw):
    """Envelopes of 1-3 rational vectors, or min(c * P, 1) and P**2
    distortions, on up to 4 points (n = 5 is too slow for the oracle
    on a dense table)."""
    w = draw(_weights)
    n = len(w)
    kind = draw(st.sampled_from(["envelope", "concave", "convex"]))
    if kind == "envelope":
        extra = draw(st.lists(st.lists(st.integers(0, 12), min_size=n,
                                       max_size=n).filter(any),
                              max_size=2))
        return UpperProbability([_exact_prob(w)] +
                                [_exact_prob(e) for e in extra])
    if kind == "concave":
        c = F(draw(st.integers(4, 24)), 4)
        return distort(_exact_prob(w), lambda x: min(c * x, F(1)))
    return distort(_exact_prob(w), lambda x: x * x)


@settings(max_examples=60, deadline=None)
@given(exact_capacities())
@example(UpperProbability([_exact_prob([10 ** 15 + 1, 3, 7, 10 ** 14]),
                           _exact_prob([1, 2, 3, 4])]))
def test_core_vertices_match_brute_force_exact(mu):
    got = core_vertices(mu)
    assert got == brute_force_core_vertices(mu)
    assert all(type(x) is F for v in got for x in v)


@pytest.mark.parametrize("mu", [
    # the Dirac member pins V(A) = 1 on every A containing point 0
    UpperProbability([[F(1, 5)] * 5, [F(1), F(0), F(0), F(0), F(0)]]),
    distort([F(1, 10), F(2, 10), F(3, 10), F(1, 10), F(3, 10)],
            lambda x: min(3 * x, F(1))),
    Capacity.additive([F(1, 15), F(2, 15), F(3, 15), F(4, 15), F(5, 15)]),
], ids=["envelope-with-dirac", "min-linear", "additive"])
def test_core_vertices_match_brute_force_exact_n5(mu):
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
