import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capergo import cli, cocycle, finitedyn
from capergo.cocycle import (MatrixGen, cocycle_matrix, lyapunov_qr,
                             monodromy_oracle,
                             oseledets_filtration, principal_angles,
                             subadditive_check, subadditive_limit_finite)
from capergo.finitedyn import Endomap
from capergo.numeric import parse
from capergo.scenarios import compare_with_oracle, random_periodic_generator

LOG2 = math.log(2.0)


def diag_gen(*entries):
    return MatrixGen.periodic([np.diag(entries)])


def two_cycle_gen():
    return MatrixGen.periodic([np.diag([2.0, 1.0]), np.diag([1.0, 0.5])])


def pointwise_gen(d, l_of, step, bound_m):
    """A generator given one matrix per base point, as a stack function."""
    def stack_of(points):
        return np.array([l_of(x) for x in points] or np.empty((0, d, d)),
                        dtype=float)
    return MatrixGen(d, stack_of, step, bound_m)


def random_gen(rng, d, ell):
    mats = []
    while len(mats) < ell:
        m = np.array([[rng.uniform(-1, 1) for _ in range(d)]
                      for _ in range(d)])
        if abs(np.linalg.det(m)) > 0.05:
            mats.append(m)
    return MatrixGen.periodic(mats)


def _skew_matrix(x):
    return [[2.0, math.cos(2 * math.pi * x)], [0.0, 0.5]]


def _skew_gen():
    """Upper-triangular generator over the golden rotation: exponents
    +-log 2, with a slow direction that moves with the base point."""
    from capergo.intervaldyn import GOLDEN, PiecewiseAffineMap
    base = PiecewiseAffineMap.rotation(GOLDEN)
    return pointwise_gen(2, _skew_matrix, base.apply, bound_m=2.0)


# --- dense products ---------------------------------------------------------


def test_cocycle_matrix_identity_generator():
    gen = diag_gen(1.0, 1.0)
    assert np.allclose(cocycle_matrix(gen, 0, 5), np.eye(2))


def test_cocycle_matrix_diagonal_powers():
    gen = diag_gen(2.0, 0.5)
    assert np.allclose(cocycle_matrix(gen, 0, 3), np.diag([8.0, 0.125]))


def test_cocycle_matrix_two_cycle():
    gen = two_cycle_gen()
    assert np.allclose(cocycle_matrix(gen, 0, 2), np.diag([2.0, 0.5]))
    # starting at the other cycle point gives the conjugate product
    assert np.allclose(cocycle_matrix(gen, 1, 2), np.diag([2.0, 0.5]))


def test_cocycle_law():
    rng = random.Random(40)
    for _ in range(10):
        gen = random_gen(rng, 3, rng.randint(1, 5))
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        x = rng.randrange(5)
        lhs = cocycle_matrix(gen, x, n + m)
        y = x
        for _ in range(n):
            y = gen.step(y)
        rhs = cocycle_matrix(gen, y, m) @ cocycle_matrix(gen, x, n)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1, np.abs(lhs).max())


def test_cocycle_matrix_rejects_an_empty_product():
    with pytest.raises(ValueError, match="^n >= 1 required$"):
        cocycle_matrix(diag_gen(2.0, 0.5), 0, 0)


def test_unhashable_base_point_has_no_detected_period():
    assert cocycle._detect_period(diag_gen(2.0, 0.5), np.zeros(2)) == 0


def test_dense_product_overflow_raises():
    gen = diag_gen(10.0, 10.0)
    with pytest.raises(OverflowError):
        cocycle_matrix(gen, 0, 400)


def test_generator_bound_is_enforced():
    gen = pointwise_gen(2, lambda i: np.diag([100.0, 1.0]),
                        lambda i: i, bound_m=0.5)
    with pytest.raises(ValueError):
        gen.matrix(0)


@st.composite
def scaled_matrices(draw):
    """(a, M): a random d x d matrix rescaled so that log ||a||_F lies
    within 1 of +-M, where the Frobenius shortcut and the SVD can differ."""
    d = draw(st.integers(1, 4))
    bound_m = draw(st.floats(0.05, 5.0))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                               max_size=d * d)), dtype=float).reshape(d, d)
    fro = np.linalg.norm(a)
    if fro == 0:
        a, fro = np.eye(d), math.sqrt(d)
    target = draw(st.sampled_from([bound_m, -bound_m])) + \
        draw(st.floats(-1.0, 1.0))
    return a * (math.exp(target) / fro), bound_m


@settings(max_examples=300, deadline=None)
@given(scaled_matrices())
@example((np.eye(3) * math.exp(-1.5), 1.5))   # ||a||_2 = ||a||_F / sqrt(d)
@example((np.outer([1.0, 2.0], [3.0, -1.0]) / math.sqrt(50) * math.e, 1.0))
def test_frobenius_shortcut_agrees_with_svd_bound(case):
    a, bound_m = case
    svd_ok = abs(math.log(np.linalg.svd(a, compute_uv=False)[0])) <= \
        bound_m + 1e-9
    real_norm = np.linalg.norm
    svd_calls = []

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svd_calls.append(1)
        return real_norm(x, ord, *args, **kwargs)

    gen = pointwise_gen(a.shape[0], lambda x: a, lambda x: x,
                        bound_m=bound_m)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "norm", norm)
        try:
            gen.matrix(0.5)  # a float point is checked on every call
            accepted = True
        except ValueError:
            accepted = False
    assert accepted == svd_ok
    if not svd_calls:  # the shortcut accepted on its own
        assert svd_ok


def _rotation_matrix(scale, x):
    """The rotation-angle generator as evaluated one point at a time."""
    th = scale * float(x)
    return np.array([[math.cos(th), -math.sin(th)],
                     [math.sin(th), math.cos(th)]])


def test_stacks_equal_per_point_matrices_bit_for_bit():
    rng = random.Random(70)
    mats = [np.array([[rng.uniform(-1, 1) for _ in range(3)]
                      for _ in range(3)]) + 2 * np.eye(3) for _ in range(4)]
    gen = MatrixGen.periodic(mats)
    pts = gen.orbit(2, 11) + [7, -3]
    want = np.array([mats[i % 4] for i in pts])
    assert np.array_equal(_bits(gen.matrices(pts)), _bits(want))
    for scale in (1.0, 1.7, 0.5):
        gen = _rotation_gen(scale)
        # np.cos and np.sin against math.cos and math.sin on a long orbit;
        # -sin(0) is -0.0
        pts = gen.orbit(0.0, 4000) + [0, 0.25, -0.0]
        want = np.array([_rotation_matrix(scale, x) for x in pts])
        assert np.array_equal(_bits(gen.matrices(pts)), _bits(want))
        assert np.array_equal(_bits(gen.matrix(0.0)), _bits(want[0]))
    skew = _skew_gen()
    pts = skew.orbit(0.1234, 30)
    want = np.array([_skew_matrix(x) for x in pts])
    assert np.array_equal(_bits(skew.matrices(pts)), _bits(want))


@pytest.mark.parametrize("make_gen", [
    two_cycle_gen,
    lambda: _rotation_gen(1.0),
    _skew_gen,
], ids=["periodic", "rotation_angle", "pointwise"])
def test_matrices_of_no_points_is_an_empty_stack(make_gen):
    gen = make_gen()
    assert gen.matrices([]).shape == (0, gen.d, gen.d)


def test_matrices_reject_a_wrongly_shaped_custom_matrix():
    wrong_d = MatrixGen(2, lambda pts: np.tile(np.eye(3), (len(pts), 1, 1)),
                        lambda x: x + 1, bound_m=1.0)
    extra = MatrixGen(2, lambda pts: np.tile(np.eye(2), (len(pts) + 1, 1, 1)),
                      lambda x: x + 1, bound_m=1.0)
    for gen in (wrong_d, extra):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gen.matrices(gen.orbit(0, 10))
    with pytest.raises(ValueError, match="dimension mismatch"):
        MatrixGen.periodic([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, "1.0",
                                   None, True, [1.0]])
def test_from_json_rejects_a_non_finite_or_non_numeric_angle_scale(scale):
    with pytest.raises(ValueError, match="angle_scale"):
        MatrixGen.from_json({"kind": "rotation_angle", "d": 2,
                             "angle_scale": scale})


# --- exterior powers --------------------------------------------------------


def compound_power(a: np.ndarray, k: int) -> np.ndarray:
    """Matrix of k x k minors acting on the k-th exterior power: the
    oracle for the singular-value norms of `subadditive_check`."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    subsets = list(itertools.combinations(range(d), k))
    out = np.empty((len(subsets), len(subsets)))
    for i, rows in enumerate(subsets):
        for j, cols in enumerate(subsets):
            out[i, j] = np.linalg.det(a[np.ix_(rows, cols)])
    return out


def test_compound_power_extremes():
    rng = random.Random(41)
    a = np.array([[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
    assert np.allclose(compound_power(a, 1), a)
    det = compound_power(a, 3)
    assert det.shape == (1, 1)
    assert abs(det[0, 0] - np.linalg.det(a)) <= 1e-10


@pytest.mark.parametrize("k", [0, 4])
def test_compound_power_rejects_k_outside_1_to_d(k):
    with pytest.raises(ValueError, match="^need 1 <= k <= d$"):
        compound_power(np.eye(3), k)


def test_compound_power_of_diagonal():
    a = np.diag([2.0, 3.0, 5.0])
    minors = compound_power(a, 2)
    got = sorted(np.abs(np.diag(minors)).tolist())
    assert np.allclose(got, [6.0, 10.0, 15.0])


def test_compound_is_multiplicative():
    rng = random.Random(42)
    for _ in range(10):
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        a = np.array([[rng.uniform(-1, 1) for _ in range(d)]
                      for _ in range(d)])
        b = np.array([[rng.uniform(-1, 1) for _ in range(d)]
                      for _ in range(d)])
        lhs = compound_power(a @ b, k)
        rhs = compound_power(a, k) @ compound_power(b, k)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_compound_norm_dominated_by_singular_values():
    rng = random.Random(43)
    for _ in range(10):
        a = np.array([[rng.uniform(-1, 1) for _ in range(4)]
                      for _ in range(4)])
        sv = np.linalg.svd(a, compute_uv=False)
        for k in (1, 2, 3):
            nrm = np.linalg.norm(compound_power(a, k), 2)
            assert nrm <= np.prod(sv[:k]) + 1e-10


# --- subadditivity ----------------------------------------------------------


def test_subadditive_isometries_give_zero():
    th = 0.7
    rot = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    gen = MatrixGen.periodic([np.array(rot)])
    out = subadditive_check(gen, 0, k=1, n_max=20)
    assert out["subadditive"] and out["linear_bound"]
    spec = lyapunov_qr(gen, 0, 200)
    assert max(abs(x) for x in spec.exponents) <= 1e-10


def test_subadditive_check_diagonal_additive_case():
    out = subadditive_check(diag_gen(2.0, 0.5), 0, k=1, n_max=30)
    assert out["subadditive"] and out["witness"] is None


def test_subadditive_check_random_generators():
    rng = random.Random(44)
    for _ in range(5):
        gen = random_gen(rng, 3, rng.randint(1, 4))
        for k in (1, 2, 3):
            out = subadditive_check(gen, 0, k, n_max=16, seed=7)
            assert out["subadditive"] and out["linear_bound"]


def test_subadditive_check_raises_its_own_overflow_error():
    """The three-step product has entries 1e360: the matmul overflows to
    inf.  Under warnings as errors that must still end in the dense
    product's own message."""
    gen = diag_gen(1e120, 1e120, 1e-240)
    gen.bound_m = 600
    with pytest.raises(OverflowError, match="^dense cocycle product left "
                       "float range$"):
        subadditive_check(gen, 0, k=2, n_max=3)


def test_cocycle_matrix_raises_its_own_overflow_error():
    """1e200 squared overflows the matmul; numpy's overflow warning must
    not escape before the guard, also when warnings are errors."""
    gen = diag_gen(1e200, 1.0)
    gen.bound_m = 500
    with pytest.raises(OverflowError, match="^dense cocycle product left "
                       "float range$"):
        cocycle_matrix(gen, 0, 2)


def test_subadditive_check_raises_on_an_underflowed_singular_value():
    """From two steps on, diag(1, 1e-200, 1e-200)^n has zeros where its
    1e-400 entries underflowed: sigma_2 is 0 while the largest entry
    stays 1."""
    gen = diag_gen(1.0, 1e-200, 1e-200)
    gen.bound_m = 500
    with pytest.raises(OverflowError, match="^dense cocycle product left "
                       "float range$"):
        subadditive_check(gen, 0, k=2, n_max=4)


@pytest.mark.parametrize("k", [0, 4])
def test_subadditive_check_rejects_k_outside_1_to_d_before_any_work(
        monkeypatch, k):
    gen = diag_gen(2.0, 1.0, 0.5)
    monkeypatch.setattr(gen, "step", None)
    with pytest.raises(ValueError, match="^need 1 <= k <= d$"):
        subadditive_check(gen, 0, k, n_max=4)


_ENTRIES = st.floats(-2, 2, allow_subnormal=False)


@st.composite
def _wedge_cases(draw):
    """(Phi(n, 0), k) of a periodic generator, d in 2..4, 1 <= k < d and
    n <= 4; the matrices are kept well conditioned."""
    d = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 3))
    mats = [np.array(draw(st.lists(_ENTRIES, min_size=d * d,
                                   max_size=d * d))).reshape(d, d)
            for _ in range(ell)]
    assume(all(np.linalg.cond(m) < 1e6 for m in mats))
    phi = cocycle_matrix(MatrixGen.periodic(mats), 0, draw(st.integers(1, 4)))
    return phi, draw(st.integers(1, d - 1))


@settings(max_examples=300, deadline=None)
@given(_wedge_cases())
@example((np.diag([2.0, 3.0, 5.0]), 1))
@example((np.diag([2.0, 3.0, 5.0]), 2))
def test_log_wedge_norm_matches_the_compound_oracle(case):
    phi, k = case
    want = math.log(np.linalg.norm(compound_power(phi, k), 2))
    got = cocycle._log_wedge_norm(phi, k)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if k == 1:
        assert got == math.log(np.linalg.norm(phi, 2))


def test_subadditive_check_reports_a_broken_linear_bound():
    """Every matrix has 2-norm 1, inside bound_m = 0.01, but three steps
    diag(1, 1e-3), swap, diag(1, 1e-3) have norm 1e-3 and four steps are
    1e-3 times the identity: |f_n| is about 6.9, past n * 0.01."""
    mats = np.array([np.diag([1.0, 1e-3]), [[0.0, 1.0], [1.0, 0.0]]])
    gen = MatrixGen(2, lambda points: mats[list(points)], lambda i: 1 - i,
                    bound_m=0.01)
    out = subadditive_check(gen, 0, k=1, n_max=8)
    assert out["linear_bound"] is False
    assert out["subadditive"] and out["witness"] is None


def _replayed_samples(seed, n_max):
    """The (n, start) pairs that subadditive_check evaluates for a seed:
    f_n and f_{n+m} at the orbit's start, f_m at its n-th point."""
    rng = random.Random(seed)
    ns = [rng.randint(1, n_max - 1) for _ in range(40)]
    pairs = set()
    for n in ns:
        m = rng.randint(1, n_max - n)
        pairs |= {(n, 0), (m, n), (n + m, 0)}
    return pairs


@pytest.mark.parametrize("k", [1, 2])
def test_subadditive_check_evaluates_each_sample_once(monkeypatch, k):
    """On the shift x -> x + 1 every orbit point is its own index, so the
    point and length of each evaluation name its (n, start) pair."""
    seen = collections.Counter()
    gen = pointwise_gen(2, lambda x: np.array([[1.5, 0.1 * (x % 3)],
                                               [0.0, 0.75]]),
                        lambda x: x + 1, bound_m=1.0)
    if k == gen.d:  # the determinant route reads the stack of each f_n
        real_stack = gen.stack_of

        def stack_of(points):
            seen[len(points), points[0]] += 1
            return real_stack(points)
        monkeypatch.setattr(gen, "stack_of", stack_of)
    else:
        real_matrix = cocycle.cocycle_matrix

        def spy(g, omega, n):
            seen[n, omega] += 1
            return real_matrix(g, omega, n)
        monkeypatch.setattr(cocycle, "cocycle_matrix", spy)
    out = subadditive_check(gen, 0, k, n_max=12, seed=3)
    assert out["subadditive"] and out["linear_bound"]
    assert set(seen) == _replayed_samples(3, 12)
    assert set(seen.values()) == {1}


# --- QR exponents against the periodic oracle -------------------------------


def test_lyapunov_qr_diagonal():
    spec = lyapunov_qr(diag_gen(2.0, 0.5), 0, 400)
    assert abs(spec.exponents[0] - LOG2) <= 1e-12
    assert abs(spec.exponents[1] + LOG2) <= 1e-12


@pytest.mark.parametrize("burn_in", [-1, -10, 10, 11])
def test_lyapunov_qr_rejects_burn_in_outside_the_run(burn_in):
    with pytest.raises(ValueError, match="burn_in"):
        lyapunov_qr(diag_gen(2.0, 0.5), 0, 10, burn_in=burn_in)


def test_lyapunov_qr_two_cycle_averages():
    spec = lyapunov_qr(two_cycle_gen(), 0, 400, burn_in=0)
    assert abs(spec.exponents[0] - LOG2 / 2) <= 1e-12
    assert abs(spec.exponents[1] + LOG2 / 2) <= 1e-12


# --- the lean QR step against np.linalg.qr -----------------------------------


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@st.composite
def qr_inputs(draw):
    """A d x k matrix (stack == 0) or a (stack, d, k) array, d <= 5, with
    signed zeros, NaN and infinities mixed into finite entries.  Half the
    draws are square, as in the QR loops; principal_angles factors tall
    d x k bases."""
    d = draw(st.integers(1, 5))
    k = draw(st.one_of(st.just(d), st.integers(1, 5)))
    stack = draw(st.integers(0, 6))
    shape = (d, k) if stack == 0 else (stack, d, k)
    entry = st.one_of(st.floats(-1e3, 1e3),
                      st.sampled_from([0.0, -0.0, math.nan, math.inf,
                                       -math.inf]))
    size = d * k * max(stack, 1)
    return np.array(draw(st.lists(entry, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(qr_inputs())
@example(np.array([[1.0, -0.0], [0.0, 1.0]]))
@example(np.zeros((2, 3, 3)))
@example(np.array([[[math.nan, 1.0], [2.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]]]))
@example(np.array([[math.inf, 0.0], [0.0, 1.0]]))
@example(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, -6.0]]))
@example(np.array([[1.0, 2.0, 3.0], [-4.0, 5.0, 6.0]]))
def test_lean_qr_matches_numpy_bit_for_bit(a):
    # _qr_step calls numpy's private LAPACK gufuncs; this test is the
    # canary for a numpy release that changes them

    def lean_qr(a):
        with cocycle._qr_errstate():
            return cocycle._qr_step(np.array(a, dtype=np.float64))

    before = a.copy()
    try:
        want = np.linalg.qr(a)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            lean_qr(a)
    else:
        q, r_diag = lean_qr(a)
        assert q.shape == want.Q.shape
        assert np.array_equal(_bits(q), _bits(want.Q))
        assert np.array_equal(
            _bits(r_diag),
            _bits(np.diagonal(want.R, axis1=-2, axis2=-1)))
    assert np.array_equal(_bits(a), _bits(before))  # input left unmodified


def _parent_lyapunov_qr(gen, omega, n, burn_in=None):
    """The QR loop evaluating one matrix per step and factoring it with
    `np.linalg.qr`, as the lean loop must reproduce bit for bit."""
    if burn_in is None:
        burn_in = n // 5
    q, logs, x = np.eye(gen.d), np.zeros(gen.d), omega
    for i in range(n):
        q, r = np.linalg.qr(gen.matrix(x) @ q)
        x = gen.step(x)
        if i >= burn_in:
            logs += np.log(np.abs(np.diag(r)))
    return sorted((logs / (n - burn_in)).tolist(), reverse=True)


def _transient_gen():
    """A tail point 0 feeding the 2-cycle {1, 2}."""
    t = Endomap([1, 2, 1])
    mats = [np.diag([3.0, 1.0]), np.diag([2.0, 1.0]), np.diag([1.0, 0.5])]
    return pointwise_gen(2, lambda i: mats[i], lambda i: t(i), bound_m=3.0)


def _rotation_gen(scale):
    return MatrixGen.from_json({"kind": "rotation_angle", "d": 2,
                                "angle_scale": scale})


@pytest.mark.parametrize("chunk", [1, 2, 7, cocycle.CHUNK])
@pytest.mark.parametrize("make_gen, omega", [
    (lambda: random_gen(random.Random(60), 2, 3), 0),
    (lambda: random_gen(random.Random(61), 3, 4), 1),
    (lambda: random_periodic_generator(random.Random(62), 3, 2), 0),
    (lambda: _rotation_gen(1.0), 0.0),  # -sin(0) is a signed zero
    (lambda: _rotation_gen(1.7), random.Random(63).random()),
    (_transient_gen, 0),
], ids=["periodic-d2", "periodic-d3", "separated-d3", "rotation-x0-zero",
        "rotation-random-x0", "transient"])
def test_lyapunov_qr_matches_parent_loop(monkeypatch, make_gen, omega,
                                        chunk):
    # the result must not depend on how the orbit is cut into stacks: n
    # runs round the chunk boundaries, 601 leaves a short last stack for
    # every chunk size here, and burn_in = chunk + 3 ends in a later stack
    monkeypatch.setattr(cocycle, "CHUNK", chunk)
    for n in (601, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for burn_in in (None, 0, 7, chunk + 3):
            if n < 1 or burn_in is not None and burn_in >= n:
                continue
            want = _parent_lyapunov_qr(make_gen(), omega, n, burn_in)
            got = lyapunov_qr(make_gen(), omega, n, burn_in)
            assert got.exponents == want


def _bound_breaking_gen(at):
    """Identity everywhere on the shift x -> x + 1 except at point `at`,
    where the matrix breaks the declared bound."""
    return pointwise_gen(2, lambda x: np.diag([100.0, 1.0]) if x == at
                         else np.eye(2), lambda x: x + 1, bound_m=0.5)


@pytest.mark.parametrize("at", [cocycle.CHUNK // 2, cocycle.CHUNK + 7])
def test_bound_violation_mid_chunk_raises_the_per_point_message(at):
    errors = []
    for run in (_parent_lyapunov_qr, lyapunov_qr):
        with pytest.raises(ValueError) as info:
            run(_bound_breaking_gen(at), 0, 2 * cocycle.CHUNK)
        errors.append(str(info.value))
    assert errors == ["declared log-norm bound violated"] * 2
    zero = pointwise_gen(2, lambda x: np.zeros((2, 2)) if x == at
                         else np.eye(2), lambda x: x + 1, bound_m=0.5)
    with pytest.raises(ValueError, match="invertible and finite"):
        zero.matrices(list(range(2 * cocycle.CHUNK)))


def test_singular_generator_surfaces_its_log_warning():
    def run(loop):
        gen = pointwise_gen(2, lambda x: np.diag([1.0, 0.0]), lambda x: x,
                            bound_m=1.0)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            return loop(gen, 0.5, cocycle.CHUNK + 1)
    want = run(_parent_lyapunov_qr)
    got = run(lyapunov_qr).exponents
    assert got == want and got[-1] == -math.inf


def test_monodromy_fixed_point_diag():
    spec = monodromy_oracle(diag_gen(3.0, 5.0), [0])
    assert np.allclose(spec.exponents, [math.log(5.0), math.log(3.0)])


def test_monodromy_rejects_non_cycle():
    gen = two_cycle_gen()
    with pytest.raises(ValueError):
        monodromy_oracle(gen, [0])  # period is 2, not 1


@pytest.mark.parametrize("points", [[0, 2], [0, 1], [1, 2, 0, 1]])
def test_monodromy_rejects_a_point_list_off_the_cycle(points):
    gen = MatrixGen.periodic([np.diag([2.0, 1.0]), np.eye(2),
                              np.diag([1.0, 0.5])])
    with pytest.raises(ValueError, match="^point list is not a cycle of "
                       "the base map$"):
        monodromy_oracle(gen, points)
    assert monodromy_oracle(gen, [1, 2, 0]).n == 3


def test_monodromy_rejects_a_singular_period_product():
    # diag(1, 0) has 2-norm 1, so it passes the declared bound
    gen = pointwise_gen(2, lambda x: np.diag([1.0, 0.0]), lambda x: x,
                        bound_m=1.0)
    with pytest.raises(ValueError, match="^monodromy is singular$"):
        monodromy_oracle(gen, [0])


def test_qr_matches_monodromy_on_random_generators():
    rng = random.Random(45)
    for _ in range(3):
        d = rng.choice([2, 3])
        ell = rng.randint(1, 5)
        gen = random_periodic_generator(rng, d, ell)
        worst, qr, oracle = compare_with_oracle(gen, ell, 10_000)
        assert worst <= 1e-6


def test_qr_exponents_invariant_along_orbit():
    rng = random.Random(46)
    gen = random_periodic_generator(rng, 3, 4)
    exps = []
    for start in range(4):
        burn = 10_000 // 5
        burn += (10_000 - burn) % 4
        spec = lyapunov_qr(gen, start, 10_000, burn_in=burn)
        exps.append(spec.exponents)
    oracle = monodromy_oracle(gen, [0, 1, 2, 3]).exponents
    for e in exps:
        # block sums agree at every starting point
        assert abs(sum(e) - sum(oracle)) <= 1e-6
        assert abs(e[0] - oracle[0]) <= 1e-4


def test_top_exponent_sums_match_compound_generator():
    rng = random.Random(47)
    gen = random_periodic_generator(rng, 3, 2)
    n = 4000
    burn = n // 5
    burn += (n - burn) % 2
    spec = lyapunov_qr(gen, 0, n, burn_in=burn)
    for k in (1, 2, 3):
        cgen = MatrixGen.periodic([compound_power(gen.matrix(i), k)
                                   for i in range(2)])
        top = lyapunov_qr(cgen, 0, n, burn_in=burn).exponents[0]
        assert abs(top - sum(spec.exponents[:k])) <= 1e-6


# --- filtrations ------------------------------------------------------------


def test_oseledets_diagonal_two_exponents():
    approx = oseledets_filtration(diag_gen(2.0, 0.5), 0, 2000)
    assert len(approx.exponents) == 2
    assert abs(approx.exponents[0] - LOG2) <= 1e-9
    # V_2 is the slow axis e2
    v2 = approx.filtration[1]
    assert v2.shape[1] == 1
    assert abs(abs(v2[1, 0]) - 1.0) <= 1e-9
    for lam, lam_x in approx.checks["directional"]:
        assert abs(lam - lam_x) <= 1e-2
    for a, b in approx.checks["invariance"]:
        assert abs(a - b) <= 1e-2
    assert max(approx.checks["angles"]) <= 1e-6


def test_oseledets_identity_single_block():
    approx = oseledets_filtration(diag_gen(1.0, 1.0, 1.0), 0, 500)
    assert approx.exponents == [0.0]
    assert approx.multiplicities == [3]


def test_oseledets_two_cycle_scalars():
    gen = MatrixGen.periodic([np.array([[2.0]]), np.array([[1.0]])])
    approx = oseledets_filtration(gen, 0, 2000)
    assert abs(approx.exponents[0] - LOG2 / 2) <= 1e-9


def test_oseledets_random_generator_checks_pass():
    rng = random.Random(48)
    gen = random_periodic_generator(rng, 3, 3, min_gap=0.1)
    approx = oseledets_filtration(gen, 0, 10_000)
    for lam, lam_x in approx.checks["directional"]:
        assert abs(lam - lam_x) <= 1e-2
    for a, b in approx.checks["invariance"]:
        assert abs(a - b) <= 1e-2
    assert max(approx.checks["angles"]) <= 1e-4


def test_exponents_constant_along_transient_orbit():
    # base has a tail point feeding a 2-cycle; after burn-in the window
    # sits entirely on the cycle, so the spectrum matches the monodromy
    gen = _transient_gen()
    n = 4000
    burn = n // 5
    burn += (n - burn) % 2
    spec = lyapunov_qr(gen, 0, n, burn_in=burn)
    oracle = monodromy_oracle(gen, [1, 2])
    assert abs(spec.exponents[0] - oracle.exponents[0]) <= 1e-9
    assert abs(spec.exponents[1] - oracle.exponents[1]) <= 1e-9


# --- differential oracle: one backward pass per orbit -----------------------


def _right_subspace_basis(gen, orbit):
    """Orthonormal basis whose first s columns span, for every s, the
    top-s right-singular subspace of Phi(n, omega): the transposed
    generator propagated backward along one orbit through `np.linalg.qr`."""
    q = np.eye(gen.d)
    for pt in reversed(orbit):
        q, r = np.linalg.qr(gen.matrix(pt).T @ q)
        q = q * np.sign(np.diag(r))
    return q


def _parent_oseledets_filtration(gen, omega, n, seed=0):
    """The filtration as computed with period + 2 separate backward passes
    on a periodic base: omega, T omega, then every cycle point again."""
    rsb = _right_subspace_basis
    rng = random.Random(seed)
    groups = lyapunov_qr(gen, omega, n).grouped()
    basis = rsb(gen, gen.orbit(omega, n))
    basis_next = rsb(gen, gen.orbit(gen.step(omega), n))
    filtration, s = [], 0
    for lam, mult in groups:
        filtration.append(basis[:, s:])
        s += mult
    min_gap = min((groups[i][0] - groups[i + 1][0]
                   for i in range(len(groups) - 1)), default=1.0)
    period = cocycle._detect_period(gen, omega)
    if period:
        cycle = gen.orbit(omega, period)
        bases_at = [rsb(gen, gen.orbit(pt, n)) for pt in cycle]
        horizon = min(n, 500 * period)
    else:
        horizon = max(40, min(n, int(30.0 / max(min_gap, 1e-2))))
        orbit = gen.orbit(omega, horizon + 2)

    def directional(x, start, block):
        v, acc = np.array(x, dtype=float), 0.0
        for i in range(horizon):
            pt = cycle[(start + i) % period] if period else orbit[start + i]
            v = gen.matrix(pt) @ v
            if period:
                vi = bases_at[(start + i + 1) % period][:, block:]
                v = vi @ (vi.T @ v)
            nrm = np.linalg.norm(v)
            acc += math.log(nrm)
            v /= nrm
        return acc / horizon

    checks = {"directional": [], "invariance": [], "angles": []}
    s = 0
    for vi, (lam, mult) in zip(filtration, groups):
        x = vi @ np.array([rng.gauss(0, 1) for _ in range(vi.shape[1])])
        x /= np.linalg.norm(x)
        lam_x = directional(x, 0, s)
        checks["directional"].append((lam, lam_x))
        lx = gen.matrix(omega) @ x
        checks["invariance"].append(
            (lam_x, directional(lx / np.linalg.norm(lx), 1, s)))
        ang = principal_angles(gen.matrix(omega) @ vi, basis_next[:, s:])
        checks["angles"].append(float(ang.max()) if ang.size else 0.0)
        s += mult
    return filtration, checks


@pytest.mark.parametrize("make_gen, omega, n, passes", [
    (lambda: diag_gen(2.0, 0.5), 0, 2000, 1),
    (two_cycle_gen, 1, 2000, 2),
    (lambda: random_periodic_generator(random.Random(48), 3, 3,
                                       min_gap=0.1), 0, 3000, 3),
    (lambda: MatrixGen.from_json({"kind": "rotation_angle", "d": 2}),
     0.1234, 300, 2),
    (_skew_gen, 0.1234, 300, 2),
], ids=["period-1", "period-2", "period-3", "aperiodic", "aperiodic-gapped"])
def test_oseledets_backward_passes_match_parent_sequence(monkeypatch,
                                                         make_gen, omega,
                                                         n, passes):
    want_filtration, want_checks = _parent_oseledets_filtration(
        make_gen(), omega, n)
    real = cocycle._right_subspace_bases
    calls = []

    def counted(gen, orbits):
        calls.append(len(orbits))
        return real(gen, orbits)

    monkeypatch.setattr(cocycle, "_right_subspace_bases", counted)
    got = oseledets_filtration(make_gen(), omega, n)
    assert calls == [passes]  # every orbit in one stacked pass
    assert len(got.filtration) == len(want_filtration)
    assert all(np.array_equal(a, b)
               for a, b in zip(got.filtration, want_filtration))
    assert got.checks == want_checks


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_stacked_backward_pass_matches_single_orbit_passes(d, ell, stack,
                                                           seed):
    rng = random.Random(seed)
    gen = random_gen(rng, d, ell)
    n = rng.randint(1, 60)
    orbits = [gen.orbit(rng.randrange(ell), n) for _ in range(stack)]
    got = cocycle._right_subspace_bases(gen, orbits)
    assert got.shape == (stack, d, d)
    for basis, orbit in zip(got, orbits):
        assert np.array_equal(_bits(basis),
                              _bits(_right_subspace_basis(gen, orbit)))


@pytest.mark.parametrize("n", [cocycle.CHUNK - 1, cocycle.CHUNK + 1,
                               2 * cocycle.CHUNK + 1])
def test_stacked_backward_pass_matches_single_orbits_across_chunks(n):
    gen = random_gen(random.Random(71), 3, 3)
    orbits = [gen.orbit(j, n) for j in range(3)]
    got = cocycle._right_subspace_bases(gen, orbits)
    for basis, orbit in zip(got, orbits):
        assert np.array_equal(_bits(basis),
                              _bits(_right_subspace_basis(gen, orbit)))


def test_principal_angles_orthogonal_vs_aligned():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert abs(principal_angles(e1, e1).max()) <= 1e-12
    assert abs(principal_angles(e1, e2).max() - math.pi / 2) <= 1e-12


# --- finite-base subadditive limits -----------------------------------------


def test_kingman_two_cycle_log_norms():
    t = Endomap([1, 0])
    mats = [np.diag([2.0, 1.0]), np.diag([1.0, 0.5])]

    def f_seq(n):
        out = []
        for x in range(2):
            phi = np.eye(2)
            y = x
            for _ in range(n):
                phi = mats[y] @ phi
                y = t(y)
            out.append(math.log(np.linalg.norm(phi, 2)))
        return out

    res = subadditive_limit_finite(f_seq, t, horizon=60)
    assert res["ok"] and res["stabilized"]
    for v in res["f_star"]:
        assert abs(v - LOG2 / 2) <= 1e-9


def test_kingman_linear_decreasing_sequence():
    t = Endomap([0])
    res = subadditive_limit_finite(lambda n: [-float(n)], t, horizon=40)
    assert res["ok"]
    assert abs(res["f_star"][0] + 1.0) <= 1e-12


def test_kingman_rejects_superadditive_sequence():
    t = Endomap([0])
    res = subadditive_limit_finite(lambda n: [float(n * n)], t, horizon=30)
    assert not res["ok"] and res["witness"]


def _parent_subadditive_limit_finite(f_seq, t, horizon):
    """The Kingman limit as computed before f_seq was read once per n: the
    spot checks call f_seq three times per sample, the limit loop once
    per n, and every running inf is kept for the drift."""
    rng = random.Random(0)
    m_pts = len(f_seq(1))
    for _ in range(30):
        n = rng.randint(1, horizon - 1)
        m = rng.randint(1, horizon - n)
        fn, fm, fnm = f_seq(n), f_seq(m), f_seq(n + m)
        for x in range(m_pts):
            y = x
            for _ in range(n):
                y = t(y)
            if fnm[x] > fn[x] + fm[y] + 1e-9:
                return {"ok": False,
                        "witness": {"n": n, "m": m, "point": x}}
    best = None
    history = []
    for n in range(1, horizon + 1):
        g = finitedyn.common_cond_exp([parse(v) / n for v in f_seq(n)], t)
        if best is None:
            best = list(g)
        else:
            best = [min(a, b) for a, b in zip(best, g)]
        history.append(list(best))
    tail = history[3 * horizon // 4:]
    drift = max(abs(float(a - b))
                for snap in tail for a, b in zip(snap, history[-1]))
    return {"ok": True, "f_star": history[-1], "stabilized": drift < 1e-9}


def _random_kingman_case(rng):
    """A random endomap, horizon and value table f_n(x) = S_n g(x) +
    c sqrt(n) + noise: Birkhoff sums plus a subadditive term, so it
    passes the spot checks unless the noise or a superlinear term breaks
    them.  Values are exact or float."""
    m = rng.randint(1, 5)
    t = Endomap([rng.randrange(m) for _ in range(m)])
    horizon = rng.randint(2, 40)
    exact = rng.random() < 0.3
    g = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) if exact
         else rng.uniform(-2, 2) for _ in range(m)]
    noise = rng.choice([0, 0, 1e-12, 0.3])
    c = rng.choice([0, 1, -1])
    square = rng.random() < 0.15
    table = {}
    for n in range(1, horizon + 1):
        row = []
        for x in range(m):
            total, y = 0, x
            for _ in range(n):
                total, y = total + g[y], t(y)
            if not exact:
                total += c * math.sqrt(n) + rng.uniform(-noise, noise)
            if square:
                total += n * n
            row.append(total)
        table[n] = row
    return t, horizon, table.__getitem__


def test_kingman_limit_matches_parent_on_random_sequences():
    rng = random.Random(23)
    verdicts = collections.Counter()
    for _ in range(300):
        t, horizon, f_seq = _random_kingman_case(rng)
        got = subadditive_limit_finite(f_seq, t, horizon)
        assert got == _parent_subadditive_limit_finite(f_seq, t, horizon)
        verdicts[got["ok"], got.get("stabilized")] += 1
    # failing, unstabilized and stabilized sequences all occur
    assert {(False, None), (True, False), (True, True)} <= set(verdicts)


def test_kingman_limit_reads_each_f_n_once():
    calls = []
    rng = random.Random(5)
    for _ in range(20):
        t, horizon, f_seq = _random_kingman_case(rng)
        calls.clear()
        subadditive_limit_finite(lambda n: calls.append(n) or f_seq(n), t,
                                 horizon)
        assert calls == list(range(1, horizon + 1))


def test_kingman_scenario_reads_each_f_n_once(monkeypatch, tmp_path):
    counts = []
    real = cocycle.subadditive_limit_finite

    def spy(f_seq, t, horizon):
        calls = collections.Counter()
        out = real(lambda n: calls.update([n]) or f_seq(n), t, horizon)
        counts.append((horizon, sum(calls.values()), max(calls.values())))
        return out

    monkeypatch.setattr(cocycle, "subadditive_limit_finite", spy)
    assert cli.main(["run", "kingman-two-cycle", "--seed", "7", "--out",
                     str(tmp_path)]) == 0
    assert counts == [(40, 40, 1), (20, 20, 1)]


@pytest.mark.parametrize("horizon", [-1, 0, 1])
def test_subadditive_checks_reject_horizons_below_two(horizon):
    with pytest.raises(ValueError, match="n_max must be >= 2, not %d"
                       % horizon):
        subadditive_check(diag_gen(2.0, 0.5), 0, k=1, n_max=horizon)
    with pytest.raises(ValueError, match="horizon must be >= 2, not %d"
                       % horizon):
        subadditive_limit_finite(lambda n: [float(n)], Endomap([0]),
                                 horizon)


@pytest.mark.parametrize("spec", [
    {"kind": "rotation_angle", "d": 1, "angle_scale": 1.0},
    {"kind": "rotation_angle"},
], ids=["rotation-d1", "rotation-no-d"])
def test_from_json_rejects_missing_or_wrong_d(spec):
    with pytest.raises(ValueError, match="d="):
        MatrixGen.from_json(spec)


def test_from_json_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown generator kind 'two_point'"):
        MatrixGen.from_json({"kind": "two_point", "d": 2,
                             "matrices": [[[2.0, 0.0], [0.0, 1.0]]]})
    # periodic generators are built with MatrixGen.periodic
    with pytest.raises(ValueError, match="unknown generator kind 'table'"):
        MatrixGen.from_json({"kind": "table", "d": 2,
                             "matrices": [[[2.0, 0.0], [0.0, 1.0]]]})


def test_from_json_builds_the_declared_d():
    gen = MatrixGen.from_json({"kind": "rotation_angle", "d": 2,
                               "angle_scale": 1.3})
    assert gen.d == 2
