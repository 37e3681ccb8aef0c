import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from capergo.intervaldyn import (BOUNDARY_SNAP, GOLDEN, BitstreamPoint,
                                 BoundaryHitError, BudgetError, IntervalSet,
                                 PiecewiseAffineMap, PiecewiseConstant,
                                 RestrictedLebesgue, correlation_sequence,
                                 orbit_average, polynomial_orbit_average,
                                 verify_eigenfunction)

F = Fraction


def random_set(rng, c=2, denom=64, pieces=2):
    raw = []
    top = int(denom * c)
    for _ in range(rng.randint(1, pieces)):
        a = F(rng.randint(0, top - 1), denom)
        b = F(rng.randint(1, top), denom)
        if a < b:
            raw.append((a, b))
    return IntervalSet(raw, c=c)


# --- interval algebra -------------------------------------------------------


def test_complement_of_lower_half():
    s = IntervalSet([(0, 1)], c=2)
    assert s.complement() == IntervalSet([(1, 2)], c=2)


def test_intersection_measure():
    a = IntervalSet([(0, F(1, 2)), (1, F(3, 2))], c=2)
    b = IntervalSet([(F(3, 10), F(12, 10))], c=2)
    assert a.intersect(b).measure() == F(2, 10) + F(2, 10)


def test_union_merges_touching_pieces():
    a = IntervalSet([(0, F(1, 2))], c=2)
    b = IntervalSet([(F(1, 2), 1)], c=2)
    assert a.union(b) == IntervalSet([(0, 1)], c=2)


def test_set_algebra_laws_random():
    rng = random.Random(21)
    for _ in range(40):
        a, b = random_set(rng), random_set(rng)
        assert a.union(b).measure() + a.intersect(b).measure() == \
            a.measure() + b.measure()
        assert a.complement().complement() == a
        # De Morgan
        assert a.union(b).complement() == a.complement().intersect(b.complement())


# --- piecewise affine maps --------------------------------------------------


def test_rotation_swap_sends_upper_to_lower():
    mp = PiecewiseAffineMap.rotation_swap()
    s = IntervalSet([(1, 2)], c=2)
    assert mp.preimage(s) == IntervalSet([(0, 1)], c=2)


def test_rotation_swap_rational_angle_preimage():
    mp = PiecewiseAffineMap.rotation_swap(F(3, 10))
    s = IntervalSet([(1, F(3, 2))], c=2)
    expect = IntervalSet([(0, F(2, 10)), (F(7, 10), 1)], c=2)
    assert mp.preimage(s) == expect


def test_doubling_preimage_of_lower_half():
    mp = PiecewiseAffineMap.doubling()
    s = IntervalSet([(0, F(1, 2))], c=1)
    expect = IntervalSet([(0, F(1, 4)), (F(1, 2), F(3, 4))], c=1)
    assert mp.preimage(s) == expect


def contains(s, x):
    """Membership of x in the half-open pieces of s."""
    return any(a <= x < b for a, b in s.intervals)


def test_preimage_membership_oracle():
    rng = random.Random(22)
    maps = [PiecewiseAffineMap.rotation_swap(F(3, 10)),
            PiecewiseAffineMap.doubling_paste(),
            PiecewiseAffineMap.rotation(F(2, 7), c=1)]
    for mp in maps:
        for _ in range(5):
            s = random_set(rng, c=mp.c)
            pre = mp.preimage(s)
            for k in range(0, 200):
                x = F(k * mp.c, 200) + F(1, 1000)
                assert contains(pre, x) == contains(s, mp.apply(x))


def test_preimage_preserves_measure():
    rng = random.Random(23)
    for mp in (PiecewiseAffineMap.rotation_swap(),
               PiecewiseAffineMap.rotation_swap(F(3, 10)),
               PiecewiseAffineMap.doubling(),
               PiecewiseAffineMap.doubling_paste()):
        for _ in range(10):
            s = random_set(rng, c=mp.c)
            assert abs(float(mp.preimage(s).measure() - s.measure())) <= 1e-12


def test_preimage_distributes_over_union_and_complement():
    rng = random.Random(24)
    mp = PiecewiseAffineMap.doubling_paste()
    for _ in range(10):
        a, b = random_set(rng), random_set(rng)
        assert mp.preimage(a.union(b)) == mp.preimage(a).union(mp.preimage(b))
        assert mp.preimage(a.complement()) == mp.preimage(a).complement()


def test_boundary_hit_raises_in_float_mode():
    mp = PiecewiseAffineMap.rotation_swap()
    with pytest.raises(BoundaryHitError):
        mp.apply(1.0 - GOLDEN)


def _exact_compare_apply(mp, x):
    """`apply` comparing every point against the exact branch endpoints,
    the definition that the float branch path must reproduce."""
    if isinstance(x, float):
        for lo, hi, _, _ in mp.branches:
            if lo != 0 and abs(x - float(lo)) < BOUNDARY_SNAP:
                raise BoundaryHitError("orbit hit a branch boundary")
    for lo, hi, s, t in mp.branches:
        if lo <= x < hi:
            return s * x + t
    raise ValueError("point outside [0, c)")


APPLY_MAPS = {
    "rotation": PiecewiseAffineMap.rotation(GOLDEN),
    "rotation_swap": PiecewiseAffineMap.rotation_swap(),
    "doubling": PiecewiseAffineMap.doubling(),
    "doubling_paste": PiecewiseAffineMap.doubling_paste(),
    # a 1/3 cut that no float equals; and a top end 4/3 above its
    # nearest float, where no boundary snap applies
    "custom-thirds": PiecewiseAffineMap(
        [(0, F(1, 3), 3, 0), (F(1, 3), 2, F(3, 5), F(-1, 5))], c=2),
    "custom-top-4/3": PiecewiseAffineMap(
        [(0, 1, 1, F(1, 3)), (1, F(4, 3), F(1, 2), F(-1, 2))], c=F(4, 3)),
}


def _near_endpoints(mp):
    """Every endpoint's nearest float and its float neighbours."""
    out = []
    for lo, hi, _, _ in mp.branches:
        for e in (float(lo), float(hi)):
            out += [math.nextafter(e, -math.inf), e,
                    math.nextafter(e, math.inf)]
    return out


def _outcome(f, *args):
    try:
        y = f(*args)
    except (ValueError, BoundaryHitError) as exc:
        return type(exc), str(exc)
    return type(y), repr(y)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(APPLY_MAPS)), st.data())
def test_float_branch_path_matches_exact_compares(name, data):
    mp = APPLY_MAPS[name]
    x = data.draw(st.one_of(
        st.sampled_from(_near_endpoints(mp) +
                        [math.nan, math.inf, -math.inf, -0.0, -1e-300,
                         -0.5, float(mp.c), float(mp.c) + 0.5, 1e300]),
        st.floats(-1.0, float(mp.c) + 1.0),
        st.floats(allow_nan=True, allow_infinity=True)))
    assert _outcome(mp.apply, x) == _outcome(_exact_compare_apply, mp, x)


@pytest.mark.parametrize("name", sorted(APPLY_MAPS))
def test_every_endpoint_neighbour_matches_exact_compares(name):
    mp = APPLY_MAPS[name]
    for x in _near_endpoints(mp):
        assert _outcome(mp.apply, x) == _outcome(_exact_compare_apply, mp, x)
        # a float subclass and an exact point keep the exact-compare path
        for y in (np.float64(x), F(x)):
            assert _outcome(mp.apply, y) == \
                _outcome(_exact_compare_apply, mp, y)


# --- correlations -----------------------------------------------------------


def test_rotation_swap_halves_alternate():
    mp = PiecewiseAffineMap.rotation_swap()
    lower = IntervalSet([(0, 1)], c=2)
    p = RestrictedLebesgue(IntervalSet([(0, 2)], c=2))
    terms = correlation_sequence(p, mp, lower, lower, 6)
    assert terms == [1, 0, 1, 0, 1, 0]


def test_doubling_halves_mix():
    mp = PiecewiseAffineMap.doubling()
    b = IntervalSet([(0, F(1, 2))], c=1)
    p = RestrictedLebesgue(IntervalSet([(0, 1)], c=1))
    terms = correlation_sequence(p, mp, b, b, 4)
    assert terms == [F(1, 2), F(1, 4), F(1, 4), F(1, 4)]


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("make", [PiecewiseAffineMap.doubling,
                                  PiecewiseAffineMap.rotation_swap,
                                  lambda: PiecewiseAffineMap(
                                      PiecewiseAffineMap.doubling().branches,
                                      c=1)])
def test_correlation_sequence_has_n_terms_on_every_map_kind(make, n):
    mp = make()
    b = IntervalSet([(0, F(1, 2))], c=mp.c)
    p = RestrictedLebesgue(IntervalSet([(0, mp.c)], c=mp.c))
    assert len(correlation_sequence(p, mp, b, b, n)) == n


def test_constructor_rejects_a_kind_the_branches_may_not_have():
    # a kind selects a closed form: the identity declared as the doubling
    # map got the doubling correlations [1/2, 1/4, 1/4, 1/4]
    identity = [(0, 1, 1, 0)]
    with pytest.raises(TypeError):
        PiecewiseAffineMap(identity, c=1, kind="doubling")
    mp = PiecewiseAffineMap(identity, c=1)
    assert mp.kind == "custom"
    b = IntervalSet([(0, F(1, 2))], c=1)
    p = RestrictedLebesgue(IntervalSet([(0, 1)], c=1))
    assert correlation_sequence(p, mp, b, b, 4) == [F(1, 2)] * 4


def test_rotation_swap_fast_path_matches_iterated_preimage():
    rng = random.Random(26)
    mp = PiecewiseAffineMap.rotation_swap(F(3, 10))
    p = RestrictedLebesgue(IntervalSet([(0, 2)], c=2))
    for _ in range(5):
        b, c = random_set(rng, denom=20), random_set(rng, denom=20)
        fast = correlation_sequence(p, mp, b, c, 40)
        cur, slow = c, []
        for i in range(40):
            slow.append(p(b.intersect(cur)))
            cur = mp.preimage(cur)
        assert all(abs(float(x - y)) <= 1e-10 for x, y in zip(fast, slow))


@st.composite
def exact_sets(draw, c):
    """An IntervalSet on [0, c) with up to 3 rational pieces."""
    denom = draw(st.integers(1, 24))
    ends = st.integers(0, c * denom)
    pieces = draw(st.lists(st.tuples(ends, ends), max_size=3))
    return IntervalSet([(F(a, denom), F(b, denom)) for a, b in pieces], c=c)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["rotation", "rotation_swap"]),
       st.integers(2, 30).flatmap(
           lambda q: st.builds(F, st.integers(1, q - 1), st.just(q))),
       st.data(), st.integers(1, 30))
@example("rotation", F(1, 3), None, 4)
def test_rotation_fast_path_stays_exact_for_rational_alpha(kind, alpha, data,
                                                           n):
    if kind == "rotation":
        mp, c = PiecewiseAffineMap.rotation(alpha), 1
    else:
        mp, c = PiecewiseAffineMap.rotation_swap(alpha), 2
    if data is None:
        b, c_set = IntervalSet([(0, F(1, 2))], c=1), \
            IntervalSet([(F(1, 4), F(3, 4))], c=1)
        window = IntervalSet([(0, 1)], c=1)
    else:
        b, c_set, window = (data.draw(exact_sets(c)) for _ in range(3))
    p = RestrictedLebesgue(window)
    generic = PiecewiseAffineMap(mp.branches, c=mp.c)
    fast = correlation_sequence(p, mp, b, c_set, n)
    assert fast == correlation_sequence(p, generic, b, c_set, n)
    assert all(type(x) is F for x in fast)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["rotation", "rotation_swap"]),
       st.floats(0.001, 0.999), st.data(), st.integers(1, 40))
def test_rotation_fast_path_matches_preimage_path_for_float_alpha(kind, alpha,
                                                                  data, n):
    if kind == "rotation":
        mp, c = PiecewiseAffineMap.rotation(alpha), 1
    else:
        mp, c = PiecewiseAffineMap.rotation_swap(alpha), 2
    b, c_set, window = (data.draw(exact_sets(c)) for _ in range(3))
    p = RestrictedLebesgue(window)
    generic = PiecewiseAffineMap(mp.branches, c=mp.c)
    fast = correlation_sequence(p, mp, b, c_set, n)
    slow = correlation_sequence(p, generic, b, c_set, n)
    assert len(fast) == len(slow) == n
    assert all(abs(x - y) <= 1e-12 for x, y in zip(fast, slow))


@st.composite
def float_sets(draw):
    """An IntervalSet on [0, 1) with up to 3 float pieces."""
    ends = st.floats(0, 1)
    return IntervalSet(draw(st.lists(st.tuples(ends, ends), max_size=3)),
                       c=1)


def _exact_copy(s):
    return IntervalSet([(F(a), F(b)) for a, b in s.intervals], c=s.c)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(exact_sets(1), float_sets()), min_size=3,
                max_size=3), st.integers(1, 12))
@example([IntervalSet([(0.1, 0.7)], c=1), IntervalSet([(0.3, 0.9)], c=1),
          IntervalSet([(0.0, 1.0)], c=1)], 12)
def test_doubling_fast_path_matches_iterated_preimage(sets, n):
    """Exact sets give the generic path's terms, type for type.  On float
    endpoints term 0 is the generic float term and every later term is the
    generic path's exact term on the floats' exact values."""
    b, c_set, window = sets
    mp = PiecewiseAffineMap.doubling()
    generic = PiecewiseAffineMap(mp.branches, c=1)
    fast = correlation_sequence(RestrictedLebesgue(window), mp, b, c_set, n)
    slow = correlation_sequence(RestrictedLebesgue(window), generic, b,
                                c_set, n)
    exact = correlation_sequence(RestrictedLebesgue(_exact_copy(window)),
                                 generic, _exact_copy(b), _exact_copy(c_set),
                                 n)
    assert len(fast) == n
    assert fast[0] == slow[0] and type(fast[0]) is type(slow[0])
    assert fast[1:] == exact[1:]
    assert all(type(x) is F for x in fast[1:])
    assert all(abs(x - y) <= 1e-12 for x, y in zip(fast, slow))


def _parent_doubling_correlations(p, b, c_set, n):
    """The rescaled-tiling loop the identity-based loop replaced: the i-th
    preimage is C scaled by 2^-i and tiled with period 2^-i."""

    def window_overlap(lo, hi, pattern):
        total = F(0)
        for a, bb in pattern:
            l, h = max(lo, a), min(hi, bb)
            if l < h:
                total += h - l
        return total

    def periodic_overlap(a, bb, pattern, period):
        w_measure = sum(hi - lo for lo, hi in pattern)
        ia, ib = a // period, bb // period
        if ia == ib:
            return window_overlap(a - ia * period, bb - ia * period, pattern)
        head = window_overlap(a - ia * period, period, pattern)
        tail = window_overlap(F(0), bb - ib * period, pattern)
        return head + tail + (ib - ia - 1) * w_measure

    bw = b.intersect(p.window)
    out = [p(b.intersect(c_set))]
    pattern = [(F(a), F(bb)) for a, bb in c_set.intervals]
    period = F(1)
    for _ in range(1, n):
        period = period / 2
        pattern = [(a / 2, bb / 2) for a, bb in pattern]
        total = F(0)
        for a, bb in bw.intervals:
            total += periodic_overlap(F(a), F(bb), pattern, period)
        out.append(total)
    return out


@pytest.mark.parametrize("b,c_set,window", [
    ([(F(1, 3), F(5, 7))], [(F(1, 5), F(1, 2)), (F(2, 3), 1)], [(0, 1)]),
    ([(0, F(1, 3)), (F(5, 7), 1)], [(F(1, 3), F(5, 7))],
     [(F(1, 7), F(6, 7))]),
    ([(F(1, 11), F(10, 13))], [(F(3, 7), F(4, 7))], [(F(1, 9), 1)]),
    ([(0.1, 0.7)], [(F(1, 3), 0.9)], [(0, 1)]),
    ([(F(1, 3), 1)], [], [(0, 1)]),
    ([], [(F(1, 3), F(5, 7))], [(0, 1)]),
], ids=["thirds-sevenths", "two-pieces-window", "elevenths", "floats",
        "empty-c", "empty-b"])
def test_doubling_long_horizon_matches_parent_tiling(b, c_set, window):
    mp = PiecewiseAffineMap.doubling()
    p = RestrictedLebesgue(IntervalSet(window, c=1))
    b, c_set = IntervalSet(b, c=1), IntervalSet(c_set, c=1)
    want = _parent_doubling_correlations(p, b, c_set, 300)
    got = correlation_sequence(p, mp, b, c_set, 300)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def test_generic_expanding_map_honours_budget():
    mp = PiecewiseAffineMap.doubling_paste()
    b = IntervalSet([(0, 1)], c=2)
    p = RestrictedLebesgue(IntervalSet([(0, 2)], c=2))
    correlation_sequence(p, mp, b, b, 25)  # 24 preimage steps allowed
    with pytest.raises(BudgetError):
        correlation_sequence(p, mp, b, b, 26)


# --- orbit averages ---------------------------------------------------------


def test_orbit_average_constant_function():
    mp = PiecewiseAffineMap.rotation_swap()
    f = PiecewiseConstant([0, 2], [F(3)], c=2)
    assert abs(orbit_average(mp, f, 0.2, 100) - 3) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["rotation", "rotation_swap"]),
       st.floats(0.001, 0.999), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 400), st.data())
@example("rotation_swap", GOLDEN, 0.1234 / 2, 300, None)
@example("rotation_swap", GOLDEN, 0.777 / 2, 300, None)
def test_orbit_average_fast_path_matches_direct_loop(kind, alpha, start, n,
                                                     data):
    if kind == "rotation":
        mp, c = PiecewiseAffineMap.rotation(alpha), 1
    else:
        mp, c = PiecewiseAffineMap.rotation_swap(alpha), 2
    x0 = start * c
    s = IntervalSet([(F(1, 4), F(5, 4))], c=2) if data is None else \
        data.draw(exact_sets(c).filter(lambda s: s.intervals))
    f = PiecewiseConstant.indicator(s)
    try:
        fast = orbit_average(mp, f, x0, n)
    except BoundaryHitError:
        reject()
    edges = [float(v) for v in f.cuts] + [float(br[0]) for br in mp.branches]
    x, total = x0, 0.0
    for _ in range(n):
        # the loop's rounding error grows with each step, so an orbit
        # point this close to a cut may land on either side of it
        assume(all(abs(x - e) > 1e-9 for e in edges))
        total += float(f(x))
        x = mp.apply(x)
    # f takes the values 0 and 1, so both sums are exact counts
    assert fast == total / n


@pytest.mark.parametrize("x", [0.2, F(1, 5)])
@pytest.mark.parametrize("n", [0, -1])
def test_orbit_averages_reject_empty_horizon(x, n):
    mp = PiecewiseAffineMap.rotation_swap()
    f = PiecewiseConstant([0, 2], [F(3)], c=2)
    with pytest.raises(ValueError, match="n >= 1"):
        orbit_average(mp, f, x, n)
    half = PiecewiseConstant.indicator(IntervalSet([(0, F(1, 2))], c=1))
    with pytest.raises(ValueError, match="n >= 1"):
        polynomial_orbit_average(half, lambda i: i, BitstreamPoint(4, 64), n)


def test_orbit_average_equidistributes_on_rotation_swap():
    mp = PiecewiseAffineMap.rotation_swap()
    win = IntervalSet([(0, F(1, 2))], c=2)
    f = PiecewiseConstant.indicator(win)
    avg = orbit_average(mp, f, 0.31, 50_000)
    assert abs(avg - 0.25) <= 2e-3


# --- bitstream points -------------------------------------------------------


def test_bitstream_value_reads_prefix_bits():
    x = BitstreamPoint(seed=1, budget=64)
    bits = [x.bit(k) for k in range(10)]
    v = x.value_at(3, 7)
    expect = sum(F(bits[3 + j], 2 ** (j + 1)) for j in range(7))
    assert v == expect


def test_bitstream_is_deterministic_per_seed():
    a = BitstreamPoint(seed=9, budget=128)
    b = BitstreamPoint(seed=9, budget=128)
    assert [a.bit(k) for k in range(50)] == [b.bit(k) for k in range(50)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 64), st.integers(1, 5000))
@example(7, 1)
@example(7, 33)     # budget % 8 != 0 and budget % 32 != 0
@example(7, 4999)
@example(7, 4096)
def test_bitstream_bits_are_the_getrandbits_digits(seed, budget):
    x = BitstreamPoint(seed=seed, budget=budget)
    big = random.Random(seed).getrandbits(budget)
    assert [x.bit(k) for k in range(budget)] == \
        [(big >> k) & 1 for k in range(budget)]
    with pytest.raises(BudgetError):
        x.bit(budget)
    with pytest.raises(BudgetError):
        x.value_at(budget, 1)
    with pytest.raises(BudgetError):
        x.value_at(0, budget + 1)


def test_polynomial_orbit_average_constant_and_indicator():
    f1 = PiecewiseConstant([0, 1], [F(1)], c=1)
    x = BitstreamPoint(seed=4, budget=4096)
    assert polynomial_orbit_average(f1, lambda i: i * i, x, 30) == 1
    half = PiecewiseConstant.indicator(IntervalSet([(0, F(1, 2))], c=1))
    # linear exponent reads successive bits of the stream
    avg = polynomial_orbit_average(half, lambda i: i, x, 40)
    direct = F(sum(1 - x.bit(i) for i in range(1, 41)), 40)
    assert avg == direct


def test_polynomial_orbit_average_rejects_non_dyadic_pieces():
    f = PiecewiseConstant([0, F(1, 3), 1], [F(1), F(0)], c=1)
    x = BitstreamPoint(seed=4, budget=64)
    with pytest.raises(ValueError):
        polynomial_orbit_average(f, lambda i: i, x, 8)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.fractions(0, 2, max_denominator=12), max_size=6),
       st.booleans(), st.data())
def test_piecewise_constant_picks_the_piece_a_linear_scan_picks(inner,
                                                                float_cuts,
                                                                data):
    cuts = [F(0)] + sorted(x for x in inner if 0 < x < 2) + [F(2)]
    if float_cuts:
        cuts = [float(x) for x in cuts]
    f = PiecewiseConstant(cuts, list(range(len(cuts) - 1)), c=2)
    # points below 0, at a cut (exact or float) and at or past c included
    x = data.draw(st.sampled_from(cuts) |
                  st.sampled_from([float(c) for c in cuts]) |
                  st.fractions(-1, 3, max_denominator=24) |
                  st.floats(-1, 3))
    want = 0
    for j in range(len(cuts) - 1):
        if f.cuts[j] <= x:
            want = j
    assert f(x) == want


# --- eigenfunctions ---------------------------------------------------------


def test_sign_function_is_eigenfunction_of_paste():
    mp = PiecewiseAffineMap.doubling_paste()
    f = PiecewiseConstant([0, 1, 2], [F(1), F(-1)], c=2)
    assert verify_eigenfunction(f, mp, F(-1))
    assert not verify_eigenfunction(f, mp, F(1))
    # exact labels compare exactly; float labels within FLOAT_TOL
    assert not verify_eigenfunction(f, mp, F(-1) + F(1, 10 ** 13))
    g = PiecewiseConstant([0, 1, 2], [1.0, -1.0], c=2)
    assert verify_eigenfunction(g, mp, -1 + 1e-13)


def test_constant_is_fixed_eigenfunction():
    for mp in (PiecewiseAffineMap.doubling_paste(),
               PiecewiseAffineMap.rotation_swap(F(3, 10))):
        f = PiecewiseConstant([0, 2], [F(5)], c=2)
        assert verify_eigenfunction(f, mp, F(1))


def test_non_eigenfunction_rejected():
    mp = PiecewiseAffineMap.doubling_paste()
    f = PiecewiseConstant.indicator(IntervalSet([(0, F(1, 2))], c=2))
    assert not verify_eigenfunction(f, mp, F(1))
    assert not verify_eigenfunction(f, mp, F(-1))
