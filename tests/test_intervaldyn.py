import math
import random
import re
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capergo import intervaldyn
from capergo.intervaldyn import (BOUNDARY_SNAP, GOLDEN, BitstreamPoint,
                                 BoundaryHitError, BudgetError, IntervalSet,
                                 PiecewiseAffineMap, PiecewiseConstant,
                                 RestrictedLebesgue, correlation_sequence,
                                 orbit_average, polynomial_orbit_average,
                                 verify_eigenfunction)
from capergo.numeric import close

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


@pytest.mark.parametrize("build, message", [
    (lambda: IntervalSet([(0, 3)], c=2), "interval outside [0, c)"),
    (lambda: IntervalSet([(0, 1)], c=1).intersect(IntervalSet([(0, 1)])),
     "mismatched circumference"),
    (lambda: PiecewiseAffineMap.rotation_swap().preimage(
        IntervalSet([(0, 1)], c=1)), "mismatched circumference"),
    (lambda: PiecewiseAffineMap.rotation_swap(0), "alpha must lie in (0,1)"),
    (lambda: PiecewiseAffineMap.rotation_swap(1), "alpha must lie in (0,1)"),
    (lambda: BitstreamPoint(1, 8).bit(-1), "negative bit index"),
    (lambda: polynomial_orbit_average(
        PiecewiseConstant([0, 1, 2], [F(1), F(0)], c=2), lambda i: i,
        BitstreamPoint(4, 64), 8),
     "polynomial averages run on the unit circle"),
    (lambda: polynomial_orbit_average(
        PiecewiseConstant([0, 1], [F(1)], c=1), lambda i: -i,
        BitstreamPoint(4, 64), 8), "polynomial must be nonnegative"),
    (lambda: IntervalSet([], 0), "circumference c must be positive, got 0"),
    (lambda: IntervalSet([], "-1/2"),
     "circumference c must be positive, got -1/2"),
    (lambda: PiecewiseAffineMap([], c=-1),
     "circumference c must be positive, got -1"),
    (lambda: PiecewiseAffineMap([(0, 1, 1, 0)], c=0.0),
     "circumference c must be positive, got 0.0"),
    (lambda: PiecewiseConstant([0], [], c=0),
     "circumference c must be positive, got 0"),
    (lambda: PiecewiseConstant([0, -1], [F(1)], c=-1),
     "circumference c must be positive, got -1"),
    (lambda: PiecewiseAffineMap([], c=1), "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(F(1, 4), 1, 1, 0)], c=1),
     "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(0, F(1, 2), 1, 0)], c=1),
     "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(0, F(1, 2), 1, 0), (F(3, 4), 1, 1, 0)],
                                c=1), "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(0, F(3, 4), 1, 0), (F(1, 2), 1, 1, 0)],
                                c=1), "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(F(1, 2), 1, 1, 0), (0, F(1, 2), 1, 0)],
                                c=1), "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(0, 0, 1, 0), (0, 1, 1, 0)], c=1),
     "branches must tile [0, c) in order"),
    (lambda: PiecewiseAffineMap([(0, 2, 1, 0)], c=1),
     "branches must tile [0, c) in order"),
], ids=["interval-past-c", "intersect-across-circles",
        "preimage-across-circles", "swap-angle-0", "swap-angle-1",
        "negative-bit", "polynomial-on-circle-2", "negative-exponent",
        "circle-of-length-0", "circle-of-negative-length",
        "map-on-negative-circle", "map-on-float-circle-0",
        "function-on-circle-of-length-0", "function-on-negative-circle",
        "no-branches",
        "branches-start-past-0", "branches-end-before-c", "branch-gap",
        "branch-overlap", "branches-out-of-order", "empty-branch",
        "branch-past-c"])
def test_interval_inputs_are_rejected_with_pinned_message(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


@pytest.mark.parametrize("alpha", [0, 1, F(1), 1.0])
def test_rotation_by_a_whole_turn_is_the_identity(alpha):
    mp = PiecewiseAffineMap.rotation(alpha)
    assert mp.branches == [(0, 1, 1, 0)]
    for x in (0, F(1, 3), 0.75):
        assert mp.apply(x) == x


def test_indicator_of_the_empty_set_is_zero():
    f = PiecewiseConstant.indicator(IntervalSet([], 2))
    assert (f.cuts, f.values, f.c) == ([0, 2], [0], 2)
    assert f(0) == f(F(3, 2)) == 0


def test_intersection_measure():
    a = IntervalSet([(0, F(1, 2)), (1, F(3, 2))], c=2)
    b = IntervalSet([(F(3, 10), F(12, 10))], c=2)
    assert a.intersect(b).measure() == F(2, 10) + F(2, 10)


def union(a, b):
    """a | b, through the constructor's merge of overlapping pieces."""
    return IntervalSet(a.intervals + b.intervals, a.c)


def test_set_algebra_laws_random():
    rng = random.Random(21)
    for _ in range(40):
        a, b = random_set(rng), random_set(rng)
        assert union(a, b).measure() + a.intersect(b).measure() == \
            a.measure() + b.measure()


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


def tent():
    """The tent map: its second branch is the tests' only negative slope."""
    return PiecewiseAffineMap([(0, F(1, 2), 2, 0), (F(1, 2), 1, -2, 2)], c=1)


def contains(s, x):
    """Membership of x in the half-open pieces of s."""
    return any(a <= x < b for a, b in s.intervals)


def test_preimage_membership_oracle():
    rng = random.Random(22)
    maps = [PiecewiseAffineMap.rotation_swap(F(3, 10)),
            PiecewiseAffineMap.doubling_paste(),
            PiecewiseAffineMap.rotation(F(2, 7)), tent()]
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
               PiecewiseAffineMap.doubling_paste(), tent()):
        for _ in range(10):
            s = random_set(rng, c=mp.c)
            assert abs(float(mp.preimage(s).measure() - s.measure())) <= 1e-12


def test_preimage_distributes_over_union_and_complement():
    rng = random.Random(24)
    mp = PiecewiseAffineMap.doubling_paste()
    empty, whole = IntervalSet([], mp.c), IntervalSet([(0, mp.c)], mp.c)
    for _ in range(10):
        a, b = random_set(rng), random_set(rng)
        assert mp.preimage(union(a, b)) == \
            union(mp.preimage(a), mp.preimage(b))
        # a and b below partition [0, c): the pieces between drawn cuts,
        # alternately; their preimages partition [0, c) too
        cuts = [0] + sorted(F(rng.randint(1, 127), 64)
                            for _ in range(rng.randint(1, 6))) + [mp.c]
        pieces = list(zip(cuts, cuts[1:]))
        a, b = IntervalSet(pieces[::2], mp.c), IntervalSet(pieces[1::2], mp.c)
        assert union(a, b) == whole and a.intersect(b) == empty
        pre_a, pre_b = mp.preimage(a), mp.preimage(b)
        assert union(pre_a, pre_b) == whole
        assert pre_a.intersect(pre_b) == empty


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
    except (ValueError, BoundaryHitError, BudgetError) as exc:
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
@given(st.integers(2, 30).flatmap(
           lambda q: st.builds(F, st.integers(1, q - 1), st.just(q))),
       st.data(), st.integers(1, 30))
@example(F(1, 3), None, 4)
def test_rotation_fast_path_stays_exact_for_rational_alpha(alpha, data, n):
    """All-exact input to the rotation-swap map gives the preimage path's
    exact Fractions."""
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    if data is None:
        b, c_set = IntervalSet([(0, F(1, 2))], c=2), \
            IntervalSet([(F(1, 4), F(3, 2))], c=2)
        window = IntervalSet([(0, 1)], c=2)
    else:
        b, c_set, window = (data.draw(exact_sets(2)) for _ in range(3))
    p = RestrictedLebesgue(window)
    generic = PiecewiseAffineMap(mp.branches, c=mp.c)
    fast = correlation_sequence(p, mp, b, c_set, n)
    assert fast == correlation_sequence(p, generic, b, c_set, n)
    assert all(type(x) is F for x in fast)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.001, 0.999), st.data(), st.integers(1, 40))
def test_rotation_fast_path_matches_preimage_path_for_float_alpha(alpha, data,
                                                                  n):
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    b, c_set, window = (data.draw(exact_sets(2)) for _ in range(3))
    p = RestrictedLebesgue(window)
    generic = PiecewiseAffineMap(mp.branches, c=mp.c)
    fast = correlation_sequence(p, mp, b, c_set, n)
    slow = correlation_sequence(p, generic, b, c_set, n)
    assert len(fast) == len(slow) == n
    assert all(abs(x - y) <= 1e-12 for x, y in zip(fast, slow))


def _rot_overlap(x_pieces, y_pieces, t):
    """Measure of X intersected with the unit-circle rotate of Y by -t: the
    scalar loop that the vectorised swap terms replaced."""
    t = t % 1
    total = 0.0
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


def _scalar_swap_correlations(mp, bw, c_set, n):
    """The per-term loop over `_rot_overlap` that `_swap_correlations`
    must reproduce bit for bit."""
    alpha = float(mp.branches[0][3]) - 1
    x_low, x_up = intervaldyn._split_halves(bw.intervals)
    y0, y1 = intervaldyn._split_halves(c_set.intervals)
    out = []
    for i in range(n):
        k, odd = divmod(i, 2)
        y_low, y_up = (y1, y0) if odd else (y0, y1)
        out.append(_rot_overlap(x_low, y_low, (k + odd) * alpha) +
                   _rot_overlap(x_up, y_up, k * alpha))
    return out


@st.composite
def swap_sets(draw):
    """An IntervalSet on [0, 2) with up to 3 float pieces, whose ends are
    often quarters, so pieces touch each other, the halves' seam at 1 and
    the rotates of a quarter or half angle."""
    ends = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                                      1.75, 2.0]), st.floats(0, 2))
    return IntervalSet(draw(st.lists(st.tuples(ends, ends), max_size=3)),
                       c=2)


def _bits(terms):
    assert all(type(x) is float for x in terms)
    return [x.hex() for x in terms]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.5, 0.25, 0.75, GOLDEN]),
                 st.floats(0.001, 0.999)),
       swap_sets(), swap_sets(), swap_sets(), st.integers(1, 40),
       st.sampled_from([1, 2, 7, intervaldyn.SWAP_CHUNK]))
@example(0.5, IntervalSet([(0.25, 1.5)], c=2), IntervalSet([(0.5, 2.0)], c=2),
         IntervalSet([(0, 2)], c=2), 2 * intervaldyn.SWAP_CHUNK + 3,
         intervaldyn.SWAP_CHUNK)
@example(GOLDEN, IntervalSet([(0.1, 0.7), (1.2, 1.9)], c=2),
         IntervalSet([(0.3, 1.6)], c=2), IntervalSet([(0, 2)], c=2), 3000,
         intervaldyn.SWAP_CHUNK)
@example(0.25, IntervalSet([], c=2), IntervalSet([(0.75, 1.25)], c=2),
         IntervalSet([(0, 2)], c=2), 9, 2)
def test_swap_terms_equal_the_scalar_loop_bit_for_bit(alpha, b, c_set, window,
                                                      n, chunk):
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    bw = b.intersect(window)
    want = _scalar_swap_correlations(mp, bw, c_set, n)
    with unittest.mock.patch.object(intervaldyn, "SWAP_CHUNK", chunk):
        got = intervaldyn._swap_correlations(mp, bw, c_set, n)
    assert _bits(got) == _bits(want)


def test_rotation_swap_closed_form_runs_only_on_float_inputs(monkeypatch):
    calls = []
    closed_form = intervaldyn._swap_correlations

    def spy(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(intervaldyn, "_swap_correlations", spy)
    whole = IntervalSet([(0, 2)], c=2)
    lower = IntervalSet([(0, 1)], c=2)
    b = IntervalSet([(0, F(1, 2))], c=2)
    c_set = IntervalSet([(F(1, 4), F(3, 2))], c=2)
    cases = [  # alpha, B, C, window, whether the closed form runs
        (0.3, b, c_set, whole, True),
        (F(3, 10), b, IntervalSet([(0.25, 1.5)], c=2), whole, True),
        (F(3, 10), IntervalSet([(0.5, 1.5)], c=2), c_set, whole, True),
        # a float end of B outside the window is cut away
        (F(3, 10), IntervalSet([(0, 1.5)], c=2), c_set, lower, False),
        (F(3, 10), b, c_set, whole, False),
    ]
    for alpha, bb, cc, window, closed in cases:
        calls.clear()
        terms = correlation_sequence(RestrictedLebesgue(window),
                                     PiecewiseAffineMap.rotation_swap(alpha),
                                     bb, cc, 5)
        assert len(calls) == closed
        assert all(type(x) is (float if closed else F) for x in terms)


def test_inputs_off_the_maps_circle_are_rejected():
    # the closed forms read such inputs as if they lay on the map's circle
    swap = PiecewiseAffineMap.rotation_swap(0.3)
    f = PiecewiseConstant([0, F(1, 3), 1], [0, 1], c=1)
    for x in (0.2, F(1, 5)):
        with pytest.raises(ValueError, match="mismatched circumference"):
            orbit_average(swap, f, x, 999)
    g = PiecewiseConstant([0, 1, 2], [0, 1], c=2)
    for x in (2.5, -0.1, math.nan, F(5, 2)):
        with pytest.raises(ValueError, match="point outside"):
            orbit_average(swap, g, x, 10)
    one = IntervalSet([(0, F(1, 2))], c=1)
    two = IntervalSet([(0, 1)], c=2)
    cases = [  # map, B, C, window
        (swap, two, one, IntervalSet([(0, 2)], c=2)),
        (swap, one, one, IntervalSet([(0, 1)], c=1)),
        (PiecewiseAffineMap.doubling(), two, two,
         IntervalSet([(0, 2)], c=2)),
    ]
    for mp, b, c_set, window in cases:
        for m in (mp, PiecewiseAffineMap(mp.branches, c=mp.c)):
            with pytest.raises(ValueError, match="mismatched circumference"):
                correlation_sequence(RestrictedLebesgue(window), m, b,
                                     c_set, 3)


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


# up to 3 pieces of a set on [0, 1), each endpoint a rational of
# denominator up to 96 or a float
_mixed_ends = st.one_of(st.fractions(0, 1, max_denominator=96),
                        st.floats(0, 1))
_mixed_pieces = st.lists(st.tuples(_mixed_ends, _mixed_ends), max_size=3)


@settings(max_examples=200, deadline=None)
@given(_mixed_pieces, _mixed_pieces, _mixed_pieces, st.integers(1, 60))
@example([(F(1, 3), F(5, 7))], [], [(0, 1)], 20)  # empty C
@example([], [(F(1, 3), F(5, 7))], [(0, 1)], 20)  # empty B
# the window cuts B at 1/2 and 5/6
@example([(F(1, 5), F(4, 5)), (F(6, 7), 1)], [(F(1, 3), F(2, 3))],
         [(F(1, 2), F(5, 6))], 40)
@example([(0.1, 0.7)], [(F(1, 3), 0.9)], [(0, 1)], 60)
def test_doubling_integer_carry_matches_parent_tiling(b, c_set, window, n):
    """On mixed rational and float endpoints, every term, and its type, is
    the rescaled-tiling loop's."""
    b, c_set, window = (IntervalSet(s, c=1) for s in (b, c_set, window))
    p = RestrictedLebesgue(window)
    got = correlation_sequence(p, PiecewiseAffineMap.doubling(), b, c_set, n)
    want = _parent_doubling_correlations(p, b, c_set, n)
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
@given(st.floats(0.001, 0.999), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 400), st.data())
@example(GOLDEN, 0.1234 / 2, 300, None)
@example(GOLDEN, 0.777 / 2, 300, None)
# a start on a cut of f, which the loop reads without a boundary check
@example(GOLDEN, 0.25, 10, IntervalSet([(0, F(1, 2))], c=2))
# a start just below the cut 1/3, at the float nearest to it
@example(GOLDEN, float(F(1, 3)) / 2, 300, IntervalSet([(F(1, 3), 1)], c=2))
# a start on a branch cut: both paths raise
@example(0.5, 0.25, 10, None)
def test_orbit_average_fast_path_matches_direct_loop(alpha, start, n, data):
    """The vectorised swap average has the outcome of the loop over the
    same branches as a plain map: the same value, or the same exception."""
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    loop_map = PiecewiseAffineMap(mp.branches, c=mp.c)
    x0 = start * 2
    if data is None:
        s = IntervalSet([(F(1, 4), F(5, 4))], c=2)
    elif isinstance(data, IntervalSet):
        s = data
    else:
        s = data.draw(exact_sets(2).filter(lambda s: s.intervals))
    f = PiecewiseConstant.indicator(s)
    edges = [float(v) for v in f.cuts] + [float(br[0]) for br in mp.branches]
    x = x0
    for i in range(n):
        # the two paths compute the orbit with different rounding, and the
        # loop's error grows with each step, so a later orbit point this
        # close to a cut may land on either side of it; the start is the
        # same float on both
        assume(i == 0 or all(abs(x - e) > 1e-9 for e in edges))
        try:
            x = loop_map.apply(x)
        except BoundaryHitError:
            break
    # f takes the values 0 and 1, so both sums are exact counts
    assert _outcome(orbit_average, mp, f, x0, n) == \
        _outcome(orbit_average, loop_map, f, x0, n)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 3000),
       st.lists(st.one_of(st.fractions(-3, 3, max_denominator=12),
                          st.floats(-3.0, 3.0)), min_size=3, max_size=3))
# values 1/3, 1/7 and 2/3, whose pairwise sum differs from the loop's
@example(GOLDEN, 0.1234 / 2, 3000, [F(1, 3), F(1, 7), F(2, 3)])
@example(GOLDEN, 0.777 / 2, 1001, [F(1, 3), F(1, 7), F(2, 3)])
def test_orbit_average_fast_path_adds_like_the_loop(alpha, start, n,
                                                    values):
    """With values other than 0 and 1, the vectorised swap average adds
    f's values left to right, as the loop does, to the same float."""
    mp = PiecewiseAffineMap.rotation_swap(alpha)
    loop_map = PiecewiseAffineMap(mp.branches, c=mp.c)
    f = PiecewiseConstant([0, F(1, 2), F(3, 2), 2], values, c=2)
    x0 = start * 2
    edges = [float(v) for v in f.cuts] + [float(br[0]) for br in mp.branches]
    x = x0
    for i in range(n):
        # as in the test above: later orbit points this close to a cut may
        # land on either side of it on the two paths
        assume(i == 0 or all(abs(x - e) > 1e-9 for e in edges))
        try:
            x = loop_map.apply(x)
        except BoundaryHitError:
            break
    assert _outcome(orbit_average, mp, f, x0, n) == \
        _outcome(orbit_average, loop_map, f, x0, n)


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
    r = x.digits(3, 7)
    expect = sum(F(bits[3 + j], 2 ** (j + 1)) for j in range(7))
    assert type(r) is int and F(r, 2 ** 7) == expect


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
        x.digits(budget, 1)
    with pytest.raises(BudgetError):
        x.digits(0, budget + 1)


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


def _fraction_polynomial_orbit_average(f, p, x, n):
    """The loop the integer reads replaced: each read is the dyadic
    Fraction of depth bits, f is evaluated there, and f's values are added
    in the order of the reads."""
    if n < 1:
        raise ValueError("need n >= 1")
    if f.c != 1:
        raise ValueError("polynomial averages run on the unit circle")
    depth = max(intervaldyn._dyadic_depth(f), 1)
    total = F(0)
    for i in range(1, n + 1):
        m = p(i)
        if m < 0:
            raise ValueError("polynomial must be nonnegative")
        if m + depth > x.budget:
            raise BudgetError("bit budget exceeded")
        num = 0
        for j in range(depth):
            num = (num << 1) | x.bit(m + j)
        total += f(F(num, 1 << depth))
    return total / n


@st.composite
def dyadic_functions(draw):
    """(cuts, values) of a function on [0, 1) with cuts k/16 (as Fractions
    or as floats), sometimes one more cut at 1/3, and values that are
    ints, Fractions or floats."""
    inner = {F(k, 16) for k in draw(st.sets(st.integers(1, 15), max_size=5))}
    if draw(st.integers(0, 7)) == 0:
        inner.add(F(1, 3))
    cuts = [F(0)] + sorted(inner) + [F(1)]
    if draw(st.booleans()):
        cuts = [float(x) for x in cuts]
    value = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=12),
                      st.floats(-3, 3))
    values = draw(st.lists(value, min_size=len(cuts) - 1,
                           max_size=len(cuts) - 1))
    return cuts, values


@settings(max_examples=300, deadline=None)
@given(dyadic_functions(), st.tuples(st.integers(0, 3), st.integers(0, 3),
                                     st.integers(-4, 4)),
       st.integers(0, 2 ** 32), st.integers(1, 400), st.integers(1, 30))
# depth-3 cut at 3/8 with exact values; then float values, added in order
@example(([0, F(3, 8), 1], [F(1, 3), F(2, 7)]), (1, 0, 0), 7, 4000, 30)
@example(([0, F(3, 8), F(1, 2), 1], [0.1, F(1, 3), 0.7]), (0, 1, 0), 7, 400,
         30)
# the two error paths: a negative exponent, then a read past the budget
@example(([0, F(3, 8), 1], [0, 1]), (0, 1, -3), 7, 400, 10)
@example(([0, F(3, 8), 1], [0, 1]), (1, 0, 0), 7, 50, 10)
def test_polynomial_integer_reads_match_fraction_loop(pieces, coeffs, seed,
                                                      budget, n):
    """The same value, of the same type and bit for bit when it is a
    float, or the same exception with the same message."""
    f = PiecewiseConstant(*pieces, c=1)
    a, b, c = coeffs

    def p(i):
        return a * i * i + b * i + c

    x = BitstreamPoint(seed, budget)
    assert _outcome(polynomial_orbit_average, f, p, x, n) == \
        _outcome(_fraction_polynomial_orbit_average, f, p, x, n)


@pytest.mark.parametrize("cuts, values, message", [
    ([0, 1, 2], [F(1)], "need one value per piece"),
    ([F(1, 2), 2], [F(1)], "pieces must cover [0, c)"),
    ([0, 1], [F(1)], "pieces must cover [0, c)"),
    ([0, 1, 1, 2], [F(1), F(2), F(3)], "cuts must increase"),
], ids=["values-short", "starts-past-0", "ends-before-c", "repeated-cut"])
def test_piecewise_constant_rejects_malformed_pieces(cuts, values, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        PiecewiseConstant(cuts, values, c=2)


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


def test_eigenfunction_rejects_a_function_on_another_circle():
    f = PiecewiseConstant([0, 1], [F(1)], c=1)
    with pytest.raises(ValueError, match="^mismatched circumference$"):
        verify_eigenfunction(f, PiecewiseAffineMap.doubling_paste(), F(1))


def _parent_eigen_cuts(f, mp):
    """The refinement as first written: the cuts of the preimage of each
    piece of f, beside the branch endpoints and f's cuts."""
    cuts = set()
    for lo, hi, _, _ in mp.branches:
        cuts.add(lo)
        cuts.add(hi)
    for x in f.cuts:
        cuts.add(x)
    for j in range(len(f.values)):
        piece = IntervalSet([(f.cuts[j], f.cuts[j + 1])], f.c)
        for a, b in mp.preimage(piece).intervals:
            cuts.add(a)
            cuts.add(b)
    return sorted(cuts)


def _parent_verdict(f, mp, lam):
    """verify_eigenfunction on the parent refinement, or None where it
    raises."""
    try:
        cuts = _parent_eigen_cuts(f, mp)
        return all(close(f(mp.apply((a + b) / 2)), lam * f((a + b) / 2))
                   for a, b in zip(cuts, cuts[1:]))
    except (BoundaryHitError, ValueError):
        return None


_SLOPES = [F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(2), F(3, 2)]


@st.composite
def eigen_cases(draw):
    """An exact map on [0, c), c in {1, 2}, whose branches have slopes of
    either sign or zero and images inside [0, c], and an exact function
    with values in {1, -1, 2}."""
    c = draw(st.sampled_from([1, 2]))
    inner = draw(st.sets(st.fractions(0, c, max_denominator=12), max_size=3))
    ends = [F(0)] + sorted(inner - {0, c}) + [F(c)]
    branches = []
    for lo, hi in zip(ends, ends[1:]):
        s = draw(st.sampled_from(_SLOPES))
        a, b = sorted((s * lo, s * hi))
        assume(b - a <= c)
        shift = F(draw(st.integers(0, math.floor(12 * (c - b + a)))), 12)
        if s == 0:
            assume(shift < c)
        branches.append((lo, hi, s, shift - a))
    cuts = draw(st.sets(st.fractions(0, c, max_denominator=10), max_size=4))
    cuts = [F(0)] + sorted(cuts - {0, c}) + [F(c)]
    values = draw(st.lists(st.sampled_from([F(1), F(-1), F(2)]),
                           min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    return (PiecewiseAffineMap(branches, c=c),
            PiecewiseConstant(cuts, values, c=c))


@settings(max_examples=400, deadline=None)
@given(eigen_cases())
@example((PiecewiseAffineMap([(0, F(1, 2), 0, F(1, 4)),
                              (F(1, 2), 1, 1, 0)], c=1),
          PiecewiseConstant([0, F(1, 3), 1], [F(1), F(2)], c=1)))
@example((PiecewiseAffineMap([(0, F(1, 2), -1, F(1, 2)),
                              (F(1, 2), 1, 2, -1)], c=1),
          PiecewiseConstant([0, F(1, 3), F(2, 3), 1], [F(1), F(-1), F(2)],
                            c=1)))
def test_eigen_cuts_equal_the_parent_preimage_refinement(case):
    mp, f = case
    got = intervaldyn._eigen_cuts(f, mp)
    assert got == _parent_eigen_cuts(f, mp)
    assert all(type(x) is F for x in got)
    for lam in (F(1), F(-1)):
        assert verify_eigenfunction(f, mp, lam) == _parent_verdict(f, mp, lam)


@settings(max_examples=400, deadline=None)
@given(eigen_cases(), st.booleans(), st.sampled_from([1, -1, 1.0, -1.0]))
def test_float_eigen_verdicts_equal_the_parent_where_it_returns_one(
        case, float_f, lam):
    mp, f = case
    mp = PiecewiseAffineMap([tuple(map(float, br)) for br in mp.branches],
                            c=mp.c)
    if float_f:
        f = PiecewiseConstant([float(x) for x in f.cuts],
                              [float(v) for v in f.values], c=f.c)
    want = _parent_verdict(f, mp, lam)
    assume(want is not None)
    assert verify_eigenfunction(f, mp, lam) == want


def test_float_eigen_check_skips_the_parent_sliver_piece():
    """The parent's preimage put (s lo + t - t) / s a few ulps past the
    branch cut 1/3, and read the sliver's midpoint within BOUNDARY_SNAP of
    it.  On [0.5, 1) f is -1 and so is f o T, so lam = -1 fails."""
    mp = PiecewiseAffineMap([(0, 1 / 3, 0.25, 0.9166666666666666),
                             (1 / 3, 1, 0.25, 0.7499999999999999)], c=1)
    f = PiecewiseConstant([0, 0.5, 1], [1, -1], c=1)
    sliver = _parent_eigen_cuts(f, mp)[2]
    assert 0 < sliver - 1 / 3 < BOUNDARY_SNAP
    assert _parent_verdict(f, mp, -1) is None
    assert intervaldyn._eigen_cuts(f, mp) == [0, 1 / 3, 0.5, 1]
    assert verify_eigenfunction(f, mp, -1) is False


def test_constant_branch_adds_no_interior_cut():
    """[0, 1/2) is sent to the point 1/4, on one side of every cut of f."""
    mp = PiecewiseAffineMap([(0, F(1, 2), 0, F(1, 4)), (F(1, 2), 1, 1, 0)],
                            c=1)
    f = PiecewiseConstant([0, F(1, 3), 1], [F(1), F(2)], c=1)
    assert intervaldyn._eigen_cuts(f, mp) == [0, F(1, 3), F(1, 2), 1]
    assert verify_eigenfunction(f, mp, F(1)) is False
    assert verify_eigenfunction(PiecewiseConstant([0, 1], [F(3)], c=1), mp,
                                F(1)) is True
