import itertools
import math
import numbers
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capergo import finitedyn
from capergo.cocycle import MatrixGen
from capergo.ergocheck import (FiniteSystem, checkpoints_of,
                               choquet_independence_check,
                               independence_check, process_slln_check,
                               squared_deviation_check)
from capergo.finitedyn import (Endomap, common_cond_exp, cycle_decomposition,
                               ergodic_skeleton, ergodicity_check,
                               invariant_atoms, is_invariant_capacity,
                               skeleton, weak_mixing_check)
from capergo.numeric import close, le
from capergo.setfun import (Capacity, UpperProbability, choquet_integral,
                            classify_capacity, core_range, core_vertices,
                            product_upper, subset_sums)

F = Fraction


def dirac(n, i):
    return [F(1) if j == i else F(0) for j in range(n)]


def pushforward(p, t):
    """The vector P o T^{-1}: the mass at i moves to T i."""
    out = [0] * t.n
    for i, w in enumerate(p):
        out[t(i)] = out[t(i)] + w
    return out


def transient_and_period(t):
    """A number of steps after which every orbit has reached its cycle (n
    will do: the first n + 1 points of an orbit repeat one), and the lcm
    of the cycle lengths: every orbit is periodic with that period
    afterwards."""
    dec = cycle_decomposition(t)
    return t.n, math.lcm(*map(len, dec["cycles"]))


# --- cycle structure --------------------------------------------------------


def test_cycle_decomposition_tail_into_swap():
    t = Endomap([1, 2, 1])
    dec = cycle_decomposition(t)
    assert dec["cycles"] == [[1, 2]]
    assert dec["cycle_of"][0] == dec["cycle_of"][1] == dec["cycle_of"][2] == 0


def test_cycle_decomposition_identity():
    dec = cycle_decomposition(Endomap([0, 1, 2]))
    assert dec["cycles"] == [[0], [1], [2]]
    assert dec["cycle_of"] == [0, 1, 2]


def test_cycle_decomposition_constant_map():
    dec = cycle_decomposition(Endomap([3, 3, 3, 3]))
    assert dec["cycles"] == [[3]]
    assert dec["cycle_of"] == [0, 0, 0, 0]


def _parent_cycle_decomposition(t):
    """The decomposition as computed with a three-state array: a walk
    marks its points in progress, and a closing pass assigns the tail
    points back to front."""
    n = t.n
    cycle_of = [-1] * n
    cycles = []
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start] == 2:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = t(x)
        if state[x] == 1:
            k = path.index(x)
            cyc = path[k:]
            ci = len(cycles)
            cycles.append(sorted(cyc))
            for p in cyc:
                cycle_of[p] = ci
            tail = path[:k]
        else:
            tail = path
        for p in reversed(tail):
            cycle_of[p] = cycle_of[t(p)]
        for p in path:
            state[p] = 2
    return {"cycles": cycles, "cycle_of": cycle_of}


def test_cycle_decomposition_matches_parent_on_every_small_endomap():
    count = 0
    for n in range(1, 6):
        for image in itertools.product(range(n), repeat=n):
            t = Endomap(image)
            assert cycle_decomposition(t) == _parent_cycle_decomposition(t)
            count += 1
    assert count == 1 + 4 + 27 + 256 + 3125


def test_invariant_atoms_are_fully_invariant_partition():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 7)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        atoms = invariant_atoms(t)
        assert sum(atoms) == (1 << n) - 1  # disjoint cover
        for a in atoms:
            assert t.preimages[a] == a


@pytest.mark.parametrize("image", [[0, 5], [-1]])
def test_endomap_rejects_an_image_outside_the_ground_set(image):
    with pytest.raises(ValueError,
                       match="^image must map into the ground set$"):
        Endomap(image)


def test_endomap_is_immutable_and_decomposes_once(monkeypatch):
    calls = []
    real = finitedyn.cycle_decomposition

    def spy(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(finitedyn, "cycle_decomposition", spy)
    t = Endomap([1, 0, 1])
    with pytest.raises(AttributeError):
        t.image = (0, 0, 0)
    assert t.image == (1, 0, 1)
    v = UpperProbability([[F(1, 2), F(1, 2), F(0)]])
    ergodicity_check(v, t)
    ergodic_skeleton(v, t)
    common_cond_exp([F(1), F(0), F(2)], t)
    skeleton([F(0), F(0), F(1)], t)
    assert invariant_atoms(t) == [0b111]
    assert calls == [t]
    assert t.decomposition == real(t)


# --- orbits -----------------------------------------------------------------


@pytest.mark.parametrize("step, x, want", [
    (Endomap([1, 2, 0, 0]), 3, [3, 0, 1, 2, 0, 1, 2]),
    (MatrixGen.periodic([np.eye(2)] * 3).step, 1, [1, 2, 0, 1, 2, 0, 1]),
], ids=["endomap", "matrix-gen"])
def test_orbit_is_the_first_n_points(step, x, want):
    for n in (0, 1, 7):
        calls = []

        def counted(y):
            calls.append(y)
            return step(y)

        assert finitedyn.orbit(counted, x, n) == want[:n]
        # the last point is not stepped from
        assert calls == want[:max(n - 1, 0)]


# --- skeletons and conditional expectations ---------------------------------


def test_skeleton_spreads_mass_over_terminal_cycle():
    t = Endomap([1, 2, 1])
    assert skeleton(dirac(3, 0), t) == [F(0), F(1, 2), F(1, 2)]


def test_skeleton_is_cesaro_limit_of_pushforwards():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 6)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        p = [F(rng.randint(0, 5)) for _ in range(n)]
        s = sum(p) or F(1)
        p = [x / s for x in p]
        transient, period = transient_and_period(t)
        # average over one full period after the transient
        cur = p
        for _ in range(transient + period):
            cur = pushforward(cur, t)
        period_avg = [F(0)] * n
        for _ in range(period):
            period_avg = [a + c for a, c in zip(period_avg, cur)]
            cur = pushforward(cur, t)
        period_avg = [a / period for a in period_avg]
        assert period_avg == skeleton(p, t)


def test_skeleton_is_invariant_and_idempotent():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(1, 6)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        p = [F(1, n)] * n
        q = skeleton(p, t)
        assert pushforward(q, t) == q
        assert skeleton(q, t) == q


def test_common_cond_exp_defining_property():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 6)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        f = [F(rng.randint(-6, 6), 2) for _ in range(n)]
        g = common_cond_exp(f, t)
        # invariance of the output
        assert [g[t.image[i]] for i in range(n)] == g
        # same integral against every invariant probability, atom by atom
        q = skeleton([F(1, n)] * n, t)
        for a in invariant_atoms(t):
            lhs = sum(q[i] * f_star for i, f_star in enumerate(g)
                      if a & (1 << i))
            # integral of the limit equals integral of f under invariant q
            rhs = sum(q[i] * f[i] for i in range(n) if a & (1 << i))
            # q is invariant, so averaging f along orbits preserves it
            assert lhs == rhs or q == pushforward(q, t)


def birkhoff_average(f, t, x, n):
    """(1/n) sum_{i<n} f(T^i x)."""
    total = F(0)
    for _ in range(n):
        total += f[x]
        x = t(x)
    return total / n


def test_common_cond_exp_is_birkhoff_average_over_a_period():
    # the Birkhoff limit at x, by definition: once the orbit of x is
    # periodic, the average over one full period
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(1, 6)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        f = [F(rng.randint(-5, 5)) for _ in range(n)]
        transient, period = transient_and_period(t)
        limits = common_cond_exp(f, t)
        for x in range(n):
            y = x
            for _ in range(transient):
                y = t(y)
            assert limits[x] == birkhoff_average(f, t, y, period)


# --- ergodicity -------------------------------------------------------------


def test_single_cycle_dirac_envelope_is_ergodic():
    t = Endomap([1, 0])
    v = UpperProbability([dirac(2, 0), dirac(2, 1)])
    rep = ergodicity_check(v, t)
    assert rep["invariant"] and rep["ergodic"]


def test_two_fixed_points_not_ergodic_with_witness():
    t = Endomap([0, 1])
    v = UpperProbability([dirac(2, 0), dirac(2, 1)])
    rep = ergodicity_check(v, t)
    assert rep["invariant"] and not rep["ergodic"]
    a = rep["witness"]
    assert v.table[a] > 0 and v.table[((1 << 2) - 1) ^ a] > 0


def test_non_invariant_detected():
    t = Endomap([1, 1])
    v = UpperProbability([dirac(2, 0)])
    rep = ergodicity_check(v, t)
    assert not rep["invariant"]


def test_ergodic_skeleton_on_swap():
    t = Endomap([1, 0])
    v = UpperProbability([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]])
    out = ergodic_skeleton(v, t)
    assert out["ok"]
    assert out["skeleton"] == [F(1, 2), F(1, 2)]
    assert all(out["checks"].values())


def test_ergodic_skeleton_reports_failure_reason():
    t = Endomap([0, 1])
    v = UpperProbability([dirac(2, 0), dirac(2, 1)])
    out = ergodic_skeleton(v, t)
    assert not out["ok"] and out["reason"]


def test_skeleton_agrees_with_core_range_on_invariant_events():
    t = Endomap([1, 0, 3, 2])  # two swaps
    fam = [[F(1, 2), F(1, 2), F(0), F(0)]]
    v = UpperProbability(fam)
    out = ergodic_skeleton(v, t)
    assert out["ok"]
    q = out["skeleton"]
    verts = core_vertices(v)
    for a in invariant_atoms(t):
        lo, hi = core_range(v, a, verts)
        qa = sum(q[i] for i in range(4) if a & (1 << i))
        assert lo == hi == qa


def test_invariance_of_capacity_helper():
    t = Endomap([1, 0])
    assert is_invariant_capacity(UpperProbability([[F(1, 2), F(1, 2)]]), t)
    assert not is_invariant_capacity(UpperProbability([dirac(2, 0)]), t)


@pytest.mark.parametrize("points, image", [(3, [1, 0]), (2, [1, 2, 0])],
                         ids=["capacity-larger", "endomap-larger"])
def test_capacity_and_endomap_on_different_ground_sets_rejected(points,
                                                                image):
    v = UpperProbability([[F(1, points)] * points])
    t = Endomap(image)
    for check in (is_invariant_capacity, ergodicity_check, ergodic_skeleton,
                  weak_mixing_check):
        with pytest.raises(ValueError, match="capacity on %d points, "
                           "endomap on %d" % (points, len(image))):
            check(v, t)


# --- weak mixing ------------------------------------------------------------


def test_swap_is_ergodic_but_not_weak_mixing():
    t = Endomap([1, 0])
    v = UpperProbability([dirac(2, 0), dirac(2, 1)])
    out = weak_mixing_check(v, t)
    assert not out["weak_mixing"]
    assert out["charged_periods"] != [1]
    assert out["product_ergodic"] is False


def test_fixed_point_system_is_weak_mixing():
    t = Endomap([0, 0])
    v = UpperProbability([dirac(2, 0)])
    out = weak_mixing_check(v, t)
    assert out["ok"] and out["weak_mixing"]
    assert out["product_ergodic"] is True


def test_weak_mixing_check_reports_a_non_ergodic_envelope():
    # both fixed points are invariant events of V-measure 1
    out = weak_mixing_check(UpperProbability([dirac(2, 0), dirac(2, 1)]),
                            Endomap([0, 1]))
    assert out == {"ok": False, "reason": "not ergodic"}


def test_product_oracle_rejects_n5_before_building_the_product(monkeypatch):
    def no_product(v1, v2):
        raise AssertionError("a %d-point product built" % (v1.n * v2.n))

    monkeypatch.setattr(finitedyn, "product_upper", no_product)
    v = UpperProbability([[F(1, 5)] * 5])
    t = Endomap([1, 2, 3, 4, 0])
    assert ergodic_skeleton(v, t)["ok"]
    with pytest.raises(ValueError,
                       match=r"^product oracle limited to n <= 4$"):
        weak_mixing_check(v, t)
    assert weak_mixing_check(v, t, product_oracle=False)["weak_mixing"] \
        is False


def test_product_oracle_agrees_with_period_criterion():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(1, 4)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        p = skeleton([F(1, n)] * n, t)
        v = UpperProbability([p])
        if not ergodic_skeleton(v, t)["ok"]:
            continue
        out = weak_mixing_check(v, t)
        assert out["weak_mixing"] == out["product_ergodic"]


def test_charged_periods_are_the_cycles_carrying_skeleton_mass():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 6)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        p = skeleton(dirac(n, rng.randrange(n)), t)
        v = UpperProbability([p])
        out = weak_mixing_check(v, t, product_oracle=False)
        assert out["ok"]
        cycles = cycle_decomposition(t)["cycles"]
        assert out["charged_periods"] == sorted(
            len(cyc) for cyc in cycles if any(p[c] != 0 for c in cyc))
        assert out["weak_mixing"] == (out["charged_periods"] == [1])


def _random_prob(rng, n, denom=12, sparse=False):
    """A random exact probability vector, drawn as criterion 3 draws it."""
    support = list(range(n))
    if sparse and n > 1:
        support = rng.sample(range(n), rng.randint(1, n))
    weights = {i: rng.randint(1, denom) for i in support}
    total = sum(weights.values())
    return [F(weights.get(i, 0), total) for i in range(n)]


def test_weak_mixing_routes_agree_and_the_skeleton_is_unique_up_to_n3():
    """On every endomap with n <= 3 and 60 families per map, drawn as in
    criterion 3 (half closed under pushforward), every ergodic instance
    has (1) the eigen verdict (charged cycles of length 1) equal to (2)
    the product oracle's and to (3) a zero squared-deviation limit for
    P = family[0] and every pair (B, C).  Q's charged cycle is the only
    terminal cycle whose uniform measure lies below V on every event."""
    verdicts = []
    for n in range(1, 4):
        for idx, image in enumerate(itertools.product(range(n), repeat=n)):
            t = Endomap(image)
            cycles = t.decomposition["cycles"]
            rng = random.Random((n, idx).__hash__())
            for _ in range(60):
                fam = [_random_prob(rng, n, sparse=rng.random() < 0.5)
                       for _ in range(rng.randint(1, 3))]
                if rng.random() < 0.5:
                    closed = []
                    for p in fam:
                        while p not in closed:
                            closed.append(p)
                            p = pushforward(p, t)
                    fam = closed
                v = UpperProbability(fam)
                if not ergodicity_check(v, t)["ergodic"]:
                    continue
                sk = ergodic_skeleton(v, t)
                assert sk["ok"], (image, fam)
                wm = weak_mixing_check(v, t)
                system = FiniteSystem(v, t)
                zero = all(
                    squared_deviation_check(system, v.family[0], b, c,
                                            1).exact_limit == 0
                    for b in range(1 << n) for c in range(1 << n))
                assert wm["weak_mixing"] == wm["product_ergodic"] == zero, \
                    (image, fam)
                below = [cyc for cyc in cycles if all(
                    F(bin(a & sum(1 << c for c in cyc)).count("1"),
                      len(cyc)) <= v.table[a] for a in range(1 << n))]
                assert below == sk["charged"], (image, fam)
                verdicts.append(zero)
    assert True in verdicts and False in verdicts


# --- differential oracle: the per-element checks ----------------------------
#
# The finite checks decide a table's arithmetic once: integer numerators
# over one denominator for an exact table, numeric.close / numeric.le per
# element once any entry is a float.  The definitions below are the
# per-element ones they replace: one preimage mask at a time, and every
# comparison through close or le.


def _preimage_mask_loop(t, mask):
    out = 0
    for i in range(t.n):
        if mask & (1 << t.image[i]):
            out |= 1 << i
    return out


def _ref_invariant(mu, t):
    return all(close(mu.table[_preimage_mask_loop(t, a)], mu.table[a])
               for a in range(1 << mu.n))


def _ref_ergodicity(mu, t):
    invariant = _ref_invariant(mu, t)
    full = (1 << mu.n) - 1
    witness = None
    for b in subset_sums(invariant_atoms(t), 0):
        vb, vc = mu.table[b], mu.table[full ^ b]
        if not ((close(vb, 0) or close(vb, 1))
                and (close(vb, 0) or close(vc, 0))):
            witness = b
            break
    return {"invariant": invariant,
            "ergodic": invariant and witness is None, "witness": witness}


def _ref_in_core(mu, p):
    if not close(sum(p, F(0)), 1):
        return False
    return all(map(le, subset_sums(p, 0)[1:], mu.table[1:]))


def _ref_skeleton_check(v, t):
    erg = _ref_ergodicity(v, t)
    if not erg["invariant"]:
        return {"ok": False, "reason": "not invariant"}
    if not erg["ergodic"]:
        return {"ok": False, "reason": "not ergodic", "witness": erg["witness"]}
    q = skeleton(v.family[0], t)
    q_of = subset_sums(q, 0)
    events = subset_sums(invariant_atoms(t), 0)

    def agrees(b):
        lo, hi = core_range(v, b)
        return close(lo, hi) and close(lo, q_of[b])

    checks = {"core_agrees_on_invariants":
              len(events) == 2 or all(map(agrees, events))}
    charged = [cyc for cyc in cycle_decomposition(t)["cycles"]
               if any(not close(q[c], 0) for c in cyc)]
    checks["skeleton_ergodic"] = len(charged) == 1
    checks["skeleton_in_core"] = _ref_in_core(v, q)
    checks["v_null_implies_q_null"] = not any(
        close(va, 0) and not close(qa, 0) for va, qa in zip(v.table, q_of))
    return {"ok": all(checks.values()), "skeleton": q, "charged": charged,
            "checks": checks}


def _ref_stationarity_witness(v, t, h, depth):
    cylinders = {}
    for x in range(v.n):
        word = []
        y = x
        for _ in range(depth):
            word.append(h[y])
            y = t(y)
        cylinders[tuple(word)] = cylinders.get(tuple(word), 0) | (1 << x)
    return next((word for word, mask in cylinders.items()
                 if not close(v.table[mask],
                              v.table[_preimage_mask_loop(t, mask)])), None)


def _cast(p, how):
    """p with every entry (float), no entry (exact) or the flagged entries
    (mixed) turned into floats."""
    if how == "exact":
        return list(p)
    if how == "float":
        return [float(x) for x in p]
    return [float(x) if f else x for x, f in zip(p, how)]


@st.composite
def _finite_systems(draw):
    """(family, endomap) on n <= 4 points.  Members are random vectors,
    skeletons of Diracs (invariant, supported on one cycle) or uniform
    on a cycle; half the families are closed under pushforward, so many
    envelopes are invariant and some ergodic.  Entries stay exact, all
    become floats, or some do."""
    n = draw(st.integers(1, 4))
    t = Endomap(draw(st.lists(st.integers(0, n - 1), min_size=n,
                              max_size=n)))
    cycles = cycle_decomposition(t)["cycles"]
    weights = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0).map(lambda w: [F(x, sum(w)) for x in w])
    on_cycle = st.sampled_from(cycles).map(
        lambda cyc: [F(int(i in cyc), len(cyc)) for i in range(n)])
    diracs = st.integers(0, n - 1).map(lambda i: skeleton(dirac(n, i), t))
    family = draw(st.lists(st.one_of(weights, on_cycle, diracs),
                           min_size=1, max_size=3))
    if draw(st.booleans()):
        closed = []
        for p in family:
            while p not in closed and len(closed) < 6:
                closed.append(p)
                p = pushforward(p, t)
        family = closed
    how = draw(st.sampled_from(["exact", "float", "mixed"]))
    if how == "mixed":
        family = [_cast(p, draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n))) for p in family]
    else:
        family = [_cast(p, how) for p in family]
    return family, t


@settings(max_examples=200, deadline=None)
@given(_finite_systems(), st.data())
# the product oracle at n = 4, as the 16-point products in capbench:
# exact and weakly mixing, exact and of period 2, and a float table
@example(([[F(1), F(0), F(0), F(0)]], Endomap([0, 0, 1, 3])), None)
@example(([[F(1, 2), F(1, 2), F(0), F(0)]], Endomap([1, 0, 1, 2])), None)
@example(([[0.25, 0.75, 0.0, 0.0], [0.75, 0.25, 0.0, 0.0]],
          Endomap([1, 0, 0, 2])), None)
# an exact envelope that is ergodic, with Q = the uniform 2-cycle
@example(([[F(1, 2), F(1, 2), F(0)]], Endomap([1, 0, 1])), None)
# ergodic on the basin of the 2-cycle {1, 2}, with four invariant events:
# V is held over 6 and Q = (0, 1/2, 1/2) over 2
@example(([[F(0), F(1, 2), F(1, 2)], [F(0), F(1, 3), F(2, 3)],
           [F(0), F(2, 3), F(1, 3)]], Endomap([0, 2, 1])), None)
# exact table over denominator 6, invariant and not ergodic
@example(([[F(1, 6), F(5, 6)], [F(5, 6), F(1, 6)]], Endomap([0, 1])), None)
# an exact envelope table whose skeleton is read from a float member:
# each float entry lies below 1/2, so max keeps the exact member's
@example(([[0.4999999999999999] * 2, [F(1, 2), F(1, 2)]], Endomap([1, 0])),
         None)
def test_finite_checks_match_per_element_definitions(system, data):
    family, t = system
    v = UpperProbability(family)
    n = v.n
    # the table itself, through Capacity's own arithmetic decision
    mu = Capacity(n, v.table)
    assert t.preimages == [_preimage_mask_loop(t, a) for a in range(1 << n)]
    for cap in (v, mu):
        assert is_invariant_capacity(cap, t) == _ref_invariant(cap, t)
        assert ergodicity_check(cap, t) == _ref_ergodicity(cap, t)
    sk = ergodic_skeleton(v, t)
    assert sk == _ref_skeleton_check(v, t)
    h = [x % 2 for x in t.image]
    for depth in (1, 2, 3):
        out = process_slln_check(FiniteSystem(v, t), h, depth)
        assert out["witness"] == _ref_stationarity_witness(v, t, h, depth)
        assert out["stationary"] == (out["witness"] is None)
    if sk.get("ok") and (n <= 3 or data is None):
        # the product oracle's envelope on up to 16 points, and the
        # per-element zero-one law on it (about 0.5 s at n = 4, so drawn
        # systems run it up to n = 3 and the examples above at n = 4)
        want = _ref_ergodicity(product_upper(v, v), t.product(t))["ergodic"]
        got = weak_mixing_check(v, t, product_oracle=True)
        assert got["product_ergodic"] == want
        assert got["weak_mixing"] == all(len(c) == 1 for c in sk["charged"])


def _parent_choquet_partials(system, f, g, n):
    """The per-step loop that `choquet_independence_check` replaced, with
    its limit and target: (partials, limit, target)."""
    pts = checkpoints_of(n)
    t, v = system.t, system.v
    m = v.n
    orbit = list(range(m))  # orbit[x] = T^i x
    running = [F(0)] * m
    partials = []
    k = 0
    for i in range(pts[-1]):
        for x in range(m):
            running[x] = running[x] + F(f[x]) * g[orbit[x]]
        orbit = [t(x) for x in orbit]
        if i + 1 == pts[k]:
            avg = [r / (i + 1) for r in running]
            partials.append(choquet_integral(v, avg))
            k += 1
    ghat = common_cond_exp(g, t)
    limit = choquet_integral(v, [F(f[x]) * ghat[x] for x in range(m)])
    target = choquet_integral(v, list(f)) * sum(
        F(g[x]) * system.skeleton[x] for x in range(m))
    return partials, limit, target


def _typed_bits(x):
    if isinstance(x, (list, tuple)):
        return [_typed_bits(y) for y in x]
    return type(x), x.hex() if isinstance(x, float) else x


@settings(max_examples=200, deadline=None)
@given(_finite_systems(), st.data())
# exact swap, a float three-cycle family with float g, and a tail into a
# fixed point with exact g
@example(([[F(1), F(0)], [F(0), F(1)]], Endomap([1, 0])),
         ([F(1), F(0)], [F(1), F(0)], 16))
@example(([[0.1, 0.2, 0.7], [0.7, 0.1, 0.2], [0.2, 0.7, 0.1]],
          Endomap([1, 2, 0])), ([0, 0, 1], [1.0, 1.0, 3.0], 30))
@example(([[F(0), F(1)]], Endomap([1, 1])), ([F(2), F(1, 3)],
                                             [F(1, 2), F(3)], 9))
def test_choquet_check_matches_the_parent_loop(system, data):
    family, t = system
    v = UpperProbability(family)
    n = v.n
    if isinstance(data, tuple):
        f, g, horizon = data
    else:
        exact = st.fractions(0, 3, max_denominator=6)
        f = data.draw(st.lists(exact, min_size=n, max_size=n))
        g = data.draw(st.lists(st.one_of(exact, st.floats(0, 3)),
                               min_size=n, max_size=n))
        horizon = data.draw(st.integers(1, 40))
    system = FiniteSystem(v, t)
    rep = choquet_independence_check(system, f, g, horizon)
    if system.skeleton is None:
        assert rep.status == "no-skeleton" and rep.partials == []
        return
    assert _typed_bits((rep.partials, rep.exact_limit, rep.target)) == \
        _typed_bits(_parent_choquet_partials(system, f, g, horizon))


# --- exactness ledger: exact finite inputs are never turned into floats -----


@st.composite
def _exact_systems(draw):
    """(family, endomap, event masks b and c, vectors f, g >= 0 and h) on
    n <= 4 points, every entry an int or a Fraction.  Members are random
    vectors or Diracs with int entries; half the families are closed
    under pushforward, so many envelopes are invariant and some
    ergodic."""
    n = draw(st.integers(1, 4))
    t = Endomap(draw(st.lists(st.integers(0, n - 1), min_size=n,
                              max_size=n)))
    weights = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0).map(lambda w: [F(x, sum(w)) for x in w])
    diracs = st.integers(0, n - 1).map(
        lambda i: [int(j == i) for j in range(n)])
    family = draw(st.lists(st.one_of(weights, diracs), min_size=1,
                           max_size=3))
    if draw(st.booleans()):
        closed = []
        for p in family:
            while p not in closed and len(closed) < 6:
                closed.append(p)
                p = pushforward(p, t)
        family = closed
    masks = st.integers(0, (1 << n) - 1)
    vector = st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(
        lambda xs: [F(x, 2) for x in xs])
    f, g, h = draw(vector), draw(vector), draw(vector)
    return family, t, draw(masks), draw(masks), f, [abs(x) for x in g], h


def _exact_numbers(x) -> bool:
    """Every number in x, through dicts, lists and tuples, is an int or a
    Fraction (bools are ints)."""
    if isinstance(x, dict):
        return all(map(_exact_numbers, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_exact_numbers, x))
    return not isinstance(x, numbers.Number) or isinstance(x, (int, F))


def _exact_finite_api(family, t, b, c, f, g, h) -> list:
    """The results of the finite API on one exact system."""
    v = UpperProbability(family)
    out = [v.table, v.arithmetic(), ergodicity_check(v, t),
           ergodic_skeleton(v, t),
           weak_mixing_check(v, t, product_oracle=v.n <= 3)]
    vertices = core_vertices(v)
    out += [vertices, core_range(v, b), classify_capacity(v),
            choquet_integral(v, f)]
    if vertices:
        out.append(core_range(v, b, vertices))
    system = FiniteSystem(v, t)
    for report in (independence_check(system, v.family[0], b, c, 16),
                   squared_deviation_check(system, v.family[0], b, c, 16),
                   choquet_independence_check(system, f, g, 16)):
        out.append([report.partials, report.target, report.exact_limit,
                    report.final_deviation, report.verdict])
    out += [system.skeleton, process_slln_check(system, h, 3)]
    return out


@settings(max_examples=400, deadline=None)
@given(_exact_systems())
# the uniform 2-cycle: an ergodic envelope whose skeleton is summed
@example(([[F(1, 2), F(1, 2)]], Endomap([1, 0]), 1, 2, [F(1), F(0)],
          [F(0), F(1)], [F(1), F(0)]))
def test_exact_finite_inputs_are_never_converted_to_float(system):
    converted = set()
    real = F.__float__

    def ledger(self):
        caller = sys._getframe(1)
        converted.add((caller.f_globals.get("__name__"),
                       caller.f_code.co_name))
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "__float__", ledger)
        results = _exact_finite_api(*system)
    assert not converted
    assert _exact_numbers(results)
