import math
import random
from fractions import Fraction

import pytest

from capergo.finitedyn import (Endomap, birkhoff_average, common_cond_exp,
                               cycle_decomposition, ergodic_skeleton,
                               ergodicity_check, invariant_atoms,
                               is_invariant_capacity, pushforward, skeleton,
                               weak_mixing_check)
from capergo.setfun import UpperProbability, core_range, core_vertices

F = Fraction


def dirac(n, i):
    return [F(1) if j == i else F(0) for j in range(n)]


def transient_and_period(t):
    """Steps until every orbit has reached its cycle, and the lcm of the
    cycle lengths: every orbit is periodic with that period afterwards."""
    dec = cycle_decomposition(t)
    return max(dec["entry_time"]), math.lcm(*map(len, dec["cycles"]))


# --- cycle structure --------------------------------------------------------


def test_cycle_decomposition_tail_into_swap():
    t = Endomap([1, 2, 1])
    dec = cycle_decomposition(t)
    assert dec["cycles"] == [[1, 2]]
    assert dec["entry_time"] == [1, 0, 0]
    assert dec["cycle_of"][0] == dec["cycle_of"][1] == dec["cycle_of"][2] == 0


def test_cycle_decomposition_identity():
    dec = cycle_decomposition(Endomap([0, 1, 2]))
    assert dec["cycles"] == [[0], [1], [2]]
    assert dec["entry_time"] == [0, 0, 0]


def test_cycle_decomposition_constant_map():
    dec = cycle_decomposition(Endomap([3, 3, 3, 3]))
    assert dec["cycles"] == [[3]]
    assert dec["entry_time"] == [1, 1, 1, 0]


def test_entry_time_reaches_cycle():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 7)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        dec = cycle_decomposition(t)
        on_cycle = {p for cyc in dec["cycles"] for p in cyc}
        for x in range(n):
            y = x
            for _ in range(dec["entry_time"][x]):
                y = t.image[y]
            assert y in on_cycle
            assert dec["entry_time"][x] == 0 or x not in on_cycle


def test_invariant_atoms_are_fully_invariant_partition():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 7)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        atoms = invariant_atoms(t)
        assert sum(atoms) == (1 << n) - 1  # disjoint cover
        for a in atoms:
            assert t.preimage_mask(a) == a


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


def test_birkhoff_average_converges_along_periods():
    t = Endomap([1, 2, 0])
    f = [F(0), F(3), F(3)]
    for k in (1, 2, 5):
        for x in range(3):
            assert birkhoff_average(f, t, x, 3 * k) == F(2)


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
