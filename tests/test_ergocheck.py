import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capergo import ergocheck, scenarios
from capergo.ergocheck import (FiniteSystem, IntervalSystem,
                               block_power_count, checkpoints_of,
                               choquet_independence_check,
                               extract_null_density_set,
                               independence_check, paper_sequence_6_remark,
                               process_slln_check,
                               sqrt_moment_check, squared_deviation_check)
from capergo.finitedyn import Endomap, is_invariant_capacity, skeleton
from capergo.intervaldyn import (IntervalSet, PiecewiseAffineMap,
                                 RestrictedLebesgue)
from capergo.setfun import UpperProbability, choquet_integral

F = Fraction


def swap_system():
    t = Endomap([1, 0])
    v = UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    return FiniteSystem(v, t)


# --- checkpoints ------------------------------------------------------------


def test_checkpoints_are_quarters_of_n():
    assert checkpoints_of(8) == [1, 2, 4, 8]
    assert checkpoints_of(100_000) == [12500, 25000, 50000, 100000]
    assert checkpoints_of(2) == [1, 2]


# --- independence and squared deviation -------------------------------------


def test_finite_swap_independence_exact_half():
    sys = swap_system()
    rep = independence_check(sys, [F(1), F(0)], 0b01, 0b01, 16)
    # terms alternate 1, 0; the Cesaro mean hits P(B) Q(C) = 1 * 1/2
    assert rep.exact_limit == rep.target == F(1, 2)
    rep2 = independence_check(sys, [F(1), F(0)], 0b11, 0b01, 16)
    assert rep2.exact_limit == rep2.target == F(1, 2)  # B = whole space


def test_finite_swap_squared_deviation_quarter():
    sys = swap_system()
    rep = squared_deviation_check(sys, [F(1), F(0)], 0b01, 0b01, 16)
    # terms alternate 1, 0 around center 1/2: constant deviation 1/4,
    # so the Cesaro limit works but weak mixing fails
    assert rep.exact_limit == F(1, 4)
    empty = squared_deviation_check(sys, [F(1), F(0)], 0, 0b01, 16)
    assert empty.exact_limit == 0


def test_no_skeleton_status_on_non_ergodic_system():
    t = Endomap([0, 1])
    v = UpperProbability([[F(1), F(0)], [F(0), F(1)]])
    sys = FiniteSystem(v, t)
    rep = independence_check(sys, [F(1), F(0)], 0b01, 0b01, 8)
    assert rep.status == "no-skeleton"
    for rep in (rep,
                squared_deviation_check(sys, [F(1), F(0)], 0b01, 0b01, 8),
                choquet_independence_check(sys, [1, 0], [1, 0], 8)):
        assert rep.final_deviation is None and not rep.verdict
        assert scenarios._rep_check(rep) == {
            "check": rep.name, "verdict": False,
            "details": {"status": "no-skeleton", "final_deviation": None,
                        "tolerance": 0.0, "target": 0.0}}


def test_non_ergodic_system_has_partition_witness():
    # a charged invariant event decouples the correlation from P(B)Q(C)
    t = Endomap([0, 1])
    p = [F(1, 2), F(1, 2)]
    q = skeleton(p, t)
    terms_limit = p[0] * 0  # B = {0}, C = {1}: B & T^{-i}C is empty
    assert terms_limit != p[0] * q[1]


def test_float_family_exact_limit_meets_its_target_up_to_rounding():
    # the float family's limits were 2.8e-17, 1.1e-16 and 2.2e-16 off
    # their targets and failed a zero tolerance; the same family in
    # Fractions passed
    t = Endomap([1, 2, 0])
    for p in ([0.1, 0.2, 0.7], [F(1, 10), F(1, 5), F(7, 10)]):
        sys = FiniteSystem(UpperProbability(_rotations(p)), t)
        rep = choquet_independence_check(sys, [0, 0, 1], [1, 1, 3], 30)
        assert rep.tolerance == 0 and rep.verdict
        for b, c in ((0b011, 0b110), (0b101, 0b101)):
            rep = independence_check(sys, p, b, c, 30)
            assert rep.tolerance == 0 and rep.verdict
            # a three-cycle is ergodic but not weakly mixing
            assert not squared_deviation_check(sys, p, b, c, 30).verdict


@pytest.mark.parametrize("n", [0, -1])
def test_horizon_below_one_is_rejected(n):
    leb = RestrictedLebesgue(IntervalSet([(0, 1)], c=1))
    sys = IntervalSystem(PiecewiseAffineMap.doubling(), [leb])
    half = IntervalSet([(0, F(1, 2))], c=1)
    checks = [lambda: checkpoints_of(n),
              lambda: sqrt_moment_check(sys, leb, half, half, 0.5, n),
              lambda: independence_check(sys, leb, half, half, n),
              lambda: squared_deviation_check(sys, leb, half, half, n),
              lambda: choquet_independence_check(swap_system(), [1, 0],
                                                 [1, 0], n)]
    for check in checks:
        with pytest.raises(ValueError, match="horizon"):
            check()
    with pytest.raises(ValueError, match="horizon"):
        extract_null_density_set([], 0.25)


def test_interval_independence_rotation_swap():
    mp = PiecewiseAffineMap.rotation_swap()
    whole = IntervalSet([(0, 2)], c=2)
    sys = IntervalSystem(mp, [RestrictedLebesgue(whole)])
    # normalized window: use the half-mass restriction explicitly
    b = IntervalSet([(0, F(1, 2))], c=2)
    c = IntervalSet([(1, F(17, 10))], c=2)
    p = RestrictedLebesgue(whole)
    rep = independence_check(sys, p, b, c, 20_000, tol=2e-3)
    # raw window: target is measure(B) * measure(C)/2
    assert abs(rep.target - float(F(1, 2)) * 0.7 / 2) <= 1e-12
    assert rep.verdict


def test_interval_squared_deviation_doubling_small():
    mp = PiecewiseAffineMap.doubling()
    whole = IntervalSet([(0, 1)], c=1)
    sys = IntervalSystem(mp, [RestrictedLebesgue(whole)])
    half = IntervalSet([(0, F(1, 2))], c=1)
    rep = squared_deviation_check(sys, RestrictedLebesgue(whole), half, half,
                                  24, tol=1e-2)
    assert rep.verdict


def test_report_serialization_shapes():
    rep = independence_check(swap_system(), [F(1), F(0)], 0b01, 0b01, 16)
    rows = rep.csv_rows()
    assert rows[0][0] == "checkpoint"
    assert len(rows) == len(rep.checkpoints) + 1
    check = scenarios._rep_check(rep)
    assert check == {"check": "independence", "verdict": True,
                     "details": {"status": "ok", "final_deviation": 0.0,
                                 "tolerance": 0.0, "target": 0.5}}
    assert [type(v) for v in check["details"].values()] == [str] + [float] * 3


def _parent_cesaro_partials(terms, pts, transform):
    """The per-term loop that `_cesaro`'s running sums must reproduce."""
    partials = []
    total = Fraction(0)
    k = 0
    for i, x in enumerate(terms):
        total = total + transform(x)
        if k < len(pts) and i + 1 == pts[k]:
            partials.append(total / (i + 1))
            k += 1
    return partials


def _typed_bits(x):
    return type(x), x.hex() if isinstance(x, float) else x


CESARO_TERMS = {
    "float": st.floats(0, 2),
    "fraction": st.fractions(0, 2, max_denominator=50),
    "int": st.integers(0, 3),
}
CESARO_TERMS["mixed"] = st.one_of(*CESARO_TERMS.values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CESARO_TERMS)).flatmap(
           lambda kind: st.lists(CESARO_TERMS[kind], min_size=1,
                                 max_size=200)),
       st.sampled_from(["identity", "squared", "sqrt", "zero"]),
       st.one_of(st.floats(0, 2), st.fractions(0, 2, max_denominator=50)))
@example([F(1, 3), 0.1, 2, 0.7, F(2, 7)], "squared", F(1, 4))
@example([0.1] * 9, "identity", 0.0)
@example([1, 2, 3], "zero", 0.0)
def test_cesaro_partials_equal_the_parent_loop_type_and_bits(terms, name,
                                                            center):
    transform = {"identity": lambda x: x,
                 "squared": lambda x: (x - center) ** 2,
                 "sqrt": lambda x: float(x) ** 0.5,
                 "zero": lambda x: 0}[name]
    pts = checkpoints_of(len(terms))
    got, limit = ergocheck._cesaro(terms, None, pts, transform)
    want = _parent_cesaro_partials(terms, pts, transform)
    assert limit is None
    assert [_typed_bits(x) for x in got] == [_typed_bits(x) for x in want]


# --- Choquet independence ---------------------------------------------------


def test_choquet_independence_swap_example():
    sys = swap_system()
    f = [F(1), F(0)]
    g = [F(1), F(0)]
    rep = choquet_independence_check(sys, f, g, 64)
    # g-hat is identically 1/2, so the limit integral is half the f integral
    assert rep.exact_limit == F(1, 2)
    assert rep.target == F(1, 2)
    assert rep.partials[-1] == rep.exact_limit


def test_choquet_independence_constant_g():
    rng = random.Random(30)
    for _ in range(10):
        n = rng.randint(2, 4)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        fam = [skeleton([F(1, n)] * n, t)]
        sys = FiniteSystem(UpperProbability(fam), t)
        if sys.skeleton is None:
            continue
        f = [F(rng.randint(0, 5)) for _ in range(n)]
        rep = choquet_independence_check(sys, f, [F(1)] * n, 12)
        assert rep.exact_limit == choquet_integral(sys.v, f)
        assert rep.exact_limit == rep.target


def test_choquet_independence_rejects_negative_g():
    with pytest.raises(ValueError):
        choquet_independence_check(swap_system(), [F(1), F(0)],
                                   [F(-1), F(0)], 8)


# --- sqrt moments -----------------------------------------------------------


def test_sqrt_moment_three_cycle_exact():
    r0 = 3
    t = Endomap([1, 2, 0])
    p = [F(1, 3)] * 3
    sys = FiniteSystem(UpperProbability([p]), t)
    out = sqrt_moment_check(sys, p, 0b001, 0b001, 0.5, 30)
    # terms are 1/3, 0, 0 repeating: the sqrt mean is (1/r0) sqrt(1/r0)
    assert abs(out["exact_limit"] - math.sqrt(1 / r0) / r0) <= 1e-12
    assert out["lower"] - 1e-12 <= out["exact_limit"] <= out["upper"] + 1e-12


def test_sqrt_moment_doubling_inside_bounds():
    mp = PiecewiseAffineMap.doubling()
    whole = IntervalSet([(0, 1)], c=1)
    sys = IntervalSystem(mp, [RestrictedLebesgue(whole)])
    b = IntervalSet([(0, F(1, 2))], c=1)
    c = IntervalSet([(F(1, 4), F(3, 4))], c=1)
    out = sqrt_moment_check(sys, RestrictedLebesgue(whole), b, c, 0.5, 400)
    assert out["verdict"]


def test_sqrt_moment_empty_event():
    sys = swap_system()
    out = sqrt_moment_check(sys, [F(1), F(0)], 0, 0b01, 0.5, 16)
    assert out["exact_limit"] == 0


def test_sqrt_moment_bounds_follow_r_on_both_regimes():
    # P(B) = P(C) = 1/2 on both systems, so both give the bounds
    # [P(B)^r P(C), P(B)^r P(C)^r] for r = 1/3
    r = 1 / 3
    lower, upper = 0.5 ** r * 0.5, 0.5 ** r * 0.5 ** r
    whole = IntervalSet([(0, 1)], c=1)
    leb = RestrictedLebesgue(whole)
    sys = IntervalSystem(PiecewiseAffineMap.doubling(), [leb])
    b = IntervalSet([(0, F(1, 2))], c=1)
    c = IntervalSet([(F(1, 4), F(3, 4))], c=1)
    interval = sqrt_moment_check(sys, leb, b, c, r, 64)
    finite = sqrt_moment_check(swap_system(), [F(1, 2), F(1, 2)],
                               0b01, 0b10, r, 16)
    for out in (interval, finite):
        assert abs(out["lower"] - lower) <= 1e-12
        assert abs(out["upper"] - upper) <= 1e-12
    assert set(interval) == set(finite)


# --- the block set with no natural density ----------------------------------


def _in_block_power_set(k):
    """k lies in some [2^{2j}, 2^{2j+1}] (endpoints included)."""
    if k < 1:
        return False
    e = k.bit_length() - 1
    return e % 2 == 0 or k == 1 << e  # the included right endpoint 2^{2j+1}


def test_block_power_set_count_matches_enumeration():
    for n in (1, 2, 3, 7, 64, 100, 1024, 4096):
        brute = sum(1 for k in range(0, n + 1) if _in_block_power_set(k))
        assert block_power_count(n) == brute


def test_block_power_set_subsequence_densities():
    lo = block_power_count(1 << 24) / ((1 << 25) + 1)  # window 2^{2k}
    hi = block_power_count(1 << 25) / ((1 << 26) + 1)  # window 2^{2k+1}
    assert abs(lo - 1 / 6) <= 2e-2
    assert abs(hi - 1 / 3) <= 2e-2
    assert hi - lo >= 0.1  # no density exists


# --- exception-set extraction -----------------------------------------------


def test_extraction_on_sparse_exceptional_indices():
    horizon = 1 << 18
    powers = {1 << k for k in range(20)}
    seq = [1.0 if n in powers else 0.0 for n in range(horizon)]
    out = extract_null_density_set(seq, 0.0)
    assert not out["refused"]
    assert set(out["indices"]) <= powers
    assert out["certificate"]["window_density"][-1] <= 1e-4


def test_extraction_trivial_when_sequence_converges():
    seq = [1.0 / (n + 1) for n in range(4096)]
    out = extract_null_density_set(seq, 0.0)
    assert not out["refused"]
    assert len(out["indices"]) < 64


def test_extraction_refuses_dense_deviations():
    seq = [float(n % 2) for n in range(4096)]
    out = extract_null_density_set(seq, 0.0)
    assert out["refused"]


def _parent_extract_null_density_set(seq, limit):
    """The extraction as first written: every level set built as a list
    and a set, a running-count list per level, a set per block and a
    linear count per checkpoint."""
    horizon = len(seq)
    devs = [abs(x - limit) for x in seq]
    cesaro_tail = sum(devs) / horizon
    if cesaro_tail > 1.0 / (ergocheck.KVN_LEVELS + 1):
        return {"refused": True, "cesaro_mean": cesaro_tail}

    def level_set(m):
        return [n for n, d in enumerate(devs) if d > 1.0 / m]

    def settle_index(jm, m):
        cnt = 0
        counts = [0] * (horizon + 1)
        js = set(jm)
        for n in range(horizon):
            if n in js:
                cnt += 1
            counts[n + 1] = cnt
        for n in range(horizon, 0, -1):
            if counts[n] / n > 1.0 / m:
                return n
        return 0

    blocks = []
    prev = 0
    for m in range(1, ergocheck.KVN_LEVELS + 1):
        jm = level_set(m + 1)
        start = settle_index(jm, m + 1)
        nm = max(prev + 1, start)
        if nm >= horizon:
            break
        blocks.append((prev, nm, m + 1))
        prev = nm
    blocks.append((prev, horizon, blocks[-1][2] + 1 if blocks else 2))

    j = []
    off_dev = []
    for lo, hi, m in blocks:
        lvl = set(level_set(m))
        j.extend([n for n in range(lo, hi) if n in lvl])
        off = [devs[n] for n in range(lo, hi) if n not in lvl]
        off_dev.append({"block_threshold": 1.0 / m,
                        "max_off_deviation": max(off) if off else 0.0})
    j.sort()
    pts = checkpoints_of(horizon)
    dens = [sum(1 for k in j if k < n) / n for n in pts]
    return {"refused": False, "indices": j,
            "certificate": {"checkpoints": pts, "window_density": dens,
                            "blocks": off_dev}}


@st.composite
def kvn_sequences(draw):
    """A decaying, noisy or flat deviation profile around a limit, with
    runs of spikes; spike heights include the level thresholds 1/2, 1/3
    and 1/4 exactly, and a run may start at a checkpoint index."""
    n = draw(st.integers(1, 2000))
    limit = draw(st.sampled_from([0.0, 0.25, 1e-3]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["decay", "noise", "flat"]))
    rate = draw(st.floats(0.2, 3.0))
    scale = draw(st.sampled_from([1.0, 0.3, 0.05]))
    if kind == "decay":
        devs = [scale / (k + 1) ** rate for k in range(n)]
    elif kind == "noise":
        devs = [scale * rng.random() ** (1 + rate) for _ in range(n)]
    else:
        devs = [0.0] * n
    seq = [limit + rng.choice((-1, 1)) * d for d in devs]
    starts = st.integers(0, n - 1) | st.sampled_from(
        [max(1, n // 8), max(1, n // 4), n // 2])
    for _ in range(draw(st.integers(0, 6))):
        start = min(draw(starts), n - 1)
        height = draw(st.sampled_from([1 / 2, 1 / 3, 1 / 4, 1.0, 0.2]))
        for k in range(start, min(n, start + draw(st.integers(1, 12)))):
            seq[k] = limit + height
    return seq, limit


@settings(max_examples=300, deadline=None)
@given(kvn_sequences())
@example(([0.5, 0.5] + [0.0] * 62, 0.0))  # exactly 1/2 on the first level
@example(([0.0] * 32 + [1.0] + [0.0] * 31, 0.0))  # spike at index N/2
@example(([0.0] * 9 + [1 / 3] + [0.0] * 90, 0.0))
def test_extraction_matches_parent_extraction(case):
    seq, limit = case
    assert extract_null_density_set(seq, limit) == \
        _parent_extract_null_density_set(seq, limit)


# --- the no-limit sqrt sequence ---------------------------------------------


def remark_sequence_value(i: int) -> Fraction:
    """Term a_i: 1/4 on blocks (2^{2k-1}, 2^{2k}], else 1/2 / 0 alternating."""
    e = (i - 1).bit_length()  # smallest e with i <= 2^e
    if e % 2 == 0:
        return Fraction(1, 4)
    return Fraction(1, 2) if i % 2 == 0 else Fraction(0)


def test_remark_sequence_block_sums_match_brute_force():
    for n in (1, 3, 16, 255, 256, 257, 1024):
        brute_sqrt = sum(math.sqrt(float(remark_sequence_value(i)))
                         for i in range(1, n + 1))
        brute_plain = sum(float(remark_sequence_value(i))
                          for i in range(1, n + 1))
        assert abs(ergocheck._remark_block_sum(n, lambda a: math.sqrt(float(a)))
                   - brute_sqrt) <= 1e-9
        assert abs(ergocheck._remark_block_sum(n, float) - brute_plain) <= 1e-9


def test_remark_sequence_two_subsequence_limits():
    out = paper_sequence_6_remark(12)
    t = out["targets"]
    assert abs(out["sqrt_cesaro_even_window"] - t["even"]) <= 1e-3
    assert abs(out["sqrt_cesaro_odd_window"] - t["odd"]) <= 1e-3
    assert abs(out["plain_cesaro"] - t["plain"]) <= 1e-3
    assert abs(t["even"] - t["odd"]) >= 0.04  # genuinely different limits


def test_remark_sequence_budget():
    with pytest.raises(ValueError):
        paper_sequence_6_remark(15)


# --- stationary process SLLN ------------------------------------------------


def test_slln_on_swap():
    sys = swap_system()
    out = process_slln_check(sys, [F(1), F(0)], 3)
    assert out["stationary"]
    assert out["slln"]["verdict"]
    assert out["slln"]["target"] == F(1, 2)
    assert out["slln"]["failure_mask"] == 0


def test_slln_constant_observable():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(2, 5)
        t = Endomap([rng.randrange(n) for _ in range(n)])
        fam = [skeleton([F(1, n)] * n, t)]
        sys = FiniteSystem(UpperProbability(fam), t)
        out = process_slln_check(sys, [F(2)] * n, 2)
        assert out["stationary"]
        if sys.skeleton is not None:
            assert out["slln"]["verdict"]


def test_slln_detects_non_stationary_process():
    t = Endomap([1, 1])
    v = UpperProbability([[F(1), F(0)]])  # not invariant under T
    sys = FiniteSystem(v, t)
    out = process_slln_check(sys, [F(1), F(0)], 2)
    assert not out["stationary"]


def _rotations(p):
    return [p[k:] + p[:k] for k in range(len(p))]


def test_slln_float_envelope_meets_its_exact_limits():
    # the float target 1.6666666666666665 must match the exact limits 5/3
    t = Endomap([1, 2, 0])
    sys = FiniteSystem(UpperProbability(_rotations([0.1, 0.2, 0.7])), t)
    out = process_slln_check(sys, [1, 2, 2], 1)
    assert out["stationary"]
    assert out["slln"]["failure_mask"] == 0
    assert out["slln"]["verdict"] is True


def test_slln_float_invariant_envelope_is_stationary():
    t = Endomap([1, 2, 3, 0])
    v = UpperProbability(_rotations([0.1, 0.2, 0.3, 0.4]))
    assert is_invariant_capacity(v, t)
    out = process_slln_check(FiniteSystem(v, t), [0, 0, 0, 1], 1)
    assert out["stationary"] is True
    assert out["witness"] is None
    assert out["slln"]["verdict"] is True


def test_slln_depth_budget():
    with pytest.raises(ValueError):
        process_slln_check(swap_system(), [F(1), F(0)], 9)
