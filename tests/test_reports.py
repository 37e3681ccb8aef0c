"""Pinned report bytes: every registry scenario at seed 7 must write a
report.json with the sha256 recorded here (the values the benchmark pins
in capbench/workloads.py), so a refactor that keeps the verdicts but
changes a byte of a report fails here."""

import hashlib
import sys
from fractions import Fraction

import pytest

from capergo import cli

PINNED_SHA256 = {
    "rotation-swap-ergodic":
        "f378324f8f313d9e3572facf5664ce9fcbb07ba64622cd93ef4fb68f74a7d3d1",
    "rotation-swap-birkhoff":
        "407f60a84c1aeecdc062ec0f96af86d09d7b9ef7bffda160f5a16fd5d0e7870a",
    "rotation-swap-halves":
        "fb5af619bd720ed58bbc5a4eb1f81ffe0e909601d327015857a0430c687b4aa9",
    "finite-swap-ergodic":
        "81eafe6554af8b78e305b74d308fcd5774258bd09ead540966404cdebf3bf7ab",
    "finite-swap-slln":
        "474a07eb77da3d200d774fddbdc9f32c4f0f2a22ab8f4d4f86d404f2c69e71e1",
    "choquet-independence-swap":
        "4ff3ae3c55bc0b488ec9d2fc08fb899fb6eadc04c75c5026e108bcba4f84d95e",
    "doubling-weak-mixing":
        "6cb6ea8e035b851d2ee406c208a36c73dc147babfc7884a34ceac6d2ac90cc0a",
    "doubling-paste-not-weakmixing":
        "07f2fa7338d656a61530b98e26d0ccc0b8ea4569cd5aa87b6a1960d2c0ae5213",
    "sqrt-distortion-core":
        "388f6af7d03688fdf7413353c2b5d7b1b5dc7eebe8dd55410546ea09581b2e82",
    "remark-sqrt-cesaro":
        "4ba680e41d861a29a9b2fcaca8be1d455a88bd287ebd78549be9daffed98fb12",
    "z-density-counterexample":
        "0babaa5da62a38f04ab2b4f1c3968460eb2ff8d3d918ebb134c5c7632213e0bc",
    "sqrt-moment-doubling":
        "29cb2a52e63a75add3aa2be730b10af3aaae13c649aebeaad704202790b792c2",
    "periodic-cycle-sqrt-moment":
        "1fdbafb9f03da9acca812aa2c3dee3cc88e18b9915880fd9344af94d3ce0f422",
    "polynomial-birkhoff":
        "7a61f6607d253c8f5d882ee3787a2986c171231f27c10213428fdbfb6c0d4cc8",
    "lyapunov-periodic-oracle":
        "a59614e71a90e555eade13cfec219cd7612f04f9819f41e7a296a9ce6743cd48",
    "oseledets-two-cycle":
        "195b222c8a335e0e43dd33ce969b7e0eccbab352ba04dc036347d5c7788ce515",
    "kingman-two-cycle":
        "546653e3f1dcc27fb25d212315e1c873d13d9bd47be89fdc241365a89a500365",
}


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_report_bytes_match_pin(name, tmp_path):
    assert cli.main(["run", name, "--seed", "7", "--out", str(tmp_path)]) == 0
    blob = (tmp_path / name / "report.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256[name]


# Every site where the scenarios at seed 7 turn a Fraction into a float,
# as (module, function), with the reason it may; a method is named with
# the class of its self, so one constructor's entry admits no other.
FLOAT_SITES = {
    ("capergo.cocycle", "subadditive_limit_finite"):
        "the Kingman stabilization drift is measured in floats",
    ("capergo.ergocheck", "_cesaro"):
        "float terms (float endpoints, r-th powers) are summed from "
        "Fraction(0)",
    ("capergo.ergocheck", "_remark_block_sum"):
        "the remark's float weight is applied to exact sequence values",
    ("capergo.ergocheck", "ConvergenceReport.csv_rows"):
        "CSV tables hold floats",
    ("capergo.ergocheck", "ConvergenceReport.final_deviation"):
        "float partial means are compared with an exact target",
    ("capergo.ergocheck", "IntervalSystem.q_measure"):
        "a float measure is divided by the exact circumference",
    ("capergo.ergocheck", "sqrt_moment_check"):
        "the moment bounds are float powers of P(B) and P(C)",
    ("capergo.finitedyn", "common_cond_exp"):
        "float cocycle logs are averaged from Fraction(0)",
    ("capergo.intervaldyn", "PiecewiseAffineMap.__init__"):
        "a map keeps float copies of its branches for float points",
    ("capergo.intervaldyn", "_float_ceil"):
        "the least float at or above an exact branch cut",
    ("capergo.intervaldyn", "_split_halves"):
        "the float rotation-swap closed form reads float endpoints",
    ("capergo.intervaldyn", "IntervalSet.measure"):
        "a set with float endpoints has a float measure",
    ("capergo.scenarios", "_rep_check"):
        "report deviations, tolerances and targets are floats",
    ("capergo.scenarios", "doubling_weak_mixing"):
        "the KvN density-zero extraction reads float deviations",
    ("capergo.scenarios", "kingman_two_cycle"):
        "the Kingman limit is compared with log(2) / 2 in floats",
    ("capergo.scenarios", "polynomial_birkhoff"):
        "stream averages are compared and reported as floats",
    ("capergo.setfun", "distort"):
        "the sqrt distortion of exact probabilities is a float",
}

# frames that count as the function they run in
_INNER = {"<listcomp>", "<genexpr>", "<lambda>", "<dictcomp>", "<setcomp>"}


def test_scenario_float_conversions_are_the_declared_sites(tmp_path):
    """Fraction.__float__ is wrapped to record its caller, past the
    operator fallbacks of `fractions` (a Fraction meeting a float) and
    past comprehensions and lambdas.  Every registry scenario at seed 7
    converts at exactly the declared sites: a new site, or one no longer
    reached, fails until FLOAT_SITES says so."""
    sites = set()
    real = Fraction.__float__

    def ledger(self):
        frame = sys._getframe(1)
        while (frame.f_globals.get("__name__") == "fractions"
               or frame.f_code.co_name in _INNER):
            frame = frame.f_back
        code, name = frame.f_code, frame.f_code.co_name
        if code.co_argcount and code.co_varnames[0] == "self":
            name = type(frame.f_locals["self"]).__qualname__ + "." + name
        sites.add((frame.f_globals.get("__name__"), name))
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__float__", ledger)
        for name in sorted(PINNED_SHA256):
            assert cli.main(["run", name, "--seed", "7",
                             "--out", str(tmp_path)]) == 0
    assert sorted(sites - FLOAT_SITES.keys()) == []
    assert sorted(FLOAT_SITES.keys() - sites) == []
