from fractions import Fraction

import numpy as np
import pytest

from capergo.numeric import is_exact


@pytest.mark.parametrize("x, exact", [
    (0, True), (-7, True), (10 ** 40, True), (True, True), (False, True),
    (Fraction(1, 3), True), (Fraction(4), True),
    (0.5, False), (-0.0, False), (float("nan"), False),
    (np.float64(0.5), False), (np.float32(0.5), False), (np.int64(3), False),
    ("1/3", False), (None, False),
])
def test_is_exact_classifies_ints_and_fractions_only(x, exact):
    assert is_exact(x) is exact
