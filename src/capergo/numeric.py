"""The exact/float arithmetic rule shared by every capergo module.

A value is exact when it is an int or a Fraction, and a float otherwise.
Two exact values compare exactly; a comparison that involves a float
allows FLOAT_TOL.  Files and reports carry exact values as "p/q" strings.

How a finite table or vector is compared is decided for all its
entries at once, and only by `decide_arithmetic`: all-exact rows in
integers over one denominator, rows with any float entry, mixed ones
included, element by element with `close` and `le` below.
`setfun.Capacity` keeps the decision for its table.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

FLOAT_TOL = 1e-12


def is_exact(x) -> bool:
    # int first: Fraction's ABCMeta instance check is several times slower
    return isinstance(x, (int, Fraction))


def close(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= FLOAT_TOL


def le(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return a <= b
    return a <= b + FLOAT_TOL


def decide_arithmetic(rows) -> tuple:
    """(rows, one, eq, le): the rows as the finite checks compare them.

    All-exact rows come back as ints over L, the lcm of every entry's
    denominator, with one = L and integer == and <=.  Rows with any float
    entry come back unchanged, with one = 1, `close` and `le`.
    """
    if not all(map(is_exact, itertools.chain.from_iterable(rows))):
        return rows, 1, close, le
    lcm = math.lcm(*(x.denominator for row in rows for x in row))
    return ([[x.numerator * (lcm // x.denominator) for x in row]
             for row in rows], lcm, operator.eq, operator.le)


def parse(x):
    """A Fraction for an int, a Fraction or a 'p/q' string; else a float."""
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    return float(x)


def encode(x):
    """'p/q' for a Fraction; any other value passes through."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    return x
