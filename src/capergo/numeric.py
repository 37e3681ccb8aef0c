"""The exact/float arithmetic rule shared by every capergo module.

A value is exact when it is an int or a Fraction, and a float otherwise.
Two exact values compare exactly; a comparison that involves a float
allows FLOAT_TOL.  Files and reports carry exact values as "p/q" strings.

A capacity table makes this decision once, when it is built
(`setfun.Capacity`): an all-exact table is compared in integers over one
denominator, and a table with any float entry, mixed ones included, is
compared element by element with `close` and `le` below.
"""

from __future__ import annotations

from fractions import Fraction

FLOAT_TOL = 1e-12


def is_exact(x) -> bool:
    # int first: Fraction's ABCMeta instance check is several times slower
    return isinstance(x, (int, Fraction))


def close(a, b, tol=FLOAT_TOL) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= tol


def le(a, b, tol=FLOAT_TOL) -> bool:
    if is_exact(a) and is_exact(b):
        return a <= b
    return a <= b + tol


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
