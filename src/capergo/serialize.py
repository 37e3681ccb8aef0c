"""JSON input for finite-regime objects.

Rationals travel as "p/q" strings and event masks as decimal strings,
so files stay exact and diffable; values are read with `numeric.parse`.
Malformed input raises ValueError before anything is allocated.
"""

from __future__ import annotations

import json
import math
import re

from .numeric import parse
from .setfun import Capacity, UpperProbability

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _value(x):
    """A table or family entry: a finite number or a "p/q" string."""
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return parse(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % x) from None
    if isinstance(x, (int, float)) and not isinstance(x, bool) and \
            math.isfinite(x):
        return parse(x)
    raise ValueError("not a number or 'p/q' string: %r" % (x,))


def capacity_from_json(obj) -> Capacity:
    if not isinstance(obj, dict):
        raise ValueError("capacity file must hold a JSON object")
    kind = obj.get("kind", "table")
    if kind == "lambda":
        family = obj.get("lambda")
        if not isinstance(family, list) or \
                not all(isinstance(p, list) for p in family):
            raise ValueError("'lambda' must be a list of probability vectors")
        return UpperProbability([[_value(x) for x in p] for p in family])
    if kind != "table":
        raise ValueError("unknown capacity kind %r" % (kind,))
    n, table = obj.get("n"), obj.get("table")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("'n' must be an integer >= 1")
    if not isinstance(table, dict):
        raise ValueError("'table' must map event masks to values")
    # checked by bit length first, so a huge n costs nothing
    if len(table).bit_length() != n + 1 or len(table) != 1 << n:
        raise ValueError("'table' must have 2**n entries for n=%d" % n)
    values = [None] * len(table)
    for key, val in table.items():
        if not (key.isascii() and key.isdigit()) or int(key) >= len(values):
            raise ValueError("event mask %r out of range for n=%d" % (key, n))
        values[int(key)] = _value(val)
    if any(v is None for v in values):
        raise ValueError("capacity table incomplete")
    return Capacity(n, values)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
