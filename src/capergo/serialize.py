"""JSON input for finite-regime objects.

Rationals travel as "p/q" strings and event masks as decimal strings,
so files stay exact and diffable; values are read with `numeric.parse`.
Malformed input raises ValueError before anything is allocated.
"""

from __future__ import annotations

import json
import re
import sys

from .numeric import parse
from .setfun import Capacity, UpperProbability

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# classify_capacity scans the 2**n (2**n - 1) / 2 pairs of distinct events
# of a 2**n table, so a file's point count bounds the work
N_LIMIT = 12


def _value(x):
    """A table or family entry: a number or a "p/q" string, finite and
    within float range, so exact and float entries stay comparable."""
    v = None
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            v = parse(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % x) from None
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ValueError("too many digits in %.60r" % x) from None
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        v = parse(x)
    # nan and inf fail this test too; an int is compared, not converted
    if v is None or not abs(v) <= sys.float_info.max:
        raise ValueError("not a finite number or 'p/q' string within float "
                         "range: %.60r" % (x,))
    return v


def _check_size(n):
    if n > N_LIMIT:
        # a huge n stays symbolic: 1 << n alone could exhaust memory
        # classify_capacity scans the event pairs a < b
        sizes = (1 << n, (1 << n) * ((1 << n) - 1) // 2) if n <= 64 else \
            ("2**%d" % n, "2**%d (2**%d - 1)" % (n - 1, n))
        raise ValueError(
            "capacities limited to n <= %d points: n=%d needs a 2**n = %s "
            "entry table and 2**n (2**n - 1) / 2 = %s event pairs"
            % ((N_LIMIT, n) + sizes))


def capacity_from_json(obj) -> Capacity:
    if not isinstance(obj, dict):
        raise ValueError("capacity file must hold a JSON object")
    kind = obj.get("kind", "table")
    if kind == "lambda":
        family = obj.get("lambda")
        if not isinstance(family, list) or \
                not all(isinstance(p, list) for p in family):
            raise ValueError("'lambda' must be a list of probability vectors")
        _check_size(max(map(len, family), default=0))
        return UpperProbability([[_value(x) for x in p] for p in family])
    if kind != "table":
        raise ValueError("unknown capacity kind %r" % (kind,))
    n, table = obj.get("n"), obj.get("table")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("'n' must be an integer >= 1")
    _check_size(n)
    if not isinstance(table, dict):
        raise ValueError("'table' must map event masks to values")
    if len(table) != 1 << n:
        raise ValueError("'table' must have 2**n entries for n=%d" % n)
    values = [None] * len(table)
    key_of = {}
    for key, val in table.items():
        # leading zeros name no bit; the rest is counted before int(),
        # which refuses more than sys.get_int_max_str_digits() digits
        digits = key.lstrip("0") or "0"
        if not (key.isascii() and key.isdigit()) or len(digits) > len(
                str(len(values) - 1)) or int(digits) >= len(values):
            raise ValueError("event mask %.60r out of range for n=%d"
                             % (key, n))
        mask = int(digits)
        if mask in key_of:
            raise ValueError("keys %.60r and %.60r name the same event mask "
                             "%d" % (key_of[mask], key, mask))
        key_of[mask] = key
        values[mask] = _value(val)
    # 2**n distinct masks below 2**n: every event has its value
    return Capacity(n, values)


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None
