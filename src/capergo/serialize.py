"""JSON input for finite-regime objects.

Rationals travel as "p/q" strings and event masks as decimal strings,
so files stay exact and diffable; values are read with `numeric.parse`.
"""

from __future__ import annotations

import json

from .numeric import parse
from .setfun import Capacity, UpperProbability


def capacity_from_json(obj: dict) -> Capacity:
    kind = obj.get("kind", "table")
    if kind == "lambda":
        return UpperProbability([[parse(x) for x in p]
                                 for p in obj["lambda"]])
    n = obj["n"]
    table = [None] * (1 << n)
    for key, val in obj["table"].items():
        table[int(key)] = parse(val)
    if any(v is None for v in table):
        raise ValueError("capacity table incomplete")
    return Capacity(n, table)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
