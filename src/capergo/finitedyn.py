"""Dynamics of endomaps on finite spaces, with exact arithmetic.

An endomap on {0, ..., n-1} is given by its image list.  Every orbit is
eventually periodic, so Cesaro limits, invariant sigma-algebras and
skeleton measures are all finite computations.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Sequence

from .numeric import decide_arithmetic, parse
from .setfun import Capacity, UpperProbability, product_upper, subset_sums


class Endomap:
    """A map of {0, ..., n-1} into itself, held as its image tuple.

    It is immutable, so the table of every preimage mask, the cycle
    decomposition and the invariant events are each built once, on first
    use.
    """

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        if any(not 0 <= t < n for t in image):
            raise ValueError("image must map into the ground set")
        self._image = image

    @property
    def image(self) -> tuple:
        return self._image

    @property
    def n(self) -> int:
        return len(self._image)

    def __call__(self, i: int) -> int:
        return self._image[i]

    @functools.cached_property
    def preimages(self) -> list[int]:
        """T^{-1}A for every mask A.  The preimages of single points are
        disjoint, so each union is their subset sum."""
        points = [0] * self.n
        for i, j in enumerate(self._image):
            points[j] |= 1 << i
        return subset_sums(points, 0)

    @functools.cached_property
    def decomposition(self) -> dict:
        """cycle_decomposition(self); read it, do not change it."""
        return cycle_decomposition(self)

    @functools.cached_property
    def invariant_events(self) -> list[int]:
        """Every event B with T^{-1} B = B: the k-th is the union of the
        atoms j with bit j of k set.  The atoms are disjoint bitmasks, so
        these unions are their subset sums.  Read it, do not change it."""
        return subset_sums(invariant_atoms(self), 0)

    def product(self, other: "Endomap") -> "Endomap":
        """The map (i, j) -> (T i, S j) on indices i * other.n + j."""
        n2 = other.n
        image = [self._image[i] * n2 + other.image[j]
                 for i in range(self.n) for j in range(n2)]
        return Endomap(image)


def orbit(step: Callable, x, n: int) -> list:
    """The first n points x, step(x), ..., step^{n-1}(x); [] for n = 0."""
    pts = [x][:n]
    for _ in range(n - 1):
        x = step(x)
        pts.append(x)
    return pts


def cycle_decomposition(t: Endomap) -> dict:
    """Terminal cycles and the cycle each point's orbit ends on.

    Returns {"cycles": [sorted point lists], "cycle_of": point -> cycle
    index}.
    """
    cycle_of = [-1] * t.n
    cycles: list[list[int]] = []
    for start in range(t.n):
        walk = {}  # point -> step, for the unclassified points walked
        x = start
        while cycle_of[x] == -1 and x not in walk:
            walk[x] = len(walk)
            x = t(x)
        if cycle_of[x] == -1:
            # the walk closed a new cycle, from its first visit of x on
            cycle_of[x] = len(cycles)
            cycles.append(sorted(list(walk)[walk[x]:]))
        for p in walk:
            cycle_of[p] = cycle_of[x]
    return {"cycles": cycles, "cycle_of": cycle_of}


def invariant_atoms(t: Endomap) -> list[int]:
    """Atoms of {A : T^{-1} A = A}, as bitmasks.

    Each atom is the full basin of one terminal cycle: the invariance
    equation forces unions of basins and separates distinct cycles.
    """
    dec = t.decomposition
    atoms = [0] * len(dec["cycles"])
    for p in range(t.n):
        atoms[dec["cycle_of"][p]] |= 1 << p
    return sorted(atoms)


def skeleton(p: Sequence, t: Endomap) -> list:
    """Cesaro limit of the pushforwards P o T^{-i}.

    Mass starting at a point ends up spread uniformly over that point's
    terminal cycle, so the limit is supported on cycle points.
    """
    dec = t.decomposition
    out = [Fraction(0)] * t.n
    for i, w in enumerate(p):
        cyc = dec["cycles"][dec["cycle_of"][i]]
        share = parse(w) / len(cyc)
        for c in cyc:
            out[c] = out[c] + share
    return out


def common_cond_exp(f: Sequence, t: Endomap) -> list:
    """g(x) = average of f over the terminal cycle of x.

    This is the conditional expectation of f given the invariant algebra
    under every invariant probability at once, and the pointwise Birkhoff
    limit of f.
    """
    dec = t.decomposition
    avg = []
    for cyc in dec["cycles"]:
        avg.append(sum((parse(f[c]) for c in cyc), Fraction(0)) / len(cyc))
    return [avg[dec["cycle_of"][i]] for i in range(t.n)]


def is_invariant_capacity(mu: Capacity, t: Endomap) -> bool:
    if mu.n != t.n:
        raise ValueError("capacity on %d points, endomap on %d" % (mu.n, t.n))
    vals, _, eq, _ = mu.arithmetic()
    return all(map(eq, map(vals.__getitem__, t.preimages), vals))


def ergodicity_check(mu: Capacity, t: Endomap) -> dict:
    """Invariance plus the zero-one law on invariant events.

    Ergodic means: for every invariant B, mu(B) is 0 or 1, and moreover
    mu(B) = 0 or mu(complement B) = 0.  Returns a witness mask on failure.
    """
    invariant = is_invariant_capacity(mu, t)
    vals, one, eq, _ = mu.arithmetic()
    full = (1 << mu.n) - 1
    witness = None
    for b in t.invariant_events:
        vb = vals[b]
        vc = vals[full ^ b]
        zero_one = (eq(vb, 0) or eq(vb, one))
        null_side = (eq(vb, 0) or eq(vc, 0))
        if not (zero_one and null_side):
            witness = b
            break
    return {"invariant": invariant,
            "ergodic": invariant and witness is None, "witness": witness}


def ergodic_skeleton(v: UpperProbability, t: Endomap) -> dict:
    """The unique invariant probability shared by the whole core, if any.

    For an invariant ergodic upper probability the skeleton of every core
    element is the same ergodic measure Q; this builds Q and verifies
    (a) the min and max of P(B) over the core, read in closed form from V,
    both equal Q(B) on invariant-atom unions B,
    (b) Q is ergodic, (c) Q lies in the core, (d) Q(A)=0 iff V(A)=0 on
    atoms.  Also returns Q's charged cycles, the terminal cycles it puts
    mass on.  Returns {"ok": False, "reason": ...} when V is not an
    ergodic invariant upper probability.
    """
    erg = ergodicity_check(v, t)
    if not erg["invariant"]:
        return {"ok": False, "reason": "not invariant"}
    if not erg["ergodic"]:
        return {"ok": False, "reason": "not ergodic", "witness": erg["witness"]}
    q = skeleton(v.family[0], t)
    # V(A) is vals[A] / one and Q(A) is q_of[A] / one
    (vals, qs), one, eq, le_ = decide_arithmetic([v.table, q])
    q_of = subset_sums(qs, 0)
    events = t.invariant_events
    full = (1 << v.n) - 1
    checks = {}

    def agrees(b):
        # core_range's closed form: the core's min and max of P(B) are
        # 1 - V(B^c) and V(B)
        lo = one - vals[full ^ b]
        return eq(lo, vals[b]) and eq(lo, q_of[b])

    # (a) every core element gives the same mass to invariant-atom unions
    # (trivially so when the only ones are the empty and full events)
    checks["core_agrees_on_invariants"] = \
        len(events) == 2 or all(map(agrees, events))
    # (b) Q ergodic: exactly one terminal cycle carries mass
    charged = [list(cyc) for cyc in t.decomposition["cycles"]
               if any(not eq(qs[c], 0) for c in cyc)]
    checks["skeleton_ergodic"] = len(charged) == 1
    # (c) Q in core(V): a probability below V on every event
    checks["skeleton_in_core"] = eq(q_of[-1], one) and all(
        map(le_, q_of[1:], vals[1:]))
    # (d) null sets of Q and V coincide.  Q-null iff V-null holds for
    # invariant events and is what the ergodic characterisation needs; on
    # arbitrary events only V(A)=0 => Q(A)=0 is guaranteed.
    checks["v_null_implies_q_null"] = not any(
        eq(va, 0) and not eq(qa, 0) for va, qa in zip(vals, q_of))
    ok = all(checks.values())
    return {"ok": ok, "skeleton": q, "charged": charged, "checks": checks}


def weak_mixing_check(v: UpperProbability, t: Endomap,
                      product_oracle: bool = True) -> dict:
    """Weak mixing of an ergodic invariant upper probability.

    Primary route: no non-constant unimodular eigenfunction, i.e. the
    single charged cycle has length 1.  Oracle route: the product system
    (V x V, T x T) is ergodic.  Both verdicts are reported.
    """
    sk = ergodic_skeleton(v, t)
    if not sk.get("ok"):
        return {"ok": False, "reason": sk.get("reason", "skeleton failed")}
    charged = sk["charged"]
    eig_verdict = all(len(cyc) == 1 for cyc in charged)
    out = {"ok": True, "weak_mixing": eig_verdict,
           "charged_periods": sorted(len(c) for c in charged)}
    if product_oracle:
        if v.n > 4:
            raise ValueError("product oracle limited to n <= 4")
        vv = product_upper(v, v)
        tt = t.product(t)
        out["product_ergodic"] = ergodicity_check(vv, tt)["ergodic"]
    return out
