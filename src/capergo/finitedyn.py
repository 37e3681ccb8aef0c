"""Dynamics of endomaps on finite spaces, with exact arithmetic.

An endomap on {0, ..., n-1} is given by its image list.  Every orbit is
eventually periodic, so Cesaro limits, invariant sigma-algebras and
skeleton measures are all finite computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numeric import close, parse
from .setfun import (Capacity, UpperProbability, core_range, in_core,
                     product_upper, subset_sums)


class Endomap:
    def __init__(self, image: Sequence[int]):
        n = len(image)
        if any(not 0 <= t < n for t in image):
            raise ValueError("image must map into the ground set")
        self.n = n
        self.image = list(image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i in range(self.n):
            if mask & (1 << self.image[i]):
                out |= 1 << i
        return out

    def product(self, other: "Endomap") -> "Endomap":
        """The map (i, j) -> (T i, S j) on indices i * other.n + j."""
        n2 = other.n
        image = [self.image[i] * n2 + other.image[j]
                 for i in range(self.n) for j in range(n2)]
        return Endomap(image)


def cycle_decomposition(t: Endomap) -> dict:
    """Terminal cycles plus per-point entry data.

    Returns {"cycles": [sorted point lists], "cycle_of": point -> cycle
    index, "entry_time": steps until the orbit first hits its cycle}.
    """
    n = t.n
    cycle_of = [-1] * n
    entry = [0] * n
    cycles: list[list[int]] = []
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        if state[start] == 2:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = t(x)
        if state[x] == 1:
            # closed a brand-new cycle inside path
            k = path.index(x)
            cyc = path[k:]
            ci = len(cycles)
            cycles.append(sorted(cyc))
            for p in cyc:  # entry time 0, as initialised
                cycle_of[p] = ci
            tail = path[:k]
        else:
            tail = path  # ran into already-classified territory
        for p in reversed(tail):
            nxt = t(p)
            cycle_of[p] = cycle_of[nxt]
            entry[p] = entry[nxt] + 1
        for p in path:
            state[p] = 2
    return {"cycles": cycles, "cycle_of": cycle_of, "entry_time": entry}


def invariant_atoms(t: Endomap) -> list[int]:
    """Atoms of {A : T^{-1} A = A}, as bitmasks.

    Each atom is the full basin of one terminal cycle: the invariance
    equation forces unions of basins and separates distinct cycles.
    """
    dec = cycle_decomposition(t)
    atoms = [0] * len(dec["cycles"])
    for p in range(t.n):
        atoms[dec["cycle_of"][p]] |= 1 << p
    return sorted(atoms)


def invariant_events(t: Endomap) -> list[int]:
    """Every event B with T^{-1} B = B: the k-th is the union of the atoms
    j with bit j of k set.  The atoms are disjoint bitmasks, so these
    unions are their subset sums."""
    return subset_sums(invariant_atoms(t), 0)


def skeleton(p: Sequence, t: Endomap) -> list:
    """Cesaro limit of the pushforwards P o T^{-i}.

    Mass starting at a point ends up spread uniformly over that point's
    terminal cycle, so the limit is supported on cycle points.
    """
    dec = cycle_decomposition(t)
    out = [Fraction(0)] * t.n
    for i, w in enumerate(p):
        cyc = dec["cycles"][dec["cycle_of"][i]]
        share = parse(w) / len(cyc)
        for c in cyc:
            out[c] = out[c] + share
    return out


def pushforward(p: Sequence, t: Endomap) -> list:
    out = [0] * t.n
    for i, w in enumerate(p):
        out[t(i)] = out[t(i)] + w
    return out


def common_cond_exp(f: Sequence, t: Endomap) -> list:
    """g(x) = average of f over the terminal cycle of x.

    This is the conditional expectation of f given the invariant algebra
    under every invariant probability at once, and the pointwise Birkhoff
    limit of f.
    """
    dec = cycle_decomposition(t)
    avg = []
    for cyc in dec["cycles"]:
        avg.append(sum((parse(f[c]) for c in cyc), Fraction(0)) / len(cyc))
    return [avg[dec["cycle_of"][i]] for i in range(t.n)]


def is_invariant_capacity(mu: Capacity, t: Endomap) -> bool:
    if mu.n != t.n:
        raise ValueError("capacity on %d points, endomap on %d" % (mu.n, t.n))
    return all(close(mu.table[t.preimage_mask(a)], mu.table[a])
               for a in range(1 << mu.n))


def ergodicity_check(mu: Capacity, t: Endomap) -> dict:
    """Invariance plus the zero-one law on invariant events.

    Ergodic means: for every invariant B, mu(B) is 0 or 1, and moreover
    mu(B) = 0 or mu(complement B) = 0.  Returns a witness mask on failure.
    """
    invariant = is_invariant_capacity(mu, t)
    full = (1 << mu.n) - 1
    witness = None
    for b in invariant_events(t):
        vb = mu.table[b]
        vc = mu.table[full ^ b]
        zero_one = (close(vb, 0) or close(vb, 1))
        null_side = (close(vb, 0) or close(vc, 0))
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
    q_of = subset_sums(q, 0)  # Q(A) for every mask A
    events = invariant_events(t)
    checks = {}

    def agrees(b):
        lo, hi = core_range(v, b)
        return close(lo, hi) and close(lo, q_of[b])

    # (a) every core element gives the same mass to invariant-atom unions
    # (trivially so when the only ones are the empty and full events)
    checks["core_agrees_on_invariants"] = \
        len(events) == 2 or all(map(agrees, events))
    # (b) Q ergodic: exactly one terminal cycle carries mass
    dec = cycle_decomposition(t)
    charged = [cyc for cyc in dec["cycles"]
               if any(not close(q[c], 0) for c in cyc)]
    checks["skeleton_ergodic"] = len(charged) == 1
    # (c) Q in core(V)
    checks["skeleton_in_core"] = in_core(v, q)
    # (d) null sets of Q and V coincide.  Q-null iff V-null holds for
    # invariant events and is what the ergodic characterisation needs; on
    # arbitrary events only V(A)=0 => Q(A)=0 is guaranteed.
    checks["v_null_implies_q_null"] = not any(
        close(va, 0) and not close(qa, 0) for va, qa in zip(v.table, q_of))
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
