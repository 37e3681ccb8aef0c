"""The four capbench workloads: seeded inputs, ops and their oracles.

Every input is generated here from the workload seed with ``random`` and
numpy; capergo only ever receives the generated inputs.  A workload
hands out *blocks*: fixed-shape lists of ops whose inputs are fresh for
every block.  An op is a ``run`` callable (the timed call into capergo)
and a ``check`` callable that turns the run's output into
``(ok, digest)`` after the block has been timed.  The digest lets the
traced run prove that it produced the same outputs as the untraced one.

Each workload also names the reference parts its timings are scaled by
(``reference``, see calibrate.py) and the number of blocks after which
its block shapes repeat (``cycle``); a run ends on a whole cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from capergo import cli, cocycle, finitedyn, setfun

F = Fraction


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _rng(seed: int, name: str, block: int) -> random.Random:
    return random.Random("%d:%s:%d" % (seed, name, block))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _cli(argv):
    """cli.main with its printed output captured; returns (code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# finite-regime generation (the benchmark's own oracle code)


def _random_prob(rng, n, denom=12, sparse=False):
    support = list(range(n))
    if sparse and n > 1:
        support = rng.sample(range(n), rng.randint(1, n))
    weights = {i: rng.randint(1, denom) for i in support}
    total = sum(weights.values())
    return [F(weights.get(i, 0), total) for i in range(n)]


def _pushforward(p, image):
    out = [F(0)] * len(image)
    for i, w in enumerate(p):
        out[image[i]] += w
    return out


def _close_family(fam, image):
    closed = []
    for p in fam:
        seen = []
        cur = p
        while cur not in seen:
            seen.append(cur)
            cur = _pushforward(cur, image)
        closed.extend(seen)
    return closed


def _instance(rng, n, closed=None):
    """One (endomap, family) pair drawn like the exhaustive finite sweep:
    1-3 members, half of them sparse, half the families closed under
    pushforward."""
    image = [rng.randrange(n) for _ in range(n)]
    fam = [_random_prob(rng, n, sparse=rng.random() < 0.5)
           for _ in range(rng.randint(1, 3))]
    if closed is None:
        closed = rng.random() < 0.5
    if closed:
        fam = _close_family(fam, image)
    return image, fam


def _envelope(fam):
    """The table of max over the family of P(A), scaled by the common
    denominator L of all the members' entries so that it holds integers;
    returns (table, L)."""
    n = len(fam[0])
    scale = math.lcm(*(x.denominator for p in fam for x in p))
    table = [0] * (1 << n)
    for p in fam:
        w = [x.numerator * (scale // x.denominator) for x in p]
        sums = [0] * (1 << n)
        for a in range(1, 1 << n):
            low = a & -a
            sums[a] = sums[a ^ low] + w[low.bit_length() - 1]
            if sums[a] > table[a]:
                table[a] = sums[a]
    return table, scale


def _cycles(image):
    """Terminal cycles as sorted tuples, and the cycle index of each point."""
    n = len(image)
    cycles, cycle_of = [], [None] * n
    for start in range(n):
        path, x = [], start
        while x not in path:
            path.append(x)
            x = image[x]
        cyc = tuple(sorted(path[path.index(x):]))
        if cyc not in cycles:
            cycles.append(cyc)
        cycle_of[start] = cycles.index(cyc)
    return cycles, cycle_of


def _classify(image, table, one):
    """Ergodicity of an envelope by definition: V(T^-1 A) = V(A) for every
    A, and every union B of invariant atoms has V(B) in {0, 1} with
    V(B) = 0 or V(B^c) = 0.  `one` is the table's value for V = 1."""
    n = len(image)
    full = (1 << n) - 1
    for a in range(1 << n):
        pre = 0
        for i in range(n):
            if a >> image[i] & 1:
                pre |= 1 << i
        if table[pre] != table[a]:
            return False
    cycles, cycle_of = _cycles(image)
    atoms = [0] * len(cycles)
    for i in range(n):
        atoms[cycle_of[i]] |= 1 << i
    for k in range(1 << len(atoms)):
        b = 0
        for j, atom in enumerate(atoms):
            if k >> j & 1:
                b |= atom
        vb, vc = table[b], table[full ^ b]
        if not ((vb == 0 or vb == one) and (vb == 0 or vc == 0)):
            return False
    return True


def _atom_unions(image):
    cycles, cycle_of = _cycles(image)
    atoms = [0] * len(cycles)
    for i in range(len(image)):
        atoms[cycle_of[i]] |= 1 << i
    unions = []
    for k in range(1 << len(atoms)):
        b = 0
        for j, atom in enumerate(atoms):
            if k >> j & 1:
                b |= atom
        unions.append(b)
    return unions


def _mass(p, mask):
    return sum((x for i, x in enumerate(p) if mask >> i & 1), F(0))


# ---------------------------------------------------------------------------


class FiniteSweep:
    """Many small exact problems, stratified so every block has the same
    mix.  Exact core enumeration on an ergodic n=4 envelope costs about
    C(k+4, 3) linear solves, where k is the number of proper events with
    V(A) < 1, so the ergodic n=4 quota is split by k."""

    name = "finite-sweep"
    tail_pct = 99.8
    reference = ("exact",)
    cycle = 1
    NONERGODIC = {3: 300, 4: 300}
    ERGODIC_N3 = 20
    # ((lowest k, highest k), instances per block), about the natural mix
    ERGODIC_N4 = [((0, 2), 2), ((3, 5), 2), ((6, 8), 4), ((9, 11), 1),
                  ((12, 14), 2)]

    def __init__(self, seed, workdir):
        self.seed = seed

    def block(self, b):
        rng = _rng(self.seed, self.name, b)
        ops = []
        for n in (3, 4):
            want_ne = self.NONERGODIC[n]
            if n == 3:
                quotas = {(0, 6): self.ERGODIC_N3}
            else:
                quotas = dict(self.ERGODIC_N4)
            while want_ne or any(quotas.values()):
                image, fam = _instance(rng, n)
                table, one = _envelope(fam)
                ergodic = _classify(image, table, one)
                if not ergodic:
                    if want_ne:
                        want_ne -= 1
                        ops.append(self._op(image, fam, False))
                    continue
                k = sum(1 for a in range(1, (1 << n) - 1) if table[a] < one)
                for (lo, hi), left in quotas.items():
                    if lo <= k <= hi and left:
                        quotas[(lo, hi)] = left - 1
                        ops.append(self._op(image, fam, True))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(image, fam, ergodic):
        def run():
            v = setfun.UpperProbability(fam)
            t = finitedyn.Endomap(image)
            erg = finitedyn.ergodicity_check(v, t)
            sk = finitedyn.ergodic_skeleton(v, t)
            ranges = None
            if sk["ok"]:
                verts = setfun.core_vertices(v)
                ranges = [(b, setfun.core_range(v, b, verts))
                          for b in _atom_unions(image)]
            return erg, sk, ranges

        def check(out):
            erg, sk, ranges = out
            ok = erg["ergodic"] == sk["ok"] == ergodic
            if ok and sk["ok"]:
                q = sk["skeleton"]
                ok = all(lo == hi == _mass(q, b) for b, (lo, hi) in ranges)
            return ok, _digest((erg, sk, ranges))

        return Op("ergodic-n%d" % len(image) if ergodic
                  else "sweep-n%d" % len(image), run, check)


# ---------------------------------------------------------------------------


def _greedy_vertices(table, n):
    """Marginal vectors over all orderings (Shapley 1971): the vertices of
    the core of a submodular capacity."""
    out = []
    for perm in itertools.permutations(range(n)):
        x = [0] * n
        mask = 0
        for i in perm:
            x[i] = table[mask | 1 << i] - table[mask]
            mask |= 1 << i
        out.append(x)
    return out


def _same_vertex_set(got, want, tol):
    def dedupe(vs):
        kept = []
        for v in vs:
            if not any(max(abs(a - b) for a, b in zip(v, k)) <= tol
                       for k in kept):
                kept.append(v)
        return kept

    got, want = dedupe(got), dedupe(want)
    return len(got) == len(want) and all(
        any(max(abs(a - b) for a, b in zip(v, w)) <= tol for w in want)
        for v in got)


def _parse_num(x):
    return F(x) if isinstance(x, (str, int)) else x


def _enc(x):
    return "%d/%d" % (x.numerator, x.denominator)


class FiniteLarge:
    """A few big finite problems through the user-facing calls: product
    oracles on ergodic systems, and core / check-capacity on capacity
    files written before the block is timed.  Each block has one heavy
    op, alternately a 16-point product oracle and a float n=5 core, and
    inputs whose core sizes do not vary, so blocks cost about the same."""

    name = "finite-large"
    tail_pct = 70.0
    reference = ("exact",)
    cycle = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = os.path.join(workdir, "capacities")
        os.makedirs(self.dir, exist_ok=True)

    def block(self, b):
        rng = _rng(self.seed, self.name, b)
        if b % 2 == 0:
            ops = [self._product4(rng, 1 if b % 4 == 0 else 2)]
        else:
            ops = [self._sqrt_file(rng, "%d-sqrt" % b)]
        ops += [self._product3(rng) for _ in range(2)]
        ops += [self._lambda_file(rng, "%d-lambda-%d" % (b, i))
                for i in range(2)]
        ops += [self._min_linear_file(rng, "%d-minlin-%d" % (b, i))
                for i in range(2)]
        rng.shuffle(ops)
        return ops

    # -- product-oracle ops ----------------------------------------------

    @staticmethod
    def _product_op(kind, image, fam, expect_weak_mixing):
        def run():
            v = setfun.UpperProbability(fam)
            t = finitedyn.Endomap(image)
            return finitedyn.weak_mixing_check(v, t, product_oracle=True)

        def check(out):
            ok = bool(out.get("ok")) and \
                out["weak_mixing"] == out["product_ergodic"] == \
                expect_weak_mixing
            return ok, _digest(out)

        return Op(kind, run, check)

    def _product4(self, rng, period):
        """A 1-member family: uniform on one cycle of a random map, which
        is invariant and ergodic; weakly mixing exactly when period 1."""
        while True:
            image = [rng.randrange(4) for _ in range(4)]
            cycles = [c for c in _cycles(image)[0] if len(c) == period]
            if cycles:
                break
        cyc = rng.choice(cycles)
        p = [F(1, period) if i in cyc else F(0) for i in range(4)]
        return self._product_op("product-n4", image, [p], period == 1)

    def _product3(self, rng):
        """The pushforward closure of a full-support vector under a cyclic
        permutation of 3 points: its 3 rotations.  Ergodic, and not weakly
        mixing (the charged cycle has period 3)."""
        image = rng.choice([[1, 2, 0], [2, 0, 1]])
        while True:
            fam = _close_family([_random_prob(rng, 3)], image)
            if len(fam) == 3:
                break
        assert _classify(image, *_envelope(fam))
        return self._product_op("product-n3", image, fam, False)

    # -- capacity-file ops -------------------------------------------------

    def _file_op(self, kind, path, check_vertices):
        def run():
            return _cli(["core", path]), _cli(["check-capacity", path])

        def check(out):
            (code1, text1), (code2, text2) = out
            if code1 or code2:
                return False, _digest(out)
            verts = [[_parse_num(x) for x in v] for v in json.loads(text1)]
            flags = json.loads(text2)
            return check_vertices(verts, flags), _digest(out)

        return Op(kind, run, check)

    def _write(self, name, obj):
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _lambda_file(self, rng, name):
        """1-3 full-support vectors: every proper event has V(A) < 1."""
        fam = [_random_prob(rng, 4) for _ in range(rng.randint(1, 3))]
        path = self._write(name, {"n": 4, "kind": "lambda",
                                  "lambda": [[_enc(x) for x in p]
                                             for p in fam]})
        table, scale = _envelope(fam)

        def check_vertices(verts, flags):
            # vertices lie in the core, and the envelope is attained
            if not verts or any(sum(v) != 1 for v in verts):
                return False
            return all(max(_mass(v, a) for v in verts) * scale == table[a]
                       for a in range(16))

        return self._file_op("lambda-n4", path, check_vertices)

    def _concave_op(self, kind, path, table, tol):
        want = _greedy_vertices(table, 5)

        def check_vertices(verts, flags):
            return flags["concave"] and _same_vertex_set(verts, want, tol)

        return self._file_op(kind, path, check_vertices)

    def _sqrt_file(self, rng, name):
        """A = sqrt(P(A)) with generic weights: concave, float, and with
        120 distinct greedy vertices."""
        w = [rng.uniform(1.0, 2.0) for _ in range(5)]
        total = sum(w)
        table = [math.sqrt(sum(w[i] for i in range(5) if a >> i & 1)
                           / total) for a in range(32)]
        table[31] = 1.0
        path = self._write(name, {"n": 5, "kind": "table",
                                  "table": {str(a): x
                                            for a, x in enumerate(table)}})
        return self._concave_op("sqrt-n5", path, table, 1e-9)

    def _min_linear_file(self, rng, name):
        """A -> min(c . 1_A, 1) with exact c: concave and rational.  Each
        c_i lies in (1/2, 1), so exactly the singletons stay below 1."""
        c = [F(rng.randint(11, 19), 20) for _ in range(5)]
        table = [min(sum((c[i] for i in range(5) if a >> i & 1), F(0)),
                     F(1)) for a in range(32)]
        path = self._write(name, {"n": 5, "kind": "table",
                                  "table": {str(a): _enc(x)
                                            for a, x in enumerate(table)}})
        return self._concave_op("minlin-n5", path, table, 0)


# ---------------------------------------------------------------------------


# sha256 of report.json for every registry scenario at the default seed 7
PINNED_REPORTS = {
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
DEFAULT_SEED = 7


class ScenarioRegistry:
    """`capergo run` for every registry scenario, one pass per block, each
    pass in a fresh output directory.  Even blocks use the default seed
    (reports pinned by digest), odd blocks the workload seed; every
    repeat of a (scenario, seed) pair must reproduce its report bytes."""

    name = "scenario-registry"
    tail_pct = 85.0
    reference = ("exact", "float")
    cycle = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.first_seen = {}
        self.passes = 0

    def block(self, b):
        seed = DEFAULT_SEED if b % 2 == 0 else self.seed
        return [self._op(name, seed) for name in PINNED_REPORTS]

    def _op(self, name, seed):
        def run():
            # a fresh directory per run of the op (traced runs included)
            self.passes += 1
            out = os.path.join(self.workdir, "pass-%d" % self.passes)
            code, _ = _cli(["run", name, "--seed", str(seed), "--out", out])
            return code, out

        def check(result):
            code, out = result
            directory = os.path.join(out, name)
            files = sorted(os.listdir(directory))
            digests = []
            for fname in files:
                with open(os.path.join(directory, fname), "rb") as fh:
                    digests.append((fname,
                                    hashlib.sha256(fh.read()).hexdigest()))
            shutil.rmtree(directory)
            report = dict(digests)["report.json"]
            ok = code == 0
            if seed == DEFAULT_SEED:
                ok = ok and report == PINNED_REPORTS[name]
            key = (name, seed)
            ok = ok and self.first_seen.setdefault(key, digests) == digests
            return ok, _digest(digests)

        return Op(name, run, check)


# ---------------------------------------------------------------------------


def _periodic_mats(rng, d, ell, min_gap):
    """Random invertible generators whose monodromy exponents are equal
    or more than min_gap apart (the acceptance criteria 9/10 recipe)."""
    while True:
        mats = []
        for _ in range(ell):
            while True:
                m = np.array([[rng.uniform(-1, 1) for _ in range(d)]
                              for _ in range(d)])
                if abs(np.linalg.det(m)) > 0.1:
                    mats.append(m)
                    break
        phi = np.eye(d)
        for m in mats:
            phi = m @ phi
        mods = sorted(np.abs(np.linalg.eigvals(phi)), reverse=True)
        exps = [math.log(x) / ell for x in mods]
        if all(g < 1e-9 or g > min_gap
               for g in (a - b for a, b in zip(exps, exps[1:]))):
            return mats


class CocycleSpectra:
    """QR propagation at N = 10^4: periodic spectra against the monodromy
    oracle, an Oseledets filtration at period 3, and the aperiodic
    rotation-angle cocycle over the golden rotation, which no
    periodic-base shortcut applies to."""

    name = "cocycle-spectra"
    tail_pct = 70.0
    reference = ("float",)
    cycle = 1
    N = 10_000

    def __init__(self, seed, workdir):
        self.seed = seed

    def block(self, b):
        rng = _rng(self.seed, self.name, b)
        ops = [self._qr(rng, 2 + i % 2, rng.randint(1, 6)) for i in range(4)]
        ops += [self._rotation(rng) for _ in range(2)]
        ops.append(self._oseledets(rng, 3))
        rng.shuffle(ops)
        return ops

    def _qr(self, rng, d, ell):
        mats = _periodic_mats(rng, d, ell, 0.05)
        n = self.N
        burn = n // 5
        burn += (n - burn) % ell  # average over whole periods

        def run():
            gen = cocycle.MatrixGen.periodic(mats)
            qr = cocycle.lyapunov_qr(gen, 0, n, burn_in=burn)
            oracle = cocycle.monodromy_oracle(gen, list(range(ell)))
            return qr.exponents, oracle.exponents

        def check(out):
            qr, exact = out
            # compare block means over the oracle's equal-modulus blocks
            worst, i = 0.0, 0
            while i < len(exact):
                j = i
                while j + 1 < len(exact) and exact[i] - exact[j + 1] <= 1e-9:
                    j += 1
                mean = sum(qr[i:j + 1]) / (j - i + 1)
                worst = max(worst, abs(mean - exact[i]))
                i = j + 1
            return worst <= 1e-6, _digest(out)

        return Op("qr-periodic", run, check)

    def _oseledets(self, rng, ell):
        mats = _periodic_mats(rng, 3, ell, 0.1)

        def run():
            gen = cocycle.MatrixGen.periodic(mats)
            return cocycle.oseledets_filtration(gen, 0, self.N).checks

        def check(checks):
            ok = all(abs(a - b) <= 1e-2 for a, b in checks["directional"])
            ok = ok and all(abs(a - b) <= 1e-2
                            for a, b in checks["invariance"])
            ok = ok and max(checks["angles"]) <= 1e-4
            return ok, _digest(checks)

        return Op("oseledets-p%d" % ell, run, check)

    def _rotation(self, rng):
        spec = {"kind": "rotation_angle", "d": 2,
                "angle_scale": rng.uniform(0.5, 2.0)}
        x0 = rng.random()

        def run():
            gen = cocycle.MatrixGen.from_json(spec)
            return cocycle.lyapunov_qr(gen, x0, self.N).exponents

        def check(exps):
            # rotations are isometries: both exponents vanish
            return all(abs(x) <= 1e-9 for x in exps), _digest(exps)

        return Op("qr-rotation", run, check)


WORKLOADS = {w.name: w for w in (FiniteSweep, FiniteLarge, ScenarioRegistry,
                                 CocycleSpectra)}
