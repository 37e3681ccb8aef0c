"""Matrix cocycles over finite or interval bases: Lyapunov spectra,
exterior powers, subadditivity checks, and Oseledets filtration
approximants.

The matrix norm throughout is the operator 2-norm.  Long products are
never formed densely: exponents come from QR re-orthonormalization, and
slow singular subspaces from a backward pass with the transposed
generator (a dense product over 10^4 steps is not representable in
float64, so quantities are extracted from propagated factorizations
instead).

Generators are evaluated as (k, d, d) stacks: every `MatrixGen` is built
from a function that maps a list of k base points to their stack, and
`MatrixGen.matrices` checks the stack's shape and the declared bound once
per stack.  The long loops step the base orbit and read its generator
stacks in chunks of CHUNK points, so generator evaluation leaves the
per-step loop while memory stays flat in the orbit length.  Every result
is bit for bit that of a loop evaluating one matrix per step.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from . import finitedyn
from .numeric import parse

GAP_TOL = 1e-3
CHUNK = 512  # base points per generator stack in the long loops


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing "
                                "QR factorization")


def _qr(a):
    """(Q, diag R) of a float matrix or a (B, d, d) stack, bit for bit as
    `np.linalg.qr` gives them.

    Calls the two LAPACK gufuncs behind `np.linalg.qr` directly, under the
    same error state, and skips the wrapper's type dispatch and its `triu`
    of R, whose diagonal is all the callers read.  The per-call wrapper
    cost is most of the time of a 3 x 3 factorization.  The gufunc names
    are those of numpy >= 2.0.
    """
    a = np.array(a, dtype=np.float64)  # a copy: qr_r_raw overwrites it
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="d->d")
        q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
    return q, a.diagonal(0, -2, -1)


class MatrixGen:
    """Generator L: base point -> invertible d x d matrix, with a declared
    bound M on |log ||L||| that is checked at evaluation time.

    `stack_of` maps a list of k base points to the (k, d, d) stack of L at
    each of them, in order.
    """

    def __init__(self, d: int, stack_of: Callable, step: Callable,
                 bound_m: float):
        self.d = d
        self.stack_of = stack_of
        self.step = step  # base map: point -> next point
        self.bound_m = bound_m

    def matrices(self, points) -> np.ndarray:
        """(k, d, d) stack of L at each of the k points, in order."""
        mats = np.asarray(self.stack_of(points), dtype=float)
        if mats.shape != (len(points), self.d, self.d):
            raise ValueError("generator dimension mismatch")
        # ||a||_F / sqrt(d) <= ||a||_2 <= ||a||_F, so a Frobenius norm
        # well inside the bound passes without the 2-norm's SVD; the
        # matrices that fail it get the SVD check, in order
        with np.errstate(all="ignore"):
            log_fro = np.log(np.sqrt(np.einsum("kij,kij->k", mats, mats)))
            inside = (log_fro <= self.bound_m) & \
                (log_fro >= -self.bound_m + 0.5 * math.log(self.d)) & \
                np.isfinite(log_fro)
        for a in mats[~inside]:
            nrm = np.linalg.norm(a, 2)
            if nrm == 0 or not np.isfinite(nrm):
                raise ValueError("generator must be invertible and finite")
            if abs(math.log(nrm)) > self.bound_m + 1e-9:
                raise ValueError("declared log-norm bound violated")
        return mats

    def matrix(self, omega) -> np.ndarray:
        return self.matrices([omega])[0]

    def orbit(self, omega, n: int) -> list:
        pts = [omega]
        for _ in range(n - 1):
            pts.append(self.step(pts[-1]))
        return pts

    @classmethod
    def periodic(cls, matrices: Sequence):
        """Base = cyclic shift on {0, ..., l-1}; L(i) = matrices[i]."""
        mats = [np.asarray(m, dtype=float) for m in matrices]
        d = mats[0].shape[0]
        ell = len(mats)
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("generator dimension mismatch")
        bound = max(abs(math.log(np.linalg.norm(m, 2))) for m in mats) + \
            max(abs(math.log(np.linalg.norm(np.linalg.inv(m), 2)))
                for m in mats) + 1
        table = np.array(mats)
        return cls(d, lambda points: table[[i % ell for i in points]],
                   lambda i: (i + 1) % ell, bound)

    @classmethod
    def from_json(cls, obj):
        kind = obj["kind"]
        if kind == "table":
            gen = cls.periodic(obj["matrices"])
        elif kind == "rotation_angle":
            # L(x) = planar rotation by angle_scale * x over the circle
            # rotation base with the default irrational angle
            from .intervaldyn import GOLDEN, PiecewiseAffineMap
            scale = obj.get("angle_scale", 1.0)
            if isinstance(scale, bool) or \
                    not isinstance(scale, numbers.Real) or \
                    not math.isfinite(scale):
                raise ValueError("angle_scale must be a finite number, "
                                 "not %r" % (scale,))
            scale = float(scale)
            mp = PiecewiseAffineMap.rotation(GOLDEN, c=1)

            def stack_of(points):
                th = scale * np.array(points, dtype=float)
                cos, sin = np.cos(th), np.sin(th)
                out = np.empty((len(th), 2, 2))
                out[:, 0, 0] = out[:, 1, 1] = cos
                out[:, 0, 1] = -sin
                out[:, 1, 0] = sin
                return out

            gen = cls(2, stack_of, mp.apply, bound_m=1.0)
        else:
            raise ValueError("unknown generator kind %r" % kind)
        if obj.get("d") != gen.d:
            raise ValueError("declared d=%r, but the generator is %d x %d"
                             % (obj.get("d"), gen.d, gen.d))
        return gen


def _stacks(gen: MatrixGen, omega, n: int):
    """The generator along the first n orbit points of omega, as stacks of
    at most CHUNK matrices; the base map is stepped n times in all."""
    x = omega
    for start in range(0, n, CHUNK):
        points = gen.orbit(x, min(CHUNK, n - start) + 1)
        x = points.pop()
        yield gen.matrices(points)


def cocycle_matrix(gen: MatrixGen, omega, n: int) -> np.ndarray:
    """Phi(n, omega) = L(T^{n-1} omega) ... L(omega), right-to-left.

    Overflow guard: if any partial product norm leaves float range the
    call fails loudly; long-horizon quantities should use the QR
    estimators instead of dense products.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    phi = np.eye(gen.d)
    for mats in _stacks(gen, omega, n):
        for a in mats:
            phi = a @ phi
            nrm = np.abs(phi).max()
            if not np.isfinite(nrm) or nrm > 1e300 or \
                    (nrm and nrm < 1e-300):
                raise OverflowError("dense cocycle product left float range")
    return phi


def compound_power(a: np.ndarray, k: int) -> np.ndarray:
    """Matrix of k x k minors acting on the k-th exterior power."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    subsets = list(itertools.combinations(range(d), k))
    out = np.empty((len(subsets), len(subsets)))
    for i, rows in enumerate(subsets):
        for j, cols in enumerate(subsets):
            out[i, j] = np.linalg.det(a[np.ix_(rows, cols)])
    return out


@dataclass
class LyapunovSpectrum:
    exponents: list
    n: int = 0

    def grouped(self):
        """Distinct exponents with multiplicities, split at gaps > GAP_TOL."""
        groups = []
        for lam in self.exponents:
            if groups and abs(groups[-1][0][-1] - lam) <= GAP_TOL:
                groups[-1][0].append(lam)
            else:
                groups.append(([lam],))
        return [(sum(g) / len(g), len(g)) for (g,) in groups]


def lyapunov_qr(gen: MatrixGen, omega, n: int,
                burn_in: int = None) -> LyapunovSpectrum:
    """QR-propagated exponent estimates: accumulated log-diagonals.

    The propagated frame needs a transient to align with the invariant
    flag; logs accumulated during the first burn_in steps (default n/5)
    are discarded and the average runs over the remaining steps.
    """
    if burn_in is None:
        burn_in = n // 5
    if not 0 <= burn_in < n:
        raise ValueError("need 0 <= burn_in < n")
    q = np.eye(gen.d)
    logs = np.zeros(gen.d)
    mats = itertools.chain.from_iterable(_stacks(gen, omega, n))
    for i, a in enumerate(mats):
        q, r_diag = _qr(a @ q)
        if i >= burn_in:
            logs += np.log(np.abs(r_diag))
    exps = sorted((logs / (n - burn_in)).tolist(), reverse=True)
    return LyapunovSpectrum(exps, n)


def monodromy_oracle(gen: MatrixGen, cycle: Sequence) -> LyapunovSpectrum:
    """Exact spectrum on a periodic base: eigenvalue moduli of the
    period product, log'd and divided by the period."""
    ell = len(cycle)
    for i, pt in enumerate(cycle):
        if gen.step(pt) != cycle[(i + 1) % ell]:
            raise ValueError("point list is not a cycle of the base map")
    eig = np.linalg.eigvals(cocycle_matrix(gen, cycle[0], ell))
    mods = sorted(np.abs(eig).tolist(), reverse=True)
    if any(m == 0 for m in mods):
        raise ValueError("monodromy is singular")
    exps = [math.log(m) / ell for m in mods]
    return LyapunovSpectrum(exps, ell)


def subadditive_check(gen: MatrixGen, omega, k: int, n_max: int,
                      seed: int = 0) -> dict:
    """f_n = log ||wedge^k Phi(n, .)||: subadditivity and the linear bound.

    Verifies f_{n+m}(w) <= f_n(w) + f_m(T^n w) on 40 sampled (n, m) with
    n + m <= n_max, and |f_n| <= k n M throughout.
    """
    rng = random.Random(seed)
    orbit = gen.orbit(omega, n_max + 1)

    def f(n, start_idx):
        mats = gen.matrices(orbit[start_idx:start_idx + n])
        if k == gen.d:
            # top compound is the determinant; evaluating it per step
            # avoids the LU roundoff of an ill-conditioned dense product
            return sum(np.linalg.slogdet(a)[1] for a in mats)
        phi = np.eye(gen.d)
        for a in mats:
            phi = a @ phi
        nrm = np.linalg.norm(compound_power(phi, k), 2)
        if nrm == 0 or not np.isfinite(nrm):
            raise OverflowError("dense compound product left float range; "
                                "shorten n_max")
        return math.log(nrm)

    ok = True
    witness = None
    bound_ok = True
    samples = [rng.randint(1, n_max - 1) for _ in range(40)]
    for n in samples:
        m = rng.randint(1, n_max - n)
        fn = f(n, 0)
        fm = f(m, n)
        fnm = f(n + m, 0)
        if fnm > fn + fm + 1e-9 * max(1.0, abs(fn) + abs(fm)):
            ok = False
            witness = (n, m, fnm, fn + fm)
        for nn, val in ((n, fn), (n + m, fnm)):
            if abs(val) > k * nn * gen.bound_m + 1e-9:
                bound_ok = False
    return {"subadditive": ok, "witness": witness, "linear_bound": bound_ok}


def _right_subspace_bases(gen: MatrixGen, orbits: Sequence) -> np.ndarray:
    """Stacked (B, d, d) orthonormal bases, one per orbit of length n:
    for every s, the first s columns of the b-th basis span the top-s
    right-singular subspace of Phi(n, orbits[b][0]).

    Propagates the transposed generator backward along all orbits at once
    (the transpose product has the same right singular structure with the
    factor order reversed), QR-normalizing the whole stack each step.
    """
    d, b = gen.d, len(orbits)
    q = np.tile(np.eye(d), (b, 1, 1))
    for hi in range(len(orbits[0]), 0, -CHUNK):
        steps = range(hi - 1, max(hi - CHUNK, 0) - 1, -1)
        # step-major: chunk[j] is the (b, d, d) stack of step steps[j]
        chunk = gen.matrices([orbit[k] for k in steps for orbit in orbits])
        for mats in chunk.reshape(len(steps), b, d, d):
            q, r_diag = _qr(mats.transpose(0, 2, 1) @ q)
            q *= np.sign(r_diag)[:, None, :]  # fix orientation
    return q


def principal_angles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T @ qv, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return np.arccos(sv)


@dataclass
class OseledetsApprox:
    exponents: list            # distinct block exponents, decreasing
    multiplicities: list
    filtration: list           # V_1 > V_2 > ... as orthonormal column bases
    n: int
    checks: dict = field(default_factory=dict)


def oseledets_filtration(gen: MatrixGen, omega, n: int) -> OseledetsApprox:
    """Filtration approximant V_i = {x : growth rate <= lambda_i}.

    Exponents come from the forward QR pass; V_i is the orthogonal
    complement of the top right-singular subspace, obtained from a
    backward transposed-QR pass over the stored orbit.  Three checks are
    run: (a) directional exponents of vectors in V_i \\ V_{i+1} against
    lambda_i, (b) the same invariantly one step along the orbit, and
    (c) principal angles between L(omega) V_i(omega) and V_i(T omega).

    Directional exponents are measured over a shortened horizon: a slow
    vector's forward iterates pick up fast components at the level of
    machine epsilon, which dominate after roughly 36/gap steps, so the
    horizon is capped accordingly.  Exponents closer than GAP_TOL form
    one block.
    """
    rng = random.Random(0)
    groups = lyapunov_qr(gen, omega, n).grouped()
    # On a periodic base the V_i at every cycle point are available, so a
    # slow vector can be re-projected into its V_i each step; that stops
    # machine-epsilon fast components from taking over and allows a long
    # measurement horizon.  Aperiodic bases fall back to a horizon capped
    # near 30/gap, before the roundoff contamination sets in.
    period = _detect_period(gen, omega)
    if period:
        dir_horizon = min(n, 500 * period)
    else:
        min_gap = min((groups[i][0] - groups[i + 1][0]
                       for i in range(len(groups) - 1)), default=1.0)
        dir_horizon = max(40, min(n, int(30.0 / max(min_gap, 1e-2))))
    # one orbit serves every pass: on a periodic base it runs round the
    # cycle, so orbit[j:j + n] is the orbit of the j-th cycle point
    starts = period or 2
    orbit = gen.orbit(omega, max(n, dir_horizon) + starts)
    # one stacked backward pass over the orbits of every cycle point, or
    # of omega and T omega on an aperiodic base; omega and T omega first
    bases_at = list(_right_subspace_bases(
        gen, [orbit[j:j + n] for j in range(starts)]))
    basis, basis_next = bases_at[0], bases_at[1 % starts]

    def directional(x, start_idx, block_start):
        v = np.array(x, dtype=float)
        acc = 0.0
        end = start_idx + dir_horizon
        for lo in range(start_idx, end, CHUNK):
            mats = gen.matrices(orbit[lo:min(lo + CHUNK, end)])
            for i, a in enumerate(mats, lo):
                v = a @ v
                if period:
                    vi_here = bases_at[(i + 1) % period][:, block_start:]
                    v = vi_here @ (vi_here.T @ v)
                nrm = np.linalg.norm(v)
                acc += math.log(nrm)
                v /= nrm
        return acc / dir_horizon

    filtration = []
    checks = {"directional": [], "invariance": [], "angles": []}
    s = 0
    for lam, mult in groups:
        vi = basis[:, s:]  # V_i: slow part after s fast dirs
        filtration.append(vi)
        # random x in V_i, generically outside V_{i+1}
        coeffs = np.array([rng.gauss(0, 1) for _ in range(vi.shape[1])])
        x = vi @ coeffs
        x /= np.linalg.norm(x)
        lam_x = directional(x, 0, s)
        checks["directional"].append((lam, lam_x))
        lx = gen.matrix(omega) @ x
        lam_lx = directional(lx / np.linalg.norm(lx), 1, s)
        checks["invariance"].append((lam_x, lam_lx))
        # (c) L(omega) V_i(omega) vs V_i(T omega)
        vi_next = basis_next[:, s:]
        img = gen.matrix(omega) @ vi
        ang = principal_angles(img, vi_next)
        checks["angles"].append(float(ang.max()) if ang.size else 0.0)
        s += mult
    return OseledetsApprox([lam for lam, _ in groups],
                           [mult for _, mult in groups], filtration, n,
                           checks)


def _detect_period(gen, omega, limit: int = 64):
    try:
        hash(omega)
    except TypeError:
        return 0
    x = gen.step(omega)
    for ell in range(1, limit + 1):
        if x == omega:
            return ell
        x = gen.step(x)
    return 0


def subadditive_limit_finite(f_seq: Callable[[int], Sequence], t,
                             horizon: int) -> dict:
    """f* = inf over n <= horizon of the cycle average of f_n / n.

    f_seq(n) returns the vector of f_n values on the finite base.
    Subadditivity f_{n+m} <= f_n + f_m o T^n is spot-checked on 30
    sampled (n, m); the inf is required to have stabilized over the last
    quarter of the horizon.
    """
    rng = random.Random(0)
    m_pts = len(f_seq(1))
    for _ in range(30):
        n = rng.randint(1, horizon - 1)
        m = rng.randint(1, horizon - n)
        fn, fm, fnm = f_seq(n), f_seq(m), f_seq(n + m)
        for x in range(m_pts):
            y = x
            for _ in range(n):
                y = t(y)
            if fnm[x] > fn[x] + fm[y] + 1e-9:
                return {"ok": False,
                        "witness": {"n": n, "m": m, "point": x}}
    best = None
    history = []
    for n in range(1, horizon + 1):
        g = finitedyn.common_cond_exp([parse(v) / n for v in f_seq(n)], t)
        if best is None:
            best = list(g)
        else:
            best = [min(a, b) for a, b in zip(best, g)]
        history.append(list(best))
    tail = history[3 * horizon // 4:]
    drift = max(abs(float(a - b))
                for snap in tail for a, b in zip(snap, history[-1]))
    return {"ok": True, "f_star": history[-1], "stabilized": drift < 1e-9}
