"""Reductions from full closest-vector search to promise solvers.

A promise solver is any callable ``solver(basis, target)`` that returns the
integer coefficients, over ``basis``, of a lattice vector close to the
target, or None on failure. ``oracle_inner`` wraps the exact enumeration
solver and never fails; ``bdd_inner`` adapts a fitted decoder, surfacing
its refusals as None. The reducers build every vector from coefficients,
so an answer is a lattice member by construction: every answer, those
PromiseReducer.fit asks for included, passes one check that raises
ValueError for a non-integer coefficient or a wrong count. They treat a
failed level or trial as a removed candidate: a partial solver degrades
the approximation factor instead of the output's validity.

Each scheme is an estimator: ``fit(basis)`` prepares the reduced basis
and the solver lattices once, and ``reduce(target)`` answers a query::

    red = KannanReducer(alpha=Fraction(1, 2), inner=oracle_inner()).fit(basis)
    vec = red.reduce(target)

The projection reducers share one cut scan. fit keeps an HKZ basis
(hkz_), its cut indices (indices_) and one solver lattice per cut
(blocks_); reduce queries the solver on each block, lifts the answer, and
completes it below the cut with Babai's nearest plane, and the nearest
candidate wins. KannanReducer cuts at every index and each block is the
whole tail projection; PromiseReducer does the same on a basis that it
also builds through the solver. MasterReducer cuts only where the
Gram-Schmidt profile grows geometrically and prepares short blocks,
chained by lifting each answer r cuts forward. The sparsification scheme
restricts to a random index-p sublattice coset so that the solver sees a
lattice whose minimum distance is large relative to the target distance.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ._estimator import ParamMixin
from ._validation import as_fraction, as_fraction_vector, as_integer, check_count, check_positive
from .decoder import EXACT, BddDecoder, _check_alpha, bdd_param_plan
from .enumeration import BudgetExceeded, _points_within, closest_vector, hkz_reduce
from .lattice import (
    LatticeBasis,
    _babai_prefix,
    _clear,
    lattice_coefficients,
    nearest_plane,
    sqdist,
    sqnorm,
)
from .rng import stream


def oracle_inner():
    """The exact closest-vector callback; satisfies any promise trivially.

    Pairing the reducers with this solver isolates their approximation
    bookkeeping, which is how the factor audits are run.
    """

    def solve(basis, target):
        return closest_vector(basis, target)[1]

    return solve


def bdd_inner(alpha=0.15, seed=0):
    """A promise solver backed by BddDecoder, one fit per distinct lattice.

    Decoder parameters come from bdd_param_plan(alpha, rank). A decode
    that trips the denominator guard reports failure (None) rather than
    handing back coefficients without their certificate.
    """
    _check_alpha(alpha)
    fitted = {}

    def solve(basis, target):
        dec = fitted.get(basis)
        if dec is None:
            eps, count = bdd_param_plan(alpha, basis.rank)
            dec = BddDecoder(eps=eps, n_advice=count, seed=seed).fit(basis)
            fitted[basis] = dec
        res = dec.decode([float(x) for x in target])
        return res.coeffs if res.status == EXACT else None

    return solve


def _solver(inner):
    return inner if inner is not None else oracle_inner()


def _answer(coeffs, rank):
    """A solver's coefficients as ints, or None for a failure.

    Raises ValueError for a coefficient without an integer value or a
    count other than rank, so no answer is rounded or cut into a member.
    """
    if coeffs is None:
        return None
    coeffs = tuple(map(as_integer, coeffs))
    if len(coeffs) != rank:
        raise ValueError(f"the solver returned {len(coeffs)} coefficients for rank {rank}")
    return coeffs


def _complete(hkz, big, t, tails):
    """Lift each cut's answer, complete it with Babai below the cut; nearest wins.

    t is the target cleared to integers over the frame, T = L t with
    L = big. tails yields (i, tail) pairs: tail holds the integer
    coefficients of hkz rows i..n-1 found at cut i, or None when the solver
    failed there. The tail's rows come off T and the Babai prefix rounds
    the rest, which leaves the candidate's residual L (t - cand) in
    integers; its squared norm is L^2 times the squared distance, so the
    first least one is the nearest candidate, and only it is built. The cut
    at i = n (tail ()) is the plain Babai point, so with it among the cuts
    a vector is always returned.
    """
    f = hkz._frame
    s = big // f.d
    best = None
    for i, tail in tails:
        if tail is None:
            continue
        head, resid = _babai_prefix(f, i, f.subtract_rows(t, s, tail, i), s)
        score = sum(map(mul, resid, resid))
        if best is None or score < best[0]:
            best = (score, head + tail)
    return hkz.vector(best[1])


def _blocks(hkz, cuts, r=math.inf):
    """One solver lattice per cut: at c = cuts[k], rows c .. hi - 1 of hkz
    projected away from the rows before c.

    Cut k > r is chained, and hi is the cut r places back, where the tail
    that the scan fixes starts. Otherwise hi is the rank, which makes the
    block the whole tail projection; with r infinite no cut is chained.
    """
    f = hkz._frame
    n = hkz.rank
    return tuple(
        LatticeBasis._from_frame(f.project_tail(c, cuts[k - r] if k > r else n), hkz.ambient)
        for k, c in enumerate(cuts)
    )


def _cut_scan(hkz, cuts, blocks, target, inner, r=math.inf):
    """Query the solver at every cut, then complete the answers in cut order.

    The target is cleared once over the frame. Cut k <= r asks its block,
    the whole tail projection, about the target projected there, read off
    one pass of the frame's projection recurrence. A chained cut k > r
    fixes the rows below its block to the tail found r cuts back, takes
    them off the target and asks about the projected residual; a failed
    anchor fails it. The cut at the rank is the plain Babai point, asked of
    no solver. Ties in _complete go to the earlier cut in this order.
    """
    f = hkz._frame
    n = hkz.rank
    big, t = _clear(as_fraction_vector(target, hkz.ambient), f.d)
    s = big // f.d
    top = max((c for k, c in enumerate(cuts) if c < n and k <= r), default=0)
    free = f.projections(top, t)
    tails = []
    for k, (c, block) in enumerate(zip(cuts, blocks)):
        prev = tails[k - r] if k > r else ()
        if prev is None or c == n:
            tails.append(prev)
            continue
        p = f.project(c, f.subtract_rows(t, s, prev, n - len(prev))) if prev else free[c]
        den = big * f.det(c - 1)
        w = _answer(inner(block, tuple(Fraction(x, den) for x in p)), block.rank)
        tails.append(None if w is None else w + prev)
    return _complete(hkz, big, t, zip(cuts, tails))


# the default HKZ basis of each basis object a reducer is fitted on, dropped
# with that object: Kannan and Master reducers fitted on one basis share it,
# and an equal basis built afresh computes its own
_HKZ = {}


def _default_hkz(basis):
    key = id(basis)
    hkz = _HKZ.get(key)
    if hkz is None:
        hkz = _HKZ[key] = hkz_reduce(basis)
        weakref.finalize(basis, _HKZ.pop, key)
    return hkz


class KannanReducer(ParamMixin):
    """Closest-vector approximation through promise queries at every cut.

    fit computes the HKZ basis (hkz_), the cuts 0..n (indices_) and one
    block per cut (blocks_), the whole tail projection; reduce runs the
    cut scan over them with no chaining. alpha records the promise the
    inner solver honors (distance below alpha * lambda_1 of each
    projection); it enters the guarantee, not the computation. With a
    solver of factor gamma the output is within
    max_i sqrt(gamma(n-i)^2 + i/(4 alpha^2)) of the true distance, taking
    gamma(0) = 0.
    """

    def __init__(self, alpha=0.5, inner=None):
        self.alpha = alpha
        self.inner = inner

    def fit(self, basis):
        check_positive("alpha", self.alpha)
        self.hkz_ = _default_hkz(basis)
        self.indices_ = tuple(range(self.hkz_.rank + 1))
        self.blocks_ = _blocks(self.hkz_, self.indices_)
        return self

    def reduce(self, target):
        return _cut_scan(self.hkz_, self.indices_, self.blocks_, target, _solver(self.inner))


def _master_indices(hkz, g, h):
    """Cut indices with geometrically separated Gram-Schmidt prefix maxima.

    The next index below i is the smallest one whose following orthogonal
    row already reaches a 1/c fraction of the prefix maximum at i, with
    c = g; equivalently the largest whose own prefix maximum falls below
    that fraction. Comparisons are exact on squared norms. The sequence
    always reaches 0 because the prefix maximum over an empty range is 0.
    """
    n = hkz.rank
    c = as_fraction(g)
    if c < 1:
        raise ValueError("g must be at least 1")
    h = as_integer(h)
    if not 0 <= h < n:
        raise ValueError(f"h must lie in [0, {n})")
    if h > 1 and c ** (2 * (h - 1)) > n:
        raise ValueError("g^(h-1) must not exceed sqrt(rank)")
    sq = hkz.gram_schmidt.sqnorms
    c2 = c * c
    indices = [n]
    while indices[-1] > 0:
        cur = indices[-1]
        peak = max(sq[:cur])
        for i in range(cur):
            if sq[i] * c2 >= peak:
                indices.append(i)
                break
    return tuple(indices)


class MasterReducer(ParamMixin):
    """Closest-vector approximation with block-prepared promise queries.

    fit computes the HKZ basis (hkz_), the cut indices (indices_, from the
    rank down to 0) and one block lattice per cut (blocks_). With r = h + 1
    (chain_), block k is the projection at cut i_k of rows
    i_k .. i_{max(k-r,0)} - 1, so each row appears in at most r blocks and
    the block dimensions sum to at most rank * r. reduce runs the cut scan
    with cut k > r chained to the answer r cuts back, r read from chain_ so
    that it always matches the blocks, whatever h holds after fit. Same contract as KannanReducer, but the solver
    state covers only the blocks; the achieved factor is within
    c * sqrt(n) / (2 alpha) when the solver honors its promise.
    """

    def __init__(self, g=1.0, h=0, alpha=0.5, inner=None):
        self.g = g
        self.h = h
        self.alpha = alpha
        self.inner = inner

    def fit(self, basis):
        check_positive("alpha", self.alpha)
        self.hkz_ = _default_hkz(basis)
        self.indices_ = _master_indices(self.hkz_, self.g, self.h)
        self.chain_ = as_integer(self.h) + 1
        self.blocks_ = _blocks(self.hkz_, self.indices_, self.chain_)
        return self

    def reduce(self, target):
        return _cut_scan(self.hkz_, self.indices_, self.blocks_, target, _solver(self.inner),
                         self.chain_)


def _shortest_via_promise_cvp(basis, inner):
    """Coefficients of a short nonzero vector, found through closest-vector queries.

    For each row b_i, the solver is asked for a point near b_i on the
    sublattice with the i-th coefficient doubled; b_i minus its answer is a
    nonzero lattice vector, and the shortest over i (least coefficients on
    ties) is shortest up to the solver's approximation factor. Every answer
    passes _answer. Raises RuntimeError when no query gives a nonzero vector.
    """
    n = basis.rank
    best = None
    for i in range(n):
        doubled = LatticeBasis._from_frame(basis._frame.scale_row(i, 2), basis.ambient)
        coeffs = _answer(inner(doubled, basis.rows[i]), n)
        if coeffs is None:
            continue
        full = [-2 * c if j == i else -c for j, c in enumerate(coeffs)]
        full[i] += 1
        sq = sqnorm(basis.vector(full))
        if sq == 0:
            continue
        key = (sq, tuple(full))
        if best is None or key < best:
            best = key
    if best is None:
        raise RuntimeError("no closest-vector query produced a nonzero vector")
    return best[1]


class PromiseReducer(ParamMixin):
    """Preprocessing-free variant: the solver also builds the reduced basis.

    fit builds hkz_ with each projected shortest vector found through
    closest-vector queries on doubled sublattices, so an approximate solver
    yields the relaxed (factor-g) variant; indices_, blocks_ and reduce are
    KannanReducer's. The promise here is distance below lambda_1 of each
    projection. With a factor-g solver the output is within
    g * sqrt(n+3) / 2 of the true distance.
    """

    def __init__(self, inner=None):
        self.inner = inner

    def fit(self, basis):
        inner = _solver(self.inner)
        self.hkz_ = hkz_reduce(basis, svp=lambda b: _shortest_via_promise_cvp(b, inner))
        self.indices_ = tuple(range(self.hkz_.rank + 1))
        self.blocks_ = _blocks(self.hkz_, self.indices_)
        return self

    def reduce(self, target):
        return _cut_scan(self.hkz_, self.indices_, self.blocks_, target, _solver(self.inner))


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Deterministic Miller-Rabin; the witness set is exact below 2^64."""
    m = int(m)
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _next_prime(lo):
    m = max(int(lo), 2)
    while not _is_prime(m):
        m += 1
    return m


@dataclass(frozen=True)
class SparseCoset:
    """A coset of the index-p sublattice cut out by a mod-p functional.

    A lattice vector with coefficient vector x belongs when <z, x> = c
    mod p. With c = 0 the members form a sublattice of index p (z is
    nonzero mod p), and scaling any basis row by p shows p*L always lies
    inside it.
    """

    basis: LatticeBasis
    p: int
    z: tuple
    c: int

    def __post_init__(self):
        """Reject a coset that contains or sublattice would answer wrongly:
        p below 2, a z without one entry per row, or c outside [0, p)."""
        p = check_count("p", self.p)
        if p < 2:
            raise ValueError(f"p must be at least 2, got {self.p!r}")
        if len(self.z) != self.basis.rank:
            raise ValueError(f"z has {len(self.z)} entries for rank {self.basis.rank}")
        c = as_integer(self.c)
        if not 0 <= c < p:
            raise ValueError(f"c must lie in [0, {p}), got {self.c!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "z", tuple(map(as_integer, self.z)))
        object.__setattr__(self, "c", c)

    def contains(self, vector):
        """Exact membership; False for vectors outside the parent lattice."""
        coeffs = lattice_coefficients(self.basis, vector)
        if coeffs is None:
            return False
        return sum(zi * xi for zi, xi in zip(self.z, coeffs)) % self.p == self.c

    def point(self):
        """One member, supported on the pivot row."""
        j = self._pivot()
        k = self.c * pow(self.z[j], -1, self.p) % self.p
        return self.basis.vector(tuple(k if i == j else 0 for i in range(self.basis.rank)))

    def sublattice(self):
        """Basis of the c = 0 members; index p in the parent lattice.

        Pivot row j becomes p R_j, each later row R_i - (z_i / z_j mod p) R_j,
        and the rows before j stay; the frame follows from the parent's.
        """
        j = self._pivot()
        inv = pow(self.z[j], -1, self.p)
        f = self.basis._frame
        rows = list(f.rows)
        for i in range(j + 1, self.basis.rank):
            m = self.z[i] * inv % self.p
            if m:
                rows[i] = tuple(a - m * b for a, b in zip(rows[i], f.rows[j]))
        return LatticeBasis._from_frame(f.with_rows(rows).scale_row(j, self.p), self.basis.ambient)

    def _pivot(self):
        for j, v in enumerate(self.z):
            if v % self.p:
                return j
        raise ValueError("z vanishes mod p")


def _sample_coset(basis, p, rng):
    while True:
        z = tuple(int(v) for v in rng.integers(0, p, size=basis.rank))
        if any(z):
            break
    return SparseCoset(basis, p, z, int(rng.integers(0, p)))


def sparse_coset_sample(basis, p, seed):
    """A uniform functional z (nonzero mod p) and uniform residue c."""
    p = int(p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _sample_coset(basis, p, stream(seed))


def _ball_count(basis, sq_radius):
    """Exact count of lattice points with squared norm <= sq_radius, origin included."""
    return len(_points_within(basis, (0,) * basis.ambient, sq_radius))


# the paper-mode prime sweep tries at most this many powers of two
_SWEEP = 40


@dataclass(frozen=True)
class SparsifyResult:
    """Output vector, whether any trial produced it, and the trial count."""

    vector: tuple
    ok: bool
    trials: int


class SparsifyReducer(ParamMixin):
    """Random-coset reduction: solve on index-p sublattices, nearest wins.

    fit checks the parameters and the rank and keeps the basis (basis_);
    cosets and searches work on a rational basis as it is. Each trial of
    reduce draws a coset, shifts the target by a representative, and hands
    the solver the sublattice, whose minimum distance is large relative to
    the shifted distance for a good draw. In paper mode the right prime
    scale is unknown, so one prime just above each power of two is tried
    per trial; the sweep stops once the primes provably exceed the useful
    window (bounded through the Babai distance, with the origin-ball count
    capped by the enumeration budget). In oracle mode (for audits) the
    exact distance fixes N = |L within tau*dist of the origin| and a single
    prime in [2N, 8N]. reduce returns a SparsifyResult; when every solver
    call fails it holds the Babai point with ok False.
    """

    def __init__(self, tau=1.0, inner=None, mode="paper", trials=1, seed=0):
        self.tau = tau
        self.inner = inner
        self.mode = mode
        self.trials = trials
        self.seed = seed

    def fit(self, basis):
        check_positive("tau", as_fraction(self.tau))
        check_count("trials", self.trials)
        if self.mode not in ("paper", "oracle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if basis.rank != basis.ambient:
            raise ValueError("sparsification needs a full-rank lattice")
        self.basis_ = basis
        return self

    def reduce(self, target):
        basis = self.basis_
        tau = as_fraction(self.tau)
        inner = _solver(self.inner)
        t = as_fraction_vector(target, basis.ambient)
        babai, _ = nearest_plane(basis, t)

        if self.mode == "oracle":
            opt_sq = closest_vector(basis, t)[2]
            counted = _ball_count(basis, tau * tau * opt_sq)
            primes = (_next_prime(2 * counted),)
        else:
            try:
                cap = _ball_count(basis, tau * tau * sqdist(babai, t))
            except BudgetExceeded:
                cap = None
            top = _SWEEP if cap is None else min(_SWEEP, max(1, (2 * cap).bit_length()))
            primes = tuple(_next_prime((1 << i) + 1) for i in range(1, top + 1))

        best = None
        for k in range(int(self.trials)):
            for j, p in enumerate(primes):
                coset = _sample_coset(basis, p, stream(self.seed, k, j))
                y = coset.point()
                sub = coset.sublattice()
                try:
                    w = _answer(inner(sub, tuple(a - b for a, b in zip(t, y))), sub.rank)
                except BudgetExceeded:
                    w = None
                if w is None:
                    continue
                cand = tuple(a + b for a, b in zip(sub.vector(w), y))
                score = sqdist(cand, t)
                if best is None or score < best[0]:
                    best = (score, cand)
        if best is None:
            return SparsifyResult(babai, False, int(self.trials))
        return SparsifyResult(best[1], True, int(self.trials))
