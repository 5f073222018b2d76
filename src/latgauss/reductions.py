"""Reductions from full closest-vector search to promise solvers.

A promise solver is any callable ``solver(basis, target)`` that returns the
integer coefficients, over ``basis``, of a lattice vector close to the
target, or None on failure. ``oracle_inner`` wraps the exact enumeration
solver and never fails; ``bdd_inner`` adapts a fitted decoder, surfacing
its refusals as None. The reducers build every vector from coefficients,
so an answer is a lattice member by construction (a non-integer
coefficient raises ValueError), and they treat a failed level or trial as
a removed candidate: a partial solver degrades the approximation factor
instead of the output's validity.

Each scheme is an estimator: ``fit(basis)`` prepares the reduced basis
and the solver lattices once, and ``reduce(target)`` answers a query::

    red = KannanReducer(alpha=Fraction(1, 2), inner=oracle_inner()).fit(basis)
    vec = red.reduce(target)

Three schemes are implemented. The projection scan (KannanReducer, and
PromiseReducer, which also builds its basis through the solver) queries
the solver on each tail projection of an HKZ basis, lifts the answer, and
completes it below the cut with Babai's nearest plane. The block variant
(MasterReducer) prepares solver state only for short slices of the
projections, chained by lifting each answer r cuts forward. The
sparsification scheme restricts to a random index-p sublattice coset so
that the solver sees a lattice whose minimum distance is large relative
to the target distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._estimator import ParamMixin
from ._validation import as_fraction, as_fraction_vector, check_count, check_positive
from .decoder import EXACT, BddDecoder, bdd_param_plan
from .enumeration import (
    BudgetExceeded,
    _points_within,
    closest_vector,
    hkz_reduce,
    shortest_via_promise_cvp,
)
from .lattice import (
    LatticeBasis,
    _babai_prefix,
    lattice_coefficients,
    nearest_plane,
    project_away_from_prefix,
    project_lattice,
    sqdist,
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
    check_positive("alpha", alpha)
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


def _complete(hkz, t, tails):
    """Lift each cut's answer, complete it with Babai below the cut; nearest wins.

    tails yields (i, tail) pairs: tail holds the coefficients of hkz rows
    i..n-1 found at cut i, or None when the solver failed there. The cut
    at i = n (tail ()) is the plain Babai point, so with it among the cuts
    a vector is always returned. Distances are compared exactly.
    """
    best = None
    for i, tail in tails:
        if tail is None:
            continue
        tail = tuple(tail)
        y = hkz.vector((0,) * i + tail)
        head = _babai_prefix(hkz, i, tuple(a - b for a, b in zip(t, y)))
        cand = hkz.vector(head + tail)
        score = sqdist(cand, t)
        if best is None or score < best[0]:
            best = (score, cand)
    return best[1]


def _levels(hkz):
    """The tail projections: entry i projects away the first i rows (rank n-i)."""
    return tuple(project_lattice(hkz, i) for i in range(hkz.rank + 1))


def _scan(hkz, levels, target, inner):
    """Query the solver on every tail projection, then complete the answers."""
    t = as_fraction_vector(target, hkz.ambient)
    tails = (
        (i, () if level.rank == 0 else inner(level, project_away_from_prefix(hkz, i, t)))
        for i, level in enumerate(levels)
    )
    return _complete(hkz, t, tails)


class KannanReducer(ParamMixin):
    """Closest-vector approximation through promise queries at every cut.

    fit computes the HKZ basis (hkz_) and its tail projections (levels_).
    alpha records the promise the inner solver honors (distance below
    alpha * lambda_1 of each projection); it enters the guarantee, not the
    computation. With a solver of factor gamma the output is within
    max_i sqrt(gamma(n-i)^2 + i/(4 alpha^2)) of the true distance, taking
    gamma(0) = 0.
    """

    def __init__(self, alpha=0.5, inner=None):
        self.alpha = alpha
        self.inner = inner

    def fit(self, basis):
        check_positive("alpha", self.alpha)
        self.hkz_ = hkz_reduce(basis)
        self.levels_ = _levels(self.hkz_)
        return self

    def reduce(self, target):
        return _scan(self.hkz_, self.levels_, target, _solver(self.inner))


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
    h = int(h)
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
    rank down to 0) and one block lattice per cut (blocks_). With r = h + 1,
    block k is the projection at cut i_k of rows i_k .. i_{max(k-r,0)} - 1,
    so each row appears in at most r blocks and the block dimensions sum
    to at most rank * r. Same contract as KannanReducer, but the solver
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
        hkz = hkz_reduce(basis)
        idx = _master_indices(hkz, self.g, self.h)
        r = int(self.h) + 1
        self.hkz_ = hkz
        self.indices_ = idx
        self.blocks_ = tuple(
            LatticeBasis(
                [project_away_from_prefix(hkz, ik, hkz.rows[j])
                 for j in range(ik, idx[max(k - r, 0)])],
                ambient=hkz.ambient,
            )
            for k, ik in enumerate(idx)
        )
        return self

    def reduce(self, target):
        """Chain the block answers in coefficient space, then complete them.

        For k <= r the block is the whole projection at cut k and the
        solver answers directly. A deeper cut fixes the rows below its
        block to the answer from r cuts back and queries the solver on the
        projected residual; failures propagate to the cuts that depend on
        them.
        """
        hkz, idx = self.hkz_, self.indices_
        inner = _solver(self.inner)
        r = int(self.h) + 1
        t = as_fraction_vector(target, hkz.ambient)
        tails = []
        for k, ik in enumerate(idx):
            prev = tails[k - r] if k > r else ()
            # the top cut projects to the zero lattice; a failed anchor fails this cut
            if prev is None or ik == hkz.rank:
                tails.append(prev)
                continue
            y = hkz.vector((0,) * (hkz.rank - len(prev)) + prev)
            resid = project_away_from_prefix(hkz, ik, tuple(a - b for a, b in zip(t, y)))
            w = inner(self.blocks_[k], resid)
            tails.append(None if w is None else tuple(w) + prev)
        return _complete(hkz, t, zip(idx, tails))


class PromiseReducer(ParamMixin):
    """Preprocessing-free variant: the solver also builds the reduced basis.

    fit builds hkz_ with each projected shortest vector found through
    closest-vector queries on doubled sublattices (shortest_via_promise_cvp),
    so an approximate solver yields the relaxed (factor-g) variant, and
    keeps its tail projections in levels_. The promise here is distance
    below lambda_1 of each projection. With a factor-g solver the output is
    within g * sqrt(n+3) / 2 of the true distance.
    """

    def __init__(self, inner=None):
        self.inner = inner

    def fit(self, basis):
        inner = _solver(self.inner)
        self.hkz_ = hkz_reduce(basis, svp=lambda b: shortest_via_promise_cvp(b, inner))
        self.levels_ = _levels(self.hkz_)
        return self

    def reduce(self, target):
        return _scan(self.hkz_, self.levels_, target, _solver(self.inner))


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
        """Basis of the c = 0 members; index p in the parent lattice."""
        j = self._pivot()
        inv = pow(self.z[j], -1, self.p)
        rows = []
        for i in range(self.basis.rank):
            if i == j:
                rows.append(tuple(self.p * x for x in self.basis.rows[j]))
            else:
                m = self.z[i] * inv % self.p
                rows.append(
                    tuple(a - m * b for a, b in zip(self.basis.rows[i], self.basis.rows[j]))
                )
        return LatticeBasis(rows, ambient=self.basis.ambient)

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

        if self.mode == "oracle":
            opt_sq = closest_vector(basis, t)[2]
            counted = _ball_count(basis, tau * tau * opt_sq)
            primes = (_next_prime(2 * counted),)
        else:
            bv, _ = nearest_plane(basis, t)
            try:
                cap = _ball_count(basis, tau * tau * sqdist(bv, t))
            except BudgetExceeded:
                cap = None
            top = _SWEEP if cap is None else min(_SWEEP, max(1, (2 * cap).bit_length()))
            primes = tuple(_next_prime((1 << i) + 1) for i in range(1, top + 1))

        best = None
        produced = False
        for k in range(int(self.trials)):
            for j, p in enumerate(primes):
                coset = _sample_coset(basis, p, stream(self.seed, k, j))
                y = coset.point()
                sub = coset.sublattice()
                try:
                    w = inner(sub, tuple(a - b for a, b in zip(t, y)))
                except BudgetExceeded:
                    w = None
                if w is None:
                    continue
                cand = tuple(a + b for a, b in zip(sub.vector(w), y))
                produced = True
                score = sqdist(cand, t)
                if best is None or score < best[0]:
                    best = (score, cand)
        if best is None:
            cand, _ = nearest_plane(basis, t)
            best = (sqdist(cand, t), cand)
        return SparsifyResult(best[1], produced, int(self.trials))
