"""The benchmark's seeded workloads: inputs, set-up, ops and exact checks.

Each workload builds all of its inputs from the workload seed alone. Set-up
turns one generated lattice into a solver that is ready to answer; an op is
one query a user would send. Outputs are kept and checked exactly after the
timed phase, outside every trace span.

The library is reached through its modules and classes at call time
(``reductions.bdd_inner``, ``BddDecoder.load``, ...), so tracing wrappers
installed there see every call. The checks use references bound at import,
which the wrappers never replace.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from latgauss import reductions
from latgauss.advice import advice_count
from latgauss.decoder import EXACT, BddDecoder
from latgauss.enumeration import closest_vector, lambda1
from latgauss.generators import random_dual_orthogonal, random_integer
from latgauss.lattice import lattice_coefficients, sqdist
from latgauss.rng import stream


class Raised:
    """Stand-in output of an op whose call raised; equal by exception type."""

    def __init__(self, kind):
        self.kind = kind

    def __eq__(self, other):
        return isinstance(other, Raised) and other.kind == self.kind

    def __repr__(self):
        return f"Raised({self.kind})"


def _rational_targets(rng, rank, count):
    """count targets with integer numerators in [-64, 64] over 16."""
    return [tuple(Fraction(int(v), 16) for v in rng.integers(-64, 65, size=rank))
            for _ in range(count)]


class DecodeR8:
    """Acceptance-04 decoder: fit, save, load, then batched decodes.

    The lattice is random-dual-orthogonal:8 at eps 1e-6 with
    advice_count(8, 1e-6) = 221,049 draws, so the product sampler runs and
    the advice kernel carries the op time. Targets are planted within
    0.9 * radius_ of a lattice point exactly as acceptance 04 plants them;
    seed 4 reproduces that fixture. An op is one target; a call decodes a
    fixed batch of them. The 240 targets take about 7.5 s a pass, so a
    timed loop of 40 s decodes each about five times.
    """

    name = "decode-r8"
    default_seed = 4
    eps = 1e-6
    rank = 8
    batch = 4
    pool = 240
    setups = 5
    trace_setups = 1
    trace_calls = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        self.setup_errors = []
        self.path = workdir / f"decoder-{seed}.txt"
        rng = stream(100 + seed, 0)
        self.draws = [([int(v) for v in rng.integers(-3, 4, size=self.rank)],
                       rng.normal(size=self.rank), rng.random())
                      for _ in range(self.pool)]

    def inputs(self):
        return (self.seed, tuple((tuple(c), tuple(u.tolist()), r) for c, u, r in self.draws))

    def base(self, i):
        return random_dual_orthogonal(self.rank, seed=self.seed)

    def setup(self, i, basis):
        dec = BddDecoder(self.eps, n_advice=advice_count(self.rank, self.eps),
                         seed=self.seed).fit(basis)
        dec.save(self.path)
        self.decoder = BddDecoder.load(self.path)

    def after_setup(self):
        """Plant the targets, which depend on the fitted radius."""
        self.path.unlink(missing_ok=True)
        basis, radius = self.decoder.basis_, self.decoder.radius_
        self.planted, self.exact, rows = [], [], []
        for coeffs, u, r in self.draws:
            point = basis.vector(coeffs)
            u = u * (0.9 * radius * r ** 0.125 * (1 - 1e-9) / np.linalg.norm(u))
            offset = [Fraction(round(x * (1 << 20)), 1 << 20) for x in u]
            row = [float(p + o) for p, o in zip(point, offset)]
            self.planted.append(point)
            self.exact.append(tuple(Fraction(x) for x in row))
            rows.append(row)
        self.targets = np.array(rows)

    def setup_outputs(self):
        return []

    def keys(self, k):
        lo = k * self.batch % self.pool
        return list(range(lo, lo + self.batch))

    def call(self, k):
        keys = self.keys(k)
        results = self.decoder.decode_batch(self.targets[keys[0]:keys[-1] + 1])
        return [(r.status, r.vector) for r in results]

    def prepare_checks(self):
        # the planted point is the unique closest vector of any target
        # within radius_ of it once radius_ < lambda1 / 2, checked exactly
        r = Fraction(self.decoder.radius_)
        self.basis = self.decoder.basis_
        self.r_sq = r * r
        self.promise_ok = 4 * self.r_sq < lambda1(self.basis)

    def check(self, key, out):
        status, vector = out
        if status != EXACT:
            return f"status {status}"
        t = self.exact[key]
        if self.promise_ok and sqdist(self.planted[key], t) < self.r_sq:
            want = self.planted[key]
        else:
            want = closest_vector(self.basis, t)[0]
        return None if vector == want else "vector differs from the closest vector"


class _Rotating:
    """Ops rotate over the ready bases (and schemes), so that any prefix of
    the timed loop holds the same mix. A base whose set-up raised has no
    solver and leaves the rotation; its failure counts as a failed op."""

    n_targets = 16

    def __init__(self, seed, workdir):
        self.seed = seed
        self.targets = [_rational_targets(stream(100 + seed, b), self.rank, self.n_targets)
                        for b in range(self.n_bases)]
        self.basis_list = [None] * self.n_bases
        self.reducers = [None] * self.n_bases
        self.warm = {}
        self.setup_errors = []  # (base, exception type) filled by run_setups

    def inputs(self):
        rows = tuple(self.base(b).rows for b in range(self.n_bases))
        return (self.seed, rows, tuple(map(tuple, self.targets)))

    def after_setup(self):
        failed = {i for i, _ in self.setup_errors}
        self.live = [b for b, red in enumerate(self.reducers)
                     if red is not None and b not in failed]
        if not self.live:
            raise RuntimeError(f"no base has a ready solver: {self.setup_errors}")

    def setup_outputs(self):
        return [((b, 0), out) for b, out in sorted(self.warm.items())]

    def _rotate(self, k):
        """(base, target index) of the k-th query of the rotation."""
        n = len(self.live)
        return self.live[k % n], k // n % self.n_targets

    def prepare_checks(self):
        self.opt = {}

    def _opt(self, b, j):
        if (b, j) not in self.opt:
            self.opt[b, j] = closest_vector(self.basis_list[b], self.targets[b][j])[2]
        return self.opt[b, j]


class ReduceR8(_Rotating):
    """Slice of the acceptance-07 audit with the exact oracle inner solver.

    Per base, Kannan, Master (g=1, h=0) and Promise are fitted, then queried
    with rational targets of denominator 16. The bases are the first
    acceptance-07 bases (seeds 700..) for every workload seed, which draws
    the targets; seed 7 reproduces the start of the acceptance-07 target
    streams. An op is one reduce(target) call. Four targets per base make
    192 distinct ops, so a timed loop of 40 s repeats each about seven
    times (run.op_p50 takes the median of each op's repeats first).

    SparsifyReducer in paper mode is left out: its query cost is
    heavy-tailed (0.3-10.9 s per query on base seed 715 against about
    0.02 s on the other bases), so a closed loop that includes it measures
    that one base. Seeded random rank-8 bases are left out because set-up
    raised BudgetExceeded after about 10 s on 2 of 48 tried (seeds 122 and
    409), which no run-to-run bound absorbs.
    """

    name = "reduce-r8"
    default_seed = 7
    rank = 8
    n_bases = 16
    n_targets = 4
    setups = n_bases
    schemes = ("kannan", "master", "promise")
    trace_setups = 8
    trace_calls = 3 * trace_setups * len(schemes)

    def base(self, i):
        return random_integer(self.rank, seed=700 + i)

    def setup(self, b, basis):
        half = Fraction(1, 2)
        self.reducers[b] = (
            reductions.KannanReducer(alpha=half).fit(basis),
            reductions.MasterReducer(g=1, h=0, alpha=half).fit(basis),
            reductions.PromiseReducer().fit(basis),
        )
        self.basis_list[b] = basis

    def keys(self, k):
        s = len(self.schemes)
        b, j = self._rotate(k // s)
        return [(b, j, k % s)]

    def call(self, k):
        [(b, j, s)] = self.keys(k)
        return [self.reducers[b][s].reduce(self.targets[b][j])]

    def check(self, key, out):
        b, j, s = key
        if lattice_coefficients(self.basis_list[b], out) is None:
            return "output is not a lattice member"
        got, opt, n = sqdist(out, self.targets[b][j]), self._opt(b, j), self.rank
        scheme = self.schemes[s]
        ok = 4 * got <= (n + 3) * opt if scheme == "promise" else got <= n * opt
        return None if ok else f"{scheme} factor broken"


class BddReduceR4(_Rotating):
    """The paper's composition: KannanReducer over bdd_inner at alpha 0.15.

    Rank-4 random-integer bases drawn from the seed. Set-up is the reducer
    fit plus one warm-up query, which makes bdd_inner fit a decoder for
    every projection; the warm-up is checked like any op. An op is one
    reduce(target) call. BENCHMARK.json leaves this workload out: set-up
    time and peak memory differ a hundredfold between random bases
    (perfbench/BASELINE.md).
    """

    name = "bdd-reduce-r4"
    default_seed = 4
    rank = 4
    alpha = Fraction(3, 20)
    n_bases = 6
    setups = trace_setups = n_bases
    trace_calls = 2 * n_bases

    def base(self, i):
        return random_integer(self.rank, seed=100 * self.seed + i)

    def setup(self, b, basis):
        inner = reductions.bdd_inner(alpha=float(self.alpha))
        red = reductions.KannanReducer(alpha=float(self.alpha), inner=inner).fit(basis)
        self.reducers[b] = red
        self.basis_list[b] = basis
        self.warm[b] = red.reduce(self.targets[b][0])

    def keys(self, k):
        return [self._rotate(k)]

    def call(self, k):
        [(b, j)] = self.keys(k)
        return [self.reducers[b].reduce(self.targets[b][j])]

    def prepare_checks(self):
        # kannan_reduce's guarantee for a gamma = 1 inner solver: squared
        # factor max_i (gamma(n-i)^2 + i/(4 alpha^2)), gamma(0) = 0
        n, a2 = self.rank, 4 * self.alpha * self.alpha
        self.factor_sq = max(1 + Fraction(n - 1) / a2, Fraction(n) / a2)
        self.opt = {}

    def check(self, key, out):
        b, j = key
        if lattice_coefficients(self.basis_list[b], out) is None:
            return "output is not a lattice member"
        ok = sqdist(out, self.targets[b][j]) <= self.factor_sq * self._opt(b, j)
        return None if ok else "kannan bound broken"


WORKLOADS = {w.name: w for w in (DecodeR8, ReduceR8, BddReduceR4)}


def run_setups(wl, count):
    """count set-ups, each from a freshly generated lattice; seconds each.

    A set-up that raises is recorded in wl.setup_errors and the run goes on.
    """
    durations = []
    for i in range(count):
        basis = wl.base(i)
        t0 = time.perf_counter()
        try:
            wl.setup(i, basis)
        except Exception as exc:  # counted as a failed op by check_all
            wl.setup_errors.append((i, type(exc).__name__))
        durations.append(time.perf_counter() - t0)
    wl.after_setup()
    return durations


def run_call(wl, k):
    """Outputs of call k, one per op; an exception fails each of its ops."""
    try:
        return wl.call(k)
    except Exception as exc:  # a failed op; the run goes on
        return [Raised(type(exc).__name__)] * len(wl.keys(k))


def check_all(wl, calls):
    """(attempted, failed, wrong, reasons) over set-up outputs and calls.

    failed counts every op that raised or failed its check; wrong counts
    only those that returned an output failing its exact check.
    """
    wl.prepare_checks()
    attempted = failed = wrong = 0
    reasons = {}
    pairs = [(("setup", i), Raised(kind)) for i, kind in wl.setup_errors]
    pairs += wl.setup_outputs()
    for k, outs in calls:
        pairs.extend(zip(wl.keys(k), outs))
    for key, out in pairs:
        attempted += 1
        if isinstance(out, Raised):
            why = f"raised {out.kind}"
        else:
            why = wl.check(key, out)
            wrong += why is not None
        if why is not None:
            failed += 1
            reasons[why] = reasons.get(why, 0) + 1
    return attempted, failed, wrong, reasons
