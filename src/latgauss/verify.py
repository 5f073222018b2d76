"""Release-gate checks: every module invariant at desk scale.

verify_suite runs each property on small fixed fixtures and returns named
verdicts; nothing here raises on a failed property, so one broken invariant
still lets the remaining checks report. The optional advice_path points at
a saved decoder state whose stored frame is validated against its advice
(a corrupted file turns the frame-identity verdict into a failure).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .advice import generate_advice
from .decoder import EXACT, BddDecoder, FrameAbort
from .enumeration import closest_vector, enumerate_ball, hkz_reduce, shortest_vector
from .experiments import Assertion, _normalized_evaluator, _scaled_points, run_experiment
from .gaussian import (
    PeriodicGaussian,
    decoding_width,
    density_envelope,
    periodic_gaussian_interval,
    sample_lattice_gaussian,
)
from .generators import integer_identity, random_integer
from .lattice import (
    LatticeBasis,
    lattice_coefficients,
    nearest_plane,
    project_away_from_prefix,
    project_lattice,
    sqdist,
    sqnorm,
)
from .reductions import (
    KannanReducer,
    PromiseReducer,
    SparseCoset,
    SparsifyReducer,
    sparse_coset_sample,
)
from .rng import stream

_PI = math.pi


def _rational_targets(basis, count, seed):
    """Exact targets k . B / 64 with k uniform in [-192, 192]."""
    raw = stream(seed, 9).integers(-192, 193, size=(count, basis.rank))
    return _scaled_points(basis, raw, Fraction(1, 64))


def _check_gram_schmidt():
    basis = random_integer(4, seed=11)
    gs = basis.gram_schmidt
    ok = True
    for i, b in enumerate(basis.rows):
        recon = list(gs.orthogonal[i])
        for j in range(i):
            recon = [r + gs.mu[i][j] * w for r, w in zip(recon, gs.orthogonal[j])]
        ok &= tuple(recon) == b
    for i in range(4):
        for j in range(i):
            ok &= sum(a * b for a, b in zip(gs.orthogonal[i], gs.orthogonal[j])) == 0
    return Assertion("gram-schmidt-reconstruction", ok,
                     "exact reconstruction and pairwise orthogonality on rank 4")


def _check_dual():
    basis = random_integer(4, seed=12)
    dual = basis.dual
    ok = all(
        sum(a * b for a, b in zip(d, b2)) == (1 if i == j else 0)
        for i, d in enumerate(dual.rows)
        for j, b2 in enumerate(basis.rows)
    )
    ok &= dual.dual.rows == basis.rows
    return Assertion("dual-biorthogonality", ok,
                     "dual inner products are exactly the identity; double dual returns")


def _check_babai_bound():
    basis = random_integer(4, seed=13)
    gs_bound = sum(basis.gram_schmidt.sqnorms) * Fraction(1, 4)
    ok = True
    for t in _rational_targets(basis, 25, seed=13):
        vec, _ = nearest_plane(basis, t)
        ok &= sqdist(vec, t) <= gs_bound
    return Assertion("babai-distance-bound", ok,
                     "nearest-plane distance^2 stayed below sum ||b*||^2 / 4")


def _check_enumeration():
    basis = random_integer(3, seed=14)
    sv_sq = sqnorm(shortest_vector(basis)[0])
    ball = enumerate_ball(basis, (0,) * basis.ambient, math.sqrt(float(sv_sq)) * 1.001)
    nonzero = [ball.exact_sqdist(i) for i in range(len(ball)) if any(ball.coeffs[i])]
    ok = bool(nonzero) and min(nonzero) == sv_sq
    for t in _rational_targets(basis, 15, seed=14):
        bvec, _ = nearest_plane(basis, t)
        cvec, _, csq = closest_vector(basis, t)
        ok &= csq <= sqdist(bvec, t)
    return Assertion("enumeration-oracle", ok,
                     "shortest vector matches the ball minimum; CVP beats nearest-plane")


def _check_hkz():
    basis = random_integer(4, seed=15)
    red = hkz_reduce(basis)
    ok = True
    for row in red.rows:
        ok &= lattice_coefficients(basis, row) is not None
    for row in basis.rows:
        ok &= lattice_coefficients(red, row) is not None
    gs = red.gram_schmidt
    for i in range(red.rank):
        proj = project_lattice(red, i)
        ok &= sqnorm(shortest_vector(proj)[0]) == gs.sqnorms[i]
        for j in range(i):
            ok &= abs(gs.mu[i][j]) <= Fraction(1, 2)
    return Assertion("hkz-conditions", ok,
                     "same lattice, projected-shortest rows, size-reduced")


def _check_poisson():
    ok = True
    worst = 0.0
    for seed in (21, 22):
        basis = random_integer(3, seed=seed)
        pg = PeriodicGaussian(basis, 1.0)
        for t in _rational_targets(basis, 5, seed=seed):
            lo, hi = periodic_gaussian_interval(basis, t, 1.0)
            direct = 0.5 * (lo + hi)
            gap = abs(pg.f([float(x) for x in t]) - direct)
            bound = pg.f_err + 0.5 * (hi - lo) + 1e-8
            worst = max(worst, gap - bound)
            ok &= gap <= bound
    return Assertion("poisson-consistency", ok,
                     f"dual-side and primal-side evaluations agree (margin {worst:.2e})")


def _check_envelope():
    eps = 1e-3
    _, pg, s_eps, _ = _normalized_evaluator(integer_identity(3), eps)
    rng = stream(31)
    ok = True
    for _ in range(60):
        d = rng.random() * 1.2 * s_eps
        u = rng.normal(size=3)
        t = d * u / math.sqrt(float(u @ u))
        v = pg.f(t)
        lo, hi = density_envelope(d, eps)
        ok &= lo - 2e-9 - pg.f_err <= v <= hi + pg.f_err
    return Assertion("density-envelope", ok,
                     "f stayed between exp(-pi d^2) and the closed-form upper bound")


def _check_contraction():
    rep = run_experiment(
        "experiment = contraction\nlattice = integer-identity:3\neps = 0.001\ntrials = 60\n"
    )
    return Assertion("step-contraction", rep.ok,
                     rep.assertions[0].detail)


def _check_hessian_zero():
    eps = 1e-3
    _, pg, _, _ = _normalized_evaluator(integer_identity(3), eps)
    h = pg.hessian(np.zeros(3))
    gap = float(np.abs(np.linalg.eigvalsh(h + 2.0 * _PI * np.eye(3))).max())
    bound = 4.0 * _PI * eps / (1.0 + eps) * (math.log(2.0 * (1.0 + eps) / eps) + 1.0)
    ok = gap <= bound + pg.hess_err
    return Assertion("hessian-at-zero", ok,
                     f"||Hf(0) + 2 pi I|| = {gap:.3e} within {bound:.3e} + certified")


def _check_finite_differences():
    basis = random_integer(3, seed=33)
    pg = PeriodicGaussian(basis, 1.0)
    rng = stream(33)
    t = rng.normal(size=3) * 0.2
    h = 1e-5
    ok = True
    g = pg.grad(t)
    hess = pg.hessian(t)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        diff = (pg.f(t + e) - pg.f(t - e)) / (2.0 * h)
        ok &= abs(diff - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
        gdiff = (pg.grad(t + e) - pg.grad(t - e)) / (2.0 * h)
        ok &= float(np.abs(gdiff - hess[i]).max()) <= 1e-5 * max(1.0, float(np.abs(hess[i]).max()))
    return Assertion("derivative-consistency", ok,
                     "gradient and Hessian match central differences of f")


def _check_sampler_moments():
    basis = integer_identity(4)
    s = 2.0
    draws = sample_lattice_gaussian(basis, s=s, count=2000, rng=stream(34))
    mean = draws.vectors_float().mean(axis=0)
    bound = 4.0 * s * math.sqrt(4.0 / 2000.0)
    norm = math.sqrt(float(mean @ mean))
    return Assertion("sampler-mean-zero", norm <= bound,
                     f"empirical mean norm {norm:.4f} within {bound:.4f}")


def _check_estimator_basics():
    basis = random_integer(3, seed=35)
    adv = generate_advice(basis, 1e-3, 48, seed=35)
    rng = stream(35, 1)
    ok = abs(adv.f((0.0, 0.0, 0.0)) - 1.0) <= 1e-12
    for _ in range(10):
        t = rng.normal(size=3)
        v = adv.f(t)
        ok &= -1.0 - 1e-12 <= v <= 1.0 + 1e-12
        y = basis.vector([int(c) for c in rng.integers(-2, 3, size=3)])
        shifted = adv.f(t + np.array([float(x) for x in y]))
        ok &= abs(shifted - v) <= 1e-6
    h = 1e-6
    t = rng.normal(size=3) * 0.1
    g = adv.grad(t)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        diff = (adv.f(t + e) - adv.f(t - e)) / (2.0 * h)
        ok &= abs(diff - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
    return Assertion("estimator-basics", ok,
                     "f_W in range, 1 at lattice points, periodic, gradient-consistent")


def _check_step_arithmetic():
    ok = True
    for k in range(3, 13):
        eps = 10.0 ** -k
        if eps >= 1.0 / 200.0:
            continue
        _, dmax = decoding_width(eps)
        ok &= eps ** ((1.0 - 2.0 * dmax) / 4.0) <= 0.5
    return Assertion("step-halving-grid", ok,
                     "eps^((1-2 delta_max)/4) <= 1/2 across the eps grid")


def _fit_small_decoder():
    basis = integer_identity(3)
    return BddDecoder(1e-3, n_advice=64, seed=3).fit(basis)


def _check_frame_identity(advice_path):
    if advice_path is None:
        dec = _fit_small_decoder()
        detail = "basis rows reconstruct exactly through the stored frame"
    else:
        try:
            dec = BddDecoder.load(advice_path)
        except (FrameAbort, ValueError, OSError) as exc:
            return Assertion("decoder-frame-identity", False,
                             f"stored frame failed validation: {exc}")
        detail = f"frame in {advice_path} is biorthogonal and reconstructs the basis"
    ok = all(lattice_coefficients(dec.frame_, row) is not None for row in dec.basis_.rows)
    return Assertion("decoder-frame-identity", ok, detail)


def _check_decoder_equivariance():
    dec = _fit_small_decoder()
    basis = dec.basis_
    dec2 = BddDecoder(1e-3, n_advice=64, seed=3).fit(basis.scaled(Fraction(2)))
    rng = stream(36)
    ok = True
    for _ in range(10):
        u = rng.normal(size=3)
        t = 0.8 * dec.radius_ * u / math.sqrt(float(u @ u))
        t += np.array([float(c) for c in rng.integers(-2, 3, size=3)])
        a = dec.decode(t)
        b = dec2.decode(2.0 * t)
        ok &= tuple(2 * x for x in a.vector) == tuple(b.vector)
        y = basis.vector([int(c) for c in rng.integers(-2, 3, size=3)])
        c = dec.decode(t + np.array([float(x) for x in y]))
        ok &= tuple(p + q for p, q in zip(a.vector, y)) == tuple(c.vector)
    return Assertion("decoder-equivariance", ok,
                     "decoding commutes with doubling and with lattice translations")


def _check_ascent_trace():
    # targets stay near the origin so the recorded norms are the distances
    # the contraction statement speaks about
    dec = _fit_small_decoder()
    rng = stream(37)
    n = dec.basis_.rank
    first = later = total = 0
    for _ in range(100):
        u = rng.normal(size=n)
        t = 0.9 * dec.radius_ * rng.random() * u / math.sqrt(float(u @ u))
        res = dec.decode(t, trace=True)
        if res.status != EXACT or len(res.trace) < 3:
            continue
        norms = [p[0] for p in res.trace]
        total += 1
        first += norms[1] <= 0.5 * norms[0] + 1e-12
        later += norms[2] <= dec.advice_.eps ** 0.125 * norms[1] + 1e-12
    frac1 = first / total if total else 0.0
    frac2 = later / total if total else 0.0
    ok = total >= 90 and frac1 >= 0.99 and frac2 >= 0.99
    return Assertion(
        "ascent-trace-contraction", ok,
        f"first step halved ||t|| on {frac1:.2%}, later steps contracted on {frac2:.2%}")


def _rounding_probes(dec):
    """(thr, targets): thr = 1/(2 max||v*||), in the target's units like the
    trace, and 30 targets in random directions at up to 0.9 thr."""
    thr = 0.5 / max(math.sqrt(float(sqnorm(w))) for w in dec.vstar_.rows)
    rng = stream(38)
    targets = []
    for _ in range(30):
        u = rng.normal(size=dec.basis_.rank)
        targets.append(0.9 * thr * rng.random() * u / math.sqrt(float(u @ u)))
    return thr, targets


def _check_rounding_safety():
    dec = _fit_small_decoder()
    thr, targets = _rounding_probes(dec)
    ok = True
    hits = 0
    for t in targets:
        res = dec.decode(t, trace=True)
        if res.trace and res.trace[-1][0] < thr:
            hits += 1
            ok &= all(x == 0 for x in res.vector)
    ok &= hits >= 25
    return Assertion("final-rounding-safety", ok,
                     f"{hits} traces ended below 1/(2 max||v*||) and all rounded to zero")


def _check_reduction_membership():
    basis = random_integer(3, seed=41)
    reducers = (KannanReducer(alpha=0.5).fit(basis), PromiseReducer().fit(basis))
    ok = True
    for t in _rational_targets(basis, 5, seed=41):
        for red in reducers:
            ok &= lattice_coefficients(basis, red.reduce(t)) is not None
    sparsify = SparsifyReducer(tau=1.0, mode="oracle", trials=4, seed=42).fit(basis)
    res = sparsify.reduce(_rational_targets(basis, 1, seed=42)[0])
    ok &= lattice_coefficients(basis, res.vector) is not None
    return Assertion("reduction-membership", ok,
                     "every reduction output is an exact lattice member")


def _check_reduction_factors():
    rep = run_experiment(
        "experiment = reduction-audit\nlattice = random-integer:3,bound=5\ntrials = 10\n"
    )
    return Assertion("reduction-factors", rep.ok,
                     "; ".join(a.detail for a in rep.assertions if not a.ok) or
                     "projection, block, and no-preprocessing factors all held")


def _check_master_decomposition():
    basis = random_integer(4, seed=43)
    hkz = hkz_reduce(basis)
    ok = True
    for t in _rational_targets(hkz, 5, seed=43):
        for i in (1, 2, 3):
            level = project_lattice(hkz, i)
            coeffs = closest_vector(level, project_away_from_prefix(hkz, i, t))[1]
            y = hkz.vector((0,) * i + coeffs)
            resid = tuple(a - b for a, b in zip(t, y))
            prefix = LatticeBasis(hkz.rows[:i], ambient=hkz.ambient)
            z, _ = nearest_plane(prefix, resid)
            cand = tuple(a + b for a, b in zip(y, z))
            p = project_away_from_prefix(hkz, i, resid)
            q = tuple(a - b for a, b in zip(resid, p))
            lhs = sqdist(cand, t)
            rhs = sqnorm(p) + sqdist(z, q)
            ok &= lhs == rhs
    return Assertion("cut-orthogonal-decomposition", ok,
                     "candidate error splits exactly across the projection cut")


def _check_coset():
    basis = random_integer(3, seed=44)
    coset = sparse_coset_sample(basis, 7, seed=44)
    sub = coset.sublattice()
    ok = sub.gram_det == basis.gram_det * 49
    zero = SparseCoset(basis, coset.p, coset.z, 0)
    for row in sub.rows:
        ok &= zero.contains(row)
    pt = coset.point()
    ok &= coset.contains(pt)
    ok &= lattice_coefficients(basis, pt) is not None
    return Assertion("coset-index", ok,
                     "sublattice has index p exactly and the representative lies in the coset")


def _check_coset_coverage():
    basis = integer_identity(3)
    p = 11
    r = 1.3
    ball = enumerate_ball(basis, (0, 0, 0), r)
    pts = [tuple(int(c) for c in ball.coeffs[i]) for i in range(len(ball))]
    n_pts = len(pts)
    rng = stream(45)
    eps_checks = {0.1: 0, 0.25: 0}
    draws = 400
    for _ in range(draws):
        z = tuple(int(v) for v in rng.integers(0, p, size=3))
        if all(v % p == 0 for v in z):
            continue
        residues = {sum(a * b for a, b in zip(z, c)) % p for c in pts}
        size = len(residues)
        for e in eps_checks:
            if size <= e * n_pts * p / (p + n_pts - 1):
                eps_checks[e] += 1
    ok = True
    for e, cnt in eps_checks.items():
        frac = cnt / draws
        ok &= frac <= e + 3.0 * math.sqrt(e * (1.0 - e) / draws)
    return Assertion("coset-coverage-bound", ok,
                     "covered-coset counts respected the sparsification tail bound")


def _check_experiment_determinism():
    cfg = "experiment = decode-success\nlattice = integer-identity:3\ntrials = 10\n"
    a = run_experiment(cfg).csv()
    b = run_experiment(cfg).csv()
    return Assertion("experiment-determinism", a == b,
                     "same config and seed produced byte-identical CSV")


_CHECKS = (
    _check_gram_schmidt,
    _check_dual,
    _check_babai_bound,
    _check_enumeration,
    _check_hkz,
    _check_poisson,
    _check_envelope,
    _check_contraction,
    _check_hessian_zero,
    _check_finite_differences,
    _check_sampler_moments,
    _check_estimator_basics,
    _check_step_arithmetic,
    _check_frame_identity,
    _check_decoder_equivariance,
    _check_ascent_trace,
    _check_rounding_safety,
    _check_reduction_membership,
    _check_reduction_factors,
    _check_master_decomposition,
    _check_coset,
    _check_coset_coverage,
    _check_experiment_determinism,
)


def verify_suite(advice_path=None):
    """All release-gate verdicts, in a stable order."""
    return [
        check(advice_path) if check is _check_frame_identity else check()
        for check in _CHECKS
    ]
