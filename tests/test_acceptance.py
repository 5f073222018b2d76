"""Top-level acceptance checks, one labeled verdict line per criterion.

Each test prints exactly one PASS/FAIL line (straight to the terminal,
bypassing capture) and then asserts, so the run log always carries the
full scoreboard. Fixture seeds are arbitrary but frozen.
"""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from latgauss.advice import advice_count
from latgauss.decoder import EXACT, BddDecoder, bdd_param_plan, decoding_radius
from latgauss.enumeration import closest_vector, enumerate_ball, lambda1
from latgauss.experiments import run_experiment
from latgauss.gaussian import (
    PeriodicGaussian,
    decoding_width,
    density_envelope,
    periodic_gaussian_interval,
    smoothing_parameter,
)
from latgauss.generators import (
    checkerboard,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from latgauss.lattice import sqdist
from latgauss.reductions import (
    KannanReducer,
    MasterReducer,
    PromiseReducer,
    SparsifyReducer,
    _next_prime,
)
from latgauss.rng import stream


def report(capsys, num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_01_fourier_and_direct_sums_agree(capsys):
    worst = -1.0
    for k in range(100):
        n = 1 + k % 4
        basis = random_integer(n, seed=200 + k, bound=4)
        rng = stream(101, k)
        t = tuple(Fraction(int(v), 16) for v in rng.integers(-48, 49, size=n))
        pg = PeriodicGaussian(basis, 1.0)
        lo, hi = periodic_gaussian_interval(basis, t)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        gap = abs(pg.f([float(x) for x in t]) - mid)
        worst = max(worst, gap - (pg.f_err + half + 1e-8))
    report(capsys, 1, "dual-sum and direct-sum densities agree on 100 random pairs",
           worst <= 0.0, f"worst certified excess {worst:.3e}")


def test_02_density_envelope_brackets_the_normalized_density(capsys):
    bad = 0
    total = 0
    for eps in (1e-3, 1e-6):
        base = integer_identity(3)
        eta = smoothing_parameter(base.dual, eps).value
        scaled = base.scaled(Fraction(eta))
        pg = PeriodicGaussian(scaled, 1.0)
        rng = stream(102, int(-math.log10(eps)))
        for _ in range(500):
            u = tuple(Fraction(int(v), 1000) for v in rng.integers(-500, 501, size=3))
            dist = math.sqrt(float(closest_vector(base, u)[2])) * float(eta)
            val = pg.f(np.array([float(x) for x in u]) * float(eta))
            lo, hi = density_envelope(dist, eps)
            total += 1
            if not (lo - 2.0 * pg.f_err <= val <= hi + pg.f_err):
                bad += 1
    report(capsys, 2, "point-Gaussian lower and smoothed upper density bounds",
           bad == 0, f"{bad} of {total} targets escaped the envelope")


def test_03_gradient_step_contracts_within_the_radius(capsys):
    failures = []
    for lattice, eps, trials in (
        ("integer-identity:4", 1e-3, 200),
        ("integer-identity:6", 1e-4, 150),
        ("checkerboard:4", 1e-6, 150),
    ):
        rep = run_experiment(
            f"experiment = contraction\nlattice = {lattice}\nseed = 103\n"
            f"eps = {eps}\ntrials = {trials}\n"
        )
        if not rep.ok:
            failures.append(lattice)
    report(capsys, 3, "exact gradient steps shrink targets by 4x inside the radius",
           not failures, f"fixtures failing: {failures or 'none'} (500 targets, rank <= 6)")


def test_04_decoder_matches_the_exact_oracle(capsys):
    eps = 1e-6
    basis = random_dual_orthogonal(8, seed=4)
    count = advice_count(8, eps)
    dec = BddDecoder(eps, n_advice=count, seed=4).fit(basis)
    rng = stream(104, 0)
    matches = 0
    iteration_ok = True
    trials = 1000
    targets = []
    exact_targets = []
    for _ in range(trials):
        coeffs = [int(v) for v in rng.integers(-3, 4, size=8)]
        point = basis.vector(coeffs)
        u = rng.normal(size=8)
        u *= 0.9 * dec.radius_ * rng.random() ** 0.125 * (1 - 1e-9) / np.linalg.norm(u)
        offset = [Fraction(round(x * (1 << 20)), 1 << 20) for x in u]
        exact = tuple(p + o for p, o in zip(point, offset))
        exact_targets.append(exact)
        targets.append([float(x) for x in exact])
    results = dec.decode_batch(np.array(targets))
    for res, exact in zip(results, exact_targets):
        if res.status != EXACT:
            continue
        if res.iterations_run != dec.iterations_:
            iteration_ok = False
        matches += res.vector == closest_vector(basis, exact)[0]
    ok = matches >= 990 and dec.iterations_ == 2 and iteration_ok
    report(capsys, 4, "rank-8 decoder agrees with the exact closest-vector oracle",
           ok, f"{matches}/{trials} oracle matches, {count} advice draws, "
               f"{dec.iterations_} iterations")


def test_05_planned_radius_clears_the_promised_fraction(capsys):
    alpha = 0.15
    shortfall = []
    cases = [("integer-identity", n, None) for n in (6, 8, 10)]
    cases += [("random-integer", (6, 8, 10)[k % 3], 50 + k) for k in range(10)]
    for kind, n, seed in cases:
        eps, _ = bdd_param_plan(alpha, n)
        basis = integer_identity(n) if seed is None else random_integer(n, seed=seed)
        radius = decoding_radius(basis, eps)
        lam = math.sqrt(float(lambda1(basis)))
        if radius < alpha * lam:
            shortfall.append((kind, n, seed))
    report(capsys, 5, "planned decoding radius reaches alpha * lambda1",
           not shortfall, f"alpha={alpha}, 13 fixtures, short: {shortfall or 'none'}")


def test_06_estimator_error_decays_with_advice_size(capsys):
    rep = run_experiment(
        "experiment = estimator-error\n"
        "lattice = integer-identity:4\n"
        "seed = 106\n"
        "eps = 1e-3\n"
        "n_advice = 64\n"
        "trials = 200\n"
        "tol.octaves = 4\n"
    )
    decay = [f"{row[2]:.2e}" for row in rep.rows]
    report(capsys, 6, "0.99-quantile estimator errors fall as advice doubles",
           rep.ok, f"|f_W - f| per octave: {', '.join(decay)}")


def test_07_reduction_factor_audits(capsys):
    n = 8
    bad = []
    dims_bad = 0
    instances = 0
    for b in range(50):
        basis = random_integer(n, seed=700 + b)
        kan = KannanReducer(alpha=Fraction(1, 2)).fit(basis)
        mas = MasterReducer(g=1.0, h=0, alpha=Fraction(1, 2)).fit(basis)
        pro = PromiseReducer().fit(basis)
        if sum(blk.rank for blk in mas.blocks_) != n:
            dims_bad += 1
        rng = stream(107, b)
        for _ in range(10):
            t = tuple(Fraction(int(v), 16) for v in rng.integers(-64, 65, size=n))
            opt = closest_vector(basis, t)[2]
            instances += 1
            if sqdist(kan.reduce(t), t) > n * opt:
                bad.append(("kannan", b))
            if sqdist(mas.reduce(t), t) > n * opt:
                bad.append(("master", b))
            if 4 * sqdist(pro.reduce(t), t) > (n + 3) * opt:
                bad.append(("promise", b))
    ok = not bad and dims_bad == 0
    report(capsys, 7, "approximation factors hold on 500 rank-8 instances",
           ok, f"{instances} instances, factor breaks: {len(bad)}, "
               f"block-dimension breaks: {dims_bad}")


def test_08_coset_sparsification_statistics(capsys):
    basis = random_integer(5, seed=801, bound=5)
    lam = math.sqrt(float(lambda1(basis)))
    radius = Fraction(math.floor(1.45 * lam * 8), 8)
    ball = enumerate_ball(basis, (0,) * 5, radius)
    coeff_rows = ball.coeffs.astype(np.int64)
    n_ball = len(ball)
    p = _next_prime(2 * n_ball)
    draws = 10_000
    rng = stream(108, 0)
    z = rng.integers(0, p, size=(draws, 5))
    residues = (z @ coeff_rows.T) % p
    nonzero = ~np.all(coeff_rows == 0, axis=1)
    # short-vector survival: some nonzero ball point lands in the sublattice
    hit1 = (residues[:, nonzero] == 0).any(axis=1).mean()
    q1 = n_ball / p
    ok1 = hit1 <= q1 + 3.0 * math.sqrt(q1 * (1 - q1) / draws)
    # coset coverage: the number of occupied residues is rarely small
    cover = np.array([len(set(row.tolist())) for row in residues])
    ok2 = True
    cover_detail = []
    for eps in (0.1, 0.25):
        thr = eps * n_ball * p / (p + n_ball - 1)
        frac = (cover <= thr).mean()
        ok2 = ok2 and frac <= eps + 3.0 * math.sqrt(eps * (1 - eps) / draws)
        cover_detail.append(f"{frac:.4f}<={eps}")

    t = tuple(Fraction(int(v), 8) for v in stream(108, 1).integers(-40, 41, size=5))
    opt = closest_vector(basis, t)[2]
    hits = 0
    single = SparsifyReducer(tau=1.0, trials=1, mode="oracle").fit(basis)
    for j in range(400):
        res = single.set_params(seed=1000 + j).reduce(t)
        hits += res.ok and sqdist(res.vector, t) <= 2 * opt
    rate_ok = hits / 400 >= 1.0 / 400
    e2e = 0
    best_of = SparsifyReducer(tau=1.0, trials=3000, mode="oracle").fit(basis)
    for j in range(5):
        res = best_of.set_params(seed=2000 + j).reduce(t)
        e2e += res.ok and sqdist(res.vector, t) <= 2 * opt
    ok = ok1 and ok2 and rate_ok and e2e == 5
    report(capsys, 8, "sparsified cosets keep short vectors out and succeed often",
           ok, f"N={n_ball}, p={p}, survival {hit1:.4f}<={q1:.4f}+3s, "
               f"coverage {' '.join(cover_detail)}, singles {hits}/400, "
               f"best-of-3000 {e2e}/5")


def test_09_deep_hole_is_an_interior_maximum_with_density_near_one(capsys):
    results = []
    ok = True
    for n in (8, 7):
        pg = PeriodicGaussian(checkerboard(n), 1.0)
        t = np.zeros(n)
        t[0] = 1.0
        val = pg.f(t)
        grad_ok = np.linalg.norm(pg.grad(t)) <= pg.grad_err
        eig = np.linalg.eigvalsh(pg.hessian(t)).max()
        hess_ok = eig + pg.hess_err < 0
        val_ok = val - pg.f_err >= 1.0 - 1e-3
        ok = ok and grad_ok and hess_ok and val_ok
        results.append(f"n={n}: grad-zero={grad_ok} hessian-neg={hess_ok} "
                       f"f={val:.6f} near-one={val_ok}")
    # the gradient and curvature conditions hold, but the measured density
    # at the unit-vector hole is 3/5 (n=8) and 0.5417 (n=7), far below the
    # 1 - 1e-3 threshold, so this check records a genuine failure
    report(capsys, 9, "checkerboard unit vector is a strict interior maximum near 1",
           ok, "; ".join(results))


def test_10_readme_scopes_out_asymptotic_results(capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    needles = ("2^-Omega(n)", "desk scale", "not reproduced")
    missing = [n for n in needles if n not in text]
    report(capsys, 10, "README states which asymptotic results are out of scope",
           not missing, f"missing phrases: {missing or 'none'}")
