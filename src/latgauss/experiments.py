"""Reproducible experiments over the decoding and reduction pipeline.

Every experiment is a pure function of its config: randomness flows through
counter-based streams keyed by the config seed, so one (config, seed) pair
produces byte-identical CSV output across runs. Each data row carries the
twelve-hex config hash and the seed; reports collect named assertions, and
a report is ok only when every assertion passed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .advice import generate_advice
from .decoder import EXACT, BddDecoder
from .enumeration import closest_vector, lambda1
from .gaussian import (
    PeriodicGaussian,
    decoding_width,
    density_envelope,
    smoothing_parameter,
)
from .generators import generate_lattice
from .lattice import sqdist
from .reductions import KannanReducer, MasterReducer, PromiseReducer, SparsifyReducer
from .rng import stream


@dataclass
class ExperimentConfig:
    """Parsed key = value experiment description.

    tolerances holds every tol.* entry; experiments read the knobs they
    need and ignore the rest, so one config file stays a flat namespace.
    """

    experiment: str
    lattice: str = "integer-identity:4"
    seed: int = 0
    eps: float = 1e-3
    alpha: float = 0.5
    tau: float = 1.0
    n_advice: int = 0
    trials: int = 100
    grid_steps: int = 0
    tolerances: dict = field(default_factory=dict)


# every field but tolerances is one config key, cast by its declared type
_KEYS = {
    f.name: {"int": int, "float": float, "str": str}[f.type]
    for f in fields(ExperimentConfig)
    if f.name != "tolerances"
}


def parse_config(text):
    """ExperimentConfig from key = value lines ('#' starts a comment)."""
    values = {}
    tols = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("tol."):
            into, name, cast = tols, key[4:], float
        elif key in _KEYS:
            into, name, cast = values, key, _KEYS[key]
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if name in into:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            into[name] = cast(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if "experiment" not in values:
        raise ValueError("config must set 'experiment'")
    if values["experiment"] not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {values['experiment']!r}; choices: {EXPERIMENTS}"
        )
    return ExperimentConfig(tolerances=tols, **values)


def _config_hash(cfg):
    """Twelve hex digits identifying the full config, tolerances included."""
    parts = []
    for name, cast in _KEYS.items():
        value = getattr(cfg, name)
        parts.append(f"{name}={value}" if cast is str else f"{name}={value!r}")
    parts.extend(f"tol.{k}={cfg.tolerances[k]!r}" for k in sorted(cfg.tolerances))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


@dataclass
class Assertion:
    """Named pass/fail verdict with a human-readable detail line."""

    name: str
    ok: bool
    detail: str

    def line(self):
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: tuple
    rows: list
    assertions: list

    @property
    def ok(self):
        return all(a.ok for a in self.assertions)

    def csv(self):
        """Deterministic CSV text; every row ends with config hash and seed."""
        tag = _config_hash(self.config)
        out = [",".join(self.columns + ("config", "seed"))]
        for row in self.rows:
            cells = [_format_cell(v) for v in row]
            cells.append(tag)
            cells.append(str(self.config.seed))
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    def summary(self):
        return "\n".join(a.line() for a in self.assertions)


def _format_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _tol(cfg, key, default):
    return float(cfg.tolerances.get(key, default))


def _unit_rows(basis):
    """Orthonormal float rows spanning the lattice, from Gram-Schmidt."""
    gs = basis.gram_schmidt
    rows = np.array([[float(x) for x in r] for r in gs.orthogonal])
    return rows / np.sqrt((rows * rows).sum(axis=1))[:, None]


def _span_targets(basis, norms, rng):
    """Float targets in the lattice span with the prescribed norms."""
    frame = _unit_rows(basis)
    dirs = rng.normal(size=(len(norms), basis.rank))
    dirs /= np.sqrt((dirs * dirs).sum(axis=1))[:, None]
    return (np.asarray(norms)[:, None] * dirs) @ frame


def _scaled_points(basis, rows, factor):
    """Exact points factor * (k . B), one tuple per integer row k."""
    return [tuple(factor * x for x in basis.vector(row)) for row in rows]


def _planted_target(rng, basis, scale):
    """An exact target: a lattice point plus an offset in the lattice span.

    The point's coefficients are uniform in [-3, 3]; the offset's are
    scale * k/1000 with k uniform in [-500, 500], so targets admit exact
    squared-distance comparisons.
    """
    point = basis.vector(rng.integers(-3, 4, size=basis.rank))
    raw = rng.integers(-500, 501, size=(1, basis.rank))
    off = _scaled_points(basis, raw, Fraction(scale) / 1000)[0]
    return tuple(a + b for a, b in zip(point, off))


def run_experiment(cfg):
    """Dispatch to the named experiment; returns an ExperimentReport."""
    if isinstance(cfg, str):
        cfg = parse_config(cfg)
    runner = _RUNNERS[cfg.experiment]
    return runner(cfg)


def _run_decode_success(cfg):
    """Decode targets planted near lattice points; compare to exact CVP.

    Columns: trial, offset, status, iterations, match. Assertions: the
    match rate clears tol.success (default 0.99) over EXACT-status rows,
    and every successful decode ran the fixed iteration count.
    """
    basis = generate_lattice(cfg.lattice, cfg.seed)
    eps = cfg.eps
    dec = BddDecoder(eps, n_advice=cfg.n_advice or None, seed=cfg.seed)
    dec.fit(basis)
    frac = _tol(cfg, "offset", 0.9)
    rng = stream(cfg.seed, 1)
    rows = []
    matches = 0
    iter_ok = True
    if cfg.trials:
        coeffs = rng.integers(-3, 4, size=(cfg.trials, basis.rank))
        norms = frac * dec.radius_ * rng.random(cfg.trials) ** (1.0 / basis.rank)
        offsets = _span_targets(basis, norms, rng)
        base_f = np.array(
            [[float(x) for x in basis.vector([int(c) for c in row])] for row in coeffs]
        )
        targets = base_f + offsets
        for k, res in enumerate(dec.decode_batch(targets)):
            t = tuple(Fraction(x) for x in targets[k])
            truth, _, _ = closest_vector(basis, t)
            hit = res.status == EXACT and tuple(res.vector) == truth
            matches += hit
            if res.status == EXACT and res.iterations_run != dec.iterations_:
                iter_ok = False
            rows.append((k, float(norms[k]), res.status, res.iterations_run, bool(hit)))
    rate = matches / cfg.trials if cfg.trials else 1.0
    need = _tol(cfg, "success", 0.99)
    assertions = [
        Assertion(
            "decode-success-rate",
            rate >= need,
            f"matched exact CVP on {matches}/{cfg.trials} targets "
            f"(rate {rate:.4f}, need {need})",
        ),
        Assertion(
            "iteration-count",
            iter_ok,
            f"every exact decode ran {dec.iterations_} ascent iterations",
        ),
    ]
    return ExperimentReport(
        cfg, ("trial", "offset", "status", "iterations", "match"), rows, assertions
    )


def _run_estimator_error(cfg):
    """Estimator error quantiles at a fixed target as the advice count doubles.

    Columns: octave, n_advice, q99_f_err, q99_grad_err. For each octave the
    0.99 quantile of |f_W - f| and of the gradient error (relative to the
    target norm) is taken over cfg.trials fresh advice draws; both must
    decrease strictly at every doubling.
    """
    basis = generate_lattice(cfg.lattice, cfg.seed)
    eps = cfg.eps
    eta = smoothing_parameter(basis.dual, eps).value
    exact = PeriodicGaussian(basis, 1.0 / eta)
    dirs = stream(cfg.seed, 3).normal(size=basis.rank)
    t = 0.3 / eta * (dirs / math.sqrt(float(dirs @ dirs))) @ _unit_rows(basis)
    t_norm = math.sqrt(float(t @ t))
    f_ref = exact.f(t)
    g_ref = exact.grad(t)
    base = cfg.n_advice or 256
    octaves = int(_tol(cfg, "octaves", 4))
    draws = max(cfg.trials, 2)
    rows = []
    q99_f = []
    q99_g = []
    for octave in range(octaves + 1):
        count = base << octave
        f_errs = np.empty(draws)
        g_errs = np.empty(draws)
        for j in range(draws):
            sub = cfg.seed + 1 + octave * draws + j
            adv = generate_advice(basis, eps, count, sub, eta=eta)
            f_errs[j] = abs(adv.f(t) - f_ref)
            g_errs[j] = math.sqrt(float(((adv.grad(t) - g_ref) ** 2).sum())) / t_norm
        qf = float(np.quantile(f_errs, 0.99))
        qg = float(np.quantile(g_errs, 0.99))
        q99_f.append(qf)
        q99_g.append(qg)
        rows.append((octave, count, qf, qg))
    f_mono = all(b < a for a, b in zip(q99_f, q99_f[1:]))
    g_mono = all(b < a for a, b in zip(q99_g, q99_g[1:]))
    assertions = [
        Assertion(
            "estimator-f-error-monotone",
            f_mono,
            "q99 |f_W - f| per octave: " + ", ".join(f"{q:.2e}" for q in q99_f),
        ),
        Assertion(
            "estimator-grad-error-monotone",
            g_mono,
            "q99 grad error per octave: " + ", ".join(f"{q:.2e}" for q in q99_g),
        ),
    ]
    return ExperimentReport(
        cfg, ("octave", "n_advice", "q99_f_err", "q99_grad_err"), rows, assertions
    )


def _normalized_evaluator(basis, eps):
    """(scaled basis, evaluator, s_eps, delta_max) at mass 1 + eps."""
    eta = smoothing_parameter(basis.dual, eps).value
    scaled = basis.scaled(Fraction(eta))
    s_eps, dmax = decoding_width(eps)
    return scaled, PeriodicGaussian(scaled, 1.0), s_eps, dmax


def _run_contraction(cfg):
    """Gradient-step contraction inside the decoding radius, exact evaluator.

    Columns: trial, norm, lhs, rhs. For each target t with ||t|| up to
    delta_max * s_eps the step residual ||grad f/(2 pi f) + t|| must stay
    below ||t||/4 plus the certified evaluation error; zero failures allowed.
    """
    scaled, pg, s_eps, dmax = _normalized_evaluator(
        generate_lattice(cfg.lattice, cfg.seed), cfg.eps
    )
    rng = stream(cfg.seed, 2)
    norms = dmax * s_eps * rng.random(cfg.trials) ** (1.0 / max(scaled.rank, 1))
    if cfg.trials:
        norms[0] = dmax * s_eps
    targets = _span_targets(scaled, norms, rng)
    rows = []
    failures = 0
    for k in range(cfg.trials):
        t = targets[k]
        v = pg.f(t)
        g = pg.grad(t)
        v_lo = v - pg.f_err
        lhs = math.sqrt(float(((g / (2.0 * math.pi * v) + t) ** 2).sum()))
        g_norm = math.sqrt(float((g * g).sum()))
        err = pg.grad_err / (2.0 * math.pi * v_lo) + g_norm * pg.f_err / (
            2.0 * math.pi * v_lo * v
        )
        rhs = norms[k] / 4.0 + err
        ok = lhs <= rhs
        failures += not ok
        rows.append((k, float(norms[k]), lhs, rhs))
    assertions = [
        Assertion(
            "step-contraction",
            failures == 0,
            f"{failures} of {cfg.trials} targets broke ||t||/4 + certified error",
        )
    ]
    return ExperimentReport(cfg, ("trial", "norm", "lhs", "rhs"), rows, assertions)


def _run_reduction_audit(cfg):
    """Approximation factors of the three promise reductions vs exact CVP.

    Columns: trial, scheme, opt_sqdist, out_sqdist, ratio. Instances cycle
    through fresh bases every tol.per-base targets (default 10). With the
    exact inner solver the projection scan and the block variant must stay
    within sqrt(n) of the true distance (squared ratio at most n, compared
    exactly), the block dimensions must sum to the rank, and the
    no-preprocessing variant must stay within sqrt((n+3))/2.
    """
    per_base = max(1, int(_tol(cfg, "per-base", 10)))
    n = generate_lattice(cfg.lattice, cfg.seed).rank
    # (scheme, bound on the squared ratio, what a failure exceeded)
    schemes = (
        ("kannan", n, "scans exceeded sqrt(n) x distance"),
        ("master", n, "block scans exceeded sqrt(n) x distance"),
        ("promise", Fraction(n + 3, 4), "runs exceeded sqrt(n+3)/2 x distance"),
    )
    rows = []
    bad = {scheme: 0 for scheme, _, _ in schemes}
    dims_ok = True
    cur = None
    for trial in range(cfg.trials):
        b_idx = trial // per_base
        if cur != b_idx:
            cur = b_idx
            basis = generate_lattice(cfg.lattice, cfg.seed + b_idx)
            reducers = {
                "kannan": KannanReducer(alpha=cfg.alpha).fit(basis),
                "master": MasterReducer(g=1.0, h=0, alpha=cfg.alpha).fit(basis),
                "promise": PromiseReducer().fit(basis),
            }
            dims_ok &= sum(b.rank for b in reducers["master"].blocks_) == basis.rank
        t = _planted_target(stream(cfg.seed, 4, trial), basis, Fraction(3, 2))
        _, _, opt = closest_vector(basis, t)
        for scheme, bound, _ in schemes:
            got = sqdist(reducers[scheme].reduce(t), t)
            bad[scheme] += not got <= bound * opt
            ratio = float(got / opt) if opt else 1.0
            rows.append((trial, scheme, str(opt), str(got), ratio))
    assertions = [
        Assertion(f"{scheme}-factor", bad[scheme] == 0,
                  f"{bad[scheme]} of {cfg.trials} {wording}")
        for scheme, _, wording in schemes
    ]
    assertions.append(
        Assertion("block-dimension-sum", dims_ok, "block dimensions sum to the rank")
    )
    return ExperimentReport(
        cfg, ("trial", "scheme", "opt_sqdist", "out_sqdist", "ratio"), rows, assertions
    )


def _run_sparsify_audit(cfg):
    """Success statistics of the random-coset reduction with an exact solver.

    Columns: trial, kind, ok, ratio_sq. Single-trial runs measure the
    per-draw success rate (at least tol.rate, default 1/400); best-of-many
    runs with cfg.trials draws each must all land within sqrt(1 + tau^2)
    of the distance (rate at least tol.success, default 0.999).
    """
    basis = generate_lattice(cfg.lattice, cfg.seed)
    tau = Fraction(cfg.tau)
    bound = 1 + tau * tau
    singles = max(int(_tol(cfg, "singles", 200)), 1)
    runs = max(int(_tol(cfg, "runs", 5)), 1)
    single = SparsifyReducer(tau=cfg.tau, trials=1, mode="oracle").fit(basis)
    best_of = SparsifyReducer(tau=cfg.tau, trials=cfg.trials, mode="oracle").fit(basis)
    rows = []
    hits = {}
    for kind, reducer, count, path, first in (
        ("single", single, singles, 5, cfg.seed),
        ("best-of", best_of, runs, 6, cfg.seed + 1000),
    ):
        hits[kind] = 0
        for j in range(count):
            t = _planted_target(stream(cfg.seed, path, j), basis, Fraction(1, 2))
            _, _, opt = closest_vector(basis, t)
            got = sqdist(reducer.set_params(seed=first + j).reduce(t).vector, t)
            ok = got <= bound * opt
            hits[kind] += ok
            rows.append((j, kind, bool(ok), float(got / opt) if opt else 1.0))
    rate = hits["single"] / singles
    need_rate = _tol(cfg, "rate", 1.0 / 400.0)
    need_e2e = _tol(cfg, "success", 0.999)
    assertions = [
        Assertion(
            "single-trial-rate",
            rate >= need_rate,
            f"per-draw success {hits['single']}/{singles} = {rate:.4f} "
            f"(need {need_rate:.4f})",
        ),
        Assertion(
            "best-of-success",
            hits["best-of"] >= math.ceil(need_e2e * runs),
            f"best-of-{cfg.trials} succeeded on {hits['best-of']}/{runs} runs",
        ),
    ]
    return ExperimentReport(
        cfg, ("trial", "kind", "ok", "ratio_sq"), rows, assertions
    )


def _run_local_maxima(cfg):
    """Density landscape at the first standard basis vector.

    Columns: quantity, value, bound, ok. Checks that the gradient is zero
    within certified error, the density clears 1 - 10^-3, and the Hessian
    is negative definite; built for the even-coordinate-sum lattice, where
    that point is the deep hole.
    """
    basis = generate_lattice(cfg.lattice, cfg.seed)
    pg = PeriodicGaussian(basis, 1.0)
    t = np.zeros(basis.ambient)
    t[0] = 1.0
    g = pg.grad(t)
    g_norm = math.sqrt(float((g * g).sum()))
    g_bound = _tol(cfg, "grad", 1e-9) + pg.grad_err
    val = pg.f(t)
    v_bound = 1.0 - _tol(cfg, "density-gap", 1e-3)
    eig_max = float(np.linalg.eigvalsh(pg.hessian(t)).max())
    h_bound = -pg.hess_err
    checks = [
        ("grad_norm", g_norm, g_bound, g_norm <= g_bound),
        ("f_value", val, v_bound, val - pg.f_err >= v_bound),
        ("hessian_max_eig", eig_max, h_bound, eig_max < h_bound),
    ]
    assertions = [
        Assertion("gradient-zero", checks[0][3],
                  f"||grad|| = {g_norm:.3e} vs bound {g_bound:.3e}"),
        Assertion("density-near-one", checks[1][3],
                  f"f = {val:.6f} (certified low {val - pg.f_err:.6f}) vs {v_bound}"),
        Assertion("hessian-negative-definite", checks[2][3],
                  f"max eigenvalue {eig_max:.4f} + certified {pg.hess_err:.1e} < 0"),
    ]
    return ExperimentReport(cfg, ("quantity", "value", "bound", "ok"), checks, assertions)


def _run_smoothing_profile(cfg):
    """Smoothing parameter across an eps grid with its bracketing bounds.

    Columns: eps, eta, lower, upper. Asserts the closed-form sandwich
    against the shortest dual vector and strict monotonicity in eps.
    """
    basis = generate_lattice(cfg.lattice, cfg.seed)
    steps = cfg.grid_steps or 4
    eps_grid = [10.0 ** -(k + 1) for k in range(steps)]
    lam = math.sqrt(float(lambda1(basis.dual)))
    rows = []
    etas = []
    sandwich_ok = True
    for eps in eps_grid:
        res = smoothing_parameter(basis, eps)
        lo = math.sqrt(math.log(2.0 / eps) / math.pi) / lam
        hi = (
            math.sqrt(math.log((1.0 + eps) / eps) / math.pi)
            + math.sqrt(basis.rank / (2.0 * math.pi))
        ) / lam
        ok = lo * (1.0 - 1e-9) <= res.value <= hi * (1.0 + 1e-9)
        sandwich_ok &= ok
        etas.append(res.value)
        rows.append((eps, res.value, lo, hi))
    mono = all(b > a for a, b in zip(etas, etas[1:]))
    g_vals = [math.sqrt(math.log(1.0 / e)) / v for e, v in zip(eps_grid, etas)]
    g_mono = all(b > a for a, b in zip(g_vals, g_vals[1:]))
    assertions = [
        Assertion("smoothing-sandwich", sandwich_ok,
                  "eta stayed inside the closed-form bracket at every eps"),
        Assertion("smoothing-monotone", mono,
                  "eta grew strictly as eps shrank across the grid"),
        Assertion("normalized-width-monotone", g_mono,
                  "sqrt(log(1/eps))/eta grew strictly as eps shrank"),
    ]
    return ExperimentReport(cfg, ("eps", "eta", "lower", "upper"), rows, assertions)


def _run_density_grid(cfg):
    """f over a 2-D slice of the normalized lattice, with its envelope.

    Columns: x, y, f, lower, upper. The slice is spanned by the first two
    orthonormalized lattice directions and extends tol.extent * s_eps
    (default 1.0) in each coordinate. Asserts lower - 2 tol.band <= f <=
    upper + certified error at every grid point.
    """
    scaled, pg, s_eps, _ = _normalized_evaluator(
        generate_lattice(cfg.lattice, cfg.seed), cfg.eps
    )
    if scaled.rank < 2:
        raise ValueError("the density grid needs a lattice of rank at least 2")
    steps = cfg.grid_steps or 21
    extent = _tol(cfg, "extent", 1.0) * s_eps
    band = _tol(cfg, "band", 1e-9)
    frame = _unit_rows(scaled)[:2]
    axis = np.linspace(-extent, extent, steps)
    rows = []
    bad = 0
    for x in axis:
        pts = np.outer(np.full(steps, x), frame[0]) + np.outer(axis, frame[1])
        vals = pg.f_batch(pts)
        for y, v in zip(axis, vals):
            d = math.hypot(x, y)
            lo, hi = density_envelope(d, cfg.eps)
            ok = lo - 2.0 * band - pg.f_err <= v <= hi + pg.f_err
            bad += not ok
            rows.append((float(x), float(y), float(v), lo, hi))
    assertions = [
        Assertion(
            "density-envelope",
            bad == 0,
            f"{bad} of {steps * steps} grid points left the certified envelope",
        )
    ]
    return ExperimentReport(cfg, ("x", "y", "f", "lower", "upper"), rows, assertions)


_RUNNERS = {
    "decode-success": _run_decode_success,
    "estimator-error": _run_estimator_error,
    "contraction": _run_contraction,
    "reduction-audit": _run_reduction_audit,
    "sparsify-audit": _run_sparsify_audit,
    "local-maxima": _run_local_maxima,
    "smoothing-profile": _run_smoothing_profile,
    "density-grid": _run_density_grid,
}

EXPERIMENTS = tuple(_RUNNERS)
