"""Certified Gaussian sums, the Fourier-side evaluator, smoothing, sampling.

Reference values were computed independently with 40-digit theta-series
summation; tolerances combine the certified enclosure widths with float
round-off slack.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latgauss import gaussian
from latgauss.enumeration import closest_vector
from latgauss.gaussian import (
    _CDF_CELLS,
    PeriodicGaussian,
    _inverse_cdf,
    decoding_width,
    density_envelope,
    gaussian_mass,
    periodic_gaussian_interval,
    sample_lattice_gaussian,
    smoothing_parameter,
)
from latgauss.generators import (
    checkerboard,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from latgauss.lattice import LatticeBasis, lattice_coefficients, project_away_from_prefix
from latgauss.rng import stream

# one-dimensional integer-lattice sums at s = 1
RHO_Z = 1.0864348112133080146
RHO_Z_HALF = 0.91357913815611682141
F_Z_HALF = 0.84089641525371454303
F_Z_THIRD = 0.88066268175483768635
RHO_Z_S45 = 1.0147635948132013629
RHO_DIAG12 = 1.0864423887535768228
ETA_Z_1E3 = 1.5554556878390086596
ETA_Z_1E6 = 2.1490112129603274917


def enclosure_contains(certified, value):
    return certified.lower <= value <= certified.upper


def test_gaussian_mass_matches_reference_sums():
    z1 = integer_identity(1)
    assert enclosure_contains(gaussian_mass(z1), RHO_Z)
    assert enclosure_contains(gaussian_mass(z1, center=(Fraction(1, 2),)), RHO_Z_HALF)
    assert enclosure_contains(gaussian_mass(z1, s=0.8), RHO_Z_S45)
    diag = LatticeBasis([(1, 0), (0, 2)])
    assert enclosure_contains(gaussian_mass(diag), RHO_DIAG12)
    assert gaussian_mass(z1).rel_width < 1e-11


def test_gaussian_mass_factorizes_over_orthogonal_sums():
    z2 = integer_identity(2)
    m2 = gaussian_mass(z2)
    assert m2.lower <= RHO_Z * RHO_Z <= m2.upper


def test_gaussian_mass_center_outside_the_span():
    line = LatticeBasis([(1, 0)])
    m = gaussian_mass(line, center=(Fraction(1, 2), Fraction(1, 2)))
    expect = RHO_Z_HALF * math.exp(-math.pi * 0.25)
    assert m.lower * (1 - 1e-9) <= expect <= m.upper * (1 + 1e-9)


def test_gaussian_mass_far_off_a_lower_rank_span(monkeypatch):
    # the centre's off-span square is about 8.5e18; a radius widened in
    # proportion to the off-span distance searched millions of nodes
    monkeypatch.setenv("LATGAUSS_BUDGET", "2000000")
    basis = LatticeBasis([(-1, -1, Fraction(2, 7), Fraction(-1, 4)),
                          (Fraction(1, 3), Fraction(7, 9), Fraction(3, 11), 0)])
    center = (-93446, -6654719, Fraction(9383698597, 2), Fraction(472517, 10))
    m = gaussian_mass(basis, 1.0, center)
    off_span = project_away_from_prefix(basis, 2, center)
    in_span = gaussian_mass(basis, 1.0, tuple(a - b for a, b in zip(center, off_span)))
    assert m.points == in_span.points == 50
    assert m.lower == 0.0 <= m.upper


def test_gaussian_mass_rank_zero():
    empty = LatticeBasis([], ambient=2)
    m = gaussian_mass(empty, center=(1, 0))
    assert m.lower == m.upper == pytest.approx(math.exp(-math.pi))
    draws = sample_lattice_gaussian(empty, count=3)
    assert draws.vectors_float().tolist() == [[0.0, 0.0]] * 3


def test_periodic_gaussian_reference_values():
    z1 = integer_identity(1)
    lo, hi = periodic_gaussian_interval(z1, (Fraction(1, 2),))
    assert lo <= F_Z_HALF <= hi
    assert hi - lo < 1e-10
    lo, hi = periodic_gaussian_interval(z1, (Fraction(1, 3),))
    assert 0.5 * (lo + hi) == pytest.approx(F_Z_THIRD, abs=1e-10)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_fourier_evaluator_agrees_with_primal_sums(seed):
    basis = random_integer(3, seed=seed, bound=4)
    pg = PeriodicGaussian(basis, 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        t = tuple(Fraction(int(v), 8) for v in rng.integers(-16, 17, size=3))
        lo, hi = periodic_gaussian_interval(basis, t)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert abs(pg.f([float(x) for x in t]) - mid) <= pg.f_err + half + 1e-8


def test_fourier_evaluator_basics():
    basis = random_integer(2, seed=4)
    pg = PeriodicGaussian(basis, 1.0)
    assert pg.f((0.0, 0.0)) == pytest.approx(1.0, abs=pg.f_err + 1e-12)
    t = np.array([0.37, -1.21])
    shift = np.asarray(basis.float_rows)[0]
    assert pg.f(t + shift) == pytest.approx(pg.f(t), abs=2 * pg.f_err + 1e-9)
    vals = pg.f_batch(np.vstack([t, t + shift, [0.0, 0.0]]))
    assert vals[0] == pytest.approx(pg.f(t), abs=1e-12)
    assert vals[2] == pytest.approx(1.0, abs=pg.f_err + 1e-12)


def test_periodic_density_dominates_the_point_gaussian():
    basis = random_integer(3, seed=7, bound=3)
    pg = PeriodicGaussian(basis, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = tuple(Fraction(int(v), 16) for v in rng.integers(-64, 65, size=3))
        sq = closest_vector(basis, t)[2]
        floor = math.exp(-math.pi * float(sq))
        assert pg.f([float(x) for x in t]) >= floor - 2.0 * pg.f_err


def test_gradient_and_hessian_match_finite_differences():
    basis = random_integer(2, seed=9)
    pg = PeriodicGaussian(basis, 1.0)
    t = np.array([0.21, 0.48])
    h = 1e-5
    g = pg.grad(t)
    hess = pg.hessian(t)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        assert (pg.f(t + e) - pg.f(t - e)) / (2 * h) == pytest.approx(g[i], abs=1e-6)
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = h
            fd = (pg.f(t + e + ej) - pg.f(t + e - ej) - pg.f(t - e + ej) + pg.f(t - e - ej))
            assert fd / (4 * h * h) == pytest.approx(hess[i, j], abs=2e-4)


def test_smoothing_parameter_reference_values():
    z1 = integer_identity(1)
    got = smoothing_parameter(z1, 1e-3)
    assert got.lower <= ETA_Z_1E3 <= got.upper
    got = smoothing_parameter(z1, 1e-6)
    assert got.lower <= ETA_Z_1E6 <= got.upper
    assert got.rel_width < 1e-9


def test_smoothing_parameter_scaling_and_monotonicity():
    basis = random_integer(2, seed=5)
    small = smoothing_parameter(basis, 1e-2).value
    large = smoothing_parameter(basis, 1e-4).value
    assert large > small
    doubled = smoothing_parameter(basis.scaled(2), 1e-2).value
    assert doubled == pytest.approx(2 * small, rel=1e-8)


def test_smoothing_parameter_mass_condition():
    basis = random_integer(2, seed=6)
    eps = 1e-3
    eta = smoothing_parameter(basis, eps).value
    mass = gaussian_mass(basis.dual, s=1.0 / eta)
    assert mass.value - 1.0 == pytest.approx(eps, rel=1e-6)


def test_decoding_width_formula():
    for eps in (1e-3, 1e-6, 1e-9):
        s, dmax = decoding_width(eps)
        assert s == pytest.approx(math.sqrt(math.log(2 * (1 + eps) / eps) / math.pi))
        assert dmax == pytest.approx(0.5 - 2.0 / (math.pi * s * s))
        assert 0 < dmax < 0.5
    assert decoding_width(0.5)[1] < 0
    with pytest.raises(ValueError):
        decoding_width(0.0)
    with pytest.raises(ValueError):
        decoding_width(1.5)


def test_density_envelope_limits_and_shape():
    for eps in (1e-3, 1e-6):
        lo, hi = density_envelope(0.0, eps)
        assert lo == 1.0
        assert hi == pytest.approx(1.0, abs=1e-12)
        s_eps, _ = decoding_width(eps)
        prev = 1.0
        for d in np.linspace(0.0, s_eps, 25):
            lo, hi = density_envelope(d, eps)
            assert lo == pytest.approx(math.exp(-math.pi * d * d))
            assert hi >= lo - 1e-15
            assert lo <= prev + 1e-15
            prev = lo
    with pytest.raises(ValueError):
        density_envelope(-0.1, 1e-3)


def test_density_envelope_brackets_the_normalized_lattice():
    eps = 1e-3
    base = integer_identity(2)
    eta = smoothing_parameter(base.dual, eps).value
    scaled = base.scaled(Fraction(eta))
    pg = PeriodicGaussian(scaled, 1.0)
    s_eps, _ = decoding_width(eps)
    for d in np.linspace(0.01, s_eps, 12):
        t = (float(d), 0.0)
        lo, hi = density_envelope(d, eps)
        v = pg.f(np.array(t) * 0 + np.array([d, 0.0]))
        assert lo - pg.f_err - 1e-9 <= v <= hi + pg.f_err + 1e-9


def test_hessian_near_origin_is_close_to_minus_identity():
    eps = 1e-3
    base = integer_identity(3)
    eta = smoothing_parameter(base.dual, eps).value
    pg = PeriodicGaussian(base.scaled(Fraction(eta)), 1.0)
    hess = pg.hessian(np.zeros(3))
    gap = np.linalg.norm(hess + 2 * math.pi * np.eye(3), ord=2)
    bound = 4 * math.pi * eps / (1 + eps) * (math.log(2 * (1 + eps) / eps) + 1)
    assert gap <= bound + pg.hess_err


def test_sampler_draws_lie_in_the_lattice_and_are_deterministic():
    basis = checkerboard(3)
    a = sample_lattice_gaussian(basis, s=2.0, count=40, rng=stream(11))
    b = sample_lattice_gaussian(basis, s=2.0, count=40, rng=stream(11))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.mass_covered > 0.999
    for row in a.coeffs:
        vec = basis.vector(tuple(int(c) for c in row))
        assert lattice_coefficients(basis, vec) is not None


def test_sampler_frozen_draws():
    s = sample_lattice_gaussian(integer_identity(2), s=2.0, count=6, rng=stream(7))
    assert s.coeffs.tolist() == [[0, 0], [0, 2], [0, -1], [-1, 1], [-1, 1], [0, 0]]
    assert s.method == "product"


def test_sampler_moments():
    n, s, count = 4, 2.0, 2000
    draws = sample_lattice_gaussian(integer_identity(n), s=s, count=count, rng=stream(3))
    norms = np.linalg.norm(draws.vectors_float(), axis=1)
    assert norms.mean() <= s * math.sqrt(n)
    assert norms.max() <= s * (math.sqrt(n) + 6.0)
    assert abs(draws.vectors_float().mean(axis=0)).max() <= 4 * s / math.sqrt(count)


def _normalized(w):
    """The sampler's probabilities: weights normalized in their own
    precision, rounded to float64 and normalized again."""
    p = (w / w.sum()).astype(np.float64)
    return p / p.sum()


@st.composite
def probability_vectors(draw):
    """Probabilities of every shape the samplers pass: spread weights with
    zero-mass entries, one dominant entry, or the product path's tail-cut
    integer Gaussian at a drawn width."""
    kind = draw(st.sampled_from(("spread", "dominant", "gaussian")))
    if kind == "gaussian":
        sigma = draw(st.floats(0.05, 400.0))
        t1 = 1.0 + math.sqrt(2.0 * math.log(2.0 ** 48))
        j = max(1, math.ceil(t1 * sigma / math.sqrt(2.0 * math.pi)))
        support = np.arange(-j, j + 1).astype(np.longdouble)
        return _normalized(np.exp(-(math.pi / (sigma * sigma)) * support ** 2))
    d = draw(st.integers(1, 4000))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(d) ** draw(st.integers(1, 40))
    w[rng.random(d) < draw(st.sampled_from((0.0, 0.3, 0.9)))] = 0.0
    if kind == "dominant" or not w.any():
        w[draw(st.integers(0, d - 1))] = draw(st.floats(1.0, 1e15))
    return _normalized(w)


@given(probability_vectors(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
def test_inverse_cdf_equals_generator_choice(p, count, seed):
    want = stream(seed).choice(len(p), size=count, p=p)
    got = _inverse_cdf(stream(seed), p, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class _FixedUniforms:
    """An rng whose random(count) hands out given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, count):
        assert count == len(self.u)
        return self.u.copy()


@given(probability_vectors(), st.data())
def test_inverse_cdf_counts_the_cdf_values_at_most_u_on_cell_edges(p, data):
    # u placed on cell edges, on cdf values and one ulp either side of them,
    # where a wrongly settled cell would show
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    edges = np.arange(_CDF_CELLS) / _CDF_CELLS
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), edges,
                           np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    near = near[(near >= 0.0) & (near < 1.0)]
    pick = data.draw(st.lists(st.integers(0, len(near) - 1), min_size=1, max_size=200))
    u = near[pick]
    got = _inverse_cdf(_FixedUniforms(u), p, len(u))
    assert np.array_equal(got, (cdf[None, :] <= u[:, None]).sum(axis=1))


@pytest.mark.parametrize("basis, method", [
    (random_dual_orthogonal(3, seed=5), "product"),
    (random_integer(3, seed=5), "table"),
])
def test_sampler_matches_a_generator_choice_reference(monkeypatch, basis, method):
    got = sample_lattice_gaussian(basis, s=1.5, count=500, rng=stream(9))
    monkeypatch.setattr(gaussian, "_inverse_cdf",
                        lambda rng, p, count: rng.choice(len(p), size=count, p=p))
    want = sample_lattice_gaussian(basis, s=1.5, count=500, rng=stream(9))
    assert got.method == want.method == method
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.mass_covered == want.mass_covered
