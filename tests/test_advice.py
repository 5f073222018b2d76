"""Monte-Carlo periodic-density estimator built from dual Gaussian draws."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latgauss.advice import (
    _TILE_COLS,
    _TILE_ROWS,
    GaussianAdvice,
    advice_count,
    default_denom_floor,
    generate_advice,
)
from latgauss.decoder import BddDecoder
from latgauss.gaussian import PeriodicGaussian, smoothing_parameter
from latgauss.generators import (
    checkerboard,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from latgauss.lattice import lattice_coefficients


def small_advice(seed=0, count=400, eps=1e-3):
    basis = integer_identity(3)
    return basis, generate_advice(basis, eps, count, seed)


def test_advice_count_frozen_values():
    assert advice_count(8, 1e-6) == 221049
    assert advice_count(4, 1e-3) == 1748
    assert advice_count(3, 1e-2) == 277
    assert advice_count(8, 1e-6) == math.ceil(2 * 8 * math.log(1e6) / math.sqrt(1e-6))


def test_estimator_is_one_at_lattice_points_and_bounded():
    basis, adv = small_advice()
    assert adv.f(np.zeros(3)) == 1.0
    rng = np.random.default_rng(1)
    for t in rng.normal(size=(20, 3)):
        assert -1.0 <= adv.f(t) <= 1.0
    row = np.asarray(basis.float_rows)[1]
    assert adv.f(row) == pytest.approx(1.0, abs=1e-9)


def test_estimator_is_periodic():
    basis, adv = small_advice(seed=2)
    t = np.array([0.13, -0.42, 0.78])
    shift = np.asarray(basis.float_rows).T @ np.array([2.0, -1.0, 3.0])
    assert adv.f(t + shift) == pytest.approx(adv.f(t), abs=1e-9)


def test_estimator_tracks_the_exact_density():
    eps = 1e-3
    basis = integer_identity(3)
    eta = smoothing_parameter(basis.dual, eps).value
    adv = generate_advice(basis, eps, 20000, seed=5, eta=eta)
    exact = PeriodicGaussian(basis, 1.0 / eta)
    rng = np.random.default_rng(3)
    for t in 0.2 * rng.normal(size=(5, 3)):
        assert adv.f(t) == pytest.approx(exact.f(t), abs=0.05)


def test_gradient_and_hessian_match_finite_differences():
    _, adv = small_advice(seed=4)
    t = np.array([0.11, 0.23, -0.31])
    g = adv.grad(t)
    hess = adv.hessian(t)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        assert (adv.f(t + e) - adv.f(t - e)) / (2 * h) == pytest.approx(g[i], abs=1e-5)
    h = 1e-4
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        for j in range(3):
            ej = np.zeros(3)
            ej[j] = h
            fd = (adv.f(t + e + ej) - adv.f(t + e - ej)
                  - adv.f(t - e + ej) + adv.f(t - e - ej)) / (4 * h * h)
            assert fd == pytest.approx(hess[i, j], abs=1e-3)


def test_step_moves_toward_the_lattice_point():
    # the plain step t + grad/(2 pi f) is calibrated for the lattice scaled
    # to total mass 1 + eps, so build the advice on that normalization
    eps = 1e-4
    base = integer_identity(3)
    eta = smoothing_parameter(base.dual, eps).value
    scaled = base.scaled(Fraction(eta))
    adv = generate_advice(scaled, eps, 20000, seed=6)
    t = np.array([0.10, -0.08, 0.06])
    stepped, vals = adv.step_batch(t)
    assert adv.clears_guard(t, vals, default_denom_floor(eps))[0]
    assert np.linalg.norm(stepped[0]) < 0.5 * np.linalg.norm(t)


def test_step_rejects_small_denominators():
    basis = integer_identity(1)
    adv = GaussianAdvice(basis, [[1]], eps=1e-3, seed=0)
    t = np.array([0.25])
    out, vals = adv.step_batch(t)
    assert not adv.clears_guard(t, vals, default_denom_floor(1e-3))[0]
    assert out[0, 0] == 0.25
    # an explicit floor of zero lets a query at 0.2 through
    t = np.array([0.2])
    out, vals = adv.step_batch(t, floor=0.0)
    assert adv.clears_guard(t, vals, 0.0)[0]
    assert out[0, 0] != 0.2


def test_step_batch_freezes_rows_below_the_floor():
    basis = integer_identity(1)
    adv = GaussianAdvice(basis, [[1]], eps=1e-3, seed=0)
    ts = np.array([[0.05], [0.25]])
    out, vals = adv.step_batch(ts)
    floor = default_denom_floor(1e-3)
    assert abs(vals[1]) < floor
    assert out[1, 0] == 0.25
    assert out[0, 0] != 0.05
    alone, _ = adv.step_batch(np.array([0.05]), floor=0.0)
    assert out[0, 0] == pytest.approx(alone[0, 0], abs=1e-14)
    single, _ = adv.step_batch(np.array([0.05]))
    assert single.shape == (1, 1)


def test_default_denom_floor_shrinks_with_eps():
    floors = [default_denom_floor(e) for e in (1e-2, 1e-4, 1e-8)]
    assert floors == sorted(floors, reverse=True)
    assert all(f > 0 for f in floors)


def test_generate_advice_is_deterministic_and_dual_valued():
    basis = random_integer(3, seed=8)
    a = generate_advice(basis, 1e-3, 50, seed=9)
    b = generate_advice(basis, 1e-3, 50, seed=9)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert len(a) == 50
    for i in range(5):
        w = a.dual_vector(i)
        assert lattice_coefficients(basis.dual, w) is not None


def test_generate_advice_distinct_seeds_differ():
    basis = integer_identity(3)
    a = generate_advice(basis, 1e-3, 200, seed=0)
    b = generate_advice(basis, 1e-3, 200, seed=1)
    assert not np.array_equal(a.coeffs, b.coeffs)


def test_save_and_load_roundtrip(tmp_path):
    # the decoder file is the one file format for advice
    dec = BddDecoder(1e-3, n_advice=64, seed=10).fit(integer_identity(3))
    path = tmp_path / "decoder.txt"
    dec.save(path)
    adv, back = dec.advice_, BddDecoder.load(path).advice_
    assert np.array_equal(back.coeffs, adv.coeffs)
    assert np.array_equal(back.vectors, adv.vectors)
    assert back.eps == adv.eps and back.seed == adv.seed
    t = np.array([0.3, 0.1, -0.2])
    assert back.f(t) == adv.f(t)


def test_load_rejects_malformed_files(tmp_path):
    # a decoder file for Z^2 whose advice header is short, then one whose
    # advice count exceeds its rows
    path = tmp_path / "decoder.txt"
    for head in ("advice 2 0.001 0", "advice 3 0.001 0 1"):
        path.write_text(f"latgauss-decoder 1\n2 2\n1 0\n0 1\n{head}\n1 0\n0 1\n"
                        "frame 0 1\n1 0\n0 1\n")
        with pytest.raises(ValueError):
            BddDecoder.load(path)


def test_save_records_the_source_scale(tmp_path):
    basis = integer_identity(2)
    dec = BddDecoder(1e-3, n_advice=64, seed=0).fit(basis)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    back = BddDecoder.load(path)
    assert back.scale_ == dec.scale_ != 1
    assert back.advice_.basis == basis.scaled(dec.scale_)


# advice on a generic lattice, and on one whose dual rows are dyadic so the
# float64 advice vectors are the exact dual vectors
GENERIC = generate_advice(random_dual_orthogonal(3, seed=12), 1e-3, 500, seed=12)
DYADIC = generate_advice(checkerboard(3), 1e-3, 500, seed=13)
COORD = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e6, 1e6))
U = 2.0 ** -53


def max_norm(adv):
    return float(np.linalg.norm(adv.vectors, axis=1).max())


def assert_kernel_tracks_reference(adv, ts):
    """f_batch and step_batch over all rows of ts at once, each row against
    the float64 f and grad within kernel_err."""
    fb = adv.f_batch(ts)
    stepped, vals = adv.step_batch(ts, floor=0.0)
    for k, t in enumerate(ts):
        err = adv.kernel_err(t)[0]
        f, g = adv.f(t), adv.grad(t)
        assert abs(fb[k] - f) <= err
        assert abs(vals[k] - f) <= err
        if abs(f) > 2 * err:
            # t + grad/(2 pi f) with the gradient within 2 pi max||w|| err and
            # f within err, plus the float64 rounding of the sum
            step = g / (2 * math.pi * f)
            g_err = 2 * math.pi * max_norm(adv) * err
            bound = (g_err + np.abs(g) * err / (abs(f) - err)) / (2 * math.pi * abs(f))
            bound += 2 * U * (np.abs(t) + np.abs(step))
            assert np.all(np.abs(stepped[k] - (t + step)) <= bound)


@given(st.lists(COORD, min_size=3, max_size=3))
def test_batched_kernel_tracks_the_float64_reference(coords):
    assert_kernel_tracks_reference(GENERIC, np.array([coords]))


# draw counts below one kernel tile, one draw past it, and over two tiles
# with a partial third
TILED = {count: generate_advice(random_dual_orthogonal(3, seed=12), 1e-3, count, seed=12)
         for count in (_TILE_COLS + 1, 2 * _TILE_COLS + 123)}
TILED[len(GENERIC)] = GENERIC


@pytest.mark.parametrize("count", sorted(TILED))
@pytest.mark.parametrize("n_rows", [1, _TILE_ROWS, _TILE_ROWS + 3, 3 * _TILE_ROWS + 1])
def test_tiled_kernel_matches_the_reference_at_every_tile_edge(count, n_rows):
    rng = np.random.default_rng(count + n_rows)
    ts = 0.3 * rng.normal(size=(n_rows, 3))
    # every third row far out, with coordinates up to 1e6
    ts[2::3] = rng.uniform(-1e6, 1e6, size=ts[2::3].shape)
    assert_kernel_tracks_reference(TILED[count], ts)


@given(st.lists(COORD, min_size=3, max_size=3),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=3))
def test_batched_kernel_is_periodic_over_the_lattice(coords, ks):
    adv = DYADIC
    t = np.array(coords)
    y = np.array([float(x) for x in adv.basis.vector(ks)])
    rows = np.stack([t, t + y])
    a, b = adv.f_batch(rows)
    # t + y is rounded to float64, which moves it by at most U per unit
    bound = adv.kernel_err(rows).sum() + 2 * math.pi * max_norm(adv) * U * np.abs(t + y).sum()
    assert abs(a - b) <= bound


def test_kernel_err_is_small_near_the_lattice_and_grows_with_the_target():
    adv = GENERIC
    near, far = adv.kernel_err(np.array([[0.1, 0.2, 0.3], [1e12, 0.0, 0.0]]))
    assert near < 1e-6
    assert far > near


def test_guard_trips_on_a_huge_target():
    _, adv = small_advice()
    t = np.full(3, 1e300)
    out, vals = adv.step_batch(t)
    assert np.array_equal(out[0], t)
    assert not adv.clears_guard(t, vals, 0.0)[0]
    assert adv.clears_guard(np.zeros(3), adv.f_batch(np.zeros((1, 3))), 0.5)[0]


@pytest.mark.parametrize("rows", ["1 0\n0 x\n", "1 0\n0 1.5\n", "1 0\n0\n",
                                  "1 0\n0 99999999999999999999\n"])
def test_load_rejects_malformed_rows(tmp_path, rows):
    # the advice section of a decoder file for Z^2; with rows "1 0\n0 1\n" it loads
    path = tmp_path / "decoder.txt"
    path.write_text("latgauss-decoder 1\n2 2\n1 0\n0 1\nadvice 2 0.001 0 1\n" + rows
                    + "frame 0 1\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        BddDecoder.load(path)
