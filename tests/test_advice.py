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
    _TRIG_ERR,
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
from latgauss.lattice import LatticeBasis, lattice_coefficients


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


def test_gradient_matches_finite_differences():
    _, adv = small_advice(seed=4)
    t = np.array([0.11, 0.23, -0.31])
    g = adv.grad(t)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        assert (adv.f(t + e) - adv.f(t - e)) / (2 * h) == pytest.approx(g[i], abs=1e-5)


def test_step_moves_toward_the_lattice_point():
    # the plain step t + grad/(2 pi f) is calibrated for the lattice scaled
    # to total mass 1 + eps, so build the advice on that normalization
    eps = 1e-4
    base = integer_identity(3)
    eta = smoothing_parameter(base.dual, eps).value
    scaled = base.scaled(Fraction(eta))
    adv = generate_advice(scaled, eps, 20000, seed=6)
    t = np.array([0.10, -0.08, 0.06])
    stepped, vals, ok = adv.step_batch(t)
    assert ok[0] and adv.clears_guard(t, vals, default_denom_floor(eps))[0]
    assert np.linalg.norm(stepped[0]) < 0.5 * np.linalg.norm(t)


def test_step_rejects_small_denominators():
    basis = integer_identity(1)
    adv = GaussianAdvice(basis, [[1]], eps=1e-3, seed=0)
    t = np.array([0.25])
    out, vals, ok = adv.step_batch(t)
    assert not ok[0] and not adv.clears_guard(t, vals, default_denom_floor(1e-3))[0]
    assert out[0, 0] == 0.25
    # an explicit floor of zero lets a query at 0.2 through
    t = np.array([0.2])
    out, vals, ok = adv.step_batch(t, floor=0.0)
    assert ok[0] and adv.clears_guard(t, vals, 0.0)[0]
    assert out[0, 0] != 0.2


def test_step_batch_freezes_rows_below_the_floor():
    basis = integer_identity(1)
    adv = GaussianAdvice(basis, [[1]], eps=1e-3, seed=0)
    ts = np.array([[0.05], [0.25]])
    out, vals, ok = adv.step_batch(ts)
    floor = default_denom_floor(1e-3)
    assert abs(vals[1]) < floor
    assert ok.tolist() == [True, False]
    assert np.array_equal(ok, adv.clears_guard(ts, vals, floor))
    assert out[1, 0] == 0.25
    assert out[0, 0] != 0.05
    alone, _, _ = adv.step_batch(np.array([0.05]), floor=0.0)
    assert out[0, 0] == pytest.approx(alone[0, 0], abs=1e-14)
    single, _, _ = adv.step_batch(np.array([0.05]))
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
    stepped, vals, _ = adv.step_batch(ts, floor=0.0)
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


# draw counts below one kernel tile, one draw past two tiles, and over four
# tiles with a partial fifth
TILED = {count: generate_advice(random_dual_orthogonal(3, seed=12), 1e-3, count, seed=12)
         for count in (2 * _TILE_COLS + 1, 4 * _TILE_COLS + 123)}
TILED[len(GENERIC)] = GENERIC
# a rank-8 advice of the decode-r8 size
RANK8 = generate_advice(random_dual_orthogonal(8, seed=4), 1e-6, advice_count(8, 1e-6), seed=4)


@pytest.mark.parametrize("count", sorted(TILED))
@pytest.mark.parametrize("n_rows", [1, _TILE_ROWS, _TILE_ROWS + 3, 3 * _TILE_ROWS + 1])
def test_tiled_kernel_matches_the_reference_at_every_tile_edge(count, n_rows):
    rng = np.random.default_rng(count + n_rows)
    ts = 0.3 * rng.normal(size=(n_rows, 3))
    # every third row far out, with coordinates up to 1e6
    ts[2::3] = rng.uniform(-1e6, 1e6, size=ts[2::3].shape)
    assert_kernel_tracks_reference(TILED[count], ts)


BATCHED = {**TILED, len(RANK8): RANK8}


@pytest.mark.parametrize("count", sorted(BATCHED))
@pytest.mark.parametrize("n_rows", [1, _TILE_ROWS + 3, 3 * _TILE_ROWS + 1])
def test_kernel_rows_are_bit_identical_in_any_batch(count, n_rows):
    # each row of f_batch and step_batch equals the same row run alone and in
    # a shuffled batch, bit for bit, near the lattice and far out
    adv = BATCHED[count]
    rng = np.random.default_rng(count * n_rows)
    ts = 0.3 * rng.normal(size=(n_rows, adv.basis.ambient))
    ts[2::3] = rng.uniform(-1e6, 1e6, size=ts[2::3].shape)
    fb = adv.f_batch(ts)
    stepped, vals, _ = adv.step_batch(ts, floor=0.0)
    perm = rng.permutation(n_rows)
    s_perm, v_perm, _ = adv.step_batch(ts[perm], floor=0.0)
    assert np.array_equal(adv.f_batch(ts[perm]), fb[perm])
    assert np.array_equal(s_perm, stepped[perm])
    assert np.array_equal(v_perm, vals[perm])
    for k, t in enumerate(ts):
        s_one, v_one, _ = adv.step_batch(t, floor=0.0)
        assert np.array_equal(adv.f_batch(t), fb[k:k + 1])
        assert np.array_equal(s_one, stepped[k:k + 1])
        assert np.array_equal(v_one, vals[k:k + 1])


def large_coefficient_advice(count):
    """Draws on Z^6 re-expressed over the unimodular basis with rows
    (min(i, j) + 1)_j: the lattice and the draws stay the same, but the
    coefficient sums pass a hundred, so the kernel's phases reach past
    100 pi before any reduction."""
    n = 6
    ones = np.tril(np.ones((n, n), dtype=np.int64))
    u = ones @ ones.T
    adv = generate_advice(integer_identity(n), 1e-3, count, seed=14)
    return GaussianAdvice(LatticeBasis(u.tolist()), adv.coeffs @ u.T, adv.eps, adv.seed)


LARGE = {count: large_coefficient_advice(count) for count in (_TILE_COLS + 1, 2 * _TILE_COLS + 123)}


@pytest.mark.parametrize("count", sorted(LARGE))
@pytest.mark.parametrize("n_rows", [1, _TILE_ROWS, _TILE_ROWS + 3])
def test_kernel_tracks_the_reference_at_large_coefficient_sums(count, n_rows):
    adv = LARGE[count]
    assert adv._coef_sum >= 100
    rng = np.random.default_rng(count + n_rows)
    # rows near points of Z^6, and every third row far out
    ts = rng.integers(-5, 6, size=(n_rows, 6)) + 0.1 * rng.normal(size=(n_rows, 6))
    ts[2::3] = rng.uniform(-1e6, 1e6, size=ts[2::3].shape)
    assert_kernel_tracks_reference(adv, ts)


@pytest.mark.parametrize("big", [2 ** 53 + 1, -(2 ** 53) - 1, -(2 ** 63), 2 ** 63, 2 ** 64])
def test_coefficients_beyond_2_53_are_rejected(big):
    basis = integer_identity(2)
    GaussianAdvice(basis, [[1, 0], [0, -(2 ** 53)]], 1e-3, 0)
    with pytest.raises(ValueError, match="2\\^53"):
        GaussianAdvice(basis, [[1, 0], [0, big]], 1e-3, 0)


@pytest.mark.parametrize("bad", [1.5, -0.25, 1e-300, math.nan, math.inf, -math.inf,
                                 Fraction(3, 2), "1"])
def test_non_integer_coefficients_are_rejected(bad):
    # the draw (0, 1.5) must not be read as (0, 1)
    with pytest.raises(ValueError, match="integers"):
        GaussianAdvice(integer_identity(2), [[1, 0], [0, bad]], 1e-3, 0)


@pytest.mark.parametrize("ok", [2.0, -(2.0 ** 53), Fraction(4, 2), np.int32(-3), True])
def test_integral_coefficients_of_any_type_are_accepted(ok):
    adv = GaussianAdvice(integer_identity(2), [[1, 0], [0, ok]], 1e-3, 0)
    assert adv.coeffs.dtype == np.int64
    assert adv.coeffs[1, 1] == ok


def test_a_coefficient_float32_cannot_hold_trips_every_guard():
    # 2^24 + 1 rounds in float32, and no phase scale keeps the phase
    # numerators within 2^24, so kernel_err exceeds 2: f_batch stays
    # within it of f, and no row clears the guard, not even a lattice point
    adv = GaussianAdvice(integer_identity(2), [[2 ** 24 + 1, 0], [1, 3]], 1e-3, 0)
    assert adv._phase_exp <= 0
    rng = np.random.default_rng(24)
    ts = np.vstack([np.zeros(2), 0.3 * rng.normal(size=(20, 2)),
                    rng.uniform(-1e6, 1e6, size=(20, 2))])
    err = adv.kernel_err(ts)
    assert np.all(err > 2)
    gap = np.abs(adv.f_batch(ts) - [adv.f(t) for t in ts])
    assert np.all(gap <= err)
    stepped, vals, ok = adv.step_batch(ts, floor=0.0)
    assert not ok.any() and not adv.clears_guard(ts, vals, 0.0).any()
    assert np.array_equal(stepped, ts)


def test_kernel_err_covers_the_float32_rounding_of_a_large_phase():
    # one draw with coefficient 1000 has phases up to 1000 pi, where rounding
    # them to multiples of 2^-q moves cos far more than the trig charge; the
    # S * 2^-(q + 1) term of kernel_err is what covers it
    adv = GaussianAdvice(integer_identity(1), [[1000]], 1e-3, 0)
    ts = np.linspace(0.1, 0.4, 3001)[:, None]
    gap = np.abs(adv.f_batch(ts) - [adv.f(t) for t in ts])
    assert np.all(gap <= adv.kernel_err(ts))
    assert gap.max() > 100 * _TRIG_ERR


def test_float32_trig_stays_within_the_charged_error():
    # kernel_err charges _TRIG_ERR for each float32 cos and sin on phases up
    # to pi * S; S is taken from a rank-8 advice of the decode-r8 size
    adv = RANK8
    bound = math.pi * adv._coef_sum
    grid = np.linspace(-bound, bound, 1 << 22, dtype=np.float32)
    out = np.empty(1 << 20, dtype=np.float32)
    for chunk in np.split(grid, 4):
        ref = chunk.astype(np.float64)
        for fn in (np.cos, np.sin):
            fn(chunk, out=out)
            assert np.abs(out - fn(ref)).max() <= _TRIG_ERR, fn.__name__


def test_kernel_err_near_the_lattice_is_a_tenth_of_the_floor_at_decode_size():
    # phase quantisation 39 * 2^-17 plus the float32 sums 4095 * 2^-24
    # stay under a tenth of the guard floor 7.9e-3
    adv = RANK8
    rng = np.random.default_rng(8)
    near = adv.kernel_err(0.1 * rng.normal(size=(16, 8)))
    assert np.all(near <= default_denom_floor(adv.eps) / 10)


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
    # the charge must stay far below the guard floor it is subtracted against
    adv = GENERIC
    near, far = adv.kernel_err(np.array([[0.1, 0.2, 0.3], [1e12, 0.0, 0.0]]))
    assert near <= default_denom_floor(adv.eps) / 1000
    assert far > near


def test_guard_trips_on_a_huge_target():
    _, adv = small_advice()
    t = np.full(3, 1e300)
    out, vals, ok = adv.step_batch(t)
    assert np.array_equal(out[0], t)
    assert not ok[0] and not adv.clears_guard(t, vals, 0.0)[0]
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
