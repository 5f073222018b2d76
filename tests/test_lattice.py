"""Exact rational basis layer: Gram-Schmidt, duals, projections, Babai."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from latgauss._validation import parse_fraction
from latgauss.advice import generate_advice
from latgauss.enumeration import _size_reduce, closest_vector, enumerate_ball
from latgauss.generators import checkerboard, integer_identity, random_integer
from latgauss.lattice import (
    LatticeBasis,
    _Frame,
    _babai_prefix,
    _clear,
    _span_coefficients,
    format_basis,
    lattice_coefficients,
    nearest_plane,
    parse_basis,
    project_away_from_prefix,
    project_lattice,
    sqdist,
    sqnorm,
)

from conftest import (
    rational_cases,
    reference_babai_prefix,
    reference_gram_schmidt,
    reference_inverse,
    reference_project_away,
)

SEEDS = (11, 12, 13, 14, 15)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@pytest.mark.parametrize("seed", SEEDS)
def test_gram_schmidt_reconstructs_and_orthogonalizes(seed):
    basis = random_integer(4, seed=seed)
    gs = basis.gram_schmidt
    for i, row in enumerate(basis.rows):
        rebuilt = list(gs.orthogonal[i])
        for j in range(i):
            mu = gs.mu[i][j]
            rebuilt = [r + mu * w for r, w in zip(rebuilt, gs.orthogonal[j])]
        assert tuple(rebuilt) == row
    for i in range(basis.rank):
        for j in range(i):
            assert dot(gs.orthogonal[i], gs.orthogonal[j]) == 0
        assert sqnorm(gs.orthogonal[i]) == gs.sqnorms[i]


def leibniz_det(mat):
    """Determinant by the Leibniz permutation sum, independent of any elimination."""
    n = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod((mat[i][perm[i]] for i in range(n)), start=1)
    return total


def test_gram_schmidt_norms_multiply_to_gram_determinant():
    bases = [random_integer(n, seed=seed) for n in (1, 2, 3, 4) for seed in SEEDS[:2]]
    bases += [
        LatticeBasis([(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(5, 7))]),
        LatticeBasis([(Fraction(2, 5), 1, Fraction(-1, 4)), (0, Fraction(3, 8), 2)]),
        random_integer(4, seed=21).scaled(Fraction(3, 16)),
    ]
    for basis in bases:
        want = leibniz_det(basis.gram)
        assert basis.gram_det == want
        assert math.prod(basis.gram_schmidt.sqnorms, start=Fraction(1)) == want


def test_gram_schmidt_handles_rational_rows():
    basis = LatticeBasis([(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(5, 7))])
    gs = basis.gram_schmidt
    assert dot(gs.orthogonal[0], gs.orthogonal[1]) == 0
    assert basis.denominator == 42


@pytest.mark.parametrize("seed", SEEDS)
def test_dual_is_biorthogonal(seed):
    basis = random_integer(4, seed=seed)
    dual = basis.dual
    for i, b in enumerate(basis.rows):
        for j, d in enumerate(dual.rows):
            assert dot(b, d) == (1 if i == j else 0)
    assert dual.dual.rows == basis.rows
    assert dual.gram_det == 1 / basis.gram_det


def test_vector_and_coefficient_roundtrip():
    basis = random_integer(4, seed=3)
    coeffs = (2, -1, 0, 5)
    vec = basis.vector(coeffs)
    assert lattice_coefficients(basis, vec) == coeffs
    assert _span_coefficients(basis, vec) == coeffs
    off = tuple(v + Fraction(1, 2) for v in vec)
    assert lattice_coefficients(basis, off) is None


def test_span_coefficients_project_onto_the_span():
    basis = LatticeBasis([(1, 0, 0), (0, 1, 0)])
    assert _span_coefficients(basis, (1, 2, 0)) == (1, 2)
    assert _span_coefficients(basis, (3, -1, 7)) == (3, -1)
    assert lattice_coefficients(basis, (0, 0, 1)) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_nearest_plane_satisfies_the_babai_bound(seed):
    basis = random_integer(4, seed=seed)
    rng_targets = [
        tuple(Fraction(seed * 7 + 3 * i + j, 5) for j in range(4)) for i in range(6)
    ]
    bound = sum(basis.gram_schmidt.sqnorms) / 4
    for t in rng_targets:
        vec, coeffs = nearest_plane(basis, t)
        assert vec == basis.vector(coeffs)
        assert sqdist(vec, t) <= bound


def test_nearest_plane_rounds_half_integers_to_even():
    z1 = LatticeBasis([(1,)])
    assert nearest_plane(z1, (Fraction(1, 2),))[1] == (0,)
    assert nearest_plane(z1, (Fraction(3, 2),))[1] == (2,)
    assert nearest_plane(z1, (Fraction(-1, 2),))[1] == (0,)


def test_projections_split_the_span():
    basis = random_integer(4, seed=9)
    v = tuple(Fraction(k, 3) for k in (5, -2, 7, 1))
    for k in range(basis.rank + 1):
        away = project_away_from_prefix(basis, k, v)
        onto = tuple(a - b for a, b in zip(v, away))
        assert not any(project_away_from_prefix(basis, k, onto))
        for row in basis.rows[:k]:
            assert dot(away, row) == 0


def test_project_lattice_ranks_and_transfer():
    basis = random_integer(4, seed=2)
    assert project_lattice(basis, 0).rows == basis.rows
    for k in range(basis.rank + 1):
        proj = project_lattice(basis, k)
        assert proj.rank == basis.rank - k
        for i, row in enumerate(proj.rows):
            assert row == project_away_from_prefix(basis, k, basis.rows[k + i])
    with pytest.raises(ValueError):
        project_lattice(basis, 5)


def test_project_away_from_prefix_rejects_an_index_outside_the_rank():
    # k = -1 would read the last prefix determinant and return (0, 1, 1)
    basis = LatticeBasis([[2, 0, 0], [1, 3, 0]])
    for k in (-1, 3):
        with pytest.raises(ValueError, match="projection index"):
            project_away_from_prefix(basis, k, (1, 1, 1))


def _frame_fields(basis):
    f = basis._frame
    return f.d, f.rows, f.w, f.dets


def _assert_fresh(derived, fresh):
    """derived carries the frame that a fresh construction builds."""
    assert _frame_fields(derived) == _frame_fields(fresh)
    assert (derived.rank, derived.ambient) == (fresh.rank, fresh.ambient)
    assert derived == fresh and hash(derived) == hash(fresh)


def test_derived_frames_divide_out_a_common_factor():
    # the updated rows share a factor with d, which a fresh construction
    # never carries: d = 2 falls to 1 in the first, d D_0 = 4 to 1 in the second
    doubled = LatticeBasis([[Fraction(1, 2), 0], [0, 1]])._frame.scale_row(0, 2)
    _assert_fresh(LatticeBasis._from_frame(doubled, 2), integer_identity(2))
    _assert_fresh(project_lattice(LatticeBasis([[2, 0], [1, 1]]), 1), LatticeBasis([[0, 1]]))


@pytest.mark.parametrize("c", [2, 4])
@pytest.mark.parametrize("n", range(2, 9))
def test_scale_row_derives_the_float_mu_table_bit_for_bit(n, c, monkeypatch):
    # a random basis, and the same with row 0 over c, whose scaled frame has
    # the factor c divided back out of d by _lowest_terms
    basis = random_integer(n, seed=60 + n)
    over = LatticeBasis([[x / c for x in r] if j == 0 else r for j, r in enumerate(basis.rows)])
    for parent in (basis, over):
        parent._frame.float_mu
        derived = [parent._frame.scale_row(i, c) for i in range(n)]
        with monkeypatch.context() as m:
            m.setattr(_Frame, "mu_num", None)
            tables = [f.float_mu for f in derived]
        for f, table in zip(derived, tables):
            fresh = _Frame(f.d, f.rows, f.w, f.dets).float_mu
            assert np.array(table).tobytes() == np.array(fresh).tobytes()
    assert over._frame.scale_row(0, c).d < over._frame.d


@given(rational_cases(), st.data())
def test_frame_updates_equal_a_fresh_construction(case, data):
    rows, _ = case
    assume(all(reference_gram_schmidt(rows)[2]))
    basis = LatticeBasis(rows)
    n, m, f = basis.rank, basis.ambient, basis._frame
    i = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(1, 6))
    scaled_rows = [tuple(c * x for x in r) if j == i else r for j, r in enumerate(rows)]
    scaled = LatticeBasis._from_frame(f.scale_row(i, c), m)
    _assert_fresh(scaled, LatticeBasis(scaled_rows))
    # the tail projection, of the basis and of the scaled basis
    k = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(k, n))
    for parent, prows in ((basis, rows), (scaled, scaled_rows)):
        fresh = LatticeBasis(
            [reference_project_away(prows, k, prows[j]) for j in range(k, stop)], ambient=m
        )
        _assert_fresh(LatticeBasis._from_frame(parent._frame.project_tail(k, stop), m), fresh)
    # a unimodular change of the rows from k on: reversed, and the new last
    # row added to each of the others
    tail = f.rows[k:][::-1]
    tail = tuple(tuple(a + b for a, b in zip(r, tail[-1])) for r in tail[:-1]) + tail[-1:]
    fresh = LatticeBasis([[Fraction(x, f.d) for x in r] for r in f.rows[:k] + tail], ambient=m)
    _assert_fresh(LatticeBasis._from_frame(f.with_tail(k, tail), m), fresh)
    # integer multiples of earlier rows added to each row
    combined = list(f.rows)
    for a in range(n):
        for b in range(a):
            step = data.draw(st.integers(-3, 3))
            combined[a] = tuple(x + step * y for x, y in zip(combined[a], f.rows[b]))
    fresh = LatticeBasis([[Fraction(x, f.d) for x in r] for r in combined], ambient=m)
    _assert_fresh(LatticeBasis._from_frame(f.with_rows(combined), m), fresh)
    reduced = _size_reduce(basis)
    _assert_fresh(reduced, LatticeBasis(reduced.rows, ambient=m))


def test_parse_and_format_roundtrip():
    basis = LatticeBasis([(Fraction(1, 3), 2), (0, Fraction(-7, 2))])
    again = parse_basis(format_basis(basis))
    assert again == basis
    assert again.ambient == 2


def test_parse_basis_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_basis("not a header\n1 0\n")
    with pytest.raises(ValueError):
        parse_basis("2 2\n1 0\n")


def test_rank_zero_and_dependent_rows():
    empty = LatticeBasis([], ambient=3)
    assert empty.rank == 0
    assert empty.ambient == 3
    with pytest.raises(ValueError):
        LatticeBasis([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        random_integer(2).vector((1,))


def test_vector_rejects_non_integer_coefficients():
    basis = LatticeBasis([(2, 0), (0, 2)])
    for bad in ((Fraction(1, 2), 1), (0, 1.7), (float("inf"), 0), (float("nan"), 0)):
        with pytest.raises(ValueError):
            basis.vector(bad)
    assert basis.vector((Fraction(3), 2.0)) == (6, 4)


def test_bases_hash_by_rows():
    a = random_integer(3, seed=4)
    b = LatticeBasis(a.rows)
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a != checkerboard(3)


def test_scaled_rescales_rows_and_determinant():
    basis = random_integer(3, seed=5)
    doubled = basis.scaled(2)
    assert doubled.rows == tuple(tuple(2 * x for x in r) for r in basis.rows)
    assert doubled.gram_det == basis.gram_det * 4**3
    third = basis.scaled(Fraction(1, 3))
    assert third.denominator % 3 == 0


def test_span_coefficients_are_exact():
    # x . B = v for a vector v inside the span of a rational basis
    basis = LatticeBasis([(Fraction(2, 3), 1, 0), (Fraction(7, 2), 4, Fraction(1, 5))])
    want = (Fraction(3, 7), Fraction(-5, 2))
    v = tuple(want[0] * a + want[1] * b for a, b in zip(*basis.rows))
    assert _span_coefficients(basis, v) == want


def test_sqnorm_and_sqdist_are_exact_fractions():
    assert sqnorm((Fraction(1, 2), Fraction(1, 3))) == Fraction(13, 36)
    assert sqdist((1, 0), (0, 1)) == 2


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=3, max_size=3,
    ),
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=16),
             min_size=3, max_size=3),
)
def test_nearest_plane_outputs_lattice_points(rows, target):
    try:
        basis = LatticeBasis(rows)
    except ValueError:
        return
    vec, coeffs = nearest_plane(basis, target)
    assert lattice_coefficients(basis, vec) == coeffs
    assert sqdist(vec, target) <= sum(basis.gram_schmidt.sqnorms) / 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_fail_at_the_boundary(bad):
    basis = random_integer(3)
    with pytest.raises(ValueError, match="must be finite"):
        closest_vector(basis, (bad, 0, 0))
    with pytest.raises(ValueError, match="must be finite"):
        enumerate_ball(basis, (0, 0, 0), bad)
    with pytest.raises(ValueError, match="must be finite"):
        LatticeBasis([(bad, 0), (0, 1)])
    adv = generate_advice(basis, 1e-3, 20, seed=0)
    with pytest.raises(ValueError, match="must be finite"):
        adv.f([bad, 0, 0])


def test_string_coordinates_with_a_zero_denominator_fail_at_the_boundary():
    with pytest.raises(ValueError, match="zero denominator"):
        LatticeBasis([["1/0", 1]])
    with pytest.raises(ValueError, match="zero denominator"):
        closest_vector(integer_identity(2), ("1/0", 0))
    assert LatticeBasis([["1/2", "3"]]).rows == ((Fraction(1, 2), Fraction(3)),)


@pytest.mark.parametrize("token", ["1e1001", "1E-1001", "-2.5e+1_000_000", "1e1000000"])
def test_exponents_past_1000_in_size_fail_at_the_boundary(token):
    # Fraction would build 10^exponent exactly, for as long as that takes
    with pytest.raises(ValueError, match="exponent"):
        parse_fraction(token)
    with pytest.raises(ValueError, match="exponent"):
        LatticeBasis([[token, 1]])


@pytest.mark.parametrize("token", [
    # repr of a float eps and str of a Fraction are the tokens in the files;
    # the last two sit on the bound
    repr(1e-6), repr(1.0000000000000001e-05), repr(5e-324), repr(1.7976931348623157e308),
    str(Fraction(10**300 + 1, 3**200)), str(Fraction(-7, 2**60)), "1e1000", "-1E-1_000",
])
def test_every_token_the_package_writes_parses_back(token):
    assert parse_fraction(token) == Fraction(token)


def _ball_reference(rows, target, coeffs_ref):
    """(radius, {coeffs: sqdist}): a rational radius just above the Babai
    distance and the ball around the target at that radius, by brute force
    over a coefficient box around the Babai coefficients; None when the box
    is too big to scan. A point y inside the ball has
    |x_i - x_t,i| <= r_span ||d_i|| for the dual vectors d_i, where r_span^2
    is r^2 less the target's off-span square; the float box gets a margin
    of one on each side."""
    m = len(target)
    near = [sum((c * r[j] for c, r in zip(coeffs_ref, rows)), Fraction(0)) for j in range(m)]
    dist = sum(((a - y) ** 2 for a, y in zip(target, near)), Fraction(0))
    q = math.isqrt(math.ceil(dist)) + 1
    radius = Fraction(math.isqrt(math.ceil(dist * q * q)) + 1, q)
    perp = sum((x * x for x in reference_project_away(rows, len(rows), target)), Fraction(0))
    pinv = np.linalg.pinv(np.array([[float(x) for x in r] for r in rows]))
    center = np.array([float(a - y) for a, y in zip(target, near)]) @ pinv
    width = math.sqrt(float(radius * radius - perp)) * np.linalg.norm(pinv, axis=0)
    lo = [math.floor(c - w) - 1 for c, w in zip(center, width)]
    hi = [math.ceil(c + w) + 1 for c, w in zip(center, width)]
    if math.prod(z - a + 1 for a, z in zip(lo, hi)) > 4_000:
        return None
    found = {}
    for off in itertools.product(*(range(a, z + 1) for a, z in zip(lo, hi))):
        x = tuple(c + o for c, o in zip(coeffs_ref, off))
        y = [sum((c * r[j] for c, r in zip(x, rows)), Fraction(0)) for j in range(m)]
        sq = sum(((a - v) ** 2 for a, v in zip(target, y)), Fraction(0))
        if sq <= radius * radius:
            found[x] = sq
    return radius, found


@given(rational_cases())
def test_frame_matches_the_rational_reference(case):
    rows, target = case
    ortho, mu, sq = reference_gram_schmidt(rows)
    if any(s == 0 for s in sq):
        with pytest.raises(ValueError, match="dependent"):
            LatticeBasis(rows)
        return
    basis = LatticeBasis(rows)
    # repr pins the Fraction type of every entry, not only its value
    assert repr(basis.gram_schmidt) == repr(type(basis.gram_schmidt)(ortho, mu, sq))
    assert basis.gram_det == math.prod(sq, start=Fraction(1))
    n = basis.rank
    f = basis._frame
    big, cleared = _clear(target, f.d)
    for k in range(n + 1):
        coeffs, resid = _babai_prefix(f, k, cleared, big // f.d)
        assert coeffs == reference_babai_prefix(rows, k, target)
        near = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                for j in range(len(target))]
        assert resid == [big * (a - y) for a, y in zip(target, near)]
        assert (repr(project_away_from_prefix(basis, k, target))
                == repr(reference_project_away(rows, k, target)))
    vec, coeffs = nearest_plane(basis, target)
    want = tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                 for j in range(len(target)))
    assert repr(vec) == repr(want)
    sq_t = sum((x * x for x in target), Fraction(0))
    assert repr(sqnorm(target)) == repr(sq_t)
    dist = sum(((a - b) ** 2 for a, b in zip(target, want)), Fraction(0))
    assert repr(sqdist(target, vec)) == repr(dist)
    # the dual is G^-1 B and the span coefficients are <t, B> G^-1
    gram_inv = reference_inverse([[sum((a * b for a, b in zip(u, v)), Fraction(0))
                                   for v in rows] for u in rows])
    cols = list(zip(*rows))
    assert repr(basis.dual.rows) == repr(tuple(
        tuple(sum((g * c for g, c in zip(grow, col)), Fraction(0)) for col in cols)
        for grow in gram_inv))
    tb = [sum((a * b for a, b in zip(target, r)), Fraction(0)) for r in rows]
    assert repr(_span_coefficients(basis, target)) == repr(tuple(
        sum((x * g for x, g in zip(tb, gcol)), Fraction(0)) for gcol in zip(*gram_inv)))
    if n <= 3:
        ref = _ball_reference(rows, target, coeffs)
        if ref is not None:
            radius, want_ball = ref
            assert _ball_dict(enumerate_ball(basis, target, radius)) == want_ball


def _ball_dict(ball):
    return {tuple(int(c) for c in ball.coeffs[i]): ball.exact_sqdist(i)
            for i in range(len(ball))}


def test_ball_far_off_a_lower_rank_span_is_searched_in_span(monkeypatch):
    # the centre's off-span square is about 8.5e18; a float slack taken on the
    # whole bound widened the in-span search to millions of nodes
    monkeypatch.setenv("LATGAUSS_BUDGET", "2000000")
    rows = [(-1, -1, Fraction(2, 7), Fraction(-1, 4)),
            (Fraction(1, 3), Fraction(7, 9), Fraction(3, 11), 0)]
    target = (-93446, -6654719, Fraction(9383698597, 2), Fraction(472517, 10))
    basis = LatticeBasis(rows)
    _, coeffs = nearest_plane(basis, target)
    radius, want_ball = _ball_reference(rows, target, coeffs)
    ball = enumerate_ball(basis, target, radius)
    assert want_ball and _ball_dict(ball) == want_ball
    assert ball.nodes < 100
