"""Exact enumeration: balls, closest/shortest vectors, HKZ, unimodular completion."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latgauss.enumeration import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    _budget,
    _exact_sqdists,
    _points_within,
    closest_vector,
    complete_to_unimodular,
    enumerate_ball,
    hkz_reduce,
    lambda1,
    shortest_vector,
)
from latgauss.generators import checkerboard, integer_identity, random_integer
from latgauss.lattice import (
    LatticeBasis,
    lattice_coefficients,
    nearest_plane,
    project_away_from_prefix,
    project_lattice,
    sqdist,
    sqnorm,
)

from latgauss.reductions import _shortest_via_promise_cvp
from latgauss.rng import stream

from conftest import box_cvp, frac_vector


def ball_coeff_set(ball):
    return {tuple(int(c) for c in row) for row in ball.coeffs}


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_enumerate_ball_matches_the_coefficient_box(seed):
    basis = random_integer(3, seed=seed, bound=4)
    center = frac_vector((seed, -2 * seed, 7), 3)
    radius = Fraction(9, 2)
    ball = enumerate_ball(basis, center, radius)
    got = ball_coeff_set(ball)
    expect = set()
    for coeffs in itertools.product(range(-8, 9), repeat=3):
        vec = basis.vector(coeffs)
        if sqdist(vec, center) <= radius * radius:
            expect.add(coeffs)
    assert got == expect
    for i in range(len(ball)):
        coeffs = tuple(int(c) for c in ball.coeffs[i])
        assert ball.exact_sqdist(i) == sqdist(basis.vector(coeffs), center)


def test_enumerate_ball_keeps_exact_boundary_points():
    z1 = integer_identity(1)
    ball = enumerate_ball(z1, (0,), Fraction(2))
    assert ball_coeff_set(ball) == {(-2,), (-1,), (0,), (1,), (2,)}
    ball = enumerate_ball(z1, (Fraction(1, 3),), Fraction(4, 3))
    assert ball_coeff_set(ball) == {(-1,), (0,), (1,)}


def test_enumerate_ball_radius_monotonicity():
    basis = random_integer(2, seed=5)
    sizes = [len(enumerate_ball(basis, (0, 0), Fraction(r))) for r in range(1, 6)]
    assert sizes == sorted(sizes)


def test_enumerate_ball_rank_zero():
    empty = LatticeBasis([], ambient=2)
    ball = enumerate_ball(empty, (Fraction(1, 2), 0), Fraction(1))
    assert len(ball) == 1
    assert ball.exact_sqdist(0) == Fraction(1, 4)
    assert ball.points_float().tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("seed", (4, 5, 6, 7))
def test_closest_vector_matches_brute_force(seed):
    basis = random_integer(3, seed=seed, bound=3)
    target = frac_vector((5 * seed, -3, 2 * seed + 1), 4)
    vec, coeffs, sq = closest_vector(basis, target)
    best, argmin = box_cvp(basis, target, 10)
    assert sq == best
    assert coeffs in argmin
    assert vec == basis.vector(coeffs)
    assert sq <= sqdist(nearest_plane(basis, target)[0], target)


def test_closest_vector_breaks_ties_lexicographically():
    z2 = integer_identity(2)
    vec, coeffs, sq = closest_vector(z2, (Fraction(1, 2), Fraction(1, 2)))
    assert sq == Fraction(1, 2)
    assert coeffs == (0, 0)
    vec, coeffs, _ = closest_vector(z2, (Fraction(-1, 2), Fraction(3, 2)))
    assert coeffs == (-1, 1)


def test_shortest_vector_known_lattices():
    assert lambda1(integer_identity(5)) == 1
    assert lambda1(checkerboard(4)) == 2
    vec, coeffs, sq = shortest_vector(checkerboard(4))
    assert sqnorm(vec) == sq == 2
    assert any(coeffs)


@pytest.mark.parametrize("seed", (1, 8))
def test_shortest_vector_matches_brute_force(seed):
    basis = random_integer(3, seed=seed, bound=3)
    _, _, sq = shortest_vector(basis)
    nonzero_best = min(
        sqnorm(basis.vector(c))
        for c in itertools.product(range(-6, 7), repeat=3)
        if any(c)
    )
    assert sq == nonzero_best


def test_shortest_vector_rejects_rank_zero():
    with pytest.raises(ValueError):
        shortest_vector(LatticeBasis([], ambient=1))


@pytest.mark.parametrize("seed", (2, 3, 9))
def test_hkz_reduce_properties(seed):
    basis = random_integer(4, seed=seed, bound=6)
    hkz = hkz_reduce(basis)
    for row in hkz.rows:
        assert lattice_coefficients(basis, row) is not None
    for row in basis.rows:
        assert lattice_coefficients(hkz, row) is not None
    gs = hkz.gram_schmidt
    for k in range(hkz.rank):
        proj = project_lattice(hkz, k)
        assert lambda1(proj) == gs.sqnorms[k]
    for i in range(hkz.rank):
        for j in range(i):
            assert abs(gs.mu[i][j]) <= Fraction(1, 2)


def test_hkz_reduce_outputs_are_pinned():
    # the reduce-r8 bases (seeds 700-715) and seed 731; seeds 707 and 731 size
    # reduce through an exact |mu| = 1/2 tie, which rounds half to even
    rows = [hkz_reduce(random_integer(8, seed=s)).rows for s in (*range(700, 716), 731)]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "1bacd8dc4d26d48932dadf8b4adbbf3644103ac62408118accc4ff785908dcb4"


def test_hkz_reduce_rejects_an_svp_answer_outside_the_contract():
    # int() would truncate 1.5 to the coefficient 1 and return a basis, and
    # a short answer would drop a row of the tail
    with pytest.raises(ValueError, match="not an integer"):
        hkz_reduce(integer_identity(3), svp=lambda b: (1.5, 0, 0))
    for answer in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="coefficients for rank 3"):
            hkz_reduce(integer_identity(3), svp=lambda b: answer)


def test_budget_exceeded_propagates(monkeypatch):
    basis = random_integer(4, seed=1)
    monkeypatch.setenv("LATGAUSS_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        closest_vector(basis, frac_vector((1, 2, 3, 4), 3))
    with pytest.raises(BudgetExceeded):
        shortest_vector(basis)


@pytest.mark.parametrize("value", ("17", "0", "-3", "1e7", "abc"))
def test_budget_env_override(monkeypatch, value):
    # the variable is checked where a search reads it; only a positive
    # integer sets the budget
    monkeypatch.setenv("LATGAUSS_BUDGET", value)
    if value == "17":
        assert _budget() == 17
    else:
        with pytest.raises(ValueError, match="LATGAUSS_BUDGET must be a positive integer"):
            shortest_vector(random_integer(3, seed=1))
    monkeypatch.delenv("LATGAUSS_BUDGET")
    assert _budget() == DEFAULT_BUDGET


def test_complete_to_unimodular():
    mat = complete_to_unimodular((6, 10, 15))
    assert mat[0] == [6, 10, 15]
    assert LatticeBasis(mat).gram_det == 1
    with pytest.raises(ValueError):
        complete_to_unimodular((2, 4, 6))


@given(st.lists(st.one_of(st.integers(-1, 1), st.integers(-10**6, 10**6)),
                min_size=1, max_size=6).filter(lambda a: math.gcd(*a) == 1))
def test_complete_to_unimodular_on_primitive_vectors(a):
    mat = complete_to_unimodular(a)
    assert mat[0] == a
    assert LatticeBasis(mat).gram_det == 1


def test_shortest_via_promise_cvp_with_exact_solver():
    basis = random_integer(3, seed=6, bound=4)

    def solver(sub, target):
        return closest_vector(sub, target)[1]

    coeffs = _shortest_via_promise_cvp(basis, solver)
    assert sqnorm(basis.vector(coeffs)) == lambda1(basis)


@given(st.integers(0, 2**32 - 1), st.fractions(min_value=0, max_value=4, max_denominator=8))
def test_closest_beats_babai(seed, shift):
    basis = random_integer(2, seed=seed % 50, bound=3)
    target = (shift, Fraction(1, 3) + shift)
    _, _, sq = closest_vector(basis, target)
    assert sq <= sqdist(nearest_plane(basis, target)[0], target)


def test_exact_search_scores_in_big_integers():
    # entries near 3e9 overflow int64 squared distances, so scoring takes the
    # object-dtype branch; b1/2 ties the origin with b1
    big = 3 * 10**9
    basis = LatticeBasis([(big + 1, -5, 2), (7, big - 3, 11), (-4, 1, big + 7)])
    for k in [(1, -1, 2), (Fraction(1, 2), 0, 0), (Fraction(2, 3), Fraction(1, 3), -1)]:
        target = tuple(sum(Fraction(c) * row[j] for c, row in zip(k, basis.rows)) + j - 1
                       for j in range(3))
        best, argmin = box_cvp(basis, target, 3)
        vec, coeffs, sq = closest_vector(basis, target)
        assert sq == best and coeffs == min(argmin)
        ball = enumerate_ball(basis, target, big)
        assert ball.scaled_sqdist.dtype == object
        expect = {c for c in itertools.product(range(-3, 4), repeat=3)
                  if sqdist(basis.vector(c), target) <= big * big}
        assert ball_coeff_set(ball) == expect
        for i in range(len(ball)):
            assert ball.exact_sqdist(i) == sqdist(basis.vector(ball.coeffs[i]), target)


@pytest.mark.parametrize("g", [2**31 + 11, 3**40, 2**70])
@pytest.mark.parametrize("size", [5, 3 * 10**9])
def test_scoring_divides_out_a_common_factor(g, size):
    # rows and centre times g overflow int64 and score g^2 times the
    # unscaled integers, whether the quotients then fit int64 (size 5) or
    # not (size 3e9)
    rng = random.Random(g + size)
    rows = [[rng.randint(-size, size) for _ in range(4)] for _ in range(3)]
    center = [rng.randint(-size, size) for _ in range(4)]
    coeffs = np.array([[rng.randint(-9, 9) for _ in range(3)] for _ in range(50)])
    plain = _exact_sqdists(coeffs, rows, center)
    scaled = _exact_sqdists(coeffs, [[g * v for v in r] for r in rows], [g * v for v in center])
    assert scaled.dtype == object
    assert scaled.tolist() == [g * g * int(x) for x in plain]


@pytest.mark.parametrize("scale", [10**10, 10**14, 10**20])
def test_closest_vector_keeps_its_answer_at_large_coordinates(scale):
    # lattice points far from the origin plus offsets of denominator 16: the
    # answer, and the ball, is the one for the offset alone, moved by the
    # lattice point; 10**20 coefficients do not fit int64
    basis = random_integer(4, seed=0)
    rng = random.Random(scale)
    for _ in range(40):
        coeffs = [rng.randint(-scale, scale) for _ in range(4)]
        point = basis.vector(coeffs)
        offset = frac_vector([rng.randint(-64, 64) for _ in range(4)], 16)
        target = [p + o for p, o in zip(point, offset)]
        got = closest_vector(basis, target)
        assert got is not None
        vec, got_coeffs, sq = got
        near_vec, near_coeffs, near_sq = closest_vector(basis, offset)
        assert sq == near_sq
        assert got_coeffs == tuple(c + d for c, d in zip(coeffs, near_coeffs))
        assert vec == tuple(p + v for p, v in zip(point, near_vec))
        ball, near_ball = enumerate_ball(basis, target, 8), enumerate_ball(basis, offset, 8)
        assert len(near_ball) > 0
        moved = [[c - d for c, d in zip(row, coeffs)] for row in ball.coeffs.tolist()]
        assert moved == near_ball.coeffs.tolist()
        assert ([ball.exact_sqdist(i) for i in range(len(ball))]
                == [near_ball.exact_sqdist(i) for i in range(len(near_ball))])


def _rational_centre_cases():
    """(basis, centre, radius) triples with rational centres: integer and
    rational full-rank bases, a lower-rank rational basis with off-span
    centres, a centre past int64 coefficients, and tail projections of a
    rank-8 HKZ basis, whose denominators push scoring onto Python integers."""
    for seed in (1, 2):
        basis = random_integer(4, seed=seed)
        rng = stream(seed, 9)
        yield basis, (0,) * 4, 15
        for _ in range(3):
            yield basis, frac_vector(rng.integers(-80, 81, size=4), 8), Fraction(29, 2)
    basis = random_integer(3, seed=3).scaled(Fraction(2, 3))
    for t in ((1, Fraction(-5, 6), Fraction(7, 4)), (Fraction(11, 6), 0, Fraction(-1, 9))):
        yield basis, t, 4
    basis = LatticeBasis([(-1, -1, Fraction(2, 7), Fraction(-1, 4)),
                          (Fraction(1, 3), Fraction(7, 9), Fraction(3, 11), 0)])
    for t in ((Fraction(3, 5), 2, -1, Fraction(1, 10)), (-7, Fraction(9, 4), 5, Fraction(-2, 3))):
        yield basis, t, 3
    basis = random_integer(4, seed=0)
    point = basis.vector((10**20, -3 * 10**19, 7, 10**20 + 1))
    yield basis, tuple(p + o for p, o in zip(point, frac_vector((5, -9, 13, 2), 16))), 8
    hkz = hkz_reduce(random_integer(8, seed=700))
    rng = stream(107, 0)
    for i in (2, 4, 6, 7):
        t = frac_vector(rng.integers(-64, 65, size=8), 16)
        yield project_lattice(hkz, i), project_away_from_prefix(hkz, i, t), 9


def test_searches_on_rational_centres_are_pinned():
    # every BallPoints field of the ball and of the nearest-point search
    # that closest_vector reads, with the arrays' dtypes
    def fields(ball):
        return (str(ball.coeffs.dtype), ball.coeffs.tolist(), str(ball.scaled_sqdist.dtype),
                ball.scaled_sqdist.tolist(), ball.scale_sq, ball.nodes)

    outs = []
    for basis, centre, radius in _rational_centre_cases():
        outs.append((fields(enumerate_ball(basis, centre, radius)),
                     fields(_points_within(basis, centre, None, nearest=True)),
                     closest_vector(basis, centre)))
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()
    assert digest == "6d65878d6586ca2013fe911c5efe76fcb876af2ebc37d6a68e86572555d8592f"
