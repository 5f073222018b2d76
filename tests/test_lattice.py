"""Exact rational basis layer: Gram-Schmidt, duals, projections, Babai."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latgauss.advice import generate_advice
from latgauss.enumeration import closest_vector, enumerate_ball
from latgauss.generators import checkerboard, random_integer
from latgauss.lattice import (
    LatticeBasis,
    _span_coefficients,
    format_basis,
    invert_matrix,
    lattice_coefficients,
    nearest_plane,
    parse_basis,
    project_away_from_prefix,
    project_lattice,
    project_onto_prefix,
    solve_linear,
    sqdist,
    sqnorm,
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


def test_gram_schmidt_norms_multiply_to_gram_determinant():
    for seed in SEEDS:
        basis = random_integer(3, seed=seed)
        prod = Fraction(1)
        for s in basis.gram_schmidt.sqnorms:
            prod *= s
        assert prod == basis.gram_det


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
        onto = project_onto_prefix(basis, k, v)
        assert tuple(a + b for a, b in zip(away, onto)) == v
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


def test_invert_and_solve_are_exact():
    mat = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
    inv = invert_matrix(mat)
    for i in range(2):
        for j in range(2):
            assert dot(mat[i], tuple(col[j] for col in inv)) == (1 if i == j else 0)
    rhs = (Fraction(3), Fraction(5))
    x = solve_linear(mat, rhs)
    for j in range(2):
        assert sum(x[i] * mat[i][j] for i in range(2)) == rhs[j]
    with pytest.raises(ValueError):
        invert_matrix(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))


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
