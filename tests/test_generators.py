"""Lattice fixture generators and the spec-string front end."""

import re
from fractions import Fraction

import pytest

from latgauss.enumeration import lambda1
from latgauss.generators import (
    LatticeGeneratorSpec,
    checkerboard,
    generate_lattice,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from latgauss.lattice import lattice_coefficients, sqnorm


def test_integer_identity_rows():
    basis = integer_identity(3)
    assert basis.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert basis.gram_det == 1
    with pytest.raises(ValueError):
        integer_identity(0)


def test_checkerboard_parity_membership():
    basis = checkerboard(4)
    assert lambda1(basis) == 2
    assert basis.gram_det == 4
    assert lattice_coefficients(basis, (1, 1, 0, 0)) is not None
    assert lattice_coefficients(basis, (1, -1, 1, 1)) is not None
    assert lattice_coefficients(basis, (2, 0, 0, 0)) is not None
    assert lattice_coefficients(basis, (1, 0, 0, 0)) is None
    assert lattice_coefficients(basis, (0, 1, 1, 1)) is None


def test_random_integer_is_full_rank_and_bounded():
    for seed in range(6):
        basis = random_integer(4, seed=seed, bound=7)
        assert basis.rank == 4
        assert basis.gram_det != 0
        assert all(abs(x) <= 7 for row in basis.rows for x in row)


def test_random_integer_is_deterministic_per_seed():
    assert random_integer(3, seed=5).rows == random_integer(3, seed=5).rows
    assert random_integer(3, seed=5).rows != random_integer(3, seed=6).rows


def test_random_dual_orthogonal_rows_are_orthogonal():
    for seed in (0, 1, 2):
        basis = random_dual_orthogonal(4, seed=seed)
        prod = Fraction(1)
        for i, u in enumerate(basis.rows):
            prod *= sqnorm(u)
            for v in basis.rows[:i]:
                assert sum(a * b for a, b in zip(u, v)) == 0
        assert basis.gram_det == prod
        for i, u in enumerate(basis.dual.rows):
            for v in basis.dual.rows[:i]:
                assert sum(a * b for a, b in zip(u, v)) == 0


def test_random_dual_orthogonal_preserves_the_diagonal_lengths():
    basis = random_dual_orthogonal(3, seed=4, turns=0)
    rotated = random_dual_orthogonal(3, seed=4)
    assert sorted(sqnorm(r) for r in basis.rows) == sorted(sqnorm(r) for r in rotated.rows)


def test_spec_parse_reads_kind_rank_and_params():
    spec = LatticeGeneratorSpec.parse(" checkerboard:8 ")
    assert spec == LatticeGeneratorSpec("checkerboard", 8)
    spec = LatticeGeneratorSpec.parse("random-integer:5,bound=3")
    assert spec == LatticeGeneratorSpec("random-integer", 5, (("bound", 3),))
    spec = LatticeGeneratorSpec.parse("random-dual-orthogonal:4, turns=0, bound=2")
    assert spec.params == (("turns", 0), ("bound", 2))


def test_spec_parse_rejects_malformed_strings():
    with pytest.raises(ValueError):
        LatticeGeneratorSpec.parse("unknown-kind:4")
    with pytest.raises(ValueError):
        LatticeGeneratorSpec.parse("checkerboard")
    with pytest.raises(ValueError):
        LatticeGeneratorSpec.parse("checkerboard:4,bound")
    # a key the kind's generator does not take, and the seed, which
    # generate_lattice passes itself
    for text, allowed in (
        ("integer-identity:3,bound=4", "[]"),
        ("checkerboard:4,turns=1", "[]"),
        ("random-integer:3,seed=5", "['bound']"),
        ("random-integer:3,turns=2", "['bound']"),
        ("random-dual-orthogonal:3,seed=1", "['bound', 'turns']"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"allowed keys: {allowed}")):
            LatticeGeneratorSpec.parse(text)
    with pytest.raises(ValueError, match=re.escape("allowed keys: []")):
        LatticeGeneratorSpec("integer-identity", 3, (("bound", 4),))


def test_generate_lattice_dispatch():
    assert generate_lattice("integer-identity:3") == integer_identity(3)
    assert generate_lattice("checkerboard:4") == checkerboard(4)
    assert generate_lattice("random-integer:3", seed=9) == random_integer(3, seed=9)
    got = generate_lattice("random-integer:3,bound=2", seed=9)
    assert got == random_integer(3, seed=9, bound=2)
    spec = LatticeGeneratorSpec("random-dual-orthogonal", 3)
    assert generate_lattice(spec, seed=2) == random_dual_orthogonal(3, seed=2)
