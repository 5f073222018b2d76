"""Exact lattice bases and the rational linear algebra built on them.

A lattice is presented as a basis whose rows generate it. All algebra here
(Gram-Schmidt, duals, projections, Babai rounding, membership) is done in
arbitrary-precision rationals so downstream certificates can treat equalities
and comparisons as exact. Floating point enters only through the cached
float64 image of a basis, which the enumeration and Gaussian layers use for
speed and always back with an exact check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._validation import as_fraction_matrix, as_fraction_vector, as_integer, parse_fraction

ZERO = Fraction(0)


def _dot(u, v):
    acc = ZERO
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _sub_scaled(u, v, c):
    """u - c*v componentwise."""
    return tuple(a - c * b for a, b in zip(u, v))


class LatticeBasis:
    """An ordered basis with exact rational entries.

    Rows may be fewer than the ambient dimension; they must be linearly
    independent. A rank-0 basis (no rows) is legal and denotes the lattice
    {0} inside a given ambient space.
    """

    def __init__(self, rows, ambient=None):
        rows = as_fraction_matrix(rows)
        if rows:
            ambient = len(rows[0]) if ambient is None else int(ambient)
            if ambient != len(rows[0]):
                raise ValueError("ambient dimension disagrees with row length")
        elif ambient is None:
            raise ValueError("a rank-0 basis needs an explicit ambient dimension")
        self.rows = rows
        self.rank = len(rows)
        self.ambient = int(ambient)
        if self.rank > self.ambient:
            raise ValueError(f"{self.rank} rows cannot be independent in dimension {self.ambient}")
        if self.rank and any(s == 0 for s in self.gram_schmidt.sqnorms):
            raise ValueError("basis rows are linearly dependent")

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBasis)
            and self.rows == other.rows
            and self.ambient == other.ambient
        )

    def __hash__(self):
        return hash((self.rows, self.ambient))

    def __repr__(self):
        return f"LatticeBasis(rank={self.rank}, ambient={self.ambient})"

    @cached_property
    def float_rows(self):
        arr = np.array([[float(x) for x in r] for r in self.rows], dtype=np.float64)
        return arr.reshape(self.rank, self.ambient)

    @cached_property
    def denominator(self):
        d = 1
        for r in self.rows:
            for x in r:
                d = d * x.denominator // math.gcd(d, x.denominator)
        return d

    @cached_property
    def gram(self):
        return tuple(tuple(_dot(a, b) for b in self.rows) for a in self.rows)

    @cached_property
    def gram_det(self):
        """det(B B^T), the squared covolume: the product of the ||b*_i||^2."""
        return math.prod(self.gram_schmidt.sqnorms, start=Fraction(1))

    @cached_property
    def gram_schmidt(self):
        return _gram_schmidt(self.rows)

    @cached_property
    def dual(self):
        """Basis of the dual lattice in the same span: <d_i, b_j> = delta_ij."""
        if self.rank == 0:
            return self
        ginv = invert_matrix(self.gram)
        rows = tuple(
            tuple(_dot(grow, col) for col in zip(*self.rows)) for grow in ginv
        )
        return LatticeBasis(rows, ambient=self.ambient)

    def vector(self, coeffs):
        """The exact lattice vector with the given integer coefficients.

        Raises ValueError for a coefficient without an integer value, so a
        caller-supplied solver cannot turn a non-member into a member.
        """
        if len(coeffs) != self.rank:
            raise ValueError("coefficient count must equal the rank")
        out = [ZERO] * self.ambient
        for c, row in zip(coeffs, self.rows):
            k = as_integer(c)
            if k:
                for j, x in enumerate(row):
                    out[j] += k * x
        return tuple(out)

    def scaled(self, factor):
        f = factor if isinstance(factor, Fraction) else Fraction(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        return LatticeBasis(
            tuple(tuple(f * x for x in r) for r in self.rows), ambient=self.ambient
        )


@dataclass(frozen=True)
class GramSchmidt:
    """Exact orthogonalization b*_i = b_i - sum_{j<i} mu_ij b*_j."""

    orthogonal: tuple  # rows b*_i
    mu: tuple          # mu[i][j] for j < i
    sqnorms: tuple     # ||b*_i||^2


def _gram_schmidt(rows):
    ortho, mu, sq = [], [], []
    for b in rows:
        coeffs = []
        cur = tuple(b)
        for w, s in zip(ortho, sq):
            m = _dot(b, w) / s if s else ZERO
            coeffs.append(m)
            cur = _sub_scaled(cur, w, m)
        ortho.append(cur)
        mu.append(tuple(coeffs))
        sq.append(_dot(cur, cur))
    return GramSchmidt(tuple(ortho), tuple(mu), tuple(sq))


def invert_matrix(mat):
    """Exact inverse of a square rational matrix (tuple of row tuples)."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def solve_linear(mat, rhs):
    """Exact solution x of x . mat = rhs for square mat (rows convention)."""
    inv = invert_matrix(mat)
    cols = list(zip(*inv))
    return tuple(_dot(rhs, col) for col in cols)


def _span_coefficients(basis, vector):
    """Real coefficients x with x.B equal to the projection of vector onto span(B)."""
    v = as_fraction_vector(vector, basis.ambient)
    if basis.rank == 0:
        return ()
    rhs = tuple(_dot(v, row) for row in basis.rows)
    return solve_linear(basis.gram, rhs)


def lattice_coefficients(basis, vector):
    """Integer coefficients of vector in the basis, or None if not a lattice point."""
    v = as_fraction_vector(vector, basis.ambient)
    coeffs = _span_coefficients(basis, v)
    if any(c.denominator != 1 for c in coeffs):
        return None
    ints = tuple(int(c) for c in coeffs)
    return ints if basis.vector(ints) == v else None


def project_away_from_prefix(basis, k, vector):
    """Project vector orthogonally to span(b_1..b_k)."""
    v = as_fraction_vector(vector, basis.ambient)
    gs = basis.gram_schmidt
    for w, s in zip(gs.orthogonal[:k], gs.sqnorms[:k]):
        v = _sub_scaled(v, w, _dot(v, w) / s)
    return v


def project_onto_prefix(basis, k, vector):
    """Project vector onto span(b_1..b_k)."""
    v = as_fraction_vector(vector, basis.ambient)
    away = project_away_from_prefix(basis, k, v)
    return tuple(a - b for a, b in zip(v, away))


def project_lattice(basis, k):
    """The rank n-k lattice obtained by projecting away span(b_1..b_k).

    The i-th row of the result is the projection of b_{k+i}; coefficient
    vectors therefore transfer one-to-one between the projected basis and the
    tail rows of the original.
    """
    if not 0 <= k <= basis.rank:
        raise ValueError(f"projection index must lie in [0, {basis.rank}]")
    rows = [project_away_from_prefix(basis, k, basis.rows[i]) for i in range(k, basis.rank)]
    return LatticeBasis(rows, ambient=basis.ambient)


def nearest_plane(basis, target):
    """Babai's nearest-plane point and its coefficients, computed exactly.

    Rounds half-integer Gram-Schmidt coordinates to even, which makes the
    output deterministic; the squared error is at most sum(||b*_i||^2)/4.
    """
    t = as_fraction_vector(target, basis.ambient)
    coeffs = _babai_prefix(basis, basis.rank, t)
    return basis.vector(coeffs), coeffs


def _babai_prefix(basis, k, target):
    """Nearest-plane coefficients over the first k basis rows.

    The prefix shares its Gram-Schmidt data with the full basis, and only
    the components of the target inside the prefix span influence the
    rounding, so no explicit projection is needed.
    """
    gs = basis.gram_schmidt
    coeffs = [0] * k
    residual = target
    for i in range(k - 1, -1, -1):
        c = round(_dot(residual, gs.orthogonal[i]) / gs.sqnorms[i])
        coeffs[i] = c
        if c:
            residual = _sub_scaled(residual, basis.rows[i], c)
    return tuple(coeffs)


def sqnorm(v):
    return _dot(v, v)


def sqdist(u, v):
    return sqnorm(tuple(a - b for a, b in zip(u, v)))


def parse_basis(text):
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise ValueError("basis text must start with 'rank ambient'")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != n * m:
        raise ValueError(f"expected {n * m} entries for a {n} x {m} basis, got {len(body)}")
    rows = [[parse_fraction(body[i * m + j]) for j in range(m)] for i in range(n)]
    return LatticeBasis(rows, ambient=m)


def format_basis(basis):
    lines = [f"{basis.rank} {basis.ambient}"]
    for row in basis.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def read_basis(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_basis(fh.read())


def write_basis(path, basis):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_basis(basis))
