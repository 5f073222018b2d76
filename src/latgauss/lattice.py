"""Exact lattice bases and the exact linear algebra built on them.

A lattice is presented as a basis whose rows generate it. Every basis carries
one fraction-free integer frame (_Frame): its rows cleared to integers over
one common denominator, and their Gram-Schmidt data scaled to integers by the
leading Gram determinants (Bareiss 1968; de Weger 1987). Every exact solve
reads that frame: Gram-Schmidt, projections and Babai rounding directly, the
dual by back-substitution, and span coefficients and membership from the
dual's frame. All of it runs on Python integers, with fractions.Fraction only
at the boundary, so downstream certificates can treat equalities and
comparisons as exact. Floating point enters only through the cached float64
image of a basis, which the enumeration and Gaussian layers use for speed and
always back with an exact check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from ._validation import as_fraction_matrix, as_fraction_vector, as_integer, parse_fraction

# one shared Fraction per integer in -256..256: lattice vectors are often
# kept in bulk, and most coordinates of short vectors are small integers
_SMALL = tuple(Fraction(i) for i in range(-256, 257))
ZERO = _SMALL[256]


def _fraction(num, den):
    """Fraction(num, den), shared for zero and for small integer values."""
    if -256 <= num <= 256 and (den == 1 or num == 0):
        return _SMALL[num + 256]
    return Fraction(num, den)


def _clear(vector, d):
    """(L, T): L = lcm(d, denominators of vector) and the integer vector T = L * vector."""
    big = math.lcm(d, *(x.denominator for x in vector))
    return big, [x.numerator * (big // x.denominator) for x in vector]


def _round_half_even(num, den):
    """num / den rounded to the nearest integer, ties to even (den > 0)."""
    q, r = divmod(2 * num + den, 2 * den)
    return q - 1 if r == 0 and q & 1 else q


class _Frame:
    """Fraction-free Gram-Schmidt of the rows R = d * B, d the common denominator.

    With D_i = det Gram(R_0..R_i) (D_-1 = 1) and r*_i the Gram-Schmidt rows
    of R, every W_i = D_{i-1} r*_i is an integer vector, built by the
    exact-division recurrence P_{j+1} = (D_j P_j - <v, W_j> W_j) / D_{j-1}
    from P_0 = v = R_i. Then b*_i = W_i / (d D_{i-1}),
    ||b*_i||^2 = D_i / (d^2 D_{i-1}) and mu_ij = <R_i, W_j> / D_j. A zero
    D_i means row i depends on the rows before it.
    """

    def __init__(self, rows, d):
        self.d = d
        self.rows = tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows)
        self.w, self.dets = [], []
        for v in self.rows:
            p = self.project(len(self.w), v)
            det = sum(map(mul, v, p))
            if det == 0:
                raise ValueError("basis rows are linearly dependent")
            self.w.append(p)
            self.dets.append(det)

    def det(self, i):
        """D_i, with D_-1 = 1."""
        return self.dets[i] if i >= 0 else 1

    def projections(self, k, v):
        """[P_0, ..., P_k]: P_j is D_{j-1} times the integer vector v projected
        away from R_0..R_{j-1}, each from the one before it."""
        out = [v]
        p, prev = v, 1
        for w, det in zip(self.w[:k], self.dets):
            g = sum(map(mul, v, w))
            p = tuple((det * a - g * b) // prev for a, b in zip(p, w))
            prev = det
            out.append(p)
        return out

    def project(self, k, v):
        """D_{k-1} times the integer vector v projected away from R_0..R_{k-1}."""
        return self.projections(k, v)[-1]

    def subtract_rows(self, t, s, coeffs, start=0):
        """t - s * sum_j coeffs[j] R_{start+j} for integer coefficients: a
        lattice vector taken off an integer vector t = L x, with s = L / d."""
        for c, row in zip(coeffs, self.rows[start:]):
            if c:
                step = c * s
                t = [a - step * b for a, b in zip(t, row)]
        return t

    def mu_num(self, i, j):
        """<R_i, W_j>, the numerator of mu_ij over D_j."""
        return sum(map(mul, self.rows[i], self.w[j]))

    @cached_property
    def float_mu(self):
        """Float mu transposed: row i holds mu_ji for j > i (zero elsewhere)."""
        n = len(self.w)
        return tuple(
            tuple(self.mu_num(j, i) / self.dets[i] if j > i else 0.0 for j in range(n))
            for i in range(n)
        )


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
        self.rank = len(rows)
        self.ambient = int(ambient)
        if self.rank > self.ambient:
            raise ValueError(f"{self.rank} rows cannot be independent in dimension {self.ambient}")
        # the frame is the basis's one stored form; rows are read back from it
        self._frame = _Frame(rows, math.lcm(1, *(x.denominator for r in rows for x in r)))

    def __eq__(self, other):
        return (
            isinstance(other, LatticeBasis)
            and self._frame.d == other._frame.d
            and self._frame.rows == other._frame.rows
            and self.ambient == other.ambient
        )

    def __hash__(self):
        return hash((self._frame.d, self._frame.rows, self.ambient))

    def __repr__(self):
        return f"LatticeBasis(rank={self.rank}, ambient={self.ambient})"

    @cached_property
    def rows(self):
        """The rows as tuples of exact Fractions."""
        f = self._frame
        return tuple(tuple(_fraction(x, f.d) for x in r) for r in f.rows)

    @cached_property
    def float_rows(self):
        # integer true division rounds correctly, as float(Fraction) does
        d = self._frame.d
        arr = np.array([[x / d for x in r] for r in self._frame.rows], dtype=np.float64)
        return arr.reshape(self.rank, self.ambient)

    @property
    def denominator(self):
        """The least common denominator of the entries."""
        return self._frame.d

    @cached_property
    def gram(self):
        f = self._frame
        d2 = f.d * f.d
        return tuple(tuple(Fraction(sum(map(mul, a, b)), d2) for b in f.rows) for a in f.rows)

    @cached_property
    def gram_det(self):
        """det(B B^T), the squared covolume: D_{n-1} / d^(2n) on the frame."""
        f = self._frame
        return Fraction(f.det(self.rank - 1), f.d ** (2 * self.rank))

    @property
    def gram_schmidt(self):
        """The exact Gram-Schmidt data, read from the frame on each access."""
        f = self._frame
        d = f.d
        return GramSchmidt(
            tuple(tuple(Fraction(x, d * f.det(i - 1)) for x in w) for i, w in enumerate(f.w)),
            tuple(tuple(Fraction(f.mu_num(i, j), f.dets[j]) for j in range(i))
                  for i in range(self.rank)),
            tuple(Fraction(f.dets[i], d * d * f.det(i - 1)) for i in range(self.rank)),
        )

    @cached_property
    def dual(self):
        """Basis of the dual lattice in the same span: <d_i, b_j> = delta_ij.

        Back-substitution on the frame, from the last row down:
        d_i = d W_i / D_i - sum_{j>i} mu_ji d_j with mu_ji = <R_j, W_i> / D_i.
        Each X_j = D_{n-1} d_j is an integer vector (D_{n-1} d_j is d times
        a row of adj(R R^T) R), so every step divides exactly.
        """
        n = self.rank
        if n == 0:
            return self
        f = self._frame
        top = f.dets[-1]
        xs = [None] * n
        for i in range(n - 1, -1, -1):
            acc = [f.d * top * x for x in f.w[i]]
            for j in range(i + 1, n):
                g = f.mu_num(j, i)
                if g:
                    acc = [a - g * b for a, b in zip(acc, xs[j])]
            xs[i] = [a // f.dets[i] for a in acc]
        return LatticeBasis(
            tuple(tuple(_fraction(x, top) for x in r) for r in xs), ambient=self.ambient
        )

    def vector(self, coeffs):
        """The exact lattice vector with the given integer coefficients.

        Raises ValueError for a coefficient without an integer value, so a
        caller-supplied solver cannot turn a non-member into a member.
        """
        if len(coeffs) != self.rank:
            raise ValueError("coefficient count must equal the rank")
        f = self._frame
        out = [0] * self.ambient
        for c, row in zip(coeffs, f.rows):
            k = as_integer(c)
            if k:
                out = [a + k * b for a, b in zip(out, row)]
        if not any(out):
            return self._origin
        return tuple(_fraction(x, f.d) for x in out)

    @cached_property
    def _origin(self):
        return (ZERO,) * self.ambient

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


def _span_coefficients(basis, vector):
    """Real coefficients x with x.B equal to the projection of vector onto span(B).

    x_i = <v, d_i> for the dual rows d_i, which lie in the span, so this holds
    for v off the span too. Over the dual's frame, with rows E = e D, it is
    <V, E_i> / (L e) for V = L v.
    """
    v = as_fraction_vector(vector, basis.ambient)
    if basis.rank == 0:
        return ()
    f = basis.dual._frame
    big, vi = _clear(v, 1)
    den = big * f.d
    return tuple(Fraction(sum(map(mul, vi, row)), den) for row in f.rows)


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
    if k == 0:
        return v
    f = basis._frame
    big, vi = _clear(v, f.d)
    den = big * f.dets[k - 1]
    return tuple(Fraction(x, den) for x in f.project(k, vi))


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
    f = basis._frame
    big, t = _clear(as_fraction_vector(target, basis.ambient), f.d)
    coeffs = _babai_prefix(f, basis.rank, t, big // f.d)[0]
    return basis.vector(coeffs), coeffs


def _babai_prefix(f, k, t, s):
    """Nearest-plane coefficients over the first k rows of frame f, and the residual.

    t is the target cleared to integers, T = L t with L = s d. The prefix
    shares its Gram-Schmidt data with the full basis, and only the
    components of the target inside the prefix span influence the rounding,
    so no explicit projection is needed. The coordinate at row i is
    <T, W_i> / (s D_i), rounded half to even, and the residual update is
    T -= c s R_i, which leaves L (t - y) for the nearest-plane point y.
    """
    coeffs = [0] * k
    for i in range(k - 1, -1, -1):
        c = _round_half_even(sum(map(mul, t, f.w[i])), s * f.dets[i])
        if c:
            coeffs[i] = c
            step = c * s
            t = [a - step * b for a, b in zip(t, f.rows[i])]
    return tuple(coeffs), t


def sqnorm(v):
    """Exact squared norm of a vector of ints and Fractions, as a Fraction."""
    d = math.lcm(1, *(x.denominator for x in v))
    return Fraction(sum((x.numerator * (d // x.denominator)) ** 2 for x in v), d * d)


def sqdist(u, v):
    """Exact squared distance of two vectors of ints and Fractions, as a Fraction."""
    d = math.lcm(1, *(x.denominator for x in u), *(x.denominator for x in v))
    return Fraction(
        sum((a.numerator * (d // a.denominator) - b.numerator * (d // b.denominator)) ** 2
            for a, b in zip(u, v)),
        d * d,
    )


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
