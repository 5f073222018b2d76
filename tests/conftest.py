"""Shared helpers: a brute-force closest-vector oracle over a coefficient box,
and rational reference routines for the integer Gram-Schmidt frame."""

import itertools
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# more examples for the exact-integer layers: pytest --hypothesis-profile thorough
settings.register_profile("thorough", settings.get_profile("suite"), max_examples=200)
settings.load_profile("suite")


def box_cvp(basis, target, bound):
    """Exact minimum squared distance and the set of optimal coefficient tuples.

    Scans every integer coefficient vector with entries in [-bound, bound],
    so it is only trustworthy when the true optimum lies inside that box.
    """
    target = tuple(Fraction(x) for x in target)
    best = None
    argmin = set()
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=basis.rank):
        vec = basis.vector(coeffs)
        sq = sum((a - b) ** 2 for a, b in zip(vec, target))
        if best is None or sq < best:
            best, argmin = sq, {coeffs}
        elif sq == best:
            argmin.add(coeffs)
    return best, argmin


def frac_vector(ints, den):
    return tuple(Fraction(int(v), den) for v in ints)


@st.composite
def rational_cases(draw):
    """(rows, target): a rational basis of rank <= 6 with denominators 1-16
    and a target with coordinates up to 1e15, or with a planted exact tie
    t = b_0 / 2 + (integer combination of the other rows)."""
    rank = draw(st.integers(1, 6))
    ambient = draw(st.integers(rank, 6))
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 16))
    rows = [tuple(draw(entry) for _ in range(ambient)) for _ in range(rank)]
    if draw(st.booleans()):
        ks = [Fraction(1, 2)] + [draw(st.integers(-3, 3)) for _ in range(rank - 1)]
        target = tuple(sum((k * r[j] for k, r in zip(ks, rows)), Fraction(0))
                       for j in range(ambient))
    else:
        coord = st.builds(Fraction, st.integers(-10**15, 10**15), st.integers(1, 16))
        target = tuple(draw(coord) for _ in range(ambient))
    return rows, target


# Rational reference routines: Gram-Schmidt, nearest plane, projection and
# the matrix inverse computed step by step in Fraction arithmetic,
# independently of the library's fraction-free integer frame.

def _dot(u, v):
    acc = Fraction(0)
    for a, b in zip(u, v):
        acc += a * b
    return acc


def _sub_scaled(u, v, c):
    return tuple(a - c * b for a, b in zip(u, v))


def reference_gram_schmidt(rows):
    """(orthogonal rows, mu, squared norms) of the rows."""
    ortho, mu, sq = [], [], []
    for b in rows:
        coeffs = []
        cur = tuple(b)
        for w, s in zip(ortho, sq):
            m = _dot(b, w) / s if s else Fraction(0)
            coeffs.append(m)
            cur = _sub_scaled(cur, w, m)
        ortho.append(cur)
        mu.append(tuple(coeffs))
        sq.append(_dot(cur, cur))
    return tuple(ortho), tuple(mu), tuple(sq)


def reference_babai_prefix(rows, k, target):
    """Nearest-plane coefficients over the first k rows, ties to even."""
    ortho, _, sq = reference_gram_schmidt(rows)
    coeffs = [0] * k
    residual = tuple(Fraction(x) for x in target)
    for i in range(k - 1, -1, -1):
        c = round(_dot(residual, ortho[i]) / sq[i])
        coeffs[i] = c
        if c:
            residual = _sub_scaled(residual, rows[i], c)
    return tuple(coeffs)


def reference_project_away(rows, k, vector):
    """vector projected orthogonally to the span of the first k rows."""
    ortho, _, sq = reference_gram_schmidt(rows)
    v = tuple(Fraction(x) for x in vector)
    for w, s in zip(ortho[:k], sq[:k]):
        v = _sub_scaled(v, w, _dot(v, w) / s)
    return v


def reference_inverse(mat):
    """Exact inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)
