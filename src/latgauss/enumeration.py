"""Lattice point enumeration and the exact solvers built on it.

One private core, _points_within, answers the ball, the shortest vector, the
closest vector and the sparsify ball count. It moves a nonzero centre t to its
exact nearest-plane residual t - y, so float work only sees a small centre
whatever the size of t. The search walks coefficient space depth-first in
Schnorr-Euchner zigzag order using float64 Gram-Schmidt data, with a small
relative slack on the pruning bound so rounding can only over-include; the
bound is the in-span part of the squared radius (the centre's off-span square
is taken off exactly), stays fixed for a ball and shrinks to each candidate
for a nearest-point query. Every candidate is scored as an exact integer
after denominators are cleared and cut at the exact squared radius, then y's
coefficients are added back, which keeps the lexicographic order. The
returned point sets, shortest vectors and closest vectors are therefore exact.
A node budget guards against runaway trees.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from ._validation import as_fraction, as_fraction_vector, as_integer, check_count
from .lattice import (
    LatticeBasis,
    _clear,
    _round_half_even,
    nearest_plane,
    project_lattice,
    sqnorm,
)

# relative slack applied to float pruning bounds; desk-scale float error is
# ~1e-10 relative, so this only admits extra candidates for the exact filter
SLACK = 1e-6
ABS_SLACK = 1e-9

# node budget of one search; the environment variable LATGAUSS_BUDGET
# replaces it for a whole run
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, nodes, budget):
        super().__init__(
            f"enumeration visited {nodes} nodes, exceeding the budget of {budget}; "
            "raise LATGAUSS_BUDGET if this is intended"
        )
        self.nodes = nodes
        self.budget = budget


def _search(mu, bstar2, tau, bound, budget, emit):
    """DFS over coefficient space.

    mu[i][j] (j < i) are float Gram-Schmidt coefficients, bstar2 the squared
    orthogonal norms, tau the center's Gram-Schmidt coordinates. emit is
    called with (coeff list, float in-span sqdist) for complete assignments
    inside bound[0] and may tighten bound[0] in place. Returns the node count.
    """
    n = len(bstar2)
    if n == 0:
        emit([], 0.0)
        return 0
    x = [0] * n
    x0 = [0] * n
    sgn = [1] * n
    off = [0] * n
    center = [0.0] * n
    part = [0.0] * (n + 1)
    nodes = 0

    def reset(i):
        acc = tau[i]
        mi = mu[i]
        for j in range(i + 1, n):
            acc -= mi[j] * x[j]
        center[i] = acc
        x[i] = int(round(acc))
        x0[i] = x[i]
        sgn[i] = 1 if acc >= x[i] else -1
        off[i] = 0

    def advance(i):
        o = off[i]
        if o == 0:
            o = sgn[i]
        elif (o > 0) == (sgn[i] > 0):
            o = -o
        else:
            o = -o + sgn[i]
        off[i] = o
        x[i] = x0[i] + o

    i = n - 1
    reset(i)
    while True:
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(nodes, budget)
        diff = x[i] - center[i]
        p = part[i + 1] + diff * diff * bstar2[i]
        if p <= bound[0]:
            if i == 0:
                emit(x, p)
                advance(0)
            else:
                part[i] = p
                i -= 1
                reset(i)
        else:
            # zigzag order is monotone in the level contribution, so the
            # first failure exhausts the level
            i += 1
            if i == n:
                return nodes
            advance(i)


def _prepare(basis, d, center_int):
    """Integer rows over d, a multiple of the basis denominator, and the float
    search data for the centre cleared over d, read from the basis frame.

    The b*_i are orthogonal, so the centre's coordinates need no running
    residual, and its off-span square is <C, P> / D_{n-1} for the frame
    projection P of the integer centre C, kept exact so that the float
    search only sees the in-span part of the bound.
    """
    f = basis._frame
    n = basis.rank
    k = d // f.d
    rows_int = f.rows if k == 1 else tuple(tuple(x * k for x in r) for r in f.rows)
    bstar2 = [det * k * k / f.det(i - 1) for i, det in enumerate(f.dets)]
    tau = [sum(map(mul, center_int, w)) / (k * det) for w, det in zip(f.w, f.dets)]
    perp = 0
    if n < basis.ambient:  # a full-rank basis spans every centre
        perp = Fraction(sum(map(mul, center_int, f.project(n, center_int))), f.det(n - 1))
    return rows_int, f.float_mu, bstar2, tau, perp


def _fits_int64(coeffs, rows_int, center_int):
    """Whether no intermediate of _int64_sqdists can overflow int64."""
    n, m = coeffs.shape[1], len(center_int)
    max_b = max((abs(v) for row in rows_int for v in row), default=0)
    max_c = int(np.abs(coeffs).max()) if coeffs.size else 0
    max_t = max((abs(v) for v in center_int), default=0)
    coord_bound = n * max_c * max_b + max_t
    return m * coord_bound * coord_bound < 2 ** 62


def _int64_sqdists(coeffs, rows_int, center_int):
    """Squared distances in int64, for arguments that pass _fits_int64."""
    k, n = coeffs.shape
    m = len(center_int)
    b_arr = np.array(rows_int, dtype=np.int64).reshape(n, m)
    pts = coeffs @ b_arr if n else np.zeros((k, m), dtype=np.int64)
    diff = pts - np.array(center_int, dtype=np.int64)
    return np.einsum("ij,ij->i", diff, diff)


def _exact_sqdists(coeffs, rows_int, center_int):
    """Exact scaled squared distances for a (K, n) int coefficient array.

    int64 when no intermediate can overflow, Python integers (object)
    otherwise. Past int64, the common factor g of every row and centre entry
    is divided out, the quotients are scored (in int64 when they fit) and the
    scores are multiplied by g^2 as Python integers: the same integers.
    """
    if _fits_int64(coeffs, rows_int, center_int):
        return _int64_sqdists(coeffs, rows_int, center_int)
    g = 0
    for row in (center_int, *rows_int):
        g = math.gcd(g, *row)
        if g == 1:  # the usual case past int64; stop scanning
            break
    if g > 1:
        rows_int = tuple(tuple(v // g for v in row) for row in rows_int)
        center_int = tuple(v // g for v in center_int)
        if _fits_int64(coeffs, rows_int, center_int):
            return _int64_sqdists(coeffs, rows_int, center_int).astype(object) * (g * g)
    # big-integer fallback
    n, m = coeffs.shape[1], len(center_int)
    out = []
    cols = list(zip(*rows_int)) if n else [()] * m
    for row in coeffs.tolist():
        acc = 0
        for j in range(m):
            v = sum(c * b for c, b in zip(row, cols[j])) - center_int[j]
            acc += v * v
        out.append(acc)
    out = np.array(out, dtype=object)
    return out * (g * g) if g > 1 else out


def _float_points(basis, coeffs):
    """Float64 coordinates of the points with integer coefficient rows coeffs."""
    return coeffs.astype(np.float64) @ basis.float_rows


@dataclass
class BallPoints:
    """All lattice points within an exact radius of a center.

    sqdist of point i is scaled_sqdist[i] / scale_sq as an exact rational.
    """

    basis: LatticeBasis
    center: tuple
    coeffs: np.ndarray
    scaled_sqdist: np.ndarray
    scale_sq: int
    nodes: int

    def __len__(self):
        return self.coeffs.shape[0]

    def points_float(self):
        return _float_points(self.basis, self.coeffs)

    def sqdists_float(self):
        return self.scaled_sqdist.astype(np.float64) / float(self.scale_sq)

    def exact_sqdist(self, i):
        return Fraction(int(self.scaled_sqdist[i]), self.scale_sq)


def _budget():
    """The node budget: LATGAUSS_BUDGET when set, else DEFAULT_BUDGET."""
    env = os.environ.get("LATGAUSS_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = env
    return check_count("LATGAUSS_BUDGET", value)


def _points_within(basis, center, sq_radius, nearest=False, nonzero=False):
    """The one exact search behind the ball, the shortest and the closest vector.

    Returns the lattice points y with ||y - center||^2 <= sq_radius (exact) as
    BallPoints. With nearest, the float bound shrinks to each candidate found,
    so the output still holds every point at the least distance but not the
    whole ball; sq_radius None then stands for the distance of the
    nearest-plane point. nonzero drops the origin.
    """
    budget = _budget()
    center = as_fraction_vector(center, basis.ambient)
    f = basis._frame
    n = basis.rank
    # cleared over d, the residual from the nearest-plane point y is
    # C - s * sum shift_i R_i with C = d * center and s = d / f.d: the
    # denominators of y divide the basis's, so d clears the residual too
    d, center_int = _clear(center, f.d)
    shift = (0,) * n
    if any(center):
        shift = nearest_plane(basis, center)[1]
        center_int = f.subtract_rows(center_int, d // f.d, shift)
    rows_int, mu, bstar2, tau, perp = _prepare(basis, d, center_int)
    r2 = sum(map(mul, center_int, center_int)) if sq_radius is None else sq_radius * d * d
    # the slack scales with the in-span radius only: a centre far off a
    # lower-rank span would otherwise widen the search by sqrt(SLACK) times
    # its off-span distance
    bound = [float(r2 - perp) * (1.0 + SLACK) + ABS_SLACK]
    found = array("q")

    def emit(x, p):
        if nonzero and not any(x):
            return
        found.extend(x)
        if nearest and p < bound[0]:
            bound[0] = p * (1.0 + SLACK) + ABS_SLACK

    nodes = _search(mu, bstar2, tau, bound, budget, emit)
    # a flat int64 buffer holds big balls at 8 bytes a coefficient; a rank-0
    # search emits the origin once
    rows = len(found) // n if n else 1
    coeffs = np.frombuffer(found, dtype=np.int64).reshape(rows, n)
    sq = _exact_sqdists(coeffs, rows_int, center_int)
    keep = sq <= r2.numerator // r2.denominator
    coeffs, sq = coeffs[keep], sq[keep]
    if len(coeffs) and n:
        order = np.lexsort(coeffs.T[::-1])
        coeffs, sq = coeffs[order], sq[order]
    if any(shift):
        # translation keeps the lexicographic order; object past int64
        big = max(abs(c) for c in shift) >= 2 ** 62
        coeffs = coeffs + np.array(shift, dtype=object if big else np.int64)
    return BallPoints(basis, center, coeffs, sq, d * d, nodes)


def _radius_sq(radius):
    r = as_fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return r * r


def enumerate_ball(basis, center, radius):
    """Exactly the lattice points y with ||y - center|| <= radius.

    radius may be a float or Fraction; the boundary is included exactly.
    Output coefficients are sorted lexicographically.
    """
    return _points_within(basis, center, _radius_sq(radius))


def _nearest(ball):
    """(vector, coeffs, sqdist) of the closest ball point, least coeffs on ties."""
    sq = ball.scaled_sqdist.tolist()
    i = sq.index(min(sq))
    coeffs = tuple(ball.coeffs[i].tolist())
    return ball.basis.vector(coeffs), coeffs, ball.exact_sqdist(i)


def shortest_vector(basis):
    """A shortest nonzero lattice vector, ties broken by smallest coefficients.

    Returns (vector, coeffs, sqnorm) with exact entries.
    """
    if basis.rank == 0:
        raise ValueError("the zero lattice has no nonzero vector")
    start = min(sqnorm(row) for row in basis.rows)
    return _nearest(_points_within(basis, (0,) * basis.ambient, start,
                                   nearest=True, nonzero=True))


def closest_vector(basis, target):
    """The exact closest lattice vector to target (full CVP by enumeration).

    Returns (vector, coeffs, sqdist) with exact entries. Ties broken by
    lexicographically smallest coefficient vector.
    """
    return _nearest(_points_within(basis, target, None, nearest=True))


def lambda1(basis):
    """Exact squared length of the shortest nonzero vector."""
    return shortest_vector(basis)[2]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def complete_to_unimodular(a):
    """An integer matrix with determinant +-1 whose first row is a.

    Requires gcd(a) = 1. The 2x2 gcd column steps that reduce a to e_1
    multiply to a matrix C with a C = e_1, so the answer is C^-1; it is
    built from the identity by applying the inverse of each step, in order,
    as a row step.
    """
    a = [int(v) for v in a]
    n = len(a)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if a[i] == 0:
            continue
        g, u, v = _xgcd(a[0], a[i])
        p, q = a[0] // g, a[i] // g
        r0, ri = m[0], m[i]
        m[0] = [p * x + q * y for x, y in zip(r0, ri)]
        m[i] = [u * y - v * x for x, y in zip(r0, ri)]
        a[0], a[i] = g, 0
    if a[0] == -1:
        m[0] = [-x for x in m[0]]
        a[0] = 1
    if a[0] != 1:
        raise ValueError("coefficient vector is not primitive")
    return m


def _size_reduce(basis):
    """Make |mu_ij| <= 1/2 by integer row operations (exact).

    Row operations leave every b*_j unchanged, so mu_ij = <R_i, W_j> / D_j is
    read from the current integer row i and the frame of the input, and the
    result keeps that frame's W and D.
    """
    f = basis._frame
    rows = list(f.rows)
    for i in range(1, len(rows)):
        for j in range(i - 1, -1, -1):
            c = _round_half_even(sum(map(mul, rows[i], f.w[j])), f.dets[j])
            if c:
                rows[i] = tuple(a - c * b for a, b in zip(rows[i], rows[j]))
    return LatticeBasis._from_frame(f.with_rows(rows), basis.ambient)


def hkz_reduce(basis, svp=None):
    """A Hermite-Korkine-Zolotarev reduced basis of the same lattice.

    b*_k is a shortest vector of the k-th projected lattice for every k, and
    the result is size-reduced. svp, when given, maps a LatticeBasis to the
    coefficient vector of a short vector; plugging in an approximate solver
    yields the relaxed (factor-g) variant with identical bookkeeping. A
    coefficient without an integer value, or a count other than the
    projected rank, raises ValueError.
    """
    if svp is None:
        svp = lambda b: shortest_vector(b)[1]
    f = basis._frame
    for k in range(basis.rank - 1):
        work = LatticeBasis._from_frame(f, basis.ambient)
        coeffs = [as_integer(v) for v in svp(project_lattice(work, k))]
        if len(coeffs) != basis.rank - k:
            raise ValueError(f"svp returned {len(coeffs)} coefficients for rank {basis.rank - k}")
        g = math.gcd(*coeffs)
        if g > 1:
            coeffs = [v // g for v in coeffs]
        cols = tuple(zip(*f.rows[k:]))
        f = f.with_tail(k, [tuple(sum(map(mul, u, col)) for col in cols)
                            for u in complete_to_unimodular(coeffs)])
    return _size_reduce(LatticeBasis._from_frame(f, basis.ambient))
