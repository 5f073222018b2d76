"""Gaussian mass sums over lattices with certified error bars.

All series here are sums of exp(-pi ||x||^2 / s^2) over lattice points. Each
truncated sum is paired with a tail bound of the form
rho_s({x in L + c : ||x|| >= t * s * sqrt(n / 2pi)}) <= q(t) * rho_s(L) with
q(t) = exp(-(n/2) (t-1)^2) for t >= 1, which makes every reported value a
two-sided enclosure rather than an estimate. Accumulation runs in extended
precision (np.longdouble) over exactly enumerated point sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._validation import as_float_vector, as_fraction_vector, check_count, check_eps, check_positive
from .enumeration import _float_points, _points_within, enumerate_ball, lambda1
from .lattice import LatticeBasis, lattice_coefficients, project_away_from_prefix, sqnorm
from .rng import stream

_PI = math.pi
_SQRT_PI = math.sqrt(math.pi)
_LD = np.longdouble


def _tail_factor(n, t):
    """q with tail mass <= q * rho_s(L) outside radius t*s*sqrt(n/2pi), t >= 1."""
    if t <= 1.0:
        return 1.0
    return math.exp(-0.5 * n * (t - 1.0) ** 2)


def _radius_for(n, s, q):
    """Enumeration radius whose Gaussian tail factor is at most q."""
    t = 1.0 + math.sqrt(2.0 * math.log(1.0 / q) / n)
    return t * s * math.sqrt(n / (2.0 * _PI))


def _scaled_sqdists(ball):
    """The ball's scaled squared distances in extended precision.

    The big-integer (object) fallback of enumerate_ball goes through float64.
    """
    sq = ball.scaled_sqdist
    if sq.dtype == object:
        sq = np.array([float(v) for v in sq], dtype=np.float64)
    return sq.astype(_LD)


def _ball_weights(ball, s):
    """exp(-pi sq / s^2) for every ball point, in extended precision."""
    scale = _LD(_PI) / (_LD(s) * _LD(s) * _LD(ball.scale_sq))
    return np.exp(-scale * _scaled_sqdists(ball))


@dataclass(frozen=True)
class CertifiedSum:
    """Two-sided enclosure of a Gaussian mass: lower <= true value <= upper.

    radius is the tail radius, measured inside the lattice span.
    """

    lower: float
    upper: float
    points: int
    radius: float

    @property
    def value(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def rel_width(self):
        return (self.upper - self.lower) / self.lower if self.lower > 0 else math.inf


def gaussian_mass(basis, s=1.0, center=None):
    """Certified rho_s(L + center) = sum over y in L of exp(-pi||y+center||^2/s^2).

    The tail cut leaves out at most 5e-13 of the centered mass rho_s(L); for
    centers deep outside the lattice the enclosure is still correct but its
    relative width is measured against that larger scale.
    """
    s = check_positive("s", s)
    n = basis.rank
    if center is None:
        center = (0,) * basis.ambient
    center = as_fraction_vector(center, basis.ambient)
    if n == 0:
        v = math.exp(-_PI * float(sum(x * x for x in center)) / (s * s))
        return CertifiedSum(v, v, 1, 0.0)
    q = 5e-13
    radius = _radius_for(n, s, q)
    shifted = any(center) and lattice_coefficients(basis, center) is None
    if shifted:
        # tail of the shifted sum is bounded by the centered mass, so pin
        # that down first
        base = gaussian_mass(basis, s)
    # the tail radius applies inside the span; the centre's off-span square
    # is added exactly
    sq_radius = Fraction(radius) ** 2 + sqnorm(project_away_from_prefix(basis, n, center))
    ball = _points_within(basis, tuple(-x for x in center), sq_radius)
    partial = float(_ball_weights(ball, s).sum())
    if shifted:
        upper = partial + q * base.upper
    else:
        upper = partial / (1.0 - q)
    return CertifiedSum(partial, upper, len(ball), radius)


def periodic_gaussian_interval(basis, t, s=1.0):
    """Enclosure of f_s(t) = rho_s(L + t) / rho_s(L) from two primal sums."""
    num = gaussian_mass(basis, s, t)
    den = gaussian_mass(basis, s)
    return num.lower / den.upper, num.upper / den.lower


class PeriodicGaussian:
    """Evaluator for f_s(t) = rho_s(L+t)/rho_s(L) and its derivatives.

    Works on the Fourier side: f_s(t) = sum over w in the dual lattice of
    rho_{1/s}(w) cos(2 pi <w, t>), normalized by rho_{1/s}(L*). The dual ball
    that carries all but a q-fraction of the mass is enumerated once at
    construction, with q = 5e-10; evaluations are then vectorized cosine sums. f_err,
    grad_err, and hess_err are absolute error bounds valid for every t.
    """

    def __init__(self, basis, s=1.0):
        self.basis = basis
        self.s = s = check_positive("s", s)
        n = basis.rank
        if n == 0:
            raise ValueError("rank-0 lattice has a constant density")
        dual = basis.dual
        u = 1.0 / s
        q = 5e-10
        radius = _radius_for(n, u, q)
        ball = enumerate_ball(dual, (0,) * basis.ambient, radius)
        w_ld = _ball_weights(ball, u)
        den = float(w_ld.sum())
        self.points = len(ball)
        self.radius = radius
        self.denominator = CertifiedSum(den, den / (1.0 - q), self.points, radius)

        self._w = ball.points_float()
        self._weights = (w_ld / _LD(den)).astype(np.float64)
        norms = np.sqrt(ball.sqdists_float())
        w1 = float((w_ld * norms.astype(_LD)).sum()) / den
        w2 = float((w_ld * (norms * norms).astype(_LD)).sum()) / den

        # weighted tails: ||w||^k rho_u(w) <= C_k rho_u'(w) with u' = 1.05 u
        up = 1.05 * u
        delta = 1.0 / (u * u) - 1.0 / (up * up)
        t_up = radius / (up * math.sqrt(n / (2.0 * _PI)))
        qp = _tail_factor(n, t_up)
        den_up = float(_ball_weights(ball, up).sum()) / (1.0 - qp)
        c1 = 1.0 / math.sqrt(2.0 * _PI * delta * math.e)
        c2 = 1.0 / (_PI * delta * math.e)
        t0 = q * self.denominator.upper
        t1 = c1 * qp * den_up
        t2 = c2 * qp * den_up
        self.f_err = 2.0 * t0
        self.grad_err = 2.0 * _PI * (t1 + w1 * t0)
        self.hess_err = 4.0 * _PI * _PI * (t2 + w2 * t0)

    def _phases(self, t):
        t = as_float_vector(t, self.basis.ambient)
        return 2.0 * _PI * (self._w @ t)

    def f(self, t):
        return float(self._weights @ np.cos(self._phases(t)))

    def grad(self, t):
        sins = self._weights * np.sin(self._phases(t))
        return -2.0 * _PI * (self._w.T @ sins)

    def hessian(self, t):
        coss = self._weights * np.cos(self._phases(t))
        return -4.0 * _PI * _PI * ((self._w * coss[:, None]).T @ self._w)

    def f_batch(self, ts):
        ts = np.asarray(ts, dtype=np.float64)
        return np.cos(2.0 * _PI * (ts @ self._w.T)) @ self._weights


@dataclass(frozen=True)
class SmoothingResult:
    """Bisection output: lower <= eta_eps(L) <= upper."""

    value: float
    lower: float
    upper: float
    eps: float
    dual_points: int

    @property
    def rel_width(self):
        return (self.upper - self.lower) / self.value


def smoothing_parameter(basis, eps):
    """eta_eps(L): the width s at which rho_{1/s}(L* minus 0) equals eps.

    Brackets come from the shortest dual vector, the dual ball is enumerated
    once at the widest width and reweighted per bisection step, and the
    bracket shrinks until its relative width is below 1e-10.
    """
    eps = check_eps(eps)
    if basis.rank == 0:
        raise ValueError("rank-0 lattice has no smoothing parameter")
    n = basis.rank
    dual = basis.dual
    lam = math.sqrt(float(lambda1(dual)))
    lo = math.sqrt(math.log(2.0 / eps) / _PI) / lam
    hi = (math.sqrt(n / (2.0 * _PI)) + math.sqrt(math.log((1.0 + eps) / eps) / _PI)) / lam
    lo *= 1.0 - 1e-12
    hi *= 1.0 + 1e-12
    if lo >= hi:
        lo = 0.5 * hi

    # one ball at the widest Gaussian serves every bisection query
    q = min(eps * 1e-12, 2.0 ** -30)
    radius = _radius_for(n, 1.0 / lo, q)
    ball = enumerate_ball(dual, (0,) * basis.ambient, radius)
    sq = _scaled_sqdists(ball)
    nonzero = sq > 0
    sq = sq[nonzero]
    scale_sq = _LD(ball.scale_sq)

    def mass_nonzero(s):
        return float(np.exp(-(_LD(_PI) * _LD(s) * _LD(s) / scale_sq) * sq).sum())

    if not mass_nonzero(lo) >= eps >= mass_nonzero(hi):
        raise RuntimeError("smoothing bracket failed; lattice data may be degenerate")
    while (hi - lo) / hi > 1e-10:
        mid = 0.5 * (lo + hi)
        partial = mass_nonzero(mid)
        tail = q * (1.0 + partial) / (1.0 - q)
        if partial >= eps:
            lo = mid
        elif partial + tail < eps:
            hi = mid
        else:
            # the truncation tail straddles eps; the bracket is already
            # within the certified resolution
            break
    return SmoothingResult(0.5 * (lo + hi), lo, hi, eps, len(ball))


def decoding_width(eps):
    """(s_eps, delta_max) giving the decoding radius delta_max * s_eps.

    s_eps = sqrt(ln(2(1+eps)/eps)/pi) and delta_max = 1/2 - 2/(pi s_eps^2);
    delta_max is positive only for eps below about 0.038.
    """
    eps = check_eps(eps)
    s = math.sqrt(math.log(2.0 * (1.0 + eps) / eps) / _PI)
    dmax = 0.5 - 2.0 / (_PI * s * s)
    return s, dmax


def density_envelope(dist, eps):
    """(lower, upper) bounds on f at distance dist from the lattice.

    The lower bound exp(-pi dist^2) holds for every full-rank lattice. The
    upper bound holds for lattices normalized so the total Gaussian mass is
    1 + eps (equivalently, scaled by the smoothing parameter of the dual):

        rho(d) (1/(1+eps) + eps/(1+eps) cosh(2 pi s_eps d))
            + 2 pi d int_{s_eps-d}^{s_eps+d} exp(-pi z^2) dz.
    """
    eps = check_eps(eps)
    d = float(dist)
    if d < 0:
        raise ValueError(f"distance must be nonnegative, got {d}")
    s_eps = decoding_width(eps)[0]
    lower = math.exp(-_PI * d * d)
    window = 0.5 * (math.erf(_SQRT_PI * (s_eps + d)) - math.erf(_SQRT_PI * (s_eps - d)))
    upper = lower * (1.0 + eps * math.cosh(2.0 * _PI * s_eps * d)) / (1.0 + eps)
    upper += 2.0 * _PI * d * window
    return lower, upper


@dataclass
class GaussianSamples:
    """Exact draws from the discrete Gaussian D_{L,s} as coefficient rows.

    mass_covered is a lower bound on the probability mass of the support the
    sampler actually used; everything inside that support has exactly the
    right conditional distribution.
    """

    basis: LatticeBasis
    s: float
    coeffs: np.ndarray
    mass_covered: float
    method: str

    def __len__(self):
        return self.coeffs.shape[0]

    def vectors_float(self):
        return _float_points(self.basis, self.coeffs)


def _orthogonal_rows(basis):
    g = basis.gram
    n = basis.rank
    return all(g[i][j] == 0 for i in range(n) for j in range(i + 1, n))


# cells of [0, 1) in the inverse-CDF table; a draw whose cell holds no cdf
# value is settled by one lookup
_CDF_CELLS = 4096
_CDF_EDGES = np.arange(_CDF_CELLS + 1) / _CDF_CELLS


def _inverse_cdf(rng, p, count):
    """count indices drawn with probabilities p, equal to
    rng.choice(len(p), size=count, p=p) index for index.

    Like Generator.choice, it takes u = rng.random(count) and returns
    #{cdf <= u} for the cumulative sums of p scaled to end at 1. The cell
    floor(4096 u) of each u is exact, and a cell with no cdf value inside
    settles every u in it from the table; only the u in the other cells are
    binary-searched.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    lo = cdf.searchsorted(_CDF_EDGES[:-1], side="right")
    hi = cdf.searchsorted(_CDF_EDGES[1:], side="left")
    table = np.where(lo == hi, lo, -1)
    u = rng.random(count)
    idx = table[(u * _CDF_CELLS).astype(np.intp)]
    slow = np.flatnonzero(idx < 0)
    idx[slow] = cdf.searchsorted(u[slow], side="right")
    return idx


def sample_lattice_gaussian(basis, s=1.0, count=1, rng=None):
    """Draw count points from D_{L,s}, proportional to exp(-pi||y||^2/s^2).

    Orthogonal bases factor into independent one-dimensional integer
    Gaussians per coordinate; otherwise the full ball carrying all but
    ~2^-44 of the mass is tabulated, which is only practical in low rank.
    Both draw their indices by one inverse-CDF pass (_inverse_cdf), which
    gives Generator.choice's draws bit for bit. rng defaults to stream(0).
    """
    s = check_positive("s", s)
    count = check_count("count", count)
    if rng is None:
        rng = stream(0)
    n = basis.rank
    if n == 0:
        return GaussianSamples(basis, s, np.zeros((count, 0), dtype=np.int64), 1.0, "trivial")

    if _orthogonal_rows(basis):
        qf = 2.0 ** -48
        t1 = 1.0 + math.sqrt(2.0 * math.log(1.0 / qf))
        cols = np.empty((count, n), dtype=np.int64)
        mass = 1.0
        for i in range(n):
            sigma = s / math.sqrt(float(basis.gram[i][i]))
            j = max(1, math.ceil(t1 * sigma / math.sqrt(2.0 * _PI)))
            support = np.arange(-j, j + 1)
            w = np.exp(-(_PI / (sigma * sigma)) * support.astype(_LD) ** 2)
            p = (w / w.sum()).astype(np.float64)
            cols[:, i] = _inverse_cdf(rng, p / p.sum(), count) - j
            q1 = _tail_factor(1, j * math.sqrt(2.0 * _PI) / sigma)
            mass *= 1.0 - q1 / (1.0 - q1)
        return GaussianSamples(basis, s, cols, mass, "product")

    q = 2.0 ** -44
    radius = _radius_for(n, s, q)
    ball = enumerate_ball(basis, (0,) * basis.ambient, radius)
    w = _ball_weights(ball, s)
    p = (w / w.sum()).astype(np.float64)
    idx = _inverse_cdf(rng, p / p.sum(), count)
    return GaussianSamples(basis, s, ball.coeffs[idx], 1.0 - q / (1.0 - q), "table")
