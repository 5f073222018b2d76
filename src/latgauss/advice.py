"""Dual-lattice sampling advice and the cosine-average density estimator.

The preprocessing stage draws vectors from the discrete Gaussian on the
dual lattice at the smoothing width. Averaging cosines over those draws
estimates the periodic Gaussian density of the primal lattice; the matching
sine average estimates its gradient. Every draw keeps its exact integer
coefficient record, and its float coordinates are derived from it, so
membership stays exact. The decoder file written by BddDecoder.save is the
only file format for advice; it reloads to a bit-identical evaluator.
"""

import math
import mmap

import numpy as np

from ._validation import as_float_vector, as_integer, check_count, check_eps, check_positive
from .enumeration import _float_points
from .gaussian import sample_lattice_gaussian, smoothing_parameter
from .rng import stream

_PI = math.pi

# the kernel walks the targets-by-advice phase matrix in tiles of at most
# _TILE_ROWS targets by _TILE_COLS draws, so that its two reused float32
# buffers stay within a 2 MiB L2 cache; the tile width also sets the
# (_TILE_COLS - 1) * 2^-24 that kernel_err charges for the float32 sums
_TILE_COLS = 4096
_TILE_ROWS = 8

# what kernel_err charges for one float32 cos or sin: numpy documents them
# within 1.5 ULP, at most 1.5 * 2^-24 for values below 1 in size
_TRIG_ERR = 2.0 ** -23

# coefficients at most this large in size are exact in float64
_EXACT_COEFF = 2 ** 53

_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


def _integer_coefficients(coeffs, rank):
    """coeffs as an N x rank int64 array; ValueError unless every entry is
    a finite integer, and unless the entries of an array of another type
    are at most 2^53 in size (_scan_coefficients checks int64 arrays)."""
    raw = np.asarray(coeffs)
    if raw.ndim != 2 or raw.shape[1] != rank:
        raise ValueError(f"coefficient array must be N x {rank}, got {raw.shape}")
    if raw.shape[0] == 0:
        raise ValueError("advice must hold at least one draw")
    if raw.dtype == np.int64:
        return raw
    if raw.dtype.kind not in "biu":
        try:
            raw = np.array([as_integer(x) for x in raw.flat], dtype=object).reshape(raw.shape)
        except (TypeError, ValueError):
            raise ValueError("advice coefficients must be finite integers") from None
    if raw.max() > _EXACT_COEFF or raw.min() < -_EXACT_COEFF:
        raise ValueError("advice coefficients must be at most 2^53 in size")
    return raw.astype(np.int64)


def _mapped_empty(shape, dtype, order="C"):
    """An uninitialized array on an anonymous memory map of its own.

    The advice arrays are the largest a process holds, and a decoder that
    replaces another frees them. malloc keeps memory freed inside its heap
    resident while blocks past it live on, where a map returns its pages to
    the system as soon as the array is freed: after the five set-ups of the
    decode-r8 benchmark, each replacing the loaded decoder, the process
    held 84 MB with mapped advice arrays against 106 MB in the heap. The
    map is private, not mmap's default shared one, and its pages are mapped
    in when it is made (_MAP_FLAGS), which fills a 221,049 x 8 int64 array
    in 3.6 ms against 9.6 ms with a fault per page.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(nbytes, 1), flags=_MAP_FLAGS)
    return np.ndarray(shape, dtype, buffer=buf, order=order)


def _scan_coefficients(coeffs):
    """(the coefficients as a column-major float32 array, S = max_i
    sum_k |c_ik|) from one pass over the int64 rows, _TILE_COLS at a time;
    ValueError unless every entry is at most 2^53 in size.

    Magnitudes are read in uint64, where the wrapped abs(-2**63) is 2**63,
    and the row sums add one column at a time, which runs faster than a
    sum along each short row.
    """
    out = _mapped_empty(coeffs.shape, np.float32, order="F")
    buf = np.empty((min(len(coeffs), _TILE_COLS), coeffs.shape[1]), dtype=np.int64)
    total = 0
    for lo in range(0, len(coeffs), _TILE_COLS):
        tile = coeffs[lo:lo + _TILE_COLS]
        mag = np.abs(tile, out=buf[:len(tile)]).view(np.uint64)
        if mag.max() > _EXACT_COEFF:
            raise ValueError("advice coefficients must be at most 2^53 in size")
        sums = mag[:, 0].copy()
        for col in mag.T[1:]:
            sums += col
        total = max(total, int(sums.max()))
        out[lo:lo + _TILE_COLS] = tile
    return out, total


def default_denom_floor(eps):
    """Guard floor eps^(1/4)/4, half the in-region lower bound on the density."""
    return 0.25 * check_eps(eps) ** 0.25


def advice_count(n, eps):
    """Sample count ceil(2 * n * ln(1/eps) / sqrt(eps)) for a rank-n lattice."""
    eps = check_eps(eps)
    n = check_count("n", n)
    return int(math.ceil(2.0 * n * math.log(1.0 / eps) / math.sqrt(eps)))


class GaussianAdvice:
    """Dual Gaussian draws and the density estimator they induce.

    coeffs rows are exact integer coordinates over basis.dual, so every
    advice vector is a dual lattice point by construction; the draws are
    taken from D_{L*,eta}, eta being the smoothing width. f(t) averages
    cos(2 pi <w_i, t>) over the draws: it is periodic over the lattice,
    equals 1 on it, and estimates the periodic Gaussian f_{1/eta}(t) =
    rho_{1/eta}(L + t) / rho_{1/eta}(L). The ascent step at that width is
    t + grad f / (2 pi eta^2 f), which step_batch takes as
    t - sum_i w_i sin(2 pi <w_i, t>) / (N eta^2 f).

    f and grad evaluate in float64 over vectors and are the reference. The
    batched f_batch and step_batch reduce each target once:
    u_k = <b*_k, t> mod 1 over the n dual rows b*_k, so that every phase
    2 pi <w_i, t> is congruent mod 2 pi to the integer combination
    sum_k c_ik 2 pi u_k. They round each 2 pi u_k to a multiple of 2^-q,
    with q set so that every such combination is exact in float32, then
    take the phases, their cos and sin and the sums over the draws in
    float32, one cache-sized tile of targets by draws at a time, and add
    the tile totals in float64; kernel_err bounds what that adds. Every sum
    runs along one target's row, so a row gets the same bits in any batch.
    The coefficients are kept once more as a column-major float32 array, so
    each coefficient column is contiguous within a tile.
    """

    def __init__(self, basis, coeffs, eps, seed, eta):
        if basis.rank == 0:
            raise ValueError("advice needs a lattice of positive rank")
        coeffs = _integer_coefficients(coeffs, basis.rank)
        self.basis = basis
        self.coeffs = coeffs
        self.eps = check_eps(eps)
        self.seed = int(seed)
        self.eta = check_positive("eta", eta)
        # S = max_i sum_k |c_ik| bounds every reduced phase by pi * S
        self._coeffs32, self._coef_sum = _scan_coefficients(coeffs)
        # the largest q with every phase numerator sum_k c_ik n_k, for
        # n_k = rint(2^q * 2 pi u_k), within 2^24 in size
        self._phase_exp = math.floor(24 - math.log2((_PI + 1) * self._coef_sum))
        dual = basis.dual.float_rows
        bmax = float(np.sqrt(np.einsum("ij,ij->i", dual, dual).max()))
        self._err_const = (
            self._coef_sum * 2.0 ** -(self._phase_exp + 1) + 2 * _TRIG_ERR
            + (min(len(self), _TILE_COLS) - 1) * 2.0 ** -24
            + (2 * _PI * self._coef_sum + len(self)) * 2.0 ** -53
        )
        self._err_slope = (
            2.0 * _PI * self._coef_sum * (basis.rank + basis.ambient + 1)
            * 2.0 ** -53 * bmax
        )

    def __len__(self):
        return self.coeffs.shape[0]

    def __repr__(self):
        return (
            f"GaussianAdvice(N={len(self)}, rank={self.basis.rank}, "
            f"eps={self.eps:g}, seed={self.seed}, eta={self.eta:g})"
        )

    @property
    def vectors(self):
        """Float64 coordinates of the draws, derived on each call from the
        coefficients by the one product the decoder's frame rows also use."""
        return _float_points(self.basis.dual, self.coeffs)

    def dual_vector(self, i):
        """Exact coordinates of the i-th draw."""
        return self.basis.dual.vector([int(c) for c in self.coeffs[i]])

    def _reference(self, t):
        """The draws and their float64 phases 2 pi <w_i, t>."""
        w = self.vectors
        return w, 2.0 * _PI * (w @ as_float_vector(t, self.basis.ambient))

    def f(self, t):
        """The estimator value: mean of cos(2 pi <w_i, t>), in [-1, 1]."""
        _, phases = self._reference(t)
        return float(np.cos(phases).mean())

    def grad(self, t):
        """Gradient -(2 pi / N) sum of w_i sin(2 pi <w_i, t>)."""
        w, phases = self._reference(t)
        return -(2.0 * _PI / len(self)) * (w.T @ np.sin(phases))

    def kernel_err(self, ts):
        """Bound on |f_batch(t) - f(t)| for each row t of ts.

        f(t) is the mean of cos(2 pi <w_i, t>) over the float64 vectors w_i,
        taken in exact arithmetic. Write c_i for the integer coefficient row
        of draw i, b*_k for the float64 dual rows, S = max_i sum_k |c_ik|,
        B = max_k ||b*_k||, u = 2^-53, m = min(N, _TILE_COLS) for the tile
        width and q = floor(24 - log2((pi + 1) * S)). The batched kernel
        departs from f in these places, and cos and sin are 1-Lipschitz:

        - w_i is the float64 product c_i B*, within rank * u * S * B of the
          exact combination in norm, so <w_i, t> differs from
          sum_k c_ik <b*_k, t> by at most rank * u * S * B * ||t||;
        - each float64 product <b*_k, t> errs by at most
          ambient * u * B * ||t||, and the integer combination of them by S
          times that. With the first term, and one more u for second-order
          terms, the phase 2 pi <w_i, t> moves by at most
          2 pi * S * (rank + ambient + 1) * u * B * ||t||: the term that
          grows with the row;
        - r_k = <b*_k, t> - rint(<b*_k, t>) is exact, in [-1/2, 1/2], and
          taking it leaves every phase unchanged mod 2 pi, as the c_ik are
          integers;
        - 2 pi r_k errs by at most 2 pi * u (the rounded constant and the
          product), so the combination over a draw's coefficients by at
          most 2 pi * S * u;
        - rounding 2 pi r_k to the nearest multiple 2^-q * n_k moves it by
          at most 2^-(q + 1), and the phase by at most S * 2^-(q + 1). As
          |n_k| <= pi * 2^q + 1/2, every partial sum of the c_ik n_k is an
          integer of size at most (pi + 1) * S * 2^q <= 2^24 once q >= 0,
          so the float32 phase products are exact in any summation order.
          When q < 0 they need not be, but then S > 2^21, and the charge
          S * 2^-(q + 1) is far more than f_batch and f, both about 1 at
          most in size, can differ by;
        - numpy's float32 cos and sin are charged _TRIG_ERR = 2 * 2^-24
          each (documented within 1.5 ULP; 1.18 * 2^-24 measured on a grid
          over [-39 pi, 39 pi]). A further _TRIG_ERR covers the
          second-order terms of the float32 sums below (under 6e-8 while
          m <= 4096);
        - the float32 sum of the cosines along one row of a tile, at most m
          terms of size at most 1, errs by at most (m - 1) * 2^-24 times
          their count in any order, so by (m - 1) * 2^-24 in the mean;
        - the tile totals add up in float64, and the mean of N terms of
          size at most 1 errs by at most N * u that way.

        At a rank-8 decoder with N = 221,049 draws (S = 39, q = 16, m = 4096)
        the bound is about 5.4e-4 near the lattice: 3.0e-4 for the phase
        rounding and 2.4e-4 for the float32 sums. That is under a tenth of
        the guard floor 7.9e-3 and a quarter of the 1/sqrt(N) = 2.1e-3
        sampling error of the estimator itself.

        The sine sums behind step_batch carry the same error per draw, so
        the gradient -(2 pi / N) sum w_i sin(2 pi <w_i, t>) that step_batch
        uses is within 2 pi * max||w|| times this bound of its exact value.
        Summing the sines over the coefficient columns in float32 adds at
        most 2 pi * m * 2^-24 * S * B, and adding the tile totals and
        mapping them through the dual rows in float64
        2 pi * (N + rank) * u * S * B (8.4e-3, 2.8e-2 and 2.8e-9 near the
        lattice at that decoder). Nothing is certified from the gradient:
        it only moves the iterate, and each output is decided by the exact
        membership check.
        """
        ts = np.atleast_2d(np.asarray(ts, dtype=np.float64))
        return self._err_const + self._err_slope * np.hypot.reduce(ts, axis=1)

    def clears_guard(self, ts, vals, floor):
        """Rows whose estimate |f| stays at or above floor after kernel_err.

        vals are the estimator values f_batch or step_batch returned for
        ts; NaN values never clear the guard.
        """
        return np.abs(vals) - self.kernel_err(ts) >= floor

    def _kernel(self, ts, grad):
        """Estimator values of the rows of ts and, when grad is set, the sums
        sum_i w_i sin(2 pi <w_i, t>); see kernel_err for the error.

        Each target is reduced once, to 2 pi u over the dual rows, and 2 pi u
        is rounded to multiples of 2^-q, so that each tile's float32 phase
        product with the coefficient columns is exact. The cosines are
        summed along each row, and the sines by one product per row with
        the coefficient columns, both in float32; the tile totals add up in
        float64, and the sine sums map to ambient coordinates at the end.
        Every reduction runs one row at a time, so a row's result does not
        depend on the batch it is in.
        """
        k = ts.shape[0]
        big = len(self)
        dual = self.basis.dual.float_rows
        u = np.matmul(ts[:, None, :], dual.T)[:, 0]
        u -= np.rint(u)
        u *= 2.0 * _PI
        scale = 2.0 ** self._phase_exp
        v = (np.rint(u * scale) / scale).astype(np.float32)
        rows, cols = min(k, _TILE_ROWS), min(big, _TILE_COLS)
        p_buf = np.empty(rows * cols, dtype=np.float32)
        t_buf = np.empty(rows * cols, dtype=np.float32)
        ones = np.ones(cols, dtype=np.float32)
        sums = np.zeros(k)
        sines = np.zeros((k, self.basis.rank)) if grad else None
        for r0 in range(0, k, rows):
            block = v[r0:r0 + rows]
            for c0 in range(0, big, cols):
                c = self._coeffs32[c0:c0 + cols]
                shape = (block.shape[0], c.shape[0])
                size = shape[0] * shape[1]
                phase = p_buf[:size].reshape(shape)
                trig = t_buf[:size].reshape(shape)
                np.matmul(block, c.T, out=phase)
                np.cos(phase, out=trig)
                sums[r0:r0 + rows] += np.matmul(trig[:, None, :], ones[:shape[1]])[:, 0]
                if grad:
                    np.sin(phase, out=trig)
                    sines[r0:r0 + rows] += np.matmul(trig[:, None, :], c)[:, 0]
        if grad:
            sines = np.matmul(sines[:, None, :], dual)[:, 0]
        return sums / big, sines

    def f_batch(self, ts):
        """Estimator values of the rows of ts, within kernel_err of f."""
        ts = np.atleast_2d(np.asarray(ts, dtype=np.float64))
        return self._kernel(ts, grad=False)[0]

    def step_batch(self, ts, floor=None):
        """Vectorized gradient steps at width eta over the rows of ts.

        Returns (stepped targets, estimator values, ok), with ok the mask of
        rows that pass clears_guard against the floor (default_denom_floor(eps)
        when floor is None). Only those rows step; the others are returned
        unchanged.
        """
        ts = np.array(np.atleast_2d(ts), dtype=np.float64)
        floor = default_denom_floor(self.eps) if floor is None else float(floor)
        vals, sines = self._kernel(ts, grad=True)
        ok = self.clears_guard(ts, vals, floor)
        ts[ok] -= sines[ok] / (len(self) * self.eta ** 2 * vals[ok, None])
        return ts, vals, ok


def generate_advice(basis, eps, count, seed, eta=None):
    """count i.i.d. draws from the dual Gaussian at the smoothing width.

    The sampling width is eta_eps(L*), computed here unless eta is given.
    Randomness comes from the (seed, 0) stream.
    """
    eps = check_eps(eps, upper=1.0 / 200.0)
    count = check_count("count", count)
    if eta is None:
        eta = smoothing_parameter(basis.dual, eps).value
    draws = sample_lattice_gaussian(basis.dual, s=eta, count=count, rng=stream(seed, 0))
    return GaussianAdvice(basis, draws.coeffs, eps, seed, eta)
