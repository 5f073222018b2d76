"""Dual-lattice sampling advice and the cosine-average density estimator.

The preprocessing stage draws vectors from the discrete Gaussian on the
dual lattice at the smoothing width. Averaging cosines over those draws
estimates the periodic Gaussian density of the primal lattice; the matching
sine and outer-product averages estimate its gradient and Hessian. Every
draw keeps its exact integer coefficient record next to the cached float
coordinates, so membership stays exact. The decoder file written by
BddDecoder.save is the only file format for advice; it reloads to a
bit-identical evaluator.
"""

import math

import numpy as np

from ._validation import as_float_vector, check_count, check_eps
from .gaussian import sample_lattice_gaussian, smoothing_parameter
from .rng import stream

_PI = math.pi

# the kernel walks the targets-by-advice phase matrix in tiles of at most
# _TILE_ROWS targets by _TILE_COLS draws, so that its four reused buffers
# (24 bytes per entry) stay within a 2 MiB L2 cache
_TILE_COLS = 8192
_TILE_ROWS = 8


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
    advice vector is a dual lattice point by construction. f(t) averages
    cos(2 pi <w_i, t>) over the draws: it is periodic over the lattice,
    equals 1 on it, and for draws at the smoothing width it concentrates
    around the true periodic Gaussian.

    f, grad and hessian evaluate in float64 and are the reference. The
    batched f_batch and step_batch reduce the phases mod 1 in float64 and
    take cos and sin in float32, one cache-sized tile of targets by draws
    at a time; kernel_err bounds what that adds. vectors is column-major,
    so each coordinate of the draws is contiguous within a tile.
    """

    def __init__(self, basis, coeffs, eps, seed):
        if basis.rank == 0:
            raise ValueError("advice needs a lattice of positive rank")
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim != 2 or coeffs.shape[1] != basis.rank:
            raise ValueError(
                f"coefficient array must be N x {basis.rank}, got {coeffs.shape}"
            )
        if coeffs.shape[0] == 0:
            raise ValueError("advice must hold at least one draw")
        self.basis = basis
        self.coeffs = coeffs
        self.eps = check_eps(eps)
        self.seed = int(seed)
        # the transpose of the n x N product: column-major, with no second copy
        self.vectors = (basis.dual.float_rows.T @ coeffs.T.astype(np.float64)).T
        wmax = float(np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors).max()))
        self._err_const = (_PI + 4.0) * 2.0 ** -24 + len(self) * 2.0 ** -53
        self._err_slope = 2.0 * _PI * (basis.rank + 1) * 2.0 ** -53 * wmax

    def __len__(self):
        return self.coeffs.shape[0]

    def __repr__(self):
        return (
            f"GaussianAdvice(N={len(self)}, rank={self.basis.rank}, "
            f"eps={self.eps:g}, seed={self.seed})"
        )

    def dual_vector(self, i):
        """Exact coordinates of the i-th draw."""
        return self.basis.dual.vector([int(c) for c in self.coeffs[i]])

    def _reference(self, t):
        """Row-major draws and their float64 phases 2 pi <w_i, t>.

        BLAS sums each product in an order set by the layout, so the
        reference runs on a row-major copy of vectors: that order is the
        one the estimator-error experiment's CSV digest pins.
        """
        w = np.ascontiguousarray(self.vectors)
        return w, 2.0 * _PI * (w @ as_float_vector(t, self.basis.ambient))

    def f(self, t):
        """The estimator value: mean of cos(2 pi <w_i, t>), in [-1, 1]."""
        _, phases = self._reference(t)
        return float(np.cos(phases).mean())

    def grad(self, t):
        """Gradient -(2 pi / N) sum of w_i sin(2 pi <w_i, t>)."""
        w, phases = self._reference(t)
        return -(2.0 * _PI / len(self)) * (w.T @ np.sin(phases))

    def hessian(self, t):
        """Hessian -(4 pi^2 / N) sum of w_i w_i^T cos(2 pi <w_i, t>)."""
        w, phases = self._reference(t)
        return -(4.0 * _PI * _PI / len(self)) * ((w * np.cos(phases)[:, None]).T @ w)

    def kernel_err(self, ts):
        """Bound on |f_batch(t) - f(t)| for each row t of ts.

        f(t) is the mean of cos(2 pi <w_i, t>) over the stored float64
        vectors w_i, taken in exact arithmetic. The batched kernel departs
        from it in these places, and cos and sin are 1-Lipschitz:

        - the float64 product x = <w_i, t> errs by at most
          rank * 2^-53 * max||w|| * ||t|| to first order, charged as
          (rank + 1) * 2^-53 * max||w|| * ||t||; it moves the phase 2 pi x
          by 2 pi times that, and it is the term that grows with the row;
        - x - rint(x) is exact and leaves the phase unchanged mod 2 pi;
        - rounding the reduced phase, at most pi in size, to float32 moves
          it by at most pi * 2^-24;
        - numpy's float32 cos and sin are documented within 1.5 ULP
          (1.2 * 2^-24 measured over [-pi, pi]); 4 * 2^-24 is charged,
          which also covers the float64 product with 2 pi (2 pi * 2^-53);
        - the float64 mean of N terms of size at most 1 errs by at most
          N * 2^-53, the bound for summing them one after another. The
          kernel sums each tile of draws pairwise and adds the tile sums
          in sequence, which only lowers this term, so the charge stands.

        The sine sums behind step_batch carry the same error per draw, so
        the gradient -(2 pi / N) sum w_i sin(2 pi <w_i, t>) that step_batch
        uses is within 2 pi * max||w|| times this bound of its exact value.
        At a rank-8 decoder with N = 221,049 draws the bound is about 4e-7
        near the lattice, far below the guard floor and the O(1/sqrt(N))
        sampling error of the estimator itself.
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

        The phases are taken tile by tile, every tile in the same four
        buffers, and the cosine and sine sums accumulate in float64.
        """
        k, n = ts.shape
        big = len(self)
        rows, cols = min(k, _TILE_ROWS), min(big, _TILE_COLS)
        x_buf = np.empty(rows * cols)
        r_buf = np.empty(rows * cols)
        p_buf = np.empty(rows * cols, dtype=np.float32)
        c_buf = np.empty(rows * cols, dtype=np.float32)
        sums = np.zeros(k)
        grads = np.zeros((k, n)) if grad else None
        for r0 in range(0, k, rows):
            block = ts[r0:r0 + rows]
            for c0 in range(0, big, cols):
                w = self.vectors[c0:c0 + cols]
                shape = (block.shape[0], w.shape[0])
                size = shape[0] * shape[1]
                x = x_buf[:size].reshape(shape)
                r = r_buf[:size].reshape(shape)
                phase = p_buf[:size].reshape(shape)
                trig = c_buf[:size].reshape(shape)
                np.matmul(block, w.T, out=x)
                np.rint(x, out=r)
                np.subtract(x, r, out=x)
                np.multiply(x, 2.0 * _PI, out=phase, casting="unsafe")
                np.cos(phase, out=trig)
                sums[r0:r0 + rows] += trig.sum(axis=1, dtype=np.float64)
                if grad:
                    np.sin(phase, out=trig)
                    r[...] = trig
                    grads[r0:r0 + rows] += r @ w
        return sums / big, grads

    def f_batch(self, ts):
        """Estimator values of the rows of ts, within kernel_err of f."""
        ts = np.atleast_2d(np.asarray(ts, dtype=np.float64))
        return self._kernel(ts, grad=False)[0]

    def step_batch(self, ts, floor=None):
        """Vectorized gradient steps over the rows of ts.

        Returns (stepped targets, estimator values). Rows that fail
        clears_guard against the floor are returned unchanged; callers
        recognize them the same way.
        """
        ts = np.array(np.atleast_2d(ts), dtype=np.float64)
        floor = default_denom_floor(self.eps) if floor is None else float(floor)
        vals, sines = self._kernel(ts, grad=True)
        ok = self.clears_guard(ts, vals, floor)
        ts[ok] -= sines[ok] / (len(self) * vals[ok, None])
        return ts, vals


def generate_advice(basis, eps, count, seed, eta=None):
    """count i.i.d. draws from the dual Gaussian at the smoothing width.

    The sampling width is eta_eps(L*) computed here unless eta is given;
    BddDecoder.fit, which has already normalized its lattice, passes
    eta=1.0 so the two stay consistent. Randomness comes from the (seed, 0)
    stream.
    """
    eps = check_eps(eps, upper=1.0 / 200.0)
    count = check_count("count", count)
    if eta is None:
        eta = smoothing_parameter(basis.dual, eps).value
    draws = sample_lattice_gaussian(basis.dual, s=eta, count=count, rng=stream(seed, 0))
    return GaussianAdvice(basis, draws.coeffs, eps, seed)
