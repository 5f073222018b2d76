"""Bounded-distance decoding by gradient ascent on the estimated density.

fit draws dual Gaussian advice at the smoothing width eta of the dual
lattice (generate_advice) and picks the first short linearly independent
advice vectors together with their exact biorthogonal frame. decode runs a
fixed number of guarded ascent steps at width eta on the estimator, all in
the target's units, and rounds the iterate against the frame. Membership of
the output is checked exactly, so a claimed-exact result is always a true
lattice point.

save writes the decoder file: the basis, the advice rows and the frame,
all exact. It is the only file format for advice.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._estimator import ParamMixin
from ._validation import check_count, check_eps, parse_fraction
from .advice import GaussianAdvice, advice_count, generate_advice
from .enumeration import _float_points
from .gaussian import decoding_width, smoothing_parameter
from .lattice import LatticeBasis, format_basis, parse_basis, sqnorm
# lattice_coefficients is no longer called here; it stays importable from this
# module because the benchmark's tracer self-test looks it up here
from .lattice import lattice_coefficients  # noqa: F401

EXACT = "exact-claimed"
GUARD = "denominator-guard"


class FrameAbort(RuntimeError):
    """The advice held no full set of short linearly independent vectors."""


def iteration_count(n, eps):
    """Number of ascent rounds before rounding is safe.

    An in-promise iterate starts within delta_max * s_eps of its lattice
    point, at worst halves that distance in the first round, and contracts
    by at least eps^(1/8) in every later one; this many rounds land it
    inside the rounding-safe ball of radius 1/(2 sqrt(n)). At least one
    round always follows the first.
    """
    eps = check_eps(eps, upper=1.0 / 200.0)
    n = check_count("n", n)
    s_eps, dmax = decoding_width(eps)
    need = math.ceil(8.0 * math.log(math.sqrt(n) * dmax * s_eps) / math.log(1.0 / eps))
    return 1 + max(1, need)


def decoding_radius(basis, eps):
    """Guaranteed decoding radius delta_max * s_eps / eta_eps(L*).

    Standalone form that runs only the smoothing computation, for radius
    planning at ranks where drawing the advice itself would be infeasible.
    """
    eps = check_eps(eps, upper=1.0 / 200.0)
    s_eps, dmax = decoding_width(eps)
    eta = smoothing_parameter(basis.dual, eps)
    return dmax * s_eps / eta.value


def _check_alpha(alpha):
    """alpha as a float; ValueError unless it lies in (0, 1/2), the radii
    bdd_param_plan can reach."""
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    return alpha


def bdd_param_plan(alpha, n):
    """(eps, n_advice) reaching decoding radius alpha * lambda_1 on rank n.

    eps comes from the closed form 1/eps = exp(2 a^2 n / (1-2a)^2 +
    8/(1-2a)) / 2 - 1; the advice count is advice_count(n, eps).
    """
    n = check_count("n", n)
    alpha = _check_alpha(alpha)
    gap = 1.0 - 2.0 * alpha
    inv_eps = 0.5 * math.exp(2.0 * alpha * alpha * n / (gap * gap) + 8.0 / gap) - 1.0
    if not inv_eps > 200.0:
        raise ValueError(
            f"planned 1/eps = {inv_eps:.1f} does not clear 200; increase n or adjust alpha"
        )
    eps = 1.0 / inv_eps
    return eps, advice_count(n, eps)


@dataclass(frozen=True)
class DecodeResult:
    """Decoded vector with its diagnostics.

    vector is exact (a tuple of rationals); coeffs are its coefficients
    over the fitted basis, or None when the rounded output is not a lattice
    point. trace is () unless the decode was asked for it with trace=True;
    then it holds one (norm of the iterate, estimator value) pair per
    visited iterate, iterations_ + 1 of them when no guard trips. The norms
    are in the target's units, those of radius_. The other fields do not
    depend on trace.
    """

    vector: tuple
    coeffs: tuple
    status: str
    iterations_run: int
    trace: tuple
    note: str = ""


# draws prescreened per pass when choosing the frame, which the first few
# dozen draws usually complete
_SCREEN_CHUNK_ROWS = 1024


def _frame_indices(advice):
    """First rank linearly independent draws with norm <= sqrt(rank) * eta.

    The norm cut is checked exactly on the draw's coordinates, and
    independence by building the basis of the chosen coefficient rows; a
    float prescreen, taken one chunk of draws at a time until the frame is
    full, only decides which rows are worth the exact check.
    """
    n = advice.basis.rank
    cut = n * Fraction(advice.eta) ** 2
    screen = float(cut) * (1.0 + 1e-9) + 1e-9
    chosen = []
    for lo in range(0, len(advice), _SCREEN_CHUNK_ROWS):
        w = _float_points(advice.basis.dual, advice.coeffs[lo:lo + _SCREEN_CHUNK_ROWS])
        sq = np.einsum("ij,ij->i", w, w)
        for i in (lo + np.flatnonzero(sq <= screen)).tolist():
            if sqnorm(advice.dual_vector(i)) > cut:
                continue
            try:
                LatticeBasis(advice.coeffs[chosen + [i]])
            except ValueError:
                continue
            chosen.append(i)
            if len(chosen) == n:
                return chosen
    raise FrameAbort(
        f"advice holds only {len(chosen)} of the {n} short independent vectors "
        "needed for the rounding frame"
    )


# rows of the advice block formatted per numpy pass; at rank 8 the
# temporaries stay near 256 KB whatever the advice count (a 221,049-row
# block wrote in 0.10 s at 4,096 rows a chunk and 0.16 s at 16,384)
_WRITE_CHUNK_ROWS = 4096

# 10, 100, ..., 10**19: a magnitude's digit count is one more than the
# number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _write_rows(fh, coeffs):
    """Write an int64 array one space-separated row per line.

    The bytes equal " ".join(map(str, row)) + "\\n" per row. Each chunk lays
    out its tokens (sign, digits, then a space or, after the last column, a
    newline) from the cumulative token lengths and fills the digits right to
    left. Magnitudes are read in uint64, where the wrapped abs(-2**63) is
    2**63.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    width = coeffs.shape[1]
    for lo in range(0, coeffs.shape[0], _WRITE_CHUNK_ROWS):
        chunk = coeffs[lo:lo + _WRITE_CHUNK_ROWS].ravel()
        neg = chunk < 0
        mag = np.abs(chunk).view(np.uint64)
        digits = np.ones(chunk.shape, dtype=np.int64)
        for p in _POWERS_OF_TEN[_POWERS_OF_TEN <= mag.max()]:
            digits += mag >= p
        ends = np.cumsum(digits + neg + 1)
        buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        buf[ends[width - 1::width] - 1] = ord("\n")
        pos = ends - 2
        buf[(pos - digits)[neg]] = ord("-")
        while True:
            quot = mag // 10
            buf[pos] = mag - quot * 10 + ord("0")
            more = np.flatnonzero(quot)
            if not more.size:
                break
            pos, mag = pos[more] - 1, quot[more]
        fh.write(buf.tobytes().decode("ascii"))


class BddDecoder(ParamMixin):
    """Decoder for targets within a guaranteed radius of the lattice.

    Parameters
    ----------
    eps : promise parameter in (0, 1/200); smaller values buy a larger
        decoding radius at the cost of more advice.
    n_advice : number of dual Gaussian draws; None uses
        advice_count(rank, eps).
    seed : master seed for the draws.

    The ascent guard floor is default_denom_floor(eps) = eps^(1/4)/4.
    Preprocessing enumerates the dual lattice under the node budget that
    LATGAUSS_BUDGET sets (see BudgetExceeded).

    Fitted attributes carry a trailing underscore; radius_ is the decoding
    radius in original units and iterations_ the fixed ascent length.
    """

    def __init__(self, eps, n_advice=None, seed=0):
        self.eps = eps
        self.n_advice = n_advice
        self.seed = seed

    def fit(self, basis):
        """Preprocess the lattice: advice at the smoothing width, frame."""
        eps = check_eps(self.eps, upper=1.0 / 200.0)
        if basis.rank == 0:
            raise ValueError("cannot decode against a rank-0 lattice")
        count = self.n_advice
        if count is None:
            count = advice_count(basis.rank, eps)
        self._set_state(generate_advice(basis, eps, check_count("n_advice", count), self.seed))
        return self

    def _set_state(self, advice, stored=None):
        """Fitted state from the advice, drawn on the dual of its basis at
        width advice.eta.

        fit passes no stored frame, and the frame draws are picked here; load
        passes the file's (indices, frame rows), and the frame must equal
        the dual of the draws it names exactly (a row is in the span and
        biorthogonal to the draws only then), so a corrupted file fails
        loudly instead of mis-decoding quietly. The frame draws' coefficient
        rows form C, and the frame's coefficients over the basis are C^-T,
        the dual of the basis with rows C.
        """
        basis = advice.basis
        idx, frame = (_frame_indices(advice), None) if stored is None else stored
        draws = [[int(c) for c in advice.coeffs[i]] for i in idx]
        vstar = LatticeBasis([basis.dual.vector(c) for c in draws], ambient=basis.ambient)
        if frame is not None and LatticeBasis(frame, ambient=basis.ambient) != vstar.dual:
            raise FrameAbort("stored frame is not the dual of its draws; file corrupt")
        over_basis = LatticeBasis(draws).dual._frame
        s_eps, dmax = decoding_width(advice.eps)
        self.basis_ = basis
        self.scale_ = Fraction(advice.eta)
        self.advice_ = advice
        self.vstar_indices_ = tuple(int(i) for i in idx)
        self.vstar_ = vstar
        self.frame_ = vstar.dual
        self._frame_num, self._frame_den = over_basis.rows, over_basis.d
        self._vstar_float = _float_points(basis.dual, advice.coeffs[list(idx)])
        self.iterations_ = iteration_count(basis.rank, advice.eps)
        self.radius_ = dmax * s_eps / advice.eta

    def _check_fitted(self):
        if getattr(self, "basis_", None) is None:
            raise RuntimeError("decoder is not fitted; call fit(basis) first")

    def decode_batch(self, targets, trace=False):
        """One DecodeResult per row of targets.

        With trace set, each result also records its ascent trace, which
        costs one more kernel pass over the advice for the final iterates.
        """
        self._check_fitted()
        cur = np.array(targets, dtype=np.float64, ndmin=2)
        if cur.shape[1] != self.basis_.ambient:
            raise ValueError(
                f"targets must have {self.basis_.ambient} coordinates, got {cur.shape[1]}"
            )
        if not np.isfinite(cur).all():
            raise ValueError("targets must have finite coordinates")
        k = cur.shape[0]
        guarded_at = np.full(k, -1)
        traces = [[] for _ in range(k)]

        def record(live, vals):
            norms = np.hypot.reduce(cur[live], axis=1)
            for j, i in enumerate(live):
                traces[i].append((float(norms[j]), float(vals[j])))

        for it in range(self.iterations_):
            live = np.flatnonzero(guarded_at < 0)
            if live.size == 0:
                break
            stepped, vals, ok = self.advice_.step_batch(cur[live])
            if trace:
                record(live, vals)
            cur[live] = stepped
            guarded_at[live[~ok]] = it
        live = np.flatnonzero(guarded_at < 0)
        if trace and live.size:
            record(live, self.advice_.f_batch(cur[live]))
        rounded = cur @ self._vstar_float.T
        if not np.isfinite(rounded).all():
            raise ValueError("targets are too large to round against the frame")
        cols, den = list(zip(*self._frame_num)), self._frame_den
        out = []
        for i in range(k):
            coeffs = [int(round(x)) for x in rounded[i]]
            sums = [sum(c * t for c, t in zip(coeffs, col)) for col in cols]
            if all(x % den == 0 for x in sums):
                basis_coeffs = tuple(x // den for x in sums)
                y = self.basis_.vector(basis_coeffs)
            else:
                basis_coeffs = None
                y = self.frame_.vector(coeffs)
            if guarded_at[i] >= 0:
                status = GUARD
                note = f"denominator guard tripped at iteration {guarded_at[i]}"
                runs = int(guarded_at[i])
            elif basis_coeffs is None:
                status = GUARD
                note = "rounded output is not a lattice point"
                runs = self.iterations_
            else:
                status, note, runs = EXACT, "", self.iterations_
            out.append(
                DecodeResult(
                    vector=y,
                    coeffs=basis_coeffs,
                    status=status,
                    iterations_run=runs,
                    trace=tuple(traces[i]),
                    note=note,
                )
            )
        return out

    def decode(self, target, trace=False):
        """decode_batch of the single row target."""
        return self.decode_batch([target], trace=trace)[0]

    def save(self, path):
        """Write the full decoding state: basis, advice, frame, all exact."""
        self._check_fitted()
        a = self.advice_
        with open(path, "w", encoding="ascii") as fh:
            fh.write("latgauss-decoder 1\n")
            fh.write(format_basis(self.basis_))
            fh.write(f"advice {len(a)} {a.eps!r} {a.seed} {self.scale_}\n")
            _write_rows(fh, a.coeffs)
            fh.write("frame " + " ".join(str(i) for i in self.vstar_indices_) + "\n")
            for row in self.frame_.rows:
                fh.write(" ".join(str(x) for x in row) + "\n")

    @classmethod
    def load(cls, path):
        """Rebuild a fitted decoder from save output.

        The file is read line by line, and the advice block is parsed straight
        from the open file, so neither the file's text nor a list of its lines
        is ever held. The stored frame is verified against the advice rows it
        references (see _set_state).
        """
        with open(path, encoding="ascii") as fh:
            if fh.readline().split() != ["latgauss-decoder", "1"]:
                raise ValueError(f"{path} is not a decoder file")
            head = fh.readline().split()
            if len(head) != 2:
                raise ValueError("decoder file basis header must read 'rank ambient'")
            n = int(head[0])
            if n <= 0:
                raise ValueError(f"decoder file cannot hold a rank-{n} basis")
            basis = parse_basis(" ".join(head) + "\n" + "".join(itertools.islice(fh, n)))
            head = fh.readline().split()
            if len(head) != 5 or head[0] != "advice":
                raise ValueError("decoder file is missing its advice header")
            count, eps, seed = check_count("advice count", int(head[1])), float(head[2]), int(head[3])
            scale = parse_fraction(head[4])
            # loadtxt skips blank lines, so a blank line among the count lines
            # leaves the block short; a blank first line is refused here, as
            # loadtxt only warns about a block with no rows at all
            first = fh.readline()
            if not first.strip():
                raise ValueError("decoder file has no advice row after its advice header")
            coeffs = np.loadtxt(itertools.chain((first,), itertools.islice(fh, count - 1)),
                                dtype=np.int64, ndmin=2, comments=None)
            if coeffs.shape != (count, n):
                raise ValueError(
                    f"expected {count} advice rows of {n} integers, got shape {coeffs.shape}"
                )
            head = fh.readline().split()
            if len(head) != 1 + n or head[0] != "frame":
                raise ValueError("decoder file is missing its frame section")
            idx = [int(t) for t in head[1:]]
            if not all(0 <= i < count for i in idx):
                raise ValueError(f"frame indices must lie in [0, {count})")
            rows = list(itertools.islice(fh, n))
            if len(rows) < n or any(line.strip() for line in fh):
                raise ValueError(f"decoder file must end with {n} frame rows")
        frame_rows = [[parse_fraction(t) for t in line.split()] for line in rows]
        dec = cls(eps=eps, n_advice=count, seed=seed)
        dec._set_state(GaussianAdvice(basis, coeffs, eps, seed, scale), (idx, frame_rows))
        return dec
