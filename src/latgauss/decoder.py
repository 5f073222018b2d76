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
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._estimator import ParamMixin
from ._validation import check_count, check_eps, parse_fraction
from .advice import GaussianAdvice, _mapped_empty, advice_count, generate_advice
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
# block wrote in 0.035 s at 4,096 rows a chunk and 0.032 s at 16,384)
_WRITE_CHUNK_ROWS = 4096

def _write_rows(fh, coeffs):
    """Write an int64 array one space-separated row per line.

    The bytes equal " ".join(map(str, row)) + "\\n" per row. Each chunk lays
    out its tokens (sign, digits, then a space or, after the last column, a
    newline) from the cumulative token lengths. Pass k, from the chunk's
    longest digit count down to 0, writes the byte k places before every
    token's last digit: its k-th digit from the right, its minus sign or a
    space. Where tokens overlap, the nearest token after the byte writes it
    last, at the smallest k, so every byte ends as its own token's;
    newlines go in after the passes. Magnitudes are read in uint64, where
    the wrapped abs(-2**63) is 2**63, then narrowed to the smallest
    unsigned type that holds the chunk's largest.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    width = coeffs.shape[1]
    for lo in range(0, coeffs.shape[0], _WRITE_CHUNK_ROWS):
        chunk = coeffs[lo:lo + _WRITE_CHUNK_ROWS].ravel()
        neg = chunk < 0
        mag = np.abs(chunk).view(np.uint64)
        top = int(mag.max())
        most = len(str(top))
        mag = mag.astype(np.min_scalar_type(top))
        digits = np.ones(chunk.shape, dtype=np.uint8)
        for k in range(1, most):
            digits += mag >= 10 ** k
        ends = np.cumsum((digits + neg + 1).astype(np.intp))
        # byte pad + ends[i] - 2 - k is k places before token i's last digit
        pad = most + 2
        buf = np.full(pad + int(ends[-1]), ord(" "), dtype=np.uint8)
        for k in range(most, -1, -1):
            byte = (neg & (digits == k)).view(np.uint8) * np.uint8(ord("-") - ord(" "))
            if k < most:
                # q - q // 10 * 10 runs faster in numpy than q % 10
                q = mag // 10 ** k
                digit = (q - q // 10 * 10).astype(np.uint8)
                byte += (digits > k) * (digit + np.uint8(ord("0") - ord(" ")))
            byte += np.uint8(ord(" "))
            buf[pad - 2 - k:][ends] = byte
        buf[pad - 1:][ends[width - 1::width]] = ord("\n")
        fh.write(buf[pad:].tobytes().decode("ascii"))


# characters of the file asked for per read after the advice header; a
# chunk's parse temporaries stay within a few MB whatever the advice count
_READ_CHUNK_CHARS = 1 << 18

# the longest token _write_rows writes: a sign and 19 digits
_MAX_TOKEN_CHARS = 20

# a token exactly as str writes an integer
_TOKEN = re.compile(r"0|-?[1-9][0-9]*")


def _row_fault(line, width):
    """Why the line is not a row of width integers as _write_rows writes
    them, or None when it is one."""
    tokens = line.split(" ")
    if len(tokens) != width:
        return f"holds {len(tokens)} space-separated fields, not {width}"
    for tok in tokens:
        if not _TOKEN.fullmatch(tok):
            return f"holds {tok!r}, which is not an integer as str writes it"
        if len(tok) > _MAX_TOKEN_CHARS or not -2**63 <= int(tok) < 2**63:
            return f"holds {tok}, which int64 does not hold"
    return None


def _parse_rows(text, lines, width):
    """The rows of the uint8 text, lines whole lines after _MAX_TOKEN_CHARS
    leading newlines, or None unless each line is exactly as _write_rows
    writes a row of width integers.

    A line must be width tokens, each 0 or -?[1-9][0-9]* within int64, with
    a single space after each but the last and a newline after that. The
    k-th byte back from every token's end is gathered in one pass over the
    separator positions, and the digit runs and the minus signs before them
    must fill every token. The digits add up in the narrowest integer type
    that the longest run allows.
    """
    pad = _MAX_TOKEN_CHARS
    body = text[pad:]
    sep = np.flatnonzero(body <= ord(" "))
    if sep.size != lines * width or np.count_nonzero(body == ord(" ")) != sep.size - lines:
        return None
    if (body[sep[width - 1::width]] != ord("\n")).any():
        return None
    # a 0 after a minus sign, or a 0 after a separator and before a digit
    zero, before, after = body[:-1] == ord("0"), text[pad - 1:-2], body[1:] - ord("0")
    if (zero & ((before == ord("-")) | ((before <= ord(" ")) & (after <= 9)))).any():
        return None
    run = np.ones(sep.size, dtype=bool)
    neg = np.zeros(sep.size, dtype=bool)
    digits, covered = [], sep.size
    while covered < body.size and len(digits) < pad:
        back = text[pad - 1 - len(digits):][sep]
        sign = run & (back == ord("-"))
        back -= ord("0")
        run &= back <= 9
        found = np.count_nonzero(run)
        if not digits and found < sep.size:
            return None
        neg |= sign
        covered += found + np.count_nonzero(sign)
        if not found:
            break
        digits.append(back * run)
    if covered != body.size or len(digits) in (0, pad):
        return None
    most = len(digits)
    kind = np.int8 if most <= 2 else np.int16 if most <= 4 else np.int32 if most <= 9 else np.uint64
    mag = digits[0].astype(kind)
    for k, d in enumerate(digits[1:], 1):
        mag += d.astype(kind) * kind(10 ** k)
    if kind is np.uint64:
        if (mag - neg > np.uint64(2**63 - 1)).any():
            return None
        mag = mag.view(np.int64)
    mag *= 1 - 2 * neg.view(np.int8)
    return mag.reshape(lines, width)


def _read_rows(fh, count, width):
    """(rows, rest): the next count lines of the text file fh as an int64
    count x width array, and the text of the last chunk read past them.

    The exact inverse of _write_rows: a line is accepted only as
    _write_rows writes it (see _parse_rows), and anything else raises
    ValueError naming the row. The file is read _READ_CHUNK_CHARS at a time
    and each chunk's whole lines are parsed in numpy passes; a chunk's rows
    are kept in the narrowest integer type their digit counts allow, so the
    result, on a map of its own (see _mapped_empty), is the one full-size
    array. Nothing is sized by count, and the end of the file is reached at
    most once, when the block is short.
    """
    pad = b"\n" * _MAX_TOKEN_CHARS
    parts, got, head = [], 0, b""
    while got < count:
        chunk = fh.read(_READ_CHUNK_CHARS)
        if not chunk:
            raise ValueError(f"the advice block ends after {got} of its {count} rows")
        data = head + chunk.encode("ascii")
        text = np.frombuffer(pad + data, dtype=np.uint8)
        newline = text[len(pad):] == ord("\n")
        lines = np.count_nonzero(newline)
        if not lines:
            if len(data) > width * (_MAX_TOKEN_CHARS + 1):
                raise ValueError(f"advice row {got} is longer than {width} int64 tokens")
            head = data
            continue
        if lines > count - got:
            lines = count - got
            stop = int(np.flatnonzero(newline)[lines - 1]) + 1
        else:
            stop = data.rindex(b"\n") + 1
        rows = _parse_rows(text[:len(pad) + stop], lines, width)
        if rows is None:
            block = data[:stop].decode("ascii").split("\n")[:-1]
            i, fault = next((i, f) for i, f in enumerate(_row_fault(x, width) for x in block) if f)
            raise ValueError(f"advice row {got + i} {fault}")
        parts.append(rows)
        got += lines
        head = data[stop:]
    rows = _mapped_empty((got, width), np.int64)
    return np.concatenate(parts, out=rows), head.decode("ascii")


def _lines(rest, fh):
    """The lines of rest followed by those of the rest of fh, read
    _READ_CHUNK_CHARS at a time, without their newlines."""
    while True:
        text = fh.read(_READ_CHUNK_CHARS)
        *lines, rest = (rest + text).split("\n")
        yield from lines
        if not text:
            if rest:
                yield rest
            return


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

        The header lines are read one at a time and the rest of the file in
        chunks of _READ_CHUNK_CHARS characters, so neither the file's text nor
        a list of its lines is ever held. The advice block must be exactly as
        save writes it (see _read_rows), with LF or CRLF line ends. The stored
        frame is verified against the advice rows it references (see
        _set_state).
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
            coeffs, rest = _read_rows(fh, count, n)
            lines = _lines(rest, fh)
            head = next(lines, "").split()
            if len(head) != 1 + n or head[0] != "frame":
                raise ValueError("decoder file is missing its frame section")
            idx = [int(t) for t in head[1:]]
            if not all(0 <= i < count for i in idx):
                raise ValueError(f"frame indices must lie in [0, {count})")
            rows = list(itertools.islice(lines, n))
            if len(rows) < n or any(line.strip() for line in lines):
                raise ValueError(f"decoder file must end with {n} frame rows")
        frame_rows = [[parse_fraction(t) for t in line.split()] for line in rows]
        dec = cls(eps=eps, n_advice=count, seed=seed)
        dec._set_state(GaussianAdvice(basis, coeffs, eps, seed, scale), (idx, frame_rows))
        return dec
