"""Bounded-distance decoder: planning, fit/decode, persistence, the guard."""

import contextlib
import hashlib
import io
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latgauss import decoder as decoder_module
from latgauss.decoder import (
    _READ_CHUNK_CHARS,
    _WRITE_CHUNK_ROWS,
    EXACT,
    GUARD,
    BddDecoder,
    FrameAbort,
    _frame_indices,
    _read_rows,
    _row_fault,
    _write_rows,
    bdd_param_plan,
    decoding_radius,
    iteration_count,
)
from latgauss.advice import GaussianAdvice, generate_advice
from latgauss.cli import main
from latgauss.enumeration import closest_vector, lambda1
from latgauss.generators import (
    checkerboard,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from latgauss.lattice import lattice_coefficients, write_basis
from latgauss.reductions import SparsifyReducer
from latgauss.rng import stream

from conftest import reference_inverse


def fitted(n=3, eps=1e-3, seed=1, n_advice=3000):
    basis = random_dual_orthogonal(n, seed=seed)
    dec = BddDecoder(eps, n_advice=n_advice, seed=seed).fit(basis)
    return basis, dec


def test_iteration_count_frozen_values():
    assert iteration_count(8, 1e-6) == 2
    assert iteration_count(4, 1e-3) == 2
    assert iteration_count(3, 0.0025) == 2
    with pytest.raises(ValueError):
        iteration_count(4, 0.01)
    with pytest.raises(ValueError):
        iteration_count(0, 1e-3)


def test_bdd_param_plan_frozen_values():
    assert bdd_param_plan(0.15, 6) == (1.254194270241461e-05, 38244)
    assert bdd_param_plan(0.15, 8) == (1.0437476825092872e-05, 56806)
    assert bdd_param_plan(0.15, 10) == (8.686131289838353e-06, 79084)


def test_bdd_param_plan_rejects_out_of_range_alpha():
    with pytest.raises(ValueError):
        bdd_param_plan(0.0, 6)
    with pytest.raises(ValueError):
        bdd_param_plan(0.5, 6)


def test_decoding_radius_matches_the_width_and_smoothing():
    from latgauss.gaussian import decoding_width, smoothing_parameter

    basis = integer_identity(4)
    eps = 1e-3
    s_eps, dmax = decoding_width(eps)
    eta = smoothing_parameter(basis.dual, eps).value
    assert decoding_radius(basis, eps) == pytest.approx(dmax * s_eps / eta, rel=1e-12)


def test_fit_exposes_the_decoding_state():
    basis, dec = fitted()
    assert dec.basis_ == basis
    assert dec.radius_ > 0
    assert dec.iterations_ == iteration_count(basis.rank, dec.eps)
    assert len(dec.advice_) == 3000
    assert dec.vstar_.rank == basis.rank
    # frame rows and short dual vectors are exactly biorthogonal
    for i, w in enumerate(dec.frame_.rows):
        for j, u in enumerate(dec.vstar_.rows):
            assert sum(a * b for a, b in zip(w, u)) == (1 if i == j else 0)


def test_decode_recovers_planted_points_exactly():
    basis, dec = fitted(n=3, seed=2)
    rng = stream(2, 7)
    hits = 0
    for k in range(40):
        coeffs = [int(v) for v in rng.integers(-3, 4, size=3)]
        point = np.array([float(x) for x in basis.vector(coeffs)])
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        t = point + 0.9 * dec.radius_ * float(rng.random()) * u
        res = dec.decode(t)
        if res.status == EXACT:
            vec, _, _ = closest_vector(basis, [Fraction(x).limit_denominator(1 << 40) for x in t])
            hits += res.vector == vec
    assert hits >= 38


def test_decode_batch_matches_single_decodes():
    basis, dec = fitted(n=2, seed=3, n_advice=800)
    ts = np.array([[0.1, 0.2], [1.4, -0.7], [0.0, 0.0]])
    batch = dec.decode_batch(ts, trace=True)
    for row, res in zip(ts, batch):
        single = dec.decode(row, trace=True)
        assert single.vector == res.vector
        assert single.status == res.status
        assert len(single.trace) == len(res.trace)
        for (n1, v1), (n2, v2) in zip(single.trace, res.trace):
            assert n1 == pytest.approx(n2, abs=1e-12)
            assert v1 == pytest.approx(v2, abs=1e-12)
    assert batch[2].vector == (0, 0)


def test_trace_is_opt_in_and_changes_nothing_else():
    basis, dec = fitted(n=3, seed=6, n_advice=3000)
    rng = stream(61)
    ts = np.vstack([0.5 * dec.radius_ * rng.normal(size=(6, 3)),
                    rng.uniform(-3, 3, size=(6, 3)) @ basis.float_rows])
    plain, traced = dec.decode_batch(ts), dec.decode_batch(ts, trace=True)
    assert {r.status for r in plain} == {EXACT, GUARD}
    for a, b in zip(plain, traced):
        assert a.trace == ()
        assert b.trace
        assert (a.vector, a.coeffs, a.status, a.iterations_run, a.note) == (
            b.vector, b.coeffs, b.status, b.iterations_run, b.note)
    assert dec.decode(ts[0]) == plain[0]


def test_decode_trace_and_iteration_budget():
    basis, dec = fitted(n=2, seed=4, n_advice=800)
    res = dec.decode([0.05, -0.03], trace=True)
    assert res.iterations_run == dec.iterations_
    assert len(res.trace) == dec.iterations_ + 1
    for norm, val in res.trace:
        assert norm >= 0.0 and -1.0 <= val <= 1.0


def test_guard_trips_far_from_the_lattice():
    # the density at the deep hole of Z^3 sits below the eps^(1/4)/4 floor
    basis = integer_identity(3)
    dec = BddDecoder(1e-3, n_advice=3000, seed=5).fit(basis)
    res = dec.decode([0.5, 0.5, 0.5])
    assert res.status == GUARD
    assert "guard" in res.note or "lattice point" in res.note
    assert res.iterations_run < dec.iterations_
    inside = dec.decode([0.05, 0.0, -0.04])
    assert inside.status == EXACT


def test_decode_rejects_wrong_width_targets():
    _, dec = fitted(n=2, seed=6, n_advice=400)
    with pytest.raises(ValueError):
        dec.decode([0.1, 0.2, 0.3])


def test_unfitted_decoder_refuses_to_decode():
    dec = BddDecoder(1e-3)
    with pytest.raises(Exception):
        dec.decode([0.0])


def test_fit_validates_parameters():
    basis = integer_identity(2)
    with pytest.raises(ValueError):
        BddDecoder(0.02).fit(basis)
    with pytest.raises(ValueError):
        BddDecoder(1e-3, n_advice=0).fit(basis)


def test_fractional_counts_are_rejected():
    basis = integer_identity(2)
    with pytest.raises(ValueError, match="n_advice"):
        BddDecoder(1e-3, n_advice=40.9).fit(basis)
    with pytest.raises(ValueError, match="trials"):
        SparsifyReducer(trials=2.5, mode="oracle").fit(basis)
    assert len(BddDecoder(1e-3, n_advice=40.0).fit(basis).advice_) == 40
    assert SparsifyReducer(trials=2.0, mode="oracle").fit(basis).reduce((0.25, 0)).trials == 2


def test_save_load_roundtrip_preserves_decoding(tmp_path):
    basis, dec = fitted(n=3, seed=7, n_advice=1200)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    back = BddDecoder.load(path)
    assert back.basis_ == basis
    assert back.scale_ == dec.scale_
    assert back.vstar_indices_ == dec.vstar_indices_
    ts = np.array([[0.2, -0.1, 0.4], [1.0, 0.3, -0.2]])
    for a, b in zip(dec.decode_batch(ts), back.decode_batch(ts)):
        assert a.vector == b.vector
        assert a.status == b.status


def test_load_restores_every_fitted_attribute(tmp_path):
    # fit and load reach the fitted state by one path: the same fitted
    # attribute names, with equal exact values (advice by its exact record)
    _, dec = fitted(n=3, seed=7, n_advice=1200)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    back = BddDecoder.load(path)

    def fitted_state(d):
        state = {k: v for k, v in vars(d).items() if k.endswith("_")}
        a = state.pop("advice_")
        state["advice_"] = (a.basis, a.coeffs.shape, a.coeffs.tobytes(), a.eps, a.seed, a.eta)
        return state

    assert fitted_state(back) == fitted_state(dec)


def test_fit_draws_the_advice_of_generate_advice():
    # one way to draw advice: fit's draws and width are generate_advice's on
    # the input lattice
    basis, dec = fitted(n=3, seed=7, n_advice=1200)
    adv = generate_advice(basis, 1e-3, 1200, seed=7)
    assert dec.advice_.basis == basis
    assert np.array_equal(dec.advice_.coeffs, adv.coeffs)
    assert dec.advice_.eta == adv.eta


def test_load_rejects_a_corrupted_frame(tmp_path):
    _, dec = fitted(n=2, seed=8, n_advice=600)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    lines = path.read_text().splitlines()
    # tamper with the last frame row
    parts = lines[-1].split()
    parts[0] = str(Fraction(parts[0]) + 1)
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FrameAbort):
        BddDecoder.load(path)


def test_load_rejects_a_bad_header(tmp_path):
    path = tmp_path / "decoder.txt"
    path.write_text("latgauss-decoder 2\n")
    with pytest.raises(ValueError):
        BddDecoder.load(path)


def test_preprocess_is_fit_shorthand(tmp_path, capsys):
    # the CLI preprocess verb writes exactly what fit then save writes
    basis = random_dual_orthogonal(2, seed=9)
    lat, cli_out, ref_out = tmp_path / "lat.txt", tmp_path / "a.txt", tmp_path / "b.txt"
    write_basis(lat, basis)
    assert main(["preprocess", "--lattice", str(lat), "--eps", "1e-3", "--n-advice", "500",
                 "--seed", "9", "--out", str(cli_out)]) == 0
    capsys.readouterr()
    BddDecoder(1e-3, n_advice=500, seed=9).fit(basis).save(ref_out)
    assert cli_out.read_bytes() == ref_out.read_bytes()


def test_param_mixin_roundtrip():
    dec = BddDecoder(1e-3, n_advice=100, seed=4)
    params = dec.get_params()
    assert params["eps"] == 1e-3 and params["n_advice"] == 100
    dec.set_params(seed=5)
    assert dec.seed == 5
    with pytest.raises(ValueError):
        dec.set_params(nonsense=1)
    assert "BddDecoder(" in repr(dec)


def test_radius_clears_the_promised_fraction_of_lambda1():
    for n in (4, 6):
        eps, count = bdd_param_plan(0.15, n)
        basis = integer_identity(n)
        assert decoding_radius(basis, eps) >= 0.15 * math.sqrt(float(lambda1(basis)))


def test_scale_equivariance_for_dyadic_factors():
    basis = random_integer(2, seed=10, bound=4)
    dec = BddDecoder(1e-3, n_advice=500, seed=10).fit(basis)
    dec2 = BddDecoder(1e-3, n_advice=500, seed=10).fit(basis.scaled(2))
    t = np.array([0.3, -0.8])
    a = dec.decode(t)
    b = dec2.decode(2 * t)
    assert tuple(2 * x for x in a.vector) == b.vector
    assert a.status == b.status


def test_translation_equivariance():
    basis = checkerboard(2)
    dec = BddDecoder(1e-3, n_advice=600, seed=11).fit(basis)
    t = np.array([0.12, -0.07])
    shift = np.array([float(x) for x in basis.vector((2, -1))])
    a = dec.decode(t)
    b = dec.decode(t + shift)
    assert tuple(x + y for x, y in zip(a.vector, basis.vector((2, -1)))) == b.vector


def test_decode_coefficients_match_the_exact_membership_test():
    basis, dec = fitted(n=3, seed=15)
    rng = stream(15, 1)
    members = 0
    for res in dec.decode_batch(rng.normal(size=(20, 3))):
        assert res.coeffs == lattice_coefficients(basis, res.vector)
        if res.coeffs is not None:
            members += 1
            assert basis.vector(res.coeffs) == res.vector
    assert members >= 10


def write_decoder(path, basis_lines, advice_rows, frame):
    """A hand-written decoder file: eps 1e-3, seed 0, scale 1."""
    lines = ["latgauss-decoder 1", *basis_lines, f"advice {len(advice_rows)} 0.001 0 1",
             *advice_rows, *frame]
    path.write_text("\n".join(lines) + "\n")


def test_rounding_off_the_lattice_reports_no_coefficients(tmp_path):
    # the frame rows (1/2, 0), (0, 1) span a superlattice of Z^2
    path = tmp_path / "decoder.txt"
    write_decoder(path, ["2 2", "1 0", "0 1"], ["2 0", "0 1"], ["frame 0 1", "1/2 0", "0 1"])
    dec = BddDecoder.load(path)
    res = dec.decode([0.5, 0.0])
    assert res.vector == (Fraction(1, 2), 0)
    assert res.coeffs is None
    assert res.status == GUARD and res.note == "rounded output is not a lattice point"


def test_load_rejects_a_frame_outside_the_span(tmp_path):
    # biorthogonal to the dual row (1, 0), but not in the span of the basis
    path = tmp_path / "decoder.txt"
    write_decoder(path, ["1 2", "1 0"], ["1"], ["frame 0", "1 1"])
    with pytest.raises(FrameAbort):
        BddDecoder.load(path)


def test_frame_indices_skip_a_short_dependent_draw():
    # every draw is short; the second is minus the first
    advice = GaussianAdvice(integer_identity(2), [[1, 0], [-1, 0], [0, 1]], 1e-3, 0, 1.0)
    assert _frame_indices(advice) == [0, 2]


def test_frame_indices_search_past_the_first_prescreen_chunk():
    # a long draw, then 2,000 copies of one short draw, then the draw that
    # completes the frame: the prescreen has to reach its second chunk
    rows = [[3, 0]] + [[1, 0]] * 2000 + [[0, -1]]
    advice = GaussianAdvice(integer_identity(2), rows, 1e-3, 0, 1.0)
    assert _frame_indices(advice) == [1, 2001]


@pytest.mark.parametrize("n, seed", [(2, 3), (3, 7), (4, 11)])
def test_frame_coefficients_are_the_inverse_transpose_of_the_draws(n, seed):
    _, dec = fitted(n=n, seed=seed, n_advice=1500)
    draws = dec.advice_.coeffs[list(dec.vstar_indices_)].tolist()
    inv = reference_inverse(draws)
    want = [[inv[k][j] for k in range(n)] for j in range(n)]
    assert dec._frame_den == math.lcm(*(x.denominator for row in want for x in row))
    assert [[Fraction(x, dec._frame_den) for x in row] for row in dec._frame_num] == want


def test_load_rejects_a_frame_that_names_one_draw_twice(tmp_path):
    _, dec = fitted(n=2, seed=17, n_advice=40)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    lines = path.read_text().splitlines()
    pos = next(i for i, line in enumerate(lines) if line.startswith("frame "))
    first = lines[pos].split()[1]
    lines[pos] = f"frame {first} {first}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((ValueError, FrameAbort)):
        BddDecoder.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["decode", "--advice", str(path), "--target", "0 0"])
    assert code == 2 and err.getvalue().startswith("error:")


def test_save_load_save_gives_identical_bytes(tmp_path):
    _, dec = fitted(n=3, seed=16, n_advice=400)
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    dec.save(first)
    BddDecoder.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_save_load_save_is_identical_across_several_chunks(tmp_path):
    count = 3 * _WRITE_CHUNK_ROWS + 5
    _, dec = fitted(n=2, seed=19, n_advice=count)
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    dec.save(first)
    back = BddDecoder.load(first)
    back.save(second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(back.advice_.coeffs, dec.advice_.coeffs)


INT64_EDGES = (-2**63, 2**63 - 1, 0, 9, -9, 10, -10, 99, -99)
INT64_VALUES = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-2**63, 2**63 - 1))


@given(st.data())
def test_write_rows_matches_the_per_row_reference(data):
    width = data.draw(st.integers(1, 8))
    count = data.draw(st.sampled_from(
        (1, _WRITE_CHUNK_ROWS - 1, _WRITE_CHUNK_ROWS, _WRITE_CHUNK_ROWS + 1)))
    rows = data.draw(hnp.arrays(np.int64, (count, width), elements=INT64_VALUES,
                                fill=INT64_VALUES))
    fh = io.StringIO()
    _write_rows(fh, rows)
    assert fh.getvalue() == "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist())


def _small_decoder_text():
    _, dec = fitted(n=2, seed=17, n_advice=40)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decoder.txt"
        dec.save(path)
        return path.read_text()


SMALL_DECODER_TEXT = _small_decoder_text()


@st.composite
def mutated_decoder_texts(draw):
    """The small decoder file truncated at a byte, with one token replaced by
    a drawn string, or with one line duplicated or deleted."""
    text = SMALL_DECODER_TEXT
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(("truncate", "token", "duplicate", "delete")))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "delete":
        del lines[i]
    else:
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(st.one_of(
            st.text(st.characters(codec="ascii"), max_size=12),
            st.integers(-2**70, 2**70).map(str),
            st.fractions(max_denominator=2**40).map(str),
        ))
        lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@given(mutated_decoder_texts())
def test_load_of_a_mutated_file_rejects_it_or_roundtrips(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "decoder.txt", Path(tmp) / "again.txt"
        path.write_text(text, encoding="ascii")
        try:
            dec = BddDecoder.load(path)
        except (ValueError, FrameAbort):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["decode", "--advice", str(path), "--target", "0 0"])
            assert code == 2 and err.getvalue().startswith("error:")
            return
        dec.save(again)
        back = BddDecoder.load(again)
    assert np.array_equal(back.advice_.coeffs, dec.advice_.coeffs)
    assert back.frame_ == dec.frame_
    assert back.scale_ == dec.scale_


def test_saved_decoder_file_is_pinned(tmp_path):
    # the digest pins the sampler, the frame choice and the file format
    path = tmp_path / "decoder.txt"
    BddDecoder(1e-3, n_advice=400, seed=16).fit(random_integer(3, seed=16)).save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "40bbd5291a5591978c143e37b5c291426bec895a247d36474981a2b5bf442590"


def test_load_rejects_every_truncation(tmp_path):
    _, dec = fitted(n=2, seed=17, n_advice=40)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    lines = path.read_text().splitlines()
    for k in range(len(lines)):
        path.write_text("".join(line + "\n" for line in lines[:k]))
        with pytest.raises(ValueError):
            BddDecoder.load(path)


@pytest.mark.parametrize("line, token", [
    (1, "x"),          # basis header
    (2, "1/0"),        # basis entry
    (4, "-4"),         # advice count
    (4, "40.0"),       # advice count
    (5, "1.5"),        # advice coefficient
    (-3, "-1"),        # frame index
    (-3, "99"),        # frame index past the advice
    (-1, "1/0"),       # frame entry
])
def test_load_rejects_malformed_tokens(tmp_path, line, token):
    _, dec = fitted(n=2, seed=17, n_advice=40)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    lines = path.read_text().splitlines()
    parts = lines[line].split()
    parts[1 if line in (4, -3) else 0] = token
    lines[line] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        BddDecoder.load(path)


def test_load_rejects_trailing_rows(tmp_path):
    _, dec = fitted(n=2, seed=17, n_advice=40)
    path = tmp_path / "decoder.txt"
    dec.save(path)
    path.write_text(path.read_text() + "1 2\n")
    with pytest.raises(ValueError):
        BddDecoder.load(path)


class _EofCountingFile:
    """A text file that counts the reads it answers at the end of the file
    and records the largest size a read asked for (inf for a whole read)."""

    def __init__(self, fh):
        self.fh = fh
        self.eof_reads = 0
        self.largest_read = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def readline(self):
        line = self.fh.readline()
        self.eof_reads += not line
        return line

    def read(self, size=-1):
        self.largest_read = max(self.largest_read, math.inf if size is None or size < 0 else size)
        text = self.fh.read(size)
        self.eof_reads += not text
        return text


def _load_counting_eof_reads(monkeypatch, path):
    """BddDecoder.load(path), which must open one file, reach its end at
    most once and ask for at most _READ_CHUNK_CHARS characters a read; the
    counting file is returned."""
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(_EofCountingFile(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(decoder_module, "open", counting_open, raising=False)
    try:
        return BddDecoder.load(path), opened[0]
    finally:
        assert len(opened) == 1 and opened[0].eof_reads <= 1
        assert opened[0].largest_read <= _READ_CHUNK_CHARS


def _small_decoder_lines():
    lines = SMALL_DECODER_TEXT.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("advice "))
    frame = next(i for i, line in enumerate(lines) if line.startswith("frame "))
    return lines, head, frame


@pytest.mark.parametrize("blank", ["", " \t "])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_load_rejects_a_blank_line_in_the_advice_block(tmp_path, monkeypatch, blank, where):
    # the block holds exactly the announced rows: a blank line among them
    # leaves it short, and one after them stands where the frame belongs
    lines, head, frame = _small_decoder_lines()
    at = {"start": head + 1, "middle": (head + frame) // 2, "end": frame}[where]
    lines.insert(at, blank)
    path = tmp_path / "decoder.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        _load_counting_eof_reads(monkeypatch, path)


@pytest.mark.parametrize("line, field, value", [
    ("advice", 1, str(10**12)),   # advice count past the file
    ("basis", 0, "999999999"),    # basis rank past the file
])
def test_load_rejects_a_size_past_the_file(tmp_path, monkeypatch, line, field, value):
    # a ValueError after reading at most to the end of the file, with
    # nothing sized by the announced count
    lines, head, _ = _small_decoder_lines()
    at = head if line == "advice" else 1
    parts = lines[at].split()
    parts[field] = value
    lines[at] = " ".join(parts)
    path = tmp_path / "decoder.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        _load_counting_eof_reads(monkeypatch, path)


def test_load_reads_a_long_block_in_bounded_requests(tmp_path, monkeypatch):
    # Z^2 with the unit draws first, then an advice block three read chunks
    # and a few rows long
    row = "-12 345"
    count = 3 * _READ_CHUNK_CHARS // (len(row) + 1) + 5
    path = tmp_path / "decoder.txt"
    write_decoder(path, ["2 2", "1 0", "0 1"], ["1 0", "0 1"] + [row] * (count - 2),
                  ["frame 0 1", "1 0", "0 1"])
    dec, fh = _load_counting_eof_reads(monkeypatch, path)
    assert fh.eof_reads == 1 and fh.largest_read == _READ_CHUNK_CHARS
    assert dec.advice_.coeffs.shape == (count, 2) and dec.advice_.coeffs.dtype == np.int64
    assert (dec.advice_.coeffs[2:] == [-12, 345]).all()


NON_CANONICAL_ROWS = [
    "+1 2",                          # a plus sign
    "01 2",                          # a leading zero
    "-0 2",                          # a negative zero
    "-01 2",                         # a leading zero after the sign
    "1\t2",                          # a tab
    "1  2",                          # a doubled space
    "1 2 ",                          # a trailing space
    " 1 2",                          # a leading space
    "1",                             # a short row
    "1 2 3",                         # a long row
    "",                              # a blank line
    "1 -",                           # a bare sign
    "1 2-",                          # a sign after the digits
    "1 --2",                         # two signs
    "1.0 2",                         # a decimal point
    "1e3 2",                         # an exponent
    "9223372036854775808 0",         # 2^63, past int64
    "-9223372036854775809 0",        # -2^63 - 1, past int64
    "1 " + "9" * 40,                 # a long token
]


@pytest.mark.parametrize("row", NON_CANONICAL_ROWS)
def test_load_rejects_a_non_canonical_advice_row(tmp_path, row):
    # the third advice row of the small decoder file replaced; the error
    # names it, counting from 0 as the frame indices do
    lines, head, _ = _small_decoder_lines()
    lines[head + 3] = row
    path = tmp_path / "decoder.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="advice row 2 "):
        BddDecoder.load(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["decode", "--advice", str(path), "--target", "0 0"])
    assert code == 2 and err.getvalue().startswith("error:")


@given(st.data())
def test_read_rows_inverts_write_rows(data):
    # the read chunk ends anywhere in the block or past it, so rows end on
    # both sides of a chunk boundary, split across it or whole within it
    width = data.draw(st.integers(1, 8))
    count = data.draw(st.integers(1, 40))
    rows = data.draw(hnp.arrays(np.int64, (count, width), elements=INT64_VALUES,
                                fill=INT64_VALUES))
    fh = io.StringIO()
    _write_rows(fh, rows)
    fh.write("frame 0\n")
    text = fh.getvalue()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder_module, "_READ_CHUNK_CHARS", data.draw(st.integers(1, len(text) + 1)))
        src = io.StringIO(text)
        back, rest = _read_rows(src, count, width)
        rest += src.read()
    assert back.dtype == np.int64 and np.array_equal(back, rows)
    assert rest == "frame 0\n"


@st.composite
def advice_lines(draw, width):
    """A row as _write_rows writes it, or a short line of digits, signs,
    spaces and tabs."""
    return draw(st.one_of(
        st.lists(INT64_VALUES, min_size=width, max_size=width).map(
            lambda row: " ".join(map(str, row))),
        st.text(st.sampled_from("0123456789-+ \t"), max_size=12),
    ))


@given(st.data())
def test_read_rows_accepts_exactly_the_canonical_rows(data):
    # the numpy passes agree with the per-row check: every line passes it and
    # reads as its integers, or the error names the first line that fails it
    width = data.draw(st.integers(1, 4))
    lines = data.draw(st.lists(advice_lines(width), min_size=1, max_size=6))
    faults = [i for i, line in enumerate(lines) if _row_fault(line, width)]
    src = io.StringIO("\n".join(lines) + "\nframe 0\n")
    if faults:
        with pytest.raises(ValueError, match=f"advice row {faults[0]} "):
            _read_rows(src, len(lines), width)
        return
    back, _ = _read_rows(src, len(lines), width)
    assert back.tolist() == [[int(t) for t in line.split(" ")] for line in lines]


def test_load_of_a_crlf_copy_gives_an_equal_decoder(tmp_path):
    crlf, again = tmp_path / "crlf.txt", tmp_path / "again.txt"
    crlf.write_bytes(SMALL_DECODER_TEXT.replace("\n", "\r\n").encode("ascii"))
    BddDecoder.load(crlf).save(again)
    assert again.read_bytes() == SMALL_DECODER_TEXT.encode("ascii")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_targets(bad):
    _, dec = fitted(n=2, seed=18, n_advice=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            dec.decode_batch([[0.1, 0.2], [bad, 0.0]])


def test_huge_targets_trip_the_guard():
    _, dec = fitted(n=2, seed=18, n_advice=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dec.decode([1e300, -1e300], trace=True)
    assert res.status == GUARD
    assert res.iterations_run == 0
    assert res.trace and all(math.isfinite(norm) for norm, _ in res.trace)


def test_decode_outputs_are_pinned():
    # 10,007 draws span two kernel tiles, the second one partial; every fourth
    # target is a uniform point of a box of cells, so some decodes trip the guard
    basis = random_dual_orthogonal(6, seed=5)
    dec = BddDecoder(1e-3, n_advice=10007, seed=5).fit(basis)
    rng = stream(55)
    rows = []
    for k in range(64):
        if k % 4 == 3:
            rows.append(rng.uniform(-3, 3, size=6) @ basis.float_rows)
            continue
        point = basis.vector([int(c) for c in rng.integers(-3, 4, size=6)])
        u = rng.normal(size=6)
        offset = 0.9 * dec.radius_ * rng.random() * u / np.linalg.norm(u)
        rows.append(np.array([float(x) for x in point]) + offset)
    res = dec.decode_batch(np.array(rows))
    assert sum(r.status == EXACT for r in res) == 49
    key = repr([(r.status, r.vector, r.coeffs, r.iterations_run) for r in res])
    digest = hashlib.sha256(key.encode()).hexdigest()
    assert digest == "c5c64dfd9c6293035505e921d2534b1f7ce014e6d18080f201f9f2be559be302"
