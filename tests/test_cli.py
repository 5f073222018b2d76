"""End-to-end command-line flows: generate, preprocess, decode, reduce, verify."""

from fractions import Fraction

import pytest

from latgauss.cli import main
from latgauss.decoder import BddDecoder
from latgauss.generators import random_dual_orthogonal
from latgauss.lattice import lattice_coefficients, read_basis, write_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_lattice_writes_a_parseable_basis(tmp_path, capsys):
    out = tmp_path / "lat.txt"
    code, _, _ = run(capsys, "gen-lattice", "--spec", "checkerboard:3", "--out", str(out))
    assert code == 0
    basis = read_basis(out)
    assert basis.rank == 3
    code, stdout, _ = run(capsys, "gen-lattice", "--spec", "integer-identity:2")
    assert code == 0 and stdout.startswith("2 2")


@pytest.mark.parametrize("spec", ("integer-identity:3,bound=4", "random-integer:3,seed=5"))
def test_gen_lattice_rejects_a_key_its_kind_does_not_take(capsys, spec):
    code, stdout, stderr = run(capsys, "gen-lattice", "--spec", spec)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and "allowed keys" in stderr


def test_preprocess_then_decode_roundtrip(tmp_path, capsys):
    lat = tmp_path / "lat.txt"
    adv = tmp_path / "dec.txt"
    run(capsys, "gen-lattice", "--spec", "random-dual-orthogonal:2", "--seed", "3",
        "--out", str(lat))
    code, stdout, _ = run(capsys, "preprocess", "--lattice", str(lat), "--eps", "1e-3",
                          "--n-advice", "800", "--seed", "3", "--out", str(adv))
    assert code == 0
    assert "radius" in stdout
    basis = read_basis(lat)
    point = basis.vector((1, -2))
    target = ",".join(str(float(x) + 0.01) for x in point)
    code, stdout, _ = run(capsys, "decode", "--advice", str(adv), "--target", target,
                          "--trace")
    assert code == 0
    assert "vector =" in stdout and "status = exact-claimed" in stdout
    assert "step,norm,f" in stdout
    got = stdout.split("vector =")[1].splitlines()[0].strip()
    assert got == " ".join(str(x) for x in point)


def test_decode_accepts_space_separated_targets(tmp_path, capsys):
    lat = tmp_path / "lat.txt"
    adv = tmp_path / "dec.txt"
    basis = random_dual_orthogonal(2, seed=4)
    write_basis(lat, basis)
    BddDecoder(1e-3, n_advice=500, seed=4).fit(basis).save(adv)
    code, stdout, _ = run(capsys, "decode", "--advice", str(adv), "--target", "0.02 0.01")
    assert code == 0 and "iterations =" in stdout


def test_decode_reports_a_truncated_decoder_file(tmp_path, capsys):
    adv = tmp_path / "dec.txt"
    BddDecoder(1e-3, n_advice=500, seed=4).fit(random_dual_orthogonal(2, seed=4)).save(adv)
    adv.write_text("".join(adv.read_text().splitlines(keepends=True)[:100]))
    code, _, stderr = run(capsys, "decode", "--advice", str(adv), "--target", "0.02 0.01")
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize("target", ("1/0,1", "1,2,3", "1e1000000,0"))
def test_malformed_targets_exit_with_status_2(tmp_path, capsys, target):
    # a zero denominator, a wrong coordinate count and an exponent past the
    # bound, for both verbs that parse targets
    lat = tmp_path / "lat.txt"
    adv = tmp_path / "dec.txt"
    basis = random_dual_orthogonal(2, seed=4)
    write_basis(lat, basis)
    BddDecoder(1e-3, n_advice=500, seed=4).fit(basis).save(adv)
    for verb in (("reduce", "kannan", "--lattice", str(lat)), ("decode", "--advice", str(adv))):
        code, _, stderr = run(capsys, *verb, "--target", target)
        assert code == 2
        assert stderr.startswith("error:")


def test_a_target_past_float64_exits_decode_with_status_2(tmp_path, capsys):
    # 1e400 is exact, but the decoder's ascent has no float64 value for it
    adv = tmp_path / "dec.txt"
    BddDecoder(1e-3, n_advice=500, seed=4).fit(random_dual_orthogonal(2, seed=4)).save(adv)
    code, stdout, stderr = run(capsys, "decode", "--advice", str(adv), "--target", "1e400,0")
    assert code == 2 and stdout == ""
    assert stderr.startswith("error:") and "finite" in stderr


@pytest.mark.parametrize("budget", ("5", "0", "1e7"))
def test_budget_errors_exit_with_status_2(tmp_path, capsys, monkeypatch, budget):
    # "5" stops the search at its sixth node; the others are not positive integers
    lat = tmp_path / "lat.txt"
    run(capsys, "gen-lattice", "--spec", "random-integer:6", "--seed", "3", "--out", str(lat))
    monkeypatch.setenv("LATGAUSS_BUDGET", budget)
    code, _, stderr = run(capsys, "reduce", "kannan", "--lattice", str(lat),
                          "--target", "1/2,0,0,0,0,0")
    assert code == 2
    assert stderr.startswith("error:") and "LATGAUSS_BUDGET" in stderr


@pytest.mark.parametrize("scheme", ("kannan", "master", "promise"))
def test_reduce_schemes_print_a_vector(tmp_path, capsys, scheme):
    lat = tmp_path / "lat.txt"
    run(capsys, "gen-lattice", "--spec", "random-integer:3", "--seed", "5",
        "--out", str(lat))
    code, stdout, _ = run(capsys, "reduce", scheme, "--lattice", str(lat),
                          "--target", "0.4,1.6,-0.7")
    assert code == 0
    assert stdout.startswith("vector =")


@pytest.mark.parametrize("scheme, target", [
    ("kannan", "1/3,2/5,7/4"),
    ("kannan", "13/3,-22/5,7/4"),
    ("master", "13/3,-22/5,7/4"),
])
def test_reduce_with_the_bdd_solver_runs_at_its_defaults(tmp_path, capsys, scheme, target):
    # the default --alpha is one the decoder can plan for
    lat = tmp_path / "lat.txt"
    run(capsys, "gen-lattice", "--spec", "random-integer:3", "--seed", "5",
        "--out", str(lat))
    code, stdout, stderr = run(capsys, "reduce", scheme, "--lattice", str(lat),
                               "--target", target, "--inner", "bdd")
    assert (code, stderr) == (0, "")
    assert stdout.startswith("vector =")
    vector = [Fraction(x) for x in stdout.split("=", 1)[1].split()]
    assert lattice_coefficients(read_basis(lat), vector) is not None


def test_reduce_sparsify_reports_trials(tmp_path, capsys):
    lat = tmp_path / "lat.txt"
    run(capsys, "gen-lattice", "--spec", "random-integer:3", "--seed", "6",
        "--out", str(lat))
    code, stdout, _ = run(capsys, "reduce", "sparsify", "--lattice", str(lat),
                          "--target", "0.4,1.6,-0.7", "--mode", "oracle",
                          "--trials", "5", "--seed", "2")
    assert code == 0
    assert "solver_hit" in stdout and "trials = 5" in stdout


def test_experiment_runs_and_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = decode-success\n"
        "lattice = random-dual-orthogonal:2\n"
        "seed = 7\n"
        "eps = 1e-3\n"
        "n_advice = 400\n"
        "trials = 4\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(out1))
    assert code == 0
    assert "PASS" in err
    code, _, _ = run(capsys, "experiment", "--config", str(cfg), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.endswith("config,seed")


def test_experiment_with_zero_trials_emits_just_the_header(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = decode-success\n"
        "lattice = integer-identity:2\n"
        "eps = 1e-3\n"
        "n_advice = 200\n"
        "trials = 0\n"
    )
    code, stdout, _ = run(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln]
    assert len(lines) == 1 and lines[0].startswith("trial,")


def test_experiment_failure_sets_the_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = local-maxima\n"
        "lattice = checkerboard:8\n"
    )
    code, stdout, err = run(capsys, "experiment", "--config", str(cfg))
    assert code == 1
    assert "FAIL density-near-one" in err
    assert "PASS gradient-zero" in err
    assert "PASS hessian-negative-definite" in err


def test_experiment_rejects_bad_configs(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    for text, message in (
        ("experiment = decode-success\nbogus = 1\n", "unknown config key"),
        ("experiment = decode-success\nseed = abc\n", "line 2: bad value for 'seed'"),
        ("experiment = decode-success\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
        ("experiment = decode-success\nlattice = integer-identity:2,bound=3\n",
         "integer-identity takes no parameter 'bound'"),
        ("experiment = decode-success\nlattice = random-integer:2,seed=3\n",
         "random-integer takes no parameter 'seed'"),
    ):
        cfg.write_text(text)
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and message in err


def test_decode_reports_a_corrupted_frame(tmp_path, capsys):
    adv = tmp_path / "dec.txt"
    BddDecoder(1e-3, n_advice=400, seed=8).fit(random_dual_orthogonal(2, seed=8)).save(adv)
    lines = adv.read_text().splitlines()
    parts = lines[-1].split()
    parts[0] = str(Fraction(parts[0]) + 1)
    lines[-1] = " ".join(parts)
    adv.write_text("\n".join(lines) + "\n")
    code, _, stderr = run(capsys, "decode", "--advice", str(adv), "--target", "0.02 0.01")
    assert code == 2
    assert stderr.startswith("error:")


def test_verify_reports_the_corrupted_frame(tmp_path, capsys):
    adv = tmp_path / "dec.txt"
    basis = random_dual_orthogonal(2, seed=8)
    BddDecoder(1e-3, n_advice=400, seed=8).fit(basis).save(adv)
    text = adv.read_text().splitlines()
    parts = text[-1].split()
    parts[0] = parts[0] + "1"
    text[-1] = " ".join(parts)
    adv.write_text("\n".join(text) + "\n")
    code, stdout, _ = run(capsys, "verify", "--advice", str(adv))
    assert code == 1
    assert "FAIL decoder-frame-identity" in stdout


def test_unknown_scheme_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["reduce", "collapse", "--lattice", "x", "--target", "0"])
    assert info.value.code == 2
