"""Config parsing, deterministic CSV emission, and the experiment runners."""

import hashlib

import pytest

from latgauss.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _config_hash,
    parse_config,
    run_experiment,
)


def test_parse_config_reads_keys_comments_and_tolerances():
    cfg = parse_config(
        "# comment line\n"
        "experiment = contraction\n"
        "lattice = integer-identity:3\n"
        "seed = 9\n"
        "eps = 1e-4\n"
        "trials = 12  # trailing comment\n"
        "tol.extra = 0.5\n"
    )
    assert cfg.experiment == "contraction"
    assert cfg.lattice == "integer-identity:3"
    assert cfg.seed == 9 and cfg.trials == 12
    assert cfg.eps == 1e-4
    assert cfg.tolerances == {"extra": 0.5}


def test_parse_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError):
        parse_config("experiment = contraction\nwidgets = 3\n")
    with pytest.raises(ValueError):
        parse_config("seed = 1\n")
    with pytest.raises(ValueError):
        parse_config("experiment = correlate\n")
    with pytest.raises(ValueError):
        parse_config("experiment = contraction\nbroken line\n")
    with pytest.raises(ValueError, match="line 2: bad value for 'seed'"):
        parse_config("experiment = contraction\nseed = abc\n")
    with pytest.raises(ValueError, match="line 3: bad value for 'tol.band'"):
        parse_config("experiment = contraction\n\ntol.band = wide\n")
    with pytest.raises(ValueError, match="line 3: duplicate key 'trials'"):
        parse_config("experiment = contraction\ntrials = 4\ntrials = 5\n")
    with pytest.raises(ValueError, match="line 2: duplicate key 'tol.band'"):
        parse_config("tol.band = 1\ntol.band = 2\nexperiment = contraction\n")


def test_config_hash_changes_with_any_field():
    a = ExperimentConfig(experiment="contraction", seed=1)
    b = ExperimentConfig(experiment="contraction", seed=2)
    assert len(_config_hash(a)) == 12
    assert _config_hash(a) != _config_hash(b)
    assert _config_hash(a) == _config_hash(ExperimentConfig(experiment="contraction", seed=1))


def test_config_hash_of_every_field_is_pinned():
    # every field set away from its default, plus one tolerance; the hash is
    # the config column of every CSV row, so its bytes must not drift
    cfg = parse_config(
        "experiment = density-grid\nlattice = random-integer:3\nseed = 7\neps = 0.01\n"
        "alpha = 0.2\ntau = 1.5\nn_advice = 99\ntrials = 11\ngrid_steps = 5\n"
        "tol.band = 2e-09\n"
    )
    assert _config_hash(cfg) == "4c7e17ee5a06"


def test_every_runner_is_registered():
    assert set(EXPERIMENTS) == {
        "decode-success", "estimator-error", "contraction", "reduction-audit",
        "sparsify-audit", "local-maxima", "smoothing-profile", "density-grid",
    }


def test_csv_rows_carry_the_config_hash_and_seed():
    cfg = ExperimentConfig(
        experiment="contraction", lattice="integer-identity:2", seed=3,
        eps=1e-3, trials=5,
    )
    report = run_experiment(cfg)
    assert report.ok
    lines = report.csv().splitlines()
    assert lines[0].endswith("config,seed")
    tag = _config_hash(cfg)
    for row in lines[1:]:
        assert row.endswith(f"{tag},3")
    assert len(lines) == 6


def test_run_experiment_accepts_config_text():
    report = run_experiment(
        "experiment = smoothing-profile\n"
        "lattice = integer-identity:2\n"
        "grid_steps = 3\n"
    )
    assert report.ok
    names = [a.name for a in report.assertions]
    assert "smoothing-sandwich" in names
    assert "normalized-width-monotone" in names
    assert all(line.startswith("PASS") for line in report.summary().splitlines())


def test_decode_success_runner_is_deterministic():
    text = (
        "experiment = decode-success\n"
        "lattice = random-dual-orthogonal:2\n"
        "seed = 11\n"
        "eps = 1e-3\n"
        "n_advice = 300\n"
        "trials = 3\n"
    )
    a = run_experiment(text)
    b = run_experiment(text)
    assert a.csv() == b.csv()
    assert a.ok


def test_estimator_error_runner_decays_with_more_advice():
    report = run_experiment(
        "experiment = estimator-error\n"
        "lattice = integer-identity:2\n"
        "seed = 5\n"
        "eps = 1e-3\n"
        "n_advice = 64\n"
        "trials = 40\n"
        "tol.octaves = 3\n"
    )
    assert report.ok
    assert report.columns[:2] == ("octave", "n_advice")


def test_reduction_audit_runner_checks_exact_factors():
    report = run_experiment(
        "experiment = reduction-audit\n"
        "lattice = random-integer:3\n"
        "seed = 2\n"
        "trials = 6\n"
        "tol.per-base = 3\n"
    )
    assert report.ok
    names = {a.name for a in report.assertions}
    assert names == {"kannan-factor", "master-factor", "promise-factor",
                     "block-dimension-sum"}


def test_reduction_audit_csv_is_pinned():
    # the configuration the verify suite runs; the digest pins every reducer
    # output (opt and out squared distances per trial and scheme)
    report = run_experiment(
        "experiment = reduction-audit\nlattice = random-integer:3,bound=5\ntrials = 10\n"
    )
    digest = hashlib.sha256(report.csv().encode()).hexdigest()
    assert digest == "4942a467442d9d0e0f730dd52f1c3785514defa673f598c2df79efa63fff5719"


# small configurations of the runners that draw advice, decode, and sparsify;
# the digests pin the sampler, the decoder and the coset reduction end to end
PINNED_CSVS = {
    "sparsify-audit": (
        "experiment = sparsify-audit\nlattice = random-integer:3\nseed = 4\ntau = 1.0\n"
        "trials = 30\ntol.singles = 20\ntol.runs = 2\n",
        "bf88e3069d535717120b1d39834dbe451a13085b1d2160983e1b3e1dc88d45db",
    ),
    "estimator-error": (
        "experiment = estimator-error\nlattice = integer-identity:2\nseed = 5\neps = 1e-3\n"
        "n_advice = 64\ntrials = 40\ntol.octaves = 3\n",
        "03dfdffcdd542984630aa953db6e08bf8415ddd8d72fcf78ed6d8411856463ae",
    ),
    "decode-success": (
        "experiment = decode-success\nlattice = integer-identity:3\ntrials = 10\n",
        "8df18688c9c0503db59d7b1e2e48355d0452c7b1f9a946dab72b25f8021434f7",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSVS))
def test_experiment_csv_is_pinned(name):
    text, want = PINNED_CSVS[name]
    report = run_experiment(text)
    assert report.ok
    assert hashlib.sha256(report.csv().encode()).hexdigest() == want


def test_sparsify_audit_runner():
    report = run_experiment(
        "experiment = sparsify-audit\n"
        "lattice = random-integer:3\n"
        "seed = 4\n"
        "tau = 1.0\n"
        "trials = 30\n"
        "tol.singles = 20\n"
        "tol.runs = 2\n"
    )
    assert report.ok


def test_density_grid_covers_the_envelope():
    report = run_experiment(
        "experiment = density-grid\n"
        "lattice = integer-identity:2\n"
        "eps = 1e-3\n"
        "grid_steps = 7\n"
    )
    assert report.ok
    assert report.columns[:3] == ("x", "y", "f")


def test_local_maxima_runner_flags_the_shallow_peak():
    # rank 7 is the smallest checkerboard whose deep hole is a strict
    # interior maximum; the density there is still far below 1
    report = run_experiment(
        "experiment = local-maxima\n"
        "lattice = checkerboard:7\n"
    )
    got = {a.name: a.ok for a in report.assertions}
    assert got["gradient-zero"]
    assert got["hessian-negative-definite"]
    assert not report.ok
    assert any(line.startswith("FAIL density-near-one") for line in report.summary().splitlines())
