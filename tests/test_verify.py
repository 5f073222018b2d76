"""The umbrella release gate: every module invariant passes at desk scale."""

import numpy as np
import pytest

from latgauss.verify import (
    _CHECKS,
    _check_frame_identity,
    _fit_small_decoder,
    _rounding_probes,
    verify_suite,
)

# the verdict names in report order; `latgauss verify` prints one line each
VERDICT_NAMES = (
    "gram-schmidt-reconstruction",
    "dual-biorthogonality",
    "babai-distance-bound",
    "enumeration-oracle",
    "hkz-conditions",
    "poisson-consistency",
    "density-envelope",
    "step-contraction",
    "hessian-at-zero",
    "derivative-consistency",
    "sampler-mean-zero",
    "estimator-basics",
    "step-halving-grid",
    "decoder-frame-identity",
    "decoder-equivariance",
    "ascent-trace-contraction",
    "final-rounding-safety",
    "reduction-membership",
    "reduction-factors",
    "cut-orthogonal-decomposition",
    "coset-index",
    "coset-coverage-bound",
    "experiment-determinism",
)


@pytest.mark.parametrize("check", _CHECKS, ids=lambda check: check.__name__)
def test_release_gate_check_passes(check):
    verdict = check(None) if check is _check_frame_identity else check()
    assert verdict.ok, verdict.line()
    assert verdict.name == VERDICT_NAMES[_CHECKS.index(check)]


@pytest.fixture(scope="module")
def suite():
    return verify_suite()


def test_default_suite_passes_everywhere(suite):
    failures = [v.line() for v in suite if not v.ok]
    assert not failures, "\n".join(failures)


def test_verdict_lines_are_stable_and_named(suite):
    assert tuple(v.name for v in suite) == VERDICT_NAMES
    for v in suite:
        assert v.line().startswith(("PASS ", "FAIL "))
        assert v.name in v.line()


def test_rounding_safety_probes_the_band_inside_its_threshold():
    # the targets and the threshold are both in the target's units, so the
    # probes reach past 0.8 thr and stay within 0.9 thr
    thr, targets = _rounding_probes(_fit_small_decoder())
    norms = [float(np.linalg.norm(t)) for t in targets]
    assert 0.8 * thr < max(norms) <= 0.9 * thr
