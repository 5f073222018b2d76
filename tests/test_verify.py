"""The umbrella release gate: every module invariant passes at desk scale."""

import pytest

from latgauss.verify import _CHECKS, _check_frame_identity, verify_suite

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
