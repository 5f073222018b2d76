"""Process-wide knobs.

Enumeration is the only potentially unbounded computation in the package, so
its node budget is centralized here. The environment variable LATGAUSS_BUDGET
overrides the default for a whole run.
"""

import os

DEFAULT_ENUM_BUDGET = 10_000_000

# probability mass the discrete Gaussian sample table must cover
SAMPLER_MASS_FLOOR = 1.0 - 2.0 ** -40


def enum_budget(override=None):
    """Node budget for a single enumeration call."""
    if override is not None:
        return int(override)
    env = os.environ.get("LATGAUSS_BUDGET")
    if env:
        return int(env)
    return DEFAULT_ENUM_BUDGET
