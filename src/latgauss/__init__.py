"""Lattice decoding with periodic Gaussian gradient ascent.

Exact rational lattice algebra, certified periodic Gaussian evaluation,
dual-Gaussian advice estimators, a bounded-distance decoder, and the
promise-query reductions built on top of them.
"""

from .advice import GaussianAdvice, advice_count
from .decoder import (
    BddDecoder,
    FrameAbort,
    bdd_param_plan,
    decoding_radius,
)
from .enumeration import (
    BudgetExceeded,
    closest_vector,
    enumerate_ball,
    hkz_reduce,
    lambda1,
    shortest_vector,
)
from .experiments import run_experiment
from .gaussian import (
    PeriodicGaussian,
    decoding_width,
    density_envelope,
    gaussian_mass,
    periodic_gaussian_interval,
    sample_lattice_gaussian,
    smoothing_parameter,
)
from .generators import (
    checkerboard,
    generate_lattice,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from .lattice import (
    LatticeBasis,
    lattice_coefficients,
    nearest_plane,
    project_away_from_prefix,
    project_lattice,
    read_basis,
    sqdist,
    sqnorm,
    write_basis,
)
from .reductions import (
    KannanReducer,
    MasterReducer,
    PromiseReducer,
    SparsifyReducer,
    bdd_inner,
    oracle_inner,
)
from .rng import stream
from .verify import verify_suite

__version__ = "0.1.0"

__all__ = [
    "BddDecoder",
    "BudgetExceeded",
    "FrameAbort",
    "GaussianAdvice",
    "KannanReducer",
    "LatticeBasis",
    "MasterReducer",
    "PeriodicGaussian",
    "PromiseReducer",
    "SparsifyReducer",
    "advice_count",
    "bdd_inner",
    "bdd_param_plan",
    "checkerboard",
    "closest_vector",
    "decoding_radius",
    "decoding_width",
    "density_envelope",
    "enumerate_ball",
    "gaussian_mass",
    "generate_lattice",
    "hkz_reduce",
    "integer_identity",
    "lambda1",
    "lattice_coefficients",
    "nearest_plane",
    "oracle_inner",
    "periodic_gaussian_interval",
    "project_away_from_prefix",
    "project_lattice",
    "random_dual_orthogonal",
    "random_integer",
    "read_basis",
    "run_experiment",
    "sample_lattice_gaussian",
    "shortest_vector",
    "smoothing_parameter",
    "sqdist",
    "sqnorm",
    "stream",
    "verify_suite",
    "write_basis",
]
