"""Lattice decoding with periodic Gaussian gradient ascent.

Exact rational lattice algebra, certified periodic Gaussian evaluation,
dual-Gaussian advice estimators, a bounded-distance decoder, and the
promise-query reductions built on top of them.
"""

from .advice import (
    GaussianAdvice,
    advice_count,
    default_denom_floor,
)
from .decoder import (
    BddDecoder,
    DecodeResult,
    FrameAbort,
    bdd_param_plan,
    decoding_radius,
    iteration_count,
)
from .enumeration import (
    BallPoints,
    BudgetExceeded,
    closest_vector,
    enumerate_ball,
    hkz_reduce,
    lambda1,
    shortest_vector,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    parse_config,
    run_experiment,
)
from .gaussian import (
    CertifiedSum,
    PeriodicGaussian,
    decoding_width,
    density_envelope,
    gaussian_mass,
    periodic_gaussian_interval,
    sample_lattice_gaussian,
    smoothing_parameter,
)
from .generators import (
    LatticeGeneratorSpec,
    checkerboard,
    generate_lattice,
    integer_identity,
    random_dual_orthogonal,
    random_integer,
)
from .lattice import (
    LatticeBasis,
    format_basis,
    lattice_coefficients,
    nearest_plane,
    parse_basis,
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
    SparseCoset,
    SparsifyReducer,
    bdd_inner,
    oracle_inner,
    sparse_coset_sample,
)
from .rng import stream
from .verify import verify_suite

__version__ = "0.1.0"

__all__ = [
    "BallPoints",
    "BddDecoder",
    "BudgetExceeded",
    "CertifiedSum",
    "DecodeResult",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "FrameAbort",
    "GaussianAdvice",
    "KannanReducer",
    "LatticeBasis",
    "LatticeGeneratorSpec",
    "MasterReducer",
    "PeriodicGaussian",
    "PromiseReducer",
    "SparseCoset",
    "SparsifyReducer",
    "advice_count",
    "bdd_inner",
    "bdd_param_plan",
    "checkerboard",
    "closest_vector",
    "decoding_radius",
    "decoding_width",
    "default_denom_floor",
    "density_envelope",
    "enumerate_ball",
    "format_basis",
    "gaussian_mass",
    "generate_lattice",
    "hkz_reduce",
    "integer_identity",
    "iteration_count",
    "lambda1",
    "lattice_coefficients",
    "nearest_plane",
    "oracle_inner",
    "parse_basis",
    "parse_config",
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
    "sparse_coset_sample",
    "sqdist",
    "sqnorm",
    "stream",
    "verify_suite",
    "write_basis",
]
