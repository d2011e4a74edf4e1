"""Exact decomposition matrices for cyclotomic Brauer algebras.

The package computes, in exact rational arithmetic, the decomposition
matrices of cyclotomic Brauer (Nazarov-Wenzl) algebras with rational
parameters: admissibility of the parameter family, block-size selection and
parameter extension, weight combinatorics for a type-D parabolic category,
antispherical Kazhdan-Lusztig canonical bases, greedy tilting decomposition,
and level truncation — cross-validated at level one against a brute-force
diagram-algebra oracle.
"""

from .combinat import (
    LambdaIndex,
    content_sequence,
    conjugate,
    double_factorial,
    enumerate_lambda,
    updown_count,
    updown_count_table,
    updown_tableaux,
)
from .params import (
    ParamConfig,
    RetryExhausted,
    build_config,
    extend_parameters,
    is_r_disjoint,
    omega_series,
    select_block_sizes,
    simple_param_condition,
    verify_disjoint_extension,
)
from .weights import (
    WeightContext,
    enumerate_F,
    family_table,
    hat,
    lambda_c,
    phiA_condition,
    psi_sets,
    tilde,
)
from .kl import (
    PINNED_CONJUGATE_CONVENTION,
    PINNED_KL_CONVENTION,
    Block,
    CanonicalBasisEngine,
    ClosedWorldViolation,
    UnsupportedBlock,
    partition_into_blocks,
    resolve_convention,
    singular_reduction_table,
    tilting_table,
)
from .pipeline import (
    NegativeResidual,
    SaturationNotEstablished,
    content_mismatches,
    decomposition_report,
    simple_dimensions,
    tilting_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CanonicalBasisEngine",
    "ClosedWorldViolation",
    "LambdaIndex",
    "NegativeResidual",
    "ParamConfig",
    "RetryExhausted",
    "SaturationNotEstablished",
    "UnsupportedBlock",
    "WeightContext",
    "build_config",
    "conjugate",
    "content_mismatches",
    "content_sequence",
    "decomposition_report",
    "double_factorial",
    "enumerate_F",
    "enumerate_lambda",
    "extend_parameters",
    "family_table",
    "hat",
    "is_r_disjoint",
    "lambda_c",
    "omega_series",
    "partition_into_blocks",
    "phiA_condition",
    "psi_sets",
    "PINNED_CONJUGATE_CONVENTION",
    "PINNED_KL_CONVENTION",
    "resolve_convention",
    "select_block_sizes",
    "simple_dimensions",
    "simple_param_condition",
    "singular_reduction_table",
    "tilde",
    "tilting_decomposition",
    "tilting_table",
    "updown_count",
    "updown_count_table",
    "updown_tableaux",
    "verify_disjoint_extension",
]
