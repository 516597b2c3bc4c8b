"""Dyadic trace-inequality lab.

Piecewise-constant fields and measures on a truncated dyadic grid,
the fractional maximal/integral operators acting on them, Morrey-type
norm scans, stopping-time decompositions, testing constants, and a
seeded experiment harness that scores each inequality as a ratio.
"""

from .errors import (
    AtomicPowerUndefined,
    BadExponent,
    BadKind,
    ComplexityRefusal,
    IoFailure,
    LabError,
    NegativeValue,
    NoParent,
    NonFinite,
    NotAPrincipalCube,
    OutOfRangeCube,
    OutsideRoot,
    RegistryMiss,
    RootMismatch,
    ShapeMismatch,
    ZeroMeasure,
)
from .grid import (
    CubeAddr,
    CubeStats,
    LeafField,
    LeafMeasure,
    RootSpec,
    TreeAggregate,
    aggregate,
    cube_stats,
    enlarged_sum,
    ingest,
    lebesgue_measure,
    payload,
    read_input,
)
from .operators import (
    KernelWeight,
    dyadic_integral_operator,
    fractional_maximal,
    kernel_integral,
    mu_maximal,
    multilinear_maximal,
    sparse_integral_operator,
)
from .norms import (
    ExponentProfile,
    SupResult,
    lebesgue_norm,
    modified_morrey_norm,
    morrey_norm,
    product_morrey_norm,
    radon_morrey_norm,
)
from .decompositions import (
    ChildClassification,
    CoronaForest,
    SparseFamily,
    build_principal_cubes,
    build_sparse_family,
    classify_children,
    corona_projection,
    sparse_dominate,
    stopping_parent,
    verify_sparse,
)
from .constants import (
    ConstantReport,
    a0_constant,
    adams_constant,
    ap_characteristic,
    condition_d_bound,
    condition_d_ratio,
    cq_constant,
    cq_supremum,
    ks_testing_constant,
)
from .generators import generate_input
from .registry import evaluate_inequality, lookup, registry_ids
from .harness import ExperimentSpec, RatioReport, run_trial, sweep, verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
