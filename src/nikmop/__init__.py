"""Mixed multiple orthogonal polynomials for pairs of Nikishin systems.

Submodules: fixed (the fixed-point number format, Cauchy sums and forms
in ints), measures (weights, Gauss rules, chained Cauchy transforms),
mop (moment systems, forms, zeros), diagnostics (structure checks),
equilibrium (vector potential problems), asymptotics (nth-root and ratio
harnesses), hermite_pade (matrix rational approximation, biorthogonality),
reporting (records, CSV/JSON), cli (experiment runner).
"""
from .measures import (
    DiscretizedMeasure,
    MeasureError,
    NikishinSystem,
    WeightSpec,
    build_gauss_rule,
    check_cauchy_identity,
    nested_cauchy_transform,
)
from .mop import (
    IndexPair,
    MopSolution,
    NikishinPair,
    NormalityViolation,
    ZeroCountMismatch,
    ZeroSet,
    assemble_moment_system,
    compute_varying_data,
    decreasing_indices,
    extract_Q,
    solve_mop,
)

__all__ = [
    "DiscretizedMeasure",
    "IndexPair",
    "MeasureError",
    "MopSolution",
    "NikishinPair",
    "NikishinSystem",
    "NormalityViolation",
    "WeightSpec",
    "ZeroCountMismatch",
    "ZeroSet",
    "assemble_moment_system",
    "build_gauss_rule",
    "check_cauchy_identity",
    "compute_varying_data",
    "decreasing_indices",
    "extract_Q",
    "nested_cauchy_transform",
    "solve_mop",
]

__version__ = "0.1.0"
