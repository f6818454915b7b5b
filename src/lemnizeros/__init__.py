"""Zeros of the hypergeometric family F_n and their lemniscate limit.

The package builds the degree-n polynomials with exact rational
coefficients, computes and certifies all their complex zeros at configurable
precision, explores the steepest-path integral representations behind the
asymptotics, and measures how the zeros crowd onto the section of
|z(1-z)^2| = 4/27 with Re(z) > 1/3 as n grows.
"""

from .exact import (
    ExactPolynomial,
    build_polynomial,
    gamma_ratio_exact,
    pochhammer,
)
from .numerics import (
    PrecisionConfig,
    PrecisionExhaustedError,
    f_eval,
    principal_sqrt,
    to_mpc,
    to_mpf,
)
from .rootfinder import CertificationError, RootSet, certify, find_roots, initial_points
from .geometry import (
    LevelField,
    basin_classify,
    divides_and_level_field,
)
from .paths import (
    PathError,
    SteepestPath,
    halfplane_bound_check,
    integral_full,
    segment_integral,
    tail_integral,
    trace_path,
    zero_equation_residual,
)
from .analysis import (
    LemmaReport,
    LemniscateReport,
    convergence_report,
    figure_zero_plot,
    lemma_reports,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ExactPolynomial",
    "LemmaReport",
    "LemniscateReport",
    "LevelField",
    "PathError",
    "PrecisionConfig",
    "PrecisionExhaustedError",
    "RootSet",
    "SteepestPath",
    "basin_classify",
    "build_polynomial",
    "certify",
    "convergence_report",
    "divides_and_level_field",
    "f_eval",
    "figure_zero_plot",
    "find_roots",
    "gamma_ratio_exact",
    "initial_points",
    "integral_full",
    "lemma_reports",
    "pochhammer",
    "principal_sqrt",
    "segment_integral",
    "tail_integral",
    "to_mpc",
    "to_mpf",
    "trace_path",
    "zero_equation_residual",
]
