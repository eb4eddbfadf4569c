"""Target-population treatment effect estimation via calibration weighting.

The package provides entropy-tilting calibration weights that exactly
balance covariate moments between treatment arms and between a study and a
target sample, doubly-robust alternatives (TMLE and augmented estimators),
M-estimation sandwich inference, and a Monte Carlo simulation harness.
"""

from .data import (
    BalanceMatrix,
    BalanceSpec,
    Dataset,
    build_balance_matrix,
    effective_sample_size,
    export_scores,
    load_dataset_csv,
    standardized_mean_differences,
    target_moments,
)
from .estimators import EstimatorKind, Fits, TauEstimate, compute_tau
from .inference import (
    confidence_interval,
    estimate_with_ci,
    influence_variance,
    sandwich_variance_fusion,
    sandwich_variance_transport,
)
from .solver import (
    DualSolution,
    EntropyProblem,
    assemble_ate_benchmark,
    assemble_fusion,
    assemble_sampling,
    assemble_transport,
    solve_entropy_dual,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceMatrix",
    "BalanceSpec",
    "Dataset",
    "DualSolution",
    "EntropyProblem",
    "EstimatorKind",
    "Fits",
    "TauEstimate",
    "assemble_ate_benchmark",
    "assemble_fusion",
    "assemble_sampling",
    "assemble_transport",
    "build_balance_matrix",
    "compute_tau",
    "confidence_interval",
    "effective_sample_size",
    "estimate_with_ci",
    "export_scores",
    "influence_variance",
    "load_dataset_csv",
    "sandwich_variance_fusion",
    "sandwich_variance_transport",
    "solve_entropy_dual",
    "standardized_mean_differences",
    "target_moments",
    "__version__",
]
