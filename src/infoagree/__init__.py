"""Information agreement for two-rater classification counts.

Builds validated agreement matrices, derives their probability
distributions and entropies, and computes the information agreement
measure: mutual information over the smaller marginal entropy, extended by
continuity so that matrices containing zeros get a value too. An epsilon
oracle evaluates the defining limit numerically and double-checks the
closed form.

The package is pure Python on NumPy; the hot x*log2(x) kernel is one NumPy
routine. KERNEL_BACKEND names that only backend and is always "python".
"""

from infoagree.errors import (
    AllZeroError,
    ContainsZeroError,
    CountOverflowError,
    DimensionTooSmallError,
    DistributionError,
    EmptySweepError,
    InconsistentMarginalError,
    InconsistentTotalError,
    InfoAgreeError,
    InternalInvariantError,
    MatrixError,
    NegativeCellError,
    NonIntegerCellError,
    NonPositiveEpsilonError,
    NonPositiveWeightError,
    NotSquareError,
    ParseError,
    UnorderedEpsilonError,
    WeightOverflowError,
    ZeroProbabilityError,
)
from infoagree.infotheory import (
    CategoricalDistribution,
    RefinedDistribution,
    conditional_entropy,
    entropy_from_counts,
    joint,
    marginal_x,
    marginal_y,
    mutual_information,
    refine,
    shannon_entropy,
)
from infoagree.matrix import AgreementMatrix
from infoagree.measure import IaCase, IaResult, ia_epsilon, ia_strict
from infoagree.oracle import (
    ConvergenceConfig,
    ConvergenceReport,
    EpsilonEvaluation,
    EpsilonMatrix,
    check_convergence,
    default_convergence_config,
    eval_ia_at,
    sweep,
    zero_freed,
)

__version__ = "0.1.0"

KERNEL_BACKEND = "python"
"""The only numeric backend (NumPy); kept because benchmark results record it."""

__all__ = [
    "AgreementMatrix",
    "AllZeroError",
    "CategoricalDistribution",
    "ContainsZeroError",
    "ConvergenceConfig",
    "ConvergenceReport",
    "CountOverflowError",
    "DimensionTooSmallError",
    "DistributionError",
    "EmptySweepError",
    "EpsilonEvaluation",
    "EpsilonMatrix",
    "IaCase",
    "IaResult",
    "InconsistentMarginalError",
    "InconsistentTotalError",
    "InfoAgreeError",
    "InternalInvariantError",
    "KERNEL_BACKEND",
    "MatrixError",
    "NegativeCellError",
    "NonIntegerCellError",
    "NonPositiveEpsilonError",
    "NonPositiveWeightError",
    "NotSquareError",
    "ParseError",
    "RefinedDistribution",
    "UnorderedEpsilonError",
    "WeightOverflowError",
    "ZeroProbabilityError",
    "check_convergence",
    "conditional_entropy",
    "default_convergence_config",
    "entropy_from_counts",
    "eval_ia_at",
    "ia_epsilon",
    "ia_strict",
    "joint",
    "marginal_x",
    "marginal_y",
    "mutual_information",
    "refine",
    "shannon_entropy",
    "sweep",
    "zero_freed",
    "__version__",
]
