"""Information agreement for two-rater classification counts.

Builds validated agreement matrices, derives their probability
distributions and entropies, and computes the information agreement
measure: mutual information over the smaller marginal entropy, extended by
continuity so that matrices containing zeros get a value too. An epsilon
oracle evaluates the defining limit numerically and double-checks the
closed form.

Importing the package loads the closed form (measure) and what it needs.
The distribution API (infotheory) and the epsilon oracle (oracle) load on
first use of one of their names, listed in _ON_FIRST_USE, so a process
that only computes values does not pay for compiling them.
``from infoagree import *`` binds every name in __all__, and so loads both.

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
from infoagree.matrix import AgreementMatrix
from infoagree.measure import IaCase, IaResult, ia_epsilon, ia_strict

# Loaded on first use (PEP 562): importing the package, or computing a
# value with ia_epsilon, loads neither module.
_ON_FIRST_USE = {
    "infotheory": (
        "CategoricalDistribution",
        "RefinedDistribution",
        "conditional_entropy",
        "entropy_from_counts",
        "joint",
        "marginal_x",
        "marginal_y",
        "mutual_information",
        "refine",
        "shannon_entropy",
    ),
    "oracle": (
        "ConvergenceConfig",
        "ConvergenceReport",
        "EpsilonEvaluation",
        "EpsilonMatrix",
        "check_convergence",
        "default_convergence_config",
        "eval_ia_at",
        "sweep",
        "zero_freed",
    ),
}
_HOME = {name: module for module, names in _ON_FIRST_USE.items() for name in names}

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


def __getattr__(name: str):
    import sys

    home = name if name in _ON_FIRST_USE else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the path that
    # python -X importtime reports
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if home == name:  # the submodule itself, as importing it binds it here
        return module
    value = globals()[name] = getattr(module, name)  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_ON_FIRST_USE))
