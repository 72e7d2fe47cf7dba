"""Probability distributions of agreement matrices, and the entropies and
mutual information built on them. A distribution is an array whose indices
are its categories: a marginal is 1-d, a joint 2-d with rater Y on axis 0
and rater X on axis 1, as in the matrix. Entropies are in bits. Zero
probabilities are never fed to a logarithm implicitly: a distribution that
may hold zeros goes through refine(), which masks them out of every sum.

The sums themselves are _kernels': shannon_entropy takes _probs_entropy,
entropy_from_counts _count_entropy, and mutual_information and
conditional_entropy the blocked _xlog2_ratio_sum, with _finalize_mi and
_finalize_entropy absorbing their rounding below 0. measure.ia_strict
calls the same kernels on a matrix's counts and line sums without this
module, so its bits are those of the functions here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from infoagree import _kernels
from infoagree.errors import (
    DistributionError,
    InconsistentMarginalError,
    InconsistentTotalError,
    NonPositiveWeightError,
    WeightOverflowError,
    ZeroProbabilityError,
)
from infoagree.matrix import AgreementMatrix

PROB_SUM_TOL = 1e-12
"""Absolute tolerance on a probability array summing to 1."""

MARGINAL_TOL = 1e-9
"""Absolute per-entry tolerance between a marginal and the one implied by a
joint distribution; exceeds accumulated rounding for supports up to ~10^8."""

TOTAL_TOL = 1e-12
"""Absolute tolerance between a stated weight total and the exact sum."""

@dataclass(frozen=True, eq=False)
class CategoricalDistribution:
    """Finite probability distribution over the indices of ``probs``: a read-only
    float64 array (1-d marginal, 2-d joint), nonnegative, summing to 1 within PROB_SUM_TOL.
    Two are equal when of one class with equal probs; unhashable, as AgreementMatrix is."""

    probs: np.ndarray

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __post_init__(self):
        # always a copy, so the caller's array stays writeable and its later writes stay out
        self._adopt(np.array(self.probs, dtype=np.float64, order="C"))

    @classmethod
    def _from_owned(cls, probs: np.ndarray):
        """Validate a C-contiguous float64 array that no one else writes, and
        keep it without a copy; the public constructor copies its input instead."""
        dist = object.__new__(cls)
        dist._adopt(probs)
        return dist

    def _adopt(self, probs: np.ndarray) -> None:
        if probs.ndim not in (1, 2) or probs.size == 0:
            raise DistributionError("probabilities must form a nonempty 1-d or 2-d array")
        if probs.min() < 0.0:
            raise DistributionError("negative probability")
        s = float(probs.sum())
        if not abs(s - 1.0) <= PROB_SUM_TOL:
            raise DistributionError(f"probabilities sum to {s!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def support_size(self) -> int:
        """Number of cells carrying positive probability."""
        return int(np.count_nonzero(self.probs))


@dataclass(frozen=True, eq=False)
class RefinedDistribution(CategoricalDistribution):
    """A distribution restricted to its support, the boolean mask ``support``
    = probs > 0: sums over it skip every cell outside the mask."""

    @property
    def support(self) -> np.ndarray:
        return self.probs > 0.0


def marginal_x(matrix: AgreementMatrix) -> CategoricalDistribution:
    """Rater X's class distribution: column sums over the grand total."""
    return CategoricalDistribution._from_owned(
        matrix.col_sums().astype(np.float64) / float(matrix.total)
    )


def marginal_y(matrix: AgreementMatrix) -> CategoricalDistribution:
    """Rater Y's class distribution: row sums over the grand total."""
    return CategoricalDistribution._from_owned(
        matrix.row_sums().astype(np.float64) / float(matrix.total)
    )


def joint(matrix: AgreementMatrix) -> CategoricalDistribution:
    """The joint class distribution: the n x n cells over the grand total."""
    return CategoricalDistribution._from_owned(matrix.counts / float(matrix.total))


def refine(dist: CategoricalDistribution) -> RefinedDistribution:
    """The same probabilities with the zero cells masked out of every sum; a
    valid distribution always has nonempty support, so this never fails."""
    return RefinedDistribution._from_owned(dist.probs)  # read-only, so shared


def shannon_entropy(dist: CategoricalDistribution) -> float:
    """H = -sum(p * log2(p)) in bits: in [0, log2(dist.support_size())], and
    zero exactly when the support is a single cell. Raises
    ZeroProbabilityError if an unrefined distribution holds a zero."""
    _is_refined(dist)  # raises on an unrefined zero
    return _kernels._probs_entropy(dist.probs.ravel())  # skips zeros


def entropy_from_counts(weights: Sequence[float] | np.ndarray, total: float | None = None) -> float:
    """Entropy in bits of weights/total, computed without normalizing first:

        H = log2(c) - (1/c) * sum(w * log2(w)),   c = sum of weights.

    ``total`` defaults to the exact sum of the weights; when given it is
    cross-checked against that sum within TOTAL_TOL. Equals
    shannon_entropy(weights / c) up to rounding, but needs one division
    instead of len(weights) of them, and stays exact on integer counts.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise NonPositiveWeightError("weights must form a nonempty 1-d vector")
    if not np.isfinite(w).all():
        raise NonPositiveWeightError("weights must be finite")
    if (w <= 0.0).any():
        raise NonPositiveWeightError("weights must be strictly positive")
    try:
        exact_sum = math.fsum(w)
    except OverflowError:
        raise WeightOverflowError("weights sum past the float64 range") from None
    if total is None:
        c = exact_sum
    else:
        c = float(total)
        if not (c > 0.0):
            raise InconsistentTotalError(f"total must be positive, got {c!r}")
        if abs(exact_sum - c) > TOTAL_TOL:
            raise InconsistentTotalError(
                f"weights sum to {exact_sum!r}, stated total is {c!r}"
            )
    top = float(np.maximum.reduce(w))
    if top < 1.0:
        # below 1 each w * log2(w) may be a subnormal with few bits left; a
        # power of two moves the largest weight into [1, 2) exactly and
        # leaves the entropy as it is
        shift = 1 - math.frexp(top)[1]
        w = np.ldexp(w, shift)
        c = math.ldexp(c, shift)
    # sum(w * log2(w)) is at most c * log2(c); the factor 2 leaves room for rounding
    if math.isinf(2.0 * c * math.log2(c)):
        raise WeightOverflowError(f"weights sum to {c!r}, too large for sum(w * log2(w))")
    return _kernels._count_entropy(w, w.size, c)


def conditional_entropy(
    joint_dist: CategoricalDistribution, given: CategoricalDistribution
) -> float:
    """H(W|Z) = -sum over cells (z, w) of p(z, w) * log2(p(z, w) / p(z)) = H(ZW) - H(Z),
    with Z on the 2-d joint's axis 0; ``given`` is Z's marginal, checked against the row sums."""
    p_z = _checked_marginal(joint_dist, 1, given, "z")
    h = -_kernels._xlog2_ratio_sum(joint_dist.probs, p_z, None, _is_refined(joint_dist))
    return _kernels._finalize_entropy(h, slack=MARGINAL_TOL)


def mutual_information(
    joint_dist: CategoricalDistribution,
    first: CategoricalDistribution,
    second: CategoricalDistribution,
) -> float:
    """MI = sum over cells (a, b) of p(a, b) * log2(p(a, b) / (p(a) * p(b))): nonnegative,
    zero exactly at independence, and symmetric. ``first`` and ``second`` are the
    marginals of the 2-d joint's axes 0 and 1, each checked against the joint's sums."""
    p_a = _checked_marginal(joint_dist, 1, first, "first")
    p_b = _checked_marginal(joint_dist, 0, second, "second")
    mi = _kernels._xlog2_ratio_sum(joint_dist.probs, p_a, p_b, _is_refined(joint_dist))
    return _kernels._finalize_mi(mi)


def _checked_marginal(joint_dist, axis: int, dist, name: str) -> np.ndarray:
    """``dist``'s probabilities, once they match the 2-d joint's sums along ``axis``."""
    if joint_dist.probs.ndim != 2:
        raise DistributionError(f"a joint distribution is 2-d, not {joint_dist.probs.ndim}-d")
    implied, q = joint_dist.probs.sum(axis=axis), dist.probs
    if q.shape != implied.shape:
        raise InconsistentMarginalError(f"{name}-marginal has shape {q.shape}, not {implied.shape}")
    gap = float(np.abs(implied - q).max())
    if gap > MARGINAL_TOL:
        raise InconsistentMarginalError(f"{name}-marginal is off the joint's sums by {gap:.3e}")
    # mass below the tolerance can sit on a zero entry, which the sums divide by
    if not q.all() and implied[q == 0.0].any():
        raise InconsistentMarginalError(f"{name}-marginal is zero where the joint is not")
    return q


def _is_refined(dist: CategoricalDistribution) -> bool:
    """Whether sums over ``dist`` skip its zero cells, as a refined one's do.
    Raises ZeroProbabilityError on an unrefined zero."""
    if isinstance(dist, RefinedDistribution):
        return True
    if dist.probs.min() == 0.0:
        raise ZeroProbabilityError("distribution contains zero probabilities; refine() it first")
    return False
