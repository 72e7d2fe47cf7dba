"""Probability distributions of agreement matrices, and the entropies and
mutual information built on them. A distribution is an array whose indices
are its categories: a marginal is 1-d, a joint 2-d with rater Y on axis 0
and rater X on axis 1, as in the matrix. Entropies are in bits. Zero
probabilities are never fed to a logarithm implicitly: a distribution that
may hold zeros goes through refine(), which masks them out of every sum.
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
    InternalInvariantError,
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

@dataclass(frozen=True)
class CategoricalDistribution:
    """Finite probability distribution over the indices of ``probs``: a read-only
    float64 array (1-d marginal, 2-d joint), nonnegative, summing to 1 within PROB_SUM_TOL."""

    probs: np.ndarray

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


@dataclass(frozen=True)
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
    return _finalize_entropy(-_kernels.xlog2_sum(dist.probs.ravel()))  # skips zeros


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
    return _count_entropy(w, w.size, c)


def _count_entropy(
    counts: np.ndarray, support: int, total: float, top: int | None = None
) -> float:
    """Entropy in bits of a count vector, by entropy_from_counts' identity.

    The one implementation of that identity, shared with measure.ia_epsilon,
    which passes counts straight from a validated matrix. Zero counts are
    structural and contribute nothing; ``support`` is the number of positive
    counts, ``total`` their sum and ``top``, when known, the largest count.
    A support of 1 is exactly 0 bits.

    Integer counts whose largest value is below the support take the sum
    of c * log2(c) from their histogram, which is then shorter than the
    counts. As max >= mean = total / support, a total of support**2 or more
    rules that out before the maximum is looked at. The choice depends only
    on the multiset of positive counts, so equal multisets (a degenerate
    matrix's cells and its one non-null row or column, or a matrix's cells
    and its transpose's) give equal bits.
    """
    if support == 1:
        return 0.0
    if counts.dtype == np.uint64 and total < support * support:
        if top is None:
            top = int(np.maximum.reduce(counts, axis=None))
        if top < support:
            h = math.log2(total) - _kernels.xlog2_sum_hist(counts, top) / total
            return _finalize_entropy(h)
    h = math.log2(total) - _kernels.xlog2_sum(counts, support) / total
    return _finalize_entropy(h)


def conditional_entropy(
    joint_dist: CategoricalDistribution, given: CategoricalDistribution
) -> float:
    """H(W|Z) = -sum over cells (z, w) of p(z, w) * log2(p(z, w) / p(z)) = H(ZW) - H(Z),
    with Z on the 2-d joint's axis 0; ``given`` is Z's marginal, checked against the row sums."""
    p_z = _checked_marginal(joint_dist, 1, given, "z")
    h = -_xlog2_ratio_sum(joint_dist.probs, p_z, None, _is_refined(joint_dist))
    return _finalize_entropy(h, slack=MARGINAL_TOL)


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
    mi = _xlog2_ratio_sum(joint_dist.probs, p_a, p_b, _is_refined(joint_dist))
    return 0.0 if -PROB_SUM_TOL < mi < 0.0 else mi


def _mutual_information_of_counts(
    matrix: AgreementMatrix, first: CategoricalDistribution, second: CategoricalDistribution
) -> float:
    """mutual_information(joint(matrix), first, second), bit for bit, for a
    positive ``matrix`` and its own marginals marginal_y and marginal_x, with
    no joint: each row block of p is the counts over the total, divided
    just as joint() divides them. The marginals go unchecked, as they are
    the matrix's exact line sums over the same total."""
    mi = _xlog2_ratio_sum(matrix.counts, first.probs, second.probs, total=float(matrix.total))
    return 0.0 if -PROB_SUM_TOL < mi < 0.0 else mi


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


def _xlog2_ratio_sum(
    cells: np.ndarray,
    a: np.ndarray,
    b: np.ndarray | None,
    refined: bool = False,
    total: float | None = None,
) -> float:
    """Sum of p[i, j] * log2(p[i, j] / a[i] / b[j]) over the cells of a 2-d p;
    with ``b`` None, of p[i, j] * log2(p[i, j] / a[i]).

    p comes from one of two sources. Without ``total``, p is ``cells``
    itself, a joint distribution's probabilities, sliced a block at a time.
    With ``total``, ``cells`` are positive counts, and each block of p is
    formed as counts / total in a second scratch buffer; those are the bits
    joint() would hold, so the sum is the same.

    The rows are taken in blocks of about _kernels._SLICE_CELLS cells, each
    worked in reused scratch of 256 KiB and summed on its own, and the
    blocks' sums are added in row order. With ``refined``, the support p > 0 is masked a block at a
    time in one reused mask. So no temporary has p's shape. A masked cell
    has p = 0 and a ratio of 1, so a block's sum adds nothing for it.
    NumPy's pairwise sum, unlike a BLAS dot product, gives the same bits
    for any thread count.
    """
    rows, cols = cells.shape
    step = max(1, _kernels._SLICE_CELLS // cols)
    scratch = np.empty((min(step, rows), cols))
    probs = None if total is None else np.empty(scratch.shape)
    support = np.empty(scratch.shape, dtype=bool) if refined else None
    acc = 0.0
    for start in range(0, rows, step):
        block = cells[start : start + step]
        if probs is not None:
            block = np.divide(block, total, out=probs[: len(block)])
        ratio = scratch[: len(block)]
        where = True
        if refined:
            where = np.greater(block, 0.0, out=support[: len(block)])
            ratio.fill(1.0)
        np.divide(block, a[start : start + step, None], out=ratio, where=where)
        if b is not None:
            np.divide(ratio, b, out=ratio, where=where)
        np.log2(ratio, out=ratio, where=where)
        np.multiply(block, ratio, out=ratio)
        acc += float(np.add.reduce(ratio, axis=None))
    return acc


def _finalize_entropy(h: float, slack: float = TOTAL_TOL) -> float:
    """Absorb sub-``slack`` negative rounding; anything worse is a bug."""
    if h >= 0.0:
        return h + 0.0  # normalizes -0.0
    if h >= -slack:
        return 0.0
    raise InternalInvariantError(f"entropy computed as {h!r}")
