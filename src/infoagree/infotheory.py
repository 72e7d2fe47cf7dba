"""Probability distributions derived from agreement matrices, and the
entropies and mutual information built on them.

All entropies are in bits (base-2 logarithms). Zero-probability entries are
never fed to a logarithm implicitly: distributions that may contain zeros
must be passed through refine() before their entropy is requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from infoagree import _kernels
from infoagree.errors import (
    DistributionError,
    InconsistentMarginalError,
    InconsistentTotalError,
    InternalInvariantError,
    NonPositiveWeightError,
    ZeroProbabilityError,
)
from infoagree.matrix import AgreementMatrix

PROB_SUM_TOL = 1e-12
"""Absolute tolerance on a probability vector summing to 1."""

MARGINAL_TOL = 1e-9
"""Absolute per-entry tolerance when comparing a marginal against the one
implied by a joint distribution. Chosen to exceed accumulated rounding for
supports up to ~10^8 entries."""

TOTAL_TOL = 1e-12
"""Absolute tolerance between a stated weight total and the exact sum."""


@dataclass(frozen=True)
class CategoricalDistribution:
    """Finite probability distribution over opaque labels.

    labels: distinct hashable labels; class indices for marginals,
        (y, x) index pairs for joints.
    probs: matching nonnegative probabilities summing to 1 within PROB_SUM_TOL.
    """

    labels: tuple[Hashable, ...]
    probs: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise DistributionError("probabilities must form a 1-d vector")
        if len(labels) != probs.size:
            raise DistributionError(
                f"{len(labels)} labels for {probs.size} probabilities"
            )
        if len(set(labels)) != len(labels):
            raise DistributionError("labels must be distinct")
        if probs.size == 0:
            raise DistributionError("empty distribution")
        if (probs < 0.0).any():
            raise DistributionError("negative probability")
        s = float(probs.sum())
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise DistributionError(f"probabilities sum to {s!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size

    def support_size(self) -> int:
        """Number of labels carrying positive probability."""
        return int(np.count_nonzero(self.probs))


@dataclass(frozen=True)
class RefinedDistribution(CategoricalDistribution):
    """A distribution restricted to its support: every probability is > 0."""

    def __post_init__(self):
        super().__post_init__()
        if (self.probs == 0.0).any():
            raise DistributionError("refined distribution may not contain zeros")


def marginal_x(matrix: AgreementMatrix) -> CategoricalDistribution:
    """Rater X's class distribution: column sums over the grand total."""
    probs = matrix.col_sums().astype(np.float64) / float(matrix.total)
    return CategoricalDistribution(tuple(range(matrix.n)), probs)


def marginal_y(matrix: AgreementMatrix) -> CategoricalDistribution:
    """Rater Y's class distribution: row sums over the grand total."""
    probs = matrix.row_sums().astype(np.float64) / float(matrix.total)
    return CategoricalDistribution(tuple(range(matrix.n)), probs)


def joint(matrix: AgreementMatrix) -> CategoricalDistribution:
    """The joint class distribution: cell (y, x) over the grand total.

    Labels are (y, x) pairs in row-major order; component 0 is rater Y's
    class, matching the matrix orientation.
    """
    n = matrix.n
    labels = tuple((y, x) for y in range(n) for x in range(n))
    probs = matrix.counts.ravel().astype(np.float64) / float(matrix.total)
    return CategoricalDistribution(labels, probs)


def refine(dist: CategoricalDistribution) -> RefinedDistribution:
    """Restrict a distribution to its support.

    Zero-probability labels are dropped; surviving labels keep their exact
    probabilities. A valid distribution always has nonempty support, so this
    never fails.
    """
    mask = dist.probs > 0.0
    labels = tuple(lab for lab, keep in zip(dist.labels, mask) if keep)
    return RefinedDistribution(labels, dist.probs[mask])


def shannon_entropy(dist: CategoricalDistribution) -> float:
    """H = -sum(p * log2(p)) in bits.

    Well-defined only on strictly positive probabilities; raises
    ZeroProbabilityError if the distribution still contains a zero entry
    (call refine() first). The result lies in [0, log2(len(dist))] and is
    zero exactly when the support is a single label.
    """
    p = dist.probs
    if (p == 0.0).any():
        raise ZeroProbabilityError(
            "distribution contains zero probabilities; refine() it first"
        )
    h = -_kernels.xlog2_sum(p)
    return _finalize_entropy(h)


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
    if (w <= 0.0).any():
        raise NonPositiveWeightError("weights must be strictly positive")
    exact_sum = math.fsum(w)
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
    return _count_entropy(w, w.size, c)


def _count_entropy(counts: np.ndarray, support: int, total: float) -> float:
    """Entropy in bits of a count vector, by entropy_from_counts' identity.

    The one implementation of that identity, shared with measure.ia_epsilon,
    which passes counts straight from a validated matrix. Zero counts are
    structural and contribute nothing; ``support`` is the number of positive
    counts and ``total`` their sum. A support of 1 is exactly 0 bits.
    """
    if support == 1:
        return 0.0
    h = math.log2(total) - _kernels.xlog2_sum(counts) / total
    return _finalize_entropy(h)


def conditional_entropy(
    joint_dist: RefinedDistribution, given: RefinedDistribution
) -> float:
    """H(W|Z) = -sum over (z, w) pairs of p(z, w) * log2(p(z, w) / p(z)).

    ``joint_dist`` must be labelled with (z, w) pairs whose first component
    indexes ``given``. The supplied marginal is cross-checked against the
    z-marginal implied by the joint (per-entry, within MARGINAL_TOL).
    Equals H(ZW) - H(Z).
    """
    pairs = _pair_labels(joint_dist)
    p_z = dict(zip(given.labels, given.probs.tolist()))
    implied: dict[Hashable, float] = {}
    for (z, _w), p in zip(pairs, joint_dist.probs.tolist()):
        implied[z] = implied.get(z, 0.0) + p
    _check_marginal(implied, p_z, "z")
    _require_labels(implied, p_z, "z")
    h = -math.fsum(
        p * math.log2(p / p_z[z])
        for (z, _w), p in zip(pairs, joint_dist.probs.tolist())
    )
    return _finalize_entropy(h, slack=MARGINAL_TOL)


def mutual_information(
    joint_dist: RefinedDistribution,
    first: RefinedDistribution,
    second: RefinedDistribution,
) -> float:
    """MI = sum over (a, b) pairs of p(a, b) * log2(p(a, b) / (p(a) * p(b))).

    ``joint_dist`` must be labelled with (a, b) pairs; ``first`` indexes
    component 0 and ``second`` component 1. Both marginals are cross-checked
    against the ones implied by the joint. Nonnegative, zero exactly at
    independence, and symmetric in the two variables.
    """
    pairs = _pair_labels(joint_dist)
    p_a = dict(zip(first.labels, first.probs.tolist()))
    p_b = dict(zip(second.labels, second.probs.tolist()))
    implied_a: dict[Hashable, float] = {}
    implied_b: dict[Hashable, float] = {}
    for (a, b), p in zip(pairs, joint_dist.probs.tolist()):
        implied_a[a] = implied_a.get(a, 0.0) + p
        implied_b[b] = implied_b.get(b, 0.0) + p
    _check_marginal(implied_a, p_a, "first")
    _check_marginal(implied_b, p_b, "second")
    _require_labels(implied_a, p_a, "first")
    _require_labels(implied_b, p_b, "second")
    mi = math.fsum(
        p * math.log2(p / (p_a[a] * p_b[b]))
        for (a, b), p in zip(pairs, joint_dist.probs.tolist())
    )
    if -PROB_SUM_TOL < mi < 0.0:
        return 0.0
    return mi


def _pair_labels(dist: CategoricalDistribution) -> list[tuple[Hashable, Hashable]]:
    labels = list(dist.labels)
    for lab in labels:
        if not (isinstance(lab, tuple) and len(lab) == 2):
            raise DistributionError(f"joint labels must be (a, b) pairs, got {lab!r}")
    return labels


def _check_marginal(
    implied: dict[Hashable, float], supplied: dict[Hashable, float], name: str
) -> None:
    for label in implied.keys() | supplied.keys():
        gap = abs(implied.get(label, 0.0) - supplied.get(label, 0.0))
        if gap > MARGINAL_TOL:
            raise InconsistentMarginalError(
                f"{name}-marginal disagrees with the joint at label {label!r} "
                f"by {gap:.3e}"
            )


def _require_labels(
    implied: dict[Hashable, float], supplied: dict[Hashable, float], name: str
) -> None:
    # a label can slip past the tolerance check with negligible probability,
    # but the entropy sums still need its supplied value
    missing = implied.keys() - supplied.keys()
    if missing:
        raise InconsistentMarginalError(
            f"{name}-marginal is missing joint labels {sorted(map(repr, missing))}"
        )


def _finalize_entropy(h: float, slack: float = TOTAL_TOL) -> float:
    """Absorb sub-``slack`` negative rounding; anything worse is a bug."""
    if h >= 0.0:
        return h + 0.0  # normalizes -0.0
    if h >= -slack:
        return 0.0
    raise InternalInvariantError(f"entropy computed as {h!r}")
