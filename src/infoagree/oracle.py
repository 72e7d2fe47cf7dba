"""Numerical verification of the closed form via the epsilon limit.

The agreement value of a matrix with zeros is defined as the limit, for
epsilon going to 0 from above, of the plain measure applied to the matrix
with every zero replaced by epsilon. This module instantiates that matrix
at concrete epsilon values, evaluates the measure directly from the
definitions (normalize, H = -sum(p * log2 p), ratio), and checks that the
sequence approaches a target.

Deliberately independent of measure.py: nothing here touches the closed
form, the refined-count entropy identity, or the shared kernels, so a bug
in one path cannot hide in the other.

Convergence is fast where no marginal degenerates (error of order
epsilon * log(1/epsilon)) and logarithmically slow where one does (error
of order 1/log(1/epsilon)); the default tolerances below reflect the two
regimes. The degenerate bound of 0.1 was frozen from a worst-case scan of
single-column matrices with n <= 10 at epsilon = 1e-12, whose largest
observed gap is 0.0963.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from infoagree.errors import (
    EmptySweepError,
    InternalInvariantError,
    NonPositiveEpsilonError,
)
from infoagree.matrix import AgreementMatrix

REGULAR_FINAL_TOL = 1e-6
"""Default final-gap bound for matrices with at least two non-null rows and
columns, at the default smallest epsilon of 1e-12."""

DEGENERATE_FINAL_TOL = 0.1
"""Default final-gap bound for single-non-null-column (or row) matrices at
epsilon = 1e-12; see module docstring for how it was frozen."""

TAIL_SLACK = 1e-12
"""Slack allowed when testing the gap tail for monotone shrinkage."""

DEFAULT_EPS_GRID = tuple(10.0**-k for k in range(2, 13))
"""Geometric sweep grid, 1e-2 down to 1e-12."""

CANCELLATION_TOL = 1e-3
"""How far outside [0, 1] an evaluation may land before it is treated as a
bug rather than rounding. The definition-form value divides the cancellation
error of two order-one entropies by the smallest marginal entropy, which at
the supported epsilons (>= 1e-12) can reach roughly 1e-4 when the true value
sits at an endpoint; beyond this band something is genuinely wrong."""


@dataclass(frozen=True)
class EpsilonMatrix:
    """A matrix's cells with every zero replaced by a concrete epsilon > 0."""

    base: AgreementMatrix
    epsilon: float
    cells: np.ndarray  # float64 (n, n), strictly positive, read-only


@dataclass(frozen=True)
class EpsilonEvaluation:
    """The measure and entropies of one epsilon-instantiated matrix."""

    epsilon: float
    ia_value: float
    h_x: float
    h_y: float
    h_xy: float


@dataclass(frozen=True)
class ConvergenceConfig:
    final_tol: float
    require_shrinking_tail: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Gap diagnostics of a sweep against a target value.

    tail_shrinking: the last gap improves on the first and the final three
        gaps are non-increasing (within TAIL_SLACK).
    within_final_tol: the last gap is at most config.final_tol.
    passed: within_final_tol, and tail_shrinking too when required.
    """

    target: float
    gaps: tuple[float, ...]
    tail_shrinking: bool
    within_final_tol: bool
    passed: bool


def zero_freed(matrix: AgreementMatrix, eps: float) -> EpsilonMatrix:
    """Replace every zero cell with ``eps`` (> 0); other cells are untouched."""
    eps = float(eps)
    if not (eps > 0.0 and math.isfinite(eps)):  # also rejects NaN
        raise NonPositiveEpsilonError(f"epsilon must be positive, got {eps!r}")
    cells = matrix.counts.astype(np.float64)
    cells[cells == 0.0] = eps
    cells.setflags(write=False)
    return EpsilonMatrix(base=matrix, epsilon=eps, cells=cells)


def eval_ia_at(em: EpsilonMatrix) -> EpsilonEvaluation:
    """The measure of the epsilon matrix, straight from the definitions:
    normalize the cells to a joint distribution, take the three entropies,
    divide the mutual information by the smaller marginal entropy.
    """
    p = np.empty_like(em.cells, dtype=np.float64)
    return _evaluate(em.cells, em.epsilon, p, np.empty_like(p))


def _evaluate(
    cells: np.ndarray, epsilon: float, p: np.ndarray, plogp: np.ndarray
) -> EpsilonEvaluation:
    """eval_ia_at on strictly positive float cells, writing the joint
    distribution into ``p`` and its ``p * log2 p`` terms into ``plogp``
    (float64 buffers of the cells' shape and memory layout, overwritten;
    the sums, and so the last bits, depend on that layout)."""
    s = float(cells.sum())
    np.divide(cells, s, out=p)
    p_x = p.sum(axis=0)
    p_y = p.sum(axis=1)
    h_x = float(-(p_x * np.log2(p_x)).sum())
    h_y = float(-(p_y * np.log2(p_y)).sum())
    np.log2(p, out=plogp)
    plogp *= p
    h_xy = float(-plogp.sum())
    value = (h_x + h_y - h_xy) / min(h_x, h_y)
    if not 0.0 <= value <= 1.0:
        if not -CANCELLATION_TOL <= value <= 1.0 + CANCELLATION_TOL:
            raise InternalInvariantError(f"epsilon-matrix agreement {value!r}")
        value = min(1.0, max(0.0, value))
    return EpsilonEvaluation(
        epsilon=epsilon, ia_value=value, h_x=h_x, h_y=h_y, h_xy=h_xy
    )


def sweep(
    matrix: AgreementMatrix, eps_values: Sequence[float]
) -> list[EpsilonEvaluation]:
    """Evaluate the measure at each epsilon, given in strictly decreasing order.

    Each result equals ``eval_ia_at(zero_freed(matrix, e))``. The whole grid
    shares one float copy of the counts, whose zero cells are overwritten
    with each epsilon in turn, and two scratch buffers of the same size.
    """
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise EmptySweepError("no epsilon values to sweep")
    for e in eps_list:
        if not e > 0.0:
            raise NonPositiveEpsilonError(f"epsilon must be positive, got {e!r}")
    for prev, cur in zip(eps_list, eps_list[1:]):
        if cur >= prev:
            raise ValueError("epsilon values must be strictly decreasing")
    # zero_freed's rejection of inf, made once: after the ordering check only
    # the first point can be inf, and [1.0, inf] stays an ordering error
    if not math.isfinite(eps_list[0]):
        raise NonPositiveEpsilonError(f"epsilon must be positive, got {eps_list[0]!r}")
    # astype makes a fresh C- or F-contiguous array in the layout zero_freed
    # gives, so its memory-order ravel is a view to write the zeros through
    cells = matrix.counts.astype(np.float64)
    flat = cells.ravel(order="K")
    zeros = np.flatnonzero(flat == 0.0)
    p = np.empty_like(cells)
    plogp = np.empty_like(cells)
    evaluations = []
    for e in eps_list:
        flat[zeros] = e
        evaluations.append(_evaluate(cells, e, p, plogp))
    return evaluations


def check_convergence(
    evaluations: Sequence[EpsilonEvaluation],
    target: float,
    config: ConvergenceConfig,
) -> ConvergenceReport:
    """Compare a sweep's values against ``target`` and judge the tail."""
    if not evaluations:
        raise EmptySweepError("cannot judge convergence of an empty sweep")
    gaps = tuple(abs(e.ia_value - target) for e in evaluations)
    tail = gaps[-3:]
    tail_shrinking = gaps[-1] < gaps[0] and all(
        later <= earlier + TAIL_SLACK for earlier, later in zip(tail, tail[1:])
    )
    within_final_tol = gaps[-1] <= config.final_tol
    passed = within_final_tol and (tail_shrinking or not config.require_shrinking_tail)
    return ConvergenceReport(
        target=target,
        gaps=gaps,
        tail_shrinking=tail_shrinking,
        within_final_tol=within_final_tol,
        passed=passed,
    )


def default_convergence_config(matrix: AgreementMatrix) -> ConvergenceConfig:
    """Per-regime defaults: degenerate matrices (a single non-null column or
    row) converge too slowly for a tight bound, so they get the loose one
    plus the mandatory shrinking-tail requirement."""
    degenerate = matrix.count_non_null_cols() == 1 or matrix.count_non_null_rows() == 1
    if degenerate:
        return ConvergenceConfig(
            final_tol=DEGENERATE_FINAL_TOL, require_shrinking_tail=True
        )
    return ConvergenceConfig(final_tol=REGULAR_FINAL_TOL, require_shrinking_tail=False)
