"""Numerical verification of the closed form via the epsilon limit.

The agreement value of a matrix with zeros is defined as the limit, for
epsilon going to 0 from above, of the plain measure applied to the matrix
with every zero replaced by epsilon. This module evaluates that measure at
concrete epsilon values and checks that the sequence approaches a target.

The evaluation follows the chain rule (Cover & Thomas, ch. 2),
H(X|Y) = sum_y p(y) H(X | Y = y), and gives IA = 1 - H(lo|hi) / H(lo),
where lo is the rater with the smaller marginal entropy. With counts c,
line sums r (rows for Y, columns for X), total S0, z_y zero cells in line
y and z in all, the epsilon matrix has total S = S0 + z*eps and line sums
r' = r + z_y*eps, and in nats

    S * H(Y)   = sum_y r' * log1p(o_y / r'),   o_y = (S0 - r) + (z - z_y)*eps
    S * H(X|Y) = sum_y A_y + r * log1p(z_y*eps / r) + z_y*eps * log(r' / eps)
    A_y        = sum over positive c in line y of c * log1p((r - c) / c)

Every summed term is nonnegative, and S0 - r and r - c are exact integer
differences (the sums of the other lines' and the other cells' counts), so
nothing cancels: each entropy is accurate relative to its own size, however
small, down to the smallest normal double. An epsilon so small that the
smaller marginal entropy falls below that raises InternalInvariantError
rather than divide by a subnormal's few bits. The A_y are the only n**2 work, done once per matrix; each epsilon
then costs O(n). Nothing here forms H(X) + H(Y) - H(XY).

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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from infoagree.errors import (
    EmptySweepError,
    InternalInvariantError,
    NonPositiveEpsilonError,
)
from infoagree.matrix import AgreementMatrix

_LN2 = math.log(2.0)

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
"""How far below 0 an evaluation may land before it is treated as a bug
rather than rounding; a value in the band is clamped to 0. IA is formed as
1 - H(lo|hi) / H(lo) from nonnegative terms, so it cannot exceed 1 and its
rounding error is a few units in the last place, far inside this band: no
two order-one entropies are subtracted any more. Anything beyond the band,
or a NaN, means something is genuinely wrong."""


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
    """The measure of the epsilon matrix: ``em.base`` evaluated at
    ``em.epsilon`` by the routine ``sweep`` uses, so the two agree bit for
    bit (``em.cells`` is not read)."""
    return _evaluate(_line_stats(em.base.counts), em.epsilon)


def sweep(
    matrix: AgreementMatrix, eps_values: Sequence[float]
) -> list[EpsilonEvaluation]:
    """Evaluate the measure at each epsilon, given in strictly decreasing order.

    Each result equals ``eval_ia_at(zero_freed(matrix, e))``. The O(n**2)
    work is done once for the whole grid, and each epsilon costs O(n).
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
    stats = _line_stats(matrix.counts)
    return [_evaluate(stats, e) for e in eps_list]


class _Lines:
    """The cells grouped by the lines of one rater: rows for Y, columns for X.

    own: the sum over lines of A_y (module docstring), in nats.
    sums: the line sums r; sums_or_one the same with 0 made 1.
    others: S0 - r, exact before its one rounding.
    zeros: the zero cells z_y of each line; other_zeros: z - z_y.
    All vectors are float64. A plain class: a dataclass would cost the
    package's import about 1 ms.
    """

    def __init__(
        self,
        counts: np.ndarray,
        axis: int,
        total: np.uint64,
        zeros: np.ndarray,
        cells: np.ndarray,
        terms: np.ndarray,
        scratch: np.ndarray,
    ):
        """The lines that run along ``axis`` (1: rows, 0: columns) of uint64
        ``counts``, whose float copy is ``cells``; overwrites the buffers
        ``terms`` and ``scratch``."""
        sums = np.add.reduce(counts, axis=axis)
        # r - c is the sum of the line's other positive cells, so it is exact
        np.subtract(np.expand_dims(sums, axis), counts, out=scratch.view(np.uint64))
        np.copyto(terms, scratch.view(np.uint64))
        # a zero cell divides by 1, and its 0 * log1p(r) adds nothing
        np.maximum(cells, 1.0, out=scratch)
        np.divide(terms, scratch, out=terms)
        np.log1p(terms, out=terms)
        np.multiply(terms, cells, out=terms)
        self.own = float(np.add.reduce(terms, axis=None))
        self.sums = sums.astype(np.float64)
        self.sums_or_one = np.maximum(self.sums, 1.0)
        self.others = (total - sums).astype(np.float64)
        self.zeros = zeros
        self.other_zeros = float(zeros.sum()) - zeros

    def entropy(self, eps: float, total: float, deep: bool) -> float:
        """S ln 2 times this rater's entropy at eps, where S = ``total``."""
        grown = self.sums + self.zeros * eps
        ratio = (self.others + self.other_zeros * eps) / grown
        logs = np.log1p(ratio)
        if deep:  # see _evaluate
            np.copyto(logs, math.log(total) - np.log(grown), where=np.isinf(ratio))
        return float(np.add.reduce(grown * logs))

    def conditional(self, eps: float, deep: bool) -> float:
        """S ln 2 times the entropy of the other rater given this one at eps."""
        filled = self.zeros * eps
        grown = self.sums + filled
        ratio = grown / eps
        logs = np.log(ratio)
        if deep:
            np.copyto(logs, np.log(grown) - math.log(eps), where=np.isinf(ratio))
        terms = self.sums * np.log1p(filled / self.sums_or_one) + filled * logs
        return self.own + float(np.add.reduce(terms))


def _line_stats(counts: np.ndarray) -> tuple[float, float, _Lines, _Lines]:
    """The once-per-matrix O(n**2) pass over uint64 ``counts``: S0, z, and
    the rows and columns as _Lines.

    It uses three float64 buffers of the counts' shape: the counts as
    floats, the terms, and a scratch whose uint64 view holds the exact
    differences r - c. They are made in that order, the order of the
    earlier per-epsilon evaluation; another order was measured to slow the
    caller's next large-array operations by 20-40% under glibc malloc.
    """
    cells = counts.astype(np.float64)
    terms = np.empty_like(cells)
    scratch = np.empty_like(cells)
    # min(c, 1) marks the positive cells, in floats: no n**2 mask
    np.minimum(cells, 1.0, out=terms)
    n = float(counts.shape[0])
    zeros_per_row = n - np.add.reduce(terms, axis=1)
    zeros_per_col = n - np.add.reduce(terms, axis=0)
    total = np.add.reduce(counts, axis=None)
    rows = _Lines(counts, 1, total, zeros_per_row, cells, terms, scratch)
    cols = _Lines(counts, 0, total, zeros_per_col, cells, terms, scratch)
    return float(total), float(zeros_per_row.sum()), rows, cols


def _evaluate(
    stats: tuple[float, float, _Lines, _Lines], epsilon: float
) -> EpsilonEvaluation:
    """The measure at one epsilon, from the matrix's _line_stats."""
    counted, zeros, rows, cols = stats
    total = counted + zeros * epsilon
    # Past the float range, a quotient's logarithm is taken as a difference.
    # Every quotient inside a logarithm is at most total / min(epsilon, 1)
    # (floating-point sums, products and quotients are monotone), so none
    # overflows unless total / epsilon does.
    deep = math.isinf(total / epsilon)
    scale = total * _LN2
    with np.errstate(over="ignore"):
        h_x = cols.entropy(epsilon, total, deep) / scale
        h_y = rows.entropy(epsilon, total, deep) / scale
        if h_x < h_y:  # H(X|Y) groups the cells by rows
            h_lo, h_hi, given_hi = h_x, h_y, rows
        else:
            h_lo, h_hi, given_hi = h_y, h_x, cols
        h_lo_given_hi = given_hi.conditional(epsilon, deep) / scale
    if not h_lo >= sys.float_info.min:  # a subnormal has lost its bits
        raise InternalInvariantError(
            f"smaller marginal entropy {h_lo!r} at epsilon {epsilon!r} "
            "is below the normal float range"
        )
    value = 1.0 - h_lo_given_hi / h_lo
    if not 0.0 <= value <= 1.0:
        if not -CANCELLATION_TOL <= value <= 1.0 + CANCELLATION_TOL:
            raise InternalInvariantError(f"epsilon-matrix agreement {value!r}")
        value = min(1.0, max(0.0, value))
    return EpsilonEvaluation(
        epsilon=epsilon, ia_value=value, h_x=h_x, h_y=h_y, h_xy=h_hi + h_lo_given_hi
    )


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
