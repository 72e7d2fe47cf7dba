"""The information agreement measure and its extension by continuity.

Plain information agreement divides the raters' mutual information by the
smaller marginal entropy and is only defined when every cell of the matrix
is positive. The extension by continuity (ia_epsilon) assigns a value to
every agreement matrix via a four-case closed form over the entropies of
the zero-stripped ("refined") distributions; it coincides with the plain
measure wherever the latter exists, and with the epsilon-limit that
oracle.py evaluates numerically everywhere else.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from infoagree import _kernels
from infoagree.errors import ContainsZeroError, InternalInvariantError
from infoagree.matrix import AgreementMatrix

ROUNDING_TOL = 1e-9
"""Largest excursion outside [0, 1] absorbed by clamping; beyond this the
value is treated as an internal invariant violation, not rounding."""


class IaCase(Enum):
    """Which branch of the closed form produced the value."""

    DEGENERATE_X = "degenerate_x"  # single non-null column: refined H(X) = 0
    DEGENERATE_Y = "degenerate_y"  # single non-null row: refined H(Y) = 0
    REGULAR_X_MIN = "regular_x_min"  # refined H(X) strictly the smaller entropy
    REGULAR_Y_MIN = "regular_y_min"  # refined H(Y) <= refined H(X)


class IaResult(NamedTuple):
    """Value plus the diagnostics needed to audit which branch fired.

    m and l are the non-null row and column counts; h_x, h_y, h_xy are the
    refined entropies in bits (always computed, even when a degenerate
    branch decided the value without them).

    A named tuple, so building one costs about a fifth of a frozen
    dataclass and its module needs no dataclasses import; like any tuple it
    also unpacks, indexes and equals a plain tuple of the same fields.
    """

    value: float
    case: IaCase
    n: int
    m: int
    l: int
    h_x: float
    h_y: float
    h_xy: float


def ia_strict(matrix: AgreementMatrix) -> float:
    """Information agreement of a strictly positive matrix, in [0, 1].

    MI(X, Y) / min(H(X), H(Y)), as the paper defines it. The marginals p_y
    and p_x are the matrix's row and column sums over its total, the bits
    infotheory's marginal_y and marginal_x hold, and each entropy is
    _kernels._probs_entropy, as in infotheory.shannon_entropy. MI is
    _kernels._xlog2_ratio_sum over the counts a row block at a time, with
    each p = count / total formed as infotheory's joint would hold it, so
    no n x n joint is built and the bits are those of mutual_information
    over that joint. Raises ContainsZeroError if any cell is zero; use
    ia_epsilon then.

    MI is a sum of p * log2(p / (p_x * p_y)) terms, so it cancels no
    order-one entropies near independence. None of it goes through the
    count identity ia_epsilon uses, so the two stay independent
    computations. Everything it calls is in _kernels, so it loads neither
    infotheory nor dataclasses.
    """
    if matrix.has_zero_cell():
        raise ContainsZeroError(
            "matrix contains zero cells; plain information agreement is "
            "undefined, use ia_epsilon"
        )
    total = float(matrix.total)
    p_x = matrix.col_sums().astype(np.float64) / total
    p_y = matrix.row_sums().astype(np.float64) / total
    mi = _kernels._finalize_mi(_kernels._xlog2_ratio_sum(matrix.counts, p_y, p_x, total=total))
    h_lo = min(_kernels._probs_entropy(p_x), _kernels._probs_entropy(p_y))
    return _absorb_rounding(mi / h_lo)


def ia_epsilon(matrix: AgreementMatrix) -> IaResult:
    """Information agreement extension by continuity; total on valid matrices.

    Degeneracy is detected structurally (exactly one non-null column or
    row) rather than by comparing a float entropy with zero; in those cases
    the value is the exact ratio (n - m) / n or (n - l) / n. Otherwise the
    value comes from the refined entropies, which are computed straight
    from the non-null count sums (the count-entropy identity of
    infotheory.entropy_from_counts, as _kernels._count_entropy).

    The X-degenerate branch is checked first, and the tie H(X) = H(Y) falls
    to the Y-min branch (strict comparison); both choices change only the
    reported case, never the value.
    """
    n = matrix.n
    total = float(matrix.total)
    row_sums = matrix.row_sums()
    col_sums = matrix.col_sums()
    cells = matrix.counts.ravel()
    m = int(np.count_nonzero(row_sums))
    l = int(np.count_nonzero(col_sums))

    h_x = _kernels._count_entropy(col_sums, l, total)
    h_y = _kernels._count_entropy(row_sums, m, total)
    h_xy = _kernels._count_entropy(cells, matrix.positive_cells, total, matrix.max_cell)

    if l == 1:
        value = (n - m) / n
        case = IaCase.DEGENERATE_X
    elif m == 1:
        value = (n - l) / n
        case = IaCase.DEGENERATE_Y
    elif h_x < h_y:
        value = _absorb_rounding(1.0 + (h_y - h_xy) / h_x)
        case = IaCase.REGULAR_X_MIN
    else:
        value = _absorb_rounding(1.0 + (h_x - h_xy) / h_y)
        case = IaCase.REGULAR_Y_MIN

    return IaResult(value, case, n, m, l, h_x, h_y, h_xy)


def _absorb_rounding(value: float) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -ROUNDING_TOL <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + ROUNDING_TOL:
        return 1.0
    raise InternalInvariantError(f"agreement value {value!r} is outside [0, 1]")
