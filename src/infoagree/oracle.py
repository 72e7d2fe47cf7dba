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
small. Nothing here forms H(X) + H(Y) - H(XY).

The z_y and the A_y are the only work over the n**2 cells, done once per
matrix; each epsilon then costs O(n). One pass over the cells counts the
z_y of both raters. The A_y are summed only for the rater H(lo | hi)
conditions on, the first time an epsilon reads them, and kept for the rest
of the grid: a sweep whose hi rater changes within the grid sums both
raters', any other sums one rater's. They take one of two routes, chosen by
the largest cell, top:

- Histogram route, when the lines' count histogram, an (n, top + 1) table,
  is at most a quarter of the matrix: 4 * (top + 1) <= n. With h[y, k] the
  number of cells equal to k in line y, A_y = sum over k >= 1 of
  h[y, k] * k * log1p((r_y - k) / k), one log1p per table entry. h * k and
  r_y - k are exact, as r_y < n**2. np.bincount counts the rater's table
  _BLOCK_CELLS (2**15) cells at a time, through one reused int64 buffer.
- Per-cell route, otherwise: one log1p per cell, a block of whole rows of
  about _BLOCK_CELLS cells at a time, through three reused float64 block
  buffers.

Both routes read the line sums the matrix kept at construction, and
neither makes a temporary of the matrix's shape. Measured with counts
uniform in 0..top, the histogram route's time reaches the per-cell route's
near top + 1 = n / 3 at n = 400, n / 4 to n / 5 at n = 800 and n / 6 to
n / 8 at n = 1600; below n = 64 the two take about the same time. The two
routes add the same terms in different groups, so their values can differ
in the last bit or two.

Epsilon must be finite and at least EPS_MIN = 2**64 times the smallest
normal double; anything else is a NonPositiveEpsilonError. For a total
S0 < 2**64, eps / S is then still a normal double, so the smaller marginal
entropy is too, and no quotient inside a logarithm overflows: each is at
most S / eps <= 1 / DBL_MIN + n**2.

Deliberately independent of measure.py: nothing here touches the closed
form, the refined-count entropy identity, or the shared kernels, so a bug
in one path cannot hide in the other.

Convergence is fast where no marginal degenerates (error of order
epsilon * log(1/epsilon)) and logarithmically slow where one does (error
of order 1/log(1/epsilon)). So DEFAULT_EPS_GRID runs 11 geometric points
from 1e-2 down to 1e-282, the deepest power of ten with whole-decade steps
above EPS_MIN, and the default tolerances below hold for its last point:

- DEGENERATE_FINAL_TOL (0.075), for a single non-null column or row. Over
  single columns with totals below 2**64, the largest gap found at 1e-282
  is 0.0573: one count near 2**64 beside n - 1 ones, at n = 47, in that
  family scanned over n = 2..79 and up to 400. A random local search over
  n <= 40 and 608 random skewed columns (n = 2..10, counts to 2**62, 20%
  zero cells, worst 0.040) found nothing larger. At 1e-12 the random
  columns' gaps reach 0.40.
- REGULAR_FINAL_TOL (1e-6), for everything else. There the last gap is
  the closed form's own rounding error, within 1.5e-8 on 300 matrices with
  cells to 2**30 and 20% zeros. On skewed matrices the closed form's error
  can be far larger, and the gap then measures that error, not the limit.
- CANCELLATION_TOL holds at every epsilon from EPS_MIN up: every term is
  nonnegative, so only rounding can push a value out of [0, 1].
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
    UnorderedEpsilonError,
)
from infoagree.matrix import AgreementMatrix

_LN2 = math.log(2.0)

REGULAR_FINAL_TOL = 1e-6
"""Default final-gap bound for matrices with at least two non-null rows and
columns, at DEFAULT_EPS_GRID's smallest epsilon (module docstring)."""

DEGENERATE_FINAL_TOL = 0.075
"""Default final-gap bound for single-non-null-column (or row) matrices at
DEFAULT_EPS_GRID's smallest epsilon; see module docstring for its scan."""

TAIL_SLACK = 1e-12
"""Slack allowed when testing the gap tail for monotone shrinkage."""

EPS_MIN = 2.0**64 * sys.float_info.min
"""The smallest epsilon accepted, 4.1045368012983762e-289: for any total
below 2**64, epsilon / total is still a normal double."""

_BLOCK_CELLS = 2**15
"""About how many cells either route takes at a time: 256 KiB per buffer."""

DEFAULT_EPS_GRID = tuple(np.geomspace(1e-2, 1e-282, 11).tolist())
"""Geometric sweep grid, 1e-2 down to 1e-282 in steps of 28 decades; also
the CLI's default."""

CANCELLATION_TOL = 1e-3
"""How far below 0 an evaluation may land before it is treated as a bug
rather than rounding; a value in the band is clamped to 0. IA is formed as
1 - H(lo|hi) / H(lo) from nonnegative terms, so it cannot exceed 1 and its
rounding error is a few units in the last place, far inside this band: no
two order-one entropies are subtracted any more. Anything beyond the band,
or a NaN, means something is genuinely wrong."""


@dataclass(frozen=True)
class EpsilonMatrix:
    """A matrix with every zero to be replaced by a concrete epsilon, which
    must be finite and at least EPS_MIN."""

    base: AgreementMatrix
    epsilon: float

    def __post_init__(self):
        _check_epsilon(self.epsilon)


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

    tail_shrinking: the last gap improves on the first or is itself within
        TAIL_SLACK, and the final three gaps are non-increasing (within
        TAIL_SLACK).
    within_final_tol: the last gap is at most config.final_tol.
    passed: within_final_tol, and tail_shrinking too when required.
    """

    target: float
    gaps: tuple[float, ...]
    tail_shrinking: bool
    within_final_tol: bool
    passed: bool


def zero_freed(matrix: AgreementMatrix, eps: float) -> EpsilonMatrix:
    """``matrix`` with every zero cell to be replaced by ``eps``."""
    return EpsilonMatrix(matrix, float(eps))


def eval_ia_at(em: EpsilonMatrix) -> EpsilonEvaluation:
    """The measure of the epsilon matrix: ``em.base`` evaluated at
    ``em.epsilon`` by the routine ``sweep`` uses, so the two agree bit for
    bit."""
    return _evaluate(_line_stats(em.base), em.epsilon)


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
    # every point positive first, so [inf, 0.0] reports the 0.0
    for e in eps_list:
        if not e > 0.0:
            _check_epsilon(e)
    for prev, cur in zip(eps_list, eps_list[1:]):
        if cur >= prev:
            raise UnorderedEpsilonError("epsilon values must be strictly decreasing")
    # after the ordering check only the first point can be inf, and only the
    # last can be below EPS_MIN; [1.0, inf] stays an ordering error
    _check_epsilon(eps_list[0])
    _check_epsilon(eps_list[-1])
    stats = _line_stats(matrix)
    return [_evaluate(stats, e) for e in eps_list]


def _check_epsilon(eps: float) -> None:
    """Reject an epsilon that is not finite or is below EPS_MIN."""
    if not (eps > 0.0 and math.isfinite(eps)):  # also rejects NaN
        raise NonPositiveEpsilonError(f"epsilon must be positive, got {eps!r}")
    if eps < EPS_MIN:
        raise NonPositiveEpsilonError(f"epsilon must be at least {EPS_MIN!r}, got {eps!r}")


class _Lines:
    """The cells grouped by the lines of one rater: rows for Y, columns for X.

    own: the sum over lines of A_y (module docstring), in nats, built by the
        route the first time it is read and kept for the rest of the grid.
    sums: the line sums r; sums_or_one the same with 0 made 1.
    others: S0 - r, exact before its one rounding.
    zeros: the zero cells z_y of each line; other_zeros: z - z_y.
    All vectors are float64. A plain class: a dataclass would cost the
    oracle's import about 1 ms.
    """

    def __init__(self, build_own, sums: np.ndarray, total: np.uint64, zeros: np.ndarray):
        """From a function of no arguments that returns A summed over the
        lines, the uint64 line sums, the uint64 total S0 and the float64 zero
        counts."""
        self._build_own = build_own
        self._own = None
        self.sums = sums.astype(np.float64)
        self.sums_or_one = np.maximum(self.sums, 1.0)
        self.others = (total - sums).astype(np.float64)
        self.zeros = zeros
        self.other_zeros = float(zeros.sum()) - zeros

    @property
    def own(self) -> float:
        """A summed over the lines, built on the first read."""
        if self._own is None:
            self._own = self._build_own()
        return self._own

    def entropy(self, eps: float) -> float:
        """S ln 2 times this rater's entropy at eps."""
        grown = self.sums + self.zeros * eps
        logs = np.log1p((self.others + self.other_zeros * eps) / grown)
        return float(np.add.reduce(grown * logs))

    def conditional(self, eps: float) -> float:
        """S ln 2 times the entropy of the other rater given this one at eps."""
        own = self.own  # read first: a build then runs before the temporaries below exist
        filled = self.zeros * eps
        grown = self.sums + filled
        terms = self.sums * np.log1p(filled / self.sums_or_one) + filled * np.log(grown / eps)
        return own + float(np.add.reduce(terms))


def _line_stats(matrix: AgreementMatrix) -> tuple[float, float, _Lines, _Lines]:
    """The once-per-matrix O(n**2) work: S0, z, and the rows and columns as
    _Lines. The histogram route is taken when a rater's count histogram, an
    (n, top + 1) table, is at most a quarter of the matrix, and the per-cell
    route otherwise (module docstring)."""
    total = np.uint64(matrix.total)
    by_histograms = 4 * (matrix.max_cell + 1) <= matrix.n
    rows, cols = (_lines_from_histograms if by_histograms else _lines_per_cell)(matrix, total)
    return float(total), float(rows.zeros.sum()), rows, cols


def _zero_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 zero counts of the rows and of the columns of uint64
    ``counts``, from one pass over blocks of whole rows, about _BLOCK_CELLS
    cells each, through one reused byte buffer.

    A block's marks are summed in the narrowest type that holds the count,
    as a reduction that casts costs more: a column's part counts the
    min(n, _BLOCK_CELLS // n) <= 181 rows of one block, so it fits in 8 bits;
    a row's count of up to n cells takes 16, and 64 from n = 2**16 on.
    """
    n = counts.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    marks = np.empty(min(step, n) * n, dtype=np.uint8)
    per_row = np.empty(n, dtype=np.uint16 if n < 2**16 else np.uint64)
    per_col = np.zeros(n)
    col_part = np.empty(n, dtype=np.uint8)
    for start in range(0, n, step):
        block = counts[start : start + step]
        is_zero = marks[: block.size].reshape(block.shape)
        np.equal(block, 0, out=is_zero.view(bool))
        np.add.reduce(is_zero, axis=1, out=per_row[start : start + step])
        np.add.reduce(is_zero, axis=0, out=col_part)
        per_col += col_part
    return per_row.astype(np.float64), per_col


def _lines(matrix: AgreementMatrix, total: np.uint64, own) -> tuple[_Lines, _Lines]:
    """The rows and columns of ``matrix`` as _Lines, with the line sums the
    matrix kept and the zero counts of _zero_counts. A rater's A is
    ``own(matrix, line sums, by_rows)``, built the first time it is read."""
    row_zeros, col_zeros = _zero_counts(matrix.counts)
    row_sums, col_sums = matrix.row_sums(), matrix.col_sums()
    rows = _Lines(lambda: own(matrix, row_sums, True), row_sums, total, row_zeros)
    cols = _Lines(lambda: own(matrix, col_sums, False), col_sums, total, col_zeros)
    return rows, cols


def _lines_per_cell(matrix: AgreementMatrix, total: np.uint64) -> tuple[_Lines, _Lines]:
    """The rows and columns of ``matrix``, whose counts sum to ``total``,
    with one log1p per cell of each rater whose A is read (_own_per_cell)."""
    return _lines(matrix, total, _own_per_cell)


def _own_per_cell(matrix: AgreementMatrix, sums: np.ndarray, by_rows: bool) -> float:
    """A summed over the rows, or over the columns, of ``matrix``, whose
    line sums are ``sums``: one log1p per cell.

    The cells go a block of whole rows at a time, about _BLOCK_CELLS cells,
    through three reused float64 block buffers: the counts as floats, the
    terms, and a scratch whose uint64 view holds the exact differences
    r - c. A is the sum of its blocks' sums. The line sums are copied into
    the scratch and the block subtracted from them there: a ufunc that
    broadcasts would allocate a buffer of its own.
    """
    n = matrix.n
    step = max(1, _BLOCK_CELLS // n)
    buffers = [np.empty(min(step, n) * n) for _ in range(3)]
    own = 0.0
    for start in range(0, n, step):
        block = matrix.counts[start : start + step]
        cells, terms, scratch = (buf[: block.size].reshape(block.shape) for buf in buffers)
        np.copyto(cells, block)
        # r - c is the sum of the line's other positive cells, so it is exact
        differences = scratch.view(np.uint64)
        np.copyto(differences, sums[start : start + step, None] if by_rows else sums)
        np.subtract(differences, block, out=differences)
        np.copyto(terms, differences)
        # a zero cell divides by 1, and its 0 * log1p(r) adds nothing
        np.maximum(cells, 1.0, out=scratch)
        np.divide(terms, scratch, out=terms)
        np.log1p(terms, out=terms)
        np.multiply(terms, cells, out=terms)
        own += float(np.add.reduce(terms, axis=None))
    return own


def _lines_from_histograms(matrix: AgreementMatrix, total: np.uint64) -> tuple[_Lines, _Lines]:
    """The rows and columns of ``matrix``, whose largest cell top is below n
    and whose counts sum to ``total``, with one log1p per value a line can
    hold rather than one per cell:

        A_y = sum over k >= 1 of h[y, k] * k * log1p((r_y - k) / k)

    where h[y, k] counts the cells equal to k in line y. The line sums are
    the matrix's kept ones, and the zero counts of both raters come from one
    pass, _zero_counts. A rater's (n, top + 1) table h is counted only when
    its A is first read, which _evaluate does for the one rater H(lo | hi)
    conditions on: one table per sweep, unless hi changes within the grid.
    """
    return _lines(matrix, total, _own_from_histogram)


def _own_from_histogram(matrix: AgreementMatrix, sums: np.ndarray, by_rows: bool) -> float:
    """A summed over the rows, or over the columns, of ``matrix``, whose
    line sums are ``sums``, from the lines' count histogram."""
    values = np.arange(1, matrix.max_cell + 1, dtype=np.int64)
    histogram = _row_histogram if by_rows else _col_histogram
    positive = histogram(matrix.counts, matrix.max_cell + 1)[:, 1:]
    # r_y <= n * top < n**2, so r_y - k is exact in float64. It is negative
    # only where the line has no cell equal to k, h = 0, and is clipped to 0
    # there, so that log1p never sees -1
    terms = np.subtract(sums[:, None], values, dtype=np.float64)
    np.maximum(terms, 0.0, out=terms)
    np.divide(terms, values, out=terms)
    np.log1p(terms, out=terms)
    positive *= values  # h * k, exact
    terms *= positive
    return float(np.add.reduce(terms, axis=None))


def _row_histogram(counts: np.ndarray, width: int) -> np.ndarray:
    """The (n, width) int64 count histogram of the rows of uint64
    ``counts``, whose cells are all below ``width``: each block's count
    fills the table's rows for the block's rows."""
    n = counts.shape[0]
    hist = np.empty((n, width), dtype=np.int64)
    offsets = np.arange(0, n * width, width, dtype=np.uint64)[:, None]
    for start, keys in _keyed_blocks(counts, width, offsets):
        rows = len(keys) // n
        hist[start : start + rows] = np.bincount(keys, minlength=rows * width).reshape(rows, width)
    return hist


def _col_histogram(counts: np.ndarray, width: int) -> np.ndarray:
    """The (n, width) int64 count histogram of the columns of uint64
    ``counts``, whose cells are all below ``width``: the sum of every
    block's column counts."""
    n = counts.shape[0]
    hist = np.zeros((n, width), dtype=np.int64)
    offsets = np.arange(0, n * width, width, dtype=np.uint64)[None, :]
    for _, keys in _keyed_blocks(counts, width, offsets):
        hist += np.bincount(keys, minlength=n * width).reshape(n, width)
    return hist


def _keyed_blocks(counts: np.ndarray, width: int, offsets: np.ndarray):
    """For each block of whole rows of uint64 ``counts``, its first row and
    the int64 keys line * width + c that np.bincount counts, where
    ``offsets``, one line * width per row (n, 1) or per column (1, n), gives
    the line.

    The keys of every block share one int64 buffer. A block has about
    _BLOCK_CELLS cells, and at least as many as a table has bins: a column
    table's block counts then cost no more to add up than to count. No
    temporary is bigger than the larger of a block and the table.
    """
    n = counts.shape[0]
    step = min(n, max(_BLOCK_CELLS // n, width))
    keys = np.empty(step * n, dtype=np.int64)
    # bincount takes only signed keys; uint64 sums fill the same bytes. The
    # offsets are copied in and the counts added on top: a ufunc that
    # broadcasts would allocate a buffer of its own.
    as_u64 = keys.view(np.uint64)
    for start in range(0, n, step):
        block = as_u64[: min(step, n - start) * n].reshape(-1, n)
        np.copyto(block, offsets[: len(block)])
        np.add(block, counts[start : start + len(block)], out=block)
        yield start, keys[: block.size]


def _evaluate(
    stats: tuple[float, float, _Lines, _Lines], epsilon: float
) -> EpsilonEvaluation:
    """The measure at one epsilon, from the matrix's _line_stats."""
    counted, zeros, rows, cols = stats
    scale = (counted + zeros * epsilon) * _LN2
    h_x = cols.entropy(epsilon) / scale
    h_y = rows.entropy(epsilon) / scale
    if h_x < h_y:  # H(X|Y) groups the cells by rows
        h_lo, h_hi, given_hi = h_x, h_y, rows
    else:
        h_lo, h_hi, given_hi = h_y, h_x, cols
    h_lo_given_hi = given_hi.conditional(epsilon) / scale
    # EPS_MIN keeps h_lo normal; a subnormal one would have lost its bits
    if not h_lo >= sys.float_info.min:
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
    # a sweep that sits on its limit has every gap within the slack of 0
    improved = gaps[-1] < gaps[0] or gaps[-1] <= TAIL_SLACK
    tail_shrinking = improved and all(
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
