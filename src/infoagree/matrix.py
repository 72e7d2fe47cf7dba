"""Validated agreement matrices and their combinatorial operations.

An agreement matrix records how two raters, X and Y, classified the same
items into n classes: counts[y][x] is the number of items that rater Y put
in class y while rater X put it in class x. Rows belong to rater Y, columns
to rater X; everything downstream assumes that orientation.

Instances are immutable once constructed (the backing array is marked
read-only), so they can be shared freely across threads.

Both validation paths live here: whole-array reductions for a small matrix,
and one pass over the row blocks of _kernels._row_blocks (_blocked_stats)
for a large one. They share _cell_stats and _raise_first_negative.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from infoagree import _kernels
from infoagree.errors import (
    AllZeroError,
    CountOverflowError,
    DimensionTooSmallError,
    NegativeCellError,
    NonIntegerCellError,
    NotSquareError,
)

U64_MAX = 2**64 - 1

# The reductions behind ndarray.max/.min/.sum, called directly: on the small
# matrices of a bootstrap the method wrappers cost more than the arithmetic.
_max = np.maximum.reduce
_min = np.minimum.reduce
_sum = np.add.reduce

# A matrix of at least this many cells (n >= 512) is validated in one pass
# over row blocks (_blocked_stats); below it, four whole-array
# reductions cost less than the loop. Set from timings of both at n = 400
# to 1600.
_BLOCKED_MIN_CELLS = 2**18


class AgreementMatrix:
    """Immutable n-by-n matrix of nonnegative integer classification counts.

    Attributes:
        counts: read-only, C-contiguous (n, n) uint64 array, counts[y][x] as
            described above.
        n: number of classes (n >= 2).
        total: exact sum of all cells, cached at construction (> 0).
        max_cell: the largest cell, cached at construction (> 0).
        positive_cells: the number of positive cells, cached at construction.

    The row and column sums are computed once at construction too, and
    row_sums() and col_sums() return them read-only.
    """

    __slots__ = ("counts", "n", "total", "max_cell", "positive_cells", "_row_sums", "_col_sums")

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray):
        if isinstance(rows, np.ndarray):
            # a subclass such as np.matrix or a masked array is read as its plain
            # array, whose reductions have the shapes the measure relies on
            self._adopt(_square_integer_array(np.asarray(rows)), True)
        else:
            self._adopt(_coerce_sequences(rows), False)

    @classmethod
    def _from_owned(cls, counts: np.ndarray) -> "AgreementMatrix":
        """Validate a uint64 array that no one else holds, and keep it without
        a copy; the public constructor copies its input instead."""
        obj = object.__new__(cls)
        obj._adopt(_square_integer_array(counts), False)
        return obj

    def _adopt(self, arr: np.ndarray, copy: bool) -> None:
        """Validate a square integer array and keep its counts and statistics.
        The counts are a C-order uint64 copy of ``arr``, or, with ``copy``
        false, ``arr`` itself when it is already such an array."""
        n = arr.shape[0]
        if arr.size >= _BLOCKED_MIN_CELLS:
            stats = _blocked_stats(arr, copy)
            arr, max_cell, row_sums, col_sums, positive_cells, total = stats
        else:
            # only a signed dtype can hold a negative cell; unsigned input skips the scan
            if arr.dtype.kind == "i":
                _raise_first_negative(arr, 0)
            # C order whatever the input's: a Fortran or strided copy would make
            # every later ravel() of the counts copy them again
            arr = arr.astype(np.uint64, order="C", copy=copy)
            if n < 2:
                raise DimensionTooSmallError(f"need at least 2 classes, got {n}")
            max_cell, row_sums, col_sums, positive_cells, total = _cell_stats(arr)
        if total > U64_MAX:
            raise CountOverflowError(f"total count {total} exceeds 64-bit range")
        if total == 0:
            raise AllZeroError("agreement matrix must contain at least one positive cell")
        for kept in (arr, row_sums, col_sums):
            kept.setflags(write=False)
        self.counts = arr
        self.n = n
        self.total = total
        self.max_cell = max_cell
        self.positive_cells = positive_cells
        self._row_sums = row_sums
        self._col_sums = col_sums

    def row_sums(self) -> np.ndarray:
        """Per-row cell sums (rater Y's class totals), length n, summing to
        total: a read-only uint64 array kept from construction."""
        return self._row_sums

    def col_sums(self) -> np.ndarray:
        """Per-column cell sums (rater X's class totals), length n, summing to
        total: a read-only uint64 array kept from construction."""
        return self._col_sums

    def transpose(self) -> "AgreementMatrix":
        """The matrix with the raters' roles swapped: result[x][y] = counts[y][x]."""
        return AgreementMatrix._from_owned(np.ascontiguousarray(self.counts.T))

    def count_non_null_rows(self) -> int:
        """Number of rows with a positive sum (1 <= result <= n)."""
        return int(np.count_nonzero(self.row_sums()))

    def count_non_null_cols(self) -> int:
        """Number of columns with a positive sum (1 <= result <= n)."""
        return int(np.count_nonzero(self.col_sums()))

    def has_zero_cell(self) -> bool:
        return self.positive_cells < self.counts.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgreementMatrix):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        if self.n <= 6:
            return f"AgreementMatrix({self.counts.tolist()!r})"
        return f"<AgreementMatrix n={self.n} total={self.total}>"


def _square_integer_array(arr: np.ndarray) -> np.ndarray:
    """arr, once it is a square array of an integer dtype; else a MatrixError."""
    if arr.ndim != 2:
        raise NotSquareError(f"expected a 2-d array, got {arr.ndim}-d")
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"matrix is {arr.shape[0]}x{arr.shape[1]}, not square")
    if not issubclass(arr.dtype.type, np.integer):
        raise NonIntegerCellError(f"cells must be integers, got dtype {arr.dtype}")
    return arr


def _coerce_sequences(rows) -> np.ndarray:
    try:
        row_list = [list(r) for r in rows]
    except TypeError:
        raise NotSquareError("input is not a sequence of rows") from None
    n = len(row_list)
    if n == 0:
        raise DimensionTooSmallError("matrix has no rows")
    for y, row in enumerate(row_list):
        if len(row) != n:
            raise NotSquareError(f"row {y} has {len(row)} cells, expected {n}")
    for y, row in enumerate(row_list):
        for x, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
                raise NonIntegerCellError(f"cell [{y}][{x}] is not an integer: {cell!r}")
            if cell < 0:
                raise _negative_cell(y, x, cell)
            if cell > U64_MAX:
                raise CountOverflowError(f"cell [{y}][{x}] exceeds 64-bit range: {cell}")
    return np.array(row_list, dtype=np.uint64)


def _negative_cell(y: int, x: int, cell) -> NegativeCellError:
    """The error for the negative cell ``cell`` at counts[y][x]."""
    return NegativeCellError(f"cell [{y}][{x}] is negative: {cell}")


def _raise_first_negative(arr: np.ndarray, r0: int) -> None:
    """Raise NegativeCellError at the first negative cell, in row-major
    order, of the signed 2-d array arr, whose first row is row r0 of the
    matrix; return if arr has none."""
    # initial=0 lets an empty array through and moves no minimum below 0
    if _min(arr, axis=None, initial=0) < 0:
        y, x = np.argwhere(arr < 0)[0]
        raise _negative_cell(r0 + y, x, arr[y, x])


def _cell_stats(arr: np.ndarray):
    """The statistics AgreementMatrix keeps for a nonempty 2-d uint64 array,
    a whole matrix or a block of its rows: (max_cell, row_sums, col_sums,
    positive_cells, total).

    The total is exact as a Python int, beyond 2**64 - 1 too: the 64-bit sum
    of the row sums when size * max_cell fits in 64 bits, and _split_total's
    otherwise. A line sum is a partial sum of the matrix's total, so the
    line sums are exact whenever that total fits in 64 bits, which the
    caller checks.
    """
    max_cell = int(_max(arr, axis=None))
    row_sums = _sum(arr, axis=1)
    col_sums = _sum(arr, axis=0)
    total = int(_sum(row_sums)) if max_cell <= U64_MAX // arr.size else _split_total(arr)
    return max_cell, row_sums, col_sums, int(np.count_nonzero(arr)), total


def _blocked_stats(src: np.ndarray, copy: bool):
    """The counts and statistics AgreementMatrix keeps for a square integer
    array src, from one pass over the row blocks of _kernels._row_blocks:
    (counts, max_cell, row_sums, col_sums, positive_cells, total), as
    _cell_stats gives them for the whole counts. The counts are those
    AgreementMatrix._adopt keeps; a negative cell raises NegativeCellError.

    Each block is checked for a negative cell when src is signed, copied into
    the counts when they are a copy, and reduced while it is in cache.
    Integer sums are exact in any order, so every statistic equals its
    whole-array reduction, and the first negative cell of the first block
    that has one is the first in row-major order.
    """
    n = src.shape[0]
    if copy or src.dtype != np.uint64 or not src.flags.c_contiguous:
        counts = np.empty((n, n), np.uint64)
    else:
        counts = src
    row_sums = np.empty(n, np.uint64)
    col_sums = np.zeros(n, np.uint64)
    max_cell = positive_cells = total = 0
    for (rows,) in _kernels._row_blocks(counts):
        block = counts[rows]
        if counts is not src:
            part = src[rows]
            if src.dtype.kind == "i":
                _raise_first_negative(part, rows.start)
            np.copyto(block, part, casting="unsafe")
        top, row_sums[rows], col_part, cells, part_total = _cell_stats(block)
        np.add(col_sums, col_part, out=col_sums)
        max_cell = max(max_cell, top)
        positive_cells += cells
        total += part_total
    return counts, max_cell, row_sums, col_sums, positive_cells, total


def _split_total(arr: np.ndarray) -> int:
    """Exact sum of the cells of a uint64 array whose size * max may not fit
    in 64 bits, as a Python int.

    The high and low 32-bit halves of the cells are summed apart; each of
    those sums is exact for up to 2**32 cells.
    """
    high = int(_sum(arr >> 32, axis=None, dtype=np.uint64))
    low = int(_sum(arr & 0xFFFFFFFF, axis=None, dtype=np.uint64))
    return (high << 32) + low
