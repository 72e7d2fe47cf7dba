"""Validated agreement matrices and their combinatorial operations.

An agreement matrix records how two raters, X and Y, classified the same
items into n classes: counts[y][x] is the number of items that rater Y put
in class y while rater X put it in class x. Rows belong to rater Y, columns
to rater X; everything downstream assumes that orientation.

Instances are immutable once constructed (the backing array is marked
read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
        self._adopt(_coerce_counts(rows))

    @classmethod
    def _from_owned(cls, counts: np.ndarray) -> "AgreementMatrix":
        """Validate a uint64 array that no one else holds, and keep it without
        a copy; the public constructor copies its input instead."""
        obj = object.__new__(cls)
        obj._adopt(_coerce_ndarray(counts, copy=False))
        return obj

    def _adopt(self, arr: np.ndarray) -> None:
        n = arr.shape[0]
        if n < 2:
            raise DimensionTooSmallError(f"need at least 2 classes, got {n}")
        max_cell = int(_max(arr, axis=None))
        # a line sum is a partial sum of the total, so it is exact whenever
        # the total fits in 64 bits, and _exact_total raises when it does not
        row_sums = _sum(arr, axis=1)
        col_sums = _sum(arr, axis=0)
        if max_cell <= U64_MAX // arr.size:
            total = int(_sum(row_sums))
        else:
            total = _exact_total(arr)
        if total == 0:
            raise AllZeroError("agreement matrix must contain at least one positive cell")
        for kept in (arr, row_sums, col_sums):
            kept.setflags(write=False)
        self.counts = arr
        self.n = n
        self.total = total
        self.max_cell = max_cell
        self.positive_cells = int(np.count_nonzero(arr))
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


def _coerce_counts(rows) -> np.ndarray:
    """Turn caller input into a fresh uint64 (n, n) array, or raise a MatrixError."""
    if isinstance(rows, np.ndarray):
        # a subclass such as np.matrix or a masked array is read as its plain
        # array, whose reductions have the shapes the measure relies on
        return _coerce_ndarray(np.asarray(rows))
    return _coerce_sequences(rows)


def _coerce_ndarray(arr: np.ndarray, copy: bool = True) -> np.ndarray:
    """The checks of _coerce_counts on an array; with ``copy`` false, a
    C-contiguous uint64 array is returned as it is rather than copied."""
    if arr.ndim != 2:
        raise NotSquareError(f"expected a 2-d array, got {arr.ndim}-d")
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"matrix is {arr.shape[0]}x{arr.shape[1]}, not square")
    if not issubclass(arr.dtype.type, np.integer):
        raise NonIntegerCellError(f"cells must be integers, got dtype {arr.dtype}")
    # only a signed dtype can hold a negative cell; unsigned input skips the scan
    if arr.dtype.kind == "i" and arr.size and _min(arr, axis=None) < 0:
        y, x = np.argwhere(arr < 0)[0]
        raise NegativeCellError(f"cell [{y}][{x}] is negative: {arr[y, x]}")
    # C order whatever the input's: a Fortran or strided copy would make every
    # later ravel() of the counts copy them again
    return arr.astype(np.uint64, order="C", copy=copy)


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
                raise NegativeCellError(f"cell [{y}][{x}] is negative: {cell}")
            if cell > U64_MAX:
                raise CountOverflowError(f"cell [{y}][{x}] exceeds 64-bit range: {cell}")
    return np.array(row_list, dtype=np.uint64)


def _exact_total(arr: np.ndarray) -> int:
    """Exact grand total of a uint64 array whose size * max may not fit in 64
    bits, with an overflow check on the 64-bit budget.

    The high and low 32-bit halves of the cells are summed apart; each of
    those sums is exact for up to 2**32 cells.
    """
    high = int(_sum(arr >> 32, axis=None, dtype=np.uint64))
    low = int(_sum(arr & 0xFFFFFFFF, axis=None, dtype=np.uint64))
    exact = (high << 32) + low
    if exact > U64_MAX:
        raise CountOverflowError(f"total count {exact} exceeds 64-bit range")
    return exact
