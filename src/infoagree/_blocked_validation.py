"""The one-pass validation behind AgreementMatrix for large matrices.

matrix loads this module on the first matrix of _BLOCKED_MIN_CELLS cells
or more, so that a process that builds only small matrices, such as a
bootstrap or a batch of small files, does not compile it.
"""

from __future__ import annotations

import numpy as np

from infoagree import _kernels
from infoagree.matrix import _cell_stats, _raise_first_negative


def blocked_stats(src: np.ndarray, copy: bool):
    """The counts and statistics AgreementMatrix keeps for a square integer
    array src, from one pass over row blocks of about _kernels._SLICE_CELLS
    cells: (counts, max_cell, row_sums, col_sums, positive_cells, total), as
    matrix._cell_stats gives them for the whole counts. The counts are those
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
    step = max(1, _kernels._SLICE_CELLS // n)
    row_sums = np.empty(n, np.uint64)
    col_sums = np.zeros(n, np.uint64)
    max_cell = positive_cells = total = 0
    for lo in range(0, n, step):
        block = counts[lo : lo + step]
        if counts is not src:
            part = src[lo : lo + step]
            if src.dtype.kind == "i":
                _raise_first_negative(part, lo)
            np.copyto(block, part, casting="unsafe")
        top, row_sums[lo : lo + step], col_part, cells, part_total = _cell_stats(block)
        np.add(col_sums, col_part, out=col_sums)
        max_cell = max(max_cell, top)
        positive_cells += cells
        total += part_total
    return counts, max_cell, row_sums, col_sums, positive_cells, total
