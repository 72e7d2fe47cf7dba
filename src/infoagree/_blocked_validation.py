"""The one-pass validation behind AgreementMatrix for large matrices.

matrix loads this module on the first matrix of _BLOCKED_MIN_CELLS cells
or more, so that a process that builds only small matrices, such as a
bootstrap or a batch of small files, does not compile it.
"""

from __future__ import annotations

import numpy as np

from infoagree import _kernels
from infoagree.matrix import U64_MAX, _max, _min, _negative_cell, _split_total, _sum


def blocked_stats(src: np.ndarray, copy: bool):
    """The counts and statistics AgreementMatrix keeps for a square integer
    array src, from one pass over row blocks of about _kernels._SLICE_CELLS
    cells: (counts, max_cell, row_sums, col_sums, positive_cells, total),
    the total exact as a Python int, beyond 2**64 - 1 too. The counts are
    those AgreementMatrix._adopt keeps; a negative cell raises NegativeCellError.

    Each block is copied into the counts, when they are a copy, checked for
    a negative cell when src is signed, and reduced four times while it is
    in cache. Integer sums are exact in any order, so every statistic equals
    its whole-array reduction, and the first negative cell of the first
    block that has one is the first in row-major order.
    """
    n = src.shape[0]
    if copy or src.dtype != np.uint64 or not src.flags.c_contiguous:
        counts = np.empty((n, n), np.uint64)
    else:
        counts = src
    signed = src.dtype.kind == "i"
    step = max(1, _kernels._SLICE_CELLS // n)
    row_sums = np.empty(n, np.uint64)
    col_sums = np.zeros(n, np.uint64)
    col_part = np.empty(n, np.uint64)
    bound = U64_MAX // counts.size
    max_cell = positive_cells = total = 0
    for lo in range(0, n, step):
        block = counts[lo : lo + step]
        if counts is not src:
            np.copyto(block, src[lo : lo + step], casting="unsafe")
            # a negative cell wraps to 2**63 or more, which reads as negative in int64
            if signed and _min(block.view(np.int64), axis=None) < 0:
                part = src[lo : lo + step]
                y, x = np.argwhere(part < 0)[0]
                raise _negative_cell(lo + y, x, part[y, x])
        top = int(_max(block, axis=None))
        sums = _sum(block, axis=1, out=row_sums[lo : lo + step])
        np.add(col_sums, _sum(block, axis=0, out=col_part), out=col_sums)
        positive_cells += int(np.count_nonzero(block))
        # a block of cells up to the bound sums exactly in 64 bits, its rows too
        total += int(_sum(sums)) if top <= bound else _split_total(block)
        if top > max_cell:
            max_cell = top
    return counts, max_cell, row_sums, col_sums, positive_cells, total
