"""The hot numeric kernels: the x*log2(x) sum over count and probability
vectors, the same sum over small integer counts taken from their
histogram, the blocked sum of p*log2(p/(a*b)) over a 2-d array, and the
entropies and mutual information built on them. Each rule has its one
home here:

- _count_entropy, the one routine for entropy from counts, called by
  measure.ia_epsilon and infotheory.entropy_from_counts;
- _probs_entropy, H = -sum(p*log2(p)) of a probability vector, called by
  infotheory.shannon_entropy and measure.ia_strict;
- _xlog2_ratio_sum, the blocked ratio sum, called by
  infotheory.mutual_information and infotheory.conditional_entropy on a
  joint's probabilities, and by measure.ia_strict on a matrix's counts;
- _finalize_mi, which takes a mutual information that rounding put just
  below 0 as 0, for infotheory.mutual_information and measure.ia_strict.

They live here so that the closed form loads no distribution layer
(infotheory).

The two x*log2(x) sums are called thousands of times on vectors of a few
dozen entries (a bootstrap over small matrices), where NumPy's fixed cost
per call outweighs the arithmetic. So a caller that already knows how many
entries are positive says so, which spares the mask and the compress when
all are, and the histogram kernel reads k and log2(k) from a table built at import
instead of building them each time. Neither changes a bit of the result.

The blocked loops take about _SLICE_CELLS (2**15) cells at a time, so that
each block's copies and scratch stay cache-sized. The block rule has its
one home in _row_blocks: a 2-d array goes in blocks of
max(1, _SLICE_CELLS // cols) whole rows, the last block shorter when the
rows do not divide evenly. _xlog2_ratio_sum and matrix._blocked_stats
iterate it. The histogram kernel alone takes flat slices instead, of at
least _SLICE_CELLS counts: np.bincount takes only a writeable array and
silently copies any other, so counting a validated matrix's read-only
cells in one call would copy all of them, 5 MB at n = 800. It counts the
slices into one histogram; the counts, and so the result, are the same.

Call sites look the kernel up at call time as ``_kernels.xlog2_sum(...)``
instead of binding it with ``from infoagree._kernels import xlog2_sum``, and
the entropies look it up in this module's globals, so a wrapper
installed on this module attribute (the benchmark's layer tracer does
this) sees every call.
"""

from __future__ import annotations

import math

import numpy as np

from infoagree.errors import InternalInvariantError

ENTROPY_SLACK = 1e-12
"""How far below 0 a computed entropy or mutual information may land and
still be taken as rounding, and so as 0 bits."""


def xlog2_sum(values: np.ndarray, positive: int | None = None) -> float:
    """Sum of v * log2(v) over the strictly positive entries of ``values``.

    Entries <= 0 contribute nothing; validating that they are legitimate
    (structural zeros rather than bad data) is the caller's job. A caller
    that knows the number of positive entries passes it as ``positive``;
    when that is every entry, the kernel sums them as they are, which gives
    the same bits as selecting them first: either way the dot product runs
    over one contiguous array of the same values.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if positive != v.size:
        v = v[v > 0.0]
    if v.size == 0:
        return 0.0
    return float(v.dot(np.log2(v)))  # the BLAS ddot of ``@``, with less dispatch


def _log2_table(size: int) -> np.ndarray:
    """Read-only (2, size) float64 array: k = 1..size above log2(k)."""
    table = np.empty((2, size), dtype=np.float64)
    table[0] = np.arange(1, size + 1, dtype=np.float64)
    np.log2(table[0], out=table[1])
    table.setflags(write=False)
    return table


# k and log2(k) for the histogram kernel, built once. A histogram's top is
# below its number of positive counts, so 2048 entries cover every matrix up
# to n = 45 and most bootstrap resamples up to n = 80. In the benchmark's
# lib_bootstrap stream the largest histogram top is 1616, 2183, 2103, 1515
# and 1825 for seeds 1, 7, 11, 18001 and 19001, so a table is built for the
# call on 69 of seed 7's 1920 resamples and 15 of seed 11's, and on none of
# the other three seeds'. A longer histogram gets a table of its own length
# for the call, so no call keeps more memory alive than this one; log2 gives
# each entry the same bits at any length.
_LOG2_TABLE = _log2_table(2048)

_SLICE_CELLS = 2**15
"""How many cells a blocked loop takes at a time, 256 KiB of 8-byte values
(module docstring). Read at call time, so a test can shrink the blocks."""


def xlog2_sum_hist(counts: np.ndarray, top: int) -> float:
    """Sum of c * log2(c) over uint64 ``counts`` whose largest value is ``top``.

    Equal counts are grouped: the sum is hist[k] * k * log2(k) over
    k = 1..top, with log2(k) read from a table built once, so its value
    depends only on the multiset of counts, not on their order. The terms
    are added by NumPy's pairwise sum rather than a BLAS dot, so the result
    does not depend on the BLAS thread count either. The histogram has
    top + 1 entries; callers take this route only when that is no longer
    than the counts themselves.

    The counts are taken a slice of _SLICE_CELLS at a time (module
    docstring), so at most one slice is ever copied; most inputs are one
    slice. A slice is also at least as long as the histogram, so adding up
    the slices' histograms costs no more than counting them.
    """
    keys = counts.ravel().view(np.int64)
    step = max(_SLICE_CELLS, top + 1)
    hist = np.bincount(keys[:step], minlength=top + 1)
    for start in range(step, keys.size, step):
        hist += np.bincount(keys[start : start + step], minlength=top + 1)
    hist = hist[1:]
    size = hist.size
    table = _LOG2_TABLE if size <= _LOG2_TABLE.shape[1] else _log2_table(size)
    return float(np.add.reduce(hist * table[0, :size] * table[1, :size]))


def _row_blocks(cells: np.ndarray, *dtypes):
    """For each block of whole rows of the 2-d ``cells`` (module docstring),
    in order: the block's rows as a slice, and one view of the block's shape
    per dtype, into a buffer made once and reused by every block; None for a
    dtype given as None."""
    rows, cols = cells.shape
    step = min(rows, max(1, _SLICE_CELLS // cols))
    views = [None if dtype is None else np.empty((step, cols), dtype) for dtype in dtypes]
    for start in range(0, rows, step):
        if rows - start < step:  # only the last block can be shorter
            views = [None if view is None else view[: rows - start] for view in views]
        yield (slice(start, start + step), *views)


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
    infotheory.joint would hold, so the sum is the same.

    The rows are taken in _row_blocks' blocks, each worked in reused
    scratch and summed on its own, and the blocks' sums are added in row
    order. With ``refined``, the support p > 0 is masked a block at a time
    in one reused mask. So no temporary has p's shape. A masked cell has
    p = 0 and a ratio of 1, so a block's sum adds nothing for it. NumPy's
    pairwise sum, unlike a BLAS dot product, gives the same bits for any
    thread count.
    """
    acc = 0.0
    dtypes = (np.float64, None if total is None else np.float64, bool if refined else None)
    for rows, ratio, probs, support in _row_blocks(cells, *dtypes):
        block = cells[rows]
        if probs is not None:
            block = np.divide(block, total, out=probs)
        where = True
        if refined:
            where = np.greater(block, 0.0, out=support)
            ratio.fill(1.0)
        np.divide(block, a[rows, None], out=ratio, where=where)
        if b is not None:
            np.divide(ratio, b, out=ratio, where=where)
        np.log2(ratio, out=ratio, where=where)
        np.multiply(block, ratio, out=ratio)
        acc += float(np.add.reduce(ratio, axis=None))
    return acc


def _probs_entropy(probs: np.ndarray) -> float:
    """H = -sum(p * log2(p)) in bits over a 1-d probability vector; zero
    entries contribute nothing."""
    return _finalize_entropy(-xlog2_sum(probs))


def _count_entropy(
    counts: np.ndarray, support: int, total: float, top: int | None = None
) -> float:
    """Entropy in bits of a count vector, by the identity

        H = log2(c) - (1/c) * sum(w * log2(w)),   c = sum of the counts,

    which infotheory.entropy_from_counts documents. Shared by that function
    and measure.ia_epsilon, which passes counts straight from a validated
    matrix. Zero counts are structural and contribute nothing; ``support``
    is the number of positive counts, ``total`` their sum and ``top``, when
    known, the largest count. A support of 1 is exactly 0 bits.

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
            return _finalize_entropy(math.log2(total) - xlog2_sum_hist(counts, top) / total)
    return _finalize_entropy(math.log2(total) - xlog2_sum(counts, support) / total)


def _finalize_entropy(h: float, slack: float = ENTROPY_SLACK) -> float:
    """Absorb sub-``slack`` negative rounding; anything worse is a bug."""
    if h >= 0.0:
        return h + 0.0  # normalizes -0.0
    if h >= -slack:
        return 0.0
    raise InternalInvariantError(f"entropy computed as {h!r}")


def _finalize_mi(mi: float) -> float:
    """A mutual information within ENTROPY_SLACK below 0 is rounding, so 0
    bits. Any other value is returned as it is: marginals checked against a
    joint only to infotheory.MARGINAL_TOL may put the sum further below 0."""
    return 0.0 if -ENTROPY_SLACK < mi < 0.0 else mi
