"""The hot numeric kernels: the x*log2(x) sum over count and probability
vectors, and the same sum over small integer counts taken from their
histogram.

Both are called thousands of times on vectors of a few dozen entries (a
bootstrap over small matrices), where NumPy's fixed cost per call outweighs
the arithmetic. So a caller that already knows how many entries are
positive says so, which spares the mask and the compress when all are, and
the histogram kernel reads k and log2(k) from a table built at import
instead of building them each time. Neither changes a bit of the result.

np.bincount takes only a writeable array and silently copies any other,
so counting a validated matrix's read-only cells in one call would copy all
of them: 5 MB at n = 800. The histogram kernel therefore counts its input
in slices of _SLICE_CELLS (2**15) cells, whose copies stay cache-sized,
into one histogram; the counts, and so the result, are the same.

Call sites look the kernel up at call time as ``_kernels.xlog2_sum(...)``
instead of binding it with ``from infoagree._kernels import xlog2_sum``, so
a wrapper installed on this module attribute (the benchmark's layer tracer
does this) sees every call.
"""

from __future__ import annotations

import numpy as np


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
# to n = 45 and the small counts of bootstrap resamples up to n = 80 (whose
# largest top in the benchmark's stream is 1610). A longer histogram gets a
# table of its own length for the call, so no call keeps more memory alive
# than this one; log2 gives each entry the same bits at any length.
_LOG2_TABLE = _log2_table(2048)

_SLICE_CELLS = 2**15
"""How many cells a blocked loop takes at a time: 256 KiB of 8-byte values.
The histogram kernel hands np.bincount slices of at least this many counts,
and infotheory's sums over 2-d arrays take row blocks of about this many
cells."""


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
