"""The hot numeric kernels: the x*log2(x) sum over count and probability
vectors, and the same sum over small integer counts taken from their
histogram.

Call sites look the kernel up at call time as ``_kernels.xlog2_sum(...)``
instead of binding it with ``from infoagree._kernels import xlog2_sum``, so
a wrapper installed on this module attribute (the benchmark's layer tracer
does this) sees every call.
"""

from __future__ import annotations

import numpy as np


def xlog2_sum(values: np.ndarray) -> float:
    """Sum of v * log2(v) over the strictly positive entries of ``values``.

    Entries <= 0 contribute nothing; validating that they are legitimate
    (structural zeros rather than bad data) is the caller's job.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v[v > 0.0]
    if v.size == 0:
        return 0.0
    return float(v @ np.log2(v))


def xlog2_sum_hist(counts: np.ndarray, top: int) -> float:
    """Sum of c * log2(c) over uint64 ``counts`` whose largest value is ``top``.

    Equal counts are grouped: the sum is hist[k] * k * log2(k) over
    k = 1..top, so it calls log2 top times however many counts there are,
    and its value depends only on the multiset of counts, not on their
    order. The terms are added by NumPy's pairwise sum rather than a BLAS
    dot, so the result does not depend on the BLAS thread count either.
    The histogram has top + 1 entries; callers take this route only when
    that is no longer than the counts themselves.
    """
    hist = np.bincount(np.ravel(counts).view(np.int64), minlength=top + 1)[1:]
    k = np.arange(1, hist.size + 1, dtype=np.float64)
    return float((hist * k * np.log2(k)).sum())
