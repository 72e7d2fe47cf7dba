"""The hot numeric kernel: the x*log2(x) sum over count and probability vectors.

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
