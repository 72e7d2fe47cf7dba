"""The x*log2(x) kernel against an exact-summation reference."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infoagree
from infoagree import _kernels


def reference_xlog2_sum(values):
    return math.fsum(v * math.log2(v) for v in values if v > 0.0)


def test_backend_is_python():
    # benchmark results record this constant; NumPy is the only backend
    assert infoagree.KERNEL_BACKEND == "python"


def _read_only_strided(kernel):
    """Run ``kernel`` on a read-only, non-contiguous view of its input."""

    @functools.wraps(kernel)
    def wrapped(values):
        padded = np.zeros(2 * len(values), dtype=np.float64)
        padded[::2] = values
        view = padded[::2]
        view.setflags(write=False)
        return kernel(view)

    return wrapped


@pytest.mark.parametrize(
    "impl", [_kernels.xlog2_sum, _read_only_strided(_kernels.xlog2_sum)]
)
def test_zeros_and_empty(impl):
    assert impl(np.array([], dtype=np.float64)) == 0.0
    assert impl(np.array([0.0, 0.0])) == 0.0
    assert impl(np.array([2.0, 0.0, 4.0])) == pytest.approx(2.0 + 8.0, abs=1e-12)
    assert impl(np.array([1.0])) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=200))
def test_python_kernel_matches_reference(values):
    got = _kernels.xlog2_sum(np.array(values, dtype=np.float64))
    want = reference_xlog2_sum(values)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
