"""The x*log2(x) kernel against an exact-summation reference."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infoagree
from infoagree import _kernels
from infoagree.errors import InternalInvariantError


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


def reference_xlog2_sum_ints(counts):
    return math.fsum(c * math.log2(c) for c in map(int, counts) if c > 0)


@given(st.lists(st.integers(0, 500), min_size=1, max_size=300))
def test_hist_kernel_matches_reference(counts):
    arr = np.array(counts, dtype=np.uint64)
    got = _kernels.xlog2_sum_hist(arr, int(arr.max()))
    want = reference_xlog2_sum_ints(counts)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hist_kernel_zeros_and_ones():
    assert _kernels.xlog2_sum_hist(np.zeros(4, dtype=np.uint64), 0) == 0.0
    assert _kernels.xlog2_sum_hist(np.ones(4, dtype=np.uint64), 1) == 0.0
    assert _kernels.xlog2_sum_hist(np.array([2, 0, 4], dtype=np.uint64), 4) == 10.0


def test_hist_kernel_ignores_order_and_layout():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 10, size=(30, 30)).astype(np.uint64)
    want = _kernels.xlog2_sum_hist(base.ravel(), 9)
    assert want == pytest.approx(reference_xlog2_sum_ints(base.ravel()), rel=1e-12)

    read_only = base.copy()
    read_only.setflags(write=False)
    padded = np.zeros((30, 60), dtype=np.uint64)
    padded[:, ::2] = base
    layouts = {
        "read-only": read_only.ravel(),
        "fortran": np.asfortranarray(base),
        "strided": padded[:, ::2],
        "strided 1-d": padded.ravel()[::2],
        "shuffled": rng.permutation(base.ravel()),
        "transposed": base.T,
    }
    for name, counts in layouts.items():
        assert _kernels.xlog2_sum_hist(counts, 9) == want, name


def _layouts(values):
    """``values`` as float64 arrays in the layouts callers may hand the kernel."""
    base = np.array(values, dtype=np.float64)
    padded = np.zeros(2 * base.size, dtype=np.float64)
    padded[::2] = base
    buf = bytearray(8 * base.size + 1)
    misaligned = np.ndarray(base.size, dtype=np.float64, buffer=buf, offset=1)
    misaligned[:] = base
    read_only = base.copy()
    read_only.setflags(write=False)
    return [base, padded[::2], misaligned, read_only]


@given(
    st.lists(st.floats(min_value=1e-300, max_value=1e18), min_size=1, max_size=300),
    st.lists(st.integers(0, 299), max_size=20),
)
def test_known_support_gives_the_same_bits(values, zero_at):
    # all positive: the kernel skips the selection; with zeros it selects
    for v in _layouts(values):
        assert _kernels.xlog2_sum(v, positive=v.size) == _kernels.xlog2_sum(v)
    with_zeros = list(values)
    for i in zero_at:
        with_zeros[i % len(with_zeros)] = 0.0
    for v in _layouts(with_zeros):
        positive = int(np.count_nonzero(v))
        assert _kernels.xlog2_sum(v, positive=positive) == _kernels.xlog2_sum(v)


@given(st.lists(st.integers(1, 2**40), min_size=1, max_size=300))
def test_known_support_of_integer_counts_gives_the_same_bits(counts):
    arr = np.array(counts, dtype=np.uint64)
    assert _kernels.xlog2_sum(arr, positive=arr.size) == _kernels.xlog2_sum(arr)


def arange_xlog2_sum_hist(counts, top):
    """The histogram sum with k and log2(k) built for this call alone."""
    hist = np.bincount(np.ravel(counts).view(np.int64), minlength=top + 1)[1:]
    k = np.arange(1, hist.size + 1, dtype=np.float64)
    return float((hist * k * np.log2(k)).sum())


def test_hist_kernel_table_matches_per_call_log2():
    table = _kernels._LOG2_TABLE
    length = table.shape[1]
    rng = np.random.default_rng(11)
    # below, at and past the length of the table, which a longer histogram leaves as it is
    for top in [1, 2, 9, 143, length - 1, length, length + 1, 3 * length + 5]:
        counts = rng.integers(0, top + 1, size=3 * top + 7).astype(np.uint64)
        counts[0] = top
        assert _kernels.xlog2_sum_hist(counts, top) == arange_xlog2_sum_hist(counts, top), top
        assert _kernels._LOG2_TABLE is table and table.shape[1] == length


def test_hist_kernel_tables_are_read_only():
    for table in (_kernels._LOG2_TABLE, _kernels._log2_table(5)):
        with pytest.raises(ValueError):
            table[1, 0] = 1.0
        with pytest.raises(ValueError):
            table[0] *= 2.0


def _frozen(counts):
    counts = np.ascontiguousarray(counts, dtype=np.uint64)
    counts.setflags(write=False)
    return counts


@pytest.mark.parametrize(
    "size, top",
    [
        (_kernels._SLICE_CELLS, 9),  # one whole slice: a single call
        (_kernels._SLICE_CELLS + 1, 9),  # a slice and a one-count slice
        (2 * _kernels._SLICE_CELLS, 9),  # two whole slices
        (640_000, 9),  # n = 800: nineteen slices and a short one
        (3 * _kernels._SLICE_CELLS + 5, _kernels._SLICE_CELLS + 3),  # slices longer than 2**15
    ],
)
def test_hist_kernel_slices_give_the_same_bits(size, top):
    rng = np.random.default_rng(size + top)
    counts = rng.integers(0, top + 1, size=size).astype(np.uint64)
    counts[-1] = top
    read_only = _frozen(counts)
    assert _kernels.xlog2_sum_hist(read_only, top) == _kernels.xlog2_sum_hist(counts, top)
    assert _kernels.xlog2_sum_hist(read_only, top) == arange_xlog2_sum_hist(counts, top)


def test_hist_kernel_copies_no_more_than_a_slice_of_read_only_counts():
    cells = _frozen(np.random.default_rng(800).integers(0, 10, size=(800, 800)))
    _kernels.xlog2_sum_hist(cells, 9)
    tracemalloc.start()
    try:
        _kernels.xlog2_sum_hist(cells, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # np.bincount copies a read-only array whole: 5 MB here without slices
    assert peak < _kernels._SLICE_CELLS * 8 + 64 * 1024


@pytest.mark.parametrize("slice_cells", [_kernels._SLICE_CELLS, 1], ids=["2**15", "1"])
@pytest.mark.parametrize(
    "shape",
    [(2, 2), (181, 181), (182, 182), (300, 7), (7, 40000), (40000, 1)],
    ids=lambda shape: "x".join(map(str, shape)),
)
def test_row_blocks_cover_the_rows_in_order_through_reused_buffers(monkeypatch, shape, slice_cells):
    monkeypatch.setattr(_kernels, "_SLICE_CELLS", slice_cells)
    rows, cols = shape
    dtypes = (np.float64, None, bool, np.uint64)
    cells = np.zeros(shape, np.uint64)
    starts, lengths, addresses = [], [], []
    for block, *views in _kernels._row_blocks(cells, *dtypes):
        starts.append(block.start)
        lengths.append(len(cells[block]))
        for view, dtype in zip(views, dtypes, strict=True):
            if dtype is None:
                assert view is None
            else:
                assert view.shape == cells[block].shape
                assert view.dtype == dtype
        addresses.append([view.__array_interface__["data"][0] for view in views if view is not None])
    sizes = np.diff([*starts, rows])
    assert starts[0] == 0 and all(sizes > 0) and list(sizes) == lengths  # every row once, in order
    step = max(1, slice_cells // cols)
    assert all(sizes[:-1] == step) and sizes[-1] <= step
    assert all(row == addresses[0] for row in addresses)


class TestFinalizeEntropy:
    """The safety branches of _finalize_entropy, which no valid matrix
    reaches: a small negative entropy is rounding, anything below is a bug."""

    @pytest.mark.parametrize("slack", [_kernels.ENTROPY_SLACK, 1e-9, 0.5])
    def test_absorbs_down_to_exactly_minus_slack(self, slack):
        for h in (-slack, math.nextafter(-slack, 0.0), -5e-324):
            result = _kernels._finalize_entropy(h, slack)
            assert result == 0.0 and math.copysign(1.0, result) == 1.0

    @pytest.mark.parametrize("slack", [_kernels.ENTROPY_SLACK, 1e-9, 0.5])
    def test_raises_just_beyond_minus_slack(self, slack):
        with pytest.raises(InternalInvariantError, match="entropy computed as"):
            _kernels._finalize_entropy(math.nextafter(-slack, -1.0), slack)

    def test_default_slack_is_entropy_slack(self):
        assert _kernels._finalize_entropy(-_kernels.ENTROPY_SLACK) == 0.0
        with pytest.raises(InternalInvariantError):
            _kernels._finalize_entropy(math.nextafter(-_kernels.ENTROPY_SLACK, -1.0))

    def test_nan_raises(self):
        with pytest.raises(InternalInvariantError, match="nan"):
            _kernels._finalize_entropy(math.nan)

    def test_negative_zero_comes_back_positive(self):
        result = _kernels._finalize_entropy(-0.0)
        assert result == 0.0 and math.copysign(1.0, result) == 1.0

    @pytest.mark.parametrize("h", [0.0, 5e-324, 1.5, 10.6])
    def test_a_nonnegative_entropy_is_kept(self, h):
        assert _kernels._finalize_entropy(h) == h
