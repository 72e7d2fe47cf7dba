"""Self-tests of the benchmark's own code (not of infoagree).

    python3 -m pytest perfbench/test_perfbench.py -q

The reference must reproduce closed-form values that can be checked by
hand, and the self-time arithmetic must be exact on synthetic span traces.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_ia  # noqa: E402
from reference import Reference  # noqa: E402
from run import Tally, _latency_metrics, _pair_slowdowns  # noqa: E402
from spans import ROOT, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import generate  # noqa: E402


def _ref(rows):
    return Reference().closed_form(np.array(rows, dtype=np.uint64))


def test_degenerate_matrices_give_n_minus_nonnull_over_n():
    single_column = _ref([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
    assert (single_column.case, single_column.m, single_column.l) == ("degenerate_x", 2, 1)
    assert single_column.value == 1 / 3
    single_row = _ref([[0, 0, 0, 0], [3, 5, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert (single_row.case, single_row.m, single_row.l) == ("degenerate_y", 1, 3)
    assert single_row.value == 1 / 4


@pytest.mark.parametrize(
    "rows",
    [
        [[5, 0, 0], [0, 7, 0], [0, 0, 2]],
        [[1, 0], [0, 1]],
        [[2**62, 0], [0, 1]],  # total near 2**62: floats lose the small count entirely
        [[0, 9], [4, 0]],
    ],
)
def test_permutation_matrices_agree_fully(rows):
    assert _ref(rows).value == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]], [[2, 4, 6], [1, 2, 3], [3, 6, 9]]])
def test_independent_raters_agree_not_at_all(rows):
    assert _ref(rows).value == pytest.approx(0.0, abs=1e-15)


def test_two_by_two_by_hand():
    # H(X) = H(Y) = 1 bit; H(XY) = (2/3) log2 3 + (1/3) log2 6
    want = 2.0 - ((2 / 3) * math.log2(3) + (1 / 3) * math.log2(6))
    exp = _ref([[2, 1], [1, 2]])
    assert exp.tie and set(exp.cases()) == {"regular_x_min", "regular_y_min"}
    assert exp.value == pytest.approx(want, abs=1e-15)
    assert (exp.h_x, exp.h_y) == (1.0, 1.0)


def test_check_ia_rejects_a_value_off_by_more_than_the_tolerance():
    exp = _ref([[3, 1, 0], [1, 4, 2], [0, 2, 5]])
    got = {k: getattr(exp, k) for k in ("value", "case", "n", "m", "l", "h_x", "h_y", "h_xy")}
    assert check_ia(got, exp) is None
    assert check_ia(dict(got, value=exp.value + 2e-9), exp) is not None
    assert check_ia(dict(got, m=exp.m - 1), exp) is not None


def test_self_times_on_a_nested_trace():
    #   op [0,10] -> A [1,4] -> B [2,3]
    #             -> C [5,9] -> D [5,6], E [7,9]
    start = [0, 1, 2, 5, 5, 7]
    end = [10, 4, 3, 9, 6, 9]
    parent = [-1, 0, 1, 0, 3, 3]
    st = self_times(start, end, parent)
    assert st.tolist() == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert st.sum() == 10.0


def test_self_times_count_overlap_once_and_clip_to_the_parent():
    # children out of start order, overlapping each other, one running past the parent
    start = [0, 3, 1, 8]
    end = [10, 7, 5, 12]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 10 - (7 - 1) - (10 - 8)


def test_layer_self_times_and_unattributed_add_up_to_op_wall():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: sum(range(x)), "kernels.xlog2_sum", lambda a, r: (a[0], 8 * a[0]))
    outer = tracer.wrap(lambda: [inner(1000) for _ in range(3)], "measure.ia_epsilon")
    for k in range(4):
        tracer.run_op(k, outer)
    cols = list(zip(*tracer.rows))
    spans = {
        key: np.array(col)
        for key, col in zip(("name", "start", "end", "parent", "op", "a", "b"), cols)
    }
    m = layer_metrics(tracer.names, spans)
    assert m["trace.ops"] == 4
    assert m["kernels.xlog2_sum.calls"] == 3
    assert m["kernels.xlog2_sum.elements"] == 3000
    assert m["kernels.xlog2_sum.bytes_computed"] == 24000
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.op_wall_s"], rel=1e-12)
    assert tracer.names[0] == ROOT


def test_generation_is_a_function_of_the_seed(tmp_path):
    a = generate("lib_bootstrap", 7, str(tmp_path / "a"))
    b = generate("lib_bootstrap", 7, str(tmp_path / "b"))
    c = generate("lib_bootstrap", 8, str(tmp_path / "c"))
    assert [it.kind for it in a.items] == [it.kind for it in b.items]
    assert all(np.array_equal(x.counts, y.counts) for x, y in zip(a.items, b.items))
    assert not all(
        x.counts.shape == y.counts.shape and np.array_equal(x.counts, y.counts)
        for x, y in zip(a.items, c.items)
    )


def test_tally_counts_each_matrix_once_per_run(tmp_path):
    items = generate("lib_verify_large", 1, str(tmp_path)).items
    tally = Tally()
    tally.add(items, [None] * (len(items) - 1) + ["wrong value"])
    assert (tally.attempted, tally.failed) == (len(items), 1)
    assert dict(tally.kinds) == {items[-1].kind: 1}


def test_each_op_is_scaled_by_the_slowdown_around_it():
    # yardstick samples 1, 3, 1 around two ops: slowdowns 2 and 2 at nominal 1
    assert _pair_slowdowns([1.0, 3.0, 1.0], 1.0) == [2.0, 2.0]
    metrics, raw, detail = _latency_metrics([2.0, 4.0, 6.0], [1.0, 2.0, 3.0], 12.0, 3, 30)
    assert metrics["latency_p50_s"] == 2.0 and raw["latency_p50_s"] == 4.0
    assert detail["slowdown"] == 2.0
    assert metrics["matrices_per_s"] == pytest.approx(3 / 6.0)
    assert raw["cells_per_s"] == pytest.approx(30 / 12.0)
