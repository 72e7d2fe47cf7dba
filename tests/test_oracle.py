import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import infoagree.oracle
from decimal_reference import reference_eps_evaluations
from helpers import (
    agreement_matrices,
    count_grids,
    positive_matrices,
    regular_matrix_with_zeros,
)
from infoagree.errors import (
    EmptySweepError,
    InfoAgreeError,
    NonPositiveEpsilonError,
    UnorderedEpsilonError,
)
from infoagree.matrix import AgreementMatrix
from infoagree.measure import ia_epsilon, ia_strict
from infoagree.oracle import (
    DEFAULT_EPS_GRID,
    EPS_MIN,
    ConvergenceConfig,
    EpsilonMatrix,
    check_convergence,
    default_convergence_config,
    eval_ia_at,
    sweep,
    zero_freed,
)

TABLE_SHAPED = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])

INF = float("inf")
NAN = float("nan")
SWEEP_GRIDS = [DEFAULT_EPS_GRID, (1e-3,), tuple(np.geomspace(1e-1, 1e-14, 17))]
BELOW_THE_FLOOR = [float(np.nextafter(EPS_MIN, 0.0)), 1e-300, 1e-320, 5e-324]


@st.composite
def sweep_matrices(draw):
    """Matrices with and without zeros, degenerate ones and large cells."""
    kind = draw(st.sampled_from(["any", "positive", "large", "column", "row", "one-cell"]))
    grid_bounds = {"any": {}, "positive": {"min_cell": 1}, "large": {"max_cell": 2**40}}
    if kind in grid_bounds:
        counts = np.array(draw(count_grids(**grid_bounds[kind])), dtype=np.uint64)
    else:
        n = draw(st.integers(2, 6))
        counts = np.zeros((n, n), dtype=np.uint64)
        at = draw(st.integers(0, n - 1))
        if kind == "one-cell":
            counts[at, draw(st.integers(0, n - 1))] = draw(st.integers(1, 2**40))
        else:
            line = draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n))
            if kind == "column":
                counts[:, at] = line
            else:
                counts[at, :] = line
    return AgreementMatrix(counts)


@st.composite
def large_total_matrices(draw):
    """Matrices whose total reaches up to 2**64 - 1: cells up to 2**64 / n**2,
    and sometimes one of them grown until the total is exactly 2**64 - 1."""
    n = draw(st.integers(2, 6))
    top = (2**64 - 1) // (n * n)
    cells = draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
    at = draw(st.integers(0, n * n - 1))
    if draw(st.booleans()):
        cells[at] += 2**64 - 1 - sum(cells)
    elif not any(cells):
        cells[at] = 1
    return AgreementMatrix(np.array(cells, dtype=np.uint64).reshape(n, n))


@st.composite
def small_top_matrices(draw, min_n, max_n, share):
    """Matrices whose largest cell is below n / share: random, sparse, or a
    single non-null column or row. The matrix copies any input layout to C
    order, so layouts are covered once, in test_matrix.py."""
    n = draw(st.integers(min_n, max_n))
    top = draw(st.integers(1, n // share - 1))
    kind = draw(st.sampled_from(["any", "sparse", "column", "row"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, top + 1, size=(n, n), dtype=np.uint64)
    if kind == "sparse":
        counts[rng.random((n, n)) < 0.7] = 0
    elif kind != "any":
        line = rng.integers(1, top + 1, size=n, dtype=np.uint64)
        counts[:] = 0
        at = draw(st.integers(0, n - 1))
        if kind == "column":
            counts[:, at] = line
        else:
            counts[at] = line
    if not counts.any():
        counts[0, 0] = 1
    return AgreementMatrix(counts)


def _peak_bytes(run):
    """The tracemalloc peak while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_matches_reference(m, evs, tol):
    """Each evaluation's value and entropies against the decimal evaluation
    of its literal epsilon matrix, within ``tol``; returns the references."""
    refs = reference_eps_evaluations(m.counts.tolist(), [ev.epsilon for ev in evs])
    for ev, ref in zip(evs, refs, strict=True):
        for got, want in [
            (ev.ia_value, ref.value),
            (ev.h_x, ref.h_x),
            (ev.h_y, ref.h_y),
            (ev.h_xy, ref.h_xy),
        ]:
            assert abs(got - float(want)) <= tol
    return refs


def _outcome(run):
    """The evaluations, or the class and message of the package error raised."""
    try:
        return run()
    except InfoAgreeError as exc:
        return type(exc), str(exc)


class TestZeroFreed:
    def test_holds_the_matrix_and_a_float_epsilon(self):
        m = AgreementMatrix([[5, 0], [0, 5]])
        em = zero_freed(m, np.float32(0.5))
        assert em == EpsilonMatrix(m, 0.5)
        assert em.base is m
        assert type(em.epsilon) is float

    def test_makes_no_copy_of_the_cells(self):
        assert [f.name for f in dataclasses.fields(EpsilonMatrix)] == ["base", "epsilon"]

    @pytest.mark.parametrize("eps", [0.0, -1.0, NAN, INF])
    def test_rejects_non_positive_epsilon(self, eps):
        with pytest.raises(NonPositiveEpsilonError, match="must be positive"):
            zero_freed(TABLE_SHAPED, eps)

    @pytest.mark.parametrize("eps", BELOW_THE_FLOOR)
    def test_rejects_epsilon_below_the_floor(self, eps):
        message = f"epsilon must be at least 4.1045368012983762e-289, got {eps!r}"
        for run in (
            lambda: zero_freed(TABLE_SHAPED, eps),
            lambda: EpsilonMatrix(TABLE_SHAPED, eps),
            lambda: sweep(TABLE_SHAPED, [1e-2, eps]),
        ):
            with pytest.raises(NonPositiveEpsilonError) as exc:
                run()
            assert str(exc.value) == message

    def test_floor_is_2_64_times_the_smallest_normal(self):
        assert EPS_MIN == 2.0**64 * np.finfo(np.float64).smallest_normal
        assert repr(EPS_MIN) == "4.1045368012983762e-289"
        assert zero_freed(TABLE_SHAPED, EPS_MIN).epsilon == EPS_MIN


class TestEvalIaAt:
    def test_diagonal_close_to_one_at_small_epsilon(self):
        em = zero_freed(AgreementMatrix([[5, 0], [0, 5]]), 1e-6)
        ev = eval_ia_at(em)
        assert abs(ev.ia_value - 1.0) <= 1e-4
        assert 0.0 <= ev.ia_value <= 1.0

    @given(positive_matrices(), st.sampled_from([1e-2, 1e-6, 1e-12]))
    def test_positive_matrix_equals_strict_ia(self, m, eps):
        ev = eval_ia_at(zero_freed(m, eps))
        assert ev.ia_value == pytest.approx(ia_strict(m), abs=1e-12)

    def test_table_approaches_limit_from_one_side(self):
        target = 1 / 3
        coarse = eval_ia_at(zero_freed(TABLE_SHAPED, 1e-4)).ia_value
        fine = eval_ia_at(zero_freed(TABLE_SHAPED, 1e-8)).ia_value
        assert abs(fine - target) < abs(coarse - target)
        assert (coarse - target) * (fine - target) > 0  # same side

    @pytest.mark.parametrize("eps", [EPS_MIN, 2 * EPS_MIN], ids=["EPS_MIN", "2*EPS_MIN"])
    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0], [10**4, 0]],
            [[871842, 0], [194308, 0]],
            [[2**64 - 2, 0], [0, 1]],
            [[2**64 - 1, 0], [0, 0]],
        ],
    )
    def test_epsilons_at_the_float_floor_match_the_reference(self, rows, eps):
        # the smaller marginal entropy is down to about 1e-291 here
        m = AgreementMatrix(rows)
        _assert_matches_reference(m, [eval_ia_at(zero_freed(m, eps))], 1e-12)

    @given(small_top_matrices(8, 16, share=4), st.sampled_from([1e-2, 1e-9, EPS_MIN]))
    def test_histogram_route_matches_the_reference(self, m, eps):
        assert 4 * (m.max_cell + 1) <= m.n  # the histogram route's rule
        _assert_matches_reference(m, [eval_ia_at(zero_freed(m, eps))], 1e-12)

    @pytest.mark.parametrize("n", [182, 400])
    def test_per_cell_route_in_row_blocks_matches_the_reference(self, n):
        # 182 rows are a block of 180 and one of 2; 400 are four of 81 and one of 76
        m = AgreementMatrix(np.random.default_rng(n).choice([0, 1, 7, 1000, 10**6], (n, n)))
        assert 4 * (m.max_cell + 1) > n
        _assert_matches_reference(m, sweep(m, (1e-2, 1e-9)), 1e-12)

    @pytest.mark.parametrize(
        "top, route",
        [
            (1, "_lines_from_histograms"),
            (2, "_lines_per_cell"),
            (7, "_lines_per_cell"),
            (8, "_lines_per_cell"),
        ],
    )
    def test_route_on_each_side_of_the_rule(self, monkeypatch, top, route):
        # n = 8: top = 1 is the largest cell with 4 * (top + 1) <= n
        rows = [[(3 * y + 5 * x) % (top + 1) for x in range(8)] for y in range(8)]
        rows[0] = [0] * 8
        m = AgreementMatrix(rows)
        taken = []
        for name in ("_lines_from_histograms", "_lines_per_cell"):
            real = getattr(infoagree.oracle, name)
            monkeypatch.setattr(
                infoagree.oracle,
                name,
                lambda *args, name=name, real=real: taken.append(name) or real(*args),
            )
        for eps in (1e-2, 1e-9, EPS_MIN):
            _assert_matches_reference(m, [eval_ia_at(zero_freed(m, eps))], 1e-12)
        assert taken == [route] * 3

    @given(st.one_of(small_top_matrices(2, 12, share=1), small_top_matrices(8, 40, share=4)))
    # several row blocks, the last one short: 300 = 2 * 109 + 82 and 200 = 163 + 37
    @example(AgreementMatrix(np.random.default_rng(300).integers(0, 10, size=(300, 300))))
    @example(AgreementMatrix(np.random.default_rng(200).integers(0, 50, size=(200, 200)).T))
    def test_the_routes_agree(self, m):
        total = np.uint64(m.total)
        by_cells = infoagree.oracle._lines_per_cell(m, total)
        by_hists = infoagree.oracle._lines_from_histograms(m, total)
        for by_cell, by_hist in zip(by_cells, by_hists):
            for name in ("sums", "sums_or_one", "others", "zeros", "other_zeros"):
                assert np.array_equal(getattr(by_hist, name), getattr(by_cell, name)), name
            assert by_hist.own == pytest.approx(by_cell.own, rel=1e-15, abs=0.0)

    @given(agreement_matrices(), st.sampled_from([1e-2, 1e-5, 1e-9]))
    @example(AgreementMatrix([[0, 0], [1, 0]]), 1e-9)
    def test_transpose_gives_same_value(self, m, eps):
        a = eval_ia_at(zero_freed(m, eps)).ia_value
        b = eval_ia_at(zero_freed(m.transpose(), eps)).ia_value
        assert abs(a - b) <= 1e-12


class TestSweep:
    def test_diagonal_increases_towards_one(self):
        m = AgreementMatrix([[5, 0], [0, 5]])
        # the values round to 1 from 1e-30 on, so the approach shows above that
        values = [ev.ia_value for ev in sweep(m, np.geomspace(1e-2, 1e-12, 11))]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) < 1e-6

    def test_positive_matrix_gives_constant_sequence(self):
        m = AgreementMatrix([[2, 1], [1, 2]])
        values = [ev.ia_value for ev in sweep(m, [1e-2, 1e-4, 1e-8])]
        assert all(v == pytest.approx(ia_strict(m), abs=1e-12) for v in values)

    def test_table_tends_to_limit(self):
        gaps = [abs(ev.ia_value - 1 / 3) for ev in sweep(TABLE_SHAPED, DEFAULT_EPS_GRID)]
        assert gaps[-1] < gaps[0]

    def test_preserves_input_order(self):
        evs = sweep(TABLE_SHAPED, [1e-2, 1e-3, 1e-4])
        assert [ev.epsilon for ev in evs] == [1e-2, 1e-3, 1e-4]

    def test_rejects_bad_grids(self):
        with pytest.raises(EmptySweepError):
            sweep(TABLE_SHAPED, [])
        with pytest.raises(NonPositiveEpsilonError):
            sweep(TABLE_SHAPED, [1e-2, 0.0])
        with pytest.raises(ValueError):
            sweep(TABLE_SHAPED, [1e-4, 1e-2])
        with pytest.raises(ValueError) as exc:
            sweep(TABLE_SHAPED, [1e-2, 1e-2])
        assert isinstance(exc.value, InfoAgreeError)

    @pytest.mark.parametrize(
        "m", [TABLE_SHAPED, AgreementMatrix([[2, 1], [1, 2]])], ids=["zeros", "positive"]
    )
    @pytest.mark.parametrize(
        "grid, error, message",
        [
            ([], EmptySweepError, "no epsilon values to sweep"),
            ([0.0], NonPositiveEpsilonError, "epsilon must be positive, got 0.0"),
            ([NAN], NonPositiveEpsilonError, "epsilon must be positive, got nan"),
            ([-1.0], NonPositiveEpsilonError, "epsilon must be positive, got -1.0"),
            ([INF], NonPositiveEpsilonError, "epsilon must be positive, got inf"),
            ([INF, 0.0], NonPositiveEpsilonError, "epsilon must be positive, got 0.0"),
            ([INF, 1e-3], NonPositiveEpsilonError, "epsilon must be positive, got inf"),
            ([1.0, INF], UnorderedEpsilonError, "epsilon values must be strictly decreasing"),
            ([INF, INF], UnorderedEpsilonError, "epsilon values must be strictly decreasing"),
            ([1e-2, 1e-2], UnorderedEpsilonError, "epsilon values must be strictly decreasing"),
            ([1e-4, 1e-2], UnorderedEpsilonError, "epsilon values must be strictly decreasing"),
            ([1e-300, 1e-2], UnorderedEpsilonError, "epsilon values must be strictly decreasing"),
            ([INF, 1e-300], NonPositiveEpsilonError, "epsilon must be positive, got inf"),
            (
                [1e-2, 1e-300],
                NonPositiveEpsilonError,
                "epsilon must be at least 4.1045368012983762e-289, got 1e-300",
            ),
        ],
    )
    def test_bad_grid_error_class_and_message(self, m, grid, error, message):
        with pytest.raises(Exception) as exc:
            sweep(m, grid)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @given(sweep_matrices(), st.sampled_from(SWEEP_GRIDS))
    # the per-cell route in several row blocks, 300 = 2 * 109 + 82, from a few
    # values up to 10**6 so that the decimal reference stays quick
    @example(AgreementMatrix(np.random.default_rng(300).choice([0, 1, 7, 1000, 10**6], (300, 300))), (1e-3,))
    def test_equals_evaluating_each_epsilon_matrix(self, m, grid):
        expected = _outcome(lambda: [eval_ia_at(zero_freed(m, e)) for e in grid])
        assert _outcome(lambda: sweep(m, grid)) == expected
        assert _outcome(lambda: sweep(m, grid)) == expected  # no state left behind
        if isinstance(expected, list):
            _assert_matches_reference(m, expected, 1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            [[871842, 0], [194308, 0]],
            [[0, 0], [1, 0]],
            [[2**63, 0], [0, 5]],
            [[2**64 - 4, 1], [1, 1]],
            [[1, 0, 0], [10, 0, 0], [10**6, 0, 0]],
        ],
    )
    def test_skewed_and_tiny_entropies_match_the_reference(self, rows):
        # marginal entropies down to 1e-31 and totals up to 2**64 - 1: each
        # entropy is accurate relative to its own size, however small
        m = AgreementMatrix(rows)
        evs = sweep(m, (1e-2, 1e-6, 1e-12, 1e-14))
        for ev, ref in zip(evs, _assert_matches_reference(m, evs, 1e-15)):
            h_lo = float(min(ref.h_x, ref.h_y))
            assert min(ev.h_x, ev.h_y) == pytest.approx(h_lo, rel=1e-13, abs=0.0)

    @given(large_total_matrices())
    @example(AgreementMatrix([[0] * 8] + [[0] + [(y + x) % 2 for x in range(7)] for y in range(7)]))
    def test_no_floating_point_errors_down_to_the_floor(self, m):
        # no quotient overflows and no logarithm sees 0 or a NaN; underflow is allowed
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            evs = sweep(m, [1e-2, EPS_MIN])
        assert all(0.0 <= ev.ia_value <= 1.0 for ev in evs)

    def test_memory_is_three_buffers_whatever_the_grid(self):
        n = 300
        m = AgreementMatrix(np.random.default_rng(300).integers(0, 10, size=(n, n)))
        grids = [DEFAULT_EPS_GRID[:1], DEFAULT_EPS_GRID, tuple(np.geomspace(1e-2, 1e-14, 60))]
        peaks = []
        for grid in grids:
            tracemalloc.start()
            try:
                sweep(m, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # three n**2 float64 buffers, made once per matrix whatever the grid
        assert max(peaks) <= 3 * n * n * 8 + n * n + 64 * 1024
        assert max(peaks) - min(peaks) <= 16 * 1024

    def test_per_cell_route_memory_is_three_buffers_whatever_the_grid(self):
        n = 300
        m = AgreementMatrix(np.random.default_rng(301).integers(0, 10**6, size=(n, n)))
        assert 4 * (m.max_cell + 1) > n
        grids = [DEFAULT_EPS_GRID[:1], DEFAULT_EPS_GRID, tuple(np.geomspace(1e-2, 1e-14, 60))]
        peaks = [_peak_bytes(lambda: sweep(m, grid)) for grid in grids]
        # three block buffers and a few n-vectors, made once per matrix
        assert max(peaks) <= 3 * infoagree.oracle._BLOCK_CELLS * 8 + 16 * n * 8 + 64 * 1024
        assert max(peaks) - min(peaks) <= 16 * 1024

    def test_histogram_route_makes_no_temporary_of_the_matrix_shape(self):
        n = 800
        m = AgreementMatrix(np.random.default_rng(800).integers(0, 10, size=(n, n)))
        tables = 2 * n * (m.max_cell + 1) * 8
        block = infoagree.oracle._BLOCK_CELLS * 8
        assert _peak_bytes(lambda: sweep(m, DEFAULT_EPS_GRID)) < block + tables + 64 * 1024


def _spy_on_table_builds(monkeypatch):
    """The raters whose A either route builds, in order, as the by_rows
    flags that end the builders' arguments."""
    built = []
    for name in ("_own_from_histogram", "_own_per_cell"):
        real = getattr(infoagree.oracle, name)
        monkeypatch.setattr(
            infoagree.oracle, name, lambda *args, real=real: built.append(args[-1]) or real(*args)
        )
    return built


def _flip_24():
    """n = 24 on the histogram route: H(lo | hi) conditions on the columns
    at 1e-2 and on the rows from 1e-30 on."""
    rng = np.random.default_rng(514)
    counts = rng.integers(0, 6, size=(24, 24))
    counts[rng.random((24, 24)) < 0.5] = 0
    return AgreementMatrix(counts)


class TestLazyTables:
    """A rater's A, the pass over its cells or its count table, is built the
    first time H(lo | hi) conditions on it, and kept for the rest of the
    grid."""

    @pytest.mark.parametrize(
        "m",
        [
            AgreementMatrix(np.random.default_rng(40).integers(0, 10, size=(40, 40))),
            AgreementMatrix(np.random.default_rng(41).integers(0, 10, size=(40, 40)).T),
            AgreementMatrix(np.random.default_rng(300).integers(0, 10, size=(300, 300))),
            AgreementMatrix(np.random.default_rng(182).choice([0, 1, 7, 1000, 10**6], (182, 182))),
            TABLE_SHAPED,
        ],
        ids=["hist-40", "hist-40-transposed", "hist-300", "per-cell-182", "table-shaped"],
    )
    def test_a_sweep_with_one_hi_rater_builds_one_table(self, monkeypatch, m):
        built = _spy_on_table_builds(monkeypatch)
        evs = sweep(m, DEFAULT_EPS_GRID)
        by_rows = {ev.h_x < ev.h_y for ev in evs}
        assert len(by_rows) == 1
        assert built == list(by_rows)

    @pytest.mark.parametrize(
        "m",
        [_flip_24(), AgreementMatrix([[4, 0, 4], [0, 2, 0], [0, 0, 4]])],
        ids=["hist-24", "per-cell-3"],
    )
    def test_a_sweep_whose_hi_rater_changes_builds_both(self, monkeypatch, m):
        built = _spy_on_table_builds(monkeypatch)
        evs = sweep(m, DEFAULT_EPS_GRID)
        first = evs[0].h_x < evs[0].h_y
        assert {ev.h_x < ev.h_y for ev in evs[1:]} == {not first}
        assert built == [first, not first]
        fields = ("epsilon", "ia_value", "h_x", "h_y", "h_xy")
        for ev in evs:
            alone = eval_ia_at(zero_freed(m, ev.epsilon))
            assert [float.hex(getattr(ev, f)) for f in fields] == [
                float.hex(getattr(alone, f)) for f in fields
            ]
        _assert_matches_reference(m, evs, 1e-12)


class TestCheckConvergence:
    def test_regular_case_tight_tolerance(self):
        m = AgreementMatrix([[2, 1], [0, 1]])
        grid = [10.0**-k for k in range(2, 10)]  # down to 1e-9
        evs = sweep(m, grid)
        report = check_convergence(
            evs, ia_epsilon(m).value, ConvergenceConfig(1e-6, False)
        )
        assert report.within_final_tol
        assert report.passed
        assert len(report.gaps) == len(grid)

    def test_degenerate_case_shrinking_tail(self):
        evs = sweep(TABLE_SHAPED, DEFAULT_EPS_GRID)
        report = check_convergence(
            evs, ia_epsilon(TABLE_SHAPED).value, ConvergenceConfig(0.1, True)
        )
        assert report.tail_shrinking
        assert report.within_final_tol
        assert report.passed

    def test_positive_matrix_trivial_convergence(self):
        m = AgreementMatrix([[2, 1], [1, 2]])
        evs = sweep(m, DEFAULT_EPS_GRID)
        report = check_convergence(evs, ia_strict(m), ConvergenceConfig(1e-12, False))
        assert report.within_final_tol
        assert report.passed

    def test_skewed_single_column_passes(self):
        # the old definition-form evaluation cancelled to -0.0113 here and raised
        m = AgreementMatrix([[871842, 0], [194308, 0]])
        evs = sweep(m, DEFAULT_EPS_GRID)
        report = check_convergence(evs, ia_epsilon(m).value, default_convergence_config(m))
        assert report.passed

    @pytest.mark.parametrize("rows", [[[1, 0], [1, 0]], [[5, 0], [5, 0]], [[0, 3, 0]] * 3])
    def test_sweep_on_its_limit_has_a_shrinking_tail(self, rows):
        m = AgreementMatrix(rows)
        report = check_convergence(sweep(m, DEFAULT_EPS_GRID), 0.0, default_convergence_config(m))
        assert max(report.gaps) <= 1e-15
        assert report.tail_shrinking
        assert report.passed

    @pytest.mark.parametrize(
        "values, shrinking",
        [
            ([0.0, 0.0, 0.0, 0.0], True),
            ([0.0, 1e-13, 1e-13, 1e-13], True),
            ([0.1, 0.05, 0.05, 0.05], True),
            ([0.05, 0.05, 0.05, 0.05], False),  # a flat tail off its target
            ([0.0, 1e-11, 1e-11, 1e-11], False),
            ([0.1, 1e-13, 0.0, 1e-13], True),
            ([0.1, 0.0, 0.05, 0.01], False),
        ],
    )
    def test_tail_shrinking_rule(self, values, shrinking):
        ev = eval_ia_at(zero_freed(TABLE_SHAPED, 1e-2))
        evs = [dataclasses.replace(ev, ia_value=v) for v in values]
        report = check_convergence(evs, 0.0, ConvergenceConfig(0.075, True))
        assert report.tail_shrinking is shrinking
        assert report.passed is shrinking

    def test_failure_is_reported_not_raised(self):
        evs = sweep(TABLE_SHAPED, [1e-2, 1e-3])
        report = check_convergence(evs, 1 / 3, ConvergenceConfig(1e-9, True))
        assert not report.within_final_tol
        assert not report.passed

    def test_empty_sweep_rejected(self):
        with pytest.raises(EmptySweepError):
            check_convergence([], 0.5, ConvergenceConfig(1e-6, False))

    def test_gap_values(self):
        evs = sweep(TABLE_SHAPED, [1e-2, 1e-3])
        report = check_convergence(evs, 1 / 3, ConvergenceConfig(0.1, False))
        assert report.gaps == tuple(abs(ev.ia_value - 1 / 3) for ev in evs)


class TestDefaults:
    def test_per_regime_defaults(self):
        degenerate = default_convergence_config(TABLE_SHAPED)
        assert degenerate.final_tol == 0.075
        assert degenerate.require_shrinking_tail
        regular = default_convergence_config(AgreementMatrix([[2, 1], [0, 1]]))
        assert regular.final_tol == 1e-6
        assert not regular.require_shrinking_tail

    def test_default_grid_spans_the_decades(self):
        assert DEFAULT_EPS_GRID[0] == 1e-2
        assert DEFAULT_EPS_GRID[-1] == 1e-282
        assert DEFAULT_EPS_GRID[-1] >= EPS_MIN
        assert len(DEFAULT_EPS_GRID) == 11


class TestAgainstClosedForm:
    def test_entropy_limits_reach_refined_entropies(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = regular_matrix_with_zeros(rng, int(rng.integers(2, 7)))
            r = ia_epsilon(m)
            ev = eval_ia_at(zero_freed(m, 1e-12))
            assert abs(ev.h_x - r.h_x) <= 1e-6
            assert abs(ev.h_y - r.h_y) <= 1e-6
            assert abs(ev.h_xy - r.h_xy) <= 1e-6

    def test_regular_values_converge_to_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = regular_matrix_with_zeros(rng, int(rng.integers(2, 7)))
            ev = eval_ia_at(zero_freed(m, 1e-9))
            assert abs(ev.ia_value - ia_epsilon(m).value) <= 1e-6


def test_oracle_shares_no_code_with_the_closed_form():
    # the verification path must stay independent of measure.py and the kernels
    forbidden = ("measure", "_kernels", "_pykernels", "_ckernels", "infotheory")
    for name, value in vars(infoagree.oracle).items():
        if inspect.ismodule(value):
            assert not value.__name__.endswith(forbidden), name
        elif inspect.isclass(value) or inspect.isfunction(value):
            assert not value.__module__.endswith(forbidden), name
