import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infoagree.oracle
from helpers import (
    agreement_matrices,
    count_grids,
    positive_matrices,
    regular_matrix_with_zeros,
)
from infoagree.errors import EmptySweepError, InfoAgreeError, NonPositiveEpsilonError
from infoagree.matrix import AgreementMatrix
from infoagree.measure import ia_epsilon, ia_strict
from infoagree.oracle import (
    DEFAULT_EPS_GRID,
    ConvergenceConfig,
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


@st.composite
def sweep_matrices(draw):
    """Matrices with and without zeros, degenerate ones and large cells, with
    the counts held in C or Fortran order."""
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
    if draw(st.booleans()):
        counts = np.asfortranarray(counts)
    return AgreementMatrix(counts)


def _plain_entropies(m, eps):
    """h_x, h_y and h_xy of the epsilon matrix by the plain expressions on
    fresh arrays, the reference for the oracle's reused buffers."""
    cells = m.counts.astype(np.float64)
    cells[cells == 0.0] = eps
    p = cells / float(cells.sum())
    return tuple(float(-(q * np.log2(q)).sum()) for q in (p.sum(axis=0), p.sum(axis=1), p))


def _outcome(run):
    """The evaluations, or the class and message of the package error raised."""
    try:
        return run()
    except InfoAgreeError as exc:
        return type(exc), str(exc)


class TestZeroFreed:
    def test_replaces_zeros_only(self):
        em = zero_freed(AgreementMatrix([[5, 0], [0, 5]]), 0.01)
        assert em.cells.tolist() == [[5.0, 0.01], [0.01, 5.0]]
        assert em.epsilon == 0.01

    def test_positive_matrix_unchanged(self):
        m = AgreementMatrix([[1, 2], [3, 4]])
        em = zero_freed(m, 0.5)
        assert em.cells.tolist() == m.counts.tolist()

    def test_table_pattern(self):
        em = zero_freed(TABLE_SHAPED, 1e-3)
        expected = np.where(TABLE_SHAPED.counts > 0, TABLE_SHAPED.counts, 1e-3)
        assert np.array_equal(em.cells, expected)
        assert (em.cells > 0).all()

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_epsilon(self, eps):
        with pytest.raises(NonPositiveEpsilonError):
            zero_freed(TABLE_SHAPED, eps)


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

    @given(agreement_matrices(), st.sampled_from([1e-2, 1e-5, 1e-9]))
    def test_transpose_gives_same_value(self, m, eps):
        a = eval_ia_at(zero_freed(m, eps)).ia_value
        b = eval_ia_at(zero_freed(m.transpose(), eps)).ia_value
        assert abs(a - b) <= 1e-12


class TestSweep:
    def test_diagonal_increases_towards_one(self):
        m = AgreementMatrix([[5, 0], [0, 5]])
        values = [ev.ia_value for ev in sweep(m, DEFAULT_EPS_GRID)]
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
        with pytest.raises(ValueError):
            sweep(TABLE_SHAPED, [1e-2, 1e-2])

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
            ([1.0, INF], ValueError, "epsilon values must be strictly decreasing"),
            ([INF, INF], ValueError, "epsilon values must be strictly decreasing"),
            ([1e-2, 1e-2], ValueError, "epsilon values must be strictly decreasing"),
            ([1e-4, 1e-2], ValueError, "epsilon values must be strictly decreasing"),
        ],
    )
    def test_bad_grid_error_class_and_message(self, m, grid, error, message):
        with pytest.raises(Exception) as exc:
            sweep(m, grid)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @given(sweep_matrices(), st.sampled_from(SWEEP_GRIDS))
    def test_equals_evaluating_each_epsilon_matrix(self, m, grid):
        expected = _outcome(lambda: [eval_ia_at(zero_freed(m, e)) for e in grid])
        assert _outcome(lambda: sweep(m, grid)) == expected
        assert _outcome(lambda: sweep(m, grid)) == expected  # no state left behind
        if isinstance(expected, list):
            plain = [_plain_entropies(m, e) for e in grid]
            assert [(ev.h_x, ev.h_y, ev.h_xy) for ev in expected] == plain


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
        assert degenerate.final_tol == 0.1
        assert degenerate.require_shrinking_tail
        regular = default_convergence_config(AgreementMatrix([[2, 1], [0, 1]]))
        assert regular.final_tol == 1e-6
        assert not regular.require_shrinking_tail

    def test_default_grid_spans_the_decades(self):
        assert DEFAULT_EPS_GRID[0] == 1e-2
        assert DEFAULT_EPS_GRID[-1] == 1e-12
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
