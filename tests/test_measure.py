import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from decimal_reference import reference_ia_epsilon
from helpers import agreement_matrices, count_grids, positive_matrices, small_count_matrices
from infoagree import _kernels, infotheory, measure
from infoagree.errors import ContainsZeroError, InternalInvariantError
from infoagree.matrix import AgreementMatrix
from infoagree.measure import IaCase, IaResult, ia_epsilon, ia_strict


def h_ref(probs):
    return -math.fsum(p * math.log2(p) for p in probs if p)


def reference_ia_positive(m):
    """Direct-definition reference: MI double sum over min marginal entropy."""
    p = m.counts.astype(float) / float(m.total)
    px = p.sum(axis=0)
    py = p.sum(axis=1)
    mi = math.fsum(
        p[y, x] * math.log2(p[y, x] / (py[y] * px[x]))
        for y in range(m.n)
        for x in range(m.n)
    )
    return mi / min(h_ref(px), h_ref(py))


def reference_ia_epsilon_base_e(m):
    """Closed form re-derived with natural logarithms; the ratio is base-free."""
    s = float(m.total)
    rows = m.row_sums().astype(float)
    cols = m.col_sums().astype(float)
    cells = m.counts.ravel().astype(float)

    def h_nat(values, support):
        if support == 1:
            return 0.0
        return math.log(s) - math.fsum(v * math.log(v) for v in values if v) / s

    mm = int(np.count_nonzero(rows))
    ll = int(np.count_nonzero(cols))
    hx = h_nat(cols, ll)
    hy = h_nat(rows, mm)
    hxy = h_nat(cells, int(np.count_nonzero(cells)))
    if ll == 1:
        return (m.n - mm) / m.n
    if mm == 1:
        return (m.n - ll) / m.n
    if hx < hy:
        return 1.0 + (hy - hxy) / hx
    return 1.0 + (hx - hxy) / hy


@st.composite
def near_independent_matrices(draw):
    """An outer product u v^T of small and large positive factors plus 0..2
    noise per cell: MI is tiny there, and so can be min(H(X), H(Y))."""
    n = draw(st.integers(2, 5))

    def factors(top):
        small_or_large = st.one_of(st.integers(1, 3), st.integers(2**10, top))
        return st.lists(small_or_large, min_size=n, max_size=n)

    u, v = draw(factors(2**30)), draw(factors(2**20))
    noise = draw(
        st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return [[a * b + e for b, e in zip(v, row)] for a, row in zip(u, noise)]


# One cell dominating cancels the closed form's entropies (ROADMAP items 1
# and 2), so these pins fail today, by a wrong value or a ZeroDivisionError.
# Strict: a fix that makes them pass fails them until it drops the mark.
# raises=: any other error is a failure, not the expected one.
_DOMINANT_CELL_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, ZeroDivisionError),
    reason="cancellation when one cell dominates (ROADMAP items 1 and 2)",
)

# H_lo is 1.7e-13 here: ia_epsilon gives 0.0800 and ia_strict 0.00230, where
# the decimal reference is 0.000498. pytest shows the reason of the test
# function's own xfail mark, which it reads first; this one records the cause.
_TINY_H_LO = pytest.param(
    [[2, 3], [719876492680831, 743026026788181]],
    marks=pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a cancelled difference divided by an H_lo of 1.7e-13 (ROADMAP item 1(c))",
    ),
)


def _assert_within_1e_12_of_reference(measure_value, rows):
    """measure_value(matrix) within 1e-12 of the decimal closed form."""
    want = float(reference_ia_epsilon(rows).value)
    assert abs(measure_value(AgreementMatrix(rows)) - want) <= 1e-12


def _assert_strict_matches_reference(rows):
    """ia_strict against the decimal value, within 1e-12 or the rounding that
    MI / H_lo amplifies, u * log2(S) / H_lo times VALUE_SLACK, whichever is
    larger; any exception fails."""
    m = AgreementMatrix(rows)
    ref = reference_ia_epsilon(m.counts.tolist())
    h_lo = float(min(ref.h_x, ref.h_y))
    bound = max(1e-12, VALUE_SLACK * U * math.log2(m.total) / h_lo)
    assert abs(ia_strict(m) - float(ref.value)) <= bound


class TestIaResultRecord:
    """A named tuple, with the fields, construction, equality, hash and repr
    the frozen dataclass had."""

    FIELDS = ("value", "case", "n", "m", "l", "h_x", "h_y", "h_xy")

    def test_record(self):
        result = ia_epsilon(AgreementMatrix([[4, 0], [1, 3]]))
        assert IaResult._fields == self.FIELDS
        values = [getattr(result, name) for name in self.FIELDS]
        assert IaResult(*values) == result == IaResult(**dict(zip(self.FIELDS, values)))
        assert hash(IaResult(*values)) == hash(result)
        assert result != IaResult(*values[:-1], values[-1] + 1.0)
        assert repr(result) == (
            f"IaResult(value={result.value!r}, case=<IaCase.REGULAR_X_MIN: 'regular_x_min'>, n=2, m=2, l=2, "
            f"h_x={result.h_x!r}, h_y={result.h_y!r}, h_xy={result.h_xy!r})"
        )
        with pytest.raises(AttributeError):
            result.value = 0.0


class TestIaStrict:
    def test_independence_gives_zero(self):
        assert ia_strict(AgreementMatrix([[1, 1], [1, 1]])) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        m = AgreementMatrix([[2, 1], [1, 2]])
        got = ia_strict(m)
        assert got == pytest.approx(reference_ia_positive(m), abs=1e-12)
        assert got == pytest.approx(0.081704, abs=1e-6)

    def test_rejects_zero_cells(self):
        with pytest.raises(ContainsZeroError):
            ia_strict(AgreementMatrix([[5, 0], [0, 5]]))

    @given(positive_matrices())
    def test_matches_direct_definition(self, m):
        assert ia_strict(m) == pytest.approx(reference_ia_positive(m), abs=1e-11)
        assert 0.0 <= ia_strict(m) <= 1.0

    @given(positive_matrices(max_cell=2**40))
    def test_matches_decimal_reference(self, m):
        _assert_strict_matches_reference(m.counts.tolist())

    @_DOMINANT_CELL_DEFECT
    @pytest.mark.parametrize(
        "rows",
        [[[2**62, 1], [1, 1]], [[2**64 - 4, 1], [1, 1]], [[10**9, 1], [1, 1]], _TINY_H_LO],
        ids=["2**62", "2**64-4", "10**9", "tiny-h-lo"],
    )
    def test_dominant_cell_matches_decimal_reference(self, rows):
        _assert_within_1e_12_of_reference(ia_strict, rows)

    @given(near_independent_matrices())
    def test_matches_decimal_reference_near_independence(self, rows):
        _assert_strict_matches_reference(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2**30], [1, 2**30]],
            [[1, 466412543], [1, 466412538]],
            [[76405, 199436], [28474859208357, 74325699513894]],
        ],
    )
    def test_no_cancellation_near_independence(self, rows):
        # the entropy-difference form 1 + (H_hi - H_xy) / H_lo raised on all three
        _assert_strict_matches_reference(rows)

    def test_skips_the_count_identity(self, monkeypatch):
        m = AgreementMatrix(np.random.default_rng(300).integers(1, 10, size=(300, 300)))
        expected = ia_strict(m)

        def forbidden(*args, **kwargs):
            raise AssertionError("ia_strict must not call this")

        monkeypatch.setattr(_kernels, "_count_entropy", forbidden)
        monkeypatch.setattr(_kernels, "xlog2_sum_hist", forbidden)
        assert ia_strict(m) == expected

    def test_goes_through_the_kernels_alone(self, monkeypatch):
        # looked up on _kernels at call time, so a wrapper there sees every call
        calls = []
        for name in ("_xlog2_ratio_sum", "_finalize_mi", "_probs_entropy"):
            original = getattr(_kernels, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(_kernels, name, spy)

        def forbidden(*args, **kwargs):
            raise AssertionError("ia_strict must not call the distribution layer")

        for name in ("marginal_x", "marginal_y", "joint", "shannon_entropy", "mutual_information"):
            monkeypatch.setattr(infotheory, name, forbidden)
        m = AgreementMatrix([[2, 1], [1, 2]])
        assert ia_strict(m) == pytest.approx(reference_ia_positive(m), abs=1e-12)
        assert sorted(calls) == ["_finalize_mi", "_probs_entropy", "_probs_entropy", "_xlog2_ratio_sum"]

    @given(positive_matrices(max_cell=2**40))
    # several row blocks: 300 = 2 * 109 + 82 rows, the last block short, and
    # 800 = 20 * 40 rows with cells up to 2**40
    @example(AgreementMatrix(np.random.default_rng(300).integers(1, 10, size=(300, 300))))
    @example(AgreementMatrix(np.random.default_rng(800).integers(1, 2**40, size=(800, 800))))
    def test_equals_mutual_information_over_the_joint(self, m):
        p_x, p_y = infotheory.marginal_x(m), infotheory.marginal_y(m)
        mi = infotheory.mutual_information(infotheory.joint(m), p_y, p_x)
        h_lo = min(infotheory.shannon_entropy(p_x), infotheory.shannon_entropy(p_y))
        assert ia_strict(m) == measure._absorb_rounding(mi / h_lo)

    def test_value_does_not_depend_on_the_blas_thread_count(self):
        # ia_strict sums its n = 800 cells in row blocks and its marginals are
        # 800 long, so no vector here reaches ddot's threaded path (about
        # 10 000 entries): this passes while ia_epsilon's bits move with the
        # thread count (test_ia_epsilon_bits_do_not_depend_on_the_blas_thread_count)
        script = (
            "import numpy as np\n"
            "from infoagree.matrix import AgreementMatrix\n"
            "from infoagree.measure import ia_strict\n"
            "counts = np.random.default_rng(3).integers(1, 10, size=(800, 800))\n"
            "print(repr(ia_strict(AgreementMatrix(counts))))\n"
        )
        values = _stdout_with_1_and_2_blas_threads(script)
        assert values[0] == values[1]


def _stdout_with_1_and_2_blas_threads(script: str) -> list[str]:
    """The stdout of ``python -c script`` in a fresh process with one BLAS
    thread, then with two."""
    src = os.path.dirname(os.path.dirname(infotheory.__file__))
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        )
        values.append(done.stdout)
    return values


# xlog2_sum's ddot is threaded above about 10 000 entries, and its sum then
# depends on the thread count (ROADMAP item 3). Strict, as _DOMINANT_CELL_DEFECT:
# the fix fails this pin until it drops the mark.
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two CPUs")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="threaded ddot in _kernels.xlog2_sum (ROADMAP item 3)",
)
def test_ia_epsilon_bits_do_not_depend_on_the_blas_thread_count():
    # per-cell route, 160 000 cells; seeds 0 and 4 give the same bits today
    script = (
        "import numpy as np\n"
        "from infoagree.matrix import AgreementMatrix\n"
        "from infoagree.measure import ia_epsilon\n"
        "for s in (1, 2, 3, 5):\n"
        "    counts = np.random.default_rng(s).integers(0, 10**7 + 1, (400, 400))\n"
        "    r = ia_epsilon(AgreementMatrix(counts))\n"
        "    print(s, r.value.hex(), r.h_xy.hex())\n"
    )
    values = _stdout_with_1_and_2_blas_threads(script)
    assert values[0] == values[1]


class TestIaEpsilonExamples:
    def test_perfect_agreement_diagonal(self):
        r = ia_epsilon(AgreementMatrix([[5, 0], [0, 5]]))
        assert r.value == 1.0
        # h_x == h_y exactly, and ties take the Y-min branch (strict comparison)
        assert r.case == IaCase.REGULAR_Y_MIN
        assert (r.m, r.l) == (2, 2)
        assert r.h_x == r.h_y == r.h_xy == 1.0

    def test_single_column_two_rows(self):
        r = ia_epsilon(AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]]))
        assert r.value == (3 - 2) / 3
        assert r.case == IaCase.DEGENERATE_X
        assert (r.n, r.m, r.l) == (3, 2, 1)
        assert r.h_x == 0.0
        assert r.h_y == pytest.approx(h_ref([0.4, 0.6]), abs=1e-12)
        assert r.h_xy == pytest.approx(h_ref([0.4, 0.6]), abs=1e-12)

    def test_single_cell_hits_x_branch_first(self):
        r = ia_epsilon(AgreementMatrix([[7, 0], [0, 0]]))
        assert r.value == (2 - 1) / 2
        assert r.case == IaCase.DEGENERATE_X
        assert (r.m, r.l) == (1, 1)
        assert r.h_x == r.h_y == r.h_xy == 0.0

    def test_regular_matrix_with_zero(self):
        r = ia_epsilon(AgreementMatrix([[2, 1], [0, 1]]))
        h_y = h_ref([0.75, 0.25])
        expected = 1.0 + (1.0 - 1.5) / h_y
        assert r.case == IaCase.REGULAR_Y_MIN
        assert r.value == pytest.approx(expected, abs=1e-12)
        assert r.value == pytest.approx(0.3836885465963444, abs=1e-12)
        assert r.h_x == pytest.approx(1.0, abs=1e-12)
        assert r.h_y == pytest.approx(h_y, abs=1e-12)
        assert r.h_xy == pytest.approx(1.5, abs=1e-12)

    def test_refined_perfect_agreement(self):
        assert ia_epsilon(AgreementMatrix([[3, 0], [0, 1]])).value == 1.0


class TestIaEpsilonProperties:
    @given(agreement_matrices())
    def test_total_and_in_range(self, m):
        r = ia_epsilon(m)
        assert 0.0 <= r.value <= 1.0
        assert 1 <= r.m <= r.n
        assert 1 <= r.l <= r.n
        assert r.h_x >= 0.0 and r.h_y >= 0.0 and r.h_xy >= 0.0

    @given(agreement_matrices())
    def test_transpose_symmetry(self, m):
        a = ia_epsilon(m)
        b = ia_epsilon(m.transpose())
        assert abs(a.value - b.value) <= 1e-12
        assert (a.m, a.l) == (b.l, b.m)

    @given(positive_matrices())
    def test_agrees_with_strict_on_positive_matrices(self, m):
        assert abs(ia_epsilon(m).value - ia_strict(m)) <= 1e-12

    @given(agreement_matrices())
    def test_case_labels_match_structure(self, m):
        r = ia_epsilon(m)
        if r.case == IaCase.DEGENERATE_X:
            assert r.l == 1
            assert r.h_x == 0.0
            assert r.value == (r.n - r.m) / r.n
        elif r.case == IaCase.DEGENERATE_Y:
            assert r.m == 1 and r.l > 1
            assert r.h_y == 0.0
            assert r.value == (r.n - r.l) / r.n
        elif r.case == IaCase.REGULAR_X_MIN:
            assert r.h_x < r.h_y
        else:
            assert 0.0 < r.h_y <= r.h_x

    @given(st.integers(2, 12), st.integers(1, 10**6))
    def test_single_cell_matrix(self, n, count):
        a = np.zeros((n, n), dtype=np.int64)
        a[n // 2, n // 3] = count
        r = ia_epsilon(AgreementMatrix(a))
        assert r.value == (n - 1) / n
        assert (r.m, r.l) == (1, 1)
        # both degenerate branches would give the same value here
        assert (r.n - r.m) / r.n == (r.n - r.l) / r.n

    @given(st.integers(2, 12), st.data())
    def test_full_single_column_gives_zero(self, n, data):
        a = np.zeros((n, n), dtype=np.int64)
        a[:, 1] = data.draw(
            st.lists(st.integers(1, 50), min_size=n, max_size=n).map(np.array)
        )
        r = ia_epsilon(AgreementMatrix(a))
        assert r.value == 0.0
        assert r.case == IaCase.DEGENERATE_X
        assert r.m == n

    @given(count_grids())
    def test_tie_on_symmetric_matrices(self, grid):
        a = np.array(grid)
        m = AgreementMatrix(a + a.T)
        r = ia_epsilon(m)
        assert r.h_x == r.h_y
        if r.case not in (IaCase.DEGENERATE_X, IaCase.DEGENERATE_Y):
            # ties fall to the Y-min branch; both formulas agree there
            assert r.case == IaCase.REGULAR_Y_MIN
            x_min_value = 1.0 + (r.h_y - r.h_xy) / r.h_x
            assert r.value == pytest.approx(x_min_value, abs=1e-12)

    @given(agreement_matrices(), st.data())
    def test_permutation_invariance(self, m, data):
        perm_r = data.draw(st.permutations(range(m.n)))
        perm_c = data.draw(st.permutations(range(m.n)))
        shuffled = AgreementMatrix(m.counts[np.array(perm_r)][:, np.array(perm_c)])
        assert abs(ia_epsilon(shuffled).value - ia_epsilon(m).value) <= 1e-12

    @given(agreement_matrices(max_cell=50), st.sampled_from([2, 10, 1000]))
    def test_scale_invariance(self, m, k):
        scaled = AgreementMatrix(m.counts.astype(np.int64) * k)
        assert abs(ia_epsilon(scaled).value - ia_epsilon(m).value) <= 1e-12

    @given(agreement_matrices())
    def test_base_invariance(self, m):
        assert ia_epsilon(m).value == pytest.approx(
            reference_ia_epsilon_base_e(m), abs=1e-12
        )


def _cells_take_histogram(m):
    support = int(np.count_nonzero(m.counts))
    return m.total < support**2 and int(m.counts.max()) < support


class TestCountEntropyRoute:
    @pytest.fixture
    def routes(self, monkeypatch):
        taken = []
        hist, generic = _kernels.xlog2_sum_hist, _kernels.xlog2_sum

        def spy_hist(counts, top):
            taken.append("hist")
            return hist(counts, top)

        def spy_generic(counts, *rest):
            taken.append("generic")
            return generic(counts, *rest)

        monkeypatch.setattr(_kernels, "xlog2_sum_hist", spy_hist)
        monkeypatch.setattr(_kernels, "xlog2_sum", spy_generic)
        return taken

    def test_top_below_support_takes_histogram(self, routes):
        counts = np.array([3, 0, 1, 1, 1], dtype=np.uint64)
        h = _kernels._count_entropy(counts, 4, 6.0)
        assert routes == ["hist"]
        assert h == pytest.approx(h_ref([3 / 6, 1 / 6, 1 / 6, 1 / 6]), abs=1e-15)

    def test_top_equal_to_support_takes_generic(self, routes):
        counts = np.array([4, 0, 1, 1, 1], dtype=np.uint64)
        h = _kernels._count_entropy(counts, 4, 7.0)
        assert routes == ["generic"]
        assert h == pytest.approx(h_ref([4 / 7, 1 / 7, 1 / 7, 1 / 7]), abs=1e-15)

    def test_total_of_support_squared_takes_generic_without_the_maximum(self, routes):
        # max >= mean = support here, so the stated top (a false 0) is never read
        counts = np.array([2, 2], dtype=np.uint64)
        assert _kernels._count_entropy(counts, 2, 4.0, top=0) == 1.0
        assert routes == ["generic"]

    def test_a_stated_top_is_not_recomputed(self, routes):
        counts = np.array([5, 1, 1, 1, 1, 1], dtype=np.uint64)  # max 5, support 6
        _kernels._count_entropy(counts, 6, 10.0, top=6)
        assert routes == ["generic"]

    def test_ia_epsilon_routes_cells_by_the_cached_max_cell(self, routes):
        m = AgreementMatrix(np.ones((3, 3), dtype=np.uint64))
        m.max_cell = 9  # stated too high: the true max of 1 would route the cells to the histogram
        ia_epsilon(m)
        assert routes == ["generic", "generic", "generic"]

    def test_float_counts_take_generic(self, routes):
        assert infotheory.entropy_from_counts([1.0, 1.0, 2.0]) == 1.5
        assert routes == ["generic"]

    def test_both_routes_agree_at_the_boundary(self):
        below = np.array([5, 1, 1, 1, 1, 1], dtype=np.uint64)  # top 5, support 6
        h_hist = _kernels._count_entropy(below, 6, 10.0)
        h_generic = _kernels._count_entropy(below.astype(np.float64), 6, 10.0)
        assert h_hist == pytest.approx(h_generic, abs=1e-15)

    def test_large_matrix_cells_take_histogram_and_sums_generic(self, routes):
        m = AgreementMatrix(np.random.default_rng(5).integers(0, 10, size=(200, 200)))
        ia_epsilon(m)
        assert sorted(routes) == ["generic", "generic", "hist"]

    @given(st.integers(2, 40), st.booleans(), st.data())
    def test_degenerate_h_xy_equals_its_marginal_bit_for_bit(self, n, column, data):
        line = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        assume(any(line))
        a = np.zeros((n, n), dtype=np.int64)
        at = data.draw(st.integers(0, n - 1))
        if column:
            a[:, at] = line
        else:
            a[at, :] = line
        r = ia_epsilon(AgreementMatrix(a))
        assert r.h_xy == (r.h_y if column else r.h_x)

    @given(small_count_matrices(densities=(0.3, 0.7, 1.0)))
    def test_transpose_gives_the_mirrored_result_bit_for_bit(self, m):
        assume(_cells_take_histogram(m))
        a = ia_epsilon(m)
        b = ia_epsilon(m.transpose())
        assert (b.value, b.n, b.h_xy) == (a.value, a.n, a.h_xy)
        assert (b.m, b.l, b.h_x, b.h_y) == (a.l, a.m, a.h_y, a.h_x)

    def test_no_n_squared_float_copies(self):
        n = 800
        m = AgreementMatrix(np.random.default_rng(400).integers(0, 10, size=(n, n)))
        expected = ia_epsilon(m)
        tracemalloc.start()
        try:
            got = ia_epsilon(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        # the histogram kernel's copy of one slice of the read-only cells is
        # the largest array; a whole copy of them would be 5 MB
        assert peak < _kernels._SLICE_CELLS * 8 + 64 * 1024

    def test_ia_strict_makes_no_n_squared_temporary(self):
        n = 800
        m = AgreementMatrix(np.random.default_rng(800).integers(1, 10, size=(n, n)))
        expected = ia_strict(m)
        tracemalloc.start()
        try:
            got = ia_strict(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        # no joint: two row blocks of scratch (the probabilities and the
        # terms), the two marginals and NumPy's 64 KiB ufunc buffer (8192
        # doubles) for a broadcast operand
        block = _kernels._SLICE_CELLS * 8
        assert peak < 2 * block + 2 * n * 8 + 64 * 1024


U = 2.0**-53
VALUE_SLACK = 16
"""Multiple of u * log2(S) / min(H(X), H(Y)), the fast closed form's
a-priori error bound on the value (ROADMAP item 1); the largest multiple
seen on 12 000 seeded matrices with large counts was 7.8."""


def _assert_matches_reference(counts, value_tol=None):
    """ia_epsilon against the decimal closed form: entropies within 1e-12;
    the value within ``value_tol``, by default within 1e-12 or the
    fast form's error bound, whichever is larger."""
    m = AgreementMatrix(counts)
    assert m.total <= 2**53
    ref = reference_ia_epsilon(m.counts.tolist())
    h_lo = float(min(ref.h_x, ref.h_y))
    bound = math.inf if h_lo == 0.0 else VALUE_SLACK * U * math.log2(m.total) / h_lo
    try:
        r = ia_epsilon(m)
    except InternalInvariantError:
        # one count dominating cancels the fast form (ROADMAP item 1); it
        # may give up only where its own error bound exceeds the rounding
        # that _absorb_rounding forgives
        assert value_tol is None and bound > measure.ROUNDING_TOL
        return
    assert (r.m, r.l) == (ref.m, ref.l)
    for got, want in ((r.h_x, ref.h_x), (r.h_y, ref.h_y), (r.h_xy, ref.h_xy)):
        assert abs(got - float(want)) <= 1e-12
    if r.case in (IaCase.DEGENERATE_X, IaCase.DEGENERATE_Y):
        assert r.value == float(ref.value)
    else:
        tol = max(1e-12, bound) if value_tol is None else value_tol
        assert abs(r.value - float(ref.value)) <= tol


class TestDecimalReference:
    """The closed form against tests/decimal_reference.py, on both entropy routes."""

    def test_golden_matrix(self):
        _assert_matches_reference([[7, 1, 0], [2, 5, 1], [0, 1, 3]], value_tol=1e-12)

    def test_degenerate_row_of_small_counts(self):
        a = np.zeros((12, 12), dtype=np.int64)
        a[3] = [1, 2, 0, 3, 1, 1, 2, 0, 1, 1, 2, 1]
        m = AgreementMatrix(a)
        assert _cells_take_histogram(m)
        _assert_matches_reference(a, value_tol=1e-12)
        r = ia_epsilon(m)
        assert r.case == IaCase.DEGENERATE_Y
        assert r.h_xy == r.h_x

    def test_300_by_300_counts_0_to_9(self):
        a = np.random.default_rng(300).integers(0, 10, size=(300, 300))
        assert _cells_take_histogram(AgreementMatrix(a))
        _assert_matches_reference(a, value_tol=1e-12)

    @given(small_count_matrices())
    def test_histogram_route(self, m):
        _assert_matches_reference(m.counts)

    @given(count_grids(max_n=5, max_cell=2**47))
    def test_generic_route_large_counts(self, grid):
        _assert_matches_reference(grid)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(0, 3), st.integers(2**20, 2**47)),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_generic_route_mixed_magnitudes(self, grid):
        assume(any(any(row) for row in grid))
        _assert_matches_reference(grid)

    @_DOMINANT_CELL_DEFECT
    @pytest.mark.parametrize(
        "rows",
        [
            [[2**62, 0], [0, 1]],
            [[2**62, 1], [1, 1]],
            [[2**64 - 4, 1], [1, 1]],
            [[2**40, 1], [1, 1]],
            [[10**9, 1], [1, 1]],
            _TINY_H_LO,
        ],
        ids=["2**62-diagonal", "2**62", "2**64-4", "2**40", "10**9", "tiny-h-lo"],
    )
    def test_dominant_cell(self, rows):
        _assert_within_1e_12_of_reference(lambda m: ia_epsilon(m).value, rows)


class TestAbsorbRounding:
    """The safety branches of _absorb_rounding: valid matrices reach its
    absorption below 0, but not the one above 1 or the raise."""

    @pytest.mark.parametrize("value", [0.0, 5e-324, 0.5, 1.0])
    def test_a_value_in_the_unit_interval_is_kept(self, value):
        assert measure._absorb_rounding(value) == value

    def test_absorbs_down_to_exactly_minus_rounding_tol(self):
        for value in (-measure.ROUNDING_TOL, math.nextafter(-measure.ROUNDING_TOL, 0.0), -5e-324):
            result = measure._absorb_rounding(value)
            assert result == 0.0 and math.copysign(1.0, result) == 1.0

    def test_absorbs_up_to_exactly_one_plus_rounding_tol(self):
        top = 1.0 + measure.ROUNDING_TOL
        for value in (top, math.nextafter(top, 1.0), math.nextafter(1.0, 2.0)):
            assert measure._absorb_rounding(value) == 1.0

    @pytest.mark.parametrize(
        "value",
        [
            math.nextafter(-measure.ROUNDING_TOL, -1.0),
            math.nextafter(1.0 + measure.ROUNDING_TOL, 2.0),
            math.nan,
            math.inf,
            -math.inf,
        ],
        ids=["below", "above", "nan", "inf", "-inf"],
    )
    def test_raises_beyond_the_tolerance(self, value):
        with pytest.raises(InternalInvariantError, match=r"outside \[0, 1\]"):
            measure._absorb_rounding(value)
