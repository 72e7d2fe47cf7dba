import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import agreement_matrices
from infoagree.errors import (
    AllZeroError,
    CountOverflowError,
    DimensionTooSmallError,
    NegativeCellError,
    NonIntegerCellError,
    NotSquareError,
)
from infoagree.matrix import U64_MAX, AgreementMatrix
from infoagree.measure import ia_epsilon


class TestConstruction:
    def test_basic(self):
        m = AgreementMatrix([[1, 2], [3, 4]])
        assert m.n == 2
        assert m.total == 10
        assert m.counts.tolist() == [[1, 2], [3, 4]]

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            AgreementMatrix([[0, 0], [0, 0]])

    def test_not_square_rejected(self):
        with pytest.raises(NotSquareError):
            AgreementMatrix([[1, 2, 3], [4, 5, 6]])

    def test_ragged_rejected(self):
        with pytest.raises(NotSquareError):
            AgreementMatrix([[1, 2], [3]])

    def test_one_by_one_rejected(self):
        with pytest.raises(DimensionTooSmallError):
            AgreementMatrix([[5]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionTooSmallError):
            AgreementMatrix([])

    def test_negative_cell_rejected(self):
        with pytest.raises(NegativeCellError):
            AgreementMatrix([[1, -2], [3, 4]])

    def test_non_integer_cell_rejected(self):
        with pytest.raises(NonIntegerCellError):
            AgreementMatrix([[1.5, 2], [3, 4]])
        with pytest.raises(NonIntegerCellError):
            AgreementMatrix([[True, False], [False, True]])

    def test_cell_overflow_rejected(self):
        with pytest.raises(CountOverflowError):
            AgreementMatrix([[2**64, 0], [0, 1]])

    def test_total_overflow_rejected(self):
        big = 2**63
        with pytest.raises(CountOverflowError):
            AgreementMatrix([[big, big], [1, 0]])

    def test_largest_representable_total_accepted(self):
        half = U64_MAX // 2
        m = AgreementMatrix([[half, half], [1, 0]])
        assert m.total == U64_MAX

    def test_ndarray_input(self):
        m = AgreementMatrix(np.array([[1, 2], [3, 4]]))
        assert m.total == 10
        with pytest.raises(NonIntegerCellError):
            AgreementMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(NegativeCellError):
            AgreementMatrix(np.array([[1, -1], [1, 1]]))
        with pytest.raises(NotSquareError):
            AgreementMatrix(np.arange(6).reshape(2, 3))

    def test_input_array_is_copied_and_frozen(self):
        src = np.array([[1, 2], [3, 4]])
        m = AgreementMatrix(src)
        src[0, 0] = 99
        assert m.counts[0, 0] == 1
        with pytest.raises(ValueError):
            m.counts[0, 0] = 7

        # uint64 input skips the negative scan but is still copied and frozen
        big = 2**63 + 5
        src = np.array([[big, 1], [2, 3]], dtype=np.uint64)
        m = AgreementMatrix(src)
        assert m.total == big + 6
        assert not np.shares_memory(m.counts, src)
        src[0, 0] = 99
        assert int(m.counts[0, 0]) == big
        with pytest.raises(ValueError):
            m.counts[0, 0] = 7

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    @pytest.mark.parametrize("subclass", [np.matrix, np.ma.masked_array])
    def test_ndarray_subclass_input_is_held_as_a_plain_array(self, subclass):
        plain = AgreementMatrix(np.array([[5, 0, 1], [2, 7, 0], [0, 3, 9]]))
        m = AgreementMatrix(subclass([[5, 0, 1], [2, 7, 0], [0, 3, 9]]))
        assert type(m.counts) is np.ndarray
        assert (m.n, m.total, m.max_cell) == (3, 27, 9)
        assert m.row_sums().tolist() == [6, 9, 12]
        assert ia_epsilon(m) == ia_epsilon(plain)

    def test_masked_array_is_read_without_its_mask(self):
        hidden = [[True, False], [False, False]]
        assert AgreementMatrix(np.ma.masked_array([[1, 2], [3, 4]], mask=hidden)).total == 10
        with pytest.raises(NegativeCellError):
            AgreementMatrix(np.ma.masked_array([[-1, 2], [3, 4]], mask=hidden))


class TestExactTotal:
    """The total is exact up to 2**64 - 1 and refused beyond, on both the
    single-sum path and the half-word path."""

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([U64_MAX, 0, 0, 0], id="one-cell-2**64-1"),
            pytest.param([U64_MAX - 3, 1, 1, 1], id="2**64-1-from-a-large-cell"),
            pytest.param([2**62] * 3 + [2**62 - 1], id="four-cells-near-2**62"),
            pytest.param([2**62 + 1, 2**62 - 1, 2**62, 2**62 - 1], id="2**64-1-spread"),
            pytest.param([2**32 - 1] * 9, id="low-halves-carry"),
        ],
    )
    def test_total_up_to_2_64_minus_1_accepted(self, cells):
        n = int(len(cells) ** 0.5)
        arr = np.array(cells, dtype=np.uint64).reshape(n, n)
        m = AgreementMatrix(arr)
        assert m.total == sum(cells)
        assert m.total <= U64_MAX

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([U64_MAX, 1, 0, 0], id="2**64"),
            pytest.param([2**62] * 4, id="four-cells-of-2**62"),
            pytest.param([U64_MAX] * 4, id="every-cell-2**64-1"),
        ],
    )
    def test_total_from_2_64_rejected(self, cells):
        arr = np.array(cells, dtype=np.uint64).reshape(2, 2)
        with pytest.raises(CountOverflowError) as exc:
            AgreementMatrix(arr)
        assert str(exc.value) == f"total count {sum(cells)} exceeds 64-bit range"

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.lists(
                st.integers(0, 2**20) | st.integers(0, U64_MAX) | st.integers(2**61, 2**63),
                min_size=n * n,
                max_size=n * n,
            )
        )
    )
    def test_equals_the_python_int_sum(self, cells):
        n = int(round(len(cells) ** 0.5))
        arr = np.array(cells, dtype=np.uint64).reshape(n, n)
        expected = sum(map(int, arr.ravel().tolist()))
        if expected == 0:
            with pytest.raises(AllZeroError):
                AgreementMatrix(arr)
        elif expected > U64_MAX:
            with pytest.raises(CountOverflowError) as exc:
                AgreementMatrix(arr)
            assert str(exc.value) == f"total count {expected} exceeds 64-bit range"
        else:
            assert AgreementMatrix(arr).total == expected


class TestSumsAndCounts:
    def test_row_sums(self):
        assert AgreementMatrix([[1, 2], [3, 4]]).row_sums().tolist() == [3, 7]
        table = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert table.row_sums().tolist() == [4, 6, 0]
        assert AgreementMatrix([[5, 0], [0, 5]]).row_sums().tolist() == [5, 5]

    def test_col_sums(self):
        assert AgreementMatrix([[1, 2], [3, 4]]).col_sums().tolist() == [4, 6]
        table = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert table.col_sums().tolist() == [10, 0, 0]

    def test_non_null_counts(self):
        table = AgreementMatrix([[4, 0, 0], [6, 0, 0], [0, 0, 0]])
        assert table.count_non_null_rows() == 2
        assert table.count_non_null_cols() == 1
        corner = AgreementMatrix([[7, 0], [0, 0]])
        assert corner.count_non_null_rows() == 1
        assert corner.count_non_null_cols() == 1
        full = AgreementMatrix([[1, 2], [3, 4]])
        assert full.count_non_null_rows() == 2
        assert full.count_non_null_cols() == 2

    def test_has_zero_cell(self):
        assert AgreementMatrix([[5, 0], [0, 5]]).has_zero_cell()
        assert not AgreementMatrix([[1, 2], [3, 4]]).has_zero_cell()

    @pytest.mark.parametrize("zero", [False, True])
    def test_has_zero_cell_on_any_layout(self, zero):
        cells = np.arange(1, 37, dtype=np.uint64).reshape(6, 6)
        cells[1, 2] = U64_MAX - 1000
        if zero:
            cells[4, 4] = 0
        layouts = [
            cells,
            np.asfortranarray(cells),
            cells.T,
            cells[::2, ::2],
            cells[1::2, ::-2],
        ]
        for arr in layouts:
            expected = bool((arr == 0).any())
            assert AgreementMatrix(arr).has_zero_cell() is expected
            # _from_owned keeps a C-contiguous uint64 array and copies any other
            assert AgreementMatrix._from_owned(arr).has_zero_cell() is expected

    def test_has_zero_cell_with_the_largest_cell(self):
        assert not AgreementMatrix([[U64_MAX - 3, 1], [1, 1]]).has_zero_cell()
        assert AgreementMatrix([[U64_MAX, 0], [0, 0]]).has_zero_cell()


def _layouts(cells: np.ndarray) -> dict[str, np.ndarray]:
    """Fresh copies of ``cells`` as C, Fortran, strided and transposed arrays."""
    wide = np.zeros((cells.shape[0], 2 * cells.shape[1]), dtype=cells.dtype)
    wide[:, ::2] = cells
    return {
        "C": cells.copy(),
        "F": np.asfortranarray(cells),
        "strided": wide[:, ::2],
        "transposed": cells.T.copy().T,
    }


class TestConstructionStatistics:
    """The max, the line sums and the positive-cell count are reduced once at
    construction; every later read returns them."""

    @staticmethod
    def _cells():
        cells = np.random.default_rng(14).integers(0, 6, size=(9, 9)).astype(np.uint64)
        cells[2] = 0  # an empty row and column
        cells[:, 5] = 0
        return cells

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "transposed"])
    @pytest.mark.parametrize("make", [AgreementMatrix, AgreementMatrix._from_owned])
    def test_equal_fresh_reductions_on_every_layout(self, layout, make):
        arr = _layouts(self._cells())[layout]
        want = arr.copy()
        m = make(arr)
        assert m.counts.flags.c_contiguous
        assert (m.counts == want).all()
        assert m.row_sums().tolist() == want.sum(axis=1).tolist()
        assert m.col_sums().tolist() == want.sum(axis=0).tolist()
        assert m.row_sums().dtype == m.col_sums().dtype == np.uint64
        assert m.positive_cells == np.count_nonzero(want)
        assert m.max_cell == int(want.max())
        assert m.total == int(want.sum())
        assert m.count_non_null_rows() == m.count_non_null_cols() == 8
        assert m.has_zero_cell()

    def test_split_total_gives_exact_line_sums(self):
        cells = [[2**63, 2**62], [2**61, 2**61 - 1]]
        m = AgreementMatrix(np.array(cells, dtype=np.uint64))
        assert m.max_cell > U64_MAX // 4  # the total comes from the 32-bit halves
        assert m.total == U64_MAX
        assert m.row_sums().tolist() == [2**63 + 2**62, 2**62 - 1]
        assert m.col_sums().tolist() == [2**63 + 2**61, 2**62 + 2**61 - 1]
        assert m.positive_cells == 4 and not m.has_zero_cell()

    def test_total_overflow_even_where_the_line_sums_wrap_to_zero(self):
        # both line sums of the first row wrap: 2**64 reads as 0 in uint64
        with pytest.raises(CountOverflowError) as exc:
            AgreementMatrix(np.array([[2**63, 2**63], [0, 0]], dtype=np.uint64))
        assert str(exc.value) == f"total count {2**64} exceeds 64-bit range"

    def test_returned_sums_are_read_only(self):
        m = AgreementMatrix([[1, 2], [3, 0]])
        for sums in (m.row_sums(), m.col_sums()):
            assert not sums.flags.writeable
            with pytest.raises(ValueError):
                sums[0] = 7
        assert m.row_sums().tolist() == [3, 3]

    def test_transpose_swaps_the_line_sums(self):
        m = AgreementMatrix(self._cells())
        t = m.transpose()
        assert t.row_sums().tolist() == m.col_sums().tolist()
        assert t.col_sums().tolist() == m.row_sums().tolist()
        assert (t.positive_cells, t.max_cell, t.total) == (m.positive_cells, m.max_cell, m.total)


class TestTranspose:
    def test_example(self):
        t = AgreementMatrix([[1, 2], [3, 4]]).transpose()
        assert t.counts.tolist() == [[1, 3], [2, 4]]
        assert t.total == 10

    def test_symmetric_fixed_point(self):
        m = AgreementMatrix([[2, 1], [1, 2]])
        assert m.transpose() == m

    def test_equality(self):
        a = AgreementMatrix([[1, 2], [3, 4]])
        assert a == AgreementMatrix([[1, 2], [3, 4]])
        assert a != a.transpose()
        assert a != "not a matrix"


@given(agreement_matrices())
def test_sums_are_consistent_with_total(m):
    assert int(m.row_sums().sum()) == m.total
    assert int(m.col_sums().sum()) == m.total
    assert m.total == int(m.counts.sum(dtype=np.uint64))


@given(agreement_matrices())
def test_transpose_swaps_roles(m):
    t = m.transpose()
    assert m.col_sums().tolist() == t.row_sums().tolist()
    assert m.count_non_null_cols() == t.count_non_null_rows()
    assert t.transpose() == m


class TestMaxCell:
    """The largest cell is cached beside the total on every way in."""

    def test_from_list(self):
        m = AgreementMatrix([[1, 7], [0, 3]])
        assert m.max_cell == 7 == int(m.counts.max())

    def test_from_ndarray(self):
        m = AgreementMatrix(np.array([[2**63 + 5, 1], [2, 3]], dtype=np.uint64))
        assert m.max_cell == 2**63 + 5 == int(m.counts.max())

    def test_owned_array(self):
        src = np.array([[0, 4], [9, 1]], dtype=np.uint64)
        m = AgreementMatrix._from_owned(src)
        assert m.counts is src and not src.flags.writeable
        assert m.max_cell == 9 == int(m.counts.max())

    def test_owned_array_is_still_validated(self):
        with pytest.raises(AllZeroError):
            AgreementMatrix._from_owned(np.zeros((2, 2), dtype=np.uint64))
        with pytest.raises(DimensionTooSmallError):
            AgreementMatrix._from_owned(np.ones((1, 1), dtype=np.uint64))
        with pytest.raises(NotSquareError):
            AgreementMatrix._from_owned(np.ones((2, 3), dtype=np.uint64))
        with pytest.raises(CountOverflowError):
            AgreementMatrix._from_owned(np.full((2, 2), 2**63, dtype=np.uint64))

    @given(agreement_matrices())
    def test_through_transpose(self, m):
        t = m.transpose()
        assert m.max_cell == t.max_cell == int(m.counts.max())
