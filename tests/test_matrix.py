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
