"""Semantic exception hierarchy.

Everything deliberately raised by this package derives from InfoAgreeError,
so callers (the CLI in particular) can distinguish bad input from bugs.
"""


class InfoAgreeError(Exception):
    """Base class for all errors raised by infoagree."""


# --- agreement-matrix construction -------------------------------------


class MatrixError(InfoAgreeError):
    """Invalid agreement-matrix input."""


class NotSquareError(MatrixError):
    """The row count and column count differ (or the input is ragged)."""


class DimensionTooSmallError(MatrixError):
    """Fewer than two classes; the measure needs n >= 2."""


class NegativeCellError(MatrixError):
    """A cell holds a negative count."""


class NonIntegerCellError(MatrixError):
    """A cell is not an integer; counts of classified items must be."""


class CountOverflowError(MatrixError):
    """A cell or the grand total does not fit in an unsigned 64-bit integer."""


class AllZeroError(MatrixError):
    """Every cell is zero; an agreement matrix records at least one item."""


# --- distributions and entropies ----------------------------------------


class DistributionError(InfoAgreeError):
    """A probability vector violates its invariants."""


class ZeroProbabilityError(DistributionError):
    """Entropy or mutual information requested on an unrefined distribution
    that contains zeros.

    Mask the zero-probability entries with refine() first; 0*log2(0) is
    never evaluated implicitly.
    """


class NonPositiveWeightError(DistributionError):
    """entropy_from_counts needs strictly positive weights."""


class InconsistentTotalError(DistributionError):
    """The stated total disagrees with the actual sum of the weights."""


class InconsistentMarginalError(DistributionError):
    """A supplied marginal disagrees with the marginal implied by the joint."""


# --- the agreement measure ----------------------------------------------


class ContainsZeroError(InfoAgreeError):
    """Plain information agreement is undefined when any cell is zero.

    Use ia_epsilon(), which extends the measure to such matrices.
    """


# --- epsilon oracle -------------------------------------------------------


class NonPositiveEpsilonError(InfoAgreeError):
    """Zero replacement values must be strictly positive."""


class EmptySweepError(InfoAgreeError):
    """A sweep needs at least one epsilon value."""


# --- input parsing ---------------------------------------------------------


class ParseError(InfoAgreeError):
    """Malformed CSV or JSON matrix input.

    row and col are 1-based positions in the source text when known.
    """

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        self.row = row
        self.col = col
        where = ""
        if row is not None:
            where = f" (row {row})" if col is None else f" (row {row}, column {col})"
        super().__init__(message + where)


# --- internal ----------------------------------------------------------


class InternalInvariantError(InfoAgreeError):
    """A computed value violated an invariant that no valid input can violate.

    Seeing this is a bug in infoagree, not in the caller's data.
    """
