"""High-precision reference values for the benchmark's output checks.

Shares no code with infoagree: it works on exact integer counts, computes
every entropy in stdlib ``decimal`` at PRECISION significant digits, and
applies the four-case closed form with its own case logic. Float
cancellation (one count dominating a total near 2**64) therefore cannot
hide an error in the program under test.

    H = (S ln S - sum(c ln c)) / (S ln 2)      over the nonzero counts c, S = sum(c)

Tolerances, fixed before any run and never widened to make a run pass:
VALUE_TOL bounds the absolute error of an agreement value or an entropy in
bits; TIE_TOL is the width inside which H(X) and H(Y) count as tied, so
either regular case is accepted (the closed form's two regular branches
agree on the value there).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

PRECISION = 60
VALUE_TOL = 1e-9
TIE_TOL = 1e-9

DEGENERATE_X = "degenerate_x"
DEGENERATE_Y = "degenerate_y"
REGULAR_X_MIN = "regular_x_min"
REGULAR_Y_MIN = "regular_y_min"


@dataclass(frozen=True)
class Expected:
    """Reference outcome of the closed form on one matrix."""

    n: int
    m: int
    l: int
    value: float
    case: str
    h_x: float
    h_y: float
    h_xy: float
    tie: bool  # H(X) and H(Y) within TIE_TOL: either regular case is right

    def cases(self) -> tuple[str, ...]:
        if self.tie and self.case in (REGULAR_X_MIN, REGULAR_Y_MIN):
            return (REGULAR_X_MIN, REGULAR_Y_MIN)
        return (self.case,)


class Reference:
    """Closed-form reference with a cache of c*ln(c) per integer count."""

    def __init__(self) -> None:
        self._ctx = decimal.Context(prec=PRECISION)
        self._ln2 = self._ctx.ln(Decimal(2))
        self._xlnx: dict[int, Decimal] = {0: Decimal(0), 1: Decimal(0)}

    def _x_ln_x(self, c: int) -> Decimal:
        v = self._xlnx.get(c)
        if v is None:
            d = Decimal(c)
            v = self._ctx.multiply(d, self._ctx.ln(d))
            self._xlnx[c] = v
        return v

    def entropy_bits(self, values: np.ndarray) -> Decimal:
        """Entropy in bits of the distribution given by nonnegative integer counts."""
        distinct, mult = np.unique(values, return_counts=True)
        ctx = self._ctx
        total = 0
        acc = Decimal(0)
        for c, k in zip(distinct.tolist(), mult.tolist()):
            if c:
                total += c * k
                acc = ctx.add(acc, ctx.multiply(Decimal(k), self._x_ln_x(c)))
        if total == 0:
            raise ValueError("no positive count")
        num = ctx.subtract(self._x_ln_x(total), acc)
        return ctx.divide(num, ctx.multiply(Decimal(total), self._ln2))

    def closed_form(self, counts: np.ndarray) -> Expected:
        """Reference ia_epsilon outcome of a square uint64 count matrix.

        Row and column sums are exact: the generator keeps every total below
        2**64, so uint64 accumulation cannot wrap.
        """
        counts = np.asarray(counts, dtype=np.uint64)
        n = counts.shape[0]
        rows = counts.sum(axis=1, dtype=np.uint64)
        cols = counts.sum(axis=0, dtype=np.uint64)
        m = int(np.count_nonzero(rows))
        l = int(np.count_nonzero(cols))
        h_x = self.entropy_bits(cols)
        h_y = self.entropy_bits(rows)
        h_xy = self.entropy_bits(counts.ravel())
        ctx = self._ctx
        if l == 1:
            value, case = Decimal(n - m) / Decimal(n), DEGENERATE_X
        elif m == 1:
            value, case = Decimal(n - l) / Decimal(n), DEGENERATE_Y
        elif h_x < h_y:
            value = ctx.add(1, ctx.divide(ctx.subtract(h_y, h_xy), h_x))
            case = REGULAR_X_MIN
        else:
            value = ctx.add(1, ctx.divide(ctx.subtract(h_x, h_xy), h_y))
            case = REGULAR_Y_MIN
        return Expected(
            n=n,
            m=m,
            l=l,
            value=float(value),
            case=case,
            h_x=float(h_x),
            h_y=float(h_y),
            h_xy=float(h_xy),
            tie=abs(float(h_x - h_y)) <= TIE_TOL,
        )


def close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_TOL
