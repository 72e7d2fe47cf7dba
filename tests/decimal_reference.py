"""Stdlib-``decimal`` references for the closed form of ia_epsilon and for
the oracle's epsilon matrices.

Shares no code with the package or with the benchmark's reference. Each
entropy is -sum(p * ln p) / ln 2 over the probabilities p = c / S of the
positive counts, evaluated at PRECISION significant digits; equal counts
are grouped, which is exact. The value is the paper's definition on the
refined distributions, I(X; Y) / min(H(X), H(Y)) with
I(X; Y) = H(X) + H(Y) - H(XY), except on the two degenerate shapes, where
it is the continuity limit (n - m) / n or (n - l) / n.
"""

from __future__ import annotations

import decimal
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

PRECISION = 60


@dataclass(frozen=True)
class ReferenceResult:
    value: Decimal
    h_x: Decimal
    h_y: Decimal
    h_xy: Decimal
    m: int
    l: int


def _entropy_bits(counts, ctx: decimal.Context) -> Decimal:
    groups = Counter(int(c) for c in counts if c)
    total = Decimal(sum(c * k for c, k in groups.items()))
    h = Decimal(0)
    for c, k in groups.items():
        p = ctx.divide(Decimal(c), total)
        h = ctx.subtract(h, ctx.multiply(Decimal(k), ctx.multiply(p, ctx.ln(p))))
    return ctx.divide(h, ctx.ln(Decimal(2)))


def reference_ia_epsilon(rows) -> ReferenceResult:
    """The closed form on a square list of lists of nonnegative integers."""
    ctx = decimal.Context(prec=PRECISION)
    rows = [[int(c) for c in row] for row in rows]
    n = len(rows)
    row_sums = [sum(row) for row in rows]
    col_sums = [sum(col) for col in zip(*rows)]
    m = sum(1 for r in row_sums if r)
    l = sum(1 for k in col_sums if k)
    h_x = _entropy_bits(col_sums, ctx)
    h_y = _entropy_bits(row_sums, ctx)
    h_xy = _entropy_bits((c for row in rows for c in row), ctx)
    if l == 1:
        value = ctx.divide(Decimal(n - m), Decimal(n))
    elif m == 1:
        value = ctx.divide(Decimal(n - l), Decimal(n))
    else:
        mutual = ctx.subtract(ctx.add(h_x, h_y), h_xy)
        value = ctx.divide(mutual, min(h_x, h_y))
    return ReferenceResult(value=value, h_x=h_x, h_y=h_y, h_xy=h_xy, m=m, l=l)


@dataclass(frozen=True)
class EpsReferenceResult:
    value: Decimal
    h_x: Decimal
    h_y: Decimal
    h_xy: Decimal


def reference_eps_evaluation(rows, eps: float) -> EpsReferenceResult:
    """The plain measure of the literal epsilon matrix: ``rows`` (a square
    list of lists of nonnegative integers) with every zero replaced by the
    float ``eps``, valued as I(X; Y) / min(H(X), H(Y)).

    eps is a binary fraction num / den, so scaling every cell by den makes
    the matrix integer without changing any entropy. H(X) + H(Y) - H(XY)
    cancels about as many digits as S / eps has, so the precision is
    PRECISION plus twice that many.
    """
    num, den = float(eps).as_integer_ratio()
    scaled = [[int(c) * den if c else num for c in row] for row in rows]
    total = sum(map(sum, scaled))
    ctx = decimal.Context(prec=PRECISION + 2 * len(str(total // num)), Emin=-999999)
    h_x = _entropy_bits([sum(col) for col in zip(*scaled)], ctx)
    h_y = _entropy_bits([sum(row) for row in scaled], ctx)
    h_xy = _entropy_bits((c for row in scaled for c in row), ctx)
    mutual = ctx.subtract(ctx.add(h_x, h_y), h_xy)
    value = ctx.divide(mutual, min(h_x, h_y))
    return EpsReferenceResult(value=value, h_x=h_x, h_y=h_y, h_xy=h_xy)
