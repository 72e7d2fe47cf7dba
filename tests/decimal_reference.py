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


def reference_eps_evaluations(rows, grid) -> list[EpsReferenceResult]:
    """For each eps of ``grid``, in order, the plain measure of the literal
    epsilon matrix: ``rows`` (a square list of lists of nonnegative
    integers) with every zero replaced by the float eps, valued as
    I(X; Y) / min(H(X), H(Y)).

    eps is a binary fraction num / 2**k, so scaling every cell by 2**k makes
    the matrix integer without changing any entropy. H(X) + H(Y) - H(XY)
    cancels about as many digits as S / eps has, so the precision is
    PRECISION plus twice that many.

    A scaled cell is then c * 2**k or num, and a scaled line sum
    2**k * r + z * num for a line of sum r and z zeros. So every logarithm
    is a sum of ln 2, ln num and the logarithms of the matrix's own cells,
    line sums and zero counts, which do not depend on eps: those are taken
    once each, at the grid's highest precision, and each eps adds ln num
    and, for a line with both cells and zeros, ln(1 + z * num / (2**k * r)),
    by its series where that is tiny. Entropies are -sum(p * ln p) / ln 2
    over the grouped counts as in _entropy_bits, with ln p = ln c - ln S.
    """
    rows = [[int(c) for c in row] for row in rows]
    lines = [(sum(line), line.count(0)) for line in [*rows, *map(list, zip(*rows))]]
    real_total = sum(map(sum, rows))
    zeros = sum(row.count(0) for row in rows)
    scales = []
    for eps in grid:
        num, den = float(eps).as_integer_ratio()
        total = den * real_total + zeros * num
        scales.append((num, den, PRECISION + 2 * len(str(total // num))))
    top = decimal.Context(prec=max(p for _, _, p in scales) + 5, Emin=-999999)
    table = {}

    def ln_int(c):
        """ln c for a positive int, evaluated once at the grid's top precision."""
        if c not in table:
            table[c] = top.ln(Decimal(c))
        return table[c]

    return [_eps_evaluation(rows, lines, ln_int, *scale) for scale in scales]


def _eps_evaluation(rows, lines, ln_int, num, den, prec) -> EpsReferenceResult:
    ctx = decimal.Context(prec=prec, Emin=-999999)
    ln2 = ln_int(2)
    k_ln2 = ctx.multiply(Decimal(den.bit_length() - 1), ln2)
    ln_num = ctx.ln(Decimal(num))
    tiny = Decimal(10) ** -(prec + 3)

    def ln_line(r, z):
        """ln(2**k * r + z * num), the scaled sum of a line or of all cells."""
        if r == 0:
            return ctx.add(ln_int(z), ln_num)
        if z == 0:
            return ctx.add(k_ln2, ln_int(r))
        x = ctx.divide(Decimal(z * num), Decimal(den * r))
        if x > Decimal("1e-20"):
            return ctx.ln(Decimal(den * r + z * num))
        log1p, term, j = x, x, 1
        while abs(term) > tiny:
            j += 1
            term = ctx.multiply(term, -x)
            log1p = ctx.add(log1p, ctx.divide(term, Decimal(j)))
        return ctx.add(ctx.add(k_ln2, ln_int(r)), log1p)

    def cell_log(c):
        return (den * c, ctx.add(k_ln2, ln_int(c))) if c else (num, ln_num)

    def line_log(line):
        return den * line[0] + line[1] * num, ln_line(*line)

    def entropy_bits(keys, scaled_log):
        """-sum(p * ln p) / ln 2 over the scaled counts of the grouped keys."""
        h = Decimal(0)
        for key, count in Counter(keys).items():
            c, ln_c = scaled_log(key)
            p = ctx.divide(Decimal(c), total)
            ln_p = ctx.subtract(ln_c, ln_total)
            h = ctx.subtract(h, ctx.multiply(Decimal(count), ctx.multiply(p, ln_p)))
        return ctx.divide(h, ln2)

    n = len(rows)
    zeros = sum(row.count(0) for row in rows)
    real_total = sum(map(sum, rows))
    total = Decimal(den * real_total + zeros * num)
    ln_total = ln_line(real_total, zeros)
    h_y = entropy_bits(lines[:n], line_log)
    h_x = entropy_bits(lines[n:], line_log)
    h_xy = entropy_bits((c for row in rows for c in row), cell_log)
    mutual = ctx.subtract(ctx.add(h_x, h_y), h_xy)
    value = ctx.divide(mutual, min(h_x, h_y))
    return EpsReferenceResult(value=value, h_x=h_x, h_y=h_y, h_xy=h_xy)
