"""Shared matrix generators: seeded-RNG builders for the acceptance suite
and hypothesis strategies for the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from infoagree.matrix import AgreementMatrix


def random_matrix(rng, n, max_count=20, min_count=0) -> AgreementMatrix:
    """Uniform random counts; one cell is bumped if everything drew zero."""
    a = rng.integers(min_count, max_count + 1, size=(n, n))
    if a.sum() == 0:
        a[rng.integers(0, n), rng.integers(0, n)] = 1
    return AgreementMatrix(a)


def random_positive_matrix(rng, n, max_count=20) -> AgreementMatrix:
    return random_matrix(rng, n, max_count=max_count, min_count=1)


def single_column_matrix(rng, n, m, max_count=20) -> AgreementMatrix:
    """One non-null column, m non-null rows, positive counts; positions random."""
    a = np.zeros((n, n), dtype=np.int64)
    col = int(rng.integers(0, n))
    rows = rng.permutation(n)[:m]
    a[rows, col] = rng.integers(1, max_count + 1, size=m)
    return AgreementMatrix(a)


def regular_matrix_with_zeros(rng, n, max_count=20) -> AgreementMatrix:
    """At least one zero cell but at least two non-null rows and columns."""
    while True:
        a = rng.integers(0, max_count + 1, size=(n, n))
        if (
            (a == 0).any()
            and np.count_nonzero(a.sum(axis=0)) >= 2
            and np.count_nonzero(a.sum(axis=1)) >= 2
        ):
            return AgreementMatrix(a)


@st.composite
def count_grids(draw, min_n=2, max_n=6, min_cell=0, max_cell=30):
    n = draw(st.integers(min_n, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_cell, max_cell), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    if not any(any(row) for row in rows):
        y = draw(st.integers(0, n - 1))
        x = draw(st.integers(0, n - 1))
        rows[y][x] = draw(st.integers(1, max_cell))
    return rows


@st.composite
def agreement_matrices(draw, **kwargs):
    return AgreementMatrix(draw(count_grids(**kwargs)))


def positive_matrices(**kwargs):
    return agreement_matrices(min_cell=1, **kwargs)


@st.composite
def small_count_matrices(draw, min_n=3, max_n=40, densities=(0.05, 0.3, 0.7, 1.0)):
    """Larger matrices of counts 0..9, below n where possible: the shapes whose
    cells take the histogram route of the count entropy. Drawn from a seeded
    generator, so an n = 40 example does not cost 1600 list draws."""
    n = draw(st.integers(min_n, max_n))
    hi = draw(st.integers(1, min(9, n - 1)))
    density = draw(st.sampled_from(densities))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(1, hi + 1, size=(n, n)) * (rng.random((n, n)) < density)
    if not a.any():
        a[0, 0] = 1
    return AgreementMatrix(a)
