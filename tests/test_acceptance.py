"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with the lines visible:

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import json
import math
import statistics
import time

import numpy as np
import pytest

from helpers import random_matrix, random_positive_matrix, regular_matrix_with_zeros, single_column_matrix
from infoagree.cli import main
from infoagree.infotheory import (
    CategoricalDistribution,
    entropy_from_counts,
    joint,
    marginal_x,
    marginal_y,
    mutual_information,
    refine,
    shannon_entropy,
)
from infoagree.matrix import AgreementMatrix
from infoagree.measure import ia_epsilon, ia_strict
from infoagree.oracle import DEFAULT_EPS_GRID, ConvergenceConfig, check_convergence, eval_ia_at, sweep, zero_freed


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {number:02d}] {title}: FAIL", flush=True)
        raise
    print(f"\n[acceptance {number:02d}] {title}: PASS", flush=True)


def test_criterion_01_single_column_closed_form_is_bit_exact():
    with criterion(1, "single-column matrices give exactly (n - m) / n"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, n + 1))
            matrix = single_column_matrix(rng, n, m)
            result = ia_epsilon(matrix)
            assert result.value == (n - m) / n  # bit-exact double
            assert result.l == 1 and result.m == m
        assert time.perf_counter() - start < 1.0


def test_criterion_02_closed_form_matches_epsilon_oracle():
    with criterion(2, "closed form within 1e-6 of the oracle at eps = 1e-9"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(2, 9))
            matrix = regular_matrix_with_zeros(rng, n)
            closed = ia_epsilon(matrix).value
            numeric = eval_ia_at(zero_freed(matrix, 1e-9)).ia_value
            assert abs(closed - numeric) <= 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_03_degenerate_sweep_converges():
    # The slow 1/log(1/eps) regime: at the default grid's last point every
    # draw is well inside 0.1 (the oracle's docstring gives the worst case),
    # and its gaps shrink towards the end of the grid.
    with criterion(3, "degenerate sweeps shrink towards (n - m) / n, final gap <= 0.1"):
        rng = np.random.default_rng(303)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, n + 1))
            matrix = single_column_matrix(rng, n, m)
            evaluations = sweep(matrix, DEFAULT_EPS_GRID)
            report = check_convergence(
                evaluations, (n - m) / n, ConvergenceConfig(final_tol=0.1, require_shrinking_tail=True)
            )
            assert report.tail_shrinking
            assert report.within_final_tol
        assert time.perf_counter() - start < 10.0


def test_criterion_04_extension_agrees_with_strict_measure():
    with criterion(4, "extension equals the strict measure on positive matrices"):
        rng = np.random.default_rng(404)
        for _ in range(500):
            n = int(rng.integers(2, 11))
            matrix = random_positive_matrix(rng, n, max_count=30)
            strict = ia_strict(matrix)
            extended = ia_epsilon(matrix).value
            assert abs(extended - strict) <= 1e-12
            assert 0.0 <= strict <= 1.0
            assert 0.0 <= extended <= 1.0


def test_criterion_05_mutual_information_identity():
    with criterion(5, "MI double sum equals H(X) + H(Y) - H(XY) within 1e-9"):
        rng = np.random.default_rng(505)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            matrix = random_positive_matrix(rng, n, max_count=30)
            j = refine(joint(matrix))
            my = refine(marginal_y(matrix))
            mx = refine(marginal_x(matrix))
            mi = mutual_information(j, my, mx)
            identity = (
                shannon_entropy(mx) + shannon_entropy(my) - shannon_entropy(j)
            )
            assert abs(mi - identity) <= 1e-9
            assert mi >= -1e-12


def test_criterion_06_transpose_symmetry():
    with criterion(6, "transposing changes nothing but swaps m and l"):
        rng = np.random.default_rng(606)
        for _ in range(500):
            n = int(rng.integers(2, 11))
            matrix = random_matrix(rng, n, max_count=int(rng.integers(1, 9)))
            a = ia_epsilon(matrix)
            b = ia_epsilon(matrix.transpose())
            assert abs(a.value - b.value) <= 1e-12
            assert (a.m, a.l) == (b.l, b.m)


def test_criterion_07_permutation_and_scale_invariance():
    with criterion(7, "row/column permutations and integer scalings are invisible"):
        rng = np.random.default_rng(707)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            matrix = random_matrix(rng, n)
            base = ia_epsilon(matrix).value
            perm_r = rng.permutation(n)
            perm_c = rng.permutation(n)
            shuffled = AgreementMatrix(matrix.counts[perm_r][:, perm_c])
            assert abs(ia_epsilon(shuffled).value - base) <= 1e-12
            for k in (2, 10, 1000):
                scaled = AgreementMatrix(matrix.counts.astype(np.int64) * k)
                assert abs(ia_epsilon(scaled).value - base) <= 1e-12


def test_criterion_08_entropy_positivity_and_count_identity():
    with criterion(8, "entropy positive on support >= 2; count formula matches"):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            size = int(rng.integers(2, 33))
            weights = rng.uniform(0.01, 100.0, size=size)
            probs = weights / weights.sum()
            dist = refine(CategoricalDistribution(probs))
            h_direct = shannon_entropy(dist)
            h_counts = entropy_from_counts(weights)
            assert h_direct > 0.0
            assert abs(h_counts - h_direct) <= 1e-12
            assert h_direct <= math.log2(size) + 1e-12


def test_criterion_09_quadratic_cost():
    with criterion(9, "cost grows quadratically; n = 1600 stays under 1 s"):
        rng = np.random.default_rng(909)
        small = AgreementMatrix(rng.integers(0, 10, size=(400, 400)))
        large = AgreementMatrix(rng.integers(0, 10, size=(1600, 1600)))

        def timed(matrix):
            t0 = time.perf_counter()
            ia_epsilon(matrix)
            return time.perf_counter() - t0

        # interleave the two sizes so scheduler noise hits both medians alike
        ia_epsilon(small)
        ia_epsilon(large)
        pairs = [(timed(small), timed(large)) for _ in range(11)]
        t_small = statistics.median(t for t, _ in pairs)
        t_large = statistics.median(t for _, t in pairs)
        ratio = t_large / t_small
        assert t_large < 1.0, f"t(1600) = {t_large:.3f}s"
        assert 4.0 <= ratio <= 50.0, f"ratio = {ratio:.1f}"


def test_criterion_10_cli_golden_outputs(tmp_path, capsys):
    with criterion(10, "CLI reports are byte-stable with the expected fields"):
        cases = [
            ("5,0\n0,5\n", 1.0, "regular_y_min", 2, 2),
            ("4,0,0\n6,0,0\n0,0,0\n", 1 / 3, "degenerate_x", 2, 1),
            ("7,0\n0,0\n", 0.5, "degenerate_x", 1, 1),
        ]
        for index, (text, value, case, m, l) in enumerate(cases):
            path = tmp_path / f"golden_{index}.csv"
            path.write_text(text)
            outputs = []
            for _ in range(2):
                code = main(["compute", str(path)])
                assert code == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]  # byte-identical across runs
            report = json.loads(outputs[0])
            assert report["ia"]["value"] == value
            assert report["ia"]["case"] == case
            assert report["ia"]["m"] == m
            assert report["ia"]["l"] == l
