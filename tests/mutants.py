"""A catalogue of mutants of the package, and a runner that checks that the
tests catch them.

Each mutant is one exact edit of one file under src/: the ``old`` text,
which occurs there exactly once, becomes ``new``. It names the tests
expected to catch it, and each is expected to be caught.

    python tests/mutants.py [--only NAME]

For each mutant, src/, tests/ and pyproject.toml are copied to a temporary
directory, the edit is applied there, and the mutant's tests run there with
pytest. The mutant is caught when one of them fails. The exit status is 1
when a mutant survives. Each mutant costs a few seconds, so this is not
part of the test suite; tests/test_mutants.py checks the catalogue itself,
in milliseconds.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node IDs, relative to the repository root


_BLOCKED = "tests/test_matrix.py::TestBlockedValidation"
_PARSE_CSV = "tests/test_formats.py::TestParseCsv"
_WORKERS = "tests/test_cli.py::TestBatchWorkers"
_EVAL = "tests/test_oracle.py::TestEvalIaAt"
_RUN_EXIT = "tests/test_cli.py::TestRunExit"

MUTANTS = (
    Mutant(
        "blocked-max-of-last-block",
        "src/infoagree/matrix.py",
        "max_cell = max(max_cell, top)",
        "max_cell = top",
        (f"{_BLOCKED}::test_statistics_combine_across_blocks",),
    ),
    Mutant(
        "blocked-col-sums-assigned",
        "src/infoagree/matrix.py",
        "np.add(col_sums, col_part, out=col_sums)",
        "col_sums[:] = col_part",
        (f"{_BLOCKED}::test_statistics_combine_across_blocks",),
    ),
    Mutant(
        "blocked-negative-without-row-offset",
        "src/infoagree/matrix.py",
        "_raise_first_negative(part, rows.start)",
        "_raise_first_negative(part, 0)",
        ("tests/test_matrix.py::TestConstruction::test_negative_cell_is_named_by_its_row_in_the_matrix",),
    ),
    Mutant(
        # four cells of 2**62 then sum to 2**64, which wraps to 0 in 64 bits
        "exact-total-bound-widened",
        "src/infoagree/matrix.py",
        "max_cell <= U64_MAX // arr.size",
        "max_cell <= 2 * U64_MAX // arr.size",
        ("tests/test_matrix.py::TestExactTotal::test_total_from_2_64_rejected",),
    ),
    Mutant(
        "kernels-row-blocks-first-row-zero",
        "src/infoagree/_kernels.py",
        "slice(start, start + step)",
        "slice(0, start + step)",
        (
            "tests/test_kernels.py::test_row_blocks_cover_the_rows_in_order_through_reused_buffers",
            f"{_BLOCKED}::test_statistics_combine_across_blocks",
        ),
    ),
    Mutant(
        # the same step as long as the rows are the columns
        "kernels-row-blocks-step-by-rows",
        "src/infoagree/_kernels.py",
        "step = min(rows, max(1, _SLICE_CELLS // cols))",
        "step = min(rows, max(1, _SLICE_CELLS // rows))",
        ("tests/test_kernels.py::test_row_blocks_cover_the_rows_in_order_through_reused_buffers",),
    ),
    Mutant(
        "blank-run-strips-only-spaces",
        "src/infoagree/_csv_digits.py",
        'rstrip(" \\t\\n")',
        'rstrip(" ")',
        (f"{_PARSE_CSV}::test_trailing_blank_lines_take_the_array_path",),
    ),
    Mutant(
        # only blank-spaced single-digit bodies reach this gather: the others
        # take the 16-bit branch
        "digits-single-digit-off-by-one",
        "src/infoagree/_csv_digits.py",
        "buf[23:][stops]",
        "buf[24:][stops]",
        (f"{_PARSE_CSV}::test_blanks_around_cells_take_the_array_path",),
    ),
    Mutant(
        "digits-16-bit-bound-off-by-one",
        "src/infoagree/_csv_digits.py",
        "digits.max() <= 9",
        "digits.max() <= 10",
        (
            f"{_PARSE_CSV}::test_single_digit_bodies_take_the_16_bit_branch",
            "tests/test_formats.py::TestCsvDigitParserEquivalence::test_generated_single_digit_texts",
        ),
    ),
    Mutant(
        # no line end matches its word, so the branch is dead and the
        # separator search reads every body: caught only by the spy
        "digits-16-bit-last-column-word-dropped",
        "src/infoagree/_csv_digits.py",
        'zeros[-1] = ord("0") | ord("\\n") << 8',
        "pass",
        (f"{_PARSE_CSV}::test_single_digit_bodies_take_the_16_bit_branch",),
    ),
    Mutant(
        "digits-16-bit-unfilled-cells-guard-dropped",
        "src/infoagree/_csv_digits.py",
        "if not rest and filled + rows * n <= cells.size:",
        "if not rest:",
        (
            f"{_PARSE_CSV}::test_single_digit_bodies_take_the_16_bit_branch",
            "tests/test_formats.py::TestCsvFastPathEquivalence::test_digit_parser_reads_the_body_after_start",
        ),
    ),
    Mutant(
        "digits-line-ends-every-n-fields-dropped",
        "src/infoagree/_csv_digits.py",
        "or not ends_line[n - 1 :: n].all()",
        "or False",
        (f"{_PARSE_CSV}::test_single_digit_bodies_take_the_16_bit_branch",),
    ),
    Mutant(
        "digits-line-count-dropped",
        "src/infoagree/_csv_digits.py",
        "or lines * n != fields",
        "or False",
        (f"{_PARSE_CSV}::test_single_digit_bodies_take_the_16_bit_branch",),
    ),
    Mutant(
        # in a matrix of one row block the shapes still fit, and the columns
        # get the rows' zero counts
        "oracle-col-zeros-wrong-axis",
        "src/infoagree/oracle.py",
        "np.add.reduce(is_zero, axis=0, out=col_part)",
        "np.add.reduce(is_zero, axis=1, out=col_part)",
        (f"{_EVAL}::test_histogram_route_matches_the_reference",),
    ),
    Mutant(
        # the columns keep their own sums and zeros, but their A is the rows'
        "oracle-col-own-from-the-row-table",
        "src/infoagree/oracle.py",
        "self._own_args = (matrix, sums, by_rows)",
        "self._own_args = (matrix, matrix.row_sums(), True)",
        (f"{_EVAL}::test_histogram_route_matches_the_reference",),
    ),
    Mutant(
        # every value is the same, only rebuilt at every epsilon: caught only by the spy
        "oracle-own-not-kept",
        "src/infoagree/oracle.py",
        "self._own = self._build_own(*self._own_args)",
        "return self._build_own(*self._own_args)",
        ("tests/test_oracle.py::TestLazyTables::test_a_sweep_with_one_hi_rater_builds_one_table",),
    ),
    Mutant(
        # both routes give the value to 1e-15, so a spy on the builders is the sure catch
        "oracle-route-rule-strict",
        "src/infoagree/oracle.py",
        "4 * (matrix.max_cell + 1) <= matrix.n",
        "4 * (matrix.max_cell + 1) < matrix.n",
        (f"{_EVAL}::test_route_on_each_side_of_the_rule",),
    ),
    Mutant(
        # a matrix of one row block is unchanged
        "oracle-row-blocks-first-row-zero",
        "src/infoagree/oracle.py",
        "yield (start, block,",
        "yield (0, block,",
        (
            f"{_EVAL}::test_per_cell_route_in_row_blocks_matches_the_reference",
            "tests/test_result_bits.py::test_oracle_rows_are_bit_identical",
        ),
    ),
    Mutant(
        "hist-kernel-blas-dot",
        "src/infoagree/_kernels.py",
        "np.add.reduce(hist * table[0, :size] * table[1, :size])",
        "(hist * table[0, :size]) @ table[1, :size]",
        ("tests/test_kernels.py::test_hist_kernel_table_matches_per_call_log2",),
    ),
    Mutant(
        "finalize-entropy-bound-exclusive",
        "src/infoagree/_kernels.py",
        "if h >= -slack:",
        "if h > -slack:",
        ("tests/test_kernels.py::TestFinalizeEntropy::test_absorbs_down_to_exactly_minus_slack",),
    ),
    Mutant(
        "finalize-entropy-absorbs-nan",
        "src/infoagree/_kernels.py",
        "if h >= -slack:",
        "if not h < -slack:",
        ("tests/test_kernels.py::TestFinalizeEntropy::test_nan_raises",),
    ),
    Mutant(
        "finalize-entropy-keeps-negative-zero",
        "src/infoagree/_kernels.py",
        "return h + 0.0  # normalizes -0.0",
        "return h",
        ("tests/test_kernels.py::TestFinalizeEntropy::test_negative_zero_comes_back_positive",),
    ),
    Mutant(
        "absorb-rounding-upper-bound-exclusive",
        "src/infoagree/measure.py",
        "if 1.0 < value <= 1.0 + ROUNDING_TOL:",
        "if 1.0 < value < 1.0 + ROUNDING_TOL:",
        ("tests/test_measure.py::TestAbsorbRounding::test_absorbs_up_to_exactly_one_plus_rounding_tol",),
    ),
    Mutant(
        "absorb-rounding-upper-bound-widened",
        "src/infoagree/measure.py",
        "if 1.0 < value <= 1.0 + ROUNDING_TOL:",
        "if 1.0 < value <= 1.0 + 2 * ROUNDING_TOL:",
        ("tests/test_measure.py::TestAbsorbRounding::test_raises_beyond_the_tolerance",),
    ),
    Mutant(
        "exit-other-threads-ignored",
        "src/infoagree/cli.py",
        "    return _other_threads_run()\n",
        "    return False\n",
        (f"{_RUN_EXIT}::test_falls_back_to_sys_exit",),
    ),
    Mutant(
        "exit-pythoninspect-ignored",
        "src/infoagree/cli.py",
        'if sys.flags.inspect or os.environ.get("PYTHONINSPECT"):',
        "if sys.flags.inspect:",
        (f"{_RUN_EXIT}::test_falls_back_to_sys_exit",),
    ),
    Mutant(
        # a trace or profile hook set before the CLI runs is then not seen
        "exit-hook-ignored",
        "src/infoagree/cli.py",
        "    if _hook_is_set():\n        return True\n",
        "",
        (f"{_RUN_EXIT}::test_falls_back_to_sys_exit",),
    ),
    Mutant(
        "run-second-flush-skipped",
        "src/infoagree/cli.py",
        "if _flush_std_streams():  # what the callbacks wrote",
        "if True:",
        ("tests/test_cli.py::TestRunFallbacksInProcess::test_a_failed_flush_after_the_callbacks",),
    ),
    Mutant(
        "run-atexit-callbacks-skipped",
        "src/infoagree/cli.py",
        "        run_exitfuncs()\n",
        "        pass\n",
        (f"{_RUN_EXIT}::test_skips_the_teardown_after_the_atexit_callbacks",),
    ),
    Mutant(
        # a first line of counts with a 0 becomes a label row
        "label-test-with-all",
        "src/infoagree/formats.py",
        "if None in map(_field_count, head):",
        "if not all(map(_field_count, head)):",
        (f"{_PARSE_CSV}::test_matrix_errors_propagate",),
    ),
    Mutant(
        "line-break-without-vt",
        "src/infoagree/formats.py",
        '_LINE_BREAK = re.compile(r"[\\n\\v',
        '_LINE_BREAK = re.compile(r"[\\n',
        (f"{_PARSE_CSV}::test_label_row_ended_by_another_line_break_takes_the_array_path",),
    ),
    Mutant(
        "load-document-keeps-the-bom",
        "src/infoagree/formats.py",
        "skip = len(_UTF8_BOM) if data.startswith(_UTF8_BOM) else 0",
        "skip = 0",
        ("tests/test_formats.py::TestLoadDocument::test_a_leading_utf8_bom_is_dropped",),
    ),
    Mutant(
        "distribution-eq-class-blind",
        "src/infoagree/infotheory.py",
        "if type(other) is not type(self):",
        "if not isinstance(other, CategoricalDistribution):",
        ("tests/test_infotheory.py::TestDistributionEquality::test_a_refined_distribution_is_not_its_unrefined_source",),
    ),
    Mutant(
        "write-output-single-raw-write",
        "src/infoagree/cli.py",
        "    while data:\n        data = data[raw.write(data) :]\n",
        "    raw.write(data)\n",
        ("tests/test_cli.py::TestWriteOutputToRawStdout::test_every_byte_of_the_report_is_written",),
    ),
    Mutant(
        "write-output-returns-on-closed-stdout",
        "src/infoagree/cli.py",
        'raise OSError(errno.EBADF, "stdout is closed")',
        "return",
        (f"{_RUN_EXIT}::test_a_closed_stdout_is_bad_input",),
    ),
    Mutant(
        "batch-slice-bound-off-by-one",
        "src/infoagree/cli.py",
        "_fork_worker(paths[lo:hi], fmt)",
        "_fork_worker(paths[lo + 1 : hi], fmt)",
        (f"{_WORKERS}::test_same_bytes_and_exit_code_as_one_worker",),
    ),
    Mutant(
        "batch-child-code-ignored",
        "src/infoagree/cli.py",
        "code = max(code, message[0])",
        "code = max(code, EXIT_OK)",
        (f"{_WORKERS}::test_internal_error_in_a_child_outranks_bad_input_in_this_process",),
    ),
    Mutant(
        "batch-child-status-ignored",
        "src/infoagree/cli.py",
        "if status != 0 or sent < 0",
        "if sent < 0",
        (f"{_WORKERS}::test_a_child_that_exits_nonzero_fails_the_batch",),
    ),
)


def is_caught(mutant: Mutant) -> bool:
    """Whether one of the mutant's tests fails on a copy of the tree with the
    mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, mutant.file)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text is not in {mutant.file} exactly once")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
        )
    # 1: a test failed; anything but 0 or 1 is a broken run, not a verdict
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    return done.returncode == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutation catalogue.")
    parser.add_argument("--only", metavar="NAME", choices=[m.name for m in MUTANTS])
    args = parser.parse_args(argv)
    status = 0
    for mutant in MUTANTS:
        if args.only not in (None, mutant.name):
            continue
        caught = is_caught(mutant)
        print(f"{mutant.name}: {'caught' if caught else 'survived'}", flush=True)
        if not caught:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
