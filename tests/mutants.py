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
        "_raise_first_negative(part, lo)",
        "_raise_first_negative(part, 0)",
        ("tests/test_matrix.py::TestConstruction::test_negative_cell_is_named_by_its_row_in_the_matrix",),
    ),
    Mutant(
        "blank-run-strips-only-spaces",
        "src/infoagree/_csv_digits.py",
        'rstrip(" \\t\\n")',
        'rstrip(" ")',
        (f"{_PARSE_CSV}::test_trailing_blank_lines_take_the_array_path",),
    ),
    Mutant(
        "digits-single-digit-off-by-one",
        "src/infoagree/_csv_digits.py",
        "buf[23:][stops]",
        "buf[24:][stops]",
        (f"{_PARSE_CSV}::test_large_labelled_csv_takes_the_array_path",),
    ),
    Mutant(
        "hist-kernel-blas-dot",
        "src/infoagree/_kernels.py",
        "np.add.reduce(hist * table[0, :size] * table[1, :size])",
        "(hist * table[0, :size]) @ table[1, :size]",
        ("tests/test_kernels.py::test_hist_kernel_table_matches_per_call_log2",),
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
