"""Code lines per module of the package, and their total.

    python tests/code_size.py [--json]

A code line is a non-blank line that is not a comment and does not lie
inside a string-expression statement: an expression statement whose value
is a string constant, which includes every docstring. Lines of any other
string, such as a multi-line literal that is assigned, count. The modules
are the .py files under src/, named by their path below it.

This is a report, not a gate. The file has no test_ prefix, so the test
suite does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source`` (module docstring)."""
    strings = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            strings.update(range(node.lineno, node.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in strings
    )


def module_sizes() -> dict[str, int]:
    """Code lines per .py file under src/, keyed by its path below it, in
    sorted order."""
    sizes = {}
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    sizes[os.path.relpath(path, SRC)] = code_lines(f.read())
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    sizes = module_sizes()
    total = sum(sizes.values())
    if args.json:
        print(json.dumps({"modules": sizes, "total": total}, indent=1))
    else:
        width = max(map(len, sizes))
        for path, lines in sizes.items():
            print(f"{path:<{width}}  {lines:>5}")
        print(f"{'total':<{width}}  {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
