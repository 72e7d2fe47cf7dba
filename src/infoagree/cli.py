"""Command-line front end.

Verbs:
    compute  one matrix file -> JSON report (or --plain value)
    sweep    compute plus an epsilon sweep with a convergence verdict
    batch    every .csv/.json file in a directory -> JSON lines

Exit codes: 0 success, 1 bad input or flags, 2 internal invariant violation,
3 convergence check failed.

Only sweep loads the epsilon oracle: compute, batch, --help and --version
never do.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from infoagree import __version__
from infoagree.errors import InfoAgreeError, InternalInvariantError
from infoagree.formats import build_report, dump_json, error_record, load_document
from infoagree.measure import ia_epsilon

if TYPE_CHECKING:  # bound on first use by _load_oracle
    from infoagree.oracle import check_convergence, default_convergence_config, sweep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_CONVERGENCE = 3

# oracle.DEFAULT_EPS_GRID's ends and size, written out so that building the
# parser loads no oracle; tests/test_cli.py checks that they give its grid
_EPS_FROM, _EPS_TO, _EPS_STEPS = 1e-2, 1e-282, 11

# the oracle's names the sweep verb calls, module attributes of this module
# once _load_oracle has run
_ORACLE_NAMES = ("check_convergence", "default_convergence_config", "sweep")


def _load_oracle() -> None:
    """Bind _ORACLE_NAMES here from the oracle, keeping any already bound (a
    wrapper set on this module's attribute, as the benchmark's tracer sets)."""
    import infoagree.oracle as oracle  # this form shows in python -X importtime

    for name in _ORACLE_NAMES:
        globals().setdefault(name, getattr(oracle, name))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        _load_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for internal errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code == EXIT_INPUT:
            print(f"error: {exc}", file=sys.stderr)
        elif isinstance(exc, InternalInvariantError):
            print(f"internal error: {exc}", file=sys.stderr)
        else:  # a bug outside the package's own error types
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


def _exit_code(exc: Exception) -> int:
    """The exit code of a verb, or of a batch file, that raised ``exc``."""
    if isinstance(exc, (InfoAgreeError, OSError)) and not isinstance(exc, InternalInvariantError):
        return EXIT_INPUT
    return EXIT_INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infoagree",
        description="Information agreement of two raters' classification counts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="input format (default: by file extension)",
    )
    common.add_argument(
        "--output", metavar="PATH", default=None, help="write output here instead of stdout"
    )

    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument(
        "--plain",
        action="store_true",
        help="print only the agreement value instead of a JSON report",
    )

    p_compute = sub.add_parser(
        "compute", parents=[common, plain], help="agreement value of one matrix file"
    )
    p_compute.add_argument("path", help="matrix file (.csv or .json)")
    p_compute.set_defaults(handler=_cmd_compute)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, plain],
        help="agreement value plus an epsilon sweep and convergence verdict",
    )
    p_sweep.add_argument("path", help="matrix file (.csv or .json)")
    p_sweep.add_argument(
        "--eps-from",
        type=float,
        default=_EPS_FROM,
        help="largest epsilon (default %(default)s)",
    )
    p_sweep.add_argument(
        "--eps-to",
        type=float,
        default=_EPS_TO,
        help="smallest epsilon (default %(default)s)",
    )
    p_sweep.add_argument(
        "--eps-steps",
        type=int,
        default=_EPS_STEPS,
        help="geometric grid size (default %(default)s); with 1 the grid is "
        "--eps-from alone and --eps-to is not used",
    )
    p_sweep.add_argument(
        "--final-tol",
        type=float,
        default=None,
        help="largest acceptable final gap (default: 1e-6, or 0.075 for degenerate matrices)",
    )
    p_sweep.add_argument(
        "--require-shrinking-tail",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="demand a shrinking gap tail (default: only for degenerate matrices)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_batch = sub.add_parser(
        "batch", parents=[common], help="one JSON line per matrix file in a directory"
    )
    p_batch.add_argument("directory", help="directory of .csv/.json matrix files")
    p_batch.set_defaults(handler=_cmd_batch)

    return parser


def _measure(path: str, fmt: str | None):
    """Read one matrix file and take its closed-form value: (document, result)."""
    doc = load_document(path, fmt)
    return doc, ia_epsilon(doc.matrix)


def _render(args, doc, result, swept=None) -> None:
    """Write the report, or with --plain the value alone, to --output or stdout."""
    if args.plain:
        text = format(result.value, ".17g")
    else:
        text = dump_json(build_report(doc, result, version=__version__, sweep=swept))
    _write_output(text + "\n", args.output)


def _cmd_compute(args) -> int:
    _render(args, *_measure(args.path, args.format))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _load_oracle()
    grid = _epsilon_grid(args.eps_from, args.eps_to, args.eps_steps)
    if args.final_tol is not None and not (math.isfinite(args.final_tol) and args.final_tol >= 0.0):
        raise InfoAgreeError(f"--final-tol must be finite and >= 0, got {args.final_tol!r}")
    doc, result = _measure(args.path, args.format)
    evaluations = sweep(doc.matrix, grid)
    flags = {"final_tol": args.final_tol, "require_shrinking_tail": args.require_shrinking_tail}
    config = dataclasses.replace(
        default_convergence_config(doc.matrix),
        **{name: value for name, value in flags.items() if value is not None},
    )
    verdict = check_convergence(evaluations, result.value, config)
    _render(args, doc, result, (evaluations, verdict, config))
    return EXIT_OK if verdict.passed else EXIT_CONVERGENCE


def _cmd_batch(args) -> int:
    names = sorted(
        name
        for name in os.listdir(args.directory)
        if name.lower().endswith((".csv", ".json"))
    )
    lines = []
    code = EXIT_OK
    for name in names:
        path = os.path.join(args.directory, name)
        try:
            record = build_report(*_measure(path, args.format), version=__version__)
        except Exception as exc:  # reported inline, so the other files keep their records
            record = error_record(path, exc)
            code = max(code, _exit_code(exc))
        lines.append(dump_json(record, indent=None))
    _write_output("".join(line + "\n" for line in lines), args.output)
    return code


def _epsilon_grid(eps_from: float, eps_to: float, steps: int) -> np.ndarray:
    from infoagree.oracle import EPS_MIN

    if not (eps_from > 0.0 and eps_to > 0.0):
        raise InfoAgreeError("--eps-from and --eps-to must be positive")
    # np.geomspace would warn and return NaNs for an infinite end point
    for flag, value in (("--eps-from", eps_from), ("--eps-to", eps_to)):
        if not math.isfinite(value):
            raise InfoAgreeError(f"{flag} must be finite, got {value!r}")
        # the oracle's floor, checked here so that no file is read for a bad grid
        if value < EPS_MIN:
            raise InfoAgreeError(f"{flag} must be at least {EPS_MIN!r}, got {value!r}")
    if steps < 1:
        raise InfoAgreeError("--eps-steps must be at least 1")
    if steps == 1:
        return np.array([eps_from])
    if not eps_from > eps_to:
        raise InfoAgreeError("--eps-from must exceed --eps-to")
    try:
        grid = np.geomspace(eps_from, eps_to, steps)
    except (MemoryError, ValueError):  # ValueError: an array NumPy cannot size
        raise InfoAgreeError(
            f"--eps-steps {steps} is too many: its grid cannot be allocated"
        ) from None
    # close end points leave too little room between doubles for many steps
    if not (grid[1:] < grid[:-1]).all():
        raise InfoAgreeError(
            f"--eps-steps {steps} is too many between --eps-from {eps_from!r} and "
            f"--eps-to {eps_to!r}: the grid's points collapse"
        )
    return grid


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)


if __name__ == "__main__":
    sys.exit(main())
