"""Command-line front end.

Verbs:
    compute  one matrix file -> JSON report (or --plain value)
    sweep    compute plus an epsilon sweep with a convergence verdict
    batch    every .csv/.json file in a directory -> JSON lines

Exit codes: 0 success, 1 bad input or flags, 2 internal invariant violation,
3 convergence check failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from infoagree import __version__
from infoagree.errors import InfoAgreeError, InternalInvariantError
from infoagree.formats import build_report, dump_json, error_record, load_document
from infoagree.measure import ia_epsilon
from infoagree.oracle import (
    DEFAULT_EPS_GRID,
    ConvergenceConfig,
    check_convergence,
    default_convergence_config,
    sweep,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_CONVERGENCE = 3


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
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InfoAgreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug outside the package's own error types
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
        default=DEFAULT_EPS_GRID[0],
        help="largest epsilon (default %(default)s)",
    )
    p_sweep.add_argument(
        "--eps-to",
        type=float,
        default=DEFAULT_EPS_GRID[-1],
        help="smallest epsilon (default %(default)s)",
    )
    p_sweep.add_argument(
        "--eps-steps",
        type=int,
        default=len(DEFAULT_EPS_GRID),
        help="geometric grid size (default %(default)s)",
    )
    p_sweep.add_argument(
        "--final-tol",
        type=float,
        default=None,
        help="largest acceptable final gap (default: 1e-6, or 0.1 for degenerate matrices)",
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


def _cmd_compute(args) -> int:
    doc = load_document(args.path, args.format)
    result = ia_epsilon(doc.matrix)
    if args.plain:
        text = format(result.value, ".17g")
    else:
        text = dump_json(build_report(doc, result, version=__version__))
    _write_output(text + "\n", args.output)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _epsilon_grid(args.eps_from, args.eps_to, args.eps_steps)
    if args.final_tol is not None and not (math.isfinite(args.final_tol) and args.final_tol >= 0.0):
        raise InfoAgreeError(f"--final-tol must be finite and >= 0, got {args.final_tol!r}")
    doc = load_document(args.path, args.format)
    result = ia_epsilon(doc.matrix)
    evaluations = sweep(doc.matrix, grid)
    defaults = default_convergence_config(doc.matrix)
    config = ConvergenceConfig(
        final_tol=args.final_tol if args.final_tol is not None else defaults.final_tol,
        require_shrinking_tail=(
            args.require_shrinking_tail
            if args.require_shrinking_tail is not None
            else defaults.require_shrinking_tail
        ),
    )
    verdict = check_convergence(evaluations, result.value, config)
    if args.plain:
        text = format(result.value, ".17g")
    else:
        text = dump_json(
            build_report(
                doc,
                result,
                version=__version__,
                sweep_result=evaluations,
                convergence=verdict,
                convergence_config=config,
            )
        )
    _write_output(text + "\n", args.output)
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
            doc = load_document(path, args.format)
            result = ia_epsilon(doc.matrix)
            record = build_report(doc, result, version=__version__)
        except InternalInvariantError as exc:
            record = error_record(path, exc)
            code = EXIT_INTERNAL
        except (InfoAgreeError, OSError) as exc:
            record = error_record(path, exc)
            code = max(code, EXIT_INPUT)
        except Exception as exc:  # a bug: report it, and keep the other files' records
            record = error_record(path, exc)
            code = EXIT_INTERNAL
        lines.append(dump_json(record, indent=None))
    _write_output("".join(line + "\n" for line in lines), args.output)
    return code


def _epsilon_grid(eps_from: float, eps_to: float, steps: int) -> np.ndarray:
    if not (eps_from > 0.0 and eps_to > 0.0):
        raise InfoAgreeError("--eps-from and --eps-to must be positive")
    # np.geomspace would warn and return NaNs for an infinite end point
    for flag, value in (("--eps-from", eps_from), ("--eps-to", eps_to)):
        if not math.isfinite(value):
            raise InfoAgreeError(f"{flag} must be finite, got {value!r}")
    if steps < 1:
        raise InfoAgreeError("--eps-steps must be at least 1")
    if steps == 1:
        return np.array([eps_from])
    if not eps_from > eps_to:
        raise InfoAgreeError("--eps-from must exceed --eps-to")
    grid = np.geomspace(eps_from, eps_to, steps)
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
