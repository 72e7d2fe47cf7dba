"""Command-line front end.

Verbs:
    compute  one matrix file -> JSON report (or --plain value)
    sweep    compute plus an epsilon sweep with a convergence verdict
    batch    every .csv/.json file in a directory -> JSON lines

Exit codes: 0 success, 1 bad input or flags, 2 internal invariant violation,
3 convergence check failed.

Only sweep loads the epsilon oracle: compute, batch, --help and --version
never do.

run() is the process entry point: main() returns the exit code, and run()
ends the process with it, skipping the interpreter's teardown when nothing
can observe the difference (see run()).
"""

from __future__ import annotations

import _thread
import argparse
import atexit
import errno
import io
import math
import os
import sys
from typing import NoReturn

import numpy as np

import infoagree
from infoagree import __version__
from infoagree.errors import InfoAgreeError, InternalInvariantError
from infoagree.formats import build_report, dump_json, error_record, load_document
from infoagree.measure import ia_epsilon

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_CONVERGENCE = 3

# oracle.DEFAULT_EPS_GRID's ends and size, written out so that building the
# parser loads no oracle; tests/test_cli.py checks that they give its grid
_EPS_FROM, _EPS_TO, _EPS_STEPS = 1e-2, 1e-282, 11

# the oracle's names the sweep verb calls, loaded on first use by the package,
# unless a wrapper (as the benchmark's tracer sets) is bound here instead
_ORACLE_NAMES = ("check_convergence", "default_convergence_config", "sweep")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        return getattr(infoagree, name)
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
        "--eps-from alone, though --eps-to is still checked",
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
        text = dump_json(result.value)
    else:
        text = dump_json(build_report(doc, result, version=__version__, sweep=swept))
    _write_output(text + "\n", args.output)


def _cmd_compute(args) -> int:
    _render(args, *_measure(args.path, args.format))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    import dataclasses  # sweep alone needs it, and the oracle's records load it anyway

    here = sys.modules[__name__]  # _ORACLE_NAMES: the oracle's, or a wrapper bound here
    grid = _epsilon_grid(args.eps_from, args.eps_to, args.eps_steps)
    if args.final_tol is not None and not (math.isfinite(args.final_tol) and args.final_tol >= 0.0):
        raise InfoAgreeError(f"--final-tol must be finite and >= 0, got {args.final_tol!r}")
    doc, result = _measure(args.path, args.format)
    evaluations = here.sweep(doc.matrix, grid)
    flags = {"final_tol": args.final_tol, "require_shrinking_tail": args.require_shrinking_tail}
    config = dataclasses.replace(
        here.default_convergence_config(doc.matrix),
        **{name: value for name, value in flags.items() if value is not None},
    )
    verdict = here.check_convergence(evaluations, result.value, config)
    _render(args, doc, result, (evaluations, verdict, config))
    return EXIT_OK if verdict.passed else EXIT_CONVERGENCE


def _cmd_batch(args) -> int:
    paths = [
        os.path.join(args.directory, name)
        for name in sorted(os.listdir(args.directory))
        if name.lower().endswith((".csv", ".json"))
    ]
    workers = _batch_workers(len(paths))
    if workers == 1:
        text, code = _batch_records(paths, args.format)
    else:
        text, code = _batch_forked(paths, args.format, workers)
    _write_output(text, args.output)
    return code


def _batch_records(paths: list[str], fmt: str | None) -> tuple[str, int]:
    """One JSON line per file, and the gravest exit code among them."""
    lines = []
    code = EXIT_OK
    for path in paths:
        try:
            record = build_report(*_measure(path, fmt), version=__version__)
        except Exception as exc:  # reported inline, so the other files keep their records
            record = error_record(path, exc)
            code = max(code, _exit_code(exc))
        lines.append(dump_json(record, indent=None))
    return "".join(line + "\n" for line in lines), code


# the fewest files a batch worker takes. A fork round trip alone takes about
# 1.6 ms, but a child's first writes to the memory it shares with its parent
# cost more: on 2 vCPUs, two workers lost to one at 64 files each and won at
# 128 (BENCH_27.json's sweep)
_MIN_FILES_PER_WORKER = 128


def _batch_workers(files: int) -> int:
    """How many processes share a batch of ``files`` files: one per CPU this
    process may run on, where os.sched_getaffinity tells (Linux), and at most
    one per _MIN_FILES_PER_WORKER files. Elsewhere, while a profiler or trace
    hook is set (so that it sees every file), or while another thread runs
    (whose locks a forked child could find held), one."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or _hook_is_set() or _other_threads_run():
        return 1
    return max(1, min(len(affinity(0)), files // _MIN_FILES_PER_WORKER))


def _batch_forked(paths: list[str], fmt: str | None, workers: int) -> tuple[str, int]:
    """_batch_records over ``workers`` contiguous slices of paths: this
    process takes the first, and a forked child each other one. The text
    joins the slices' texts in order, so it and the code are those of one
    _batch_records call. If a fork fails, this process also takes the files
    from that slice on. A child that fails, dies or sends a short message
    raises InternalInvariantError. Every way out reaps every child: on an
    exception, after killing those still running."""
    bounds = [len(paths) * i // workers for i in range(workers + 1)]
    children = []  # (pid, read end of its pipe, its slice), in listing order
    rest = len(paths)  # where the files that no child takes begin
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            try:
                pid, fd = _fork_worker(paths[lo:hi], fmt)
            except OSError:  # no process to spare: this one takes the rest
                rest = lo
                break
            children.append((pid, fd, (lo, hi)))
        text, code = _batch_records(paths[: bounds[1]], fmt)
        texts = [text]
        while children:
            pid, fd, (lo, hi) = children[0]
            message = _read_all(fd)
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(fd)
            sent = len(message) - 9  # the text's bytes, past the code and the length
            if status != 0 or sent < 0 or int.from_bytes(message[1:9], "little") != sent:
                returned = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
                ended = f"died of signal {-returned}" if returned < 0 else f"exited with {returned}"
                raise InternalInvariantError(
                    f"the batch worker for files {lo + 1}-{hi} of {len(paths)} {ended} "
                    f"after sending {len(message)} bytes"
                )
            texts.append(message[9:].decode("utf-8", "surrogatepass"))
            code = max(code, message[0])
        text, rest_code = _batch_records(paths[rest:], fmt)
        texts.append(text)
        return "".join(texts), max(code, rest_code)
    finally:
        if children:
            import signal  # only this way out needs it

            for pid, fd, _ in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
                os.close(fd)


def _fork_worker(paths: list[str], fmt: str | None) -> tuple[int, int]:
    """Fork a child that runs _batch_records on paths and writes to a pipe
    its exit code as one byte, its text's length in UTF-8 as 8 bytes and
    the text; (its pid, the pipe's read end). The child never writes to
    sys.stdout and never returns: it ends by os._exit, with status 0 once
    the whole message is written and 1 on any exception."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            text, code = _batch_records(paths, fmt)
            data = text.encode("utf-8", "surrogatepass")
            message = memoryview(bytes([code]) + len(data).to_bytes(8, "little") + data)
            while message:
                message = message[os.write(w, message) :]
            os._exit(0)
        finally:  # whatever was raised, the child ends here
            os._exit(1)
    os.close(w)
    return pid, r


def _read_all(fd: int) -> bytes:
    """Every byte a pipe's read end yields until end of file."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


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
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    if sys.stdout is None:  # fd 1 was closed when the process started
        raise OSError(errno.EBADF, "stdout is closed")
    stream, raw = sys.stdout, getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):  # buffered stdout, or a StringIO
        stream.write(text)
        return
    # unbuffered stdout (-u, PYTHONUNBUFFERED): its text layer drops what a
    # short raw write leaves, as when a pipe's reader closes, so the bytes it
    # would write go to the raw layer until all are written or a write raises
    stream.flush()
    data = memoryview(text.replace("\n", os.linesep).encode(stream.encoding, stream.errors))
    while data:
        data = data[raw.write(data) :]


def run() -> NoReturn:
    """Run main() on sys.argv and end the process with its exit code.

    Once main() has returned and stdout and stderr are flushed, the process
    runs its atexit callbacks, flushes again and ends with os._exit. That
    skips the interpreter's teardown, which with NumPy loaded took 24-27 ms
    of a 2-vCPU VM's time and which no caller can see. Whenever something
    could see it, the process ends with sys.exit, as it would without this
    entry point: when a flush fails (the interpreter then reports it as
    usual), when _exit_is_observed(), or when this interpreter lacks
    atexit._run_exitfuncs.
    """
    code = main()
    run_exitfuncs = getattr(atexit, "_run_exitfuncs", None)
    if _flush_std_streams() and run_exitfuncs is not None and not _exit_is_observed():
        run_exitfuncs()
        if _flush_std_streams():  # what the callbacks wrote
            os._exit(code)
    sys.exit(code)


def _flush_std_streams() -> bool:
    """Flush sys.stdout and sys.stderr; False if either flush raised."""
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # as under pythonw: nothing to flush
            continue
        try:
            stream.flush()
        except (OSError, ValueError):  # a broken pipe, a full disk, a closed file
            return False
    return True


def _exit_is_observed() -> bool:
    """Whether anything would act on the interpreter's teardown: a hook (a
    profiler reports after the module returns), an interactive session to
    come or another live thread, which the interpreter waits for."""
    if _hook_is_set():
        return True
    if sys.flags.inspect or os.environ.get("PYTHONINSPECT"):
        return True
    return _other_threads_run()


def _other_threads_run() -> bool:
    """Whether a thread other than this one is alive, or this cannot be told."""
    count = getattr(_thread, "_count", None)
    return count is None or count() > 0


def _hook_is_set() -> bool:
    """Whether a trace or profile hook is set, as cProfile and coverage set."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile, coverage
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":
    run()
