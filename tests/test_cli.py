import errno
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import infoagree.cli
from infoagree.cli import main
from infoagree.errors import InternalInvariantError
from infoagree.oracle import DEFAULT_EPS_GRID


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("4,0,0\n6,0,0\n0,0,0\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_real_ia_epsilon = infoagree.cli.ia_epsilon


def _broken_on_total_5(matrix):
    # stands in for a bug in the measure, hit by one file of a batch
    if matrix.total == 5:
        raise InternalInvariantError("forced for the test")
    return _real_ia_epsilon(matrix)


class TestCompute:
    def test_report_fields(self, capsys, table_csv):
        code, out, err = run(capsys, "compute", table_csv)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["ia"]["value"] == pytest.approx(1 / 3, abs=0)
        assert report["ia"]["case"] == "degenerate_x"
        assert report["ia"]["m"] == 2
        assert report["ia"]["l"] == 1
        assert report["input"]["n"] == 3

    def test_plain_value(self, capsys, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("1,1\n1,1\n")
        code, out, _ = run(capsys, "compute", "--plain", str(path))
        assert code == 0
        assert out == "0\n"

    def test_all_zero_matrix_exits_1(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n0,0\n")
        code, out, err = run(capsys, "compute", str(path))
        assert code == 1
        assert out == ""
        assert "positive" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", str(tmp_path / "nope.csv"))
        assert code == 1
        assert err

    def test_format_override(self, capsys, tmp_path):
        path = tmp_path / "m.data"
        path.write_text("1,2\n3,4\n")
        code, out, _ = run(capsys, "compute", "--format", "csv", str(path))
        assert code == 0
        assert json.loads(out)["input"]["n"] == 2

    def test_output_file(self, capsys, tmp_path, table_csv):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "compute", "--output", str(target), table_csv)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["ia"]["case"] == "degenerate_x"

    def test_labels_in_report(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"labels":["pos","neg"],"matrix":[[2,1],[0,1]]}')
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert json.loads(out)["input"]["labels"] == ["pos", "neg"]

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"\xff1,2\n3,4\n")
        code, out, err = run(capsys, "compute", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: not UTF-8 text: byte 0 (invalid start byte)\n"

    def test_utf8_bom_is_not_part_of_the_text(self, capsys, tmp_path):
        # as Excel's "CSV UTF-8" writes it; it used to make "\ufeff5" a label
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("5,1\n2,5\n")
        marked.write_bytes(b"\xef\xbb\xbf5,1\n2,5\n")
        code, out, err = run(capsys, "compute", str(marked))
        assert (code, err) == (0, "")
        assert out == run(capsys, "compute", str(plain))[1].replace("plain.csv", "marked.csv")

    def test_deterministic_output(self, capsys, table_csv):
        _, first, _ = run(capsys, "compute", table_csv)
        _, second, _ = run(capsys, "compute", table_csv)
        assert first == second


class TestSweep:
    def test_regular_matrix_passes(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,1\n0,1\n")
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        report = json.loads(out)
        gaps = [row["gap"] for row in report["sweep"]]
        assert len(gaps) == 11
        assert gaps[-1] <= 1e-6
        assert report["convergence"]["passed"] is True
        assert report["convergence"]["within_final_tol"] is True

    def test_skewed_single_column_exits_0(self, capsys, tmp_path):
        # the old epsilon-matrix evaluation cancelled below 0 here and exited 2
        path = tmp_path / "m.csv"
        path.write_text("871842,0\n194308,0\n")
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        assert json.loads(out)["convergence"]["passed"] is True

    @pytest.mark.parametrize("text", ["1,0\n1000000,0\n", "1,0,0\n10,0,0\n1000000,0,0\n"])
    def test_skewed_single_column_reaches_its_limit(self, capsys, tmp_path, text):
        # a grid that stopped at 1e-12 left gaps of 0.149 and 0.178 here and exited 3
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["ia"]["value"] == 0.0
        assert report["convergence"]["passed"] is True

    @pytest.mark.parametrize("text", ["1,0\n1,0\n", "5,0\n5,0\n", "0,3,0\n0,3,0\n0,3,0\n"])
    def test_sweep_that_sits_on_its_limit_passes(self, capsys, tmp_path, text):
        # every value is the limit 0 to within an ulp, so no gap can shrink
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, out, _ = run(capsys, "sweep", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["ia"]["value"] == 0.0
        assert max(row["gap"] for row in report["sweep"]) <= 1e-15
        assert report["convergence"]["tail_shrinking"] is True
        assert report["convergence"]["passed"] is True

    @pytest.mark.parametrize("eps_to", ["1e-300", "1e-320"])
    def test_eps_below_the_floor_exits_1(self, capsys, tmp_path, eps_to):
        path = tmp_path / "m.csv"
        path.write_text("871842,0\n194308,0\n")
        code, out, err = run(capsys, "sweep", "--eps-to", eps_to, str(path))
        assert code == 1
        assert out == ""
        assert "at least" in err

    @pytest.mark.parametrize("steps", ["1", "11"])
    @pytest.mark.parametrize("flag", ["--eps-from", "--eps-to"])
    def test_eps_below_the_floor_fails_before_the_file_is_read(
        self, capsys, tmp_path, flag, steps
    ):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, "sweep", flag, "1e-300", "--eps-steps", steps, missing)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must be at least 4.1045368012983762e-289, got 1e-300\n"

    # each grid would take at least 8 EiB, so NumPy refuses it before touching memory
    @pytest.mark.parametrize("steps", [10**18, 4 * 10**18, 10**30])
    def test_grid_too_large_to_allocate_exits_1(self, capsys, tmp_path, steps):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, "sweep", "--eps-steps", str(steps), missing)
        assert code == 1
        assert out == ""
        assert err == f"error: --eps-steps {steps} is too many: its grid cannot be allocated\n"

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_fewer_than_one_step_exits_1_before_the_file_is_read(self, capsys, tmp_path, steps):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run(capsys, "sweep", "--eps-steps", steps, missing)
        assert (code, out, err) == (1, "", "error: --eps-steps must be at least 1\n")

    def test_one_step_grid_is_eps_from_alone(self):
        grid = infoagree.cli._epsilon_grid(1e-3, 1.0, 1)
        assert grid.tolist() == [1e-3]

    def test_default_grid_is_the_oracles(self):
        args = infoagree.cli._build_parser().parse_args(["sweep", "m.csv"])
        grid = infoagree.cli._epsilon_grid(args.eps_from, args.eps_to, args.eps_steps)
        assert [x.hex() for x in grid.tolist()] == [x.hex() for x in DEFAULT_EPS_GRID]

    def test_degenerate_matrix_passes_with_shrinking_tail(self, capsys, table_csv):
        code, out, _ = run(capsys, "sweep", table_csv)
        assert code == 0
        report = json.loads(out)
        assert report["convergence"]["tail_shrinking"] is True
        assert report["convergence"]["require_shrinking_tail"] is True
        assert report["convergence"]["final_tol"] == 0.075

    def test_strict_tolerance_fails_with_exit_3(self, capsys, table_csv):
        code, out, _ = run(capsys, "sweep", "--final-tol", "1e-9", table_csv)
        assert code == 3
        assert json.loads(out)["convergence"]["passed"] is False

    def test_zero_eps_from_exits_1(self, capsys, table_csv):
        code, _, err = run(capsys, "sweep", "--eps-from", "0", table_csv)
        assert code == 1
        assert "positive" in err

    @pytest.mark.parametrize("flag", ["--eps-from", "--eps-to"])
    def test_infinite_eps_bound_exits_1_without_warnings(self, capsys, table_csv, flag):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "sweep", flag, "inf", table_csv)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} must be finite, got inf\n"
        assert [w.category for w in caught] == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_final_tol_exits_1(self, capsys, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text("2,1\n0,1\n")
        code, out, err = run(capsys, "sweep", f"--final-tol={value}", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: --final-tol must be finite and >= 0, got {float(value)!r}\n"

    def test_zero_final_tol_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,1\n0,1\n")
        code, out, _ = run(capsys, "sweep", "--final-tol=0", str(path))
        assert code in (0, 3)
        assert json.loads(out)["convergence"]["final_tol"] == 0.0

    def test_reversed_grid_exits_1(self, capsys, table_csv):
        code, _, _ = run(capsys, "sweep", "--eps-from", "1e-12", "--eps-to", "1e-2", table_csv)
        assert code == 1

    def test_collapsing_grid_exits_1(self, capsys, table_csv):
        code, out, err = run(
            capsys,
            "sweep",
            "--eps-from", "0.01",
            "--eps-to", "0.00999999999999",
            "--eps-steps", "1000",
            table_csv,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: --eps-steps 1000 is too many between --eps-from 0.01 and "
            "--eps-to 0.00999999999999: the grid's points collapse\n"
        )

    def test_custom_grid(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,1\n0,1\n")
        code, out, _ = run(
            capsys, "sweep", "--eps-from", "1e-3", "--eps-to", "1e-9", "--eps-steps", "4", str(path)
        )
        assert code == 0
        epsilons = [row["epsilon"] for row in json.loads(out)["sweep"]]
        assert len(epsilons) == 4
        assert epsilons[0] == pytest.approx(1e-3)
        assert epsilons[-1] == pytest.approx(1e-9)

    def test_plain_sweep_prints_value_and_keeps_exit_code(self, capsys, table_csv):
        code, out, _ = run(capsys, "sweep", "--plain", "--final-tol", "1e-9", table_csv)
        assert code == 3
        assert out == "0.33333333333333331\n"


class TestBatch:
    def test_all_valid(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("1,1\n1,1\n")
        (tmp_path / "b.json").write_text('{"matrix": [[5,0],[0,5]]}')
        (tmp_path / "c.csv").write_text("2,1\n0,1\n")
        (tmp_path / "ignored.txt").write_text("not a matrix")
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        names = [r["input"]["path"].rsplit("/", 1)[-1] for r in records]
        assert names == ["a.csv", "b.json", "c.csv"]  # lexicographic
        assert records[1]["ia"]["value"] == 1.0

    def test_bad_file_reported_inline(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("1,1\n1,1\n")
        (tmp_path / "bad.csv").write_text("0,0\n0,0\n")
        (tmp_path / "c.csv").write_text("2,1\n0,1\n")
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 3
        record = json.loads(lines[1])
        assert record["error"]["type"] == "AllZeroError"

    def test_non_utf8_file_reported_inline(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("1,1\n1,1\n")
        (tmp_path / "b.csv").write_bytes(b"\xff1,2\n3,4\n")
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert "ia" in records[0]
        assert records[1]["error"] == {
            "type": "ParseError",
            "message": "not UTF-8 text: byte 0 (invalid start byte)",
        }

    def test_empty_directory(self, capsys, tmp_path):
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 0
        assert out == ""

    def test_missing_directory_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", str(tmp_path / "absent"))
        assert code == 1
        assert err

    def test_deterministic_across_runs(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("1,1\n1,1\n")
        (tmp_path / "b.csv").write_text("2,1\n0,1\n")
        _, first, _ = run(capsys, "batch", str(tmp_path))
        _, second, _ = run(capsys, "batch", str(tmp_path))
        assert first == second


class TestExitCodes:
    def test_internal_invariant_violation_exits_2(self, capsys, table_csv, monkeypatch):
        def broken(matrix):
            raise InternalInvariantError("forced for the test")

        monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken)
        code, out, err = run(capsys, "compute", table_csv)
        assert code == 2
        assert "internal error" in err

    def test_batch_internal_error_exits_2_and_keeps_records(
        self, capsys, tmp_path, monkeypatch
    ):
        (tmp_path / "a.csv").write_text("1,1\n1,1\n")
        (tmp_path / "b.csv").write_text("3,1\n0,1\n")
        monkeypatch.setattr(infoagree.cli, "ia_epsilon", _broken_on_total_5)
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert "ia" in records[0]
        assert records[1]["error"]["type"] == "InternalInvariantError"

    def test_batch_internal_error_outranks_bad_input(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "a.csv").write_text("3,1\n0,1\n")
        (tmp_path / "b.csv").write_text("0,0\n0,0\n")
        monkeypatch.setattr(infoagree.cli, "ia_epsilon", _broken_on_total_5)
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 2
        types = [json.loads(line)["error"]["type"] for line in out.splitlines()]
        assert types == ["InternalInvariantError", "AllZeroError"]


    def test_unexpected_exception_exits_2_without_traceback(
        self, capsys, table_csv, monkeypatch
    ):
        def broken(matrix):
            raise RuntimeError("forced for the test")

        monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken)
        code, out, err = run(capsys, "compute", table_csv)
        assert code == 2
        assert out == ""
        assert err == "internal error: RuntimeError: forced for the test\n"

    def test_batch_unexpected_exception_keeps_other_records(
        self, capsys, tmp_path, monkeypatch
    ):
        def broken_on_total_5(matrix):
            if matrix.total == 5:
                raise RuntimeError("forced for the test")
            return _real_ia_epsilon(matrix)

        (tmp_path / "a.csv").write_text("3,1\n0,1\n")
        (tmp_path / "b.csv").write_text("0,0\n0,0\n")
        (tmp_path / "c.csv").write_text("1,1\n1,1\n")
        monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken_on_total_5)
        code, out, err = run(capsys, "batch", str(tmp_path))
        assert code == 2
        assert err == ""
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert records[0]["error"] == {"type": "RuntimeError", "message": "forced for the test"}
        assert records[1]["error"]["type"] == "AllZeroError"
        assert "ia" in records[2]


_ALL_ZERO = "agreement matrix must contain at least one positive cell"


# the classes a stand-in for ia_epsilon raises, for the cases that force a bug
_FORCED = {"invariant": InternalInvariantError, "unexpected": RuntimeError}


# verb, case, expected exit code, expected stderr. A batch reports a file's
# failure in that file's record, so its stderr stays empty
_EXIT_CODE_CONTRACT = [
    ("compute", "ok", 0, ""),
    ("compute", "bad input", 1, f"error: {_ALL_ZERO}\n"),
    ("compute", "invariant", 2, "internal error: forced for the test\n"),
    ("compute", "unexpected", 2, "internal error: RuntimeError: forced for the test\n"),
    ("sweep", "ok", 0, ""),
    ("sweep", "bad input", 1, f"error: {_ALL_ZERO}\n"),
    ("sweep", "invariant", 2, "internal error: forced for the test\n"),
    ("sweep", "unexpected", 2, "internal error: RuntimeError: forced for the test\n"),
    ("sweep", "failed verdict", 3, ""),
    ("batch", "ok", 0, ""),
    ("batch", "bad input", 1, ""),
    ("batch", "invariant", 2, ""),
    ("batch", "unexpected", 2, ""),
]


class TestExitCodeContract:
    """0 ok, 1 bad input, 2 a bug, 3 a failed convergence check, in every verb."""

    @pytest.mark.parametrize("verb, case, code, err", _EXIT_CODE_CONTRACT)
    def test_exit_code_and_stderr(self, capsys, tmp_path, monkeypatch, verb, case, code, err):
        (tmp_path / "m.csv").write_text("0,0\n0,0\n" if case == "bad input" else "4,0\n6,0\n")
        if case in _FORCED:

            def broken(matrix):
                raise _FORCED[case]("forced for the test")

            monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken)
        flags = ["--final-tol", "1e-9"] if case == "failed verdict" else []
        target = str(tmp_path if verb == "batch" else tmp_path / "m.csv")
        got_code, out, got_err = run(capsys, verb, *flags, target)
        assert (got_code, got_err) == (code, err)
        if verb == "batch":
            (record,) = [json.loads(line) for line in out.splitlines()]
            assert ("error" in record) == (case != "ok")

    @pytest.mark.parametrize("verb", ["compute", "sweep", "batch"])
    @pytest.mark.parametrize("good", [True, False])
    def test_python_dash_o_keeps_the_contract(self, capsys, tmp_path, verb, good):
        # -O strips assert statements, so no check may rest on one
        (tmp_path / "m.csv").write_text("2,1\n0,1\n" if good else "2,x\n0,1\n")
        target = str(tmp_path if verb == "batch" else tmp_path / "m.csv")
        src = os.path.dirname(os.path.dirname(infoagree.cli.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "infoagree.cli", verb, target],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, verb, target)
        assert done.returncode == (0 if good else 1)


class TestArgumentHandling:
    def test_unknown_flag_exits_1(self, capsys, table_csv):
        code, _, err = run(capsys, "compute", "--bogus", table_csv)
        assert code == 1
        assert "error" in err

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "compute" in out and "sweep" in out and "batch" in out

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "infoagree" in out


# --- the process entry point ---------------------------------------------------

SRC = os.path.dirname(os.path.dirname(infoagree.cli.__file__))

# runs the CLI as python -m would, after an atexit callback and an object whose
# __del__ only the interpreter's teardown calls; {setup} may stand in for a
# bug in the measure, hook the interpreter or start a thread, and {after}
# runs when the CLI ends through sys.exit
_PROBE = """\
import atexit, os, runpy, sys
class _Teardown:
    def __del__(self, write=os.write):
        write(2, b"[teardown]\\n")
_probe = _Teardown()
atexit.register(os.write, 2, b"[atexit]\\n")
{setup}
sys.argv = ["infoagree.cli", *{argv!r}]
try:
    runpy.run_module("infoagree.cli", run_name="__main__", alter_sys=True)
finally:
    {after}
"""

# the stand-ins of _FORCED, set before the CLI module runs
_FORCE = {
    case: (
        "import infoagree.errors, infoagree.measure\n"
        "def _broken(matrix):\n"
        f"    raise {name}('forced for the test')\n"
        "infoagree.measure.ia_epsilon = _broken"
    )
    for case, name in [("invariant", "infoagree.errors.InternalInvariantError"), ("unexpected", "RuntimeError")]
}


def _env(buffered: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for name in ("PYTHONUNBUFFERED", "PYTHONINSPECT"):
        env.pop(name, None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _python(args, *, buffered=True, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(buffered), capture_output=True, text=True, timeout=120, **kwargs
    )


def _probe(argv, setup="", after="pass", flags=(), **kwargs) -> subprocess.CompletedProcess:
    code = _PROBE.format(setup=setup, after=after, argv=list(argv))
    return _python([*flags, "-c", code], **kwargs)


def _route(err: str) -> str:
    """Which exit a probe took, from its stderr: the atexit callback must
    have run either way, and only sys.exit tears the interpreter down."""
    assert "[atexit]\n" in err
    return "sys.exit" if "[teardown]\n" in err else "os._exit"


def _stripped(err: str) -> str:
    return err.replace("[atexit]\n", "").replace("[teardown]\n", "")


class TestRunMatchesMain:
    """python -m infoagree.cli ends through cli.run(), which must leave every
    byte and exit code of main() as it was."""

    @pytest.mark.parametrize(
        "mode, verb, case, code, err",
        [
            (mode, *row)
            for mode in ("stdout", "--output", "--plain")
            for row in _EXIT_CODE_CONTRACT
            if not (mode == "--plain" and row[0] == "batch")  # batch has no --plain
        ],
    )
    def test_same_bytes_and_exit_code(self, capsys, tmp_path, monkeypatch, mode, verb, case, code, err):
        (tmp_path / "m.csv").write_text("0,0\n0,0\n" if case == "bad input" else "4,0\n6,0\n")
        out = tmp_path / "out.txt"
        flags = ["--final-tol", "1e-9"] if case == "failed verdict" else []
        if mode == "--output":
            flags += ["--output", str(out)]
        elif mode == "--plain":
            flags.append("--plain")
        argv = [verb, *flags, str(tmp_path if verb == "batch" else tmp_path / "m.csv")]

        def written():  # the --output file's bytes, if there is one, removed
            data = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return data

        done = _probe(argv, setup=_FORCE.get(case, ""))
        assert _route(done.stderr) == "os._exit"
        by_process = written()
        if case in _FORCED:
            def broken(matrix):
                raise _FORCED[case]("forced for the test")

            monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken)
        expected = run(capsys, *argv)
        assert expected[0] == code
        assert (done.returncode, done.stdout, _stripped(done.stderr)) == expected
        assert by_process == written()
        # a verb that fails before its report writes no --output file; batch always writes one
        reported = case in ("ok", "failed verdict") or verb == "batch"
        assert (by_process is not None) == (mode == "--output" and reported)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["compute", "m.csv"], ["batch", "."], ["--version"], ["--help"], []])
    def test_python_dash_m(self, capsys, tmp_path, monkeypatch, argv, buffered):
        (tmp_path / "m.csv").write_text("a,b\n4,0\n6,1\n")
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
        monkeypatch.chdir(tmp_path)
        done = _python(["-m", "infoagree.cli", *argv], buffered=buffered)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)

    def test_console_script_is_run(self):
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as handle:
            assert 'infoagree = "infoagree.cli:run"' in handle.read().splitlines()

    def test_console_script_wrapper(self, capsys, tmp_path):
        # what an installed script runs: sys.exit(run()), where run() never returns
        (tmp_path / "m.csv").write_text("0,0\n0,0\n")
        code = "import sys; from infoagree.cli import run; sys.argv[1:] = ['compute', 'm.csv']; sys.exit(run())"
        done = _python(["-c", code], cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {_ALL_ZERO}\n")


class TestRunExit:
    """When run() skips the interpreter's teardown, and when it does not."""

    @pytest.fixture
    def m_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("4,1\n2,5\n")
        return str(path)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_skips_the_teardown_after_the_atexit_callbacks(self, m_csv, buffered):
        # a callback registered before the CLI runs, and what it prints is flushed
        setup = "atexit.register(print, 'printed by a callback')"
        done = _probe(["compute", "--plain", m_csv], setup=setup, buffered=buffered)
        assert _route(done.stderr) == "os._exit"
        assert done.stdout == "0.19973045111530818\nprinted by a callback\n"
        assert done.returncode == 0

    def test_a_callback_that_raises_is_reported_and_the_exit_code_kept(self, m_csv):
        done = _probe(["compute", "--plain", m_csv], setup="atexit.register(int, 'x')")
        assert _route(done.stderr) == "os._exit"
        assert "Exception ignored in atexit callback" in done.stderr
        assert "ValueError: invalid literal" in done.stderr
        assert done.returncode == 0

    # a thread that lives until the CLI has ended
    _THREAD = "import threading; release = threading.Event(); threading.Thread(target=release.wait{}).start()"

    @pytest.mark.parametrize(
        "setup, flags",
        [
            ("sys.settrace(lambda *args: None)", ()),
            ("sys.setprofile(lambda *args: None)", ()),
            (_THREAD.format(""), ()),
            (_THREAD.format(", daemon=True"), ()),
            ("os.environ['PYTHONINSPECT'] = '1'", ()),
            ("", ("-i",)),
        ],
        ids=["trace", "profile", "thread", "daemon-thread", "PYTHONINSPECT", "dash-i"],
    )
    def test_falls_back_to_sys_exit(self, m_csv, setup, flags):
        after = "release.set()" if "release" in setup else "pass"
        done = _probe(
            ["compute", "--plain", m_csv], setup=setup, after=after, flags=flags, stdin=subprocess.DEVNULL
        )
        assert _route(done.stderr) == "sys.exit"
        assert done.stdout.startswith("0.19973045111530818\n")
        if not flags and "INSPECT" not in setup:
            assert done.returncode == 0
            assert _stripped(done.stderr) == ""

    def test_cprofile_still_prints_its_profile(self, m_csv):
        done = _python(["-m", "cProfile", "-m", "infoagree.cli", "compute", "--plain", m_csv])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("0.19973045111530818\n")
        assert "function calls" in done.stdout

    def _many_files(self, directory, count=400):
        for i in range(count):
            (directory / f"f{i:03d}.csv").write_text("4,1\n2,5\n")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, read", [(["batch", "."], 1), (["compute", "m.csv"], 0)], ids=["batch-one-byte", "compute-closed"]
    )
    def test_a_closed_pipe_ends_as_under_sys_exit_main(self, tmp_path, buffered, argv, read):
        # batch writes about 90 KB, more than the pipe and the buffer hold, and
        # its reader stops after one byte; compute's reader is gone before it
        # starts, so with buffered stdout the flush at exit is what fails
        self._many_files(tmp_path)
        (tmp_path / "m.csv").write_text("4,1\n2,5\n")
        old = "import sys; from infoagree.cli import main; sys.argv[1:] = {!r}; sys.exit(main())"
        outcomes = []
        for args in (["-m", "infoagree.cli", *argv], ["-c", old.format(argv)]):
            r, w = os.pipe()
            if not read:
                os.close(r)
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=tmp_path, env=_env(buffered), stdout=w, stderr=subprocess.PIPE
            )
            os.close(w)
            if read:
                assert os.read(r, read)
                os.close(r)
            err = proc.stderr.read().decode()
            proc.stderr.close()
            outcomes.append((proc.wait(timeout=120), err))
        assert outcomes[0] == outcomes[1]
        if argv[0] == "batch":  # the write fails inside main(), buffered or not
            assert outcomes[0] == (1, "error: [Errno 32] Broken pipe\n")
        elif buffered:  # the flush fails after main(), and the interpreter reports it
            assert outcomes[0][0] == 120 and "BrokenPipeError" in outcomes[0][1]

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["compute", "m.csv"], 1, "error: [Errno 9] stdout is closed\n"),
            (["compute", "--plain", "m.csv"], 1, "error: [Errno 9] stdout is closed\n"),
            (["sweep", "m.csv"], 1, "error: [Errno 9] stdout is closed\n"),
            (["batch", "."], 1, "error: [Errno 9] stdout is closed\n"),
            (["compute", "--output", "out.json", "m.csv"], 0, ""),
            # argparse prints to sys.stderr when sys.stdout is None: the text still arrives
            (["--version"], 0, None),
            (["--help"], 0, None),
        ],
        ids=["compute", "compute-plain", "sweep", "batch", "compute-output", "version", "help"],
    )
    def test_a_closed_stdout_is_bad_input(self, tmp_path, argv, code, err):
        # fd 1 is closed before the CLI's interpreter starts, so its sys.stdout is None
        (tmp_path / "m.csv").write_text("4,1\n2,5\n")
        if err is None:  # what the same command prints to an open stdout
            err = _python(["-m", "infoagree.cli", *argv], cwd=tmp_path).stdout
            assert err.startswith(("infoagree ", "usage: infoagree"))
        closed = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
        done = _python(["-c", closed, "-m", "infoagree.cli", *argv], cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", err)
        assert (tmp_path / "out.json").exists() == ("--output" in argv)


class TestWriteOutputToRawStdout:
    """Unbuffered stdout's text layer writes to a raw stream and drops what a
    short write leaves; the report goes to the raw stream until it is all
    written."""

    class _Trickle(io.RawIOBase):
        """A raw stream that takes at most ``limit`` bytes per write."""

        def __init__(self, limit):
            self.limit, self.data = limit, bytearray()

        def writable(self):
            return True

        def write(self, b):
            chunk = bytes(b[: self.limit])
            self.data += chunk
            return len(chunk)

    def _stdout(self, monkeypatch, limit):
        raw = self._Trickle(limit)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        return raw

    def test_every_byte_of_the_report_is_written(self, monkeypatch):
        raw = self._stdout(monkeypatch, 7)
        text = "".join(f'{{"path": "\u00e9t\u00e9{i}.csv"}}\n' for i in range(300))
        sys.stdout.write("before\n")  # 7 bytes: the text layer writes them whole
        infoagree.cli._write_output(text, None)
        assert raw.data.decode("utf-8") == "before\n" + text


class TestRunFallbacksInProcess:
    """What the subprocess tests cannot arrange: a flush that fails, and an
    interpreter without the private functions run() relies on. Each sends
    run() to sys.exit without running the atexit callbacks itself (the
    interpreter's teardown runs them then)."""

    @pytest.fixture(autouse=True)
    def entry(self, monkeypatch):
        calls = []
        monkeypatch.setattr(infoagree.cli, "main", lambda: 3)
        monkeypatch.setattr(infoagree.cli.atexit, "_run_exitfuncs", lambda: calls.append("atexit"))

        def fake_exit(code):
            calls.append(("os._exit", code))
            raise SystemExit("os._exit")

        monkeypatch.setattr(infoagree.cli.os, "_exit", fake_exit)
        return calls

    def _run(self) -> object:
        with pytest.raises(SystemExit) as exc:
            infoagree.cli.run()
        return exc.value.code

    @staticmethod
    def _unobserved(monkeypatch):
        """No hook and no other thread, even under a coverage tool or a
        test runner that has them."""
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        if hasattr(sys, "monitoring"):
            monkeypatch.setattr(sys.monitoring, "get_tool", lambda tool: None)
        monkeypatch.setattr(infoagree.cli._thread, "_count", lambda: 0, raising=False)

    def test_the_fast_route_without_any_condition(self, monkeypatch, entry):
        self._unobserved(monkeypatch)
        assert self._run() == "os._exit"
        assert entry == ["atexit", ("os._exit", 3)]

    class _Unflushable:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_a_failed_flush(self, monkeypatch, entry, stream):
        monkeypatch.setattr(sys, stream, self._Unflushable())
        assert self._run() == 3
        assert entry == []

    def test_a_failed_flush_after_the_callbacks(self, monkeypatch, entry):
        self._unobserved(monkeypatch)
        unflushable = self._Unflushable()

        def callbacks():
            entry.append("atexit")
            monkeypatch.setattr(sys, "stdout", unflushable)

        monkeypatch.setattr(infoagree.cli.atexit, "_run_exitfuncs", callbacks)
        assert self._run() == 3
        assert entry == ["atexit"]

    @pytest.mark.parametrize("module, name", [("atexit", "_run_exitfuncs"), ("_thread", "_count")])
    def test_a_missing_private_function(self, monkeypatch, entry, module, name):
        monkeypatch.delattr(getattr(infoagree.cli, module), name, raising=False)
        assert (self._run(), entry) == (3, [])


# --- batch over forked workers --------------------------------------------------

_MIN_FILES = infoagree.cli._MIN_FILES_PER_WORKER

# one file of each way a batch file can fail, and files that take less common
# routes, by the end of their names
_SPECIAL_FILES = {
    "parse.csv": b"1,x\n2,3\n",
    "not-square.csv": b"1,2,3\n4,5,6\n",
    "all-zero.csv": b"0,0\n0,0\n",
    "negative.csv": b"1,-2\n3,4\n",
    "overflow.csv": b"18446744073709551615,1\n1,1\n",
    "not-utf8.csv": b"\xff1,2\n3,4\n",
    "bom.csv": b"\xef\xbb\xbf1,2\n3,4\n",
    "labelled.json": b'{"labels": ["pos", "neg"], "matrix": [[2, 1], [0, 1]]}',
    # more than 10 000 positive cells: the per-cell route and a threaded ddot
    "large.csv": "".join(
        ",".join(map(str, row)) + "\n"
        for row in np.random.default_rng(27).integers(1, 10**7 + 1, (120, 120)).tolist()
    ).encode(),
    "x.csv": None,  # a directory
}


def _batch_corpus(directory, fillers: int) -> None:
    """``fillers`` small matrix files, and spread among them in the listing,
    one entry of each kind in _SPECIAL_FILES."""
    for i in range(fillers):
        (directory / f"f{i:04d}a.csv").write_text(f"{i % 7 + 1},1\n2,{i % 5 + 1}\n")
    for k, (name, data) in enumerate(_SPECIAL_FILES.items()):
        path = directory / f"f{k * fillers // len(_SPECIAL_FILES):04d}b-{name}"
        if data is None:
            path.mkdir()
        else:
            path.write_bytes(data)


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(infoagree.cli, "_batch_workers", lambda files: workers)


def _assert_no_child_left(pid: int) -> None:
    """This is still the test's own process, and it has no child, exited or not."""
    assert os.getpid() == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _nine_files(directory) -> None:
    # with three workers, a0-a2 are this process's slice and a3-a8 two children's
    for i in range(9):
        (directory / f"a{i}.csv").write_text("1,1\n1,1\n")


class TestBatchWorkers:
    """batch over forked workers gives the bytes and exit code of one process."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("fillers", [1, _MIN_FILES - 1, _MIN_FILES, 2 * _MIN_FILES + 1])
    def test_same_bytes_and_exit_code_as_one_worker(self, capsys, tmp_path, monkeypatch, fillers, workers):
        pid = os.getpid()
        corpus = tmp_path / "in"
        corpus.mkdir()
        _batch_corpus(corpus, fillers)
        outcomes = []
        for forced in (1, workers):
            _force_workers(monkeypatch, forced)
            printed = run(capsys, "batch", str(corpus))
            _assert_no_child_left(pid)
            output = tmp_path / f"out{forced}.jsonl"
            code = main(["batch", "--output", str(output), str(corpus)])
            _assert_no_child_left(pid)
            outcomes.append((printed, code, output.read_bytes()))
        assert outcomes[0] == outcomes[1]
        (code, out, err), _, written = outcomes[0]
        assert (code, err) == (1, "")
        assert written == out.encode()
        assert len(out.splitlines()) == fillers + len(_SPECIAL_FILES)

    @pytest.mark.parametrize(
        "files, workers", [(0, 1), (_MIN_FILES - 1, 1), (2 * _MIN_FILES - 1, 1), (2 * _MIN_FILES, 2), (10**6, 4)]
    )
    def test_one_worker_per_cpu_and_per_minimum_of_files(self, monkeypatch, files, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert infoagree.cli._batch_workers(files) == workers

    def test_one_worker_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert infoagree.cli._batch_workers(10**6) == 1

    def test_one_worker_under_a_profiler(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        sys.setprofile(lambda *args: None)
        try:
            workers = infoagree.cli._batch_workers(10**6)
        finally:
            sys.setprofile(None)
        assert workers == 1

    def test_one_worker_while_another_thread_runs(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            workers = infoagree.cli._batch_workers(10**6)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert workers == 1

    @pytest.mark.parametrize("verb, case, code, err", [row for row in _EXIT_CODE_CONTRACT if row[0] == "batch"])
    def test_exit_code_contract(self, capsys, tmp_path, monkeypatch, verb, case, code, err):
        # m.csv is last in the listing: the last child's slice
        _nine_files(tmp_path)
        (tmp_path / "m.csv").write_text("0,0\n0,0\n" if case == "bad input" else "4,0\n6,0\n")
        if case in _FORCED:

            def broken(matrix):
                if matrix.total == 10:
                    raise _FORCED[case]("forced for the test")
                return _real_ia_epsilon(matrix)

            monkeypatch.setattr(infoagree.cli, "ia_epsilon", broken)
        _force_workers(monkeypatch, 3)
        got_code, out, got_err = run(capsys, verb, str(tmp_path))
        _assert_no_child_left(os.getpid())
        assert (got_code, got_err) == (code, err)
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 10
        assert ["error" in record for record in records] == [False] * 9 + [case != "ok"]

    def test_internal_error_in_a_child_exits_2_and_keeps_records(self, capsys, tmp_path, monkeypatch):
        _nine_files(tmp_path)
        (tmp_path / "b.csv").write_text("3,1\n0,1\n")
        monkeypatch.setattr(infoagree.cli, "ia_epsilon", _broken_on_total_5)
        _force_workers(monkeypatch, 3)
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 2
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 10
        assert all("ia" in record for record in records[:-1])
        assert records[-1]["error"]["type"] == "InternalInvariantError"

    def test_internal_error_in_a_child_outranks_bad_input_in_this_process(
        self, capsys, tmp_path, monkeypatch
    ):
        _nine_files(tmp_path)
        (tmp_path / "a.csv").write_text("0,0\n0,0\n")
        (tmp_path / "b.csv").write_text("3,1\n0,1\n")
        monkeypatch.setattr(infoagree.cli, "ia_epsilon", _broken_on_total_5)
        _force_workers(monkeypatch, 3)
        code, out, _ = run(capsys, "batch", str(tmp_path))
        assert code == 2
        types = [json.loads(line).get("error", {}).get("type") for line in out.splitlines()]
        assert types == ["AllZeroError"] + [None] * 9 + ["InternalInvariantError"]

    def test_a_failed_fork_leaves_the_rest_to_this_process(self, capsys, tmp_path, monkeypatch):
        pid = os.getpid()
        _batch_corpus(tmp_path, 20)
        _force_workers(monkeypatch, 1)
        expected = run(capsys, "batch", str(tmp_path))
        real_fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        _force_workers(monkeypatch, 3)
        assert run(capsys, "batch", str(tmp_path)) == expected
        _assert_no_child_left(pid)
        assert len(forks) == 1

    def _fails_in_a_child(self, capsys, tmp_path, monkeypatch, message):
        _force_workers(monkeypatch, 3)
        code, out, err = run(capsys, "batch", str(tmp_path))
        _assert_no_child_left(os.getpid())
        assert (code, out) == (2, "")
        assert err.startswith(f"internal error: the batch worker for files {message}")

    def test_a_child_killed_by_a_signal_fails_the_batch(self, capsys, tmp_path, monkeypatch):
        pid, real = os.getpid(), infoagree.cli.load_document
        _nine_files(tmp_path)

        def killed_on_a8(path, fmt):
            if os.getpid() != pid and path.endswith("a8.csv"):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(path, fmt)

        monkeypatch.setattr(infoagree.cli, "load_document", killed_on_a8)
        self._fails_in_a_child(capsys, tmp_path, monkeypatch, f"7-9 of 9 died of signal {int(signal.SIGKILL)} after sending 0 bytes")

    def test_a_child_that_exits_nonzero_fails_the_batch(self, capsys, tmp_path, monkeypatch):
        # the children send their whole message and then exit with 3
        pid, real_exit = os.getpid(), os._exit
        _nine_files(tmp_path)
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(status if os.getpid() == pid else 3))
        self._fails_in_a_child(capsys, tmp_path, monkeypatch, "4-6 of 9 exited with 3 after sending")

    def test_a_child_that_sends_a_short_message_fails_the_batch(self, capsys, tmp_path, monkeypatch):
        # the children report every byte as written and exit with 0, but the last one is lost
        pid, real_write = os.getpid(), os.write
        _nine_files(tmp_path)

        def write(fd, data):
            if os.getpid() == pid:
                return real_write(fd, data)
            return real_write(fd, bytes(data)[:-1]) + 1

        monkeypatch.setattr(os, "write", write)
        self._fails_in_a_child(capsys, tmp_path, monkeypatch, "4-6 of 9 exited with 0 after sending")

    def test_an_interrupt_in_this_process_kills_and_reaps_the_children(self, capsys, tmp_path, monkeypatch):
        pid, real = os.getpid(), infoagree.cli.load_document
        _nine_files(tmp_path)

        def interrupted(path, fmt):
            if os.getpid() != pid:
                time.sleep(60)  # the children are still running when the interrupt comes
            elif path.endswith("a1.csv"):
                raise KeyboardInterrupt
            return real(path, fmt)

        monkeypatch.setattr(infoagree.cli, "load_document", interrupted)
        _force_workers(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["batch", str(tmp_path)])
        assert time.monotonic() - start < 30
        _assert_no_child_left(pid)
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="batch forks only where it may run on 2 or more CPUs",
    )
    def test_no_fork_warning_as_main(self, capsys, tmp_path, monkeypatch):
        # Python 3.12+ warns when a process with other threads forks, and
        # shows that warning by default in __main__
        _batch_corpus(tmp_path, 2 * _MIN_FILES)
        done = _python(["-W", "error::DeprecationWarning", "-m", "infoagree.cli", "batch", str(tmp_path)])
        _force_workers(monkeypatch, 1)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, "batch", str(tmp_path))
        assert done.stderr == ""
