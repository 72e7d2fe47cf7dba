import json
import os
import subprocess
import sys
import warnings

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
