import json

import pytest

import infoagree.cli
from infoagree.cli import main
from infoagree.errors import InternalInvariantError


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

    def test_degenerate_matrix_passes_with_shrinking_tail(self, capsys, table_csv):
        code, out, _ = run(capsys, "sweep", table_csv)
        assert code == 0
        report = json.loads(out)
        assert report["convergence"]["tail_shrinking"] is True
        assert report["convergence"]["require_shrinking_tail"] is True
        assert report["convergence"]["final_tol"] == 0.1

    def test_strict_tolerance_fails_with_exit_3(self, capsys, table_csv):
        code, out, _ = run(capsys, "sweep", "--final-tol", "1e-9", table_csv)
        assert code == 3
        assert json.loads(out)["convergence"]["passed"] is False

    def test_zero_eps_from_exits_1(self, capsys, table_csv):
        code, _, err = run(capsys, "sweep", "--eps-from", "0", table_csv)
        assert code == 1
        assert "positive" in err

    def test_reversed_grid_exits_1(self, capsys, table_csv):
        code, _, _ = run(capsys, "sweep", "--eps-from", "1e-12", "--eps-to", "1e-2", table_csv)
        assert code == 1

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
