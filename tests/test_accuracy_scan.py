"""A smoke test of the accuracy scan (tests/accuracy_scan.py): two matrices
per family, and the shape of its table and its JSON records."""

import json

import accuracy_scan


def test_two_matrices_per_family(tmp_path, capsys):
    path = tmp_path / "scan.json"
    assert accuracy_scan.main(["--seed", "1", "--count", "2", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert (report["seed"], report["count"]) == (1, 2)
    records = report["records"]
    pairs = [(r["function"], r["family"]) for r in records]
    assert pairs == [(f, family) for f in accuracy_scan.FUNCTIONS for family in accuracy_scan.FAMILIES]
    for r in records:
        returned = r["attempted"] - sum(r["raised"].values())
        assert 0 <= returned <= r["attempted"] <= 2
        stats = [r["median"], r["p99"], r["worst"]]
        if returned:
            assert 0.0 <= r["median"] <= r["p99"] <= r["worst"]
            assert len(r["worst_matrix"]) >= 2
        else:
            assert stats == [None, None, None] and r["worst_matrix"] is None
    # sweep evaluates every matrix, and ia_strict the positive ones alone
    assert all(r["attempted"] == 2 for r in records if r["function"] != "ia_strict")
    assert dict(zip(pairs, records))["ia_strict", "single-line"]["attempted"] == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 2 + len(records)
    assert all(line.startswith("| ") and line.endswith(" |") for line in table)
