"""The accuracy scan (tests/accuracy_scan.py): a smoke test of its table and
JSON records on two matrices per family, and a gate on each function's
accuracy per family at a fixed seed."""

import json

import pytest

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


GATE_SEED, GATE_COUNT = 2026, 20

# the pairs that the open ROADMAP items 1 and 2 fix; strict, so a fix fails
# them until its mark goes
_OPEN_DEFECTS = {
    ("ia_epsilon", "dominant-cell"): "ROADMAP item 1: 17 of 20 raise ZeroDivisionError",
    ("ia_epsilon", "tiny-h-lo"): "ROADMAP item 1: InternalInvariantError, and off by 0.08",
    ("ia_strict", "dominant-cell"): "ROADMAP item 2: off by 0.37",
    ("ia_strict", "tiny-h-lo"): "ROADMAP item 2: off by 1.8e-3",
}


@pytest.fixture(scope="module")
def gate_records():
    records = accuracy_scan.scan(GATE_SEED, GATE_COUNT)
    return {(r["function"], r["family"]): r for r in records}


@pytest.mark.parametrize(
    "function, family",
    [
        pytest.param(
            function,
            family,
            marks=[pytest.mark.xfail(strict=True, reason=_OPEN_DEFECTS[function, family])]
            if (function, family) in _OPEN_DEFECTS
            else [],
        )
        for function in accuracy_scan.FUNCTIONS
        for family in accuracy_scan.FAMILIES
    ],
)
def test_within_1e_12_of_the_reference(gate_records, function, family):
    record = gate_records[function, family]
    assert record["raised"] == {}
    # ia_strict takes no single-line matrix, which always has a zero cell
    assert record["worst"] is None or record["worst"] <= 1e-12, record["worst_matrix"]
