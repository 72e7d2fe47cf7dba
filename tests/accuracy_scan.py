"""How close the package's values come to the decimal reference, by function
and by family of matrices.

    PYTHONPATH=src python tests/accuracy_scan.py --seed S --count N [--json PATH]

For each family below, N matrices are drawn from NumPy's generator seeded
with S. Each function is run on each matrix it accepts: ia_epsilon on all,
ia_strict on the positive ones, and sweep at the oracle's EPS_MIN on all.
Its value is compared with tests/decimal_reference.py: the closed form for
ia_epsilon and ia_strict, the literal epsilon matrix for sweep. For each
function and family the scan prints how many matrices it attempted, how
many raised, by exception class, the median, p99 and worst absolute error
of the values it returned, and the matrix of the worst error. With --json
it also writes those records to PATH.

This is a report, not a gate: the 1e-12 gates are the tests'. The file has
no test_ prefix, so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from decimal import Decimal

import numpy as np

from decimal_reference import reference_eps_evaluations, reference_ia_epsilon
from infoagree.matrix import AgreementMatrix
from infoagree.measure import ia_epsilon, ia_strict
from infoagree.oracle import EPS_MIN, sweep

U64_MAX = 2**64 - 1


def _dominant_cell(rng):
    """Cells 1..9 and one cell from [10**6, 2**63) (ROADMAP item 1)."""
    n = int(rng.integers(2, 6))
    rows = rng.integers(1, 10, (n, n)).tolist()
    rows[rng.integers(n)][rng.integers(n)] = int(rng.integers(10**6, 2**63))
    return rows


def _near_independent(rng):
    """An outer product of positive factors, plus one in every cell: the
    mutual information is tiny."""
    n = int(rng.integers(2, 6))
    u, v = rng.integers(1, 2**20, n).tolist(), rng.integers(1, 2**20, n).tolist()
    return [[a * b + 1 for b in v] for a in u]


def _tiny_h_lo(rng):
    """One row holds nearly all of the total, so H(Y) is tiny."""
    n = int(rng.integers(2, 6))
    rows = rng.integers(1, 10, (n, n)).tolist()
    rows[rng.integers(n)] = rng.integers(2**40, 2**50, n).tolist()
    return rows


def _total_near_u64_max(rng):
    """Positive cells whose total lies within 2**10 of 2**64 - 1."""
    n = int(rng.integers(2, 6))
    total = U64_MAX - int(rng.integers(0, 2**10))
    weights = rng.random(n * n) + 0.01
    cells = [max(1, int(w / weights.sum() * total)) for w in weights[1:]]
    cells.insert(0, total - sum(cells))
    return [cells[y * n : (y + 1) * n] for y in range(n)]


def _single_line(rng):
    """One nonzero column, or, for every other draw, one nonzero row."""
    n = int(rng.integers(2, 6))
    rows = [[0] * n for _ in range(n)]
    x = int(rng.integers(n))
    for y, c in enumerate(rng.integers(1, 10**6, n).tolist()):
        rows[y][x] = c
    return rows if rng.integers(2) else [list(col) for col in zip(*rows)]


def _uniform(rng):
    """n = 2..12 and counts 0..200, the shape of a batch of small files."""
    while True:
        n = int(rng.integers(2, 13))
        rows = rng.integers(0, 201, (n, n)).tolist()
        if any(map(any, rows)):
            return rows


FAMILIES = {
    "dominant-cell": _dominant_cell,
    "near-independent": _near_independent,
    "tiny-h-lo": _tiny_h_lo,
    "total-near-u64-max": _total_near_u64_max,
    "single-line": _single_line,
    "uniform": _uniform,
}

# each function: whether it takes the matrix, its value, and the reference value
FUNCTIONS = {
    "ia_epsilon": (
        lambda rows: True,
        lambda m: ia_epsilon(m).value,
        lambda rows: reference_ia_epsilon(rows).value,
    ),
    "ia_strict": (
        lambda rows: all(map(all, rows)),
        ia_strict,
        lambda rows: reference_ia_epsilon(rows).value,
    ),
    "sweep@EPS_MIN": (
        lambda rows: True,
        lambda m: sweep(m, [EPS_MIN])[0].ia_value,
        # a positive matrix is its own epsilon matrix, and the closed form's
        # reference takes far fewer digits than the epsilon reference's
        lambda rows: (
            reference_ia_epsilon(rows)
            if all(map(all, rows))
            else reference_eps_evaluations(rows, [EPS_MIN])[0]
        ).value,
    ),
}


def scan(seed: int, count: int) -> list[dict]:
    """One record per function and family, in the order of FUNCTIONS and
    FAMILIES."""
    drawn = {}
    for family, draw in FAMILIES.items():
        rng = np.random.default_rng(seed)
        drawn[family] = [draw(rng) for _ in range(count)]
    records = []
    for function, (takes, value, reference) in FUNCTIONS.items():
        for family, matrices in drawn.items():
            raised, errors = Counter(), []
            for rows in filter(takes, matrices):
                try:
                    got = float(value(AgreementMatrix(rows)))
                except Exception as exc:  # counted by class: the scan reports, it does not stop
                    raised[type(exc).__name__] += 1
                    continue
                error = abs(Decimal(got) - reference(rows)) if math.isfinite(got) else math.inf
                errors.append((float(error), rows))
            worst = max(errors, key=lambda e: e[0], default=None)
            values = [e for e, _ in errors]
            records.append(
                {
                    "function": function,
                    "family": family,
                    "attempted": sum(raised.values()) + len(errors),
                    "raised": dict(sorted(raised.items())),
                    "median": float(np.median(values)) if values else None,
                    "p99": float(np.percentile(values, 99)) if values else None,
                    "worst": None if worst is None else worst[0],
                    "worst_matrix": None if worst is None else worst[1],
                }
            )
    return records


def _table(records: list[dict]) -> str:
    def num(x):
        return "-" if x is None else f"{x:.2g}"

    lines = ["| function | family | attempted | raised | median | p99 | worst | worst matrix |"]
    lines.append("|" + " --- |" * 8)
    for r in records:
        raised = ", ".join(f"{name} {k}" for name, k in r["raised"].items()) or "0"
        lines.append(
            f"| {r['function']} | {r['family']} | {r['attempted']} | {raised} | {num(r['median'])}"
            f" | {num(r['p99'])} | {num(r['worst'])} | {json.dumps(r['worst_matrix'])} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)
    records = scan(args.seed, args.count)
    print(_table(records))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"seed": args.seed, "count": args.count, "records": records}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
