"""Seeded workload inputs.

Every input comes from ``numpy.random.default_rng([seed, <workload tag>])``,
so one seed always gives the same files and arrays, and each workload draws
from its own stream. The program under test only ever sees what is written
to the workload's input directory. Generation is untimed.

CLI workloads write matrix files (.csv/.json) and name the CLI argv; library
workloads write one .npz with every matrix of the stream, flattened.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = {
    "cli_compute_large": {
        "kind": "cli",
        "tag": 1,
        "why": "one CLI compute process per op on an n=1600 labelled CSV of counts 0..9; "
        "ingest (parse_csv, list-path AgreementMatrix) is nearly all of the wall time",
        "params": {"n": 1600, "counts": [0, 9], "label_row": True},
    },
    "cli_batch_small": {
        "kind": "cli",
        "tag": 2,
        "why": "one CLI batch process per op over 3000 small CSV/JSON files (n 2..12, counts "
        "0..200, 10% degenerate, 24 malformed); per-file costs dominate",
        "params": {
            "files": 3000,
            "n": [2, 12],
            "counts": [0, 200],
            "degenerate_frac": 0.1,
            "label_frac": 0.3,
            "malformed_per_kind": 3,
        },
    },
    "lib_bootstrap": {
        "kind": "lib",
        "tag": 3,
        "why": "one op = AgreementMatrix(ndarray) + ia_epsilon on a bootstrap resample "
        "(n 3..80) or a skewed matrix (totals to 2**64-1); no file I/O or parsing",
        "params": {
            "studies": 24,
            "resamples_per_study": 80,
            "n": [3, 80],
            "items_per_cell": 8,
            "skewed": 8,
        },
    },
    "lib_verify_large": {
        "kind": "lib",
        "tag": 4,
        "why": "one op = ia_epsilon plus ia_strict (positive) or sweep+check_convergence "
        "(zeros) at n 200/400/800; the only workload where infotheory and oracle work",
        "params": {
            "cycle": [
                [200, "strict"],
                [200, "sweep"],
                [200, "sweep_sparse"],
                [400, "strict"],
                [400, "sweep"],
                [800, "strict"],
                [800, "sweep"],
            ],
            "counts": [0, 9],
        },
    },
}

# Rejected by the documented grammar. The first three are accepted at the
# seed commit (ROADMAP open item 4) and stay in the inputs as known defects.
MALFORMED_KINDS = {
    "csv_label_row_wrong_length": ("csv", "ParseError"),
    "csv_underscore_digits": ("csv", "ParseError"),
    "csv_non_ascii_digits": ("csv", "ParseError"),
    "csv_ragged_row": ("csv", "ParseError"),
    "json_bool_cell": ("json", "ParseError"),
    "json_float_cell": ("json", "ParseError"),
    "not_square": ("csv", "NotSquareError"),
    "all_zero": ("json", "AllZeroError"),
}

# Heavily skewed matrices with totals up to 2**64 - 1 (ROADMAP open item 2).
SKEWED = [
    [[2**62, 1], [1, 1]],
    [[2**62, 0], [0, 1]],
    [[2**40, 1], [1, 1]],
    [[10**9, 1], [1, 1]],
    [[2**64 - 4, 1], [1, 1]],
    [[2**63, 2**62], [1, 2**61]],
    [[2**32, 7, 0], [0, 3, 2**20], [5, 0, 1]],
    [[1, 2**50], [2**50, 1]],
]


@dataclass
class Item:
    """One matrix of a workload: what the program gets and what it should say."""

    kind: str  # input kind, reported when the item fails
    counts: np.ndarray | None = None  # None when the input is malformed
    labels: list[str] | None = None
    path: str | None = None  # matrix file, CLI workloads
    error: str | None = None  # expected error type, malformed inputs
    mode: str = "epsilon"  # lib_verify_large: "strict" or "sweep"

    @property
    def cells(self) -> int:
        return 0 if self.counts is None else int(self.counts.shape[0]) ** 2


@dataclass
class Inputs:
    items: list[Item]
    argv: list[str] = field(default_factory=list)  # CLI workloads
    expected_exit: int = 0
    npz: str | None = None  # library workloads


def generate(workload: str, seed: int, out_dir: str) -> Inputs:
    """Write the workload's inputs under out_dir (relative to the repo root)."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, spec["tag"]])
    os.makedirs(out_dir, exist_ok=True)
    return _GENERATORS[workload](rng, spec["params"], out_dir)


def _cli_compute_large(rng, params, out_dir) -> Inputs:
    n = params["n"]
    lo, hi = params["counts"]
    counts = rng.integers(lo, hi + 1, size=(n, n), dtype=np.uint64)
    labels = [f"c{i}" for i in range(n)]
    path = os.path.join(out_dir, "matrix.csv")
    _write_text(path, _csv_text(counts.tolist(), labels))
    item = Item(kind="large_csv", counts=counts, labels=labels, path=path)
    return Inputs([item], argv=["compute", path], expected_exit=0)


def _cli_batch_small(rng, params, out_dir) -> Inputs:
    files = params["files"]
    n_lo, n_hi = params["n"]
    c_lo, c_hi = params["counts"]
    per_kind = params["malformed_per_kind"]
    kinds = [k for k in MALFORMED_KINDS for _ in range(per_kind)]
    malformed_at = dict(zip(rng.choice(files, size=len(kinds), replace=False).tolist(), kinds))
    items = []
    for i in range(files):
        n = n_lo + i % (n_hi - n_lo + 1)  # sizes fixed, so every seed does the same work
        fmt = "csv" if i % 2 == 0 else "json"
        labels = [f"class{j}" for j in range(n)] if rng.random() < params["label_frac"] else None
        degenerate = rng.random() < params["degenerate_frac"]
        kind = malformed_at.get(i)
        if kind is not None:
            fmt, error = MALFORMED_KINDS[kind]
            text = _malformed_text(kind, rng, n, c_hi)
            item = Item(kind="malformed:" + kind, error=error)
        else:
            if degenerate:
                counts = _degenerate(rng, n, c_lo, c_hi)
            else:
                counts = rng.integers(c_lo, 61, size=(n, n), dtype=np.uint64)
                np.fill_diagonal(counts, rng.integers(100, c_hi + 1, size=n, dtype=np.uint64))
            rows = counts.tolist()
            text = _csv_text(rows, labels) if fmt == "csv" else _json_text(rows, labels)
            item = Item(kind="degenerate" if degenerate else "regular", counts=counts, labels=labels)
        item.path = os.path.join(out_dir, f"m{i:05d}.{fmt}")
        _write_text(item.path, text)
        items.append(item)
    # batch exits 1 whenever any file is rejected, and the malformed slice is never empty
    return Inputs(items, argv=["batch", out_dir], expected_exit=1)


def _degenerate(rng, n, lo, hi) -> np.ndarray:
    counts = np.zeros((n, n), dtype=np.uint64)
    line = rng.integers(lo, hi + 1, size=n, dtype=np.uint64)
    if not line.any():
        line[0] = 1
    j = int(rng.integers(n))
    if rng.random() < 0.5:
        counts[:, j] = line  # single non-null column
    else:
        counts[j, :] = line  # single non-null row
    return counts


def _malformed_text(kind: str, rng, n: int, c_hi: int) -> str:
    rows = rng.integers(1, c_hi + 1, size=(n, n)).tolist()
    if kind == "csv_label_row_wrong_length":
        return _csv_text(rows, [f"class{j}" for j in range(n + 1)])
    if kind == "not_square":
        return _csv_text([r + [1] for r in rows], None)
    if kind == "all_zero":
        return _json_text([[0] * n for _ in range(n)], None)
    if kind.startswith("json_"):
        rows[-1][0] = True if kind == "json_bool_cell" else 2.5
        return _json_text(rows, None)
    lines = [[str(v) for v in r] for r in rows]
    if kind == "csv_underscore_digits":
        lines[-1][0] = "1_0"
    elif kind == "csv_non_ascii_digits":
        lines[-1][0] = "５"  # FULLWIDTH DIGIT FIVE
    elif kind == "csv_ragged_row":
        lines[n // 2].pop()
    return "".join(",".join(line) + "\n" for line in lines)


def _csv_text(rows, labels) -> str:
    head = ",".join(labels) + "\n" if labels is not None else ""
    return head + "".join(",".join(map(str, r)) + "\n" for r in rows)


def _json_text(rows, labels) -> str:
    obj = {"labels": labels, "matrix": rows} if labels is not None else {"matrix": rows}
    return json.dumps(obj) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _lib_bootstrap(rng, params, out_dir) -> Inputs:
    k = params["studies"]
    n_lo, n_hi = params["n"]
    stream = []
    for s in range(k):
        n = n_lo + round((n_hi - n_lo) * s / (k - 1))  # sizes fixed, so every seed does the same work
        weights = rng.gamma(1.0, size=(n, n))
        weights[np.diag_indices(n)] *= n
        total = params["items_per_cell"] * n * n + 50
        base = rng.multinomial(total, weights.ravel() / weights.sum())
        for sample in rng.multinomial(total, base / total, size=params["resamples_per_study"]):
            stream.append(Item(kind="bootstrap", counts=sample.reshape(n, n).astype(np.uint64)))
    order = rng.permutation(len(stream))
    items = [stream[i] for i in order]
    step = len(items) // len(SKEWED)
    for j, rows in enumerate(SKEWED):  # evenly spaced through the stream
        items.insert(j * (step + 1), Item(kind="skewed", counts=np.array(rows, dtype=np.uint64)))
    return _lib_inputs(items, out_dir)


def _lib_verify_large(rng, params, out_dir) -> Inputs:
    lo, hi = params["counts"]
    items = []
    for n, mode in params["cycle"]:
        if mode == "strict":
            counts = rng.integers(lo + 1, hi + 1, size=(n, n), dtype=np.uint64)
        else:
            counts = rng.integers(lo, hi + 1, size=(n, n), dtype=np.uint64)
            if mode == "sweep_sparse":
                counts[rng.random((n, n)) < 0.5] = 0
        items.append(Item(kind=f"n{n}_{mode}", counts=counts, mode=mode.split("_")[0]))
    return _lib_inputs(items, out_dir)


def _lib_inputs(items: list[Item], out_dir: str) -> Inputs:
    path = os.path.join(out_dir, "matrices.npz")
    np.savez(
        path,
        flat=np.concatenate([it.counts.ravel() for it in items]),
        sizes=np.array([it.counts.shape[0] for it in items], dtype=np.int64),
        strict=np.array([it.mode == "strict" for it in items]),
    )
    return Inputs(items, npz=path)


_GENERATORS = {
    "cli_compute_large": _cli_compute_large,
    "cli_batch_small": _cli_batch_small,
    "lib_bootstrap": _lib_bootstrap,
    "lib_verify_large": _lib_verify_large,
}
