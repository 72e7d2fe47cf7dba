"""Span recorder and per-layer arithmetic for the traced run.

The traced run wraps calls into the package's modules from outside: each
wrapper is installed at the attribute its caller looks up at call time
(``infoagree.cli.load_document``, ``infoagree.formats.parse_csv``,
``infoagree._kernels.xlog2_sum``, ...), so the package itself is unchanged.
A span records its name, start, end, parent span and op id, plus up to two
work amounts (elements, bytes). Spans stay in memory until the run ends.

Self time of a span = its duration minus the part of it covered by its
child spans. Every span of an op nests inside the op's root span, so the
layers' self times plus the root's own self time (``unattributed``) add up
to the op's wall time.
"""

from __future__ import annotations

import importlib
import os
import time

import numpy as np

ROOT = "op"


class Tracer:
    """Records nested spans; ``wrap`` gives a traced stand-in for a callable."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.rows: list[tuple] = []
        self._stack = [-1]
        self.op = -1
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, amounts=None):
        """Traced stand-in for fn. ``name`` is a span name or a function of the
        call's args giving one; ``amounts(args, result)`` gives (a, b) work counts."""
        rows, stack, clock = self.rows, self._stack, time.perf_counter
        choose = name if callable(name) else None
        fixed = None if choose else self.name_id(name)

        def traced(*args, **kwargs):
            nid = fixed if choose is None else self.name_id(choose(args))
            idx = len(rows)
            rows.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows[idx] = (nid, start, end, parent, self.op, 0, 0)
            if amounts is not None:
                a, b = amounts(args, result)
                rows[idx] = (nid, start, end, parent, self.op, a, b)
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run fn() as op ``op_id`` under a root span."""
        self.op = op_id
        try:
            return self.wrap(fn, ROOT)()
        finally:
            self.op = -1

    def install(self, sites) -> None:
        """Replace each (module, attribute) site with a traced stand-in."""
        for module_name, attr, name, amounts in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, amounts))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def save(self, path: str) -> None:
        cols = list(zip(*self.rows)) if self.rows else [()] * 7
        np.savez(
            path,
            name=np.array(cols[0], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int64),
            a=np.array(cols[5], dtype=np.int64),
            b=np.array(cols[6], dtype=np.int64),
        )


# --- where the traced run installs wrappers ---------------------------------


def _agreement_name(args) -> str:
    kind = "from_ndarray" if isinstance(args[0], np.ndarray) else "from_list"
    return f"matrix.AgreementMatrix.{kind}"


def _bytes_read(args, result):
    return os.stat(args[0]).st_size, 0


def _bytes_written(args, result):
    return len(result.encode("utf-8")), 0


def _cells_parsed(args, result):
    return result.matrix.n ** 2, 0


def _array_size(args, result):
    arr = args[0]
    return arr.size, arr.nbytes


AGREEMENT = _agreement_name  # span name chosen by the argument's type

# (module, attribute, span name, amounts) for calls made inside the package
SITES = [
    ("infoagree.cli", "load_document", "formats.load_document", _bytes_read),
    ("infoagree.cli", "build_report", "formats.build_report", None),
    ("infoagree.cli", "dump_json", "formats.dump_json", _bytes_written),
    ("infoagree.cli", "error_record", "formats.error_record", None),
    ("infoagree.cli", "ia_epsilon", "measure.ia_epsilon", None),
    ("infoagree.cli", "sweep", "oracle.sweep", None),
    ("infoagree.cli", "check_convergence", "oracle.check_convergence", None),
    ("infoagree.formats", "parse_csv", "formats.parse_csv", _cells_parsed),
    ("infoagree.formats", "parse_json", "formats.parse_json", _cells_parsed),
    ("infoagree.formats", "AgreementMatrix", AGREEMENT, None),
    ("infoagree._kernels", "xlog2_sum", "kernels.xlog2_sum", _array_size),
    ("infoagree.infotheory", "marginal_x", "infotheory.marginal", None),
    ("infoagree.infotheory", "marginal_y", "infotheory.marginal", None),
    ("infoagree.infotheory", "joint", "infotheory.joint", None),
    ("infoagree.infotheory", "shannon_entropy", "infotheory.shannon_entropy", None),
    ("infoagree.oracle", "zero_freed", "oracle.zero_freed", None),
    ("infoagree.oracle", "eval_ia_at", "oracle.eval_ia_at", None),
]

# span names whose self time is reported, and the counts reported beside them
SELF_TIMED = [
    "cli.main",
    "formats.load_document",
    "formats.parse_csv",
    "formats.parse_json",
    "formats.build_report",
    "formats.dump_json",
    "formats.error_record",
    "matrix.AgreementMatrix.from_list",
    "matrix.AgreementMatrix.from_ndarray",
    "measure.ia_epsilon",
    "measure.ia_strict",
    "kernels.xlog2_sum",
    "infotheory.marginal",
    "infotheory.joint",
    "infotheory.shannon_entropy",
    "oracle.sweep",
    "oracle.zero_freed",
    "oracle.eval_ia_at",
    "oracle.check_convergence",
]
CALLS = [
    "matrix.AgreementMatrix.from_list",
    "matrix.AgreementMatrix.from_ndarray",
    "measure.ia_epsilon",
    "kernels.xlog2_sum",
    "oracle.eval_ia_at",
]
# metric name -> (span name, amount column)
AMOUNTS = {
    "formats.bytes_read": ("formats.load_document", "a"),
    "formats.cells_parsed": (("formats.parse_csv", "formats.parse_json"), "a"),
    "formats.bytes_written": ("formats.dump_json", "a"),
    "kernels.xlog2_sum.elements": ("kernels.xlog2_sum", "a"),
    "kernels.xlog2_sum.bytes_computed": ("kernels.xlog2_sum", "b"),
}


# --- arithmetic --------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the union of its children's intervals, each
    clipped to the parent. Children of one parent may come in any order."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]  # by parent, then start
    current, reach = -1, -np.inf  # reach: end of the merged coverage so far
    for i in kids.tolist():
        p = int(parent[i])
        if p != current:
            current, reach = p, -np.inf
        lo = max(start[i], start[p], reach)
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(names: list[str], spans) -> dict[str, float]:
    """Per-op means over the traced ops of self time, call counts and amounts."""
    name = spans["name"]
    st = self_times(spans["start"], spans["end"], spans["parent"])
    is_root = name == names.index(ROOT)
    ops = int(is_root.sum())
    per_op = 1.0 / ops if ops else 0.0
    ids = {n: i for i, n in enumerate(names)}

    def select(span_names):
        if isinstance(span_names, str):
            span_names = (span_names,)
        wanted = [ids[n] for n in span_names if n in ids]
        return np.isin(name, wanted)

    out: dict[str, float] = {}
    attributed = 0.0
    for n in SELF_TIMED:
        total = float(st[select(n)].sum())
        attributed += total
        out[f"{n}.self_s"] = total * per_op
    for n in CALLS:
        out[f"{n}.calls"] = int(select(n).sum()) * per_op
    for metric, (span_names, col) in AMOUNTS.items():
        out[metric] = int(spans[col][select(span_names)].sum()) * per_op
    unknown = {names[i] for i in np.unique(name).tolist()} - set(SELF_TIMED) - {ROOT}
    if unknown:
        raise ValueError(f"spans without a reported layer: {sorted(unknown)}")
    wall = float((spans["end"] - spans["start"])[is_root].sum())
    out["trace.unattributed_s"] = float(st[is_root].sum()) * per_op
    out["trace.op_wall_s"] = wall * per_op
    out["trace.ops"] = ops
    # the decomposition is exact up to float rounding; report how far off it is
    out["trace.identity_residual_s"] = (wall - attributed - float(st[is_root].sum())) * per_op
    return out
