"""infoagree benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. The package is run from ./src, as a user
without an install would: ``PYTHONPATH=src python -m infoagree.cli``.

A run generates the workload's inputs from the seed (untimed), computes
reference outputs with the benchmark's own decimal closed form (untimed),
times the package's set-up in fresh interpreters, then runs ops in a closed
loop with one client for at least --seconds and at least MIN_OPS ops. Every
output is checked. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted``/``failed`` count the distinct input matrices of the run, each
once however often the loop repeats it, so they depend on the seed alone.
``correct`` is false when any matrix fails for a reason other than the known
seed defects in checks.KNOWN_DEFECTS (those still count in ``failed``). With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. A full record of each run goes to
.perfbench_work/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import hostspeed
from checks import KNOWN_DEFECTS, check_cli_output, check_lib_result
from reference import PRECISION, TIE_TOL, VALUE_TOL, Reference
from spans import layer_metrics
from workloads import WORKLOADS, generate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
CONTROL_CSV = os.path.join(WORK, "control.csv")
SRC = "src"
SETUP_PROBES = 7
MIN_OPS = 11  # the tail percentile needs at least ten samples beyond it
# Deeper than p99, a 0.1 ms op's tail times host preemption, not the program.
TAIL_CAP_PERCENTILE = 99.0
PROCESS_TIMEOUT_S = 150
LIB_WARMUP_OPS = 8


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wanted = _declared()["per_layer" if args.trace else "end_to_end"]
    try:
        if not os.path.isfile(os.path.join(SRC, "infoagree", "__init__.py")):
            raise BenchError("no ./src/infoagree; run from the root of an infoagree checkout")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = {m["name"]: _metric(results[0], m) for m in wanted}
    else:
        metrics = {f"{r['workload']}.{m['name']}": _metric(r, m) for r in results for m in wanted}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def _metric(result: dict, declared: dict) -> dict:
    return {"value": result["metrics"][declared["name"]], "unit": declared["unit"]}


# --- one workload --------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    base = os.path.join(WORK, name)
    shutil.rmtree(base, ignore_errors=True)
    t0 = time.perf_counter()
    inputs = generate(name, seed, os.path.join(base, "inputs"))
    ref = Reference()
    refs = [None if it.counts is None else ref.closed_form(it.counts) for it in inputs.items]
    with open(CONTROL_CSV, "w", encoding="utf-8") as handle:
        handle.write(hostspeed.control_csv())
    prepare_s = time.perf_counter() - t0

    env_info = _probe_env()
    setup, setup_slowdowns = _setup_samples(spec["kind"])
    if trace:
        run = _traced_run(name, spec, inputs, refs, base, seconds)
    elif spec["kind"] == "cli":
        run = _cli_run(inputs, refs, base, seconds)
    else:
        run = _lib_run(name, inputs, refs, base, seconds)
    tally = run["tally"]
    metrics = run["metrics"]
    host = {}
    if not trace:
        metrics["setup_s"] = statistics.median(t / f for t, f in zip(setup, setup_slowdowns))
        host = {
            "ops_slowdown": run["detail"]["slowdown"],
            "setup_slowdown": statistics.median(setup_slowdowns),
            "setup_slowdowns": setup_slowdowns,
            "raw_metrics": dict(run["raw"], setup_s=statistics.median(setup)),
        }
    unexpected = sorted(set(tally.kinds) - set(KNOWN_DEFECTS))
    result = {
        "workload": name,
        "why": spec["why"],
        "params": spec["params"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "failing_kinds": dict(tally.kinds),
        "failure_examples": tally.examples,
        "unexpected_failing_kinds": unexpected,
        "metrics": metrics,
        "detail": run["detail"],
        "host_speed": host,
        "setup_samples_s": setup,
        "prepare_s": prepare_s,
        "checks": {"value_tol": VALUE_TOL, "tie_tol": TIE_TOL, "decimal_digits": PRECISION},
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": env_info["numpy"],
            "kernel_backend": env_info["backend"],
            "git_commit": _git_commit(),
            "platform": platform.platform(),
        },
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as f:
        json.dump(result, f, indent=1)
    _print_table(result)
    return result


class Tally:
    """Distinct matrices attempted and failed, with failing input kinds.

    A matrix counts once per run, however many ops repeated it: it fails when
    its first result is wrong or a repeat differs from the first. So the
    counts depend on the seed alone, not on how many ops fit in the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: collections.Counter = collections.Counter()
        self.examples: dict[str, str] = {}

    def add(self, items, reasons) -> None:
        for item, reason in zip(items, reasons):
            self.attempted += 1
            if reason:
                self.failed += 1
                self.kinds[item.kind] += 1
                self.examples.setdefault(item.kind, f"{item.path or 'item'}: {reason}")


def _pair_slowdowns(samples: list[float], nominal: float) -> list[float]:
    """How much slower than nominal the host ran between consecutive yardstick
    samples: their mean over the nominal yardstick time."""
    return [(a + b) / (2 * nominal) for a, b in zip(samples, samples[1:])]


def _latency_metrics(latencies, slowdowns, elapsed: float, matrices: int, cells: int):
    """Latency and rate metrics at nominal host speed, the same figures raw,
    and the detail. Each op's latency is divided by the slowdown measured
    around that op, so a slow stretch of the host scales only its own ops."""
    scaled = [lat / f for lat, f in zip(latencies, slowdowns)]
    slowdown = sum(latencies) / sum(scaled)
    metrics, detail = _latency_figures(scaled, elapsed / slowdown, matrices, cells)
    raw, _ = _latency_figures(latencies, elapsed, matrices, cells)
    detail["slowdown"] = slowdown
    return metrics, raw, detail


def _latency_figures(latencies: list[float], elapsed: float, matrices: int, cells: int) -> tuple[dict, dict]:
    xs = sorted(latencies)
    count = len(xs)
    # the highest percentile (nearest rank) with at least ten samples beyond it
    tail_percentile = min(TAIL_CAP_PERCENTILE, 100.0 * (count - 10) / count)
    tail_index = max(0, math.ceil(tail_percentile / 100.0 * count) - 1)
    metrics = {
        "latency_p50_s": statistics.median(xs),
        "latency_tail_s": xs[tail_index],
        "matrices_per_s": matrices / elapsed,
        "cells_per_s": cells / elapsed,
    }
    detail = {
        "samples": count,
        "tail_percentile": round(tail_percentile, 3),
        "tail_samples_beyond": count - 1 - tail_index,
        "timed_wall_s": elapsed,
        "matrices_completed": matrices,
        "cells_completed": cells,
    }
    return metrics, detail


# --- processes ----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _spawn(cmd: list[str], stderr_path: str) -> tuple[int, bytes, float]:
    """Run cmd to completion; returns exit code, stdout and peak RSS in MiB."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_env())
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def _control_sample() -> float:
    """Wall time of one control process (hostspeed.py)."""
    err = os.path.join(WORK, "control.err")
    t0 = time.perf_counter()
    code, _, _ = _spawn([sys.executable, os.path.join(BENCH_DIR, "control.py"), CONTROL_CSV], err)
    wall = time.perf_counter() - t0
    if code != 0:
        raise BenchError(f"control process failed: {_tail(err)}")
    return wall


def _setup_samples(kind: str) -> tuple[list[float], list[float]]:
    """SETUP_PROBES set-up times, and the host slowdown around each: control
    processes run before, between and after them."""
    controls, setup = [_control_sample()], []
    for _ in range(SETUP_PROBES):
        setup.append(_setup_sample(kind))
        controls.append(_control_sample())
    return setup, _pair_slowdowns(controls, hostspeed.CONTROL_NOMINAL_S)


def _setup_sample(kind: str) -> float:
    """Fresh interpreter until the package is ready."""
    err = os.path.join(WORK, "probe.err")
    if kind == "cli":
        t0 = time.perf_counter()
        code, out, _ = _spawn([sys.executable, "-m", "infoagree.cli", "--version"], err)
        wall = time.perf_counter() - t0
        if code != 0 or not out.startswith(b"infoagree "):
            raise BenchError(f"`infoagree --version` failed: {_tail(err)}")
        return wall
    return _probe_env()["import_s"]


def _probe_env() -> dict:
    err = os.path.join(WORK, "probe.err")
    os.makedirs(WORK, exist_ok=True)
    code, out, _ = _spawn([sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--probe"], err)
    if code != 0:
        raise BenchError(f"cannot import infoagree: {_tail(err)}")
    return json.loads(out)


def _tail(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()[-2000:]


def _git_commit() -> str | None:
    root = os.getcwd()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# --- untraced runs -------------------------------------------------------------


def _cli_run(inputs, refs, base: str, seconds: float) -> dict:
    """One `python -m infoagree.cli ...` process per op, one at a time, with
    a control process before the first op and after each op."""
    cmd = [sys.executable, "-m", "infoagree.cli", *inputs.argv]
    err = os.path.join(base, "cli.err")
    latencies, rss, digests = [], [], []
    first_key = reasons = None
    items = inputs.items
    controls = [_control_sample()]
    while len(latencies) < MIN_OPS or sum(latencies) < seconds:
        t0 = time.perf_counter()
        code, out, maxrss = _spawn(cmd, err)
        finished = time.perf_counter()
        controls.append(_control_sample())
        latencies.append(finished - t0)
        rss.append(maxrss)
        digest = hashlib.sha256(out).hexdigest()
        with open(err, "rb") as handle:
            escaped = b"Traceback (most recent call last)" in handle.read()
        key = (code, digest, escaped)
        if first_key is None:
            first_key = key
            if escaped:
                reasons = [f"escaped exception: {_tail(err)[-200:]}"] * len(items)
            else:
                reasons = check_cli_output(inputs, refs, code, out.decode("utf-8", "replace"))
        elif key != first_key:  # reports must be byte-identical across repeats
            differs = f"a repeat gave exit {code}, sha256 {digest[:12]}, escaped {escaped}"
            reasons = [r or differs for r in reasons]
        digests.append(digest)
    tally = Tally()
    tally.add(items, reasons)
    ops = len(latencies)
    slowdowns = _pair_slowdowns(controls, hostspeed.CONTROL_NOMINAL_S)
    metrics, raw, detail = _latency_metrics(
        latencies, slowdowns, sum(latencies), ops * len(items), ops * sum(it.cells for it in items)
    )
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = statistics.median(rss)
    detail["distinct_reports"] = len(set(digests))
    detail["control_samples"] = len(controls)
    return {"tally": tally, "metrics": metrics, "raw": raw, "detail": detail}


def _lib_run(name, inputs, refs, base: str, seconds: float) -> dict:
    res, maxrss = _worker(name, "lib", inputs, base, seconds, trace=False)
    tally = _tally_worker(inputs, refs, res, base)
    items = inputs.items
    count = len(items)
    ops = len(res["latencies"])
    cells = sum(items[k % count].cells for k in range(ops))
    probes = res["probes"]
    # an op runs between the last probe before it and the next one
    windows = _pair_slowdowns(probes + probes[-1:], hostspeed.PROBE_NOMINAL_S)
    slowdowns = [windows[j] for j in res["probe_index"]]
    metrics, raw, detail = _latency_metrics(res["latencies"], slowdowns, res["elapsed_s"], ops, cells)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = maxrss
    detail["worker_import_s"] = res["import_s"]
    detail["probe_median_s"] = statistics.median(probes)
    detail["probe_samples"] = len(probes)
    return {"tally": tally, "metrics": metrics, "raw": raw, "detail": detail}


def _worker(name, kind, inputs, base, seconds, trace) -> tuple[dict, float]:
    outputs = os.path.join(base, "outputs")
    os.makedirs(outputs, exist_ok=True)
    spec = {
        "workload": name,
        "kind": kind,
        "npz": inputs.npz,
        "argv": inputs.argv,
        "outputs": outputs,
        "seconds": seconds,
        # a traced run needs a traced and an untraced pass over the op items
        # every item runs at least once (twice when traced), so every matrix is checked
        "min_ops": max(MIN_OPS, (2 if trace else 1) * (len(inputs.items) if kind == "lib" else 1)),
        "warmup": LIB_WARMUP_OPS if kind == "lib" else 0,
        "trace": trace,
        "out": os.path.join(base, "worker.json"),
        "spans": os.path.join(base, "spans.npz"),
    }
    spec_path = os.path.join(base, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    err = os.path.join(base, "worker.err")
    code, _, maxrss = _spawn([sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path], err)
    if code != 0:
        raise BenchError(f"worker exited with {code}: {_tail(err)}")
    with open(spec["out"], encoding="utf-8") as handle:
        return json.load(handle), maxrss


def _tally_worker(inputs, refs, res: dict, base: str) -> Tally:
    """Check each item's first result; every repeat must match it exactly."""
    tally = Tally()
    items = inputs.items
    for i, sig in enumerate(res["first"]):
        if sig is None:
            continue
        if inputs.npz is not None:
            op_items, reasons = [items[i]], [check_lib_result(sig, items[i], refs[i])]
        elif sig[0] == "raised":
            op_items, reasons = items, [f"escaped {sig[1]}: {sig[2]}"] * len(items)
        else:
            with open(os.path.join(base, "outputs", sig[2] + ".out"), encoding="utf-8") as handle:
                text = handle.read()
            op_items, reasons = items, check_cli_output(inputs, refs, sig[1], text)
        if res["mismatched"][i]:
            differs = f"a repeat gave {res['differing'].get(str(i))}, the first gave {sig}"
            reasons = [r or differs for r in reasons]
        tally.add(op_items, reasons)
    return tally


# --- traced run ------------------------------------------------------------------


def _traced_run(name, spec, inputs, refs, base: str, seconds: float) -> dict:
    """In-process ops with wrappers at each layer boundary, alternating traced
    and untraced passes; per-layer metrics are per traced op."""
    res, _ = _worker(name, spec["kind"], inputs, base, seconds, trace=True)
    tally = _tally_worker(inputs, refs, res, base)
    with np.load(os.path.join(base, "spans.npz")) as data:
        spans = {k: data[k] for k in data.files}
    metrics = layer_metrics(res["span_names"], spans)

    count = len(res["first"])  # op items: one per matrix, or one CLI invocation
    traced, plain = collections.defaultdict(list), collections.defaultdict(list)
    for k, (lat, was_traced) in enumerate(zip(res["latencies"], res["traced"])):
        (traced if was_traced else plain)[k % count].append(lat)
    both = [i for i in traced if i in plain]
    t = sum(statistics.fmean(traced[i]) for i in both)
    u = sum(statistics.fmean(plain[i]) for i in both)
    metrics["trace.overhead_frac"] = (t - u) / u

    ok_ratio = 0.0
    if inputs.argv[:1] == ["batch"]:
        records = tally_ok = 0
        for sig in res["first"]:
            if sig and sig[0] == "exit":
                with open(os.path.join(base, "outputs", sig[2] + ".out"), encoding="utf-8") as h:
                    tally_ok += sum("ia" in json.loads(line) for line in h)
                records += len(inputs.items)
        ok_ratio = tally_ok / records if records else 0.0
    metrics["cli.batch.ok_ratio"] = ok_ratio
    detail = {
        "traced_ops": metrics["trace.ops"],
        "untraced_ops": sum(len(v) for v in plain.values()),
        "identity_residual_s": metrics.pop("trace.identity_residual_s"),
    }
    return {"tally": tally, "metrics": metrics, "detail": detail}


# --- output ------------------------------------------------------------------------


def _print_table(result: dict) -> None:
    declared = _declared()
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    mode = "traced, in-process" if result["trace"] else "closed loop, 1 client"
    print(f"== {result['workload']}  seed {result['seed']}  ({mode})")
    raw = result["host_speed"].get("raw_metrics", {})
    for key, value in result["metrics"].items():
        note = f"  (raw {raw[key]:.6g})" if key in raw and raw[key] != value else ""
        print(f"  {key:<40} {value:<14.6g} {units.get(key, ''):<6}{note}")
    if raw:
        host = result["host_speed"]
        print(
            f"  host ran {host['ops_slowdown']:.3f}x nominal time for ops,"
            f" {host['setup_slowdown']:.3f}x for set-up; figures are scaled to nominal"
        )
    d = result["detail"]
    if "tail_percentile" in d:
        print(f"  latency_tail_s is p{d['tail_percentile']} of {d['samples']} samples")
    print(
        f"  {'error_rate':<40} {result['error_rate']:<14.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} distinct matrices)"
    )
    for kind, n in sorted(result["failing_kinds"].items()):
        note = KNOWN_DEFECTS.get(kind, "UNEXPECTED")
        print(f"  failing kind {kind}: {n}  [{note}]")


def _declared() -> dict:
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
