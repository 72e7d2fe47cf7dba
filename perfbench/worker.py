"""In-process runner: runs one workload's ops against the package in a closed loop.

    python perfbench/worker.py --probe        time `import infoagree` in a fresh interpreter
    python perfbench/worker.py SPEC.json      run the ops the spec describes

Library workloads always run here (one worker process, one op at a time);
CLI workloads run here only in the traced run, as ``infoagree.cli.main(argv)``
with stdout captured. Each op returns a signature: its outputs, or the type
and message of an exception that escaped. The worker compares every repeat
of an item with that item's first signature and reports the first ones;
run.py checks those against the reference.

Nothing outside the stdlib is imported before ``import infoagree`` is timed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import hostspeed


def _import_package():
    t0 = time.perf_counter()
    import infoagree

    return infoagree, time.perf_counter() - t0


def probe() -> None:
    infoagree, import_s = _import_package()
    import numpy

    print(json.dumps({
        "import_s": import_s,
        "backend": infoagree.KERNEL_BACKEND,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }))


def _ia_signature(r) -> list:
    return ["ok", r.value, r.case.value, r.n, r.m, r.l, r.h_x, r.h_y, r.h_xy]


def _raised(exc: Exception) -> list:
    return ["raised", type(exc).__name__, str(exc)]


def lib_ops(spec, api) -> list:
    """One callable per stream item; api maps call names to (maybe traced) callables."""
    import numpy as np

    data = np.load(spec["npz"])
    flat, sizes, strict = data["flat"], data["sizes"], data["strict"]
    arrays, at = [], 0
    for n in sizes.tolist():
        arrays.append(flat[at:at + n * n].reshape(n, n))
        at += n * n
    make, ia_epsilon = api["AgreementMatrix"], api["ia_epsilon"]
    ia_strict, sweep, check = api["ia_strict"], api["sweep"], api["check_convergence"]
    from infoagree.oracle import DEFAULT_EPS_GRID, default_convergence_config

    def bootstrap(arr):
        try:
            return _ia_signature(ia_epsilon(make(arr)))
        except Exception as exc:  # an escaped exception is a result to check, not a crash
            return _raised(exc)

    def verify(arr, positive):
        try:
            matrix = make(arr)
            r = ia_epsilon(matrix)
            if positive:
                return _ia_signature(r) + [ia_strict(matrix)]
            evaluations = sweep(matrix, DEFAULT_EPS_GRID)
            config = default_convergence_config(matrix)
            report = check(evaluations, r.value, config)
            return _ia_signature(r) + [
                report.passed, report.target, evaluations[-1].ia_value, config.final_tol
            ]
        except Exception as exc:
            return _raised(exc)

    if spec["workload"] == "lib_bootstrap":
        return [lambda a=a: bootstrap(a) for a in arrays]
    return [lambda a=a, s=bool(s): verify(a, s) for a, s in zip(arrays, strict.tolist())]


def cli_ops(spec, api) -> list:
    main, argv, out_dir = api["main"], spec["argv"], spec["outputs"]

    def op():
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception as exc:
            return _raised(exc)
        data = out.getvalue().encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        path = os.path.join(out_dir, digest + ".out")
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.write(data)
        return ["exit", code, digest]

    return [op]


def run(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    infoagree, import_s = _import_package()
    from infoagree import cli, measure, oracle
    from infoagree.matrix import AgreementMatrix

    import spans

    plain = {
        "AgreementMatrix": AgreementMatrix,
        "ia_epsilon": measure.ia_epsilon,
        "ia_strict": measure.ia_strict,
        "sweep": oracle.sweep,
        "check_convergence": oracle.check_convergence,
        "main": cli.main,
    }
    build = cli_ops if spec["kind"] == "cli" else lib_ops
    ops = build(spec, plain)
    tracer = traced_ops = None
    if spec["trace"]:
        tracer = spans.Tracer()
        names = {
            "AgreementMatrix": spans.AGREEMENT,
            "ia_epsilon": "measure.ia_epsilon",
            "ia_strict": "measure.ia_strict",
            "sweep": "oracle.sweep",
            "check_convergence": "oracle.check_convergence",
            "main": "cli.main",
        }
        traced_ops = build(spec, {k: tracer.wrap(fn, names[k]) for k, fn in plain.items()})

    for op in ops[: spec["warmup"]]:
        op()
    probe_every = None if spec["trace"] or spec["kind"] == "cli" else hostspeed.PROBE_EVERY_S
    result = closed_loop(
        ops, traced_ops, tracer, spec["seconds"], spec["min_ops"], spans.SITES, probe_every
    )
    result.update(import_s=import_s, backend=infoagree.KERNEL_BACKEND)
    if tracer is not None:
        tracer.save(spec["spans"])
        result["span_names"] = tracer.names
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def closed_loop(
    ops, traced_ops, tracer, seconds: float, min_ops: int, sites=(), probe_every=None
) -> dict:
    """One client: each op starts when the previous one ended. With a tracer,
    whole passes over the items alternate traced and untraced, starting
    traced, so every item has both kinds of samples for the overhead figure.
    With probe_every, the host-speed probe runs between ops that often; its
    time is left out of the timed wall time, and each op records the index
    of the last probe before it."""
    count = len(ops)
    first: list = [None] * count
    repeats = [0] * count
    mismatched = [0] * count
    differing: dict[int, list] = {}  # item -> first repeat that differed
    latencies, traced_flags, probes, probe_index = [], [], [], []
    clock = time.perf_counter
    began = clock()
    deadline = began + seconds
    k = 0
    finished = next_probe = began
    probing = 0.0
    while k < min_ops or finished - probing < deadline:
        if probe_every is not None and finished >= next_probe:
            t0 = clock()
            probes.append(hostspeed.probe())
            next_probe = clock()
            probing += next_probe - t0
            next_probe += probe_every
        i = k % count
        traced = tracer is not None and (k // count) % 2 == 0
        if tracer is not None and i == 0:
            tracer.uninstall()
            if traced:
                tracer.install(sites)
        t0 = clock()
        sig = tracer.run_op(k, traced_ops[i]) if traced else ops[i]()
        finished = clock()
        latencies.append(finished - t0)
        traced_flags.append(traced)
        probe_index.append(len(probes) - 1)
        if first[i] is None:
            first[i] = sig
        elif sig != first[i]:
            mismatched[i] += 1
            differing.setdefault(i, sig)
        repeats[i] += 1
        k += 1
    if tracer is not None:
        tracer.uninstall()
    return {
        "latencies": latencies,
        "traced": traced_flags,
        "elapsed_s": finished - began - probing,
        "probes": probes,
        "probe_index": probe_index,
        "first": first,
        "repeats": repeats,
        "mismatched": mismatched,
        "differing": differing,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    elif len(sys.argv) == 2:
        run(sys.argv[1])
    else:
        sys.exit("usage: worker.py --probe | worker.py SPEC.json")
