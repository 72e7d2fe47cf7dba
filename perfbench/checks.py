"""Output checks: what the program said against the reference.

Every check returns None when the output is right and a short reason when it
is not. A wrong value, a wrong case, wrong m/l/n or entropies, a wrong or
missing error record, an unexpected exit code and an escaped exception all
count as a failure of the matrix concerned.
"""

from __future__ import annotations

import json

from reference import Expected, close

# Input kinds that fail at the seed commit for reasons ROADMAP already names.
# They stay in the inputs and count in `failed`; any failure of another kind
# makes the run incorrect.
KNOWN_DEFECTS = {
    "skewed": "ROADMAP item 2: cancellation on skewed counts (ZeroDivisionError, wrong value)",
    "malformed:csv_label_row_wrong_length": "ROADMAP item 4: label row length is not checked",
    "malformed:csv_underscore_digits": "ROADMAP item 4: int() accepts 1_0",
    "malformed:csv_non_ascii_digits": "ROADMAP item 4: int() accepts non-ASCII digits",
}


def check_ia(got, exp: Expected) -> str | None:
    """got: the report's "ia" object (dict) from the CLI, or the same fields from a worker."""
    if got.get("case") not in exp.cases():
        return f"case {got.get('case')!r}, want {exp.case!r}"
    for key in ("n", "m", "l"):
        if got.get(key) != getattr(exp, key):
            return f"{key} {got.get(key)!r}, want {getattr(exp, key)!r}"
    for key in ("value", "h_x", "h_y", "h_xy"):
        v = got.get(key)
        # reports print floats with %.17g, so an exact 0 or 1 reads back as an int
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not close(v, getattr(exp, key)):
            return f"{key} {v!r}, want {getattr(exp, key)!r}"
    return None


def check_report(record: dict, item, exp: Expected) -> str | None:
    """One compute report or one batch line for a well-formed matrix file."""
    if "ia" not in record:
        return f"error record {record.get('error')!r} for a valid matrix"
    given = record.get("input", {})
    if given.get("path") != item.path:
        return f"path {given.get('path')!r}"
    if given.get("n") != exp.n:
        return f"input.n {given.get('n')!r}"
    if given.get("labels") != item.labels:
        return "labels differ"
    if not isinstance(record.get("version"), str):
        return "no version"
    return check_ia(record["ia"], exp)


def check_error_record(record: dict, item) -> str | None:
    """One batch line for a malformed file: an error record of the expected type."""
    if "error" not in record:
        return f"accepted (value {record.get('ia', {}).get('value')!r}), want {item.error}"
    if record.get("input", {}).get("path") != item.path:
        return "error record path differs"
    if record["error"].get("type") != item.error:
        return f"error type {record['error'].get('type')!r}, want {item.error!r}"
    return None


def check_cli_output(inputs, refs, exit_code, stdout: str) -> list[str | None]:
    """Per item: None or the reason it failed, for one compute or batch process."""
    items = inputs.items
    if exit_code != inputs.expected_exit:
        return [f"exit code {exit_code}, want {inputs.expected_exit}"] * len(items)
    if inputs.argv[0] == "compute":
        try:
            record = json.loads(stdout)
        except ValueError:
            return ["report is not JSON"]
        return [check_report(record, items[0], refs[0])]
    return _check_batch(items, refs, stdout)


def _check_batch(items, refs, stdout: str) -> list[str | None]:
    by_path = {}
    order = []
    for line in stdout.splitlines():
        try:
            record = json.loads(line)
            path = record["input"]["path"]
        except (ValueError, KeyError, TypeError):
            continue
        by_path[path] = record
        order.append(path)
    reasons = []
    for item, exp in zip(items, refs):
        record = by_path.get(item.path)
        if record is None:
            reasons.append("missing record")
        elif item.error is not None:
            reasons.append(check_error_record(record, item))
        else:
            reasons.append(check_report(record, item, exp))
    if order != sorted(it.path for it in items):
        reasons = [r or "records out of order" for r in reasons]
    return reasons


def check_lib_result(sig: list, item, exp: Expected) -> str | None:
    """One library op: ["ok", ia fields..., extra...] or ["raised", type, message]."""
    if sig[0] == "raised":
        return f"raised {sig[1]}: {sig[2]}"
    _, value, case, n, m, l, h_x, h_y, h_xy, *extra = sig
    got = dict(value=value, case=case, n=n, m=m, l=l, h_x=h_x, h_y=h_y, h_xy=h_xy)
    reason = check_ia(got, exp)
    if reason or item.mode == "epsilon":
        return reason
    if item.mode == "strict":
        (strict,) = extra
        return None if close(strict, exp.value) else f"ia_strict {strict!r}, want {exp.value!r}"
    passed, target, last, final_tol = extra
    if not passed:
        return "convergence verdict failed"
    if target != value:
        return f"verdict target {target!r} is not the closed-form value {value!r}"
    if abs(last - exp.value) > final_tol:
        return f"sweep ends at {last!r}, more than {final_tol} from {exp.value!r}"
    return None
