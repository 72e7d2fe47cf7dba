"""Matrix file formats and machine-readable reports.

Input orientation is fixed: row index = rater Y's class, column index =
rater X's class. The agreement value itself is transpose-symmetric, so a
flipped reading would be invisible in the value; the m (non-null rows) and
l (non-null columns) fields in reports exist partly to keep orientation
auditable. Reports are serialized by dump_json alone.
"""

from __future__ import annotations

import io
import math
import re
import sys
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

import numpy as np

from infoagree import _csv_digits
from infoagree import matrix as _matrix
from infoagree.errors import InternalInvariantError, ParseError
from infoagree.matrix import AgreementMatrix

if TYPE_CHECKING:  # build_report's annotations only
    from infoagree.measure import IaResult
    from infoagree.oracle import ConvergenceConfig, ConvergenceReport, EpsilonEvaluation

CSV_FORMAT = "csv"
JSON_FORMAT = "json"

_INTEGER_FIELD = re.compile(r"[+-]?[0-9]+")
# str.splitlines()'s line boundaries but "\r\n" and "\r", which parse_csv made "\n"
_LINE_BREAK = re.compile(r"[\n\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_UTF8_BOM = b"\xef\xbb\xbf"
# a JSON string literal, its escapes included
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
# a CSV body of at least this many characters goes to the blocked digit
# parser (_csv_digits); np.loadtxt's smaller fixed cost wins below about
# 3 KB of counts 0..9, 5.5 KB of counts 0..200 and 10 KB of counts 0..10**6
_VECTOR_MIN_BYTES = 8192

# the C string escaper behind json.dumps(str), taken from json's accelerator
# module so that the verbs that read no JSON do not load json (about 3.5 ms)
try:
    from _json import encode_basestring_ascii as _encode_str
except ImportError:  # an interpreter without the accelerator
    from json.encoder import encode_basestring_ascii as _encode_str


class MatrixDocument(NamedTuple):
    """A parsed matrix plus where it came from and optional class labels.

    A named tuple, as measure.IaResult is: no dataclasses import."""

    source_path: str
    format: str
    labels: tuple[str, ...] | None
    matrix: AgreementMatrix


def parse_csv(text: str, source_path: str = "<string>") -> MatrixDocument:
    """Parse comma-separated nonnegative integer rows.

    Each cell is an optional sign followed by ASCII digits, with whatever
    str.strip() strips allowed around it: spaces, tabs, U+00A0 and every
    other character of str.isspace() that does not break a line. An
    optional first row of class labels is detected by containing any field
    that is not such an integer; it must name exactly n classes. Lines
    break where str.splitlines() breaks them, and trailing blank lines are
    ignored. Separator "," is fixed; no locale handling.

    Line ends are made "\n" here alone. The body after the label row, up to
    its trailing run of spaces, tabs and "\n"
    (``_csv_digits._blank_run_start``), when made only of ASCII digits, ",",
    spaces, tabs and "\n", with no empty line, and forming a square, goes to
    an array converter by its size:
    - from 8 KiB (``_VECTOR_MIN_BYTES`` characters) up, the blocked digit
      parser (``_csv_digits``), which reads the body where it lies in the
      text, in blocks of whole lines of about 128 KiB, and writes their
      cells straight into one uint64 array; it leaves cells of more than
      24 digits to the next converter;
    - below that, np.loadtxt, whose fixed cost is the smaller there.
    Any other body goes through the per-field converter, which reports the
    first error with its row and column. All of them see the same lines, so
    they give the same document.
    """
    text = _universal_newlines(text)
    if not text or text.isspace():
        raise ParseError("empty CSV input")
    brk = _LINE_BREAK.search(text)
    first_line = text if brk is None else text[: brk.start()]
    head = [field.strip() for field in first_line.split(",")]
    labels: tuple[str, ...] | None = None
    start = 0  # where the body begins
    if None in map(_field_count, head):  # not "all": a count of 0 is falsy
        labels = tuple(head)
        start = len(text) if brk is None else brk.end()
    # a large body is converted where it lies in text, and a small one from a
    # slice freed when its converter returns: a body kept here would live on
    # after the conversion and raise the peak RSS
    counts = _square_counts(text, start)
    if counts is None:
        lines = text[start:].rstrip().splitlines()  # trailing blank lines go
        if not lines:
            raise ParseError("no matrix rows after the label row")
        matrix = AgreementMatrix(_csv_cells(lines, 1 if labels is None else 2))
    else:
        # the converter's array is ours alone, so the matrix keeps it uncopied;
        # the class is looked up on its module because a layer tracer may
        # replace this module's AgreementMatrix name with a plain function
        matrix = _matrix.AgreementMatrix._from_owned(counts)
    if labels is not None and len(labels) != matrix.n:
        raise ParseError(f"{len(labels)} labels for an n={matrix.n} matrix", row=1)
    return MatrixDocument(
        source_path=source_path, format=CSV_FORMAT, labels=labels, matrix=matrix
    )


def _square_counts(text: str, start: int) -> np.ndarray | None:
    """The body from start as a square uint64 array from the array converter
    its size picks, when it keeps parse_csv's body contract; else None."""
    if len(text) - start >= _VECTOR_MIN_BYTES:
        return _csv_digits.digit_counts(text, start)
    body = text[start : _csv_digits._blank_run_start(text, start)]
    # np.loadtxt would skip an empty line, which the per-field converter reports;
    # a line of spaces or tabs it rejects by itself
    if not body or body.startswith("\n") or "\n\n" in body:
        return None
    try:
        raw = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, b"0123456789, \t\n"):
        return None
    try:
        counts = np.loadtxt(
            io.BytesIO(raw), delimiter=",", dtype=np.uint64, comments=None, ndmin=2
        )
    except ValueError:  # an empty or spaced-out field, ragged rows, or a cell above 2**64 - 1
        return None
    return counts if counts.shape[0] == counts.shape[1] else None


def _csv_cells(lines: list[str], first_row: int) -> list[list[int]]:
    """The cells of nonempty CSV lines numbered from ``first_row``, or a
    ParseError at the first short row or bad field."""
    rows = [[field.strip() for field in line.split(",")] for line in lines]
    width = len(rows[0])
    cells = [list(map(_field_count, row)) for row in rows]
    for row_no, (row, counts) in enumerate(zip(rows, cells), first_row):
        if len(row) != width:
            raise ParseError(f"expected {width} fields, found {len(row)}", row=row_no)
        if None in counts:
            col = counts.index(None)
            raise ParseError(f"not an integer: {row[col]!r}", row=row_no, col=col + 1)
    return cells


def parse_json(text: str, source_path: str = "<string>") -> MatrixDocument:
    """Parse {"labels": [...]?, "matrix": [[...], ...]}.

    Cells must be JSON integers; labels, when present, must be strings and
    match the matrix dimension.

    A matrix that NumPy turns into one square integer array skips the
    per-cell checks; anything else goes through them, which report the first
    bad cell with its row and column.
    """
    import json  # loaded by the first JSON document alone; see _encode_str

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ParseError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    if "matrix" not in obj:
        raise ParseError('missing required "matrix" key')
    rows = obj["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError('"matrix" must be an array of arrays')
    if not rows:
        raise ParseError('"matrix" is empty')
    # np.array makes true and false 1 and 0, so text holding either outside its
    # string literals goes cell by cell; labels such as "true_pos" do not count
    bare = _JSON_STRING.sub("", text) if "true" in text or "false" in text else ""
    counts = None if "true" in bare or "false" in bare else _square_int_array(rows)
    if counts is None:
        _check_json_cells(rows)

    labels: tuple[str, ...] | None = None
    if obj.get("labels") is not None:
        raw = obj["labels"]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise ParseError('"labels" must be an array of strings')
        if len(raw) != len(rows):
            raise ParseError(
                f'{len(raw)} labels for a {len(rows)}-row matrix'
            )
        labels = tuple(raw)

    return MatrixDocument(
        source_path=source_path,
        format=JSON_FORMAT,
        labels=labels,
        matrix=AgreementMatrix(rows if counts is None else counts),
    )


def _square_int_array(rows: list) -> np.ndarray | None:
    """rows as one square int64 or uint64 array, else None.

    Integer cells give int64, or uint64 when every cell is at least 2**63.
    A float cell, a cell of 2**63 or more beside a smaller one, or a cell
    outside both ranges gives float64 or object, which is never cast: such
    rows give None, as ragged rows do.
    """
    try:
        arr = np.array(rows)
    except ValueError:  # ragged, or nested deeper than NumPy's 64 dimensions
        return None
    if arr.dtype.kind not in "iu" or arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return None
    return arr


def _check_json_cells(rows: list) -> None:
    """Raise a ParseError at the first short row or non-integer cell."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"expected {width} values, found {len(row)}", row=i + 1)
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, int):
                raise ParseError(
                    f"cell is not an integer: {cell!r}", row=i + 1, col=j + 1
                )


def load_document(path: str, format: str | None = None) -> MatrixDocument:
    """Read a matrix file, picking the parser by --format or file extension."""
    if format is None:
        lower = path.lower()
        if lower.endswith(".csv"):
            format = CSV_FORMAT
        elif lower.endswith(".json"):
            format = JSON_FORMAT
        else:
            raise ParseError(
                f"cannot infer format of {path!r}; pass --format csv|json"
            )
    if format not in (CSV_FORMAT, JSON_FORMAT):
        raise ParseError(f"unknown format {format!r}")
    with open(path, "rb", buffering=0) as handle:  # unbuffered: one read of the whole file
        data = handle.read()
    # one leading byte order mark, as Excel's "CSV UTF-8" writes, is not text
    skip = len(_UTF8_BOM) if data.startswith(_UTF8_BOM) else 0
    try:
        text = str(memoryview(data)[skip:], "utf-8") if skip else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {skip + exc.start} ({exc.reason})") from None
    del data  # the file's bytes need not outlive the parse's own copies
    if format == CSV_FORMAT:
        return parse_csv(text, source_path=path)  # which makes its line ends "\n"
    # JSON error positions count lines as text mode reads them
    return parse_json(_universal_newlines(text), source_path=path)


def _universal_newlines(text: str) -> str:
    """text with "\r\n" and lone "\r" line ends made "\n", as text mode reads it."""
    if "\r" in text:  # the test spares "\n"-only text two replace scans
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _field_count(field: str) -> int | None:
    """The int a stripped CSV field spells as an optional sign and ASCII
    digits, or None when it spells none.

    int() alone would also take "1_0" and non-ASCII digits such as "５"; it
    still refuses more digits than sys.get_int_max_str_digits() allows.
    """
    if _INTEGER_FIELD.fullmatch(field) is None:
        return None
    try:
        return int(field)
    except ValueError:
        return None


# --- reports ----------------------------------------------------------------


def build_report(
    doc: MatrixDocument,
    result: IaResult,
    version: str,
    sweep: tuple[Sequence[EpsilonEvaluation], ConvergenceReport, ConvergenceConfig] | None = None,
) -> dict[str, Any]:
    """Assemble the report emitted by the CLI.

    ``sweep``, for the sweep verb, is (evaluations, verdict, config): the
    sweep's rows, the convergence report on them and the configuration it
    was judged by.

    The input descriptor deliberately omits the source format so that CSV
    and JSON encodings of the same matrix yield identical reports up to
    source_path.
    """
    report: dict[str, Any] = {
        "input": {
            "path": doc.source_path,
            "n": doc.matrix.n,
            "labels": list(doc.labels) if doc.labels is not None else None,
        },
        "ia": {
            "value": result.value,
            "case": result.case.value,
            "n": result.n,
            "m": result.m,
            "l": result.l,
            "h_x": result.h_x,
            "h_y": result.h_y,
            "h_xy": result.h_xy,
        },
    }
    if sweep is not None:
        evaluations, verdict, config = sweep
        report["sweep"] = [
            {"epsilon": ev.epsilon, "ia_value": ev.ia_value, "gap": gap,
             "h_x": ev.h_x, "h_y": ev.h_y, "h_xy": ev.h_xy}
            for ev, gap in zip(evaluations, verdict.gaps)
        ]
        report["convergence"] = {
            "target": verdict.target,
            "final_tol": config.final_tol,
            "require_shrinking_tail": config.require_shrinking_tail,
            "tail_shrinking": verdict.tail_shrinking,
            "within_final_tol": verdict.within_final_tol,
            "passed": verdict.passed,
        }
    report["version"] = version
    return report


def error_record(path: str, exc: Exception) -> dict[str, Any]:
    """Inline error entry for batch output."""
    return {
        "input": {"path": path},
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def dump_json(value: Any, indent: int | None = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The standard encoder emits shortest-round-trip floats; reports pin the
    17-digit form instead, which round-trips every double, so the bytes are
    stable and documented. The CLI's --plain value is this form too. Keys keep
    insertion order. ``indent=None`` gives the compact one-line form used
    for batch output.
    """
    pieces: list[str] = []
    _emit(value, pieces, indent, 0)
    return "".join(pieces)


def _emit(value: Any, out: list[str], indent: int | None, level: int) -> None:
    # exact str, dict and list first: an isinstance test against the Mapping
    # ABC costs microseconds, and reports hold little else
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
        return
    if kind is dict:
        keyed = True
    elif kind is list:
        keyed = False
    elif value is None:
        out.append("null")
        return
    elif kind is bool:
        out.append("true" if value else "false")
        return
    elif isinstance(value, int):
        out.append(str(value))
        return
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise InternalInvariantError(f"non-finite number in report: {value!r}")
        out.append(format(value, ".17g"))
        return
    elif isinstance(value, str):
        out.append(_encode_str(value))
        return
    elif isinstance(value, Mapping):
        keyed = True
    elif isinstance(value, (list, tuple)):
        keyed = False
    else:
        raise InternalInvariantError(f"unserializable report value: {value!r}")

    if not value:
        out.append("{}" if keyed else "[]")
        return
    close = "}" if keyed else "]"
    if indent is None:
        sep = ", "
        out.append("{" if keyed else "[")
    else:
        pad = "\n" + " " * (indent * (level + 1))
        sep = "," + pad
        close = "\n" + " " * (indent * level) + close
        out.append(("{" if keyed else "[") + pad)
    if keyed:
        for key, item in value.items():
            out.append(_encode_str(str(key)) + ": ")
            _emit(item, out, indent, level + 1)
            out.append(sep)
    else:
        for item in value:
            _emit(item, out, indent, level + 1)
            out.append(sep)
    out[-1] = close  # the separator after the last item
