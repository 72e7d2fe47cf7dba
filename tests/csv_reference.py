"""An independent field-by-field CSV parser that parse_csv is held to.

It splits the text with str.splitlines(), drops trailing blank lines, and
checks every field in turn, so it states the CSV grammar in the plainest
form. The equivalence tests in test_formats.py require parse_csv to give the
same document as this parser, or the same error with the same row and
column. It shares no code with parse_csv's front end or converters.
"""

from __future__ import annotations

import re

from infoagree.errors import ParseError
from infoagree.formats import CSV_FORMAT, MatrixDocument
from infoagree.matrix import AgreementMatrix

_INTEGER_FIELD = re.compile(r"[+-]?[0-9]+")


def reference_parse_csv(text: str, source_path: str) -> MatrixDocument:
    """Field-by-field parse of CSV text: what parse_csv must give, or raise."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty CSV input")
    rows = [[field.strip() for field in line.split(",")] for line in lines]

    labels: tuple[str, ...] | None = None
    data_rows = rows
    first_data_line = 1
    if any(not _is_integer_field(f) for f in rows[0]):
        labels = tuple(rows[0])
        data_rows = rows[1:]
        first_data_line = 2
    if not data_rows:
        raise ParseError("no matrix rows after the label row")

    width = len(data_rows[0])
    cells: list[list[int]] = []
    for i, row in enumerate(data_rows):
        line_no = first_data_line + i
        if len(row) != width:
            raise ParseError(
                f"expected {width} fields, found {len(row)}", row=line_no
            )
        parsed_row = []
        for j, field in enumerate(row):
            if not _is_integer_field(field):
                raise ParseError(
                    f"not an integer: {field!r}", row=line_no, col=j + 1
                )
            parsed_row.append(int(field))
        cells.append(parsed_row)

    matrix = AgreementMatrix(cells)
    if labels is not None and len(labels) != matrix.n:
        raise ParseError(f"{len(labels)} labels for an n={matrix.n} matrix", row=1)
    return MatrixDocument(
        source_path=source_path,
        format=CSV_FORMAT,
        labels=labels,
        matrix=matrix,
    )


def _is_integer_field(field: str) -> bool:
    """An optional sign and ASCII digits, after stripping surrounding spaces.

    int() alone would also take "1_0" and non-ASCII digits such as "５"; it
    still refuses more digits than sys.get_int_max_str_digits() allows.
    """
    if _INTEGER_FIELD.fullmatch(field.strip()) is None:
        return False
    try:
        int(field)
    except ValueError:
        return False
    return True
