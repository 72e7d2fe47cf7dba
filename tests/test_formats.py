import json
import os
import sys
import tempfile
import tracemalloc
import warnings
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csv_reference import reference_parse_csv
from infoagree import __version__, _csv_digits, formats
from infoagree.errors import (
    AllZeroError,
    InfoAgreeError,
    InternalInvariantError,
    NegativeCellError,
    NotSquareError,
    ParseError,
)
from infoagree.formats import (
    MatrixDocument,
    build_report,
    dump_json,
    error_record,
    load_document,
    parse_csv,
    parse_json,
)
from infoagree.matrix import U64_MAX, AgreementMatrix
from infoagree.measure import ia_epsilon
from infoagree.oracle import ConvergenceConfig, check_convergence, sweep


class TestParseCsv:
    def test_plain_matrix(self):
        doc = parse_csv("1,2\n3,4")
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])
        assert doc.labels is None
        assert doc.format == "csv"

    def test_strict_path_keeps_the_parsed_array(self, monkeypatch):
        # a small body goes through np.loadtxt, a large one through the digit parser
        for owner, converter, n in [(np, "loadtxt", 2), (_csv_digits, "digit_counts", 300)]:
            parsed = []
            real_converter = getattr(owner, converter)

            def recording_converter(*args, real_converter=real_converter, parsed=parsed, **kwargs):
                parsed.append(real_converter(*args, **kwargs))
                return parsed[-1]

            counts = np.arange(1, n * n + 1).reshape(n, n)
            text = ",".join(f"c{j}" for j in range(n)) + "\n"
            text += "".join(",".join(map(str, row)) + "\n" for row in counts.tolist())
            with monkeypatch.context() as patch:
                patch.setattr(owner, converter, recording_converter)
                doc = parse_csv(text)
            assert len(parsed) == 1
            assert doc.matrix.counts is parsed[0]
            assert not doc.matrix.counts.flags.writeable
            assert (doc.matrix.total, doc.matrix.max_cell) == (n * n * (n * n + 1) // 2, n * n)

    def test_label_row(self):
        doc = parse_csv("a,b\n1,2\n3,4")
        assert doc.labels == ("a", "b")
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])

    def test_short_row_position(self):
        with pytest.raises(ParseError) as exc:
            parse_csv("1,2\n3")
        assert exc.value.row == 2

    def test_bad_field_position(self):
        with pytest.raises(ParseError) as exc:
            parse_csv("1,2\n3,x4")
        assert (exc.value.row, exc.value.col) == (2, 2)

    def test_label_row_offsets_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_csv("a,b\n1,2\n3")
        assert exc.value.row == 3

    def test_whitespace_and_trailing_newline(self):
        doc = parse_csv(" 1 , 2\n3,4\n\n")
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text", ["\t5,1\n2,\t5\t\n", "\xa05,1\n2,5\xa0\n"], ids=["tab", "no-break-space"]
    )
    def test_what_str_strip_strips_is_allowed_around_a_cell(self, text):
        assert parse_csv(text).matrix == AgreementMatrix([[5, 1], [2, 5]])

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_csv("")
        with pytest.raises(ParseError):
            parse_csv("a,b\n")

    def test_matrix_errors_propagate(self):
        with pytest.raises(AllZeroError):
            parse_csv("0,0\n0,0")
        with pytest.raises(NegativeCellError):
            parse_csv("1,-2\n3,4")
        with pytest.raises(NotSquareError):
            parse_csv("1,2,3\n4,5,6")

    @pytest.mark.parametrize("labels", ["a,b,c", "a"])
    def test_label_row_must_name_n_classes(self, labels):
        with pytest.raises(ParseError) as exc:
            parse_csv(labels + "\n1,2\n3,4\n")
        assert exc.value.row == 1

    def test_underscore_digits_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_csv("1,2\n1_0,4")
        assert (exc.value.row, exc.value.col) == (2, 1)

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_csv("1,2\n3,\uff15")  # FULLWIDTH DIGIT FIVE
        assert (exc.value.row, exc.value.col) == (2, 2)

    def test_a_field_of_more_digits_than_int_reads_is_a_label(self):
        label = "9" * (sys.get_int_max_str_digits() + 1)
        doc = parse_csv(f"{label},b\n1,2\n3,4\n")
        assert doc.labels == (label, "b")

    def test_large_labelled_csv_takes_the_array_path(self, monkeypatch):
        _check_array_path(monkeypatch, "\n")

    def test_large_labelled_crlf_csv_takes_the_array_path(self, monkeypatch):
        _check_array_path(monkeypatch, "\r\n")

    def test_large_labelled_cr_csv_takes_the_array_path(self, monkeypatch):
        _check_array_path(monkeypatch, "\r")

    @pytest.mark.parametrize("label_eol", ["\v", "\x1c", "\u2028"])
    def test_label_row_ended_by_another_line_break_takes_the_array_path(
        self, monkeypatch, label_eol
    ):
        _check_array_path(monkeypatch, "\n", label_eol)

    @pytest.mark.parametrize("sep", [", ", " , ", "\t,", " \t, \t"])
    def test_blanks_around_cells_take_the_array_path(self, monkeypatch, sep):
        _check_array_path(monkeypatch, "\n", sep=sep)

    @pytest.mark.parametrize("tail", ["\n", " ", "\t\n", "\n \n", " \n\t\n\n"])
    def test_trailing_blank_lines_take_the_array_path(self, monkeypatch, tail):
        _check_array_path(monkeypatch, "\n", tail=tail)

    @pytest.mark.parametrize("text", ["1,2\n3,4\n \n\t\n", "a,b\n1,2\n3,4 \t\n \n"])
    def test_small_body_before_lines_of_blanks_takes_np_loadtxt(self, monkeypatch, text):
        # the body ends where its trailing blank run starts, so np.loadtxt
        # never sees the lines of blanks, which it would reject
        def refuse(*args, **kwargs):
            raise AssertionError("a small well-formed CSV left np.loadtxt")

        converted = []
        real_loadtxt = np.loadtxt

        def recording_loadtxt(*args, **kwargs):
            converted.append(real_loadtxt(*args, **kwargs))
            return converted[-1]

        monkeypatch.setattr(formats, "_csv_cells", refuse)
        monkeypatch.setattr(formats.np, "loadtxt", recording_loadtxt)
        doc = parse_csv(text)
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])
        assert len(converted) == 1 and converted[0].tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("label", ["\u00e9t\u00e9", "\u985e", "\U0001f600"])
    def test_non_ascii_labels_take_the_array_path(self, monkeypatch, label):
        # the parser reads the body where it lies in the text, and checks only
        # the body for ASCII: labels of 1-, 2- and 4-byte characters
        _check_array_path(monkeypatch, "\n", label=label)

    def test_large_body_peaks_below_the_result_and_two_texts(self):
        """A labelled n = 1600 CSV of counts 0..9 parses holding no more than
        its (n, n) uint64 result and two copies of the text at a time. The
        np.loadtxt route, which kept the whole body as bytes beside its str
        slice, peaked 2.4 MiB above that bound."""
        n = 1600
        counts = np.random.default_rng(0).integers(0, 10, size=(n, n))
        row_bytes = np.full((n, 2 * n), ord(","), np.uint8)
        row_bytes[:, ::2] = counts + ord("0")
        row_bytes[:, -1] = ord("\n")
        text = ",".join(f"c{j}" for j in range(n)) + "\n" + row_bytes.tobytes().decode("ascii")
        tracemalloc.start()
        try:
            doc = parse_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(doc.matrix.counts, counts)
        assert peak <= counts.size * 8 + 2 * len(text)

    def test_large_body_is_converted_where_it_lies(self):
        """The same CSV with a 4-byte character in each label parses holding
        its result and less than one more copy of the text: the digit parser
        reads the body in place, block by block, and the matrix validates
        the result without a copy. A slice of the body, which parse_csv
        passed before, is one more copy of the digits and breaks the bound."""
        n = 1600
        counts = np.random.default_rng(1).integers(0, 10, size=(n, n))
        row_bytes = np.full((n, 2 * n), ord(","), np.uint8)
        row_bytes[:, ::2] = counts + ord("0")
        row_bytes[:, -1] = ord("\n")
        labels = ",".join(f"\U0001f600{j}" for j in range(n))
        text = labels + "\n" + row_bytes.tobytes().decode("ascii")
        tracemalloc.start()
        try:
            doc = parse_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(doc.matrix.counts, counts)
        assert peak <= counts.size * 8 + len(text)


def _check_array_path(monkeypatch, eol, label_eol=None, sep=",", tail="", label="c"):
    """A labelled 300x300 CSV with the given line ends (``label_eol`` after
    the label row), cell separator, text after the last line end and
    ``label`` before each label's number parses in the blocked digit parser
    alone: neither np.loadtxt nor the per-field converter runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a large well-formed CSV left the blocked digit parser")

    converted = []
    real_digit_counts = _csv_digits.digit_counts

    def recording_digit_counts(*args):
        converted.append(real_digit_counts(*args))
        return converted[-1]

    monkeypatch.setattr(formats, "_csv_cells", refuse)
    monkeypatch.setattr(formats.np, "loadtxt", refuse)
    monkeypatch.setattr(_csv_digits, "digit_counts", recording_digit_counts)
    n = 300
    counts = np.random.default_rng(0).integers(0, 10, size=(n, n))
    text = ",".join(f"{label}{j}" for j in range(n)) + (label_eol or eol)
    text += "".join(sep.join(map(str, row)) + eol for row in counts.tolist()) + tail
    doc = parse_csv(text)
    assert doc.labels == tuple(f"{label}{j}" for j in range(n))
    assert np.array_equal(doc.matrix.counts, counts)
    assert len(converted) == 1 and doc.matrix.counts is converted[0]


def _outcome(parse, text):
    """What a CSV parser makes of text: the document's fields, or the error's.

    A warning, or an exception that is not an InfoAgreeError, fails the test.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = parse(text, "m.csv")
    except InfoAgreeError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    counts = doc.matrix.counts
    return doc.source_path, doc.format, doc.labels, counts.dtype, counts.tolist()


# pieces spliced into generated texts to break the strict grammar
_NOISE = [
    ",", "\n", "\n\n", "\r\n", "\r", " ", "\t", "-", "+", "_", "0", "\uff15", "x", "\u2028",
    "\v", "\f", "\x1c", "\x1f", "\x85",
]


@st.composite
def csv_texts(draw):
    n = draw(st.integers(2, 5))
    width = draw(st.sampled_from([n] * 6 + [n + 1, max(n - 1, 1)]))
    cells = st.integers(0, 20) | st.integers(0, 2**40)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        rows[-1][-1] = draw(st.sampled_from([10**19 - 1, 10**19, U64_MAX, U64_MAX + 1, 10**25]))
    pad = st.sampled_from(["", "", "", " ", "\t", "  ", " \t"])
    lines = [
        ",".join(draw(pad) + draw(st.sampled_from(["", "", "", "0"])) + str(v) + draw(pad) for v in row)
        for row in rows
    ]
    n_labels = draw(st.sampled_from([None] * 3 + [width] * 3 + [width + 1, width - 1]))
    if n_labels is not None:
        lines.insert(0, ",".join(f"c{j}" for j in range(n_labels)))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\v"]))
    tail = ["", eol, eol * 2, eol + " " + eol, " ", "\t" + eol, eol + "\t", eol * 2 + " \t" + eol * 3]
    text = eol.join(lines) + draw(st.sampled_from(tail))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


class TestCsvFastPathEquivalence:
    """parse_csv must give what the reference parser gives, or fail the same way.

    Here the size rule is as set, so these small texts go through
    np.loadtxt; TestCsvDigitParserEquivalence runs every case through the
    blocked digit parser.
    """

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("c0\n\n2", id="blank-line-after-labels"),
            pytest.param("1,2\n\n3,4", id="interior-blank-line"),
            pytest.param("1,2,\n3,4,", id="trailing-commas"),
            pytest.param("1,2\n3,4,", id="trailing-comma-at-end"),
            pytest.param(f"{U64_MAX},1\n1,0", id="cell-2**64-1"),
            pytest.param(f"{U64_MAX + 1},1\n1,0", id="cell-2**64"),
            pytest.param("\n".join([",".join(["1"] * 11)] * 10), id="10x11"),
            pytest.param(" 1 , 2\n3,4", id="spaces"),
            pytest.param("1,2\r\n3,4\r\n", id="crlf"),
            pytest.param("a,b\r\n1,2\r\n3,4", id="crlf-after-labels"),
            pytest.param("a\vb,c\n1,2\n3,4", id="line-break-inside-label-row"),
            pytest.param("a,b\n", id="labels-only"),
            pytest.param("\f5,1\n1,1", id="form-feed-before-first-cell"),
            pytest.param("1" + "0" * 5000 + ",1\n1,1", id="5001-digit-cell"),
            pytest.param("c0,c1\n\n1,2\n3,4", id="blank-line-before-a-square-body"),
            pytest.param("1,2\r3,4\r", id="lone-cr"),
            pytest.param("a,b\r\r\n1,2\r\n3,4", id="cr-then-crlf-after-labels"),
            pytest.param("a,b\v1,2\n3,4", id="label-row-ended-by-vt"),
            pytest.param("a,b\x1c1,2\x1e3,4", id="label-row-ended-by-fs"),
            pytest.param("a,b\u20281,2\n3,4\n\x85 \n", id="unicode-line-breaks"),
            pytest.param("1,2\n3,4\x1f", id="trailing-unit-separator"),
            pytest.param("1,2\n3,4 \t\n \f", id="trailing-blank-lines"),
            pytest.param("\n1,2\n3,4", id="leading-blank-line"),
            pytest.param(" \t\n\v ", id="only-whitespace"),
            pytest.param("a,b", id="labels-without-a-line-end"),
            pytest.param("3,x\n1,2", id="bad-field-in-first-row"),
            pytest.param("1 ,\t2\n\t3, 4 ", id="spaces-and-tabs-around-cells"),
            pytest.param("a,b\n1, 2\n3, 4\n\n", id="two-newlines-at-the-end"),
            pytest.param("1,2\n3,4 ", id="trailing-space"),
            pytest.param("1,2\n3,4\n \n\t\n", id="trailing-lines-of-blanks"),
            pytest.param("1,2\n \n3,4", id="interior-line-of-spaces"),
            pytest.param("1,2\n\t\n3,4\n", id="interior-line-of-a-tab"),
            pytest.param(" \n1,2\n3,4", id="leading-line-of-spaces"),
            pytest.param("1, ,2\n3,4,5\n6,7,8", id="field-of-spaces"),
            pytest.param("1 2,3\n4,5", id="space-inside-a-cell"),
            pytest.param(f" {U64_MAX}\t,1\n1,0", id="spaced-cell-2**64-1"),
            pytest.param(f"{U64_MAX + 1} ,1\n1,0", id="spaced-cell-2**64"),
            pytest.param("5\n \n", id="one-cell-then-a-line-of-spaces"),
            pytest.param(f"{10**19 - 1},1\n1,0", id="19-digit-cell"),
            pytest.param(f"{10**19},1\n1,0", id="cell-10**19"),
            pytest.param(f"{2 * 10**19},0\n0,0", id="20-digit-cell-above-2**64-1"),
            pytest.param(f"{U64_MAX},0\n0,0", id="cell-2**64-1-alone"),
            pytest.param(f"0,0\n0,{U64_MAX + 1}", id="last-cell-2**64"),
            pytest.param(f"{10**20},0\n0,0", id="21-digit-cell"),
            pytest.param(f"000{U64_MAX},0\n0,0", id="cell-2**64-1-after-leading-zeros"),
            pytest.param(f"{'0' * 19}1,0\n0,0", id="20-digit-cell-of-leading-zeros"),
            pytest.param("99999999,100000000\n10000000000000000,1", id="8-9-and-17-digit-cells"),
            pytest.param(f"{'0' * 5}{U64_MAX},0\n0,0", id="25-digit-cell-of-leading-zeros"),
            pytest.param("a,b\n10,\n3,4", id="empty-field-in-a-square"),
            pytest.param("a,b\n1 2, \n3,4", id="two-runs-then-a-blank-field"),
            pytest.param("a,b\n ,1 2\n3,4", id="a-blank-field-then-two-runs"),
            pytest.param("1,2,3\n4,5\n6,7,8,9", id="ragged-rows-of-a-square-total"),
            pytest.param("1,2\n3\n4", id="two-short-rows-for-one"),
            pytest.param("1,2\n3x4", id="letter-between-digits"),
        ],
    )
    def test_pinned_cases(self, text):
        assert _outcome(parse_csv, text) == _outcome(reference_parse_csv, text)

    @pytest.mark.parametrize(
        "body, rows",
        [
            pytest.param("1,2\n3,4", [[1, 2], [3, 4]], id="plain"),
            pytest.param(" 1 ,\t2\n3 , 4 \n \n\t\n", [[1, 2], [3, 4]], id="blanks"),
            pytest.param(f"{U64_MAX},0\n0,0\n", [[U64_MAX, 0], [0, 0]], id="cell-2**64-1"),
            pytest.param(
                f"0{U64_MAX - 10**19},7\n{10**19 - 1},{10**19}",
                [[U64_MAX - 10**19, 7], [10**19 - 1, 10**19]],
                id="19-and-20-digit-cells",
            ),
        ],
    )
    def test_digit_parser_takes_well_formed_bodies(self, body, rows):
        counts = _csv_digits.digit_counts(body)
        assert counts.dtype == np.uint64 and counts.tolist() == rows

    @pytest.mark.parametrize(
        "head, body, rows",
        [
            pytest.param("", "1,2\n3,4", [[1, 2], [3, 4]], id="no-head"),
            pytest.param("x,y\n", "1,2\n3,4\n", [[1, 2], [3, 4]], id="ascii-head"),
            pytest.param("\u00e9,\U0001f600\n", " 1 ,2\n3,\t4\n", [[1, 2], [3, 4]], id="non-ascii-head"),
            pytest.param("\u985e,b\n", "1,2\n3,4" + " \n\t" * 300, [[1, 2], [3, 4]], id="long-blank-tail"),
            pytest.param("a,b\n", "1,2\n3,4" + "\n" * 64, [[1, 2], [3, 4]], id="tail-of-one-slice"),
            pytest.param("a,b\n", "1,2\n3,4" + "\n" * 65, [[1, 2], [3, 4]], id="tail-over-one-slice"),
            pytest.param("a,b\n", "1,2\n3,\u0664", None, id="non-ascii-digit"),
            pytest.param("a,b\n", "1,2\n3,4\u2028", None, id="non-ascii-line-break"),
            pytest.param("a,b\n", " \n\t" * 40, None, id="blank-body"),
            pytest.param("a,b\n", "", None, id="empty-body"),
            pytest.param("a,b\n", "1,2\n3,4\n5,6", None, id="not-square"),
        ],
    )
    def test_digit_parser_reads_the_body_after_start(self, head, body, rows):
        # from an offset into the text as from the body alone; the text
        # before the offset is never read
        for text, start in [(head + body, len(head)), (body, 0)]:
            counts = _csv_digits.digit_counts(text, start)
            assert (None if counts is None else counts.tolist()) == rows

    @given(csv_texts())
    def test_generated_texts(self, text):
        assert _outcome(parse_csv, text) == _outcome(reference_parse_csv, text)

    @given(
        st.text(
            alphabet="0123456789,\n\r -_a\uff15\v\f\x1c\x1f\x85\u2028\t", max_size=40
        )
    )
    def test_arbitrary_texts(self, text):
        assert _outcome(parse_csv, text) == _outcome(reference_parse_csv, text)


class TestCsvDigitParserEquivalence(TestCsvFastPathEquivalence):
    """The same cases with every body sent to the blocked digit parser: as
    one block, and in blocks of one line each, so that each block edge is
    tried."""

    @pytest.fixture(autouse=True, scope="class", params=["one-block", "line-blocks"])
    def route(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_VECTOR_MIN_BYTES", 0)
            if request.param == "line-blocks":
                patch.setattr(_csv_digits, "_BLOCK_BYTES", 1)
            yield


class TestParseJson:
    def test_plain_matrix(self):
        doc = parse_json('{"matrix": [[5,0],[0,5]]}')
        assert doc.matrix == AgreementMatrix([[5, 0], [0, 5]])
        assert doc.labels is None
        assert doc.format == "json"

    def test_labels(self):
        doc = parse_json('{"labels":["pos","neg"],"matrix":[[2,1],[0,1]]}')
        assert doc.labels == ("pos", "neg")
        assert doc.matrix == AgreementMatrix([[2, 1], [0, 1]])

    def test_ragged_matrix(self):
        with pytest.raises(ParseError) as exc:
            parse_json('{"matrix": [[1,2],[3]]}')
        assert exc.value.row == 2

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            "{}",
            '{"matrix": "nope"}',
            '{"matrix": []}',
            '{"matrix": [[1,2],[3,4.5]]}',
            '{"matrix": [[1,2],[3,true]]}',
            '{"labels":"ab","matrix":[[1,2],[3,4]]}',
            '{"labels":["a"],"matrix":[[1,2],[3,4]]}',
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse_json(text)

    def test_matrix_errors_propagate(self):
        with pytest.raises(NegativeCellError):
            parse_json('{"matrix": [[1,-2],[3,4]]}')

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ParseError) as exc:
            parse_json('{"matrix": [[1' + "0" * (digits - 1) + ", 1], [1, 1]]}")
        assert str(exc.value) == (
            f"invalid JSON: an integer has more than {digits - 1} digits"
        )

    def test_deep_nesting_is_a_parse_error(self):
        depth = 10**5
        with pytest.raises(ParseError) as exc:
            parse_json('{"matrix": ' + "[" * depth + "]" * depth + "}")
        assert str(exc.value) == "invalid JSON: arrays or objects nested too deeply"

    @pytest.mark.parametrize("names", [("c",), ("true_pos", "false_neg", 'tr\\"ue')])
    def test_large_labelled_json_takes_the_array_path(self, monkeypatch, names):
        def refuse(rows):
            raise AssertionError("well-formed JSON fell back to the per-cell checks")

        monkeypatch.setattr(formats, "_check_json_cells", refuse)
        n = 300
        counts = np.random.default_rng(0).integers(0, 10, size=(n, n))
        labels = [f"{names[j % len(names)]}{j}" for j in range(n)]
        doc = parse_json(json.dumps({"labels": labels, "matrix": counts.tolist()}))
        assert doc.labels == tuple(labels)
        assert np.array_equal(doc.matrix.counts, counts)
        assert doc.matrix.counts.dtype == np.uint64


def _parse_json_per_cell(text, source_path):
    """parse_json with the array attempt switched off: the per-cell reference."""
    with mock.patch.object(formats, "_square_int_array", lambda rows: None):
        return parse_json(text, source_path)


_JSON_CELLS = (
    st.integers(0, 20)
    | st.integers(-3, 2**40)
    | st.sampled_from([2**63 - 1, 2**63, U64_MAX, U64_MAX + 1, -(2**63) - 1, 10**25])
    | st.sampled_from([True, False, 1.0, 2.5, float("nan"), None, "1", [1], [], {}])
)
# pieces spliced into generated texts: literals, numbers and structure
_JSON_NOISE = [",", "[", "]", "{", "}", '"', " ", "true", "false", "1.0", "NaN", "-", "0", "e5", "9" * 20]


@st.composite
def json_texts(draw):
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["square"] * 6 + ["wide", "ragged", "empty-rows"]))
    width = {"square": n, "wide": n + 1, "ragged": n, "empty-rows": 0}[shape]
    big = draw(st.booleans())
    cells = st.integers(2**63, U64_MAX) if big else st.integers(0, 30)
    if draw(st.integers(0, 2)) == 0:
        cells = _JSON_CELLS
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=n, max_size=n))
    if shape == "ragged" and rows[-1]:
        rows[-1].pop()
    obj = {"matrix": rows}
    n_labels = draw(st.sampled_from([None] * 3 + [n] * 2 + [n + 1]))
    if n_labels is not None:
        names = st.sampled_from(["a", "b", "true", "false", 'q"', "é", "true_pos", "false_neg", 'x\\"true'])
        obj = {"labels": draw(st.lists(names, min_size=n_labels, max_size=n_labels)), **obj}
    text = json.dumps(obj)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_JSON_NOISE)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


class TestJsonArrayPathEquivalence:
    """parse_json must give what the per-cell checks give, or fail the same way."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"matrix": [[1, true], [0, 1]]}', id="true-cell"),
            pytest.param('{"matrix": [[false, 1], [0, 1]]}', id="false-cell"),
            pytest.param('{"labels": ["true", "false"], "matrix": [[1, 2], [3, 4]]}', id="bool-words-in-labels"),
            pytest.param('{"labels": [true, "b"], "matrix": [[1, 2], [3, 4]]}', id="bool-label"),
            pytest.param('{"labels": ["true_pos", "false_neg"], "matrix": [[1, true], [0, 1]]}', id="true-cell-beside-bool-word-labels"),
            pytest.param('{"labels": ["x\\\\", "y\\""], "matrix": [[1, false], [0, 1]]}', id="false-cell-after-escapes"),
            pytest.param('{"labels": ["x\\"true", "false\\\\"], "matrix": [[1, 2], [0, 1]]}', id="bool-words-beside-escapes"),
            pytest.param(f'{{"matrix": [[{2**63}, 1], [1, 1]]}}', id="cell-2**63"),
            pytest.param(f'{{"matrix": [[{2**63}, {2**63}], [{2**63}, {2**63}]]}}', id="all-cells-2**63"),
            pytest.param(f'{{"matrix": [[{U64_MAX}, 0], [0, 0]]}}', id="cell-2**64-1"),
            pytest.param(f'{{"matrix": [[{U64_MAX}, {U64_MAX}], [{U64_MAX}, {U64_MAX}]]}}', id="all-cells-2**64-1"),
            pytest.param(f'{{"matrix": [[{U64_MAX + 1}, 0], [0, 1]]}}', id="cell-2**64"),
            pytest.param(f'{{"matrix": [[{-(2**63) - 1}, 0], [0, 1]]}}', id="cell-below-int64"),
            pytest.param('{"matrix": [[1, -2], [3, -4]]}', id="negative-cells"),
            pytest.param('{"matrix": [[1.0, 2], [3, 4]]}', id="float-cell-1.0"),
            pytest.param('{"matrix": [[NaN, 2], [3, 4]]}', id="nan-cell"),
            pytest.param('{"matrix": [[1, null], [3, 4]]}', id="null-cell"),
            pytest.param('{"matrix": [["1", 2], [3, 4]]}', id="string-cell"),
            pytest.param('{"matrix": [[1, 2], [3]]}', id="ragged"),
            pytest.param('{"matrix": [[1], [2, 3]]}', id="ragged-first-row-short"),
            pytest.param('{"matrix": [[1, 2, 3], [4, 5, 6]]}', id="non-square"),
            pytest.param('{"matrix": [[]]}', id="empty-row"),
            pytest.param('{"matrix": [[[1]], [[2]]]}', id="nested-cells"),
            pytest.param('{"matrix": [[5]]}', id="1x1"),
            pytest.param('{"matrix": [[0, 0], [0, 0]]}', id="all-zero"),
            pytest.param('{"labels": ["a"], "matrix": [[1, 2], [3, 4]]}', id="too-few-labels"),
            pytest.param('{"matrix": [[' + "[" * 70 + "]" * 70 + ", 1], [1, 1]]}", id="cell-nested-70-deep"),
        ],
    )
    def test_pinned_cases(self, text):
        assert _outcome(parse_json, text) == _outcome(_parse_json_per_cell, text)

    @given(json_texts())
    def test_generated_texts(self, text):
        assert _outcome(parse_json, text) == _outcome(_parse_json_per_cell, text)


class TestLoadDocument:
    def test_by_extension(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("1,2\n3,4\n")
        assert load_document(str(csv)).format == "csv"
        js = tmp_path / "m.json"
        js.write_text('{"matrix": [[1,2],[3,4]]}')
        assert load_document(str(js)).format == "json"

    def test_explicit_format_overrides_extension(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1,2\n3,4\n")
        assert load_document(str(path), "csv").matrix.total == 10

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            load_document(str(path))

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError) as exc:
            load_document(str(path), "xml")
        assert str(exc.value) == "unknown format 'xml'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_document(str(tmp_path / "absent.csv"))

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n3,\xe94\n")
        with pytest.raises(ParseError) as exc:
            load_document(str(path))
        assert str(exc.value) == "not UTF-8 text: byte 6 (invalid continuation byte)"

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"])
    def test_cr_line_ends_read_as_newlines(self, tmp_path, eol):
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b" + eol + b"1,2" + eol + b"3,4" + eol)
        doc = load_document(str(path))
        assert doc.labels == ("a", "b")
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])
        # JSON error positions count lines, so a lone "\r" must count as one
        path = tmp_path / "m.json"
        path.write_bytes(b'{"matrix":' + eol + b"[[1, 2]," + eol + b"[3, x]]}")
        with pytest.raises(ParseError) as exc:
            load_document(str(path))
        assert str(exc.value) == "invalid JSON: Expecting value: line 3 column 5 (char 24)"

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_line_ends_are_normalised_once(self, monkeypatch, tmp_path, ext):
        # parse_csv normalises its own text, so load_document leaves CSV text as read
        calls = []
        real_universal_newlines = formats._universal_newlines

        def recording(text):
            calls.append(text)
            return real_universal_newlines(text)

        monkeypatch.setattr(formats, "_universal_newlines", recording)
        path = tmp_path / f"m.{ext}"
        body = "1,2\r\n3,4\r\n" if ext == "csv" else '{"matrix":\r\n[[1, 2], [3, 4]]}'
        path.write_bytes(body.encode())
        assert load_document(str(path)).matrix == AgreementMatrix([[1, 2], [3, 4]])
        assert calls == [body]

    @pytest.mark.parametrize(
        "name, body, labels",
        [
            ("m.csv", "5,1\n2,5\n", None),
            ("m.csv", "a,b\n5,1\n2,5\n", ("a", "b")),
            ("m.json", '{"matrix": [[5, 1], [2, 5]]}', None),
        ],
        ids=["csv", "labelled-csv", "json"],
    )
    def test_a_leading_utf8_bom_is_dropped(self, tmp_path, name, body, labels):
        # as Excel's "CSV UTF-8" writes it
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        doc = load_document(str(path))
        assert doc.labels == labels
        assert doc.matrix == AgreementMatrix([[5, 1], [2, 5]])

    def test_only_one_bom_is_dropped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + b"a,b\n5,1\n2,5\n")
        assert load_document(str(path)).labels == ("\ufeffa", "b")

    def test_a_bom_within_the_text_is_kept(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"labels": ["\xef\xbb\xbfa", "b"], "matrix": [[5, 1], [2, 5]]}')
        assert load_document(str(path)).labels == ("\ufeffa", "b")

    def test_undecodable_byte_after_a_bom_counts_from_the_file_start(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,\xff\n")
        with pytest.raises(ParseError, match=r"^not UTF-8 text: byte 5 \(invalid start byte\)$"):
            load_document(str(path))

    @pytest.mark.parametrize("ext", ["csv", "json"])
    @given(
        data=st.lists(
            st.sampled_from(
                [b"1", b"2", b",", b"\n", b"\r", b"\r\n", b" ", b"a", b'"', b"[", b"]]}",
                 b'{"matrix": [[', "\u00e9".encode(), b"\xff", b"\xe2\x82", b"\xef\xbb\xbf"]
            ),
            max_size=16,
        ).map(b"".join)
    )
    def test_reads_as_text_mode_does(self, ext, data):
        # "utf-8-sig" is UTF-8 that drops one leading byte order mark; its
        # error positions count from after the mark, and load_document's from
        # the start of the file
        parse = parse_csv if ext == "csv" else parse_json
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m." + ext)
            with open(path, "wb") as handle:
                handle.write(data)
            try:
                with open(path, encoding="utf-8-sig") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                skip = 3 if data.startswith(b"\xef\xbb\xbf") else 0
                message = f"not UTF-8 text: byte {skip + exc.start} ({exc.reason})"
                expected = (ParseError, message, None, None)
            else:
                expected = _outcome(lambda t, _: parse(t, path), text)
            assert _outcome(lambda _t, _p: load_document(path), None) == expected


class TestRoundTrip:
    def test_csv_and_json_reports_agree_modulo_path(self):
        csv_doc = parse_csv("2,1\n0,1", source_path="m.csv")
        json_doc = parse_json('{"matrix":[[2,1],[0,1]]}', source_path="m.json")
        r_csv = build_report(csv_doc, ia_epsilon(csv_doc.matrix), version=__version__)
        r_json = build_report(json_doc, ia_epsilon(json_doc.matrix), version=__version__)
        r_csv["input"]["path"] = r_json["input"]["path"] = "X"
        assert dump_json(r_csv) == dump_json(r_json)


class TestDumpJson:
    def test_floats_use_17_significant_digits(self):
        assert dump_json(1 / 3, indent=None) == "0.33333333333333331"
        assert dump_json(0.0, indent=None) == "0"
        assert dump_json(1.0, indent=None) == "1"
        assert dump_json(0.5, indent=None) == "0.5"

    def test_seventeen_digits_round_trip(self):
        for x in (1 / 3, 0.1 + 0.2, 2**-52, 123456.789):
            assert json.loads(dump_json(x, indent=None)) == x

    def test_structures(self):
        obj = {"a": [1, True, None], "b": {"c": "text \" with quotes"}}
        compact = dump_json(obj, indent=None)
        assert json.loads(compact) == obj
        pretty = dump_json(obj)
        assert json.loads(pretty) == obj
        assert "\n" in pretty and "\n" not in compact

    def test_other_types_serialize_as_their_builtin_counterparts(self):
        class Label(str):
            pass

        class Count(int):
            pass

        odd = {
            "tuple": (1, Label('a"b')),
            "mapping": MappingProxyType({Label("k"): np.float64(0.1), 2: Count(7)}),
            "nested": [(), MappingProxyType({})],
        }
        plain = {
            "tuple": [1, 'a"b'],
            "mapping": {"k": 0.1, "2": 7},
            "nested": [[], {}],
        }
        for indent in (None, 2):
            assert dump_json(odd, indent=indent) == dump_json(plain, indent=indent)

    @pytest.mark.parametrize("value", [np.int64(3), np.array([1]), {1, 2}, b"x"])
    def test_rejects_unserializable_values(self, value):
        with pytest.raises(InternalInvariantError) as exc:
            dump_json({"a": [value]})
        assert str(exc.value) == f"unserializable report value: {value!r}"

    def test_empty_containers(self):
        assert dump_json({}, indent=None) == "{}"
        assert dump_json([], indent=None) == "[]"

    def test_rejects_non_finite(self):
        with pytest.raises(InternalInvariantError):
            dump_json(float("inf"))

    def test_key_order_is_preserved(self):
        assert dump_json({"z": 1, "a": 2}, indent=None) == '{"z": 1, "a": 2}'


class TestMatrixDocumentRecord:
    """A named tuple, with the fields, construction, equality, hash and repr
    the frozen dataclass had."""

    def test_record(self):
        matrix = AgreementMatrix([[2, 1], [0, 1]])
        doc = MatrixDocument("p.csv", "csv", ("a", "b"), matrix)
        assert MatrixDocument._fields == ("source_path", "format", "labels", "matrix")
        assert doc == MatrixDocument(source_path="p.csv", format="csv", labels=("a", "b"), matrix=matrix)
        with pytest.raises(TypeError):  # as before: AgreementMatrix has no hash
            hash(doc)
        assert doc != MatrixDocument("q.csv", "csv", ("a", "b"), matrix)
        assert repr(doc) == f"MatrixDocument(source_path='p.csv', format='csv', labels=('a', 'b'), matrix={matrix!r})"
        with pytest.raises(AttributeError):
            doc.labels = None


class TestReport:
    def test_value_echoed_bit_for_bit(self):
        doc = MatrixDocument("p", "csv", None, AgreementMatrix([[2, 1], [0, 1]]))
        result = ia_epsilon(doc.matrix)
        report = build_report(doc, result, version=__version__)
        assert report["ia"]["value"] == result.value
        assert report["ia"]["case"] == "regular_y_min"
        assert report["ia"]["m"] == result.m
        assert report["ia"]["l"] == result.l
        assert report["version"] == __version__
        text = dump_json(report)
        assert json.loads(text)["ia"]["value"] == result.value


# Report bytes captured before the emitter was rewritten for speed; any
# change to these strings is a change to the report format.
_GOLDEN_COMPUTE = """\
{
  "input": {
    "path": "study/a.csv",
    "n": 3,
    "labels": [
      "yes",
      "no",
      "maybe"
    ]
  },
  "ia": {
    "value": 0.40564033596395555,
    "case": "regular_x_min",
    "n": 3,
    "m": 3,
    "l": 3,
    "h_x": 1.5128876215181606,
    "h_y": 1.5219280948873628,
    "h_xy": 2.421127473337187
  },
  "version": "9.9.9"
}"""

_GOLDEN_SWEEP = """\
{
  "input": {
    "path": "b.json",
    "n": 2,
    "labels": null
  },
  "ia": {
    "value": 0.5440320022665035,
    "case": "regular_x_min",
    "n": 2,
    "m": 2,
    "l": 2,
    "h_x": 0.86312056856663122,
    "h_y": 0.98522813603425163,
    "h_xy": 1.3787834934861756
  },
  "sweep": [
    {
      "epsilon": 0.01,
      "ia_value": 0.5287422420876926,
      "gap": 0.015289760178810896,
      "h_x": 0.86446388328593238,
      "h_y": 0.98497329284487811,
      "h_xy": 1.3923586042783731
    },
    {
      "epsilon": 1.0000000000000001e-05,
      "ia_value": 0.54400017723918848,
      "gap": 3.1825027315024457e-05,
      "h_x": 0.86312191746724309,
      "h_y": 0.98522788192891908,
      "h_xy": 1.3788113233149537
    },
    {
      "epsilon": 1.0000000000000001e-09,
      "ia_value": 0.54403199688471049,
      "gap": 5.3817930112387558e-09,
      "h_x": 0.86312056870152165,
      "h_y": 0.98522813600884096,
      "h_xy": 1.3787834981674068
    }
  ],
  "convergence": {
    "target": 0.5440320022665035,
    "final_tol": 9.9999999999999995e-07,
    "require_shrinking_tail": false,
    "tail_shrinking": true,
    "within_final_tol": true,
    "passed": true
  },
  "version": "9.9.9"
}"""

_GOLDEN_BATCH_RECORD = (
    '{"input": {"path": "dir/\\u00e9t\\u00e9 \\"q\\".json", "n": 3, "labels": '
    '["say \\"hi\\"", "back\\\\slash", "bell\\u0007\\ttab\\n", '
    '"caf\\u00e9 \\u2603 \\ud834\\udd1e"]}, '
    '"ia": {"value": 0.48487648752570511, "case": "regular_y_min", "n": 3, "m": 3, "l": 3, '
    '"h_x": 1.5545851693377997, "h_y": 1.5545851693377997, "h_xy": 2.3553885422075336}, '
    '"version": "9.9.9"}'
)

_GOLDEN_ERROR_RECORD = (
    '{"input": {"path": "dir/bad\\u00e9.csv"}, '
    '"error": {"type": "ParseError", "message": "not an integer: \'x\\"4\' (row 2, column 3)"}}'
)


class TestGoldenReports:
    """Whole reports, byte for byte."""

    def test_pretty_compute_report(self):
        doc = parse_csv("yes,no,maybe\n7,1,0\n2,5,1\n0,1,3\n", "study/a.csv")
        report = build_report(doc, ia_epsilon(doc.matrix), version="9.9.9")
        assert dump_json(report) == _GOLDEN_COMPUTE

    def test_sweep_report(self):
        doc = parse_json('{"matrix": [[4, 0], [1, 2]]}', "b.json")
        result = ia_epsilon(doc.matrix)
        evaluations = sweep(doc.matrix, [1e-2, 1e-5, 1e-9])
        config = ConvergenceConfig(final_tol=1e-6, require_shrinking_tail=False)
        verdict = check_convergence(evaluations, result.value, config)
        report = build_report(doc, result, "9.9.9", sweep=(evaluations, verdict, config))
        assert dump_json(report) == _GOLDEN_SWEEP

    def test_compact_batch_record_escapes_labels_and_path(self):
        labels = ('say "hi"', "back\\slash", "bell\x07\ttab\n", "café ☃ \U0001d11e")
        matrix = AgreementMatrix([[3, 1, 0], [0, 2, 1], [1, 0, 4]])
        doc = MatrixDocument('dir/été "q".json', "json", labels, matrix)
        report = build_report(doc, ia_epsilon(matrix), version="9.9.9")
        assert dump_json(report, indent=None) == _GOLDEN_BATCH_RECORD

    def test_error_record(self):
        exc = ParseError("not an integer: 'x\"4'", row=2, col=3)
        record = error_record("dir/badé.csv", exc)
        assert dump_json(record, indent=None) == _GOLDEN_ERROR_RECORD
