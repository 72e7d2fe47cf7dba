import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infoagree import __version__, formats
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
    document_to_json,
    dump_json,
    load_document,
    parse_csv,
    parse_json,
)
from infoagree.matrix import U64_MAX, AgreementMatrix
from infoagree.measure import ia_epsilon


class TestParseCsv:
    def test_plain_matrix(self):
        doc = parse_csv("1,2\n3,4")
        assert doc.matrix == AgreementMatrix([[1, 2], [3, 4]])
        assert doc.labels is None
        assert doc.format == "csv"

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

    def test_large_labelled_csv_takes_the_array_path(self, monkeypatch):
        _check_array_path(monkeypatch, "\n")

    def test_large_labelled_crlf_csv_takes_the_array_path(self, monkeypatch):
        _check_array_path(monkeypatch, "\r\n")


def _check_array_path(monkeypatch, eol):
    """A labelled 300x300 CSV with the given line ends parses without the
    per-field parser."""

    def refuse(text, source_path):
        raise AssertionError("well-formed CSV fell back to the per-field parser")

    monkeypatch.setattr(formats, "_parse_csv_slow", refuse)
    n = 300
    counts = np.random.default_rng(0).integers(0, 10, size=(n, n))
    text = ",".join(f"c{j}" for j in range(n)) + eol
    text += "".join(",".join(map(str, row)) + eol for row in counts.tolist())
    doc = parse_csv(text)
    assert doc.labels == tuple(f"c{j}" for j in range(n))
    assert np.array_equal(doc.matrix.counts, counts)


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
_NOISE = [",", "\n", "\n\n", "\r\n", "\r", " ", "\t", "-", "+", "_", "0", "\uff15", "x", "\u2028"]


@st.composite
def csv_texts(draw):
    n = draw(st.integers(2, 5))
    width = draw(st.sampled_from([n] * 6 + [n + 1, max(n - 1, 1)]))
    cells = st.integers(0, 20) | st.integers(0, 2**40)
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        rows[-1][-1] = draw(st.sampled_from([U64_MAX, U64_MAX + 1, 10**25]))
    lines = [",".join(draw(st.sampled_from(["", "", "", "0"])) + str(v) for v in row) for row in rows]
    n_labels = draw(st.sampled_from([None] * 3 + [width] * 3 + [width + 1, width - 1]))
    if n_labels is not None:
        lines.insert(0, ",".join(f"c{j}" for j in range(n_labels)))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol, eol * 2, eol + " " + eol]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_NOISE)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


class TestCsvFastPathEquivalence:
    """parse_csv must give what the per-field parser gives, or fail the same way."""

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
        ],
    )
    def test_pinned_cases(self, text):
        assert _outcome(parse_csv, text) == _outcome(formats._parse_csv_slow, text)

    @given(csv_texts())
    def test_generated_texts(self, text):
        assert _outcome(parse_csv, text) == _outcome(formats._parse_csv_slow, text)

    @given(st.text(alphabet="0123456789,\n\r -_a\uff15", max_size=40))
    def test_arbitrary_texts(self, text):
        assert _outcome(parse_csv, text) == _outcome(formats._parse_csv_slow, text)


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_document(str(tmp_path / "absent.csv"))


class TestRoundTrip:
    def test_json_round_trip_preserves_matrix_and_labels(self):
        doc = parse_json('{"labels":["a","b"],"matrix":[[2,1],[0,1]]}')
        again = parse_json(document_to_json(doc))
        assert again.matrix == doc.matrix
        assert again.labels == doc.labels

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

    def test_empty_containers(self):
        assert dump_json({}, indent=None) == "{}"
        assert dump_json([], indent=None) == "[]"

    def test_rejects_non_finite(self):
        with pytest.raises(InternalInvariantError):
            dump_json(float("inf"))

    def test_key_order_is_preserved(self):
        assert dump_json({"z": 1, "a": 2}, indent=None) == '{"z": 1, "a": 2}'


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
