"""The names the benchmark harness in perfbench/ reaches into the package by.

The harness's traced run replaces module attributes with timing wrappers
(perfbench/spans.py SITES), and its worker calls a few names directly. A
rename or a call that bypasses a module attribute would silently drop a
layer from the trace, or break the run, without failing any other test.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import infoagree
from infoagree import cli, formats, measure
from infoagree.matrix import AgreementMatrix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _load_spans():
    # by file path, so no perfbench module shadows one of the tests' own
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(PERFBENCH, "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize(
    "module_name, attr", [(site[0], site[1]) for site in SPANS.SITES]
)
def test_every_traced_site_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize(
    "module_name, attr",
    [
        ("infoagree.measure", "ia_epsilon"),
        ("infoagree.measure", "ia_strict"),
        ("infoagree.oracle", "sweep"),
        ("infoagree.oracle", "check_convergence"),
        ("infoagree.cli", "main"),
        ("infoagree.matrix", "AgreementMatrix"),
    ],
)
def test_names_the_worker_calls_exist(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_kernel_backend_is_exported():
    assert isinstance(infoagree.KERNEL_BACKEND, str)


def test_load_document_reaches_parse_csv_through_the_module(monkeypatch, tmp_path):
    calls = []
    real_parse_csv = formats.parse_csv

    def recording(text, *args, **kwargs):
        calls.append(text)
        return real_parse_csv(text, *args, **kwargs)

    monkeypatch.setattr(formats, "parse_csv", recording)
    path = tmp_path / "m.csv"
    path.write_text("a,b\r\n1,2\r\n3,4\r\n")
    doc = formats.load_document(str(path))
    assert calls == ["a,b\r\n1,2\r\n3,4\r\n"]  # parse_csv makes its own line ends
    assert doc.labels == ("a", "b")


def test_load_document_reaches_parse_json_through_the_module(monkeypatch, tmp_path):
    calls = []
    real_parse_json = formats.parse_json

    def recording(text, *args, **kwargs):
        calls.append(text)
        return real_parse_json(text, *args, **kwargs)

    monkeypatch.setattr(formats, "parse_json", recording)
    path = tmp_path / "m.json"
    path.write_text('{"labels": ["a", "b"],\r\n"matrix": [[1, 2], [3, 4]]}\r\n')
    doc = formats.load_document(str(path))
    assert calls == ['{"labels": ["a", "b"],\n"matrix": [[1, 2], [3, 4]]}\n']
    assert doc.labels == ("a", "b")


def test_traced_cli_run_records_every_ingest_layer(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n+1,2\n3,4\n")  # a signed cell takes the per-field path
    tracer = SPANS.Tracer()
    tracer.install(SPANS.SITES)
    try:
        code = tracer.run_op(0, lambda: cli.main(["compute", str(path)]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out.startswith("{")
    recorded = {tracer.names[row[0]] for row in tracer.rows}
    assert {
        "formats.load_document",
        "formats.parse_csv",
        "matrix.AgreementMatrix.from_list",
        "measure.ia_epsilon",
        "formats.build_report",
        "formats.dump_json",
    } <= recorded


def test_traced_ia_strict_records_the_kernel_calls():
    # ia_strict's entropies reach xlog2_sum through the _kernels module attribute
    m = AgreementMatrix(np.random.default_rng(300).integers(1, 10, size=(300, 300)))
    tracer = SPANS.Tracer()
    tracer.install(SPANS.SITES)
    try:
        tracer.run_op(0, lambda: measure.ia_strict(m))
    finally:
        tracer.uninstall()
    recorded = {tracer.names[row[0]] for row in tracer.rows}
    assert "kernels.xlog2_sum" in recorded
