"""Start-up: what each entry point loads, the package's import graph, and
its exports.

The epsilon oracle and the distribution layer (infotheory) load only when a
caller uses them: importing the package, ia_strict and the CLI's compute
and batch load neither, and json loads with the first JSON document. Those
are the only late loads: every other package module is imported at module
level, and the package's modules import one another without a cycle. The
tests of what loads run fresh interpreters, so that the modules this test
process has already imported hide nothing; the import-graph tests read the
package's source.
"""

import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import infoagree
import infoagree.cli

PACKAGE = os.path.dirname(infoagree.__file__)
SRC = os.path.dirname(PACKAGE)
SPANS = os.path.join(os.path.dirname(SRC), "perfbench", "spans.py")
ORACLE, INFOTHEORY = "infoagree.oracle", "infoagree.infotheory"


def _python(args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def _imported(args, cwd=None, package="infoagree") -> set[str]:
    """The modules of ``package`` in sys.modules after a fresh interpreter runs
    ``args``: ["-c", code], or ["-m", module, *argv] run as python -m would.
    The list is printed by an atexit callback registered first, because the
    CLI's entry point ends the process after the callbacks without
    returning to the code that ran it."""
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(sorted(name for name in sys.modules"
        f" if name.partition('.')[0] == {package!r})))\n"
    )
    if args[0] == "-m":
        code += (
            f"import runpy; sys.argv = {args[1:]!r}\n"
            "try: runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc: assert not exc.code, exc.code"
        )
    else:
        code += args[1]
    done = _python(["-c", code], cwd)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


@pytest.fixture
def matrix_dir(tmp_path):
    (tmp_path / "m.csv").write_text("a,b\n4,0\n1,3\n")
    return tmp_path


class TestImportGraph:
    @pytest.mark.parametrize(
        "args",
        [
            ["-c", "import infoagree"],
            ["-c", "import infoagree; dir(infoagree)"],
            ["-c", "import infoagree as ia; ia.ia_epsilon(ia.AgreementMatrix([[4, 0], [1, 3]]))"],
            ["-m", "infoagree.cli", "compute", "m.csv"],
            ["-m", "infoagree.cli", "batch", "."],
            ["-m", "infoagree.cli", "--version"],
            ["-m", "infoagree.cli", "sweep", "--help"],
            ["-c", "import infoagree as ia; ia.ia_strict(ia.AgreementMatrix([[4, 1], [1, 3]]))"],
        ],
        ids=["import", "dir", "ia_epsilon", "compute", "batch", "version", "sweep-help", "ia_strict"],
    )
    def test_loads_neither_the_oracle_nor_the_distributions(self, matrix_dir, args):
        loaded = _imported(args, cwd=matrix_dir)
        assert {"infoagree.measure", "infoagree._kernels"} <= loaded
        assert not loaded & {ORACLE, INFOTHEORY}

    @pytest.mark.parametrize(
        "argv", [["--version"], ["compute", "m.csv"], ["batch", "."]], ids=["version", "compute", "batch"]
    )
    def test_csv_verbs_do_not_load_json(self, matrix_dir, argv):
        # reports are written by the package's own emitter; json loads with
        # the first JSON document
        assert _imported(["-m", "infoagree.cli", *argv], cwd=matrix_dir, package="json") == set()
        (matrix_dir / "m.json").write_text('{"matrix": [[4, 0], [1, 3]]}')
        loaded = _imported(["-m", "infoagree.cli", "compute", "m.json"], cwd=matrix_dir, package="json")
        assert "json" in loaded

    @pytest.mark.parametrize(
        "args",
        [
            ["-c", "import infoagree"],
            ["-m", "infoagree.cli", "--version"],
            ["-m", "infoagree.cli", "compute", "m.csv"],
            ["-m", "infoagree.cli", "batch", "."],
            ["-c", "import infoagree as ia; ia.ia_strict(ia.AgreementMatrix([[4, 1], [1, 3]]))"],
        ],
        ids=["import", "version", "compute", "batch", "ia_strict"],
    )
    def test_no_dataclasses_outside_sweep(self, matrix_dir, args):
        # IaResult and MatrixDocument are named tuples; NumPy does not load it
        assert _imported(args, cwd=matrix_dir, package="dataclasses") == set()
        loaded = _imported(["-m", "infoagree.cli", "sweep", "m.csv"], cwd=matrix_dir, package="dataclasses")
        assert loaded == {"dataclasses"}

    @pytest.mark.parametrize("verb", ["--version", "--help"])
    def test_cli_help_and_version_still_load_the_ingest_and_the_closed_form(self, verb):
        assert {"infoagree.formats", "infoagree.measure"} <= _imported(["-m", "infoagree.cli", verb])

    @pytest.mark.parametrize(
        "args, needed, not_needed",
        [
            (["-m", "infoagree.cli", "sweep", "m.csv"], ORACLE, INFOTHEORY),
            (["-c", "import infoagree; infoagree.sweep"], ORACLE, INFOTHEORY),
            (["-c", "from infoagree import check_convergence"], ORACLE, INFOTHEORY),
            (["-c", "import infoagree; infoagree.oracle"], ORACLE, INFOTHEORY),
            (["-c", "import infoagree; infoagree.entropy_from_counts([1, 3])"], INFOTHEORY, ORACLE),
        ],
        ids=["cli-sweep", "sweep", "from-import", "submodule", "entropy_from_counts"],
    )
    def test_a_caller_that_uses_one_loads_it(self, matrix_dir, args, needed, not_needed):
        loaded = _imported(args, cwd=matrix_dir)
        assert needed in loaded
        assert not_needed not in loaded

    @pytest.mark.parametrize(
        "args, module",
        [
            (["-m", "infoagree.cli", "sweep", "m.csv"], ORACLE),
            (["-c", "import infoagree; infoagree.sweep"], ORACLE),
            (["-c", "import infoagree; infoagree.oracle"], ORACLE),
        ],
        ids=["cli-sweep", "sweep", "submodule"],
    )
    def test_python_x_importtime_reports_a_load_on_first_use(self, matrix_dir, args, module):
        done = _python(["-X", "importtime", *args], cwd=matrix_dir)
        assert done.returncode == 0, done.stderr
        reported = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if "|" in line]
        assert module in reported


def _imports(node: ast.AST, in_function: bool = False):
    """(statement, whether a function holds it) for each import statement under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        yield from _imports(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _package_imports() -> dict[str, set[tuple[str, bool]]]:
    """Each module of the package, read from its source, with the package
    modules it imports: {module: {(imported module, whether a function holds
    the import), ...}}. A name imported from the package that is not a
    submodule is an import of the package itself."""
    files = {
        "infoagree" if name == "__init__.py" else f"infoagree.{name[:-3]}": name
        for name in os.listdir(PACKAGE)
        if name.endswith(".py")
    }
    graph = {}
    for module, name in files.items():
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        graph[module] = set()
        for stmt, in_function in _imports(tree):
            if isinstance(stmt, ast.Import):
                targets = [alias.name for alias in stmt.names]
            else:
                assert stmt.level == 0, f"{module} has a relative import"
                targets = [f"{stmt.module}.{alias.name}" for alias in stmt.names]
                targets = [t if t in files else stmt.module for t in targets]
            graph[module] |= {(t, in_function) for t in targets if t in files}
    return graph


class TestPackageImports:
    def test_the_modules_import_one_another_without_a_cycle(self):
        graph = {module: {t for t, _ in edges} for module, edges in _package_imports().items()}
        assert "infoagree._csv_digits" in graph["infoagree.formats"]
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as exc:
            pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")

    def test_only_the_oracle_and_the_distributions_are_imported_in_a_function(self):
        # every other late import would only skip compiling a module, which
        # an installed package with cached bytecode does not pay
        late = {(module, t) for module, edges in _package_imports().items() for t, inner in edges if inner}
        assert ("infoagree.cli", ORACLE) in late
        assert sorted(edge for edge in late if edge[1] not in {ORACLE, INFOTHEORY}) == []


class TestExports:
    @pytest.mark.parametrize("name", infoagree.__all__)
    def test_every_export_is_its_home_modules_object(self, name):
        value = getattr(infoagree, name)
        # str constants have no __module__: they are the package's own
        home = importlib.import_module(getattr(value, "__module__", "infoagree"))
        assert getattr(home, name) is value

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from infoagree import *", namespace)
        for name in infoagree.__all__:
            assert namespace[name] is getattr(infoagree, name)

    def test_dir_lists_every_export(self):
        assert set(infoagree.__all__) <= set(dir(infoagree))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            infoagree.no_such_name
        assert not hasattr(infoagree, "no_such_name")
        with pytest.raises(ImportError):
            exec("from infoagree import no_such_name", {})

    def test_cli_resolves_the_oracles_names(self):
        from infoagree import oracle

        assert infoagree.cli.sweep is oracle.sweep
        assert infoagree.cli.check_convergence is oracle.check_convergence
        with pytest.raises(AttributeError):
            infoagree.cli.no_such_name


def test_tracer_wraps_a_lazily_imported_oracle(tmp_path):
    # perfbench's traced run installs its wrappers before any op runs; in a
    # fresh interpreter that is before anything has imported the oracle, so
    # the sweep verb must still call the wrappers on infoagree.cli
    (tmp_path / "m.csv").write_text("4,0,0\n6,0,0\n0,0,0\n")
    script = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", {SPANS!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
assert {ORACLE!r} not in sys.modules
tracer = spans.Tracer()
tracer.install(spans.SITES)
from infoagree import cli
code = tracer.run_op(0, lambda: cli.main(["sweep", "m.csv", "--output", "report.json"]))
tracer.uninstall()
print(json.dumps({{"code": code, "spans": sorted({{tracer.names[row[0]] for row in tracer.rows}})}}))
"""
    done = _python(["-c", script], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert {"oracle.sweep", "oracle.check_convergence", "measure.ia_epsilon"} <= set(result["spans"])
    assert json.loads((tmp_path / "report.json").read_text())["convergence"]["passed"] is True
