"""A smoke test of the code-size counter (tests/code_size.py): its rule on a
fixture of known count, and the shape of its output."""

import json

import code_size

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts

# a comment alone does not


def f(x):
    """A docstring."""
    "a string expression"
    """A multi-line string expression,

    with a blank line in it."""
    text = """an assigned string
counts on each of its lines"""
    return x, text
'''


def test_fixture_count():
    # import, def, the assignment's two lines and the return
    assert code_size.code_lines(FIXTURE) == 5


def test_output_shape(capsys):
    assert code_size.main(["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    modules = report["modules"]
    assert "infoagree/_kernels.py" in modules and "infoagree/matrix.py" in modules
    assert all(path.endswith(".py") and lines > 0 for path, lines in modules.items())
    assert report["total"] == sum(modules.values())

    assert code_size.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(modules) + 1
    assert lines[-1].split() == ["total", str(report["total"])]
