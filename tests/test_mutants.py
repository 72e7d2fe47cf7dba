"""The mutation catalogue (tests/mutants.py), checked without running it:
each edit still applies to the code once, and each test it names exists."""

import ast
import functools
import os

import pytest

from mutants import MUTANTS, ROOT


@functools.lru_cache(maxsize=None)
def _defined_tests(path: str) -> frozenset[str]:
    """The node IDs, without parameters, of the test functions that the test
    file at path (relative to the repository root) defines; a class's tests
    include those it inherits from classes of the same file."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def methods(cls: ast.ClassDef) -> set[str]:
        own = {m.name for m in cls.body if isinstance(m, ast.FunctionDef) and m.name.startswith("test")}
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                own |= methods(classes[base.id])
        return own

    ids = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.update(f"{path}::{node.name}::{name}" for name in methods(node))
    return frozenset(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_edit_applies_once(mutant):
    assert mutant.file.startswith("src/")
    with open(os.path.join(ROOT, mutant.file), encoding="utf-8") as f:
        assert f.read().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node_id in mutant.tests:
        assert node_id in _defined_tests(node_id.partition("::")[0]), node_id
