"""The package's source: what must hold of every module's text."""

import ast
from pathlib import Path

import pytest

import goldenbeta

MODULES = sorted(Path(goldenbeta.__file__).resolve().parent.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(path):
    # python -O strips assert statements, so a check written as one would
    # vanish; feature_version=(3, 10) also checks, on a best-effort basis,
    # that the module parses as the lowest Python the package supports
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"
