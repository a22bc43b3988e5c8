"""The package's source: what must hold of every module's text, and of
the CI workflow's."""

import ast
import re
from pathlib import Path

import pytest

import goldenbeta
from goldenbeta import algebra, words
from goldenbeta.cli import _COMMANDS

MODULES = sorted(Path(goldenbeta.__file__).resolve().parent.rglob("*.py"))
WORKFLOWS = sorted((Path(__file__).resolve().parent.parent / ".github" / "workflows").glob("*"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(path):
    # python -O strips assert statements, so a check written as one would
    # vanish; feature_version=(3, 10) also checks, on a best-effort basis,
    # that the module parses as the lowest Python the package supports
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


def test_command_defaults_are_parsed_values():
    # argparse sends a str default through its flag's type and the table
    # parse takes every default as given, so a typed flag's default must be
    # the value it parses to for both parsers to agree
    typed_str = [flag for _, specs in _COMMANDS.values() for flag, kwargs in specs
                 if "type" in kwargs and isinstance(kwargs.get("default"), str)]
    assert typed_str == []


def test_refusals_are_domain_errors():
    # the CLI's exit 3 catches DomainError alone
    assert issubclass(goldenbeta.ParseError, goldenbeta.DomainError)
    assert issubclass(goldenbeta.ParameterError, goldenbeta.DomainError)
    assert goldenbeta.ParseError is algebra.ParseError is words.ParseError


def raised_names(tree: ast.AST, function: str | None = None):
    """(innermost enclosing function, exception name) of each raise of a
    named exception under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield function, exc.id
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from raised_names(node, inner)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_library_refusals_are_domain_errors(path):
    # a library caller catches every refusal with DomainError; only the two
    # argparse type callbacks raise ValueError, which argparse and _parse catch
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    sites = {(path.name, fn) for fn, name in raised_names(tree)
             if name in ("ValueError", "IndexError", "KeyError")}
    assert sites <= {("cli.py", "depth_list"), ("cli.py", "_value")}


def test_workflows_write_no_digest():
    # a digest is written once, in tests/pins.py, which tier-1 checks
    hex64 = re.compile(r"\b[0-9a-fA-F]{64}\b")
    assert WORKFLOWS
    assert [path.name for path in WORKFLOWS if hex64.search(path.read_text(encoding="utf-8"))] == []
