"""The package's source: what must hold of every module's text."""

import ast
from pathlib import Path

import pytest

import goldenbeta
from goldenbeta import algebra, words
from goldenbeta.cli import _COMMANDS

MODULES = sorted(Path(goldenbeta.__file__).resolve().parent.rglob("*.py"))


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
