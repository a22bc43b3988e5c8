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


def is_stdio(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def io_sites(tree: ast.AST, function: str | None = None):
    """(innermost enclosing function, what) for each call of ``open``, each
    use of ``sys.stdout`` and each ``print`` not to ``file=sys.stderr``
    under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "open":
                yield function, "open"
            elif node.func.id == "print" and not any(
                    kw.arg == "file" and is_stdio(kw.value, "stderr") for kw in node.keywords):
                yield function, "print"
        elif is_stdio(node, "stdout"):
            yield function, "sys.stdout"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from io_sites(node, inner)


def test_only_emit_writes_output():
    # cli.main reports every OSError as a failed write, which holds only
    # while _emit is the one function that opens a file or writes stdout
    sites = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites |= {(path.name, fn, what) for fn, what in io_sites(tree)}
    assert sites == {("cli.py", "_emit", "open"), ("cli.py", "_emit", "sys.stdout")}


@pytest.mark.parametrize("source, sites", [
    ("def f(p):\n    return open(p).read()", {("f", "open")}),
    ("import sys\ndef f():\n    sys.stdout.write('x')", {("f", "sys.stdout")}),
    ("def f():\n    print('x')", {("f", "print")}),
    ("import sys\ndef f():\n    print('x', file=sys.stdout)", {("f", "print"), ("f", "sys.stdout")}),
    ("import sys\nout = sys.stdout", {(None, "sys.stdout")}),
    ("import sys\ndef f():\n    print('x', file=sys.stderr)", set()),
])
def test_io_sites_finds_planted_writes(source, sites):
    assert set(io_sites(ast.parse(source))) == sites


def test_workflows_write_no_digest():
    # a digest is written once, in tests/pins.py, which tier-1 checks
    hex64 = re.compile(r"\b[0-9a-fA-F]{64}\b")
    assert WORKFLOWS
    assert [path.name for path in WORKFLOWS if hex64.search(path.read_text(encoding="utf-8"))] == []
