"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import symmarriage

MODULES = sorted(Path(symmarriage.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "star.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so a check guarding an answer
    # must raise InvariantError (or another exception) explicitly instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"
