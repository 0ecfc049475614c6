"""Source-level rules for the package."""

import ast
from pathlib import Path

import hsplab

PACKAGE = Path(hsplab.__file__).parent


def test_no_assert_statements_in_the_package():
    # invariants raise; they do not assert, so they still run under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found
