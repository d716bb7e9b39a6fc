"""Certificate invariants in the library are explicit raises: an `assert`
statement is stripped under `python -O`, so none may appear in src/."""

import ast
from pathlib import Path

import shiftgeo


def test_library_has_no_assert_statements():
    root = Path(shiftgeo.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
