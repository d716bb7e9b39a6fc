"""The library has no runtime dependencies: every import in src/ is
relative, from __future__, or of a standard-library module."""

import ast
import sys
from pathlib import Path

import shiftgeo


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, [node.module]


def test_library_imports_only_the_standard_library():
    root = Path(shiftgeo.__file__).parent
    modules = sorted(root.glob("*.py"))
    assert modules
    found = [f"{path.name}:{lineno} {name}"
             for path in modules
             for lineno, names in _imported_modules(
                 ast.parse(path.read_text(), str(path)))
             for name in names
             if name != "__future__"
             and name.partition(".")[0] not in sys.stdlib_module_names]
    assert not found, found
