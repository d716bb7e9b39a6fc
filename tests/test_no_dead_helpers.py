"""Every module-level private helper in src/shiftgeo is named somewhere
else in src/: a ``_private`` function, class or constant that only its own
definition line mentions is dead code, typically a helper left behind after
a faster path replaced it (the replaced path belongs in tests/oracle_utils.py
as an oracle, not in the library)."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftgeo"


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level private def, class or assignment;
    dunder names are the interpreter's, not helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found = [(n.id, node.lineno) for t in targets
                     for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name, line in found:
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                yield name, line


def dead_helpers(src: Path = SRC) -> list[str]:
    lines = {p: p.read_text().splitlines() for p in sorted(src.glob("*.py"))}
    dead = []
    for path, text in lines.items():
        for name, line in _private_definitions(ast.parse("\n".join(text))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(row)
                       for p, rows in lines.items()
                       for i, row in enumerate(rows, 1)
                       if (p, i) != (path, line)):
                dead.append(f"{path.name}:{line}: {name}")
    return dead


def test_every_private_helper_is_named_elsewhere_in_src():
    assert dead_helpers() == []


def test_the_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_LIMIT = 3\n\n\ndef _used():\n    return _LIMIT\n\n\n"
        "def _unused():\n    return 0\n\n\nclass _Gone:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    assert dead_helpers(tmp_path) == ["mod.py:8: _unused", "mod.py:12: _Gone"]
