"""Every module-level private helper in src/shiftgeo is named somewhere
else in src/: a ``_private`` function, class or constant that only its own
definition line mentions is dead code, typically a helper left behind after
a faster path replaced it (the replaced path belongs in tests/oracle_utils.py
as an oracle, not in the library).  Likewise every ``__slots__`` entry of a
class in src/shiftgeo is read somewhere in src/: a slot that is only ever
assigned holds a structure nothing uses."""

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


def _slots(tree: ast.Module):
    """(class name, slot, line) of each string entry of each class's
    ``__slots__`` tuple or list."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in stmt.targets)
                    and isinstance(stmt.value, (ast.Tuple, ast.List))):
                for elt in stmt.value.elts:
                    if isinstance(elt, ast.Constant):
                        yield node.name, elt.value, elt.lineno


def unread_slots(src: Path = SRC) -> list[str]:
    """The slots whose name no attribute load in src/ reads: an attribute
    only assigned (``self.x = ...``) does not count."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line}: {cls}.{slot}"
            for path, tree in trees.items()
            for cls, slot, line in _slots(tree) if slot not in read]


def test_every_private_helper_is_named_elsewhere_in_src():
    assert dead_helpers() == []


def test_the_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_LIMIT = 3\n\n\ndef _used():\n    return _LIMIT\n\n\n"
        "def _unused():\n    return 0\n\n\nclass _Gone:\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    assert dead_helpers(tmp_path) == ["mod.py:8: _unused", "mod.py:12: _Gone"]


def test_every_slot_is_read_in_src():
    assert unread_slots() == []


def test_the_guard_sees_an_unread_slot(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n    __slots__ = ('kept', 'only_set')\n\n"
        "    def __init__(self):\n        self.kept = 1\n"
        "        self.only_set = 2\n\n    def get(self):\n"
        "        return self.kept\n")
    assert unread_slots(tmp_path) == ["mod.py:2: Box.only_set"]
