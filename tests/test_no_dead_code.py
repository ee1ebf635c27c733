"""Every private function and method of the package has a caller.

A private (single leading underscore) top-level function or method can
only be reached from inside the package, so one that nothing in
src/qperiods references outside its own body is dead code.  Names are
matched syntactically: a bare name or an attribute of that name anywhere
in the package counts as a reference.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qperiods"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module):
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and _is_private(node.name):
            yield node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, funcs) and _is_private(member.name):
                    yield member


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def dead_definitions(trees: dict) -> list:
    """'file:line name' of each private definition in trees (file name ->
    parsed module) that nothing references outside its own body."""
    refs = [(name, fname, line) for fname, tree in trees.items()
            for name, line in _references(tree)]
    dead = []
    for fname, tree in trees.items():
        for d in _private_definitions(tree):
            if not any(name == d.name and not (
                    ref_file == fname and d.lineno <= line <= d.end_lineno)
                    for name, ref_file, line in refs):
                dead.append(f"{fname}:{d.lineno} {d.name}")
    return dead


def test_every_private_function_and_method_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 5
    dead = dead_definitions(trees)
    assert not dead, "unreferenced private definitions: " + ", ".join(dead)


def test_the_guard_sees_dead_definitions():
    source = ("def _used():\n    return 1\n\n"
              "def _recursive():\n    return _recursive()\n\n"
              "class C:\n    def _method(self):\n        return _used()\n\n"
              "    def __init__(self):\n        pass\n")
    other = "from a import C\nC()._helper_elsewhere\n"
    trees = {"a.py": ast.parse(source), "b.py": ast.parse(other)}
    assert dead_definitions(trees) == ["a.py:4 _recursive", "a.py:8 _method"]
