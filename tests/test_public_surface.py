"""Every public name of the library is reached from the library itself.

The commands and checks are the library's purpose, so a public function,
class or method that no ``src/`` code refers to is surface that nothing
runs.  References are read off the syntax tree, anywhere in
``src/glattice`` outside the definition itself: a bare name or an
attribute for a module-level name, an attribute for a method.  Names are
matched without types, so a method counts as reached when any attribute
of that name is read; the guard catches dead code, not every unused
method.

Unreached definitions are removed from the reference pool and the scan
repeats, so a name reached only from dead code is reported too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "glattice"

# the console script named in pyproject.toml
ENTRY_POINTS = {"cli.main_entry"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node, is a method) of the public
    functions and classes at module level, and of the public methods of
    those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and _public(node.name):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _references(tree: ast.Module, owners: set):
    """(name, is an attribute, enclosing definitions) of every name read
    as a bare name or an attribute; the enclosing definitions are those
    in owners."""
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if id(node) in owners:
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, False, inside
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, inside
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def unreached_names(src: Path = SRC) -> list:
    """Qualified names of the public definitions that no other library
    code refers to, iterated until the dead code refers to nothing live.

    A method is reached only through an attribute; a module-level name
    through a bare name or an attribute of its module.
    """
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(src.glob("*.py"))
    }
    defs = {
        id(node): (qualname, name, is_method)
        for module, tree in trees.items()
        for qualname, name, node, is_method in _definitions(module, tree)
        if qualname not in ENTRY_POINTS
    }
    refs: dict = {}
    for tree in trees.values():
        for name, is_attr, inside in _references(tree, set(defs)):
            refs.setdefault(name, []).append((is_attr, inside))
    dead: set = set()
    while True:
        newly = {
            key for key, (_, name, is_method) in defs.items()
            if key not in dead
            and all(
                key in inside or inside & dead or (is_method and not is_attr)
                for is_attr, inside in refs.get(name, [])
            )
        }
        if not newly:
            return sorted(defs[key][0] for key in dead)
        dead |= newly


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_guard_sees_an_unreached_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def dead_caller():\n    return only_dead_calls_me()\n\n"
        "def only_dead_calls_me():\n    return only_dead_calls_me()\n\n"
        "class K:\n    def method(self):\n        return used()\n\n"
        "    def shadowed(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import K\n\nshadowed = 1\nK().method()\n"
    )
    assert unreached_names(tmp_path) == [
        "a.K.shadowed", "a.dead_caller", "a.only_dead_calls_me"
    ]
