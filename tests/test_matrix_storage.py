"""Only ``intlinalg`` knows how an ``IntMatrix`` is stored.

Every other module builds and reads matrices through the ``IntMatrix``
API, so the storage can change inside one module.  This guard reads the
syntax tree of every ``src/glattice`` module except ``intlinalg`` and
fails on any attribute named ``a`` (the storage) and on any direct call
of the ``IntMatrix`` constructor, which takes that storage.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "glattice"


def storage_uses(src: Path = SRC) -> list:
    """(module, line) of each storage access outside ``intlinalg``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "intlinalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "a":
                found.append((path.stem, node.lineno))
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "IntMatrix":
                    found.append((path.stem, node.lineno))
    return sorted(found)


def test_no_module_but_intlinalg_touches_the_storage():
    assert storage_uses() == []


def test_guard_sees_a_storage_access(tmp_path):
    (tmp_path / "intlinalg.py").write_text("def f(m):\n    return m.a\n")
    (tmp_path / "reads.py").write_text("def f(m):\n    return m.a[0, 0]\n")
    (tmp_path / "writes.py").write_text("def f(m):\n    m.a[0, 0] = 1\n")
    (tmp_path / "builds.py").write_text(
        "import numpy as np\nfrom . import intlinalg\n\n"
        "x = IntMatrix(np.zeros((1, 1)))\ny = intlinalg.IntMatrix(z)\n"
    )
    (tmp_path / "clean.py").write_text(
        "a = 1\n\ndef f(m, a):\n    return m.to_lists(), IntMatrix.identity(a), m.entries\n"
    )
    assert storage_uses(tmp_path) == [("builds", 4), ("builds", 5), ("reads", 2), ("writes", 2)]
