"""The library eliminates over the integers only.

Every certificate reduces to one integer elimination, the row Hermite
form: nothing is computed modulo a prime and nothing over the
rationals.  This guard reads the syntax tree of every ``src/glattice``
module and fails on any import of ``fractions``, so that no rational
elimination returns beside the integer one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "glattice"


def modules_importing_fractions(src: Path = SRC) -> list:
    """Names of the modules under src that import ``fractions``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.append(path.stem)
                break
    return found


def test_no_module_imports_fractions():
    assert modules_importing_fractions() == []


def test_guard_sees_an_import(tmp_path):
    (tmp_path / "a.py").write_text("def f():\n    from fractions import Fraction\n    return Fraction(1)\n")
    (tmp_path / "b.py").write_text("import fractions as q\n")
    (tmp_path / "c.py").write_text("from . import fractions_like\nx = 'fractions'\n")
    assert modules_importing_fractions(tmp_path) == ["a", "b"]
