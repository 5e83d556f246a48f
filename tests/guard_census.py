"""Guard census: which certificate guards and internal raises tier-1 kills.

Each ``certify(...)`` call in ``src/glattice`` and each ``raise`` statement
in ``cohom``, ``gmod``, ``gflows`` and ``intlinalg`` is turned into
``pass``, one at a time, in a temporary copy of the tree, and the tier-1
suite runs on that copy with ``-x -q``, one pytest process at a time.
A mutant is killed when a test fails (the line names the first one) or
the run exceeds three times the length of the unmutated run; it survived
when every test passes.  A guard whose mutant survives is either the only
evidence for its fact and wants a test that fires it, or is covered by a
later certificate and can go.

Usage, from the root of the repository::

    python tests/guard_census.py                     # every site
    python tests/guard_census.py checks.py cohom.py:285

Arguments keep only the sites that start with one of them.  Each site
prints one line, ``<module>.py:<line> certify|raise killed by <test>`` or
``... survived``, then a count.  The unmutated copy runs first and must
pass.  pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[1]
RAISE_MODULES = ("cohom", "gmod", "gflows", "intlinalg")
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def guard_sites(src: Path) -> List[Tuple[str, str, ast.stmt]]:
    """(file name, kind, statement) of every guard, in file and line order:
    the statements that are a ``certify(...)`` call in every module, and the
    ``raise`` statements of ``RAISE_MODULES``."""
    sites = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "certify"):
                sites.append((path.name, "certify", node))
            elif isinstance(node, ast.Raise) and path.stem in RAISE_MODULES:
                sites.append((path.name, "raise", node))
    return sorted(sites, key=lambda site: (site[0], site[2].lineno))


def mutate(text: str, node: ast.stmt) -> str:
    """text with the statement node replaced by ``pass``, keeping every
    other line where it was."""
    lines = text.split("\n")
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = lines[first][:node.col_offset], lines[last][node.end_col_offset:]
    lines[first:last + 1] = [head + "pass" + tail] + [""] * (last - first)
    return "\n".join(lines)


def run_tier1(tree: Path, timeout: float) -> Tuple[int, str]:
    """(exit code, output) of tier-1 on tree; exit code None past timeout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def first_failure(output: str) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return found.group(1) if found else "an error outside the tests"


def main(prefixes: List[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        src = tree / "src" / "glattice"
        start = time.perf_counter()
        code, output = run_tier1(tree, timeout=3600)
        if code != 0:
            print(f"the unmutated tree fails tier-1: {first_failure(output)}")
            return 1
        timeout = 3 * (time.perf_counter() - start)
        sites = [(name, kind, node) for name, kind, node in guard_sites(src)
                 if not prefixes or any(f"{name}:{node.lineno}".startswith(p) for p in prefixes)]
        survived = 0
        for name, kind, node in sites:
            path = src / name
            text = path.read_text()
            path.write_text(mutate(text, node))
            try:
                code, output = run_tier1(tree, timeout)
            finally:
                path.write_text(text)
            if code == 0:
                verdict = "survived"
                survived += 1
            elif code is None:
                verdict = f"killed by the {timeout:.0f} s timeout"
            else:
                verdict = f"killed by {first_failure(output)}"
            print(f"{name}:{node.lineno} {kind} {verdict}", flush=True)
        print(f"{len(sites) - survived} killed, {survived} survived of {len(sites)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
