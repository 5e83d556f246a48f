"""Certificate conditions are checks that raise, never bare `assert`s.

`python -O` strips `assert` statements, so a certificate condition written
as one would silently stop being checked.  The library uses
`errors.certify` instead, which raises `CertificateError` under every
interpreter flag.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glattice
from glattice.errors import CertificateError, GlatticeError, certify
from test_golden import SUITE_QUICK_SHA256

SRC = Path(glattice.__file__).resolve().parent


def test_no_assert_statements_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_certify_raises_a_library_error():
    certify(True, "holds")
    with pytest.raises(CertificateError, match="the map is unimodular") as err:
        certify(False, "the map is unimodular")
    assert isinstance(err.value, GlatticeError)


def test_certificates_and_output_survive_optimize_flag():
    tests = Path(__file__).resolve().parent
    script = (
        "from glattice.errors import CertificateError, certify\n"
        "try:\n"
        "    certify(False, 'x')\n"
        "except CertificateError:\n"
        "    print('raised')\n"
        "from test_golden import suite_quick_digest\n"
        "print(suite_quick_digest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), str(tests)])},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", SUITE_QUICK_SHA256]


def unfired_certificates(src: Path = SRC, tests: Path = Path(__file__).resolve().parent) -> list:
    """(module, line, message) of each ``certify(cond, "message")`` in src
    whose message appears in no test file under tests: a guard that no
    test names is a guard that no test is known to fire.  A message that
    is not a string literal is listed as None."""
    text = "".join(path.read_text() for path in sorted(tests.glob("test_*.py")))
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "certify":
                what = node.args[1] if len(node.args) == 2 else None
                message = what.value if isinstance(what, ast.Constant) else None
                if not isinstance(message, str) or message not in text:
                    found.append((path.stem, node.lineno, message))
    return found


def test_every_certificate_message_is_named_by_a_test():
    assert unfired_certificates() == []


def test_guard_sees_an_unnamed_certificate(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "checked.py").write_text(
        "from .errors import certify\n\n"
        "def f(x):\n"
        '    certify(x > 0, "x is positive")\n'
        '    certify(x < 9, "x is small")\n'
        '    certify(x != 5, f"x is not {5}")\n'
    )
    (tests / "test_checked.py").write_text('MATCH = "x is positive"\n')
    (tests / "helpers.py").write_text('MATCH = "x is small"\n')  # not a test file
    assert unfired_certificates(src, tests) == [("checked", 5, "x is small"), ("checked", 6, None)]
