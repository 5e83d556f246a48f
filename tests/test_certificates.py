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
