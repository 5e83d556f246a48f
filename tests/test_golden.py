"""Golden output: `suite quick --output json` must not change.

The suite's JSON output, with every `elapsed_ms` value replaced by 0,
is pinned by its SHA-256.  A change that alters any report (a status,
a detail string, a certificate summary, the key order or the layout)
fails here.  After an intended change of output, print the new digest
with

    PYTHONPATH=src python tests/test_golden.py

and replace SUITE_QUICK_SHA256.
"""

import hashlib
import io
import re

from glattice.cli import main

SUITE_QUICK_SHA256 = "b17e9940bda0a75c821add4d9e4af107c35fbf736f50893b7ea7240825210071"

_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def suite_quick_digest() -> str:
    buf = io.StringIO()
    assert main(["suite", "quick", "--output", "json"], out=buf) == 0
    text = _ELAPSED.sub('"elapsed_ms": 0', buf.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def test_suite_quick_output_unchanged():
    assert suite_quick_digest() == SUITE_QUICK_SHA256


if __name__ == "__main__":
    print(suite_quick_digest())
