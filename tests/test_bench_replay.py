"""The benchmark's output oracle, replayed in the tier-1 suite.

Runs every operation any seed of any workload can issue (the
`suite-full` and `ladder` operations of `bench/workloads.py` and the
requests of `bench/queries.json`) once through `cli.main`, and compares
each output with the digest that `bench/digests.json` records for it,
using the benchmark's own check.  So byte-identical output is gated
here, not only in benchmark runs.
This only reads the files under `bench/`.
"""

import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from glattice import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_modules():
    """The benchmark's workload and worker modules, imported without
    writing bytecode under bench/."""
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write


workloads, worker = _bench_modules()
DIGESTS = json.loads((BENCH / "digests.json").read_text())
OPS = workloads.every_op()


def test_every_operation_has_a_recorded_digest():
    assert len(OPS) == 55 + 8 + 890
    assert sorted(map(workloads.op_key, OPS)) == sorted(DIGESTS)


@pytest.mark.parametrize("argv", OPS, ids=workloads.op_key)
def test_output_matches_the_recorded_digest(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    assert worker.check_output(argv, out.getvalue(), DIGESTS) == ""
