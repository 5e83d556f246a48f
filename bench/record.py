"""Record the output digests that the benchmark's oracle compares against.

    python3 bench/record.py

Runs every operation any workload can issue, once, and rewrites
digests.json.  Only run it at a commit whose outputs are known to be
right: after it, the benchmark accepts exactly those outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import output_digest, run_op  # noqa: E402


def main() -> int:
    from glattice import cli

    digests = {}
    for argv in workloads.every_op():
        key = workloads.op_key(argv)
        if key in digests:
            continue
        rc, text, why, _ = run_op(cli, argv, timeout_s=600.0)
        if why:
            print(f"{key}: {why}", file=sys.stderr)
            return 1
        obj, digests[key] = output_digest(text)
        if argv[0] == "check" and obj.get("status") != "pass":
            print(f"{key}: status {obj.get('status')!r}", file=sys.stderr)
            return 1
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
