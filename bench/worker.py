"""One benchmark run inside a fresh interpreter.

Started by run.py; record.py imports its helpers.  The worker caps its
own address space, imports glattice from the checkout's `src/`, generates
its inputs from the seed and then issues them one at a time, each as one
in-process `glattice.cli.main([...])` call (a closed loop with a single
client).  Each output is checked against the digests recorded in
digests.json.  While it runs, the worker also times a fixed calibration
workload, so that run.py can state times at a reference machine speed
(README.md).  The last line of standard output is one JSON object for
run.py.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Far above the ~60 MB the workloads need, far below the machine's memory.
ADDRESS_SPACE_BYTES = 2 << 30
# Per-operation limits: several times the slowest operation of each workload.
OP_TIMEOUT_S = {"suite-full": 40.0, "ladder": 60.0, "queries": 5.0}
# No operation starts after this; run.py kills the worker at its own limit.
RUN_LIMIT_S = 140.0
# CPU time between two timings of the calibration workload.
CALIBRATE_EVERY_S = 0.25
# Times are stated as if the calibration workload took this long.
REFERENCE_CALIBRATION_S = 0.003


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _zero_elapsed(obj):
    if isinstance(obj, dict):
        return {k: 0 if k == "elapsed_ms" else _zero_elapsed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_elapsed(v) for v in obj]
    return obj


def output_digest(text: str):
    """The parsed output and the SHA-256 of its canonical form, elapsed_ms zeroed."""
    obj = json.loads(text)
    canonical = json.dumps(_zero_elapsed(obj), sort_keys=True, separators=(",", ":"))
    return obj, hashlib.sha256(canonical.encode()).hexdigest()


def run_op(cli, argv: List[str], timeout_s: float):
    """Run one operation: (exit code or None, stdout, failure reason, ms)."""
    out, err = io.StringIO(), io.StringIO()
    rc: Optional[int] = None
    why = ""
    t = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv, out=out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        why = f"timed out after {timeout_s:g} s"
    except MemoryError:
        why = "out of memory"
    except Exception as exc:  # the loop must go on; the failure is reported
        why = f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t) * 1000.0
    if not why and rc != 0:
        why = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return rc, out.getvalue(), why, ms


def check_output(argv: List[str], text: str, digests: Dict[str, str]) -> str:
    """Empty when the output is the recorded one (and a passing check)."""
    try:
        obj, digest = output_digest(text)
    except ValueError:
        return "output is not JSON"
    if argv[0] == "check" and obj.get("status") != "pass":
        return f"check status {obj.get('status')!r}"
    expected = digests.get(workloads.op_key(argv))
    if expected is None:
        return "no recorded digest"
    if digest != expected:
        return "output differs from the recorded digest"
    return ""


class Speedometer:
    """Times a fixed calibration workload to track the machine's speed.

    The workload is like glattice's own in kind: an object-dtype matrix
    product and a loop of Python integer arithmetic.  It is part of the
    benchmark, so no change to the program changes it.  While running,
    a profiling timer samples it every CALIBRATE_EVERY_S of CPU time,
    in the middle of operations too.
    """

    def __init__(self) -> None:
        import numpy as np

        self._dot = np.dot
        self._a = np.array([[(i * 7 + j * 3) % 19 - 9 for j in range(40)] for i in range(40)],
                           dtype=object)
        self._b = self._a.T.copy()
        self.samples: List[tuple] = []  # (perf_counter at start, seconds)

    def sample(self, *_signal_args) -> float:
        t = time.perf_counter()
        self._dot(self._a, self._b)
        x = 0
        for i in range(10000):
            x += i * i
        took = time.perf_counter() - t
        self.samples.append((t, took))
        return took

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.sample()

    def scale(self, took: float) -> float:
        """Factor that states a time at the reference machine speed."""
        return REFERENCE_CALIBRATION_S / took

    def reference_ms(self, ops: List[tuple]) -> List[float]:
        """Each operation's time had the calibration taken the reference
        time.  The samples taken during an operation are removed from its
        time; they and the samples just before and after it judge its
        speed."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, ms in ops:
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_right(starts, start + ms / 1000.0)
            inside = [took for _, took in self.samples[lo:hi]]
            near = inside + [self.samples[j][1] for j in (lo - 1, hi) if 0 <= j < len(self.samples)]
            net_ms = ms - 1000.0 * sum(inside)
            out.append(net_ms * self.scale(sum(near) / len(near)))
        return out


class Loop:
    """The closed loop: one operation at a time, results kept in memory."""

    def __init__(self, cli, digests: Dict[str, str], timeout_s: float, deadline: float):
        self.cli = cli
        self.digests = digests
        self.timeout_s = timeout_s
        self.deadline = deadline
        self.ops: List[tuple] = []  # (perf_counter at start, ms)
        self.attempted = 0
        self.failures: List[str] = []

    def run_pass(self, ops: List[List[str]], tracer=None) -> float:
        t = time.perf_counter()
        for i, argv in enumerate(ops):
            left = self.deadline - time.monotonic()
            if left <= 0:
                self.failures.append("run limit reached before the pass ended")
                break
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            rc, text, why, ms = run_op(self.cli, argv, min(self.timeout_s, left))
            if not why:
                why = check_output(argv, text, self.digests)
            self.attempted += 1
            self.ops.append((start, ms))
            if why:
                self.failures.append(f"{workloads.op_key(argv)}: {why}")
        return time.perf_counter() - t

    def latency_ms(self) -> List[float]:
        return [ms for _, ms in self.ops]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from glattice import cli

    with open(HERE / "digests.json") as fh:
        digests = json.load(fh)
    stream = workloads.passes(args.workload, args.seed)
    ops = next(stream)
    ready = time.monotonic()
    speed = Speedometer()
    if args.setup_only:
        took = sorted(speed.sample() for _ in range(3))[1]
        print(json.dumps({"ready": ready, "setup_scale": speed.scale(took)}))
        return 0

    result: Dict[str, object] = {"ready": ready, "numpy": numpy.__version__}
    if args.trace:
        from tracer import Tracer

        loop = Loop(cli, digests, OP_TIMEOUT_S[args.workload], deadline)
        wall_untraced = loop.run_pass(ops)
        tracer = Tracer()
        tracer.install()
        wall_traced = loop.run_pass(ops, tracer)
        result["layers"] = tracer.metrics(wall_traced, wall_untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}.tsv"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["passes"] = 2
    else:
        loop = Loop(cli, digests, OP_TIMEOUT_S[args.workload], deadline)
        speed.start()
        t0 = time.perf_counter()
        passes = 0
        # Whole passes only, so every run measures the same mix of work.
        while True:
            loop.run_pass(ops)
            passes += 1
            done = (passes >= workloads.MIN_PASSES[args.workload]
                    and time.perf_counter() - t0 >= args.seconds)
            if done or time.monotonic() >= deadline:
                break
            ops = next(stream)
        result["wall_s"] = time.perf_counter() - t0
        speed.stop()
        result["passes"] = passes
        result["reference_latency_ms"] = speed.reference_ms(loop.ops)
        result["setup_scale"] = speed.scale(speed.samples[0][1])
        result["calibration_ms"] = [1000 * took for _, took in speed.samples]
    result["latency_ms"] = loop.latency_ms()
    result["attempted"] = loop.attempted
    result["failures"] = loop.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
