"""glattice benchmark: one run of one workload, measured end to end.

    python3 bench/run.py --workload suite-full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints one line per metric (name, value,
unit), a line of run details (environment, failures, tail percentile),
and as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run.  README.md describes both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh interpreters started only to time set-up, this many before the
# run's own worker and as many after it.  The machine's speed drifts over
# seconds, so the samples are spread over the run; with the worker's own
# set-up they give the median reported as setup_s.
SETUP_SAMPLES_EACH_SIDE = 3
# run.py must exit within 180 s; the worker stops issuing work at 140 s.
WORKER_LIMIT_S = 165.0
# Traced runs must attribute at least this share of their wall time to
# the layers (the rest is the loop itself and the tracer's bookkeeping).
MIN_COVERAGE = 0.95

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.startswith("trace."):
        return "ratio"
    if name.endswith(".max_bits"):
        return "bits"
    return "count"


def tail(latency_ms: List[float]) -> Tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the highest whole
    percentile, from the median up, with at least ten samples beyond it.
    Below 20 samples none has; then the maximum, as percentile 100."""
    ordered = sorted(latency_ms)
    n = len(ordered)
    pct = next((p for p in range(99, 49, -1) if n * (100 - p) / 100.0 >= 10), None)
    if pct is None:
        return 100, ordered[-1], 0
    value = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return pct, value, sum(1 for x in ordered if x > value)


def environment(seed: int) -> Dict[str, object]:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def start_worker(args, setup_only: bool) -> Tuple[float, Optional[dict], str]:
    """Run one worker; returns (start time, its result or None, stderr)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return started, None, f"worker killed after {WORKER_LIMIT_S:g} s\n{err}"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return started, None, f"worker exited with code {proc.returncode}\n{err}"
    return started, json.loads(lines[-1]), err


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "glattice" / "__init__.py").is_file():
        print(f"no glattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    setup: List[Tuple[float, float]] = []  # (seconds, scale to reference speed)

    def time_setup() -> bool:
        for _ in range(SETUP_SAMPLES_EACH_SIDE):
            started, sample, err = start_worker(args, setup_only=True)
            if sample is None:
                print(err, file=sys.stderr)
                return False
            setup.append((sample["ready"] - started, sample["setup_scale"]))
        return True

    if not args.trace and not time_setup():
        return 1
    started, res, err = start_worker(args, setup_only=False)
    if res is None:
        print(err, file=sys.stderr)
        return 1
    if not args.trace:
        setup.append((res["ready"] - started, res["setup_scale"]))
        if not time_setup():
            return 1
    env["numpy"] = res["numpy"]

    attempted = res["attempted"]
    failures = res["failures"]
    correct = not failures
    details: Dict[str, object] = {
        "workload": args.workload,
        "environment": env,
        "passes": res["passes"],
        "fail_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    if args.trace:
        metrics = res["layers"]
        details["spans_file"] = res["spans_file"]
        coverage = metrics["trace.coverage"]
        if not MIN_COVERAGE <= coverage <= 1.0:
            correct = False
            details["attribution"] = f"layer self times cover {coverage:.3f} of wall time"
    else:
        latency = res["reference_latency_ms"]
        pct, tail_ms, beyond = tail(latency)
        metrics = {
            "ops_per_s": attempted / (sum(latency) / 1000.0),
            "op_p50_ms": statistics.median(latency),
            "op_tail_ms": tail_ms,
            "setup_s": statistics.median(secs * scale for secs, scale in setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        details["op_tail"] = {"percentile": pct, "samples": len(latency), "beyond": beyond}
        wall_latency = res["latency_ms"]
        details["wall_clock"] = {
            "ops_per_s": attempted / res["wall_s"],
            "op_p50_ms": statistics.median(wall_latency),
            "op_tail_ms": tail(wall_latency)[1],
            "setup_s": statistics.median(secs for secs, _ in setup),
        }
        details["calibration_ms_median"] = statistics.median(res["calibration_ms"])

    units = END_TO_END_UNITS if not args.trace else {k: per_layer_unit(k) for k in metrics}
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(f"{'fail_ratio':40s} {details['fail_ratio']:>16.6f} ratio")
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
