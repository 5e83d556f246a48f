"""The three benchmark workloads, as lists of `glattice` argument vectors.

A run issues its workload in passes.  Pass k of a workload is a pure
function of (workload, seed, k), so the same seed always gives the same
inputs.  The seed changes which of several similar inputs run and in
which order, not how much work a run holds.  README.md says why each
workload was chosen.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, List

HERE = Path(__file__).resolve().parent

# The 55 checks of `glattice suite full --with-s5`, spelled as the
# `glattice check` calls that run them one by one.  They are written out
# here rather than read from the program, so that a change to the
# program's suite table cannot change the benchmark.
SUITE_FULL: List[List[str]] = (
    [["check", "rank-formula"]]
    + [
        ["check", "cyclic-flows", "--n", str(n), "--gens", gens]
        for n in range(2, 13)
        for gens in ("s", "s,s2" if n > 2 else "s,e")
    ]
    + [
        ["check", "flow-coflasque", "--group", group, "--gens", gens]
        for group, gens in (
            ("C:6", "s"),
            ("C:12", "s,s5"),
            ("X(C:2,C:2)", "*"),
            ("SD:3,2,2", "s,t"),
            ("D:4", "s,t"),
            ("SD:5,2,4", "s,t"),
            ("D:6", "s,t"),
            ("SD:5,4,2", "s,t"),
            ("SD:7,3,2", "s,t"),
            ("D:12", "s,t"),
            ("S:4", "(12),(1234)"),
        )
    ]
    + [
        ["check", check, "--n", str(n), "--m", str(m), "--r", str(r)]
        for check, (n, m, r) in (
            ("kernel-generators", (3, 2, 2)),
            ("kernel-generators", (5, 2, 4)),
            ("kernel-generators", (7, 3, 2)),
            ("kernel-generators", (5, 4, 2)),
            ("kernel-generators", (5, 4, 3)),
            ("faithful-transfer", (3, 2, 2)),
            ("faithful-transfer", (5, 2, 4)),
            ("faithful-transfer", (7, 3, 2)),
        )
    ]
    + [["check", "bar-cocycle", "--group", g] for g in ("C:2", "C:4", "SD:3,2,2", "D:4")]
    + [["check", "center-walks", "--group", g] for g in ("C:2", "C:3", "SD:3,2,2")]
    + [["check", "sn-restrictions", "--n", str(n)] for n in (3, 4, 5)]
    + [
        ["check", "schanuel", "--group", group, "--lattice", lattice]
        for group, lattice in (
            ("C:2", "trivial"),
            ("C:2", "sign"),
            ("SD:3,2,2", "flows:cayley"),
        )
    ]
)

# bar-cocycle on one group of each order, drawn from a pool of groups of
# that order.
LADDER_POOLS: List[List[str]] = [
    ["C:12", "D:6"],
    ["C:14", "D:7"],
    ["C:16", "D:8", "X(C:4,C:4)", "X(C:2,C:8)"],
]


def _load_query_cells() -> List[Dict[str, object]]:
    with open(HERE / "queries.json") as fh:
        return json.load(fh)


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def suite_full_pass(seed: int, k: int) -> List[List[str]]:
    ops = [list(argv) for argv in SUITE_FULL]
    _rng("suite-full", seed, k).shuffle(ops)
    return ops


def ladder_pass(seed: int, k: int) -> List[List[str]]:
    # One seeded permutation per pool, walked pass by pass, so that the
    # passes of a run cover each pool as evenly as they can.
    rng = _rng("ladder", seed, 0)
    ops = []
    for pool in LADDER_POOLS:
        order = list(pool)
        rng.shuffle(order)
        ops.append(["check", "bar-cocycle", "--group", order[k % len(order)]])
    return ops


def queries_pass(seed: int, k: int, cells: List[Dict[str, object]]) -> List[List[str]]:
    # Each cell holds requests of one kind and about the same cost, so a
    # fixed number of draws per cell keeps the work of a pass the same
    # whatever the seed draws.
    rng = _rng("queries", seed, k)
    ops = [
        list(rng.choice(cell["requests"]))
        for cell in cells
        for _ in range(int(cell["draws"]))
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = ("suite-full", "ladder", "queries")

# A run issues whole passes until --seconds have passed and at least this
# many passes are done.  Two passes put the tail percentile of suite-full
# at p90; two ladder passes run both groups of order 12 and 14 and two of
# the four of order 16; two query passes draw every cell four times.
MIN_PASSES = {"suite-full": 2, "ladder": 2, "queries": 2}


def passes(workload: str, seed: int) -> Iterator[List[List[str]]]:
    """Endless stream of passes for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cells = _load_query_cells() if workload == "queries" else []
    k = 0
    while True:
        if workload == "suite-full":
            yield suite_full_pass(seed, k)
        elif workload == "ladder":
            yield ladder_pass(seed, k)
        else:
            yield queries_pass(seed, k, cells)
        k += 1


def every_op() -> List[List[str]]:
    """Every argument vector any seed of any workload can issue."""
    ops = [list(argv) for argv in SUITE_FULL]
    ops += [["check", "bar-cocycle", "--group", g] for pool in LADDER_POOLS for g in pool]
    for cell in _load_query_cells():
        ops += [list(argv) for argv in cell["requests"]]
    return ops


def op_key(argv: List[str]) -> str:
    return " ".join(argv)
