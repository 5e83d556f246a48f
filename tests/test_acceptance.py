"""Acceptance suite: one test per criterion, run at its stated budget.

Each test prints a single pass/fail line (visible with `pytest -s` or on
failure).  Budgets are wall-clock seconds and are part of the contract.
"""

import json
import io
import time

from glattice.cli import main, run_check, suite_definition
from glattice.cohom import tate
from glattice.gflows import cayley_graph, flow_lattice
from glattice.gmod import (
    GLattice,
    augmentation_kernel,
    coset_lattice,
    regular,
    trivial,
)
from glattice.groups import (
    cyclic,
    semidirect,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
)
from glattice.intlinalg import IntMatrix
from reference import tate1_cyclic_direct


def _criterion(number, name, budget_s, fn):
    start = time.perf_counter()
    try:
        detail = fn() or ""
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    verdict = "PASS" if within else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {verdict} "
          f"({elapsed:.1f}s of {budget_s}s budget) {detail}")
    assert within, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_rank_formula():
    def body():
        report = run_check("rank-formula", {})
        assert len(report.details) >= 20
        assert report.ok, [d for d in report.details if d["status"] != "pass"]
        return f"{len(report.details)} graphs"

    _criterion(1, "rank formula on quick-suite graphs", 10, body)


def test_criterion_02_coflasqueness():
    def body():
        entries = [
            params
            for cid, params in suite_definition("full")
            if cid == "flow-coflasque"
        ]
        assert len(entries) >= 10
        for params in entries:
            report = run_check("flow-coflasque", params)
            assert report.ok, (params, [d for d in report.details if d["status"] != "pass"])
        return f"{len(entries)} group/generator pairs, zero tolerance"

    _criterion(2, "flow lattices coflasque through order 24", 60, body)


def test_criterion_03_cyclic_decomposition():
    def body():
        count = 0
        for n in range(2, 13):
            for gens in ("s", "s,s2" if n > 2 else "s,e"):
                report = run_check("cyclic-flows", {"n": n, "gens": gens})
                assert report.ok, (n, gens)
                count += 1
        return f"{count} instances"

    _criterion(3, "cyclic decomposition n=2..12, two generating sets", 10, body)


KERNEL_TUPLES = ((3, 2, 2), (5, 2, 4), (7, 3, 2), (5, 4, 2), (5, 4, 3))
_kernel_reports = {}


def test_criterion_04_kernel_presentation():
    def body():
        for (n, m, r) in KERNEL_TUPLES:
            report = run_check("kernel-generators", {"n": n, "m": m, "r": r})
            _kernel_reports[(n, m, r)] = report
            assert report.ok, ((n, m, r), [d for d in report.details if d["status"] != "pass"])
            rank = next(d for d in report.details if d["name"] == "kernel rank n+m-1")
            assert rank["detail"] == f"rank {n + m - 1}"
            span = next(
                d for d in report.details
                if d["name"] == "listed elements span the kernel saturated"
            )
            assert span["status"] == "pass"
        return f"{len(KERNEL_TUPLES)} parameter tuples"

    _criterion(4, "kernel generators for the split metacyclic groups", 60, body)


def test_criterion_05_direct_sum_certificate():
    def body():
        for tup in KERNEL_TUPLES:
            report = _kernel_reports.get(tup) or run_check(
                "kernel-generators", dict(zip("nmr", tup))
            )
            split = next(d for d in report.details
                         if d["name"] == "presentation sequence splits")
            iso = next(d for d in report.details
                       if d["name"] == "ker(pi) + M = Z[G/s] + Z[G/t] + ZG")
            assert split["status"] == "pass" and iso["status"] == "pass", tup
        return "split certificates verified inside criterion 4 runs"

    _criterion(5, "direct-sum certificate for every kernel instance", 60, body)


def test_criterion_06_tate_duality_cross_check():
    def body():
        lattices = []
        for group_spec, gens in (
            ("C:6", "s"), ("C:12", "s,s5"), ("X(C:2,C:2)", "*"),
            ("SD:3,2,2", "s,t"), ("D:4", "s,t"), ("SD:5,2,4", "s,t"), ("D:6", "s,t"),
        ):
            from glattice.cli import parse_generators, parse_group_spec

            G = parse_group_spec(group_spec)
            X = cayley_graph(G, parse_generators(G, gens))
            lattices.append((f"Fl({group_spec})", flow_lattice(X), False))
        G = semidirect(3, 2, 2)
        lattices.append(("regular(S3)", regular(G), True))
        lattices.append(
            ("Z[S3/<t>]", coset_lattice(G, subgroup_from_generators(G, [G.generator_indices["t"]])), True)
        )
        lattices.append(("trivial(C12)", trivial(cyclic(12)), True))
        C2 = cyclic(2)
        lattices.append(
            ("sign(C2)", GLattice(C2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])]), False)
        )
        C3 = cyclic(3)
        lattices.append(("I(C3)", augmentation_kernel(regular(C3))[0], False))
        pairs = 0
        for label, M, is_perm in lattices:
            for H in subgroup_conjugacy_reps(M.group):
                if not H.is_cyclic():
                    continue
                a = tate(M, H, 1)
                b = tate1_cyclic_direct(M, H)
                assert a == b, (label, H.elements, str(a), str(b))
                pairs += 1
                if is_perm:
                    # permutation lattices are flasque and coflasque: both
                    # degree-one routes (and degree minus one) vanish
                    assert a.is_trivial and b.is_trivial, (label, H.elements)
                    assert tate(M, H, -1).is_trivial, (label, H.elements)
        assert pairs >= 30
        return f"{pairs} lattice/subgroup pairs agree"

    _criterion(6, "Tate duality cross-check on quick-suite lattices", 30, body)


def test_criterion_07_bar_cocycle():
    def body():
        for group in ("C:2", "C:4", "SD:3,2,2", "D:4"):
            report = run_check("bar-cocycle", {"group": group})
            assert report.ok, group
        return "exhaustive triples for C2, C4, S3, D4"

    _criterion(7, "bar-basis two-cocycle identity", 10, body)


def test_criterion_08_center_walks():
    def body():
        for group in ("C:2", "C:3", "SD:3,2,2"):
            report = run_check("center-walks", {"group": group})
            assert report.ok, group
        return "walk spans equal the flow lattices"

    _criterion(8, "closed-walk span of the full Cayley graph", 30, body)


def test_criterion_09_schanuel_and_transfer():
    def body():
        for group, lattice in (
            ("C:2", "trivial"), ("C:2", "sign"), ("SD:3,2,2", "flows:cayley"),
        ):
            report = run_check("schanuel", {"group": group, "lattice": lattice})
            assert report.ok, (group, lattice)
        for (n, m, r) in ((3, 2, 2), (5, 2, 4), (7, 3, 2)):
            report = run_check("faithful-transfer", {"n": n, "m": m, "r": r})
            assert report.ok, (n, m, r)
        return "3 Schanuel lattices, 3 transfer tuples"

    _criterion(9, "Schanuel uniqueness and flasque-class transfer", 120, body)


def test_criterion_10_sn_restrictions():
    def body():
        for n in (4, 5):
            report = run_check("sn-restrictions", {"n": n})
            assert report.ok, n
        return "n=4 and n=5"

    _criterion(10, "symmetric-group restrictions", 60, body)


def test_criterion_11_determinism():
    def body():
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            code = main(["suite", "quick", "--output", "json"], out=buf)
            assert code == 0
            payload = json.loads(buf.getvalue())
            for check in payload["checks"]:
                check["elapsed_ms"] = 0
            outputs.append(json.dumps(payload, sort_keys=True))
        assert outputs[0] == outputs[1]
        return "byte-identical apart from elapsed fields"

    _criterion(11, "suite output determinism", 120, body)
