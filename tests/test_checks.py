"""Named checks: every report assertion must carry its own verdict."""

import itertools
import json
import time

import pytest

import glattice.checks as checks_mod
from glattice import cohom, gflows, gmod
from glattice.cli import main, parse_group_spec, parse_lattice_spec
from glattice.errors import GlatticeError, InvalidParameterError
from glattice.gflows import SpanningTreeBasisError, boundary_matrix, cayley_graph, flow_lattice
from glattice.gmod import GLattice, ShortExactSequence, trivial
from glattice.groups import cyclic, dihedral, direct_product, semidirect, symmetric
from glattice.intlinalg import IntMatrix, column_span_canonical
from glattice.checks import (
    CheckReport,
    check_bar_cocycle,
    check_center_walks,
    check_cyclic_flows,
    check_faithful_transfer,
    check_flow_coflasque,
    check_kernel_generators,
    check_rank_formula,
    check_schanuel,
    check_sn_restrictions,
)
from reference import quick_suite_graphs, saturation


def detail(report, name):
    return next(d for d in report.details if d["name"] == name)


class TestCyclicFlows:
    def test_single_generator(self):
        rep = check_cyclic_flows(3, [1])
        assert rep.ok
        assert "m=0" in detail(rep, "free rank")["detail"]

    def test_two_generators(self):
        rep = check_cyclic_flows(6, [1, 2])
        assert rep.ok
        assert "m=1" in detail(rep, "free rank")["detail"]

    def test_all_nonidentity(self):
        rep = check_cyclic_flows(12, list(range(1, 12)))
        assert rep.ok
        assert "m=10" in detail(rep, "free rank")["detail"]

    def test_missing_rotation_rejected(self):
        with pytest.raises(InvalidParameterError, match="rotation"):
            check_cyclic_flows(6, [2, 3])


class TestKernelGenerators:
    @pytest.mark.parametrize(
        "n,m,r,rank", [(3, 2, 2, 4), (5, 2, 4, 6), (7, 3, 2, 9)]
    )
    def test_examples(self, n, m, r, rank):
        rep = check_kernel_generators(n, m, r)
        assert rep.ok, [d for d in rep.details if d["status"] != "pass"]
        assert detail(rep, "kernel rank n+m-1")["detail"] == f"rank {rank}"

    @pytest.mark.parametrize("n,m,r", [(3, 2, 2), (5, 4, 2), (7, 3, 2), (5, 6, 4)])
    def test_v_vectors_equal_the_term_by_term_sum(self, n, m, r):
        """v(e) = sum of t^j s^i a over j < m and i < r^j, plus (r^m - 1)/n s
        + t - s t, one term at a time, against the sum by multiplicity."""
        data = checks_mod._metacyclic_presentation(n, m, r)
        G, B = data.G, data.pres.B
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        terms = [(1, B.gset.move(G.mul(G.power(t, j), G.power(s, i)), {m + n + G.identity: 1}))
                 for j in range(m) for i in range(r ** j)]
        terms += [((r ** m - 1) // n, {0: 1}), (1, {m: 1}), (-1, B.gset.move(s, {m: 1}))]
        v_e = {}
        for c, vec in terms:
            for k, x in vec.items():
                v_e[k] = v_e.get(k, 0) + c * x
        want = IntMatrix.from_sparse_columns(B.rank, [B.gset.move(g, v_e) for g in G.elements()])
        assert data.v_vectors == want

    def test_inverting_twist_of_long_order_is_fast(self):
        """t inverts s, so r^j runs to 4^11 = 4,194,304 at m = 12; summed by
        multiplicity, the check takes a fraction of a second."""
        start = time.perf_counter()
        rep = check_kernel_generators(5, 12, 4)
        assert time.perf_counter() - start < 1.0
        assert rep.ok and detail(rep, "kernel rank n+m-1")["detail"] == "rank 16"

    def test_coprimality_required(self):
        with pytest.raises(InvalidParameterError, match="coprime"):
            check_kernel_generators(4, 2, 3)

    def test_trivial_twist_rejected(self):
        with pytest.raises(InvalidParameterError, match="r != 1"):
            check_kernel_generators(5, 2, 1)

    @pytest.mark.parametrize("n, m, r, fwd_bits, back_bits", [
        (3, 2, 2, 2, 2), (5, 2, 4, 5, 5), (7, 3, 2, 5, 5),
        (5, 4, 2, 4, 6), (5, 4, 3, 23, 22), (5, 12, 4, 106, 106),
    ])
    def test_split_entries_do_not_grow(self, n, m, r, fwd_bits, back_bits):
        """The largest entries of the presentation's split iso and of its
        inverse, in bits, at most as they are today: growth shows here
        before any composition of these isos multiplies it."""
        iso = cohom.split_iso(checks_mod._metacyclic_presentation(n, m, r).pres)

        def bits(matrix):
            return max(abs(x) for row in matrix.to_lists() for x in row).bit_length()

        assert bits(iso.matrix) <= fwd_bits and bits(iso.inverse().matrix) <= back_bits

    def test_reports_are_reproducible(self):
        a = check_kernel_generators(3, 2, 2).to_json_dict()
        b = check_kernel_generators(3, 2, 2).to_json_dict()
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert a == b


class TestFlowCoflasque:
    def test_klein_four_full_generators(self):
        G = direct_product(cyclic(2), cyclic(2))
        rep = check_flow_coflasque(G, [g for g in G.elements() if g != G.identity])
        assert rep.ok

    def test_semidirect_5_4_2(self):
        G = semidirect(5, 4, 2)
        rep = check_flow_coflasque(G, [G.generator_indices["s"], G.generator_indices["t"]])
        assert rep.ok

    def test_s4_with_transposition_and_cycle(self):
        G = symmetric(4)
        swap = G.point_action.index((1, 0, 2, 3))
        four = G.point_action.index((1, 2, 3, 0))
        rep = check_flow_coflasque(G, [swap, four])
        assert rep.ok

    def test_non_generating_set_rejected(self):
        G = symmetric(3)
        with pytest.raises(InvalidParameterError, match="generate"):
            check_flow_coflasque(G, [G.identity])


class TestBarCocycle:
    @pytest.mark.parametrize(
        "G,count",
        [
            (cyclic(2), 8),
            (semidirect(3, 2, 2), 216),
            (dihedral(4), 512),
        ],
        ids=["C2", "S3", "D4"],
    )
    def test_exhaustive_triples(self, G, count):
        rep = check_bar_cocycle(G)
        assert rep.ok
        assert detail(rep, "two cocycle condition")["detail"] == f"{count} triples"

    def test_too_small_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_bar_cocycle(cyclic(1))

    def test_program_fault_reaches_the_cli(self, monkeypatch, capsys):
        def broken(*args):
            raise TypeError("unhashable type: 'list'")

        monkeypatch.setattr(checks_mod, "spanning_tree_basis_of_arrays", broken)
        assert main(["check", "bar-cocycle", "--group", "C:4"]) == 3
        assert "internal error: TypeError" in capsys.readouterr().err

    def test_refused_basis_is_a_failed_check(self, monkeypatch, capsys):
        message = "diagonal entry f_0(e_4) = 2 is not +-1"

        def refusing(*args):
            raise SpanningTreeBasisError(message)

        monkeypatch.setattr(checks_mod, "spanning_tree_basis_of_arrays", refusing)
        assert main(["check", "bar-cocycle", "--group", "C:4"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "fail"
        assert report["assertions"] == [
            {"name": "basis certified by the star tree", "status": "fail", "detail": message}
        ]


class TestReportRun:
    def test_toolkit_error_is_a_failed_assertion(self):
        ck = CheckReport("demo", "C:1", {})

        def refused():
            raise InvalidParameterError("map is not equivariant at element 1")

        assert ck.run("equivariant", refused) is False
        assert ck.finish().details == [{
            "name": "equivariant", "status": "fail",
            "detail": "InvalidParameterError: map is not equivariant at element 1",
        }]

    def test_program_fault_is_raised(self):
        ck = CheckReport("demo", "C:1", {})
        with pytest.raises(TypeError):
            ck.run("unpacks a pair", lambda: None)
        assert ck.details == []


class TestCenterWalks:
    @pytest.mark.parametrize(
        "G,rank",
        [(cyclic(2), 3), (cyclic(3), 7), (semidirect(3, 2, 2), 31)],
        ids=["C2", "C3", "S3"],
    )
    def test_span(self, G, rank):
        rep = check_center_walks(G)
        assert rep.ok
        assert detail(rep, "rank formula")["detail"] == f"rank {rank}"

    @pytest.mark.parametrize("spec", ["C:2", "C:3", "C:4", "SD:3,2,2", "D:4"])
    def test_rank_rule_agrees_with_saturation(self, spec):
        """Closed walks of length up to 4: W's saturated span is Fl exactly
        when W's columns are flows of full rank, and the check stops at the
        first length where that holds."""
        G = parse_group_spec(spec)
        X = cayley_graph(G, list(range(G.order)))
        fl = flow_lattice(X)
        boundary = boundary_matrix(X).matrix
        idx = X.edge_index()
        flows, verdicts = set(), []
        for length in range(1, 5):
            for steps in itertools.product(range(G.order), repeat=length - 1):
                vec, v = [0] * X.n_edges, G.identity
                for s in steps:
                    vec[idx[(v, G.mul(v, s))]] += 1
                    v = G.mul(v, s)
                vec[idx[(v, G.identity)]] += 1  # the step back to the identity
                flows.add(tuple(vec))
            W = IntMatrix.from_columns(sorted(flows), rows=X.n_edges)
            by_rank = (boundary @ W).is_zero() and column_span_canonical(W).cols == fl.rank
            assert by_rank == (saturation(W) == fl.basis)
            verdicts.append(by_rank)
        assert not verdicts[0] and verdicts[-1]
        rep = check_center_walks(G)
        assert detail(rep, "saturated walk span equals the flow lattice")["detail"].startswith(
            f"walk length {verdicts.index(True) + 1},"
        )


class TestSnRestrictions:
    def test_n3_smoke(self):
        rep = check_sn_restrictions(3)
        assert rep.ok
        assert detail(rep, "rank formula")["detail"] == "rank 4"

    def test_n4(self):
        rep = check_sn_restrictions(4)
        assert rep.ok
        assert detail(rep, "rank formula")["detail"] == "rank 9"

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            check_sn_restrictions(6)


class TestFaithfulTransfer:
    @pytest.mark.parametrize("n,m,r", [(3, 2, 2), (5, 2, 4)])
    def test_examples(self, n, m, r):
        rep = check_faithful_transfer(n, m, r)
        assert rep.ok, [d for d in rep.details if d["status"] != "pass"]


class TestSchanuel:
    def test_trivial_and_sign(self):
        C2 = cyclic(2)
        assert check_schanuel(trivial(C2), "C:2", "trivial").ok
        sign = GLattice(C2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
        assert check_schanuel(sign, "C:2", "sign").ok


class TestRankFormula:
    def test_quick_collection(self):
        graphs = quick_suite_graphs()
        assert len(graphs) >= 20
        rep = check_rank_formula(graphs)
        assert rep.ok
        assert len(rep.details) == len(graphs)


class TestReportShape:
    def test_json_schema(self):
        rep = check_cyclic_flows(4, [1])
        data = rep.to_json_dict()
        assert set(data) == {
            "check_id", "group", "parameters", "status", "assertions", "elapsed_ms",
        }
        for a in data["assertions"]:
            assert set(a) == {"name", "status", "detail"}


# -- a check reads the certificate a split hands it ------------------------------------------


def count_work(monkeypatch):
    """Counts of the calls of EquivariantMap.equivariance_failure and of
    check_exact, from every module that calls the latter."""
    counts = {"equivariance": 0, "exactness": 0}
    failure, exact = gmod.EquivariantMap.equivariance_failure, gmod.check_exact

    def counted_failure(self):
        counts["equivariance"] += 1
        return failure(self)

    def counted_exact(seq):
        counts["exactness"] += 1
        return exact(seq)

    monkeypatch.setattr(gmod.EquivariantMap, "equivariance_failure", counted_failure)
    for module in (cohom, checks_mod):
        monkeypatch.setattr(module, "check_exact", counted_exact)
    return counts


class TestWorkCounts:
    """Each split is validated once, by split_iso; the rest of the count is
    the presentation map, the basepoint and projection maps of
    kernel-generators, the middle column of faithful-transfer and the two
    resolutions of schanuel, whose checks are the only evidence for them."""

    @pytest.mark.parametrize("argv, equivariance, exactness", [
        (["schanuel", "--group", "SD:3,2,2", "--lattice", "flows:cayley"], 6, 2),
        (["faithful-transfer", "--n", "7", "--m", "3", "--r", "2"], 5, 1),
        (["kernel-generators", "--n", "7", "--m", "3", "--r", "2"], 4, 0),
        (["cyclic-flows", "--n", "7", "--gens", "s,s2"], 1, 0),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_no_certified_fact_is_checked_again(self, argv, equivariance, exactness,
                                                monkeypatch, capsys):
        counts = count_work(monkeypatch)
        assert main(["check", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        assert counts == {"equivariance": equivariance, "exactness": exactness}


def raise_entry(m, i, j):
    """m with entry (i, j) raised by 1."""
    rows = m.to_lists()
    rows[i][j] += 1
    return IntMatrix.from_rows(rows)


def corrupt_sections(monkeypatch, i, j):
    """Make every split that is handed a section receive it with entry
    (i, j) raised by 1, negative indices counting from the end."""
    for module in (checks_mod, gflows):
        split = module.split_iso

        def corrupted(seq, split=split):
            if seq.section is None:
                return split(seq)
            changed = raise_entry(seq.section(), i, j)
            return split(ShortExactSequence(seq.left, seq.right, section=lambda: changed))

        monkeypatch.setattr(module, "split_iso", corrupted)


class TestCorruptedCertificate:
    """A section with one wrong entry is refused by the split, so the check
    that reads the split's certificate raises; it never reports a pass."""

    ENTRIES = [(0, 0), (-1, -1), (3, 1)]

    @pytest.mark.parametrize("i, j", ENTRIES)
    def test_schanuel_pullback_row(self, i, j, monkeypatch, capsys):
        G = parse_group_spec("SD:3,2,2")
        M = parse_lattice_spec(G, "flows:cayley")
        corrupt_sections(monkeypatch, i, j)
        with pytest.raises(GlatticeError):
            check_schanuel(M, G.spec, "flows:cayley")
        argv = ["check", "schanuel", "--group", "SD:3,2,2", "--lattice", "flows:cayley"]
        assert main(argv) in (2, 3)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("i, j", ENTRIES)
    def test_cyclic_flows_edge_removal(self, i, j, monkeypatch, capsys):
        corrupt_sections(monkeypatch, i, j)
        with pytest.raises(GlatticeError):
            check_cyclic_flows(7, [1, 2])
        assert main(["check", "cyclic-flows", "--n", "7", "--gens", "s,s2"]) in (2, 3)
        assert capsys.readouterr().out == ""
