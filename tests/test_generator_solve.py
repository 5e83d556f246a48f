"""Derived lattices solved on generators, flow bases from fundamental
cycles, flow-lattice actions solved on first read, exactness without a
kernel, sparse bar flows, the cocycle check on sorted index arrays, the
tree-recursion check without dict merges, spanning-tree bases from
nonzeros and orbit counts over the integers, each against the route it
replaced (tests/reference.py); pivot columns against sympy."""

import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glattice.checks as checks_mod
import glattice.cohom as cohom_mod
import glattice.gflows as gflows_mod
import glattice.gmod as gmod_mod
import glattice.intlinalg as intlinalg_mod
from glattice.checks import _bar_flows, _cocycle_failures, _star_tree_basis, _tree_recursion_failures
from glattice.cli import RANK_FORMULA_GRAPHS, main, parse_generators, parse_graph_spec, parse_group_spec
from glattice.cohom import coflasque_resolution, flasque_resolution, pullback
from glattice.errors import CertificateError, GlatticeError, InvalidParameterError
from glattice.gflows import (
    FlowLattice,
    GGraph,
    cayley_graph,
    complete_edges,
    flow_lattice,
    spanning_tree_basis,
)
from glattice.gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    augmentation_kernel,
    check_exact,
    coset_lattice,
    direct_sum_many,
    dual,
    regular,
    restrict,
    sublattice_with_action,
    trivial,
)
from glattice.groups import cyclic, natural_gset, regular_gset, subgroup_conjugacy_reps, symmetric
from glattice.intlinalg import BasisSolver, IntMatrix, pivot_columns
from reference import (
    as_flow,
    bar_arrays,
    bar_flow_dense,
    bar_flow_dicts,
    check_exact_by_kernel,
    cocycle_failures_by_dicts,
    cocycle_failures_dense,
    flow_basis_by_kernel,
    fundamental_cycles,
    orbit_count_solutions_rational,
    path_flow_by_bfs,
    spanning_tree_basis_dense,
    spanning_tree_by_bfs,
    sublattice_action_per_element,
    tree_recursion_failures_by_dicts,
    tree_recursion_failures_dense,
    validate_flow_lattice,
)

GROUPS = ["C:6", "S:3", "D:4", "X(C:2,C:2)", "SD:3,2,2"]

# groups of order at most 16: those bar-cocycle runs on in the suites and
# the bench ladder, and more of the same families
BAR_GROUPS = [
    "C:2", "C:3", "C:5", "C:8", "C:12", "C:16", "S:3", "D:4", "D:7", "D:8",
    "X(C:2,C:2)", "X(C:4,C:4)", "X(C:2,C:8)", "SD:3,2,2", "SD:3,4,2", "SD:5,2,4",
]


def _lattices(G):
    flows = flow_lattice(cayley_graph(G, G.generators))
    return {
        "trivial": trivial(G),
        "regular": regular(G),
        "flows": flows,
        "dual flows": dual(flows),
        "augmentation": augmentation_kernel(regular(G))[0],
        "coset": coset_lattice(G, subgroup_conjugacy_reps(G)[1]),
    }


def _record_sublattices(monkeypatch):
    """Route every module's sublattice_with_action through a recorder, and
    record every flow lattice built, with the edge lattice it lies in."""
    calls = []

    def recording(M, basis, solver=None):
        sub, incl = sublattice_with_action(M, basis, solver=solver)
        calls.append((M, basis, sub))
        return sub, incl

    for mod in (gmod_mod, cohom_mod, checks_mod):
        monkeypatch.setattr(mod, "sublattice_with_action", recording)
    init = FlowLattice.__init__

    def recording_flows(fl, graph, solver):
        init(fl, graph, solver)
        calls.append((graph.edge_lattice(), fl.basis, fl))

    monkeypatch.setattr(FlowLattice, "__init__", recording_flows)
    return calls


class TestDerivedLatticesAgainstPerElementSolve:
    @pytest.mark.parametrize("spec", GROUPS)
    def test_every_derived_lattice_and_resolution(self, spec, monkeypatch):
        G = parse_group_spec(spec)
        calls = _record_sublattices(monkeypatch)
        sequences = []
        for M in _lattices(G).values():
            co, fl = coflasque_resolution(M), flasque_resolution(M)
            sequences += [co.sequence, fl.sequence]
        pullback(sequences[0], sequences[0])
        assert len(calls) > len(GROUPS)
        assert any(isinstance(sub, FlowLattice) for _, _, sub in calls)
        for M, basis, sub in calls:
            assert sub.action == sublattice_action_per_element(M, basis)
        for seq in sequences:
            assert check_exact(seq).failures == check_exact_by_kernel(seq).failures == []

    @pytest.mark.parametrize("check", [
        lambda: checks_mod.check_schanuel(
            flow_lattice(cayley_graph(parse_group_spec("SD:3,2,2"), (1, 2))),
            "SD:3,2,2", "flows:cayley"),
        lambda: checks_mod.check_faithful_transfer(3, 2, 2),
        lambda: checks_mod.check_kernel_generators(5, 2, 4),
        lambda: checks_mod.check_flow_coflasque(parse_group_spec("D:4"), (1, 2)),
    ])
    def test_lattices_built_by_checks(self, check, monkeypatch):
        calls = _record_sublattices(monkeypatch)
        assert check().ok
        assert calls
        for M, basis, sub in calls:
            assert sub.action == sublattice_action_per_element(M, basis)

    def test_invariance_failure_names_first_failing_generator(self):
        G = symmetric(3)
        s = G.generators[0]
        M = regular(G)
        # indicator vectors of the cosets {g, s g}: stable under s only
        cosets = sorted({tuple(sorted((g, G.mul(s, g)))) for g in G.elements()})
        basis = IntMatrix.from_columns(
            [[1 if x in c else 0 for x in range(G.order)] for c in cosets]
        )
        failing = [
            t for t in G.generators
            if BasisSolver(basis).express_matrix(M.action[t] @ basis) is None
        ]
        assert failing and failing[0] != s
        with pytest.raises(InvalidParameterError, match=f"under element {failing[0]}$"):
            sublattice_with_action(M, basis)

    @pytest.mark.parametrize("spec", GROUPS)
    def test_express_matrix_called_once_per_generator(self, spec, monkeypatch):
        """One solve per generator, through the private core every solve
        enters, with or without a G-set on the lattice."""
        G = parse_group_spec(spec)
        basis = intlinalg_mod.kernel_basis(IntMatrix.from_rows([[1] * G.order]))
        calls = []
        original = BasisSolver._solve

        def counting(self, B):
            calls.append(B.cols)
            return original(self, B)

        monkeypatch.setattr(BasisSolver, "_solve", counting)
        for P in (regular(G), GLattice(G, list(regular(G).action))):
            calls.clear()
            sublattice_with_action(P, basis)
            assert calls == [basis.cols] * len(G.generators)


def _graphs():
    S3 = symmetric(3)
    C2 = cyclic(2)
    V = regular_gset(C2)
    # parallel edges and loops need an explicit edge action
    edges = [(0, 1), (1, 0), (0, 1), (1, 0), (0, 0), (1, 1)]
    swap = (1, 0, 3, 2, 5, 4)
    action = [tuple(range(6)) if g == C2.identity else swap for g in C2.elements()]
    out = {"parallel edges and loops": GGraph(V, edges, action)}
    for spec in GROUPS:
        G = parse_group_spec(spec)
        out[f"cayley {spec}"] = cayley_graph(G, G.generators)
        out[f"cayley {spec} with loops"] = cayley_graph(G, range(G.order))
    out["complete S:3 with loops"] = complete_edges(regular_gset(S3), loops=True)
    out["complete natural S:4"] = complete_edges(natural_gset(symmetric(4)))
    return out


class TestFlowBasisAgainstKernel:
    @pytest.mark.parametrize("label", list(_graphs()))
    def test_fundamental_cycles_give_the_kernel_basis(self, label):
        X = _graphs()[label]
        fl = flow_lattice(X)
        assert fl.basis == flow_basis_by_kernel(X)
        assert fl.action == sublattice_action_per_element(X.edge_lattice(), fl.basis)
        validate_flow_lattice(fl)

    def test_flow_lattice_computes_no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel_basis called")

        monkeypatch.setattr(gmod_mod, "kernel_basis", refuse)
        monkeypatch.setattr(intlinalg_mod, "kernel_basis", refuse)
        for X in _graphs().values():
            flow_lattice(X)

    @pytest.mark.parametrize("label", list(_graphs()))
    def test_spanning_tree_bases_validate(self, label):
        X = _graphs()[label]
        tree = spanning_tree_by_bfs(X)
        candidates = []
        for e in range(X.n_edges):
            if e not in tree:
                s, t = X.edges[e]
                cycle = path_flow_by_bfs(X, t, s, tree)
                cycle[e] += 1
                candidates.append(as_flow(cycle))
        fl = spanning_tree_basis(X, tree, candidates)
        validate_flow_lattice(fl)
        assert fl.action == sublattice_action_per_element(X.edge_lattice(), fl.basis)


def _counting(monkeypatch, owner, name):
    """Calls of owner.name from now on, each recorded by the name of the
    function that made it."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _bar_basis(spec):
    G = parse_group_spec(spec)
    X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
    return _star_tree_basis(X, G, _bar_flows(X, G))


class TestFlowLatticeActionOnFirstRead:
    """A flow lattice solves for a generator matrix when that matrix is
    first read, and never for a command that reads only the basis or the
    rank.  Work is counted, not timed."""

    @pytest.mark.parametrize("argv", [
        ["check", "bar-cocycle", "--group", "C:16"],
        ["check", "rank-formula"],
        ["flows", "--graph", "cayley(D:4;s,t)"],
    ])
    def test_commands_reading_the_rank_make_no_solve(self, argv, monkeypatch, capsys):
        solves = _counting(monkeypatch, BasisSolver, "_solve")
        scans = _counting(monkeypatch, IntMatrix, "column_nonzeros")
        builds = _counting(monkeypatch, IntMatrix, "from_sparse_columns")
        assert main(argv) == 0
        assert "rank" in capsys.readouterr().out
        assert solves == []
        assert builds == []  # no dense flow basis is made either
        if argv[1] == "bar-cocycle":  # the certified basis is not scanned either
            assert scans == []

    @pytest.mark.parametrize("label", list(_graphs()) + ["bar C:6", "bar D:4"])
    def test_action_read_after_construction(self, label, monkeypatch):
        solves = _counting(monkeypatch, BasisSolver, "_solve")
        fl = _bar_basis(label[4:]) if label.startswith("bar ") else flow_lattice(_graphs()[label])
        assert solves == []
        X = fl.graph
        assert isinstance(fl, GLattice) and fl.group is X.group
        assert fl.action == sublattice_action_per_element(X.edge_lattice(), fl.basis)
        inclusion = fl.boundary_sequence().left
        assert inclusion.source is fl and inclusion.matrix is fl.basis
        assert inclusion.target.rank == X.n_edges
        validate_flow_lattice(fl)

    def test_read_twice_solves_once(self, monkeypatch):
        fl = flow_lattice(cayley_graph(parse_group_spec("D:4"), range(8)))
        solves = _counting(monkeypatch, BasisSolver, "_solve")
        for k, s in enumerate(fl.group.generators, 1):
            first = fl.action[s]  # the first read of a generator solves once
            assert fl.action[s] is first and len(solves) == k
        list(fl.action)  # every other element is a product
        assert len(solves) == len(fl.group.generators)

    @pytest.mark.parametrize("label", [label for label, _ in RANK_FORMULA_GRAPHS]
                             + [f"bar {spec}" for spec in BAR_GROUPS])
    def test_basis_made_on_first_read(self, label, monkeypatch):
        """The dense basis is made once, when first read, from the columns
        that spanning_tree_basis certified."""
        certified = []
        triangular = BasisSolver._of_triangular

        def spy(rows, pivots, columns):
            certified.append((rows, columns))
            return triangular(rows, pivots, columns)

        monkeypatch.setattr(BasisSolver, "_of_triangular", spy)
        builds = _counting(monkeypatch, IntMatrix, "from_sparse_columns")
        if label.startswith("bar "):
            fl = _bar_basis(label[4:])
        else:
            fl = flow_lattice(parse_graph_spec(dict(RANK_FORMULA_GRAPHS)[label]))
        assert builds == [] and len(certified) == 1
        basis = fl.basis
        assert builds == ["basis"] and fl.basis is basis and fl.solver.basis is basis
        rows, columns = certified[0]
        assert basis == IntMatrix.from_sparse_columns(rows, columns)
        assert fl.rank == basis.cols == len(columns) and basis.rows == fl.graph.n_edges

    def test_an_unstable_basis_raises_on_first_read(self):
        """spanning_tree_basis certifies a G-stable basis; a FlowLattice
        built directly from another one raises what sublattice_with_action
        raises, when an action matrix is first read."""
        G = parse_group_spec("C:6")
        X = cayley_graph(G, range(G.order))
        basis = flow_lattice(X).basis.take_columns([0])  # one cycle, not G-stable
        fl = FlowLattice(X, BasisSolver(basis))
        assert fl.rank == 1
        with pytest.raises(InvalidParameterError) as direct:
            sublattice_with_action(X.edge_lattice(), basis)
        with pytest.raises(InvalidParameterError, match="not invariant under element") as deferred:
            fl.action[G.generators[0]]
        assert str(deferred.value) == str(direct.value)
        with pytest.raises(InvalidParameterError, match="not invariant under element"):
            FlowLattice(X, BasisSolver(basis)).action[G.order - 1]  # a product reads a generator


class TestOneSolveForTheFlows:
    """The edge-removal isomorphism and the metacyclic presentation solve
    all their flows in one express_columns call.  It and express_matrix are
    the public solves of BasisSolver, and both enter its private core."""

    @pytest.mark.parametrize("spec, gens, kept", [
        ("C:6", "s,s2", "s"), ("D:4", "s,t,st", "s,t"), ("S:3", "(12),(123),(13)", "(12),(123)"),
    ])
    def test_remove_edges_decomposition(self, spec, gens, kept, monkeypatch):
        G = parse_group_spec(spec)
        X, X_sub = (cayley_graph(G, parse_generators(G, g)) for g in (gens, kept))
        solves = _counting(monkeypatch, BasisSolver, "express_columns")
        gflows_mod.remove_edges_decomposition(X, X_sub)
        assert solves.count("remove_edges_decomposition") == 1

    @pytest.mark.parametrize("nmr", [(3, 2, 2), (5, 2, 4), (7, 3, 2), (5, 4, 3)])
    def test_metacyclic_presentation(self, nmr, monkeypatch):
        solves = _counting(monkeypatch, BasisSolver, "express_columns")
        checks_mod._metacyclic_presentation(*nmr)
        assert solves.count("_metacyclic_presentation") == 1

    def test_no_other_public_solve(self, monkeypatch):
        public = {name for name, v in vars(BasisSolver).items() if callable(v) and name[0] != "_"}
        assert public == {"express_columns", "express_matrix"}
        solves = _counting(monkeypatch, BasisSolver, "_solve")
        BasisSolver(IntMatrix.identity(2)).express_matrix(IntMatrix.identity(2))
        assert solves == ["express_matrix"]
        BasisSolver(IntMatrix.identity(2)).express_columns([{0: 1}])
        assert solves == ["express_matrix", "express_columns"]


def _seq(left_rows, right_rows, ranks):
    """A sequence of trivial C:2-lattices of the given ranks."""
    G = cyclic(2)
    A, B, C = (direct_sum_many([trivial(G)] * r) for r in ranks)
    return ShortExactSequence(
        EquivariantMap(A, B, IntMatrix.from_rows(left_rows)),
        EquivariantMap(B, C, IntMatrix.from_rows(right_rows)),
    )


def _non_exact_sequences():
    G = cyclic(2)
    P = regular(G)
    out = {
        "rank mismatch": _seq([[1]], [[1]], (1, 1, 1)),
        "index-2 image": _seq([[2], [0]], [[0, 1]], (1, 2, 1)),
        "right after left is not zero": _seq([[1], [1]], [[0, 1]], (1, 2, 1)),
        "right not surjective": _seq([[1], [0]], [[0, 2]], (1, 2, 1)),
        "left not injective": _seq([[1, 1], [0, 0]], [[0, 1]], (2, 2, 1)),
        "image too small": _seq([[1], [0], [0]], [[0, 1, 0]], (1, 3, 1)),
    }
    # maps that fail equivariance: the sign-free C:2 permutation lattice
    out["not equivariant"] = ShortExactSequence(
        EquivariantMap(trivial(G), P, IntMatrix.from_rows([[1], [0]])),
        EquivariantMap(P, trivial(G), IntMatrix.from_rows([[0, 1]])),
    )
    return out


class TestExactnessAgainstKernel:
    @pytest.mark.parametrize("label", list(_non_exact_sequences()))
    def test_failure_lists_match(self, label):
        seq = _non_exact_sequences()[label]
        report = check_exact(seq)
        assert not report.ok
        assert report.failures == check_exact_by_kernel(seq).failures

    def test_index_two_image_names_the_kernel(self):
        failures = check_exact(_non_exact_sequences()["index-2 image"]).failures
        assert failures == ["image of left map differs from kernel of right map"]


class TestSparseBarFlows:
    @pytest.mark.parametrize("spec", ["C:4", "S:3", "D:4", "X(C:2,C:2)"])
    def test_against_dense_loops(self, spec):
        G = parse_group_spec(spec)
        X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
        edges, coefs = _bar_flows(X, G)
        assert edges.shape == coefs.shape == (G.order, G.order, 3)
        assert edges.dtype == coefs.dtype == np.int64
        assert (edges[coefs == 0] == 0).all()  # a dropped term is 0 on edge 0
        dense = {}
        for g in G.elements():
            for h in G.elements():
                used = edges[g, h][coefs[g, h] != 0].tolist()
                assert len(set(used)) == len(used)  # one term per edge
                vec = np.zeros(X.n_edges, dtype=np.int64)
                np.add.at(vec, edges[g, h], coefs[g, h])
                dense[(g, h)] = bar_flow_dense(X, G, g, h)
                assert tuple(vec.tolist()) == dense[(g, h)]
        d = (edges, coefs.copy())
        assert _cocycle_failures(X, G, d) == cocycle_failures_dense(X, G, dense) == 0
        assert _tree_recursion_failures(X, G, d) == 0
        assert tree_recursion_failures_dense(X, G, dense) == 0
        # a corrupted flow breaks both routes alike
        g, h = G.generators[0], G.generators[-1]
        d[1][g, h] *= -1
        dense[(g, h)] = tuple(-c for c in dense[(g, h)])
        bad = _cocycle_failures(X, G, d)
        assert bad > 0 and bad == cocycle_failures_dense(X, G, dense)
        assert _tree_recursion_failures(X, G, d) == tree_recursion_failures_dense(X, G, dense) > 0


@lru_cache(maxsize=None)
def _bar_case(spec):
    """The group, its Cayley graph on the non-identity elements, and its
    bar flows as {edge: coefficient} maps from the dense reference."""
    G = parse_group_spec(spec)
    X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
    return G, X, bar_flow_dicts(X, G)


class TestCocycleCheckAgainstDictLoops:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_flows_give_equal_failure_counts(self, data):
        G, X, bar = _bar_case(data.draw(st.sampled_from(BAR_GROUPS), label="group"))
        d = dict(bar)
        pairs = sorted(d)
        coefficient = st.one_of(st.integers(-2, 2), st.integers(-(2**57), 2**57))
        for _ in range(data.draw(st.integers(0, 4))):
            key = data.draw(st.sampled_from(pairs))
            kind = data.draw(st.sampled_from(["random", "negate", "copy", "drop edge"]))
            if kind == "random":  # explicit zeros and up to five edges
                d[key] = data.draw(st.dictionaries(
                    st.integers(0, X.n_edges - 1), coefficient, max_size=5))
            elif kind == "negate":
                d[key] = {e: -c for e, c in d[key].items()}
            elif kind == "copy":
                d[key] = dict(d[data.draw(st.sampled_from(pairs))])
            elif d[key]:
                d[key] = dict(list(d[key].items())[1:])
        assert _cocycle_failures(X, G, bar_arrays(d, G.order)) == cocycle_failures_by_dicts(X, G, d)

    def test_coefficients_that_could_overflow_refused(self):
        """Twelve terms of up to 2**62 / 12 each sum exactly in int64."""
        G, X, bar = _bar_case("C:3")
        d = dict(bar)
        key = next(k for k, flow in d.items() if len(flow) == 3)
        d[key] = {e: c * ((1 << 62) // 12 - 1) for e, c in bar[key].items()}
        assert _cocycle_failures(X, G, bar_arrays(d, 3)) == cocycle_failures_by_dicts(X, G, d) > 0
        for scale in ((1 << 62) // 12, 1 << 64):  # the second past int64 itself
            d[key] = {e: c * scale for e, c in bar[key].items()}
            with pytest.raises(CertificateError, match="bar flow coefficients sum exactly in int64"):
                _cocycle_failures(X, G, bar_arrays(d, 3))

    @pytest.mark.parametrize("spec", BAR_GROUPS + ["C:25"])
    def test_one_negated_flow_in_every_block(self, spec):
        """A negated flow enters triples of every g1, so every block counts
        its failures.  At 1,024 triple rows a block holds 7 g1 of C:12 and 5
        of D:7, so both end in a partial block; C:25 takes one g1 a block.
        The one nonzero flow of C:2, d(s, s), is fixed by s, so its negation
        is a cocycle too."""
        G, X, bar = _bar_case(spec)
        d = dict(bar)
        key = max(k for k, flow in d.items() if flow)
        d[key] = {e: -c for e, c in d[key].items()}
        expected = cocycle_failures_by_dicts(X, G, d)
        assert _cocycle_failures(X, G, bar_arrays(d, G.order)) == expected
        assert expected > 0 or spec == "C:2"

    @pytest.mark.parametrize("rows", [1, 150, 700, 1 << 20])
    @pytest.mark.parametrize("spec", ["C:12", "D:7"])
    def test_failures_do_not_depend_on_the_block_size(self, spec, rows, monkeypatch):
        G, X, bar = _bar_case(spec)
        d = dict(bar)
        for key in [(1, 2), (G.order - 1, 3)]:
            d[key] = {e: -c for e, c in d[key].items()}
        expected = cocycle_failures_by_dicts(X, G, d)
        monkeypatch.setattr(checks_mod, "_COCYCLE_BLOCK_ROWS", rows)
        assert _cocycle_failures(X, G, bar_arrays(d, G.order)) == expected > 0

    def test_edge_out_of_range_refused(self):
        """-1 would wrap around the edge action and |E| would index past it."""
        G, X, bar = _bar_case("C:3")
        key = next(k for k, flow in bar.items() if flow)
        for edge in (-1, X.n_edges):
            d = {**bar, key: {**bar[key], edge: 1}}
            with pytest.raises(InvalidParameterError, match="^bar flow edge out of range$"):
                _cocycle_failures(X, G, bar_arrays(d, 3))

    @pytest.mark.parametrize("spec, limit_mb", [("C:25", 4), ("C:16", 1)])
    def test_memory_stays_per_block(self, spec, limit_mb):
        """C:25 has 15,625 triples of up to 12 terms.  One int64 array of
        all their edges takes 1.5 MB, and the sort needs several such
        arrays; one block of at most 1,024 triples at a time, the peak
        stays under 4 MB.  C:16, the largest group of the bench ladder,
        stays under 1 MB."""
        G = parse_group_spec(spec)
        X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
        d = _bar_flows(X, G)
        tracemalloc.start()
        try:
            assert _cocycle_failures(X, G, d) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20


class TestTreeRecursionAgainstDictMerges:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_flows_give_equal_failure_counts(self, data):
        G, X, bar = _bar_case(data.draw(st.sampled_from(BAR_GROUPS), label="group"))
        d = dict(bar)
        pairs = sorted(d)
        for _ in range(data.draw(st.integers(0, 4))):
            key = data.draw(st.sampled_from(pairs))
            flow = dict(d[key])
            kind = data.draw(st.sampled_from(["coefficient", "move edge", "drop term"]))
            edge = data.draw(st.sampled_from(sorted(flow) or [0]))
            if kind == "coefficient":  # 0 leaves an explicit zero, which is 0
                flow[edge] = data.draw(st.integers(-2, 2))
            elif kind == "move edge" and edge in flow:
                c = flow.pop(edge)
                target = data.draw(st.integers(0, X.n_edges - 1))
                flow[target] = flow.get(target, 0) + c
            else:
                flow.pop(edge, None)
            d[key] = flow
        expected = tree_recursion_failures_by_dicts(X, G, d)
        assert _tree_recursion_failures(X, G, bar_arrays(d, G.order)) == expected

    @pytest.mark.parametrize("spec", BAR_GROUPS)
    def test_bar_flows_pass_and_a_dropped_term_fails(self, spec):
        G, X, bar = _bar_case(spec)
        assert _tree_recursion_failures(X, G, _bar_flows(X, G)) == 0
        assert _tree_recursion_failures(X, G, bar_arrays(bar, G.order)) == 0
        assert tree_recursion_failures_by_dicts(X, G, bar) == 0
        d = dict(bar)
        key = next(k for k, flow in d.items() if flow)
        d[key] = dict(list(d[key].items())[1:])
        assert _tree_recursion_failures(X, G, bar_arrays(d, G.order)) == tree_recursion_failures_by_dicts(X, G, d) == 1


class TestSpanningTreeBasisAgainstDenseOracle:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_perturbed_candidates(self, data):
        """Perturbed fundamental cycles are accepted with the same basis, or
        refused with the same error and message, as on dense vectors."""
        G = parse_group_spec(data.draw(st.sampled_from(GROUPS), label="group"))
        gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
        X = cayley_graph(G, gens + list(G.generators))
        tree = spanning_tree_by_bfs(X)
        dense = fundamental_cycles(X, tree)
        small = st.integers(-2, 2)
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(dense) - 1))
            kind = data.draw(st.sampled_from(["add", "scale", "edge", "drop"]))
            if kind == "add":
                other, c = dense[data.draw(st.integers(0, len(dense) - 1))], data.draw(small)
                dense[i] = [x + c * y for x, y in zip(dense[i], other)]
            elif kind == "scale":
                c = data.draw(small)
                dense[i] = [c * x for x in dense[i]]
            elif kind == "edge":
                dense[i][data.draw(st.integers(0, X.n_edges - 1))] += data.draw(small)
            elif len(dense) > 1:
                del dense[i]
        sparse = [as_flow(vec) for vec in dense]
        for flow in sparse:  # explicit zeros change nothing
            for e in data.draw(st.lists(st.integers(0, X.n_edges - 1), max_size=2)):
                flow.setdefault(e, 0)

        def outcome(build, candidates):
            try:
                return build(X, tree, candidates).basis
            except GlatticeError as exc:
                return type(exc), str(exc)

        assert outcome(spanning_tree_basis, sparse) == outcome(spanning_tree_basis_dense, dense)


class TestPivotColumns:
    def test_greedy_columns(self):
        A = IntMatrix.from_rows([[1, 2, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]])
        assert pivot_columns(A) == [0, 2]

    def test_entry_divisible_by_a_large_prime(self):
        # 2**31 - 1 divides column 0, which is still independent over Q
        assert pivot_columns(IntMatrix.from_rows([[2**31 - 1, 1]])) == [0]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_rref(self, data):
        sympy = pytest.importorskip("sympy")
        r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 7))
        small = st.integers(-2, 2)
        near_prime_multiple = st.builds(lambda q, e: q * (2**31 - 1) + e, small, small)
        entry = st.one_of(small, near_prime_multiple)
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        _, expected = sympy.Matrix(r, c, [x for row in rows for x in row]).rref()
        assert pivot_columns(IntMatrix.from_rows(rows, cols=c)) == list(expected)


@lru_cache(maxsize=None)
def _orbit_counts(spec):
    """(lattice, restricted to, integer solve, rational oracle) of every
    lattice of _lattices and its restriction to every subgroup class."""
    G = parse_group_spec(spec)
    return [
        (name, H.order, cohom_mod._orbit_count_solutions(N), orbit_count_solutions_rational(N))
        for name, M in _lattices(G).items()
        for H in subgroup_conjugacy_reps(G)
        for N in [restrict(M, H)]
    ]


class TestOrbitCountsAgainstRational:
    @pytest.mark.parametrize("spec", GROUPS)
    def test_same_candidates(self, spec):
        for name, order, got, expected in _orbit_counts(spec):
            assert got == expected, (name, order)

    def test_every_outcome_occurs(self):
        outcomes = [got for spec in GROUPS for _, _, got, _ in _orbit_counts(spec)]
        assert [] in outcomes and None in outcomes
        assert any(outcomes)


class TestKnownFormsAreReused:
    def test_split_iso_keeps_its_inverse(self):
        from glattice.cohom import split_iso
        from glattice.intlinalg import solve_matrix

        G = parse_group_spec("S:3")
        seq = coflasque_resolution(_lattices(G)["flows"]).sequence
        iso = split_iso(seq)
        n = iso.matrix.rows
        assert iso.inverse().matrix == solve_matrix(iso.matrix, IntMatrix.identity(n))
        assert iso.inverse().inverse().matrix == iso.matrix
        both = iso.compose(iso.inverse())
        assert both.matrix.is_identity() and both.inverse().matrix.is_identity()

    def test_fixed_sublattice_computed_once(self, monkeypatch):
        from glattice.gmod import fixed_sublattice

        G = parse_group_spec("D:4")
        M = _lattices(G)["flows"]
        H = subgroup_conjugacy_reps(G)[1]
        first = fixed_sublattice(M, H)
        monkeypatch.setattr(gmod_mod, "kernel_basis", None)
        assert fixed_sublattice(M, H) is first
