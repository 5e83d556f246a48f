"""Graphs, boundary maps, flow lattices and the edge-removal isomorphism."""

import re

import numpy as np
import pytest

import glattice.gflows as gflows_mod
from glattice.cli import parse_group_spec, suite_definition
from glattice.errors import InvalidParameterError
from glattice.gflows import (
    GGraph,
    SpanningTreeBasisError,
    boundary_matrix,
    cayley_graph,
    complete_edges,
    flow_lattice,
    fundamental_cycles,
    remove_edges_decomposition,
    spanning_tree_basis,
    subgraph,
)
from glattice.gmod import augmentation_map
from glattice.groups import (
    GSet,
    cyclic,
    coset_gset,
    natural_gset,
    regular_gset,
    semidirect,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
)
from glattice.intlinalg import IntMatrix, kernel_basis, same_column_span
from reference import (
    as_flow,
    infer_edge_action,
    path_flow_by_bfs,
    spanning_tree_by_bfs,
    validate_flow_lattice,
)
from reference import fundamental_cycles as dense_fundamental_cycles


def s3():
    return semidirect(3, 2, 2)


def fixed_points(G, n=1):
    """n points, each fixed by every element of G."""
    return GSet(G, [tuple(range(n))] * G.order)


class TestCompleteEdges:
    def test_one_vertex_with_loop(self):
        X = complete_edges(fixed_points(cyclic(1)), loops=True)
        assert X.edges == [(0, 0)]

    def test_three_vertices_no_loops(self):
        X = complete_edges(fixed_points(cyclic(1), 3), loops=False)
        assert X.n_edges == 6

    def test_s3_regular_orbits(self):
        X = complete_edges(regular_gset(s3()), loops=False)
        assert X.n_edges == 30
        orbits = X.edge_orbits()
        assert len(orbits) == 5
        assert all(len(o) == 6 for o in orbits)


class TestCayley:
    def test_cycle(self):
        G = cyclic(5)
        X = cayley_graph(G, [G.generator_indices["s"]])
        assert X.n_edges == 5
        assert X.is_connected()

    def test_s3_two_generators(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        assert (X.n_vertices, X.n_edges) == (6, 12)
        assert X.is_connected()

    def test_disconnected_reported(self):
        G = cyclic(4)
        sq = G.power(G.generator_indices["s"], 2)
        X = cayley_graph(G, [sq])
        assert not X.is_connected()
        assert len(X.components()) == 2

    def test_connected_iff_generating(self):
        G = cyclic(12)
        s = G.generator_indices["s"]
        for k in range(1, 12):
            X = cayley_graph(G, [G.power(s, k)])
            generates = G.closure([G.power(s, k)]) == tuple(range(12))
            assert X.is_connected() == generates


def _suite_groups():
    """The group of every check of the full suite."""
    specs = set()
    for check_id, params in suite_definition("full"):
        if "group" in params:
            specs.add(params["group"])
        elif check_id == "cyclic-flows":
            specs.add(f"C:{params['n']}")
        elif check_id == "sn-restrictions":
            specs.add(f"S:{params['n']}")
        elif "m" in params:
            specs.add(f"SD:{params['n']},{params['m']},{params['r']}")
    return sorted(specs)


class TestCayleyEdgeAction:
    @pytest.mark.parametrize("spec", _suite_groups())
    def test_equals_the_inferred_action(self, spec):
        """The actions cayley_graph and complete_edges compute from edge
        numbers, h (g, g s) = (h g, h g s) and h (u, v) = (h u, h v), are
        the ones read off the vertex action edge by edge."""
        G = parse_group_spec(spec)
        graphs = [cayley_graph(G, G.generators)]
        if G.order <= 24:
            graphs += [cayley_graph(G, [g for g in G.elements() if g != G.identity]),
                       cayley_graph(G, G.elements())]
            vertex_sets = [regular_gset(G)] + [coset_gset(G, H) for H in subgroup_conjugacy_reps(G)]
            if G.point_action is not None:
                vertex_sets.append(natural_gset(G))
            graphs += [complete_edges(V, loops) for V in vertex_sets for loops in (False, True)]
        for X in graphs:
            assert X.edge_gset.action == infer_edge_action(X.vertices, X.edges)


class TestBoundary:
    def test_loop_contributes_zero(self):
        X = complete_edges(fixed_points(cyclic(1)), loops=True)
        assert boundary_matrix(X).matrix.is_zero()

    def test_three_cycle_columns(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        bd = boundary_matrix(X).matrix
        for j in range(3):
            col = bd.col_list(j)
            assert sorted(col) == [-1, 0, 1]

    def test_image_is_augmentation_kernel(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        bd = boundary_matrix(X)
        aug = augmentation_map(bd.target)
        assert same_column_span(bd.matrix, kernel_basis(aug.matrix))


class TestFlowLattice:
    def test_cycle_flow_is_trivial_lattice(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        fl = flow_lattice(X)
        assert fl.rank == 1
        assert all(fl.action[g].is_identity() for g in G.elements())
        validate_flow_lattice(fl)

    def test_s3_rank(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        fl = flow_lattice(X)
        assert fl.rank == 12 - 6 + 1
        validate_flow_lattice(fl)

    def test_two_vertices(self):
        X = complete_edges(fixed_points(cyclic(1), 2), loops=False)
        fl = flow_lattice(X)
        assert fl.rank == 1
        assert sorted(fl.basis.col_list(0)) == [1, 1]

    def test_disconnected_rejected(self):
        G = cyclic(4)
        sq = G.power(G.generator_indices["s"], 2)
        with pytest.raises(InvalidParameterError, match="components"):
            flow_lattice(cayley_graph(G, [sq]))

    def test_no_vertices_rejected(self):
        V = GSet(cyclic(1), [()])
        with pytest.raises(InvalidParameterError, match="no vertices"):
            flow_lattice(GGraph(V, [], infer_edge_action(V, [])))

    def test_validate_rejects_wrong_action(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        fl = flow_lattice(X)
        g = G.generator_indices["s"]
        fl.action[g] = IntMatrix.identity(fl.rank)
        with pytest.raises(InvalidParameterError, match=f"fails at element {g}"):
            validate_flow_lattice(fl)


class TestSpanningTreeBasis:
    def test_cycle_basis(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree_by_bfs(X)
        assert len(tree) == 3
        candidate = {0: 1, 1: 1, 2: 1, 3: 1}
        fl = spanning_tree_basis(X, tree, [candidate])
        assert fl.rank == 1
        validate_flow_lattice(fl)

    def test_non_unit_diagonal_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree_by_bfs(X)
        with pytest.raises(SpanningTreeBasisError, match="not \\+-1"):
            spanning_tree_basis(X, tree, [{0: 2, 1: 2, 2: 2, 3: 2}])

    def test_non_flow_candidate_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree_by_bfs(X)
        with pytest.raises(InvalidParameterError, match="flow condition"):
            spanning_tree_basis(X, tree, [{0: 1}])

    @staticmethod
    def _five_cycles():
        """The C:4 Cayley graph on s and s^2: 5 non-tree edges."""
        G = cyclic(4)
        s = G.generator_indices["s"]
        X = cayley_graph(G, [s, G.table[s][s]])
        tree = spanning_tree_by_bfs(X)
        non_tree = [e for e in range(X.n_edges) if e not in tree]
        return X, tree, non_tree, dense_fundamental_cycles(X, tree)

    @staticmethod
    def _plus(*flows, scale=1):
        return as_flow([scale * x + sum(ys) for x, *ys in zip(*flows)])

    def test_fundamental_cycles_certified(self):
        X, tree, non_tree, cyc = self._five_cycles()
        assert len(non_tree) == 5
        later = [self._plus(c, *cyc[i + 1 :]) for i, c in enumerate(cyc)]
        assert spanning_tree_basis(X, tree, later).rank == 5

    def test_first_failure_names_the_smallest_column(self):
        """Candidates 3 and 4 are each nonzero on two earlier non-tree
        edges; the message names candidate 3 and the smaller of its two."""
        X, tree, non_tree, cyc = self._five_cycles()
        for j1, j2 in [(0, 1), (0, 2), (1, 2)]:
            cands = [as_flow(c) for c in cyc[:3]] + [
                self._plus(cyc[3], cyc[j1], cyc[j2]), self._plus(cyc[4], cyc[0], cyc[3])]
            with pytest.raises(SpanningTreeBasisError) as err:
                spanning_tree_basis(X, tree, cands)
            assert str(err.value) == (
                f"matrix not upper triangular: f_3(e_{non_tree[j1]}) != 0"
            )
        for j in (1, 3):
            cands = [as_flow(c) for c in cyc[:4]] + [self._plus(cyc[4], cyc[j])]
            with pytest.raises(SpanningTreeBasisError, match=re.escape(f"f_4(e_{non_tree[j]}) != 0")):
                spanning_tree_basis(X, tree, cands)

    def test_diagonal_checked_before_the_earlier_columns(self):
        X, tree, non_tree, cyc = self._five_cycles()
        cands = [as_flow(c) for c in cyc]
        cands[2] = self._plus(cyc[2], cyc[0], cyc[1], scale=2)
        with pytest.raises(SpanningTreeBasisError) as err:
            spanning_tree_basis(X, tree, cands)
        assert str(err.value) == f"diagonal entry f_2(e_{non_tree[2]}) = 2 is not +-1"
        cands = [as_flow(c) for c in cyc[:1] + [cyc[2]] + cyc[2:]]
        with pytest.raises(SpanningTreeBasisError, match=re.escape(f"f_1(e_{non_tree[1]}) = 0 is not")):
            spanning_tree_basis(X, tree, cands)

    @pytest.mark.parametrize("edge", [-1, 4, 1 << 70])
    def test_edge_out_of_range_rejected(self, edge):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree_by_bfs(X)
        with pytest.raises(InvalidParameterError, match=f"candidate 0 has edge {edge} out of range"):
            spanning_tree_basis(X, tree, [{0: 1, 1: 1, 2: 1, 3: 1, edge: 0}])

    @pytest.mark.parametrize("tree", [[-1, 0, 1], [0, 1, 9]])
    def test_tree_edge_out_of_range_rejected(self, tree):
        """-1 would wrap around to edge 3, and 9 would index past the edges."""
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        with pytest.raises(InvalidParameterError, match="^spanning edge out of range$"):
            spanning_tree_basis(X, tree, [{0: 1, 1: 1, 2: 1, 3: 1}])

    def test_explicit_zero_coefficients_ignored(self):
        """A 0 on an earlier non-tree edge would break triangularity, and a
        0 on the diagonal edge would break the diagonal, if they counted."""
        X, tree, non_tree, cyc = self._five_cycles()
        cands = [as_flow(c) for c in cyc]
        padded = [dict(c) for c in cands]
        padded[3][non_tree[0]] = 0
        padded[4].update({non_tree[1]: 0, non_tree[2]: 0})
        plain = spanning_tree_basis(X, tree, cands)
        assert spanning_tree_basis(X, tree, padded).basis == plain.basis
        with pytest.raises(SpanningTreeBasisError, match=re.escape(f"f_4(e_{non_tree[4]}) = 0")):
            spanning_tree_basis(X, tree, cands[:4] + [{non_tree[4]: 0}])

    def test_not_a_tree_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        with pytest.raises(InvalidParameterError):
            spanning_tree_basis(X, [0, 1, 2, 3], [])


class TestCallerNumbers:
    """Edge endpoints, generators, tree edges, candidate entries and edge
    indices enter as integers or not at all: a float is refused, never
    truncated."""

    def test_floats_refused(self):
        V = regular_gset(cyclic(3))
        action = infer_edge_action(V, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(TypeError):
            GGraph(V, [(0, 1.9), (1, 2), (2, 0)], action)
        G = cyclic(4)
        with pytest.raises(TypeError):
            cayley_graph(G, [1.0])
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree_by_bfs(X)
        with pytest.raises(TypeError):
            spanning_tree_basis(X, [float(e) for e in tree], [{0: 1, 1: 1, 2: 1, 3: 1}])
        with pytest.raises(TypeError):
            spanning_tree_basis(X, tree, [{0: 1.0, 1: 1, 2: 1, 3: 1}])
        with pytest.raises(TypeError):
            spanning_tree_basis(X, tree, [{0.0: 1, 1: 1, 2: 1, 3: 1}])
        with pytest.raises(TypeError):
            subgraph(X, [0.0, 1, 2, 3])
        with pytest.raises(TypeError):
            fundamental_cycles(X, [0.0, 1, 2])

    @pytest.mark.parametrize("one", [1, np.int64(1), True], ids=repr)
    def test_integers_enter_as_python_ints(self, one):
        zero, two = one - one, one + one
        V, edges = regular_gset(cyclic(3)), [(zero, one), (one, two), (two, zero)]
        X = GGraph(V, edges, infer_edge_action(V, edges))
        Y = cayley_graph(cyclic(3), [one])
        sub = subgraph(X, [zero, one, two])
        fl = spanning_tree_basis(X, [zero, two], [{zero: one, one: one, two: one}])
        assert X.edges == Y.edges == sub.edges == [(0, 1), (1, 2), (2, 0)]
        assert fl.basis.to_lists() == [[1], [1], [1]]
        numbers = [v for e in X.edges + Y.edges + sub.edges for v in e] + list(Y.edge_gset.action[1])
        assert all(type(v) is int for v in numbers + fl.basis.col_list(0))


class TestRemoveEdges:
    def test_identity_case(self):
        G = cyclic(5)
        X = cayley_graph(G, [G.generator_indices["s"]])
        iso = remove_edges_decomposition(X, X)
        assert iso.matrix.is_identity()

    def test_cyclic_two_generators(self):
        G = cyclic(6)
        s = G.generator_indices["s"]
        X = cayley_graph(G, [s, G.power(s, 2)])
        Xc = cayley_graph(G, [s])
        iso = remove_edges_decomposition(X, Xc)
        # Fl(G, S) = Z + ZG^(|S|-1)
        assert iso.matrix.rows == 12 - 6 + 1 == 7
        assert iso.source.rank == 1 + 6

    def test_s3_complete_to_two_generators(self):
        G = s3()
        X = complete_edges(regular_gset(G), loops=False)
        pairs = {(g, G.table[g][s]) for s in (G.generator_indices["s"], G.generator_indices["t"]) for g in G.elements()}
        keep = [i for i, e in enumerate(X.edges) if e in pairs]
        Xsub = subgraph(X, keep)
        iso = remove_edges_decomposition(X, Xsub)
        assert iso.source.rank == 7 + 3 * 6  # m = (30-12)/6 = 3
        assert iso.target.rank == 30 - 6 + 1

    def test_one_cycle_closed_per_removed_orbit(self, monkeypatch):
        """The circular flows are the closed cycles of the least edge of each
        removed orbit, moved by the edge G-set: S:3's complete graph less
        its two-generator subgraph loses 18 edges in 3 orbits."""
        closed = []
        original = gflows_mod.fundamental_cycles

        def recording(X, spanning, closing=None):
            cycles = original(X, spanning, closing)
            closed.append(list(cycles))
            return cycles

        monkeypatch.setattr(gflows_mod, "fundamental_cycles", recording)
        G = s3()
        X = complete_edges(regular_gset(G), loops=False)
        pairs = {(g, G.table[g][s]) for s in (G.generator_indices["s"], G.generator_indices["t"]) for g in G.elements()}
        Xsub = subgraph(X, [i for i, e in enumerate(X.edges) if e in pairs])
        remove_edges_decomposition(X, Xsub)
        removed = [i for i, e in enumerate(X.edges) if e not in pairs]
        orbits = [orbit for orbit in X.edge_orbits() if orbit[0] in removed]
        assert closed[-1] == [orbit[0] for orbit in orbits] and len(orbits) == 3

    def test_nonfree_action_rejected(self):
        G = s3()
        t = G.generator_indices["t"]
        V = coset_gset(G, subgroup_from_generators(G, [t]))
        X = complete_edges(V, loops=False)
        with pytest.raises(InvalidParameterError, match="free"):
            remove_edges_decomposition(X, X)


class TestFundamentalCycles:
    def test_the_edge_off_a_path_closes_the_cycle(self):
        G = cyclic(5)
        X = cayley_graph(G, [G.generator_indices["s"]])
        # edges 0..3 are the path 0 -> 1 -> 2 -> 3 -> 4, and edge 4 is (4, 0)
        assert fundamental_cycles(X, [0, 1, 2, 3]) == {4: {4: 1, 0: 1, 1: 1, 2: 1, 3: 1}}
        assert fundamental_cycles(X, range(5)) == {}

    def test_cycles_through_a_spanning_set_with_cycles(self):
        """Each edge outside the set closes through the breadth-first tree of
        the set from vertex 0, and has boundary 0."""
        G = s3()
        X = complete_edges(regular_gset(G), loops=True)
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        spanning = [e for e, (u, v) in enumerate(X.edges) if v in (G.table[u][s], G.table[u][t])]
        tree = spanning_tree_by_bfs(X, spanning)
        assert len(spanning) == 12 and len(tree) == 5
        cycles = fundamental_cycles(X, spanning)
        assert list(cycles) == [e for e in range(X.n_edges) if e not in spanning]
        bd = boundary_matrix(X).matrix
        for e, flow in cycles.items():
            u, v = X.edges[e]
            want = path_flow_by_bfs(X, v, u, tree)
            want[e] += 1
            assert flow == as_flow(want)
            assert (bd @ IntMatrix.from_sparse_columns(X.n_edges, [flow])).is_zero()

    def test_a_set_that_does_not_span_is_refused(self):
        G = cyclic(4)
        s = G.generator_indices["s"]
        X = cayley_graph(G, [s, G.power(s, 2)])
        with pytest.raises(InvalidParameterError, match="does not span"):
            fundamental_cycles(X, [4, 5, 6, 7])  # the edges of s^2
        for edge in (-1, 8):
            with pytest.raises(InvalidParameterError, match="out of range"):
                fundamental_cycles(X, [0, 1, 2, edge])
            with pytest.raises(InvalidParameterError, match="^closing edge out of range$"):
                fundamental_cycles(X, [0, 1, 2, 3], [4, edge])
