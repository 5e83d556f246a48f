"""Graphs, boundary maps, flow lattices and decomposition isomorphisms."""

import pytest

from glattice.errors import InvalidParameterError
from glattice.gflows import (
    SpanningTreeBasisError,
    boundary_matrix,
    cayley_graph,
    complete_edges,
    flow_lattice,
    flow_lattice_with_basis,
    gcd_splitting,
    loop_split,
    path_flow,
    quasi_permutation_certificate,
    remove_edges_decomposition,
    remove_orbit_with_map,
    restrict_to_subgroup_decomposition,
    spanning_tree,
    spanning_tree_basis,
    subgraph,
    walk_to_flow,
)
from glattice.gmod import augmentation_map, check_exact
from glattice.groups import (
    cyclic,
    coset_gset,
    regular_gset,
    semidirect,
    subgroup_from_generators,
    trivial_gset,
    whole_group,
)
from glattice.intlinalg import IntMatrix, kernel_basis, same_column_span


def s3():
    return semidirect(3, 2, 2)


class TestCompleteEdges:
    def test_one_vertex_with_loop(self):
        X = complete_edges(trivial_gset(cyclic(1)), loops=True)
        assert X.edges == [(0, 0)]

    def test_three_vertices_no_loops(self):
        X = complete_edges(trivial_gset(cyclic(1), points=3), loops=False)
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


class TestBoundary:
    def test_loop_contributes_zero(self):
        X = complete_edges(trivial_gset(cyclic(1)), loops=True)
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
        assert all(fl.glattice.action[g].is_identity() for g in G.elements())
        fl.validate()

    def test_s3_rank(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        fl = flow_lattice(X)
        assert fl.rank == 12 - 6 + 1
        fl.validate()

    def test_two_vertices(self):
        X = complete_edges(trivial_gset(cyclic(1), points=2), loops=False)
        fl = flow_lattice(X)
        assert fl.rank == 1
        assert sorted(fl.basis.col_list(0)) == [1, 1]

    def test_disconnected_rejected(self):
        G = cyclic(4)
        sq = G.power(G.generator_indices["s"], 2)
        with pytest.raises(InvalidParameterError, match="components"):
            flow_lattice(cayley_graph(G, [sq]))


class TestSuppliedBasis:
    """flow_lattice_with_basis checks the span with the solver it shares."""

    def setup_method(self):
        G = s3()
        self.X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        self.fl = flow_lattice(self.X)

    def test_accepts_flow_basis(self):
        fl = flow_lattice_with_basis(self.X, self.fl.basis)
        assert fl.glattice.action == self.fl.glattice.action
        assert fl.flow_coordinates(self.fl.basis.col_list(3)) == [0, 0, 0, 1, 0, 0, 0]
        fl.validate()

    def test_index_two_sublattice_rejected(self):
        cols = self.fl.basis.column_tuples()
        doubled = [[2 * x for x in cols[0]]] + [list(c) for c in cols[1:]]
        basis = IntMatrix.from_columns(doubled, rows=self.X.n_edges)
        with pytest.raises(InvalidParameterError, match="do not span"):
            flow_lattice_with_basis(self.X, basis)

    def test_non_flows_rejected(self):
        cols = [list(c) for c in self.fl.basis.column_tuples()]
        cols[0] = [1] + [0] * (self.X.n_edges - 1)
        basis = IntMatrix.from_columns(cols, rows=self.X.n_edges)
        with pytest.raises(InvalidParameterError, match="not flows"):
            flow_lattice_with_basis(self.X, basis)

    def test_validate_rejects_wrong_action(self):
        g = self.X.group.generator_indices["s"]
        self.fl.glattice.action[g] = IntMatrix.identity(self.fl.rank)
        with pytest.raises(InvalidParameterError, match=f"fails at element {g}"):
            self.fl.validate()


class TestWalks:
    def test_empty_walk(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        assert walk_to_flow(X, []) == [0, 0, 0]

    def test_cycle_once(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        # edges are (g, g*s) listed for g = 0, 1, 2
        walk = [0, 1, 2]
        assert walk_to_flow(X, walk) == [1, 1, 1]

    def test_open_walk_rejected(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        with pytest.raises(InvalidParameterError, match="not closed"):
            walk_to_flow(X, [0])

    def test_backward_traversal(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        flow = walk_to_flow(X, [(0, 1), (0, -1)])
        assert flow == [0, 0, 0]

    def test_bad_edge(self):
        G = cyclic(3)
        X = cayley_graph(G, [G.generator_indices["s"]])
        with pytest.raises(InvalidParameterError, match="not in the graph"):
            walk_to_flow(X, [7])


class TestSpanningTreeBasis:
    def test_cycle_basis(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree(X)
        assert len(tree) == 3
        candidate = [1, 1, 1, 1]
        fl = spanning_tree_basis(X, tree, [candidate])
        assert fl.rank == 1
        fl.validate()

    def test_non_unit_diagonal_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree(X)
        with pytest.raises(SpanningTreeBasisError, match="not \\+-1"):
            spanning_tree_basis(X, tree, [[2, 2, 2, 2]])

    def test_non_flow_candidate_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        tree = spanning_tree(X)
        with pytest.raises(InvalidParameterError, match="flow condition"):
            spanning_tree_basis(X, tree, [[1, 0, 0, 0]])

    def test_not_a_tree_rejected(self):
        G = cyclic(4)
        X = cayley_graph(G, [G.generator_indices["s"]])
        with pytest.raises(InvalidParameterError):
            spanning_tree_basis(X, [0, 1, 2, 3], [])


class TestLoopSplit:
    def test_single_vertex(self):
        X = complete_edges(trivial_gset(cyclic(1)), loops=True)
        fwd, bwd = loop_split(X)
        assert fwd.matrix.rows == 1 and fwd.matrix.cols == 1

    def test_three_trivial_vertices(self):
        X = complete_edges(trivial_gset(cyclic(1), points=3), loops=True)
        fwd, bwd = loop_split(X)
        assert fwd.source.rank == 9 - 3 + 1 == 7
        assert fwd.target.rank == (6 - 3 + 1) + 3

    def test_s3_regular(self):
        X = complete_edges(regular_gset(s3()), loops=True)
        fwd, bwd = loop_split(X)
        assert fwd.source.rank == 36 - 6 + 1 == 31
        assert fwd.target.rank == 25 + 6

    def test_requires_loops(self):
        X = complete_edges(trivial_gset(cyclic(1), points=3), loops=False)
        with pytest.raises(InvalidParameterError):
            loop_split(X)


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

    def test_nonfree_action_rejected(self):
        G = s3()
        t = G.generator_indices["t"]
        V = coset_gset(G, subgroup_from_generators(G, [t]))
        X = complete_edges(V, loops=False)
        with pytest.raises(InvalidParameterError, match="free"):
            remove_edges_decomposition(X, X)


class TestRestrictToSubgroup:
    def test_whole_group_identity(self):
        G = s3()
        S = [G.generator_indices["s"], G.generator_indices["t"]]
        iso = restrict_to_subgroup_decomposition(G, whole_group(G), S, S)
        assert iso.is_unimodular()
        assert iso.source.rank == iso.target.rank == 7

    def test_s3_to_c3(self):
        G = s3()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        H = subgroup_from_generators(G, [s])
        iso = restrict_to_subgroup_decomposition(G, H, [s, t], [s])
        # Fl(S3, {s,t}) restricted to C3 = Z + (free C3-lattice of rank 6)
        assert iso.source.rank == 1 + 6
        # first summand carries the trivial action
        assert all(
            int(iso.source.action[g][0, 0]) == 1 for g in range(3)
        )

    def test_s3_to_c2(self):
        G = s3()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        H = subgroup_from_generators(G, [t])
        iso = restrict_to_subgroup_decomposition(G, H, [s, t], [t])
        assert iso.source.rank == 1 + 3 * 2
        assert iso.is_unimodular()
        # complement summands are freely permuted (no nonidentity fixed column)
        for h in range(1, 2):
            block = iso.source.action[h]
            for i in range(1, iso.source.rank):
                col = block.col_list(i)
                assert sorted(col) == [0] * (iso.source.rank - 1) + [1]
                assert col[i] == 0

    def test_bad_generating_sets(self):
        G = s3()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        H = subgroup_from_generators(G, [s])
        with pytest.raises(InvalidParameterError, match="generate"):
            restrict_to_subgroup_decomposition(G, H, [s], [s])


class TestRemoveOrbit:
    def test_constant_map_to_fixed_vertex(self):
        G = cyclic(2)
        V = regular_gset(G).disjoint_union(trivial_gset(G))
        iso = remove_orbit_with_map(V, 0, {0: 2, 1: 2})
        assert iso.source.rank == 0 and iso.target.rank == 0

    def test_bijection_between_orbits(self):
        G = cyclic(3)
        V = regular_gset(G).disjoint_union(regular_gset(G))
        psi = {i: i + 3 for i in range(3)}
        iso = remove_orbit_with_map(V, 0, psi)
        iso.validate()
        assert iso.source.rank == iso.target.rank == 3 * 2 - 3 + 1

    def test_non_equivariant_rejected(self):
        G = cyclic(3)
        V = regular_gset(G).disjoint_union(regular_gset(G))
        psi = {0: 3, 1: 3, 2: 3}
        with pytest.raises(InvalidParameterError, match="equivariant"):
            remove_orbit_with_map(V, 0, psi)


class TestGcdSplitting:
    def test_single_fixed_point(self):
        V = trivial_gset(s3())
        phi = gcd_splitting(V)
        assert phi.matrix.col_list(0) == [1]

    def test_s3_coset_orbits(self):
        G = s3()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        V = coset_gset(G, subgroup_from_generators(G, [s])).disjoint_union(
            coset_gset(G, subgroup_from_generators(G, [t]))
        )
        phi = gcd_splitting(V)
        col = phi.matrix.col_list(0)
        # Bezout pick for sizes (2, 3) is (-1, 1)
        assert col == [-1, -1, 1, 1, 1]

    def test_sizes_4_and_9(self):
        G = cyclic(36)
        s = G.generator_indices["s"]
        H9 = subgroup_from_generators(G, [G.power(s, 4)])
        H4 = subgroup_from_generators(G, [G.power(s, 9)])
        V = coset_gset(G, H9).disjoint_union(coset_gset(G, H4))
        phi = gcd_splitting(V)
        col = phi.matrix.col_list(0)
        assert col[:4] == [-2] * 4 and col[4:] == [1] * 9

    def test_gcd_not_one_rejected(self):
        G = cyclic(2)
        with pytest.raises(InvalidParameterError, match="gcd"):
            gcd_splitting(regular_gset(G))

    def test_quasi_permutation_certificate(self):
        G = s3()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        V = coset_gset(G, subgroup_from_generators(G, [s])).disjoint_union(
            coset_gset(G, subgroup_from_generators(G, [t]))
        )
        X = complete_edges(V, loops=False)
        seq = quasi_permutation_certificate(X)
        assert check_exact(seq).ok


class TestPathHelpers:
    def test_path_flow_boundary(self):
        G = cyclic(5)
        X = cayley_graph(G, [G.generator_indices["s"]])
        vec = path_flow(X, 0, 3)
        bd = boundary_matrix(X).matrix.mul_vector(vec)
        expect = [0] * 5
        expect[3], expect[0] = 1, -1
        assert bd == expect

    def test_spanning_tree_size(self):
        G = s3()
        X = cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]])
        assert len(spanning_tree(X)) == 5
