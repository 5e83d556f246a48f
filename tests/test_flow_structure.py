"""The structure of flow and permutation lattices, checked through the
public calculus: loops split off free summands, pendant edges carry no
flow, restrictions to subgroups have the Tate groups of Z shifted by two,
the augmentation of ZV splits exactly when the orbit sizes of V
are coprime, and coset lattices obey Shapiro's lemma."""

from math import gcd

import pytest

from glattice import cohom
from glattice.cli import parse_graph_spec
from glattice.cohom import tate
from glattice.errors import InvalidParameterError
from glattice.gflows import (
    GGraph,
    boundary_matrix,
    cayley_graph,
    complete_edges,
    flow_lattice,
    remove_edges_decomposition,
    restrict_graph_group,
    subgraph,
)
from glattice.gmod import (
    ShortExactSequence,
    augmentation_kernel,
    augmentation_map,
    coset_lattice,
    fixed_sublattice,
    permutation_lattice,
    regular,
    restrict,
    trivial,
)
from glattice.groups import (
    GSet,
    coset_gset,
    cyclic,
    dihedral,
    regular_gset,
    semidirect,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
    trivial_subgroup,
    whole_group,
)
from glattice.intlinalg import IntMatrix, same_column_span
from reference import (
    as_flow,
    infer_edge_action,
    lattices_equal_all_elements,
    path_flow_by_bfs,
    tensor,
    validate_flow_lattice,
)
from test_lifts import assert_oracle_columns


def s3():
    return semidirect(3, 2, 2)


def fixed_points(G, n=1):
    """n points, each fixed by every element of G."""
    return GSet(G, [tuple(range(n))] * G.order)


def cosets_of_orders(G, *element_orders):
    """The disjoint union of G/<g> over elements g = s^k of the given orders,
    for a cyclic group G with generator s."""
    s = G.generator_indices["s"]
    V = None
    for d in element_orders:
        H = subgroup_from_generators(G, [G.power(s, G.order // d)])
        orbit = coset_gset(G, H)
        V = orbit if V is None else V.disjoint_union(orbit)
    return V


def s3_coset_points():
    """S3/<s> (2 points) and S3/<t> (3 points)."""
    G = s3()
    s, t = G.generator_indices["s"], G.generator_indices["t"]
    return coset_gset(G, subgroup_from_generators(G, [s])).disjoint_union(
        coset_gset(G, subgroup_from_generators(G, [t]))
    )


def cayley_on_named(G, names):
    return cayley_graph(G, [G.generator_indices[n] for n in names])


def cyclic_two_steps():
    G = cyclic(6)
    s = G.generator_indices["s"]
    return cayley_graph(G, [s, G.power(s, 2)])


# name -> (graph builder, |E| - |V| + 1)
GRAPHS = {
    "cayley-C:3": (lambda: cayley_on_named(cyclic(3), "s"), 1),
    "cayley-C:6-s,s^2": (cyclic_two_steps, 7),
    "cayley-SD:3,2,2": (lambda: cayley_on_named(s3(), "st"), 7),
    "cayley-D:4": (lambda: cayley_on_named(dihedral(4), "st"), 9),
    "complete-loops-3-points": (lambda: complete_edges(fixed_points(cyclic(1), 3), loops=True), 7),
    "complete-loops-regular-S3": (lambda: complete_edges(regular_gset(s3()), loops=True), 31),
    "complete-S3-cosets-2+3": (lambda: complete_edges(s3_coset_points()), 16),
    "complete-C:12-cosets-4+3": (lambda: complete_edges(cosets_of_orders(cyclic(12), 3, 4)), 36),
}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_flow_lattice_matches_kernel_oracle(name):
    build, rank = GRAPHS[name]
    fl = flow_lattice(build())
    assert fl.rank == rank
    validate_flow_lattice(fl)


# -- loops ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "vertices, loopless_rank",
    [
        (lambda: fixed_points(cyclic(1), 3), 6 - 3 + 1),
        (lambda: regular_gset(cyclic(3)), 6 - 3 + 1),
        (lambda: regular_gset(s3()), 30 - 6 + 1),
    ],
    ids=["3-points", "regular-C:3", "regular-S3"],
)
def test_loops_split_off_a_free_summand(vertices, loopless_rank):
    """Fl(V, E + loops) = Fl(V, E) + ZV when V is free: each loop is a flow."""
    V = vertices()
    X = complete_edges(V, loops=True)
    loopless = subgraph(X, [e for e, (a, b) in enumerate(X.edges) if a != b])
    iso = remove_edges_decomposition(X, loopless)
    assert iso.source.rank == loopless_rank + V.size
    assert iso.target.rank == X.n_edges - V.size + 1
    assert_oracle_columns(X, loopless)


# -- pendant edges ----------------------------------------------------------------


def union_of(G, *builders):
    """The disjoint union of the G-sets the builders make from G."""
    V = builders[0](G)
    for build in builders[1:]:
        V = V.disjoint_union(build(G))
    return V


def graph_with_pendants(V, orbit, psi):
    """The complete graph on the points outside the orbit plus one pendant
    edge u -> psi[u] for each point u of the orbit."""
    inside = set(orbit)
    rest = [v for v in range(V.size) if v not in inside]
    X_rest = complete_edges(V.restrict(rest))
    edges = [(rest[a], rest[b]) for a, b in X_rest.edges] + [(u, psi[u]) for u in orbit]
    return X_rest, GGraph(V, edges, infer_edge_action(V, edges))


@pytest.mark.parametrize(
    "vertices, psi",
    [
        (lambda: union_of(cyclic(2), regular_gset, fixed_points), {0: 2, 1: 2}),
        (lambda: union_of(cyclic(3), regular_gset, regular_gset), {0: 3, 1: 4, 2: 5}),
    ],
    ids=["constant-to-fixed-point", "bijection-between-orbits"],
)
def test_pendant_edges_carry_no_flow(vertices, psi):
    V = vertices()
    X_rest, X = graph_with_pendants(V, V.orbits()[0], psi)
    fl, fl_rest = flow_lattice(X), flow_lattice(X_rest)
    assert fl.rank == fl_rest.rank
    n = X_rest.n_edges
    assert fl.basis.take_rows(range(n, X.n_edges)).is_zero()
    assert same_column_span(fl.basis.take_rows(range(n)), fl_rest.basis)


def test_non_equivariant_pendants_rejected():
    """The pendant edges all end at 3, but the action moves them as the
    edges of the bijection 0 -> 3, 1 -> 4, 2 -> 5."""
    V = union_of(cyclic(3), regular_gset, regular_gset)
    _, X = graph_with_pendants(V, V.orbits()[0], {0: 3, 1: 4, 2: 5})
    edges = X.edges[:-3] + [(u, 3) for u in range(3)]
    with pytest.raises(InvalidParameterError, match="incompatible with vertex action"):
        GGraph(V, edges, X.edge_gset.action)


# -- restriction to subgroups -----------------------------------------------------


def s3_subgroup(name):
    G = s3()
    return {
        "trivial": trivial_subgroup(G),
        "C:2": subgroup_from_generators(G, [G.generator_indices["t"]]),
        "C:3": subgroup_from_generators(G, [G.generator_indices["s"]]),
        "S3": whole_group(G),
    }[name]


# Fl(G, S) sits in 0 -> Fl -> ZE -> I_G -> 0 with ZE free, so its Tate groups
# over H are those of Z shifted by two: H^0 is the abelianisation of H and
# H^-1 is the Schur multiplier, trivial for every subgroup of S3.
S3_SUBGROUPS = {"trivial": (), "C:2": (2,), "C:3": (3,), "S3": (2,)}


@pytest.mark.parametrize("name", list(S3_SUBGROUPS))
def test_restricted_flow_lattice_has_the_tate_groups_of_z_shifted_by_two(name):
    H = s3_subgroup(name)
    G = H.parent
    X = cayley_on_named(G, "st")
    M = flow_lattice(X)
    R = restrict(M, H)
    Hgrp = R.group
    # rank of the H-fixed flows: edge orbits - vertex orbits + 1
    assert fixed_sublattice(R, whole_group(Hgrp)).cols == 12 // H.order - 6 // H.order + 1
    assert tate(M, H, 0).invariant_factors == S3_SUBGROUPS[name]
    assert tate(R, whole_group(Hgrp), 0) == tate(M, H, 0)
    assert tate(M, H, -1).is_trivial
    assert tate(R, whole_group(Hgrp), -1).is_trivial


@pytest.mark.parametrize("name", list(S3_SUBGROUPS))
def test_restricted_flow_lattice_is_flow_lattice_of_restricted_graph(name):
    H = s3_subgroup(name)
    X = cayley_on_named(H.parent, "st")
    fl_H = flow_lattice(restrict_graph_group(X, H))
    validate_flow_lattice(fl_H)
    assert lattices_equal_all_elements(fl_H, restrict(flow_lattice(X), H))
    assert fl_H.basis == flow_lattice(X).basis


# The flow basis depends on the edge order alone, not on the group: over
# every subgroup H the restricted graph has the same flow basis, so the
# restricted flow lattice is the flow lattice of the restricted graph.
@pytest.mark.parametrize("spec", [
    "cayley(SD:3,4,2;s,t)", "cayley(SD:5,4,4;s,t)", "cayley(D:4;s,t)", "cayley(D:4;*)",
    "cayley(X(C:2,C:6);#1,#6)",
])
def test_restricted_flow_lattice_keeps_the_flow_basis(spec):
    X = parse_graph_spec(spec)
    fl = flow_lattice(X)
    for H in subgroup_conjugacy_reps(X.group):
        fl_H = flow_lattice(restrict_graph_group(X, H))
        assert fl_H.basis == fl.basis, H.elements
        assert lattices_equal_all_elements(fl_H, restrict(fl, H)), H.elements


# -- the augmentation of ZV -------------------------------------------------------


# name -> (G-set builder, gcd of its orbit sizes)
ORBIT_SIZES = {
    "point": (lambda: fixed_points(s3()), 1),
    "S3-cosets-2+3": (s3_coset_points, 1),
    "C:36-cosets-4+9": (lambda: cosets_of_orders(cyclic(36), 9, 4), 1),
    "regular-C:2": (lambda: regular_gset(cyclic(2)), 2),
    "regular-S3": (lambda: regular_gset(s3()), 6),
}


@pytest.mark.parametrize("name", list(ORBIT_SIZES))
def test_augmentation_splits_iff_orbit_sizes_are_coprime(name):
    build, d = ORBIT_SIZES[name]
    V = build()
    assert gcd(*(len(o) for o in V.orbits())) == d
    P = permutation_lattice(V.group, V)
    fixed = fixed_sublattice(P, whole_group(V.group))
    # the fixed vectors are the orbit sums, whose augmentations are the orbit sizes
    assert gcd(*(sum(fixed.col_list(j)) for j in range(fixed.cols))) == d
    _, incl = augmentation_kernel(P)
    iso = cohom.split_iso(ShortExactSequence(incl, augmentation_map(P)))  # [incl | s]
    assert (iso is not None) == (d == 1)
    if iso is not None:
        assert sum(iso.matrix.col_list(P.rank - 1)) == 1


# -- coset lattices ----------------------------------------------------------------


def subgroup_cases():
    groups = {"S3": s3(), "D:4": dihedral(4)}
    return [
        pytest.param(G, H, id=f"{name}-{'.'.join(map(str, H.elements))}")
        for name, G in groups.items()
        for H in subgroup_conjugacy_reps(G)
    ]


@pytest.mark.parametrize("G, H", subgroup_cases())
def test_shapiro_lemma_for_coset_lattices(G, H):
    """Z[G/H] is induced from the trivial H-lattice, so its Tate groups over
    G are those of Z over H."""
    Hgrp, _ = H.as_group()
    P = coset_lattice(G, H)
    for degree in (-1, 0, 1):
        assert tate(P, whole_group(G), degree) == tate(trivial(Hgrp), whole_group(Hgrp), degree)


def test_coset_lattice_of_extreme_subgroups():
    G = s3()
    assert lattices_equal_all_elements(coset_lattice(G, trivial_subgroup(G)), regular(G))
    assert lattices_equal_all_elements(coset_lattice(G, whole_group(G)), trivial(G))


def test_tensor_with_coset_lattice_moves_to_the_subgroup():
    """Z[G/H] (x) M is induced from the restriction of M to H."""
    G = cyclic(4)
    H = subgroup_from_generators(G, [G.power(G.generator_indices["s"], 2)])
    P = coset_lattice(G, H)
    assert lattices_equal_all_elements(tensor(P, trivial(G)), P)
    free = tensor(P, regular(G))
    assert free.rank == 2 * 4
    for K in subgroup_conjugacy_reps(G):
        for degree in (-1, 0, 1):
            assert tate(free, K, degree).is_trivial


# -- path flows ---------------------------------------------------------------------


def test_closed_chains_of_paths_are_flows():
    X = cayley_on_named(s3(), "st")
    fl = flow_lattice(X)
    bd = boundary_matrix(X).matrix
    for a, b, c in [(0, 3, 5), (1, 4, 2), (2, 2, 0)]:
        loop = {}
        for path in (path_flow_by_bfs(X, a, b), path_flow_by_bfs(X, b, c), path_flow_by_bfs(X, c, a)):
            for e, x in as_flow(path).items():
                loop[e] = loop.get(e, 0) + x
        vec = IntMatrix.from_sparse_columns(X.n_edges, [loop])
        assert (bd @ vec).is_zero()
        coords = fl.solver.express_columns([loop])
        assert coords is not None
        assert fl.basis @ coords == vec


def test_open_paths_have_no_flow_coordinates():
    X = cayley_on_named(cyclic(5), "s")
    fl = flow_lattice(X)
    assert fl.solver.express_columns([as_flow(path_flow_by_bfs(X, 0, 3))]) is None
    # twice a flow is a flow; a flow halved off the lattice is rejected
    twice = {e: 2 * x for e, x in fl.basis.column_nonzeros()[0].items()}
    assert fl.solver.express_columns([twice]).to_lists() == [[2]]
    assert fl.solver.express_columns([{0: 1}]) is None
