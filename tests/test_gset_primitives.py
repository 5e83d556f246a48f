"""The G-set primitives (`GSet.move`, `GSet.restrict`, `GSet.restrict_group`,
`coset_gset`) and the graph operations built on them, checked against the
inline versions they replaced (see reference.py) on every subgroup class
of C:6, S:3, D:4, X(C:2,C:2), SD:3,2,2 and S:4, the last also on its
natural point set."""

import pytest

from glattice.cohom import _coinvariant_projection
from glattice.errors import InvalidParameterError
from glattice.gflows import (
    cayley_graph,
    complete_edges,
    flow_lattice,
    fundamental_cycles,
    restrict_graph_group,
    subgraph,
)
from glattice.gmod import coset_lattice, restrict
from glattice.groups import (
    coset_gset,
    cyclic,
    dihedral,
    direct_product,
    double_coset_count,
    left_coset_reps,
    natural_gset,
    regular_gset,
    semidirect,
    subgroup_conjugacy_reps,
    symmetric,
)

from reference import (
    as_flow,
    coinvariant_projection_left_kernel,
    coset_gset_by_scan,
    edge_orbits_by_scan,
    move_by_loop,
    orbit_count,
    path_flow_by_bfs,
    spanning_tree_by_bfs,
    stable_subset_action,
)

GROUPS = {
    "C:6": lambda: cyclic(6),
    "S:3": lambda: symmetric(3),
    "D:4": lambda: dihedral(4),
    "X(C:2,C:2)": lambda: direct_product(cyclic(2), cyclic(2)),
    "SD:3,2,2": lambda: semidirect(3, 2, 2),
    "S:4": lambda: symmetric(4),
}


@pytest.fixture(params=list(GROUPS), scope="module")
def group(request):
    return GROUPS[request.param]()


def gsets(G):
    """The regular G-set, G/H for every subgroup class H, and the natural
    point set when G has one."""
    out = [regular_gset(G)] + [coset_gset(G, H) for H in subgroup_conjugacy_reps(G)]
    if G.point_action is not None:
        out.append(natural_gset(G))
    return out


def graphs(G):
    """The Cayley graph on the greedy generators and the complete graph on
    each G-set."""
    return [cayley_graph(G, G.generators)] + [complete_edges(V) for V in gsets(G)[1:]]


def test_coset_gset_matches_scan(group):
    for H in subgroup_conjugacy_reps(group):
        got, want = coset_gset(group, H), coset_gset_by_scan(group, H)
        assert got.action == want.action


def test_move_matches_loop(group):
    for V in gsets(group):
        vec = [x + 1 if x % 3 else 0 for x in range(V.size)]  # distinct entries and zeros
        for g in group.elements():
            assert V.move(g, as_flow(vec)) == as_flow(move_by_loop(V.action[g], vec))
            assert V.move(g, {V.size - 1: 1}) == {V.action[g][V.size - 1]: 1}


@pytest.mark.parametrize("key", [-1, 3, 7])
def test_move_refuses_a_key_outside_the_points(key):
    V = regular_gset(cyclic(3))
    with pytest.raises(InvalidParameterError, match=f"point {key} out of range"):
        V.move(1, {0: 1, key: 1, 2: 1})  # the bad key neither first nor last


def test_restrict_group_matches_orbit_count(group):
    reps = subgroup_conjugacy_reps(group)
    for V in gsets(group):
        for K in reps:
            R = V.restrict_group(K)
            assert R.group is K.as_group()[0]
            assert R.action == [V.action[g] for g in K.elements]
            assert len(R.orbits()) == orbit_count(V, K)


def test_double_coset_count_matches_orbit_count(group):
    reps = subgroup_conjugacy_reps(group)
    for H in reps:
        V = coset_gset(group, H)
        for K in reps:
            assert double_coset_count(K, H) == orbit_count(V, K)


def test_edge_orbits_match_scan(group):
    for X in graphs(group):
        assert X.edge_orbits() == edge_orbits_by_scan(X)
        for K in subgroup_conjugacy_reps(group):
            XK = restrict_graph_group(X, K)
            assert XK.edge_orbits() == edge_orbits_by_scan(XK)


def test_restrict_matches_stable_subset_action(group):
    for X in graphs(group):
        orbits = X.edge_orbits()
        subsets = orbits + [tuple(e for o in orbits[1:] for e in o)]
        for keep in subsets:
            assert X.edge_gset.restrict(keep).action == stable_subset_action(X.edge_gset, keep)
            assert subgraph(X, keep).edge_gset.action == stable_subset_action(X.edge_gset, keep)
    V = gsets(group)[-1].disjoint_union(regular_gset(group))
    for orbit in V.orbits():
        R = V.restrict(orbit)
        assert R.action == stable_subset_action(V, orbit)


def test_restrict_rejects_unstable_subset():
    G = symmetric(3)
    V = regular_gset(G)
    with pytest.raises(InvalidParameterError, match="not stable"):
        V.restrict([0, 1])
    with pytest.raises(InvalidParameterError, match="out of range"):
        V.restrict([0, 6])
    X = cayley_graph(G, G.generators)
    with pytest.raises(InvalidParameterError, match="not stable"):
        subgraph(X, [0])


def _cycles_by_reference(X, spanning):
    """Each edge outside the spanning set closed by the reference path
    through the set's breadth-first tree, by edge."""
    tree, inside = spanning_tree_by_bfs(X, spanning), set(spanning)
    out = {}
    for e in range(X.n_edges):
        if e not in inside:
            u, v = X.edges[e]
            cycle = path_flow_by_bfs(X, v, u, tree)
            cycle[e] += 1
            out[e] = as_flow(cycle)
    return out


def test_fundamental_cycles_match_reference(group):
    """Over a spanning tree and over the edges left when one edge orbit is
    removed, each edge outside the set is closed by the reference path
    through the set's breadth-first tree; a set that does not span is
    refused."""
    for X in graphs(group):
        spanning_sets = [spanning_tree_by_bfs(X)] + [
            sorted(set(range(X.n_edges)) - set(orbit)) for orbit in X.edge_orbits()]
        for spanning in spanning_sets:
            try:
                want = _cycles_by_reference(X, spanning)
            except InvalidParameterError:
                with pytest.raises(InvalidParameterError, match="does not span"):
                    fundamental_cycles(X, spanning)
            else:
                assert list(fundamental_cycles(X, spanning).items()) == list(want.items())
    # over the edges of the first generator only, spanning for C:6 alone
    X = cayley_graph(group, group.generators)
    s = group.generators[0]
    first = [e for e, (u, v) in enumerate(X.edges) if v == group.table[u][s]]
    if len(group.generators) == 1:
        assert fundamental_cycles(X, first) == _cycles_by_reference(X, first) == {}
    else:
        with pytest.raises(InvalidParameterError, match="does not span"):
            fundamental_cycles(X, first)


def test_components_are_the_cosets_of_the_generated_subgroup(group):
    for H in subgroup_conjugacy_reps(group):
        X = cayley_graph(group, H.generators())
        cosets = [
            tuple(sorted(group.mul(r, h) for h in H.elements))
            for r in left_coset_reps(group, H)
        ]
        assert X.components() == cosets


def test_coinvariant_projection_matches_left_kernel(group):
    reps = subgroup_conjugacy_reps(group)
    flows = flow_lattice(cayley_graph(group, group.generators))
    lattices = [coset_lattice(group, H) for H in reps] + [flows]
    lattices += [restrict(flows, H) for H in reps]
    for M in lattices:
        assert _coinvariant_projection(M) == coinvariant_projection_left_kernel(M)
