"""Validation on generators against the pairwise reference validators.

The library checks groups, G-sets, G-graphs and lattices on a generating
set and trusts what its own constructors derive.  The oracles below are
the exhaustive pairwise checks it used before; each corruption must be
rejected by both, and every derived lattice must pass the oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from glattice.errors import InvalidParameterError
from glattice.gflows import GGraph, cayley_graph, flow_lattice
from glattice.gmod import (
    EquivariantMap,
    GLattice,
    augmentation_kernel,
    coset_lattice,
    direct_sum,
    dual,
    regular,
    restrict,
    sublattice_with_action,
    trivial,
)
from glattice.groups import (
    FiniteGroup,
    GSet,
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    regular_gset,
    subgroup_conjugacy_reps,
    symmetric,
)
from glattice.intlinalg import IntMatrix
from reference import det, tensor

GROUPS = {
    "C:6": lambda: cyclic(6),
    "S:3": lambda: symmetric(3),
    "D:4": lambda: dihedral(4),
    "X(C:2,C:2)": lambda: direct_product(cyclic(2), cyclic(2)),
}


# -- pairwise reference validators -----------------------------------------------


def oracle_is_group(table) -> bool:
    """Identity, two-sided inverses and associativity over all triples."""
    n = len(table)
    ids = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(table[x][y] == e == table[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def oracle_is_action(G, perms) -> bool:
    """perms[g h] == perms[g] o perms[h] for all pairs, identity acting trivially."""
    size = len(perms[G.identity])
    if any(sorted(p) != list(range(size)) for p in perms):
        return False
    if tuple(perms[G.identity]) != tuple(range(size)):
        return False
    return all(
        tuple(perms[G.mul(g, h)]) == tuple(perms[g][perms[h][x]] for x in range(size))
        for g in G.elements()
        for h in G.elements()
    )


def oracle_is_graph(vertices, edges, edge_perms) -> bool:
    """Edge action a homomorphism compatible with the vertex action at every g."""
    G = vertices.group
    if not oracle_is_action(G, edge_perms):
        return False
    return all(
        edges[edge_perms[g][e]] == (vertices.action[g][s], vertices.action[g][t])
        for g in G.elements()
        for e, (s, t) in enumerate(edges)
    )


def oracle_is_lattice(G, action) -> bool:
    """rho(e) = I, rho(g h) = rho(g) rho(h) for all pairs, |det rho(g)| = 1."""
    if not action[G.identity].is_identity():
        return False
    for g in G.elements():
        for h in G.elements():
            if action[G.mul(g, h)] != action[g] @ action[h]:
                return False
    return all(abs(det(m)) == 1 for m in action)


def oracle_is_permutation_action(action) -> bool:
    """Every matrix, not only the generators', is a permutation matrix."""
    return all(
        sorted(m.col_list(i)) == [0] * (m.rows - 1) + [1] for m in action for i in range(m.cols)
    )


# -- corruptions: both validators reject -----------------------------------------

group_names = st.sampled_from(sorted(GROUPS))


@given(group_names, st.data())
@settings(max_examples=80, deadline=None)
def test_corrupted_table_rejected(name, data):
    G = GROUPS[name]()
    n = G.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1).filter(lambda x: x != G.mul(a, b)))
    table = [list(row) for row in G.table]
    table[a][b] = c
    assert not oracle_is_group(table)
    with pytest.raises(InvalidParameterError):
        FiniteGroup(table)


def _swap_images(perm, i, j):
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _two_points(data, size):
    i = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, size - 1).filter(lambda x: x != i))
    return i, j


@pytest.mark.parametrize(
    "elements, message",
    [((0, 0), "twice"), ((1, 2), "identity"), ((0, 1), "not closed"), ((0, 1, 2), "not closed")],
)
def test_invalid_subgroup_rejected(elements, message):
    with pytest.raises(InvalidParameterError, match=message):
        Subgroup(cyclic(4), elements)


@given(group_names, st.data())
@settings(max_examples=80, deadline=None)
def test_corrupted_gset_rejected(name, data):
    G = GROUPS[name]()
    X = regular_gset(G)
    g = data.draw(st.integers(0, G.order - 1))
    i, j = _two_points(data, X.size)
    action = list(X.action)
    action[g] = _swap_images(action[g], i, j)
    assert not oracle_is_action(G, action)
    with pytest.raises(InvalidParameterError):
        GSet(G, action)


@given(group_names, st.data())
@settings(max_examples=60, deadline=None)
def test_corrupted_edge_action_rejected(name, data):
    G = GROUPS[name]()
    X = cayley_graph(G, G.generators)
    g = data.draw(st.integers(0, G.order - 1))
    i, j = _two_points(data, X.n_edges)
    edge_action = list(X.edge_gset.action)
    edge_action[g] = _swap_images(edge_action[g], i, j)
    assert not oracle_is_graph(X.vertices, X.edges, edge_action)
    with pytest.raises(InvalidParameterError):
        GGraph(X.vertices, X.edges, edge_action)


@given(group_names, st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_corrupted_action_matrix_rejected(name, use_kernel, data):
    G = GROUPS[name]()
    M = augmentation_kernel(regular(G))[0] if use_kernel else regular(G)
    g = data.draw(st.integers(0, G.order - 1))
    i = data.draw(st.integers(0, M.rank - 1))
    j = data.draw(st.integers(0, M.rank - 1))
    delta = data.draw(st.integers(-3, 3).filter(lambda x: x != 0))
    rows = M.action[g].to_lists()
    rows[i][j] += delta
    action = [IntMatrix.from_rows(rows) if h == g else m for h, m in enumerate(M.action)]
    assert not oracle_is_lattice(G, action)
    with pytest.raises(InvalidParameterError):
        GLattice(G, action)


def _twisted_off_first_generator(G, perms):
    """A genuine action twisted by a transposition on one left coset of <s>.

    s is the first generator, so rho(g s) = rho(g) rho(s) still holds for s
    and only the other generators expose the twist.
    """
    H = set(G.closure(G.generators[:1]))
    g0 = min(g for g in G.elements() if g not in H)
    coset = {G.mul(g0, h) for h in H}
    tau = _swap_images(range(len(perms[0])), 0, 1)
    return [tuple(tau[x] for x in p) if g in coset else tuple(p) for g, p in enumerate(perms)]


def _permutation_matrix(perm):
    n = len(perm)
    return IntMatrix.from_columns([[int(x == y) for x in range(n)] for y in perm], rows=n)


@pytest.mark.parametrize("name", ["S:3", "D:4", "X(C:2,C:2)"])
def test_every_generator_is_checked(name):
    G = GROUPS[name]()
    perms = _twisted_off_first_generator(G, regular_gset(G).action)
    assert not oracle_is_action(G, perms)
    with pytest.raises(InvalidParameterError):
        GSet(G, perms)
    action = [_permutation_matrix(p) for p in perms]
    assert not oracle_is_lattice(G, action)
    with pytest.raises(InvalidParameterError):
        GLattice(G, action)


# -- derived lattices are trusted because they are correct -------------------------


def _derived_lattices(G):
    reg = regular(G)
    I = augmentation_kernel(reg)[0]
    out = {
        "regular": reg,
        "trivial": trivial(G),
        "augmentation_kernel": I,
        "dual": dual(I),
        "direct_sum": direct_sum(reg, trivial(G)),
        "tensor": tensor(I, I),
        "flows": flow_lattice(cayley_graph(G, G.generators)),
    }
    for H in subgroup_conjugacy_reps(G):
        out[f"coset{H.elements}"] = coset_lattice(G, H)
        R = restrict(I, H)
        out[f"restrict{H.elements}"] = R
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_derived_lattices_pass_oracle(name):
    G = GROUPS[name]()
    for label, M in _derived_lattices(G).items():
        assert oracle_is_lattice(M.group, M.action), label


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_permutation_action_agrees_with_oracle(name):
    G = GROUPS[name]()
    lattices = _derived_lattices(G)
    # the first generator acts trivially, so checking it alone cannot tell
    first = Subgroup(G, G.closure(G.generators[:1]))
    lattices["twisted"] = augmentation_kernel(coset_lattice(G, first))[0]
    C2 = cyclic(2)
    lattices["sign"] = GLattice(C2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    verdicts = {}
    for label, M in lattices.items():
        verdicts[label] = oracle_is_permutation_action(M.action)
        assert M.is_permutation_action() == verdicts[label], label
    assert set(verdicts.values()) == {True, False}


def test_rank_deficient_basis_rejected():
    M = regular(cyclic(3))
    ones = [1, 1, 1]
    with pytest.raises(InvalidParameterError, match="linearly independent"):
        sublattice_with_action(M, IntMatrix.from_columns([ones, ones]))


def test_equivariance_checked_on_every_generator():
    G = symmetric(3)
    M = regular(G)
    s, t = G.generators
    # a polynomial in rho(s) commutes with e and s, but not with t
    phi = EquivariantMap(M, M, IntMatrix.identity(M.rank) + M.action[s])
    assert phi.equivariance_failure() == t
    with pytest.raises(InvalidParameterError, match="not equivariant"):
        phi.validate()
