"""Relabelling invariance: a group rebuilt from its multiplication table
with the elements renumbered by a seeded permutation has the same
subgroups, Tate groups and check outcomes as the original."""

import random

import pytest

from glattice.checks import check_bar_cocycle, check_flow_coflasque
from glattice.cohom import tate
from glattice.gflows import cayley_graph, flow_lattice
from glattice.gmod import regular
from glattice.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    semidirect,
    subgroup_conjugacy_reps,
    symmetric,
)

GROUPS = {
    "C:6": lambda: cyclic(6),
    "S:3": lambda: symmetric(3),
    "D:4": lambda: dihedral(4),
    "SD:3,2,2": lambda: semidirect(3, 2, 2),
}

# groups with long chains of prime index, where the subgroup enumeration
# skips closures by Lagrange's theorem
ENUMERATION_GROUPS = {
    "D:28": lambda: dihedral(28),
    "SD:28,2,13": lambda: semidirect(28, 2, 13),
    "X(C:4,C:12)": lambda: direct_product(cyclic(4), cyclic(12)),
    "SD:8,8,5": lambda: semidirect(8, 8, 5),
    "X(C:2,X(C:2,C:8))": lambda: direct_product(cyclic(2), direct_product(cyclic(2), cyclic(8))),
}


def relabelled(G, seed):
    """G with element x renamed sigma[x], for a seeded permutation sigma."""
    sigma = list(range(G.order))
    random.Random(seed).shuffle(sigma)
    table = [[0] * G.order for _ in range(G.order)]
    names = [""] * G.order
    for a in range(G.order):
        names[sigma[a]] = G.element_names[a]
        for b in range(G.order):
            table[sigma[a]][sigma[b]] = sigma[G.table[a][b]]
    return FiniteGroup(table, element_names=names, spec=G.spec), sigma


@pytest.mark.parametrize("name", list(GROUPS))
def test_relabelling_keeps_tate_groups_and_check_outcomes(name):
    G = GROUPS[name]()
    R, sigma = relabelled(G, seed=sum(map(ord, name)))
    assert R.identity == sigma[G.identity]
    gens = list(G.generators)
    r_gens = [sigma[g] for g in gens]
    pairs = [
        (regular(G), regular(R)),
        (flow_lattice(cayley_graph(G, gens)),
         flow_lattice(cayley_graph(R, r_gens))),
    ]
    for H in subgroup_conjugacy_reps(G):
        H_r = Subgroup(R, tuple(sorted(sigma[h] for h in H.elements)))
        for M, M_r in pairs:
            for degree in (-1, 0, 1):
                assert tate(M_r, H_r, degree) == tate(M, H, degree), (H.elements, degree)

    def outcomes(report):
        return [(d["name"], d["status"]) for d in report.details]

    assert outcomes(check_bar_cocycle(R)) == outcomes(check_bar_cocycle(G))
    assert outcomes(check_flow_coflasque(R, r_gens)) == outcomes(check_flow_coflasque(G, gens))
    assert check_flow_coflasque(G, gens).status == "pass"


@pytest.mark.parametrize("name", list(ENUMERATION_GROUPS))
def test_relabelling_maps_subgroups_onto_subgroups(name):
    """The images of G's subgroups under a seeded relabelling are exactly the
    subgroups of the relabelled group, compared as sets of element sets; no
    reference enumeration is involved.  The enumeration meets the elements
    in another order on each side, so a closure skipped on a wrong Lagrange
    argument would lose a subgroup on one side only."""
    G = ENUMERATION_GROUPS[name]()
    images = {frozenset(H.elements) for H in all_subgroups(G)}
    assert len(images) == len(all_subgroups(G))
    for seed in range(3):
        R, sigma = relabelled(G, seed=seed)
        assert {frozenset(sigma[x] for x in H) for H in images} == {
            frozenset(H.elements) for H in all_subgroups(R)
        }, seed
