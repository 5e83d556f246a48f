"""Relabelling invariance: a group rebuilt from its multiplication table
with the elements renumbered by a seeded permutation has the same Tate
groups and the same check outcomes as the original."""

import random

import pytest

from glattice.checks import check_bar_cocycle, check_flow_coflasque
from glattice.cohom import tate
from glattice.gflows import cayley_graph, flow_lattice
from glattice.gmod import regular
from glattice.groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    dihedral,
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
