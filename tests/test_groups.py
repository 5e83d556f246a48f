"""Group constructors, subgroup enumeration, Sylow machinery."""

import pytest

from glattice.errors import InvalidParameterError
from glattice.groups import (
    GSet,
    all_subgroups,
    coset_gset,
    cyclic,
    dihedral,
    direct_product,
    is_z_group,
    natural_gset,
    regular_gset,
    semidirect,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
    sylow,
    symmetric,
    trivial_subgroup,
    whole_group,
)


class TestConstructors:
    def test_trivial_group(self):
        G = cyclic(1)
        assert G.order == 1
        assert G.identity == 0

    def test_semidirect_322_is_s3(self):
        G = semidirect(3, 2, 2)
        assert G.order == 6
        orders = sorted(G.element_order(g) for g in G.elements())
        assert orders == [1, 2, 2, 2, 3, 3]
        assert not G.is_abelian()
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        # t^-1 s t = s^2
        lhs = G.mul(G.mul(G.inverses[t], s), t)
        assert lhs == G.power(s, 2)

    def test_direct_product_c2_c3_is_c6(self):
        G = direct_product(cyclic(2), cyclic(3))
        assert G.order == 6
        # brute-force element orders: a cyclic group of order 6 must appear
        assert max(G.element_order(g) for g in G.elements()) == 6

    def test_invalid_twist_names_congruence(self):
        with pytest.raises(InvalidParameterError, match="modulo 5"):
            semidirect(5, 2, 2)

    def test_dihedral_relations(self):
        G = dihedral(4)
        assert G.order == 8
        s, t = G.generator_indices["s"], G.generator_indices["t"]
        assert G.element_order(s) == 4
        assert G.element_order(t) == 2
        assert G.mul(G.mul(t, s), G.inverses[t]) == G.inverses[s]

    def test_symmetric_orders(self):
        assert symmetric(3).order == 6
        assert symmetric(4).order == 24

    def test_symmetric_cap(self):
        with pytest.raises(InvalidParameterError):
            symmetric(6)

    @pytest.mark.parametrize("G", [cyclic(5), dihedral(3), semidirect(7, 3, 2), symmetric(3)])
    def test_axioms_spotcheck(self, G):
        e = G.identity
        for a in G.elements():
            assert G.mul(a, G.inverses[a]) == e
            for b in G.elements():
                ab = G.mul(a, b)
                assert 0 <= ab < G.order


class TestSubgroups:
    def test_trivial_group_subgroups(self):
        assert len(all_subgroups(cyclic(1))) == 1

    def test_s3_subgroup_count(self):
        G = semidirect(3, 2, 2)
        subs = all_subgroups(G)
        assert len(subs) == 6
        orders = sorted(s.order for s in subs)
        assert orders == [1, 2, 2, 2, 3, 6]

    def test_c12_one_subgroup_per_divisor(self):
        G = cyclic(12)
        divisors = [d for d in range(1, 13) if 12 % d == 0]
        subs = all_subgroups(G)
        assert len(subs) == len(divisors) == 6

    def test_lagrange(self):
        for G in [semidirect(3, 2, 2), dihedral(4), symmetric(4)]:
            for sub in all_subgroups(G):
                assert G.order % sub.order == 0

    def test_conjugates_of_reps_are_enumerated(self):
        G = symmetric(3)
        everything = {s.elements for s in all_subgroups(G)}
        for rep in subgroup_conjugacy_reps(G):
            for g in G.elements():
                conjugate = tuple(sorted(G.conjugate(g, h) for h in rep.elements))
                assert conjugate in everything

    def test_s4_conjugacy_classes(self):
        G = symmetric(4)
        assert len(all_subgroups(G)) == 30
        assert len(subgroup_conjugacy_reps(G)) == 11

    @pytest.mark.parametrize(
        "G", [cyclic(12), dihedral(6), symmetric(4), semidirect(5, 4, 2),
              direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))], ids=str)
    def test_matches_closing_whole_subgroups(self, G):
        """Oracle: close every found subgroup's full element set with each
        new element; the list and its order must be the same."""
        known = {(G.identity,)}
        frontier = [(G.identity,)]
        while frontier:
            base = frontier.pop()
            for g in range(G.order):
                if g not in base:
                    new = G.closure(base + (g,))
                    if new not in known:
                        known.add(new)
                        frontier.append(new)
        expected = sorted(known, key=lambda els: (len(els), els))
        assert [s.elements for s in all_subgroups(G)] == expected

    def test_generators_regenerate(self):
        G = dihedral(6)
        for sub in all_subgroups(G):
            assert G.closure(sub.generators()) == sub.elements

    def test_as_group_roundtrip(self):
        G = symmetric(3)
        sub = next(s for s in all_subgroups(G) if s.order == 3)
        H, embed = sub.as_group()
        assert H.order == 3
        for a in range(3):
            for b in range(3):
                assert embed[H.mul(a, b)] == G.mul(embed[a], embed[b])


class TestSylow:
    def test_sylow_orders(self):
        G = symmetric(4)
        assert sylow(G, 2).order == 8
        assert sylow(G, 3).order == 3

    def test_sylow_invalid_prime(self):
        with pytest.raises(InvalidParameterError):
            sylow(cyclic(6), 5)
        with pytest.raises(InvalidParameterError):
            sylow(cyclic(6), 4)

    def test_is_z_group(self):
        assert is_z_group(semidirect(3, 2, 2))
        assert not is_z_group(direct_product(cyclic(2), cyclic(2)))
        assert is_z_group(cyclic(12))
        assert not is_z_group(symmetric(4))


class TestProperties:
    from hypothesis import given, settings, strategies as st

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_cyclic_subgroup_count_matches_divisors(self, n):
        G = cyclic(n)
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(all_subgroups(G)) == divisors

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_dihedral_lagrange_and_sylow(self, n):
        G = dihedral(n)
        for sub in all_subgroups(G):
            assert G.order % sub.order == 0
        two_part = 1
        while G.order % (two_part * 2) == 0:
            two_part *= 2
        assert sylow(G, 2).order == two_part


class TestGSets:
    def test_regular_gset_free(self):
        X = regular_gset(semidirect(3, 2, 2))
        assert X.size == 6
        assert X.is_free()
        assert X.orbits() == [tuple(range(6))]

    def test_coset_gset(self):
        G = symmetric(3)
        t = next(g for g in G.elements() if G.element_order(g) == 2)
        H = subgroup_from_generators(G, [t])
        X = coset_gset(G, H)
        assert X.size == 3
        assert X.stabilizer(0).elements == H.elements

    def test_natural_gset(self):
        X = natural_gset(symmetric(4))
        assert X.size == 4
        assert len(X.orbits()) == 1

    def test_natural_gset_missing(self):
        with pytest.raises(InvalidParameterError):
            natural_gset(cyclic(4))

    def test_invalid_gset_rejected(self):
        G = cyclic(2)
        with pytest.raises(InvalidParameterError, match="invalid-gset"):
            GSet(G, [(1, 0), (0, 1)])  # identity must act trivially

    def test_disjoint_union_orbits(self):
        G = symmetric(3)
        t = next(g for g in G.elements() if G.element_order(g) == 2)
        s = next(g for g in G.elements() if G.element_order(g) == 3)
        X = coset_gset(G, subgroup_from_generators(G, [s]))
        Y = coset_gset(G, subgroup_from_generators(G, [t]))
        U = X.disjoint_union(Y)
        assert [len(o) for o in U.orbits()] == [2, 3]

    def test_orbit_transversal_takes_smallest_element(self):
        G = dihedral(4)
        X = coset_gset(G, subgroup_conjugacy_reps(G)[1])
        U = X.disjoint_union(regular_gset(G))
        transversal = U.orbit_transversal()
        assert [base for base, _ in transversal] == [o[0] for o in U.orbits()]
        for (base, pairs), orbit in zip(transversal, U.orbits()):
            assert [p for p, _ in pairs] == list(orbit)
            for p, g in pairs:
                assert g == min(h for h in G.elements() if U.action[h][base] == p)

    def test_whole_and_trivial(self):
        G = dihedral(3)
        assert whole_group(G).order == 6
        assert trivial_subgroup(G).order == 1
