"""Group constructors, subgroup enumeration, Sylow machinery."""

import itertools

import numpy as np
import pytest

from glattice.errors import InvalidParameterError
from glattice.groups import (
    FiniteGroup,
    GSet,
    Subgroup,
    all_subgroups,
    coset_gset,
    cyclic,
    dihedral,
    direct_product,
    is_z_group,
    natural_gset,
    regular_gset,
    semidirect,
    subgroup_classes,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
    sylow,
    symmetric,
    trivial_subgroup,
    whole_group,
)
from reference import (
    center_all_pairs,
    greedy_generators_from_scratch,
    is_abelian_all_pairs,
    subgroup_classes_by_all_conjugates,
    subgroups_by_closing_whole,
    symmetric_table_by_composition,
)

# every group the subgroup machinery is compared with its from-scratch oracles on;
# D:28, SD:28,2,13, X(C:4,C:12), SD:8,8,5 and C2 x C2 x C8 (queries groups) have long
# chains of prime index, where the enumeration skips closures by Lagrange's theorem
ORACLE_GROUPS = [
    cyclic(12),
    dihedral(6),
    symmetric(4),
    semidirect(5, 4, 2),
    direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
    dihedral(32),
    cyclic(64),
    direct_product(cyclic(2), cyclic(16)),
    direct_product(cyclic(4), cyclic(8)),
    direct_product(cyclic(2), direct_product(cyclic(2), cyclic(8))),
    direct_product(cyclic(4), cyclic(4)),
    semidirect(9, 3, 4),
    dihedral(28),
    semidirect(28, 2, 13),
    direct_product(cyclic(4), cyclic(12)),
    semidirect(8, 8, 5),
]


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

    def test_power_is_the_repeated_product(self):
        """Exponents are reduced by the element order, negative ones too."""
        G = symmetric(4)
        for a in G.elements():
            step = {0: G.identity}
            for k in range(1, 13):
                step[k] = G.mul(step[k - 1], a)
                step[-k] = G.mul(step[-k + 1], G.inverses[a])
            for k, want in step.items():
                assert G.power(a, k) == want
            assert G.power(a, 10 ** 22) == step[10 ** 22 % 12]

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_table_composes_permutations(self, n):
        G = symmetric(n)
        assert G.table == symmetric_table_by_composition(n)
        assert G.point_action == sorted(itertools.permutations(range(n)))

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

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_classes_match_conjugating_by_every_element(self, G):
        reps, class_of = subgroup_classes(G)
        want_reps, want_class_of = subgroup_classes_by_all_conjugates(G)
        assert [H.elements for H in reps] == [H.elements for H in want_reps]
        assert class_of == want_class_of
        assert [H.elements for H in subgroup_conjugacy_reps(G)] == [H.elements for H in reps]

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_matches_closing_whole_subgroups(self, G):
        """Oracle: close every found subgroup's full element set with each
        new element from the identity; the list and its order must be the same."""
        assert [s.elements for s in all_subgroups(G)] == subgroups_by_closing_whole(G)

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_greedy_generators_match_closing_from_scratch(self, G):
        assert G.generators == greedy_generators_from_scratch(G, range(G.order))
        for sub in all_subgroups(G):
            assert sub.generators() == greedy_generators_from_scratch(G, sub.elements)

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_enumerated_subgroup_is_the_checked_subgroup(self, G):
        """An enumerated subgroup, certified by the closure that found it,
        equals the subgroup the public constructor checks on the same
        elements, with the same generators."""
        for sub in all_subgroups(G):
            checked = Subgroup(G, sub.elements)
            assert sub == checked
            assert sub.generators() == checked.generators()

    @pytest.mark.parametrize("n", range(1, 33))
    def test_subgroup_counts_match_closed_forms(self, n):
        """Oracle by counting: C_n has one subgroup per divisor of n, and the
        dihedral group of order 2n has tau(n) + sigma(n), the cyclic
        subgroups of the rotations plus the dihedral ones <s^(n/d), s^i t>."""
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(all_subgroups(cyclic(n))) == len(divisors)
        assert len(all_subgroups(dihedral(n))) == len(divisors) + sum(divisors)

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_set_not_closed_is_refused(self, G):
        """A subgroup of order at least 2 plus the smallest element outside
        it is never closed: <B, g> holds the whole coset B g."""
        for sub in all_subgroups(G)[1:-1]:
            els = sub.elements + (min(set(range(G.order)) - set(sub.elements)),)
            with pytest.raises(InvalidParameterError, match="not closed"):
                greedy_generators_from_scratch(G, els)
            with pytest.raises(InvalidParameterError, match="not closed"):
                Subgroup(G, els)

    @pytest.mark.parametrize("G", ORACLE_GROUPS, ids=str)
    def test_center_and_abelian_match_all_pairs(self, G):
        assert G.center() == center_all_pairs(G)
        assert G.is_abelian() == is_abelian_all_pairs(G)
        for sub in all_subgroups(G):
            H, _ = sub.as_group()
            assert H.center() == center_all_pairs(H)
            assert H.is_abelian() == is_abelian_all_pairs(H)

    def test_enumeration_extends_known_subgroups(self, monkeypatch):
        """Work count, no clock: the 69 subgroups of D:32 take at most 180
        closures and the 62 of D:28 at most 112 (174 and 108 are made).  Each
        enumerated subgroup is certified by the closure that found it, with
        no second closure for its generators, and no closure is made where
        Lagrange's theorem fixes <B, g>: as a known K > B of prime index
        over B when g lies in K, or of composite index whose least prime q
        has |B<g>| > |K| / q.  Extending by double cosets alone made 515
        and 442 closures, and closing each candidate again from the
        identity made 4,068 on D:32."""
        calls = []
        closure = FiniteGroup.closure

        def counting(self, *args, **kwargs):
            calls.append(args)
            return closure(self, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, "closure", counting)
        for G, subgroups, bound in [(dihedral(32), 69, 180), (dihedral(28), 62, 112)]:
            calls.clear()
            assert len(all_subgroups(G)) == subgroups
            assert len(calls) <= bound, G

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


class TestCallerNumbers:
    """Table entries, G-set points and closure seeds enter as integers or
    not at all: a float or a string is refused, never truncated."""

    def test_non_integers_refused(self):
        with pytest.raises(TypeError):
            FiniteGroup([[0, 1.7], [1.2, 0]])
        with pytest.raises(TypeError):
            FiniteGroup([["0", "1"], ["1", "0"]])
        with pytest.raises(TypeError):
            GSet(cyclic(2), [[0.0, 1.0], [1.9, 0.2]])
        with pytest.raises(TypeError):
            cyclic(2).closure([1.5])
        with pytest.raises(TypeError):
            regular_gset(cyclic(2)).restrict([0.0, 1.0])

    @pytest.mark.parametrize("seed", [[-1], [1, 3]], ids=str)
    def test_closure_seed_out_of_range_refused(self, seed):
        with pytest.raises(InvalidParameterError, match="not an element index"):
            cyclic(3).closure(seed)

    def test_integers_enter_as_python_ints(self):
        G = FiniteGroup([[np.int64(0), True], [np.int8(1), False]])
        assert G.table == [[0, 1], [1, 0]]
        assert all(type(x) is int for row in G.table for x in row)
        X = GSet(G, [[np.int64(0), np.int64(1)], [True, False]])
        assert X.action == [(0, 1), (1, 0)] and type(X.action[1][0]) is int
        assert G.closure([np.int64(1)]) == G.closure([True]) == (0, 1)


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
