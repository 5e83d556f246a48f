"""Sections as lifts, splits by one routine, orbit-sum fixed points,
one-step direct sums and the p-subgroup scan, each against the route it
replaced (tests/reference.py)."""

import pytest

import reference
import test_cohom
from glattice import checks, cohom, gflows, gmod, intlinalg
from glattice.checks import _metacyclic_presentation
from glattice.cli import (
    parse_generators,
    parse_group_spec,
    parse_lattice_spec,
    run_check,
    suite_definition,
)
from glattice.cohom import (
    coflasque_resolution,
    is_coflasque,
    is_flasque,
    lift,
    pullback,
    tate,
)
from glattice.errors import CertificateError, GlatticeError, InvalidParameterError
from glattice.gflows import cayley_graph, complete_edges, flow_lattice, remove_edges_decomposition
from glattice.gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    augmentation_kernel,
    augmentation_map,
    check_exact,
    coset_lattice,
    direct_sum_many,
    dual,
    fixed_sublattice,
    lattices_equal,
    regular,
    trivial,
)
from glattice.groups import (
    all_subgroups,
    coset_gset,
    cyclic,
    prime_factorization,
    semidirect,
    subgroup_conjugacy_reps,
    whole_group,
)
from glattice.intlinalg import IntMatrix
from reference import (
    direct_sum_by_fold,
    find_section_orbitwise,
    fixed_sublattice_by_kernel,
    lattices_equal_all_elements,
    vanishing_by_full_scan,
)

# every group that `suite full` builds, but S:5 (only its restrictions
# are checked there, and its 156 subgroups would dominate this file)
SUITE_GROUPS = [
    *(f"C:{n}" for n in range(2, 13)),
    "X(C:2,C:2)", "SD:3,2,2", "D:4", "SD:5,2,4", "D:6", "SD:5,4,2", "SD:7,3,2", "SD:5,4,3",
    "D:12", "S:3", "S:4",
]


def permutation_lattices(G):
    """The regular lattice, the coset lattice of every class, and their sum."""
    cosets = [coset_lattice(G, H) for H in subgroup_conjugacy_reps(G)]
    return {"regular": regular(G), **{f"coset{i}": P for i, P in enumerate(cosets)},
            "sum": direct_sum_many([regular(G), *cosets])}


def sign_of_s3():
    """Z with S3 acting by the sign of its permutations."""
    G = semidirect(3, 2, 2)
    A3 = set(G.closure([G.generator_indices["s"]]))
    return GLattice(G, [IntMatrix.from_rows([[1 if g in A3 else -1]]) for g in G.elements()])


class TestOrbitSumFixedPoints:
    @pytest.mark.parametrize("spec", SUITE_GROUPS)
    def test_every_subgroup_matches_the_stacked_kernel(self, spec):
        G = parse_group_spec(spec)
        for name, P in permutation_lattices(G).items():
            for K in all_subgroups(G):
                assert fixed_sublattice(P, K) == fixed_sublattice_by_kernel(P, K), (name, K)

    def test_the_whole_group_fixes_the_orbit_sums(self):
        G = semidirect(3, 2, 2)
        P = direct_sum_many([regular(G), trivial(G)])  # no G-set: the kernel route
        assert P.gset is None
        assert fixed_sublattice(P, whole_group(G)) == fixed_sublattice_by_kernel(P, whole_group(G))
        Q = permutation_lattices(G)["sum"]
        F = fixed_sublattice(Q, whole_group(G))
        assert [sum(F.col_list(j)) for j in range(F.cols)] == [len(o) for o in Q.gset.orbits()]


class TestOneStepDirectSums:
    @pytest.mark.parametrize("spec", ["S:3", "D:4", "X(C:2,C:2)"])
    def test_every_element_matches_the_fold(self, spec):
        G = parse_group_spec(spec)
        flows = flow_lattice(cayley_graph(G, G.generators))
        for parts in (
            [regular(G), coset_lattice(G, subgroup_conjugacy_reps(G)[1]), trivial(G)],
            [flows, regular(G), dual(flows)],
            list(permutation_lattices(G).values()),
        ):
            S = direct_sum_many(parts)
            assert [S.action[g] for g in G.elements()] == direct_sum_by_fold(parts)
            assert (S.gset is None) == any(M.gset is None for M in parts)

    def test_nary_union_is_the_binary_union_iterated(self):
        G = semidirect(3, 2, 2)
        X, Y, Z = (coset_lattice(G, H).gset for H in subgroup_conjugacy_reps(G)[:3])
        U = X.disjoint_union(Y, Z)
        assert U.action == X.disjoint_union(Y).disjoint_union(Z).action
        assert X.disjoint_union().action == X.action

    def test_common_group_required(self):
        with pytest.raises(Exception, match="common group"):
            direct_sum_many([regular(cyclic(2)), regular(cyclic(3))])


class TestLatticeEquality:
    def test_generators_decide_like_every_element(self):
        for spec in ("S:3", "D:4", "C:6"):
            G = parse_group_spec(spec)
            lattices = list(permutation_lattices(G).values())[:4] + [trivial(G), dual(regular(G))]
            for M in lattices:
                for N in lattices:
                    assert lattices_equal(M, N) == lattices_equal_all_elements(M, N)


# -- sections and lifts ---------------------------------------------------------

SCHANUEL_CASES = [
    ("SD:3,2,2", "flows:cayley"),
    ("C:2", "sign"),
    ("C:2", "trivial"),
    ("D:4", "flows:cayley"),
    ("C:6", "flows:cayley"),
    ("X(C:2,C:2)", "flows:cayley(X(C:2,C:2);*)"),
]


def schanuel_rows(spec, lattice):
    G = parse_group_spec(spec)
    M = parse_lattice_spec(G, lattice)
    k = len(subgroup_conjugacy_reps(G))
    r1 = coflasque_resolution(M).sequence
    r2 = coflasque_resolution(M, rep_order=list(reversed(range(k)))).sequence
    return (r1, r2), pullback(r1, r2)


def faithful_transfer_rows(n, m, r):
    data = _metacyclic_presentation(n, m, r)
    G = data.G
    phi_seq = ShortExactSequence(
        EquivariantMap(coset_lattice(G, data.Hs), data.pres.A, data.u_in_K), data.phi
    )
    psi_seq = flow_lattice(complete_edges(coset_gset(G, data.Ht), loops=False)).boundary_sequence()
    return (phi_seq, psi_seq), pullback(phi_seq, psi_seq)


def assert_split(seq, iso):
    """iso is [left | s] with s a section: equivariant, right . s = id."""
    assert iso.target is seq.B and iso.matrix.take_columns(range(seq.A.rank)) == seq.left.matrix
    assert iso.equivariance_failure() is None
    assert (seq.right.matrix @ iso.matrix.take_columns(range(seq.A.rank, seq.B.rank))).is_identity()


def assert_lift(f, g, t):
    assert t.source is f.source and t.target is g.source
    assert t.equivariance_failure() is None
    assert g.matrix @ t.matrix == f.matrix


class TestLiftsAgainstTheOrbitwiseSearch:
    @pytest.mark.parametrize("case", SCHANUEL_CASES + [(3, 2, 2), (5, 2, 4), (7, 3, 2)],
                             ids=lambda c: ",".join(map(str, c)))
    def test_every_pullback_row(self, case):
        if isinstance(case[0], int):
            (first, second), rows = faithful_transfer_rows(*case)
        else:
            (first, second), rows = schanuel_rows(*case)
        legs = ((first.right, second.right), (second.right, first.right))
        covered = 0
        for row, (f, g) in zip(rows, legs):
            if row.C.gset is None:  # no permutation quotient: no lift, no orbitwise search
                continue
            covered += 1
            new, old = cohom.split_iso(row), find_section_orbitwise(row)
            assert (new is None) == (old is None)
            t = lift(f, g)
            assert (t is None) == (new is None)
            if new is not None:
                assert_split(row, new)
                assert_lift(f, g, t)
        assert covered == (1 if isinstance(case[0], int) else 2)

    @pytest.mark.parametrize("spec", ["C:2", "C:6", "S:3", "D:4"])
    def test_a_permutation_quotient_splits_by_the_lift_of_its_identity(self, spec):
        # Z[G/H] -> Z = Z[G/G] splits exactly when H = G: a G-fixed preimage
        # of 1 is a multiple of the orbit sum, whose augmentation is [G:H]
        G = parse_group_spec(spec)
        Z = coset_lattice(G, whole_group(G))
        for H in subgroup_conjugacy_reps(G):
            P = coset_lattice(G, H)
            eps = EquivariantMap(P, Z, augmentation_map(P).matrix)
            seq = ShortExactSequence(augmentation_kernel(P)[1], eps)
            new, old = cohom.split_iso(seq), find_section_orbitwise(seq)
            assert (new is None) == (old is None) == (H.index() != 1)
            if new is not None:
                assert_split(seq, new)

    def test_a_row_without_a_lift_has_no_section(self):
        # the pullback of the augmentation Z[G] -> Z against the identity of Z:
        # a section of its second row would lift the identity of Z through the
        # augmentation, and the G-fixed vectors of Z[G] augment to |G| Z
        G = semidirect(3, 2, 2)
        Z = coset_lattice(G, whole_group(G))
        first = ShortExactSequence(augmentation_kernel(regular(G))[1], augmentation_map(regular(G)))
        zero = GLattice(G, [IntMatrix.zeros(0, 0)] * G.order)
        second = ShortExactSequence(
            EquivariantMap(zero, Z, IntMatrix.zeros(1, 0)), EquivariantMap(Z, trivial(G), IntMatrix.identity(1))
        )
        row1, row2 = pullback(first, second)
        assert lift(second.right, first.right) is None
        assert cohom.split_iso(row2) is None and find_section_orbitwise(row2) is None
        iso = cohom.split_iso(row1)  # x -> (x, augmentation x) always exists
        assert iso is not None and find_section_orbitwise(row1) is not None
        assert_split(row1, iso)

    def test_lift_refuses_a_source_without_a_gset(self):
        G = cyclic(2)
        with pytest.raises(Exception, match="permutation source"):
            lift(EquivariantMap(trivial(G), trivial(G), IntMatrix.identity(1)),
                 EquivariantMap(trivial(G), trivial(G), IntMatrix.identity(1)))


# -- one split routine against the two it replaced ------------------------------


def assert_same_split(seq):
    """split_iso gives the iso and inverse of find_section + split_iso as
    they were (tests/reference.py), or None with them; returns the iso."""
    new, old = cohom.split_iso(seq), reference.split_iso(seq)
    assert (new is None) == (old is None)
    if new is not None:
        assert new.matrix == old.matrix
        assert new.inverse().matrix == old.inverse().matrix
    return new


def one_entry_changes(m):
    """m with one entry raised by 1, for every entry in turn."""
    rows = m.to_lists()
    for i in range(m.rows):
        for j in range(m.cols):
            changed = [row[:] for row in rows]
            changed[i][j] += 1
            yield IntMatrix.from_rows(changed)


class TestSplitIsoAgainstTheTwoRoutines:
    @pytest.mark.parametrize("nmr", test_cohom.TestLeftInverse.PRESENTATIONS,
                             ids=lambda nmr: "SD:%d,%d,%d" % nmr)
    def test_presentations(self, nmr):
        assert assert_same_split(_metacyclic_presentation(*nmr).pres) is not None

    @pytest.mark.parametrize("case", SCHANUEL_CASES + [("S:3", "regular")],
                             ids=lambda c: ",".join(c))
    def test_resolutions_and_their_pullback_rows(self, case):
        (first, second), rows = schanuel_rows(*case)
        assert all(assert_same_split(row) is not None for row in rows)
        for seq in (first, second):
            assert_same_split(seq)

    @pytest.mark.parametrize("nmr", [(3, 2, 2), (5, 2, 4), (7, 3, 2)],
                             ids=lambda nmr: "%d,%d,%d" % nmr)
    def test_faithful_transfer_middle_row(self, nmr):
        _, (_, middle_row) = faithful_transfer_rows(*nmr)
        assert assert_same_split(middle_row) is not None

    def test_every_changed_retraction_entry_is_refused(self, monkeypatch):
        # the (7, 3, 2) presentation splits by the retraction of its rank-9 kernel
        pres = _metacyclic_presentation(7, 3, 2).pres
        r = cohom._left_inverse(pres.B, pres.A, pres.left.matrix)
        assert (r.rows, r.cols) == (9, 31)
        refused = 0
        for changed in one_entry_changes(r):
            monkeypatch.setattr(cohom, "_left_inverse", lambda B, T, j: changed)
            with pytest.raises(GlatticeError):
                cohom.split_iso(pres)
            refused += 1
        assert refused == 279

    @pytest.mark.parametrize("k", [0, 1])
    def test_every_changed_section_entry_of_a_pullback_row_is_refused(self, k):
        row = schanuel_rows("C:6", "flows:cayley")[1][k]
        s = row.section()
        for changed in one_entry_changes(s):
            with pytest.raises(GlatticeError):
                cohom.split_iso(ShortExactSequence(row.left, row.right, section=lambda: changed))

    def test_a_presentation_split_builds_two_solvers_and_validates_once(self, monkeypatch):
        pres = _metacyclic_presentation(7, 3, 2).pres
        cohom.split_iso(pres)  # the lattices' matrices, made once
        built, checked = [], []
        setup, failure = intlinalg.BasisSolver._setup, gmod.EquivariantMap.equivariance_failure

        def counted_setup(self, *args):
            built.append(1)
            return setup(self, *args)

        def counted_failure(self):
            checked.append(1)
            return failure(self)

        monkeypatch.setattr(intlinalg.BasisSolver, "_setup", counted_setup)
        monkeypatch.setattr(gmod.EquivariantMap, "equivariance_failure", counted_failure)
        assert cohom.split_iso(pres) is not None
        assert (len(built), len(checked)) == (2, 1)


# -- a split certifies its own sequence ---------------------------------------------


def edge_removal_sequence(spec, gens, kept):
    """The sequence 0 -> Fl(V, E') -> Fl(V, E) -> Z[E - E'] -> 0 that
    remove_edges_decomposition hands to split_iso, for two Cayley graphs."""
    G = parse_group_spec(spec)
    X, X_sub = (cayley_graph(G, parse_generators(G, g)) for g in (gens, kept))
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gflows, "split_iso", lambda seq: seen.append(seq) or cohom.split_iso(seq))
        remove_edges_decomposition(X, X_sub)
    return seen[0]


def lifted_quotient():
    """0 -> Z[C3] -> Z[C3] + Z -> Z -> 0, x -> (x, -aug x) and
    (x, y) -> aug x + y: a permutation quotient with no section maker."""
    G = cyclic(3)
    Z = coset_lattice(G, whole_group(G))
    B = direct_sum_many([regular(G), Z])
    return ShortExactSequence(
        EquivariantMap(regular(G), B, IntMatrix.identity(3).vstack(IntMatrix.from_rows([[-1] * 3]))),
        EquivariantMap(B, Z, IntMatrix.from_rows([[1, 1, 1, 1]])),
    )


def route_of(seq):
    """The route by which split_iso builds its first half."""
    if seq.C.gset is not None:
        return "lift" if seq.section is None else "section maker"
    return "retraction" if seq.A.rank < seq.C.rank else "transposed"


# one exact sequence per route of split_iso, each split
SPLIT_ROUTES = {
    "quotient lift": lifted_quotient,
    "pullback-row maker": lambda: schanuel_rows("C:2", "sign")[1][0],
    "left inverse of the inclusion": lambda: _metacyclic_presentation(3, 2, 2).pres,
    "left inverse of the transposed quotient":
        lambda: coflasque_resolution(trivial(cyclic(2))).sequence,
    "edge removal": lambda: edge_removal_sequence("C:4", "s,s2", "s"),
}


class TestASplitCertifiesItsSequence:
    """split_iso certifies exactness through its iso and calls check_exact
    only to explain a split it could not certify."""

    @pytest.mark.parametrize("route", list(SPLIT_ROUTES))
    def test_every_non_exact_changed_map_is_refused(self, route):
        seq = SPLIT_ROUTES[route]()
        assert route_of(seq) == {
            "quotient lift": "lift",
            "pullback-row maker": "section maker",
            "left inverse of the inclusion": "retraction",
            "left inverse of the transposed quotient": "transposed",
            "edge removal": "section maker",
        }[route]
        assert cohom.split_iso(seq) is not None
        refused = 0
        for side in ("left", "right"):
            m = getattr(seq, side)
            for changed in one_entry_changes(m.matrix):
                maps = {"left": seq.left, "right": seq.right}
                maps[side] = EquivariantMap(m.source, m.target, changed)
                mutant = ShortExactSequence(maps["left"], maps["right"], section=seq.section)
                if not check_exact(mutant).ok:
                    with pytest.raises(InvalidParameterError, match="sequence is not exact"):
                        cohom.split_iso(mutant)
                    refused += 1
        assert refused > 0

    @pytest.mark.parametrize("spec, gens, kept", [
        ("C:4", "s,s2", "s"), ("C:6", "s,s3", "s"), ("S:3", "(12),(123),(13)", "(12),(123)"),
    ])
    def test_every_changed_edge_removal_section_entry_is_refused(self, spec, gens, kept):
        seq = edge_removal_sequence(spec, gens, kept)
        for changed in one_entry_changes(seq.section()):
            with pytest.raises(CertificateError):
                cohom.split_iso(ShortExactSequence(seq.left, seq.right, section=lambda: changed))

    @pytest.mark.parametrize("case", ["presentation", "schanuel rows", "edge removal"])
    def test_a_successful_split_checks_no_exactness(self, case, monkeypatch):
        if case == "presentation":
            seqs = [_metacyclic_presentation(7, 3, 2).pres]
        elif case == "schanuel rows":
            seqs = list(schanuel_rows("SD:3,2,2", "flows:cayley")[1])
        else:
            G = cyclic(7)
            s = G.generator_indices["s"]
            X, X_sub = cayley_graph(G, [s, G.power(s, 2)]), cayley_graph(G, [s])
        calls = []
        original = cohom.check_exact
        monkeypatch.setattr(cohom, "check_exact", lambda seq: calls.append(1) or original(seq))
        if case == "edge removal":
            splits = [remove_edges_decomposition(X, X_sub)]
        else:
            splits = [cohom.split_iso(seq) for seq in seqs]
        assert None not in splits
        assert calls == []

    def test_ranks_that_do_not_add_up_are_refused(self):
        # 0 -> Z -> Z -> Z -> 0 by 1 and 1: [left | s] = [1 | 1] has the right
        # inverse [0; 1], but it is not square, so it certifies nothing
        G = cyclic(2)
        Z = coset_lattice(G, whole_group(G))
        one = IntMatrix.identity(1)
        seq = ShortExactSequence(EquivariantMap(trivial(G), Z, one), EquivariantMap(Z, Z, one))
        with pytest.raises(InvalidParameterError, match="not exact.*rank mismatch"):
            cohom.split_iso(seq)

    def test_an_exact_sequence_without_a_split_is_checked_once(self, monkeypatch):
        calls = []
        original = cohom.check_exact
        monkeypatch.setattr(cohom, "check_exact", lambda seq: calls.append(1) or original(seq))
        G = cyclic(2)
        P = regular(G)
        eps = EquivariantMap(P, coset_lattice(G, whole_group(G)), augmentation_map(P).matrix)
        assert cohom.split_iso(ShortExactSequence(augmentation_kernel(P)[1], eps)) is None
        assert calls == [1]

    def test_edge_removal_makes_no_hermite_test_of_its_iso(self, monkeypatch):
        shapes = []
        for module in (gmod, intlinalg):
            original = module.column_span_canonical
            monkeypatch.setattr(module, "column_span_canonical",
                                lambda A, original=original: shapes.append(A.shape) or original(A))
        G = cyclic(7)
        s = G.generator_indices["s"]
        iso = remove_edges_decomposition(cayley_graph(G, [s, G.power(s, 2)]), cayley_graph(G, [s]))
        assert iso.matrix.shape == (8, 8) and (8, 8) not in shapes


def suite_full_edge_removals():
    """(X, X_sub) of every edge removal of the cyclic-flows and
    sn-restrictions checks of `suite full`."""
    calls = []
    original = checks.remove_edges_decomposition
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "remove_edges_decomposition",
                      lambda X, X_sub: calls.append((X, X_sub)) or original(X, X_sub))
        for check_id, params in suite_definition("full"):
            if check_id in ("cyclic-flows", "sn-restrictions"):
                run_check(check_id, params)
    return calls


def assert_oracle_columns(X, X_sub):
    """remove_edges_decomposition has the columns of the one it replaced
    (tests/reference.py): the embedded subgraph flows first and in order,
    then the circular flows in edge order rather than by orbit."""
    iso = remove_edges_decomposition(X, X_sub)
    old = reference.remove_edges_decomposition(X, X_sub)
    k = flow_lattice(X_sub).rank
    assert iso.target.basis == old.target.basis and iso.source.rank == old.source.rank
    new_cols, old_cols = iso.matrix.T.to_lists(), old.matrix.T.to_lists()
    assert new_cols[:k] == old_cols[:k]
    assert sorted(new_cols[k:]) == sorted(old_cols[k:])
    assert (iso.inverse().matrix @ iso.matrix).is_identity()


def test_suite_full_edge_removals_match_the_oracle():
    removals = suite_full_edge_removals()
    assert len(removals) == 22 + 3  # cyclic-flows n = 2 .. 12 twice, sn-restrictions n = 3, 4, 5
    for X, X_sub in removals:
        assert_oracle_columns(X, X_sub)


# -- the p-subgroup scan ----------------------------------------------------------


def scan_lattices(G):
    out = {"trivial": trivial(G), "regular": regular(G),
           "augmentation": augmentation_kernel(regular(G))[0]}
    if len(G.generators) > 0 and G.order > 2:
        flows = flow_lattice(cayley_graph(G, G.generators))
        out.update(flows=flows, dual_flows=dual(flows))
    return out


def report_of(report):
    return report.ok, None if report.failing_subgroup is None else report.failing_subgroup.elements, (
        report.failing_group)


def is_p_group(H):
    return len(prime_factorization(H.order)) <= 1


class TestPSubgroupScan:
    @pytest.mark.parametrize("spec", SUITE_GROUPS)
    def test_reports_match_the_full_scan(self, spec):
        G = parse_group_spec(spec)
        for name, M in scan_lattices(G).items():
            assert report_of(is_flasque(M)) == vanishing_by_full_scan(M, -1), name
            assert report_of(is_coflasque(M)) == vanishing_by_full_scan(M, 1), name

    def test_hand_made_lattices_that_fail(self):
        C2 = cyclic(2)
        sign = GLattice(C2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
        S3 = semidirect(3, 2, 2)
        for M in (sign, augmentation_kernel(regular(C2))[0], augmentation_kernel(regular(S3))[0],
                  sign_of_s3()):
            for degree, scan in ((-1, is_flasque), (1, is_coflasque)):
                assert report_of(scan(M)) == vanishing_by_full_scan(M, degree)
        assert not is_flasque(sign) and not is_coflasque(sign)

    def test_a_first_failing_class_is_a_p_group(self):
        # the sign of S3 fails at the class of order 2 and at S3 itself; a
        # Sylow subgroup of a failing class fails and comes first in class
        # order, so the p-class scan names the class a full scan names
        M = sign_of_s3()
        reps = subgroup_conjugacy_reps(M.group)
        failing = [H for H in reps if not tate(M, H, -1).is_trivial]
        assert [H.order for H in failing] == [2, 6]
        report = is_flasque(M)
        assert report.failing_subgroup.elements == failing[0].elements
        assert is_p_group(report.failing_subgroup)
