"""Every guard fires in a test, or a named later certificate covers it.

Each test corrupts the producer of one guarded fact with monkeypatch and
sees the guard raise, or, where the guard was deleted as covered, sees
the covering certificate raise on the same corruption.  A guard on a CLI
path also makes ``main`` exit with nothing on stdout: 3 for a corrupted
certificate, which is never a report, and 2 for a refused input.  ``tests/guard_census.py`` turns each
guard into a no-op in turn and reports the ones no test kills.
"""

import dataclasses
import itertools
from types import SimpleNamespace

import pytest

import glattice.checks as checks_mod
from glattice import cohom, gflows
from glattice.cli import main, parse_group_spec, parse_lattice_spec
from glattice.errors import CertificateError, InvalidParameterError
from glattice.gflows import GGraph, cayley_graph
from glattice.gmod import (
    EquivariantMap, GLattice, ShortExactSequence, augmentation_kernel, augmentation_map, direct_sum,
    fixed_sublattice, norm_matrix, permutation_lattice, regular, restrict, trivial,
)
from glattice.groups import GSet, cyclic, natural_gset, regular_gset, symmetric, whole_group
from glattice.intlinalg import IntMatrix, bezout_coefficients, is_saturated_basis
from test_checks import raise_entry
from test_lifts import schanuel_rows

KERNEL_GENERATORS = ["check", "kernel-generators", "--n", "7", "--m", "3", "--r", "2"]
FAITHFUL_TRANSFER = ["check", "faithful-transfer", "--n", "7", "--m", "3", "--r", "2"]
SCHANUEL = ["check", "schanuel", "--group", "SD:3,2,2", "--lattice", "flows:cayley"]
CYCLIC_FLOWS = ["check", "cyclic-flows", "--n", "7", "--gens", "s,s2"]


def refused_by_cli(argv, capsys, code):
    """main refuses argv with exit code code and prints no report: 3 for a
    failed certificate, a fault of the program, and 2 for a refused input."""
    assert main(argv) == code
    assert capsys.readouterr().out == ""


# -- checks: bar flows ----------------------------------------------------------------


class TestBarFlowKeys:
    def test_keys_past_int64_refused(self, capsys, monkeypatch):
        """Keys edge << shift of a graph with 2^58 edges leave int64."""
        G = cyclic(3)
        X = cayley_graph(G, [1, 2])
        d = checks_mod._bar_flows(X, G)
        with pytest.raises(CertificateError, match="bar flow keys fit in int64"):
            checks_mod._term_keys(SimpleNamespace(n_edges=1 << 58), d)

        star = checks_mod._star_tree_basis

        def star_then_widen(X, G, d):  # the keys, made next, read the edge count
            fl = star(X, G, d)
            X.__class__ = type("Wide", (type(X),), {"n_edges": 1 << 58})
            return fl

        monkeypatch.setattr(checks_mod, "_star_tree_basis", star_then_widen)
        refused_by_cli(["check", "bar-cocycle", "--group", "C:4"], capsys, 3)


# -- checks: the metacyclic presentation ------------------------------------------------


def corrupt_twist_path(monkeypatch):
    """Drop the last step of the twist path, the one path with a step of
    coefficient -1, so that it ends at t s^(r-1), not at s t."""
    edge_vector = checks_mod._edge_vector

    def corrupted(X, steps):
        if any(c == -1 for _, _, c in steps):
            steps = steps[:-1]
        return edge_vector(X, steps)

    monkeypatch.setattr(checks_mod, "_edge_vector", corrupted)


def swap_flow_columns(monkeypatch, order):
    """Hand the presentation the flows in the given order of the cycles and
    the twist path: (2, 1, 2) puts the twist path where the s-cycle was."""
    flow_lattice = checks_mod.flow_lattice

    def corrupted(X):  # only the first solve, the presentation's, is reordered
        fl = flow_lattice(X)
        express = fl.solver.express_columns

        def reordered(cols):
            del fl.solver.express_columns
            return express([cols[i] for i in order])

        fl.solver.express_columns = reordered
        return fl

    monkeypatch.setattr(checks_mod, "flow_lattice", corrupted)


class TestMetacyclicPresentation:
    def test_twist_path_off_s_t_is_no_flow(self, capsys, monkeypatch):
        """A twist path that does not end at s t has a nonzero boundary, so
        the flow solve certifies both that it is a flow and where it ends."""
        corrupt_twist_path(monkeypatch)
        with pytest.raises(CertificateError, match="the cycles and the twist path are flows"):
            checks_mod._metacyclic_presentation(3, 2, 2)
        refused_by_cli(KERNEL_GENERATORS, capsys, 3)

    @pytest.mark.parametrize("order", [(2, 1, 2), (0, 2, 2)], ids=["s-cycle", "t-cycle"])
    def test_cycle_flow_not_invariant_fails_the_presentation_map(self, order, capsys, monkeypatch):
        """pi sends the coset basepoint of <s> (of <t>) to the s-cycle
        (t-cycle) flow, so the equivariance of pi certifies it invariant."""
        swap_flow_columns(monkeypatch, order)
        with pytest.raises(CertificateError, match="the presentation map is equivariant"):
            checks_mod.check_kernel_generators(3, 2, 2)
        refused_by_cli(KERNEL_GENERATORS, capsys, 3)

    def test_twist_congruence_certified_by_semidirect(self, capsys):
        """2^2 = 4 is not 1 mod 5, so (r^m - 1) / n would not be an integer."""
        with pytest.raises(InvalidParameterError, match="is not congruent to 1 modulo 5"):
            checks_mod.check_kernel_generators(5, 2, 2)
        refused_by_cli(["check", "kernel-generators", "--n", "5", "--m", "2", "--r", "2"], capsys, 2)

    def test_u_vectors_outside_the_kernel_fail_the_check(self, capsys, monkeypatch):
        """u_in_K is None when the solve finds a u vector outside the kernel:
        the check records that and skips the steps that read u_in_K."""
        presentation = checks_mod._metacyclic_presentation
        monkeypatch.setattr(
            checks_mod, "_metacyclic_presentation",
            lambda *args: dataclasses.replace(presentation(*args), u_in_K=None),
        )
        report = checks_mod.check_kernel_generators(7, 3, 2)
        failed = [d["name"] for d in report.details if d["status"] == "fail"]
        assert failed == ["norm-type elements generate a submodule"] and not report.ok
        names = {d["name"] for d in report.details}
        assert "M0 is the s-coset lattice via the basepoint map" not in names
        assert "projection surjective" in names and "kernel of projection is exactly M0" not in names
        assert main(KERNEL_GENERATORS) == 1
        assert "norm-type elements generate a submodule" in capsys.readouterr().out

    @pytest.mark.parametrize("field, message", [
        ("phi", "the kernel block lies in the augmentation sublattice"),
        ("u_in_K", "the u vectors lie in the kernel"),
    ], ids=["phi", "u_in_K"])
    def test_faithful_transfer_needs_both_blocks(self, field, message, capsys, monkeypatch):
        """Without the guard a missing block is an AttributeError."""
        presentation = checks_mod._metacyclic_presentation
        monkeypatch.setattr(
            checks_mod, "_metacyclic_presentation",
            lambda *args: dataclasses.replace(presentation(*args), **{field: None}),
        )
        with pytest.raises(CertificateError, match=message):
            checks_mod.check_faithful_transfer(7, 3, 2)
        refused_by_cli(FAITHFUL_TRANSFER, capsys, 3)


# -- cohom: lifts and pullback sections -------------------------------------------------


def corrupt_lifts(monkeypatch):
    """Raise entry (0, 0) of every map that ``lift`` builds by orbit_map."""
    lift, orbit_map, inside = cohom.lift, cohom.orbit_map, []

    def corrupted_orbit_map(P, B, Y):
        m = orbit_map(P, B, Y)
        return raise_entry(m, 0, 0) if inside else m

    def traced_lift(f, g):
        inside.append(True)
        try:
            return lift(f, g)
        finally:
            inside.pop()

    monkeypatch.setattr(cohom, "orbit_map", corrupted_orbit_map)
    monkeypatch.setattr(cohom, "lift", traced_lift)


class TestLift:
    def test_wrong_lift_refused(self, monkeypatch):
        C3 = cyclic(3)
        P = regular(C3)
        f = EquivariantMap(P, P, IntMatrix.identity(3))
        corrupt_lifts(monkeypatch)
        with pytest.raises(CertificateError, match="the lift maps through g onto f"):
            cohom.lift(f, f)

    def test_pullback_section_from_a_wrong_lift_refused(self, capsys, monkeypatch):
        """The section x -> (x, lift x) of a pullback row lies in the
        pullback exactly when g . lift = f, which lift certifies."""
        G = parse_group_spec("SD:3,2,2")
        M = parse_lattice_spec(G, "flows:cayley")
        corrupt_lifts(monkeypatch)
        with pytest.raises(CertificateError, match="the lift maps through g onto f"):
            checks_mod.check_schanuel(M, G.spec, "flows:cayley")
        refused_by_cli(SCHANUEL, capsys, 3)


# -- cohom: the permutation witness -----------------------------------------------------


class TestPermutationWitness:
    """The witness is certified unimodular by the backtracking's last
    saturation check, which reads exactly its columns."""

    @pytest.fixture
    def lattice(self):
        # the natural lattice of S3 in the basis e_0, e_j - e_0: no standard
        # basis vector is permuted, so the search runs
        G = symmetric(3)
        M = permutation_lattice(G, natural_gset(G))
        n = M.rank
        U = IntMatrix.from_rows([[1 if i == j or i == 0 else 0 for j in range(n)] for i in range(n)])
        Uinv = IntMatrix.from_rows([[1 if i == j else (-1 if i == 0 and j else 0)
                                     for j in range(n)] for i in range(n)])
        return M.__class__(M.group, [Uinv @ a @ U for a in M.action])

    def test_last_saturation_check_reads_the_witness(self, lattice, monkeypatch):
        seen = []

        def recorded(A):
            seen.append((A, is_saturated_basis(A)))
            return seen[-1][1]

        monkeypatch.setattr(cohom, "is_saturated_basis", recorded)
        outcome = cohom.is_permutation_bounded(lattice, 2)
        assert outcome and outcome.witness.shape == (lattice.rank, lattice.rank)
        assert (outcome.witness, True) in seen

    def test_orbits_that_are_not_a_basis_are_never_chosen(self, lattice, monkeypatch):
        """With every orbit listed twice, a repeated orbit passes every
        per-orbit test, but the saturation check keeps it out of the basis."""
        box_orbits = cohom._box_orbits
        monkeypatch.setattr(cohom, "_box_orbits", lambda M, bound: 2 * box_orbits(M, bound))
        outcome = cohom.is_permutation_bounded(lattice, 2)
        assert outcome and is_saturated_basis(outcome.witness)
        assert len({tuple(c) for c in outcome.witness.T.to_lists()}) == lattice.rank


# -- gflows: boundary and edge removal ----------------------------------------------------


class TestFlowSequences:
    def test_boundary_off_the_augmentation_sublattice_refused(self, capsys, monkeypatch):
        """Without the guard the missing coordinates are an AttributeError."""
        boundary = gflows.boundary_matrix

        def heads_only(X):  # each edge to its target: sums to 1, not 0
            bd = boundary(X)
            heads = IntMatrix.unit_columns(X.n_vertices, [t for _, t in X.edges])
            return EquivariantMap(bd.source, bd.target, heads)

        monkeypatch.setattr(gflows, "boundary_matrix", heads_only)
        fl = gflows.flow_lattice(cayley_graph(cyclic(3), [1]))
        with pytest.raises(CertificateError, match="the boundary lands in the augmentation sublattice"):
            fl.boundary_sequence()
        refused_by_cli(FAITHFUL_TRANSFER, capsys, 3)

    def test_circular_flows_that_are_not_flows_refused(self, capsys, monkeypatch):
        """Without the guard the missing flows are an AttributeError."""
        cycles = gflows.fundamental_cycles

        def opened(X, inside, closing=None):  # each circular flow loses one edge
            found = cycles(X, inside, closing)
            if closing is None:  # the flow lattice's own basis
                return found
            return {e: dict(list(flow.items())[1:]) for e, flow in found.items()}

        monkeypatch.setattr(gflows, "fundamental_cycles", opened)
        G = cyclic(4)
        with pytest.raises(CertificateError, match="the embedded and circular flows are flows"):
            gflows.remove_edges_decomposition(cayley_graph(G, [1, 2]), cayley_graph(G, [1]))
        refused_by_cli(CYCLIC_FLOWS, capsys, 3)


# -- cohom: the split certificate --------------------------------------------------------


def schanuel_row():
    """The first pullback row of the two Schanuel resolutions of the
    SD:3,2,2 flow lattice: its section is x -> (x, lift x)."""
    return schanuel_rows("SD:3,2,2", "flows:cayley")[1][0]


class TestSplitCertificate:
    def test_section_off_the_quotient_refused(self):
        """right . s != id puts a column of id - s . right outside ker right."""
        row = schanuel_row()
        changed = raise_entry(row.section(), 0, 0)
        with pytest.raises(CertificateError,
                           match="the section's complement lies in the inclusion's image"):
            cohom.split_iso(ShortExactSequence(row.left, row.right, section=lambda: changed))

    def test_section_moved_inside_the_kernel_is_not_equivariant(self):
        """s + left e_0 e_0^T still splits linearly, but is no G-map."""
        row = schanuel_row()
        s = row.section().to_lists()
        for i, x in enumerate(row.left.matrix.take_columns([0]).to_lists()):
            s[i][0] += x[0]
        changed = IntMatrix.from_rows(s)
        with pytest.raises(CertificateError, match="the split map is equivariant"):
            cohom.split_iso(ShortExactSequence(row.left, row.right, section=lambda: changed))

    def test_wrong_retraction_refused(self, capsys, monkeypatch):
        """The presentation of (7, 3, 2) splits by the retraction route
        (rank A < rank C), whose r only fwd @ back = I checks."""
        left_inverse = cohom._left_inverse
        monkeypatch.setattr(cohom, "_left_inverse",
                            lambda *args: raise_entry(left_inverse(*args), 0, 0))
        with pytest.raises(CertificateError, match="the split map has the constructed inverse"):
            cohom.split_iso(checks_mod._metacyclic_presentation(7, 3, 2).pres)
        refused_by_cli(KERNEL_GENERATORS, capsys, 3)


# -- internal raises: each refusal fires ---------------------------------------------------


def sign_lattice(C2):
    return GLattice(C2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])


def sign_plus_trivial(C2):
    """A rank-2 lattice of C2 that, unlike Z[C2], permutes no basis."""
    return direct_sum(sign_lattice(C2), trivial(C2))


class TestCohomRefusals:
    def test_tate_refuses_a_foreign_subgroup_in_every_degree(self):
        """Degree -1 reads H's generators in M's action directly, so a
        subgroup of another group would be read as if it were of M's."""
        M, other = regular(cyclic(4)), cyclic(4)
        for degree in (-1, 0, 1):
            with pytest.raises(InvalidParameterError, match="subgroup belongs to a different group"):
                cohom.tate(M, whole_group(other), degree)

    def test_tate_refuses_other_degrees(self):
        M = regular(cyclic(2))
        for degree in (-2, 2):
            with pytest.raises(InvalidParameterError, match="degree must be -1, 0 or 1"):
                cohom.tate(M, whole_group(M.group), degree)

    def test_resolution_needs_a_permutation_middle_term(self):
        """0 -> sign -> sign + Z -> Z -> 0 is exact, split and not permutation."""
        B = sign_plus_trivial(cyclic(2))
        seq = ShortExactSequence(EquivariantMap(sign_lattice(B.group), B, IntMatrix.from_rows([[1], [0]])),
                                 EquivariantMap(B, trivial(B.group), IntMatrix.from_rows([[0, 1]])))
        with pytest.raises(CertificateError, match="middle term is not a permutation lattice"):
            cohom.ResolutionCertificate(seq, "coflasque").validate()

    def test_coflasque_resolution_needs_a_coflasque_kernel(self):
        """0 -> I -> Z[C2] -> Z -> 0: I is the sign lattice, H^1 = Z/2."""
        P = regular(cyclic(2))
        _, incl = augmentation_kernel(P)
        with pytest.raises(CertificateError, match="kernel fails coflasqueness at subgroup"):
            cohom.ResolutionCertificate(ShortExactSequence(incl, augmentation_map(P)), "coflasque").validate()

    def test_flasque_resolution_needs_a_flasque_cokernel(self):
        """0 -> Z -> Z[C2] -> sign -> 0 by the norm and the difference."""
        P = regular(cyclic(2))
        sign = sign_lattice(P.group)
        seq = ShortExactSequence(EquivariantMap(trivial(P.group), P, IntMatrix.from_rows([[1], [1]])),
                                 EquivariantMap(P, sign, IntMatrix.from_rows([[1, -1]])))
        with pytest.raises(CertificateError, match="cokernel fails flasqueness at subgroup"):
            cohom.ResolutionCertificate(seq, "flasque").validate()

    def test_rep_order_must_permute_the_representatives(self):
        M = regular(cyclic(2))
        for order in ([0, 0], [0], [1, 2]):
            with pytest.raises(InvalidParameterError, match="rep_order must permute the representatives"):
                cohom.coflasque_resolution(M, rep_order=order)

    def test_rank_zero_has_no_resolution(self):
        """No fixed vectors give no summands, and the empty direct sum is
        refused."""
        M = GLattice(cyclic(2), [IntMatrix.zeros(0, 0)] * 2)
        for resolution in (cohom.coflasque_resolution, cohom.flasque_resolution):
            with pytest.raises(InvalidParameterError, match="empty direct sum"):
                resolution(M)


class TestGmodRefusals:
    def test_lattice_needs_one_matrix_per_element(self):
        with pytest.raises(InvalidParameterError, match="need one action matrix per group element"):
            GLattice(cyclic(3), [IntMatrix.identity(1)] * 2)

    def test_lattice_needs_square_matrices_of_one_rank(self):
        with pytest.raises(InvalidParameterError, match="action matrices must be square of equal rank"):
            GLattice(cyclic(2), [IntMatrix.identity(1), IntMatrix.identity(2)])

    def test_identity_must_act_as_the_identity(self):
        """The zero action is multiplicative, so only this check refuses it."""
        with pytest.raises(InvalidParameterError, match="identity element must act as the identity matrix"):
            GLattice(cyclic(2), [IntMatrix.zeros(1, 1)] * 2)

    def test_map_needs_a_common_group(self):
        with pytest.raises(InvalidParameterError, match="equivariant map needs a common group"):
            EquivariantMap(regular(cyclic(2)), regular(cyclic(2)), IntMatrix.identity(2))

    def test_map_matrix_must_match_the_ranks(self):
        P = regular(cyclic(2))
        with pytest.raises(InvalidParameterError, match=r"matrix shape \(3, 3\) does not match \(2, 2\)"):
            EquivariantMap(P, P, IntMatrix.identity(3))

    def test_composition_needs_the_same_middle_lattice(self):
        """Two rank-2 lattices of C2, one permuted and one not, multiply as
        matrices but do not compose as maps."""
        P = regular(cyclic(2))
        N = sign_plus_trivial(P.group)
        outer, inner = EquivariantMap(P, P, IntMatrix.identity(2)), EquivariantMap(N, N, IntMatrix.identity(2))
        with pytest.raises(InvalidParameterError, match="composition mismatch"):
            outer.compose(inner)

    def test_sequence_needs_one_middle_lattice(self):
        P = regular(cyclic(2))
        N = sign_plus_trivial(P.group)
        with pytest.raises(InvalidParameterError, match="sequence maps do not share the middle lattice"):
            ShortExactSequence(EquivariantMap(P, P, IntMatrix.identity(2)),
                               EquivariantMap(N, N, IntMatrix.identity(2)))

    def test_permutation_lattice_needs_a_gset_of_its_group(self):
        with pytest.raises(InvalidParameterError, match="invalid-gset: G-set belongs to a different group"):
            permutation_lattice(cyclic(2), regular_gset(cyclic(2)))

    def test_direct_sum_needs_a_common_group(self):
        with pytest.raises(InvalidParameterError, match="direct sum needs a common group"):
            direct_sum(regular(cyclic(2)), regular(cyclic(2)))

    @pytest.mark.parametrize("read", [restrict, fixed_sublattice, norm_matrix])
    def test_subgroup_of_another_group_refused(self, read):
        with pytest.raises(InvalidParameterError, match="subgroup belongs to a different group"):
            read(regular(cyclic(4)), whole_group(cyclic(4)))

    def test_augmentation_needs_a_permutation_lattice(self):
        with pytest.raises(InvalidParameterError, match="augmentation needs a permutation lattice"):
            augmentation_map(sign_lattice(cyclic(2)))


class TestGflowsRefusals:
    def test_a_tree_that_does_not_span_has_a_cycle(self):
        """|V| - 1 acyclic edges span, so every edge pair of the C3 Cayley
        graph on s, s2 that misses a vertex is refused as a cycle."""
        X = cayley_graph(cyclic(3), [1, 2])
        for pair in itertools.combinations(range(X.n_edges), 2):
            if len({v for e in pair for v in X.edges[e]}) < 3:
                with pytest.raises(InvalidParameterError, match="tree edges contain a cycle"):
                    gflows.spanning_tree_basis(X, pair, [{}] * 4)

    @pytest.mark.parametrize("points", [1, 3])
    def test_edge_action_must_move_the_edges(self, points):
        """C1 has no generators, so no later check reads the edge action."""
        G = cyclic(1)
        with pytest.raises(InvalidParameterError, match="edge action entries are not permutations"):
            GGraph(regular_gset(G), [(0, 0), (0, 0)], [list(range(points))])

    def test_complete_graph_needs_a_vertex(self):
        G = cyclic(2)
        empty = GSet(G, [[], []])
        with pytest.raises(InvalidParameterError, match="vertex set must be nonempty"):
            gflows.complete_edges(empty)

    @pytest.mark.parametrize("s", [-1, 3])
    def test_cayley_generator_out_of_range(self, s):
        with pytest.raises(InvalidParameterError, match=f"generator index {s} out of range"):
            cayley_graph(cyclic(3), [1, s])

    def test_tree_needs_one_edge_fewer_than_the_vertices(self):
        X = cayley_graph(cyclic(3), [1, 2])
        for tree in ([0], [0, 1, 3]):
            with pytest.raises(InvalidParameterError, match=rf"tree has {len(tree)} edges, expected \|V\|-1 = 2"):
                gflows.spanning_tree_basis(X, tree, [{}] * 4)

    def test_edge_removal_needs_the_same_vertices(self):
        X = cayley_graph(cyclic(4), [1, 2])
        with pytest.raises(InvalidParameterError, match="graphs must share the vertex G-set"):
            gflows.remove_edges_decomposition(X, cayley_graph(cyclic(2), [1]))

    def test_edge_removal_subgraph_must_be_connected(self):
        """flow_lattice refuses the subgraph on s2 of C4, two 2-cycles."""
        G = cyclic(4)
        with pytest.raises(InvalidParameterError, match="graph is disconnected"):
            gflows.remove_edges_decomposition(cayley_graph(G, [1, 2]), cayley_graph(G, [2]))

    def test_edge_removal_subgraph_edges_must_be_edges(self):
        """Without the check the missing edge is a KeyError."""
        G = cyclic(4)
        with pytest.raises(InvalidParameterError, match=r"subgraph edge \(0, 2\) missing from the graph"):
            gflows.remove_edges_decomposition(cayley_graph(G, [1]), cayley_graph(G, [1, 2]))


class TestIntlinalgRefusals:
    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError, match="ragged rows"):
            IntMatrix.from_rows([[1, 2]], cols=3)

    @pytest.mark.parametrize("a, b", [
        ((2, 3), (4, 2)),  # int64
        ((20, 20), (21, 20)),  # int64 through float64 BLAS
        ((0, 3), (2, 0)),
    ])
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_product_shape_mismatch_refused_by_numpy(self, a, b, big):
        """The product has no shape check of its own: numpy's refuses."""
        x = 1 << 70 if big else 1
        left = IntMatrix.from_rows([[x] * a[1]] * a[0], cols=a[1])
        right = IntMatrix.from_rows([[x] * b[1]] * b[0], cols=b[1])
        with pytest.raises(ValueError):
            left @ right

    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_stack_mismatch_refused_by_numpy(self, big):
        """hstack and vstack have no shape check of their own: numpy's refuses."""
        x = 1 << 70 if big else 1
        a, b = IntMatrix.from_rows([[x, x]]), IntMatrix.from_rows([[x], [x]])
        with pytest.raises(ValueError):
            a.hstack(b)
        with pytest.raises(ValueError):
            a.vstack(b)
        with pytest.raises(ValueError):
            IntMatrix.zeros(2, 0).hstack(IntMatrix.zeros(0, 0))
        with pytest.raises(ValueError):
            IntMatrix.zeros(0, 2).vstack(IntMatrix.zeros(0, 0))

    @pytest.mark.parametrize("a, b", [((1, 2), (3, 2)), ((3, 1), (3, 2)), ((1, 1), (2, 2)), ((0, 2), (1, 2))])
    @pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
    def test_sum_shape_mismatch_refused(self, a, b, big):
        """numpy would broadcast a row or a column across the other matrix."""
        x = 1 << 70 if big else 1
        left = IntMatrix.from_rows([[x] * a[1]] * a[0], cols=a[1])
        right = IntMatrix.from_rows([[x] * b[1]] * b[0], cols=b[1])
        for first, second in ((left, right), (right, left)):
            with pytest.raises(ValueError, match="shape mismatch"):
                first + second
            with pytest.raises(ValueError, match="shape mismatch"):
                first - second

    def test_bezout_needs_a_value(self):
        """Without the check the empty list is an IndexError."""
        with pytest.raises(ValueError, match="no values"):
            bezout_coefficients([])
