"""Lattices held as generator matrices: every matrix made on first use
against an eager construction, permutation lattices and their G-sets,
the triangular flow-basis solver, bases already in Hermite form, and the
Hermite forms and products that flow lattices and bar-cocycle no longer
compute."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import glattice.checks as checks_mod
import glattice.intlinalg as intlinalg_mod
from glattice.cli import main, parse_group_spec
from glattice.errors import InvalidParameterError
from glattice.gflows import cayley_graph, complete_edges, flow_lattice
from glattice.gmod import (
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
    GSet,
    cyclic,
    natural_gset,
    regular_gset,
    subgroup_conjugacy_reps,
    symmetric,
)
from glattice.intlinalg import BasisSolver, IntMatrix, _is_column_hermite, col_hermite
from reference import (
    express_dense,
    flow_basis_by_kernel,
    mul_vector,
    sublattice_action_per_element,
    tensor,
)

GROUPS = ["C:6", "S:3", "D:4", "X(C:2,C:2)", "SD:3,2,2"]


def _perm_matrices(X):
    """The permutation matrices of a G-set, entry by entry."""
    out = []
    for perm in X.action:
        rows = [[0] * X.size for _ in range(X.size)]
        for x, y in enumerate(perm):
            rows[y][x] = 1
        out.append(IntMatrix.from_rows(rows))
    return out


def _block(A, B):
    return IntMatrix.from_rows(
        [row + [0] * B.cols for row in A.to_lists()]
        + [[0] * A.cols + row for row in B.to_lists()]
    )


def _kron(A, B):
    a, b = A.to_lists(), B.to_lists()
    return IntMatrix.from_rows([
        [a[i][j] * b[k][l] for j in range(A.cols) for l in range(B.cols)]
        for i in range(A.rows) for k in range(B.rows)
    ])


def _cases(G):
    """name -> (lattice, its action matrices built eagerly), from fresh
    lattices whose matrices have not been read."""
    H = subgroup_conjugacy_reps(G)[1]
    Hgrp, embed = H.as_group()
    X = cayley_graph(G, G.generators)
    fl = flow_lattice(X)
    F = fl
    F_ref = sublattice_action_per_element(X.edge_lattice(), fl.basis)
    P = coset_lattice(G, H)
    P_ref = _perm_matrices(P.gset)
    R = regular(G)
    I, incl = augmentation_kernel(regular(G))
    I_ref = sublattice_action_per_element(regular(G), incl.matrix)
    S = direct_sum(F, P)
    S_ref = [_block(F_ref[g], P_ref[g]) for g in G.elements()]
    # a sublattice of a derived lattice without a G-set: F inside F + P
    sub_basis = IntMatrix.identity(S.rank).take_columns(range(F.rank))
    sub, _ = sublattice_with_action(direct_sum(F, P), sub_basis)
    D = dual(F)
    return {
        "regular": (R, _perm_matrices(R.gset)),
        "coset": (P, P_ref),
        "flows": (F, F_ref),
        "augmentation": (I, I_ref),
        "dual": (D, [F_ref[G.inverses[g]].T for g in G.elements()]),
        "double dual": (dual(D), F_ref),
        "sum": (S, S_ref),
        "sum of permutation lattices": (
            direct_sum(regular(G), coset_lattice(G, H)),
            [_block(a, b) for a, b in zip(_perm_matrices(R.gset), P_ref)],
        ),
        "tensor": (tensor(F, P), [_kron(F_ref[g], P_ref[g]) for g in G.elements()]),
        "restriction": (restrict(F, H), [F_ref[g] for g in embed]),
        "restricted regular": (restrict(regular(G), H), [_perm_matrices(R.gset)[g] for g in embed]),
        "sublattice of a sum": (sub, sublattice_action_per_element(direct_sum(F, P), sub_basis)),
        "trivial": (trivial(G), [IntMatrix.identity(1)] * G.order),
    }


class TestMatricesMadeOnUse:
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    @pytest.mark.parametrize("spec", GROUPS)
    def test_every_matrix_equals_the_eager_one(self, spec, order):
        G = parse_group_spec(spec)
        for name, (M, expected) in _cases(G).items():
            elements = list(M.group.elements())
            if order == "reverse":
                elements.reverse()
            for g in elements:
                assert M.action[g] == expected[g], (name, g)
            assert M.action == expected, name
            M.validate()

    def test_generators_only_until_asked(self):
        """A sublattice_with_action lattice has every generator made at
        construction, a flow lattice none until one is read."""
        G = parse_group_spec("D:4")
        X = cayley_graph(G, G.generators)
        F = flow_lattice(X)
        sub, _ = sublattice_with_action(X.edge_lattice(), F.basis)

        def made(M):
            return [g for g, m in enumerate(M.action._made) if m is not None]

        assert made(sub) == sorted(G.generators) and made(F) == []
        F.action[G.generators[-1]]
        assert made(F) == [G.generators[-1]]
        for M in (sub, F):
            M.action[G.order - 1]
            assert M.action._made[G.order - 1] is not None

    def test_source_matrices_are_not_read_before_use(self):
        G = parse_group_spec("S:3")
        P = regular(G)
        derived = [dual(P), tensor(P, P), direct_sum(P, P), restrict(P, subgroup_conjugacy_reps(G)[1])]
        assert [M.rank for M in derived] == [6, 36, 12, 6]
        assert all(m is None for m in P.action._made)

    def test_no_lattice_is_kept_alive_by_its_own_matrices(self):
        G = parse_group_spec("S:3")
        P = regular(G)
        H = subgroup_conjugacy_reps(G)[1]
        basis = intlinalg_mod.kernel_basis(IntMatrix.from_rows([[1] * G.order]))
        makers = [
            lambda: regular(G),
            lambda: dual(P),
            lambda: direct_sum(P, P),
            lambda: tensor(P, P),
            lambda: restrict(P, H),
            lambda: sublattice_with_action(P, basis)[0],
            lambda: flow_lattice(cayley_graph(G, G.generators)),
        ]
        gc.disable()  # only reference counting may free the lattice
        try:
            for make in makers:
                M = make()
                assert M.action == list(M.action)  # every matrix made
                ref = weakref.ref(M)
                del M
                assert ref() is None
        finally:
            gc.enable()

    def test_reindexed_generator_moves_match_the_product(self):
        G = parse_group_spec("SD:3,2,2")
        X = cayley_graph(G, G.generators)
        basis = flow_lattice(X).basis
        by_reindex, _ = sublattice_with_action(X.edge_lattice(), basis)
        bare = GLattice(G, list(X.edge_lattice().action))  # no G-set: products
        by_product, _ = sublattice_with_action(bare, basis)
        for s in G.generators:
            assert by_reindex.action[s] == by_product.action[s]


class TestGSetMustMatchTheAction:
    def test_contradicting_gset_is_refused(self):
        G = cyclic(2)
        fixed = GSet(G, [(0, 1), (0, 1)])
        with pytest.raises(InvalidParameterError, match="G-set does not match"):
            GLattice(G, regular(G).action, gset=fixed)

    def test_gset_of_another_size_is_refused(self):
        G = cyclic(3)
        with pytest.raises(InvalidParameterError, match="G-set does not match"):
            GLattice(G, regular(G).action, gset=regular_gset(cyclic(3)))
        with pytest.raises(InvalidParameterError, match="G-set does not match"):
            GLattice(G, list(direct_sum(regular(G), trivial(G)).action), gset=regular_gset(G))

    @pytest.mark.parametrize("spec", GROUPS)
    def test_matching_gset_is_accepted(self, spec):
        G = parse_group_spec(spec)
        P = coset_lattice(G, subgroup_conjugacy_reps(G)[1])
        M = GLattice(G, list(P.action), gset=P.gset)
        assert M.is_permutation_action() and M.gset is P.gset


def _bar_cocycle_solvers(spec, monkeypatch):
    """The solvers of the spanning-tree bases that bar-cocycle certifies."""
    made = []
    original = checks_mod.spanning_tree_basis_of_arrays

    def recording(*args):
        fl = original(*args)
        made.append(fl)
        return fl

    monkeypatch.setattr(checks_mod, "spanning_tree_basis_of_arrays", recording)
    assert checks_mod.check_bar_cocycle(parse_group_spec(spec)).ok
    return made


@st.composite
def unit_triangular(draw):
    """A basis with +-1 in row pivots[j] of column j and 0 in the pivot rows
    of earlier columns, its pivots, and vectors inside and outside its span."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    pivots = draw(st.permutations(range(n)))[:r]
    entry = st.integers(-3, 3)
    cols = []
    for j in range(r):
        col = [draw(entry) for _ in range(n)]
        for p in pivots[:j]:
            col[p] = 0
        col[pivots[j]] = draw(st.sampled_from([1, -1]))
        cols.append(col)
    basis = IntMatrix.from_columns(cols, rows=n)
    coords = [draw(entry) for _ in range(r)]
    inside = mul_vector(basis, coords) if r else [0] * n
    outside = [draw(entry) for _ in range(n)]
    return basis, pivots, coords, inside, outside


class TestTriangularSolver:
    @pytest.mark.parametrize("spec", ["C:6", "D:4"])
    def test_agrees_with_the_hermite_solver_on_bar_cocycle_bases(self, spec, monkeypatch):
        [fl] = _bar_cocycle_solvers(spec, monkeypatch)
        fresh = BasisSolver(fl.basis)
        assert fl.solver.rank == fresh.rank == fl.rank
        n = fl.basis.rows
        units = [[int(i == e) for i in range(n)] for e in range(n)]
        probes = units + [fl.basis.col_list(j) for j in range(fl.rank)]
        probes.append([sum(c) for c in zip(*probes[-3:])])
        for v in probes:
            assert express_dense(fl.solver, v) == express_dense(fresh, v)
        assert any(express_dense(fl.solver, v) is None for v in units)
        assert fl.solver.express_matrix(fl.basis).is_identity()
        assert fl.solver.express_matrix(fl.basis) == fresh.express_matrix(fl.basis)

    @settings(max_examples=150, deadline=None)
    @given(unit_triangular())
    def test_agrees_with_the_hermite_solver(self, case):
        basis, pivots, coords, inside, outside = case
        solver = BasisSolver._of_triangular(basis.rows, pivots, basis.column_nonzeros())
        fresh = BasisSolver(basis)
        assert solver.rank == fresh.rank == basis.cols
        assert express_dense(solver, inside) == coords
        assert express_dense(solver, outside) == express_dense(fresh, outside)
        off_pivot = [i for i in range(basis.rows) if i not in pivots]
        if off_pivot:  # same pivot-row values as inside, so outside the span
            assert express_dense(solver, [x + (i == off_pivot[0]) for i, x in enumerate(inside)]) is None
        both = IntMatrix.from_columns([inside, outside], rows=basis.rows)
        assert solver.express_matrix(both) == fresh.express_matrix(both)


class TestBarCocycleRunsNoHermiteAndNoProduct:
    def test_c16(self, monkeypatch, capsys):
        calls = []
        hermite, matmul = intlinalg_mod.row_hermite, IntMatrix.__matmul__

        def counting_hermite(*args, **kwargs):
            calls.append("row_hermite")
            return hermite(*args, **kwargs)

        def counting_matmul(self, other):
            calls.append("matmul")
            return matmul(self, other)

        monkeypatch.setattr(intlinalg_mod, "row_hermite", counting_hermite)
        monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
        assert main(["check", "bar-cocycle", "--group", "C:16"]) == 0
        assert '"status": "pass"' in capsys.readouterr().out
        assert calls == []


def _refuse_hermite(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("row_hermite called")

    monkeypatch.setattr(intlinalg_mod, "row_hermite", refuse)


@st.composite
def near_hermite(draw):
    """The column Hermite form of a small random matrix, with one entry
    sometimes changed, so that both verdicts occur."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(st.integers(-4, 4)) for _ in range(c)] for _ in range(r)]
    H = col_hermite(IntMatrix.from_rows(rows, cols=c)).to_lists()
    if r and c and draw(st.booleans()):
        H[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] = draw(st.integers(-4, 4))
    return IntMatrix.from_rows(H, cols=c)


class TestBasesAlreadyInHermiteForm:
    @settings(max_examples=300, deadline=None)
    @given(near_hermite())
    def test_detection_is_exact(self, A):
        H, V = col_hermite(A, transform=True)
        assert _is_column_hermite(A) == (H == A)
        assert _is_column_hermite(H)
        if H == A:
            assert V.is_identity()

    @pytest.mark.parametrize("spec", GROUPS)
    def test_solver_of_a_hermite_basis_computes_none(self, spec, monkeypatch):
        G = parse_group_spec(spec)
        K = intlinalg_mod.kernel_basis(IntMatrix.from_rows([[1] * G.order]))  # augmentation
        _refuse_hermite(monkeypatch)
        solver = BasisSolver(K)
        assert (solver.basis, solver.V, solver.rank) == (K, None, K.cols)  # V None: its own form
        coords = IntMatrix.from_columns([list(range(K.cols)), [1] * K.cols])
        assert solver.express_matrix(K @ coords) == coords
        assert express_dense(solver, [1] * G.order) is None

    @pytest.mark.parametrize("spec", GROUPS)
    def test_flow_lattice_computes_no_hermite_form(self, spec, monkeypatch):
        G = parse_group_spec(spec)
        graphs = [
            cayley_graph(G, G.generators),
            cayley_graph(G, range(G.order)),
            complete_edges(regular_gset(G), loops=True),
        ]
        expected = [flow_basis_by_kernel(X) for X in graphs]
        _refuse_hermite(monkeypatch)
        assert [flow_lattice(X).basis for X in graphs] == expected

    def test_flow_lattice_of_a_point_graph_computes_no_hermite_form(self, monkeypatch):
        X = complete_edges(natural_gset(symmetric(4)))
        expected = flow_basis_by_kernel(X)
        _refuse_hermite(monkeypatch)
        assert flow_lattice(X).basis == expected
