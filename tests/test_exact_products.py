"""Exact products on float64, int64 and Python integers, the one storage
each matrix holds (int64 exactly when its entries fit), every exact
operation at the int64 boundaries, zero and identity tests, and the
kernel basis read off the pivot columns from the right."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glattice import checks, cli, cohom
from glattice import gflows as gflows_mod
from glattice import intlinalg as intlinalg_mod
from glattice.gflows import SpanningTreeBasisError, cayley_graph, complete_edges, flow_lattice
from glattice.groups import cyclic, regular_gset, semidirect
from glattice.intlinalg import (
    BasisSolver,
    IntMatrix,
    cokernel_invariants,
    col_hermite,
    kernel_basis,
    row_hermite,
    solve_matrix,
)
from reference import (
    flow_basis_by_kernel,
    kernel_basis_by_transform,
    kron_by_python_ints,
    product_by_python_ints,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def assert_held(M):
    """M holds int64 exactly when every entry fits, else Python ints, and
    every entry it hands out is a Python int."""
    rows = M.to_lists()
    flat = [x for row in rows for x in row]
    assert all(type(x) is int for x in flat)
    fits = all(INT64_MIN <= x <= INT64_MAX for x in flat)
    assert M.a.dtype == (np.int64 if fits else object)
    if not fits:
        assert all(type(x) is int for x in M.a.ravel())
    return rows


class ConversionCounter(np.ndarray):
    """An int64 array that records each conversion to Python ints."""

    conversions: list = []

    def astype(self, dtype, *args, **kwargs):
        if np.dtype(dtype) == object:
            ConversionCounter.conversions.append(self.shape)
        return super().astype(dtype, *args, **kwargs)

    def tolist(self):
        ConversionCounter.conversions.append(self.shape)
        return super().tolist()


def counted(M):
    """M with its storage swapped for a ConversionCounter view."""
    M.a = M.a.view(ConversionCounter)
    return M


@st.composite
def products(draw):
    """Two matrices whose guard k * max|A| * max|B| lies just below, at or
    just above 2**53, 2**62 or 2**63 (or far beyond), with negative entries,
    k = 1 and zero-size shapes among them; with k = 1 and max|A| = 1 an
    entry of B straddles int64 itself."""
    m, n = draw(st.sampled_from([0, 1, 9, 14])), draw(st.sampled_from([0, 1, 9, 14]))
    k = draw(st.sampled_from([0, 1, 2, 7, 33]))
    bits = draw(st.sampled_from([53, 62, 63, 70]))
    a_max = draw(st.sampled_from([1, 3, 2**20, 2**26 + 1, 2**31 - 1]))
    b_max = max(1, ((1 << bits) // max(k, 1)) // a_max + draw(st.sampled_from([-1, 0, 1])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    A = [[rng.randint(-a_max, a_max) for _ in range(k)] for _ in range(m)]
    B = [[rng.randint(-b_max, b_max) for _ in range(n)] for _ in range(k)]
    if m and k:
        A[0][0] = -a_max
    if k and n:
        B[-1][-1] = draw(st.sampled_from([b_max, -b_max]))
    return A, B, k, n


class TestProducts:
    @settings(max_examples=300, deadline=None)
    @given(products())
    def test_every_path_is_exact(self, case):
        A_rows, B_rows, k, n = case
        A, B = IntMatrix.from_rows(A_rows, cols=k), IntMatrix.from_rows(B_rows, cols=n)
        C = A @ B
        assert C.shape == (len(A_rows), n)
        assert C.to_lists() == product_by_python_ints(A_rows, B_rows, n)
        for M in (A, B, C):
            assert_held(M)

    @pytest.mark.parametrize("n", [3, 20])  # an int64 product, and one on float64
    def test_a_product_of_int64_operands_converts_no_operand(self, n):
        A = IntMatrix.from_rows([[(i * j) % 7 - 3 for j in range(n)] for i in range(n)])
        rows = A.to_lists()
        ConversionCounter.conversions = []
        C = counted(A) @ A
        D = counted(C) @ A
        assert ConversionCounter.conversions == []
        assert C.a.dtype == D.a.dtype == np.int64
        assert assert_held(D) == product_by_python_ints(product_by_python_ints(rows, rows), rows)

    def test_the_counter_sees_a_conversion(self):
        # past 2**62 the product runs on Python ints, and both operands convert
        A = IntMatrix.from_rows([[2**40 + i - j for j in range(4)] for i in range(4)])
        ConversionCounter.conversions = []
        C = counted(A) @ A
        assert ConversionCounter.conversions == [(4, 4), (4, 4)]
        assert assert_held(C) == product_by_python_ints(A.to_lists(), A.to_lists())

    def test_entries_beyond_int64_stay_python_ints(self):
        big = IntMatrix.from_rows([[2**70 + i - j for j in range(12)] for i in range(12)])
        C = big @ big
        assert big.a.dtype == C.a.dtype == object
        assert C.to_lists() == product_by_python_ints(big.to_lists(), big.to_lists())
        assert_held(C)
        assert (big - big).a.dtype == np.int64 and (big - big).is_zero()

    def test_float64_products_past_2_53_fall_back_to_int64(self):
        # k * max|A| * max|B| = 16 * 2**25 * 2**25 = 2**54: past float64, within int64
        A = IntMatrix.from_rows([[2**25] * 16 for _ in range(16)])
        C = A @ A
        assert C.to_lists() == [[16 * 2**50] * 16] * 16
        assert C.a.dtype == np.int64
        assert_held(C)

    def test_a_loose_bound_is_checked_on_the_entries(self):
        # C = A @ B is all ones, but the bound it keeps is 2 * 2**61 * 1 = 2**62:
        # a product with C reads C's entries again and runs on machine words
        A = IntMatrix.from_rows([[2**61, 1 - 2**61]] * 16)
        C = A @ IntMatrix.from_rows([[1] * 16] * 2)
        E = IntMatrix.from_rows([[i - j for j in range(16)] for i in range(16)])
        ConversionCounter.conversions = []
        D = counted(C) @ E
        assert ConversionCounter.conversions == []
        assert assert_held(C) == [[1] * 16] * 16
        assert assert_held(D) == product_by_python_ints(lists(C), lists(E))


def lists(M):
    return M.to_lists()


class TestInt64Boundary:
    """Every exact operation on both sides of int64, against Python ints."""

    def test_negating_the_least_int64(self):
        M = IntMatrix.from_rows([[INT64_MIN, 1], [0, INT64_MAX]])
        assert M.a.dtype == np.int64
        N = -M
        assert assert_held(N) == [[2**63, -1], [0, -INT64_MAX]] and N.a.dtype == object
        assert assert_held(-N) == lists(M) and (-N).a.dtype == np.int64
        assert assert_held(-IntMatrix.from_rows([[INT64_MAX, INT64_MIN + 1]])) == [[INT64_MIN + 1, INT64_MAX]]

    @pytest.mark.parametrize("x, y", [
        (INT64_MAX, 1), (INT64_MIN + 1, -1), (INT64_MIN, -1), (2**62, 2**62), (-(2**62), -(2**62)),
        (INT64_MAX, -INT64_MAX), (INT64_MIN, INT64_MAX), (2**63, -1), (2**63, -(2**63)),
    ])
    def test_sums_and_differences_at_2_63(self, x, y):
        A, B = IntMatrix.from_rows([[x, 0], [1, x]]), IntMatrix.from_rows([[y, 2], [0, -y]])
        assert assert_held(A + B) == [[x + y, 2], [1, x - y]]
        assert assert_held(A - B) == [[x - y, -2], [1, x + y]]
        assert assert_held(B - A) == [[y - x, 2], [-1, -y - x]]

    @pytest.mark.parametrize("x, y", [
        (2**32, 2**31), (-(2**32), 2**31), (2**32, 2**31 - 1), (-(2**32), -(2**31)), (2**40, 0), (2**70, 0),
        (2**70, 3),
    ])
    def test_kron_at_2_63(self, x, y):
        A = IntMatrix.from_rows([[x, 1], [0, -1]])
        B = IntMatrix.from_rows([[y], [2]])
        assert assert_held(A.kron(B)) == kron_by_python_ints(lists(A), lists(B))
        assert assert_held(B.kron(A)) == kron_by_python_ints(lists(B), lists(A))

    def test_stacks_of_both_storages(self):
        small = IntMatrix.from_rows([[1, INT64_MIN], [INT64_MAX, 0]])
        big = IntMatrix.from_rows([[2**63, 0], [0, -(2**63) - 1]])
        assert small.a.dtype == np.int64 and big.a.dtype == object
        for X, Y in ((small, big), (big, small), (small, small), (big, big)):
            assert assert_held(X.hstack(Y)) == [p + q for p, q in zip(lists(X), lists(Y))]
            assert assert_held(X.vstack(Y)) == lists(X) + lists(Y)
            D = IntMatrix.block_diagonal([X, Y])
            assert assert_held(D) == [row + [0, 0] for row in lists(X)] + [[0, 0] + row for row in lists(Y)]
        assert assert_held(big.take_columns([0])) == [[2**63], [0]]
        assert big.take_rows([0]).a.dtype == object
        assert big.take_rows([]).a.dtype == np.int64 and big.take_rows([]).shape == (0, 2)
        assert assert_held(big.take_columns([1]).take_rows([0])) == [[0]]
        assert assert_held(IntMatrix.block_diagonal([])) == []

    @pytest.mark.parametrize("x", [2**63, INT64_MIN - 1, INT64_MAX, INT64_MIN, 2**200])
    def test_constructors_hold_by_fit(self, x):
        for M in (IntMatrix.from_rows([[1, x], [0, 2]]), IntMatrix.from_columns([[1, 0], [x, 2]]),
                  IntMatrix.from_sparse_columns(2, [{0: 1}, {0: x, 1: 2}]),
                  IntMatrix.from_sparse_columns(2, [{0: x, 1: 2}, {0: 1}]).take_columns([1, 0])):
            assert assert_held(M) == [[1, x], [0, 2]]
            assert M.T.a.dtype == M.a.dtype and assert_held(M.T) == [[1, 0], [x, 2]]

    @pytest.mark.parametrize("x", [1.0, np.float64(2.0), 2.5])
    def test_a_float_is_refused_beside_a_wide_entry(self, x):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[2**70, x]])
        with pytest.raises(TypeError):
            IntMatrix.from_sparse_columns(2, [{0: 2**70, 1: x}])
        with pytest.raises(TypeError):
            IntMatrix.from_sparse_columns(2, [{0: x}])


def python_ints_only(x):
    """Whether every number in x, walked through dicts (keys too), lists
    and tuples, is a Python int (bool, float and str allowed), never a
    numpy scalar."""
    if isinstance(x, dict):
        return all(python_ints_only(k) and python_ints_only(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return all(python_ints_only(v) for v in x)
    return type(x) in (int, bool, float, str, type(None))


def reads(M):
    """Every way to read the entries of M."""
    return [M[0, 0], M[M.rows - 1, M.cols - 1], M[0], M[:, 0], M[0:2, 1:], M.to_lists(),
            [M.col_list(j) for j in range(M.cols)], M.column_nonzeros()]


class TestNoNumpyScalarEscapes:
    """Every value read out of a matrix or a routine is a Python int, on
    int64-held and Python-int-held matrices alike: a numpy scalar would
    wrap silently in the caller's arithmetic."""

    HELD = {
        "int64": [[2, 4, 1, 0], [0, 6, -3, 9], [4, 8, 2, 0]],
        "python ints": [[2**70, 4, 1, 0], [0, 6, -3, 2**65], [2**71, 8, 2, 0]],
    }

    @pytest.mark.parametrize("held", HELD)
    def test_reads_and_routines(self, held):
        A = IntMatrix.from_rows(self.HELD[held])
        assert A.a.dtype == (np.int64 if held == "int64" else object)
        outputs = reads(A)
        for H, U in (row_hermite(A, transform=True), col_hermite(A, transform=True)):
            outputs += reads(H) + reads(U)
        outputs += reads(row_hermite(A)) + reads(kernel_basis(A))
        X = IntMatrix.from_rows([[1, -1], [2, 0], [0, 3], [-5, 1]])
        outputs += reads(solve_matrix(A, A @ X))
        outputs += reads(BasisSolver(A).express_columns([{0: A[0, 1], 1: A[1, 1], 2: A[2, 1]}]))
        outputs.append(cokernel_invariants(A))
        outputs.append(cokernel_invariants(A.T))
        assert python_ints_only(outputs)
        assert outputs[0] == self.HELD[held][0][0] and outputs[2] == self.HELD[held][0]

    def test_suite_quick_json(self):
        reports = cli.run_suite("quick")
        assert python_ints_only(cli._suite_payload("quick", reports))


class TestPastInt64EndToEnd:
    def test_the_split_of_the_5_12_4_presentation(self):
        """The split of the (5, 12, 4) kernel-generators presentation has
        entries of about 106 bits: it is still certified, held as Python
        ints, and its products with int64-held matrices are exact."""
        pres = checks._metacyclic_presentation(5, 12, 4).pres
        iso = cohom.split_iso(pres)
        assert iso is not None
        fwd, back = iso.matrix, iso.inverse().matrix
        assert fwd.a.dtype == back.a.dtype == object
        assert max(abs(x) for row in assert_held(fwd) for x in row).bit_length() > 100
        assert_held(back)
        assert (fwd @ back).is_identity() and (back @ fwd).is_identity()
        for g in pres.B.group.generators:
            action = pres.B.action[g]
            assert action.a.dtype == np.int64
            moved = action @ fwd
            assert assert_held(moved) == product_by_python_ints(lists(action), lists(fwd))
            assert assert_held(back @ moved) == product_by_python_ints(lists(back), lists(moved))


class TestZeroAndIdentity:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 3)])
    def test_zero(self, shape):
        assert IntMatrix.zeros(*shape).is_zero()
        if shape[0] and shape[1]:
            rows = [[0] * shape[1] for _ in range(shape[0])]
            rows[-1][-1] = -1
            assert not IntMatrix.from_rows(rows).is_zero()

    def test_identity(self):
        assert IntMatrix.identity(0).is_identity()
        assert IntMatrix.identity(5).is_identity()
        for rows in ([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]],
                     [[1, 0, 0], [0, 1, 0]], [[-1, 0], [0, -1]]):
            assert not IntMatrix.from_rows(rows).is_identity()
        assert not IntMatrix.zeros(0, 3).is_identity()
        assert not IntMatrix.zeros(3, 0).is_identity()

    def test_products_are_int64_held(self):
        eye = IntMatrix.identity(30)
        P = eye @ eye
        assert P.a.dtype == np.int64 and P.is_identity() and not P.is_zero()
        Z = IntMatrix.zeros(30, 30) @ eye
        assert Z.a.dtype == np.int64 and Z.is_zero() and not Z.is_identity()
        assert P == eye and eye == P and Z != P
        big = IntMatrix.from_rows([[1, 2**64], [0, 1]])
        assert big != eye.take_rows([0, 1]).take_columns([0, 1]) and big == IntMatrix.from_rows(lists(big))


class TestKernelBasis:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 20), st.integers(0, 2**32))
    def test_matches_the_transform_route(self, m, n, seed):
        rng = random.Random(seed)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -2, 3, 6]) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        A = IntMatrix.from_rows(rows, cols=n)
        assert kernel_basis(A) == kernel_basis_by_transform(A)

    @pytest.mark.parametrize("rows", [
        [[1, 2, 0, 0]], [[2, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0]],
        [[2, 0, 1, 0, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0, 0, 0]], [[6, 4, 0, 0]],
    ])
    def test_right_pivots_without_integer_coordinates(self, rows):
        # column 0 of [1, 2, 0, 0] is half the right pivot column: the transform route
        A = IntMatrix.from_rows(rows)
        assert kernel_basis(A) == kernel_basis_by_transform(A)

    def test_wide_matrices_take_the_right_pivots(self, monkeypatch):
        real, shapes = intlinalg_mod.col_hermite, []

        def spy(M, transform=False):
            shapes.append(M.shape)
            return real(M, transform)

        monkeypatch.setattr(intlinalg_mod, "col_hermite", spy)
        A = IntMatrix.from_rows([[1, 1, 1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5, 6, 7]])
        K = kernel_basis(A)
        assert A.shape not in shapes  # no transform as wide as A
        assert K.cols == 6 and (A @ K).is_zero() and K == kernel_basis_by_transform(A)


class TestFlowLatticeSolver:
    @pytest.mark.parametrize("graph", ["cayley", "complete"])
    def test_the_cycles_are_their_own_solver(self, graph, monkeypatch):
        G = semidirect(3, 2, 2)
        X = (cayley_graph(G, G.generators) if graph == "cayley"
             else complete_edges(regular_gset(cyclic(5)), loops=False))

        def refuse(*_):
            raise AssertionError("the cycle basis was scanned")

        monkeypatch.setattr(intlinalg_mod, "_is_column_hermite", refuse)
        monkeypatch.setattr(IntMatrix, "column_nonzeros", refuse)
        fl = flow_lattice(X)
        monkeypatch.undo()
        assert fl.solver.V is None
        assert fl.basis == flow_basis_by_kernel(X)

    def test_a_cycle_through_another_non_tree_edge_is_refused(self, monkeypatch):
        # a tree search that leaves a non-tree edge on a tree path breaks the
        # echelon shape, and the certificate says so
        X = complete_edges(regular_gset(cyclic(4)), loops=False)
        real = gflows_mod._bfs

        def wrong_tree(X, src, allowed=None):
            return real(X, src, None)

        monkeypatch.setattr(gflows_mod, "_bfs", wrong_tree)
        with pytest.raises(SpanningTreeBasisError):
            flow_lattice(X)
