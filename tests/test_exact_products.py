"""Exact products on float64, int64 and Python integers, the int64 image
each matrix keeps, zero and identity tests, and the kernel basis read off
the pivot columns from the right."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glattice import gflows as gflows_mod
from glattice import intlinalg as intlinalg_mod
from glattice.gflows import SpanningTreeBasisError, cayley_graph, complete_edges, flow_lattice
from glattice.groups import cyclic, regular_gset, semidirect
from glattice.intlinalg import IntMatrix, kernel_basis
from reference import flow_basis_by_kernel, kernel_basis_by_transform


def product_by_python_ints(A, B, n=None):
    n = len(B[0]) if n is None else n
    return [[sum(row[t] * B[t][j] for t in range(len(row))) for j in range(n)] for row in A]


def assert_kept_image(M):
    """Entries are Python ints, and a kept int64 image equals them."""
    rows = M.to_lists()
    assert all(type(x) is int for row in rows for x in row)
    if isinstance(M._i64, np.ndarray):
        assert M._i64.dtype == np.int64 and M._i64.tolist() == rows


@st.composite
def products(draw):
    """Two matrices whose guard k * max|A| * max|B| lies just below, at or
    just above 2**53 or 2**62 (or far beyond), with negative entries, k = 1
    and zero-size shapes among them."""
    m, n = draw(st.sampled_from([0, 1, 9, 14])), draw(st.sampled_from([0, 1, 9, 14]))
    k = draw(st.sampled_from([0, 1, 2, 7, 33]))
    bits = draw(st.sampled_from([53, 62, 70]))
    a_max = draw(st.sampled_from([1, 3, 2**20, 2**26 + 1, 2**31 - 1]))
    b_max = max(1, ((1 << bits) // max(k, 1)) // a_max + draw(st.sampled_from([-1, 0, 1])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    A = [[rng.randint(-a_max, a_max) for _ in range(k)] for _ in range(m)]
    B = [[rng.randint(-b_max, b_max) for _ in range(n)] for _ in range(k)]
    if m and k:
        A[0][0] = -a_max
    if k and n:
        B[-1][-1] = b_max
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
            assert_kept_image(M)

    def test_the_product_keeps_its_image_and_each_operand_converts_once(self, monkeypatch):
        A = IntMatrix.from_rows([[(i * j) % 7 - 3 for j in range(20)] for i in range(20)])
        calls = []
        original = IntMatrix._int64

        def counting(self):
            calls.append(self._i64 is None)
            return original(self)

        monkeypatch.setattr(IntMatrix, "_int64", counting)
        C = A @ A
        D = C @ A
        assert calls.count(True) == 1  # only A was converted; C came with its image
        assert D._i64 is not None and C._a is None  # C's Python ints were never needed
        assert_kept_image(C)
        assert_kept_image(D)
        assert D == IntMatrix.from_rows(product_by_python_ints(C.to_lists(), A.to_lists()))

    def test_entries_beyond_int64_stay_python_ints(self):
        big = IntMatrix.from_rows([[2**70 + i - j for j in range(12)] for i in range(12)])
        C = big @ big
        assert big._i64 is False
        assert C.to_lists() == product_by_python_ints(big.to_lists(), big.to_lists())
        assert_kept_image(C)

    def test_float64_products_past_2_53_fall_back_to_int64(self):
        # k * max|A| * max|B| = 16 * 2**25 * 2**25 = 2**54: past float64, within int64
        A = IntMatrix.from_rows([[2**25] * 16 for _ in range(16)])
        C = A @ A
        assert C.to_lists() == [[16 * 2**50] * 16] * 16
        assert_kept_image(C)


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

    def test_products_held_as_int64_only(self):
        eye = IntMatrix.identity(30)
        P = eye @ eye
        assert P._a is None and P.is_identity() and not P.is_zero()
        Z = IntMatrix.zeros(30, 30) @ eye
        assert Z._a is None and Z.is_zero() and not Z.is_identity()
        assert P == eye and eye == P and Z != P


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
