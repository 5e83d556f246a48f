"""Exact linear algebra unit tests, including brute-force oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glattice.intlinalg import (
    BasisSolver,
    IntMatrix,
    _smith_diagonal,
    bezout_coefficients,
    cokernel_invariants,
    col_hermite,
    column_span_canonical,
    is_saturated_basis,
    kernel_basis,
    same_column_span,
    solve_matrix,
    xgcd,
)
from glattice import intlinalg
from glattice.cli import parse_group_spec
from glattice.gflows import cayley_graph, flow_lattice
from glattice.gmod import dual, norm_matrix
from glattice.groups import subgroup_conjugacy_reps
from reference import det, entries, express_dense, mul_vector, saturation, smith


def gcd_int(a: int, b: int) -> int:
    from math import gcd

    return gcd(a, b)


def rational_rank(m: IntMatrix) -> int:
    """Independent oracle: Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m.to_lists()]
    rank = 0
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pa = a[rank]
        for i in range(m.rows):
            if i != rank and a[i][col] != 0:
                f = a[i][col] / pa[col]
                a[i] = [x - f * y for x, y in zip(a[i], pa)]
        rank += 1
    return rank


small_entries = st.integers(min_value=-9, max_value=9)
wide_entries = st.one_of(small_entries, st.integers(-(2**66), 2**66))


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return IntMatrix.from_rows(rows)


class TestSmith:
    def test_identity(self):
        d = smith(IntMatrix.identity(2))
        assert d.S == IntMatrix.identity(2)
        assert d.U == IntMatrix.identity(2)
        assert d.V == IntMatrix.identity(2)

    def test_single_row_gcd_one(self):
        d = smith(IntMatrix.from_rows([[1, 1, 1]]))
        assert d.diagonal() == [1]
        assert d.S.to_lists()[0] == [1, 0, 0]

    def test_two_by_two(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        d = smith(a)
        assert d.diagonal() == [2, 4]
        # oracle checks: |det| and gcd of entries survive row/column reduction
        assert abs(det(a)) == 2 * 4 == 8
        from math import gcd
        assert gcd(2, gcd(4, gcd(6, 8))) == 2 == d.diagonal()[0]
        assert d.U @ a @ d.V == d.S

    def test_deterministic(self):
        a = IntMatrix.from_rows([[6, 4, 2], [4, 8, 6]])
        d1, d2 = smith(a), smith(a)
        assert d1.U == d2.U and d1.V == d2.V and d1.S == d2.S

    def test_large_entries_stay_exact(self):
        big = 10**12
        a = IntMatrix.from_rows(
            [[big, big + 6, 3], [2 * big, 4, big - 1], [7, 5 * big, 11]]
        )
        d = smith(a)
        assert d.U @ a @ d.V == d.S
        assert abs(det(d.U)) == 1 and abs(det(d.V)) == 1
        diag = [x for x in d.diagonal() if x]
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
        # the product of the invariant factors is |det|
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(det(a))

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_properties(self, a):
        d = smith(a)
        assert d.U @ a @ d.V == d.S
        diag = d.diagonal()
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
        # zero diagonal entries only at the end
        assert diag == sorted(diag, key=lambda x: x == 0)
        assert abs(det(d.U)) == 1
        assert abs(det(d.V)) == 1
        # off-diagonal of S vanishes
        for i in range(d.S.rows):
            for j in range(d.S.cols):
                if i != j:
                    assert d.S[i, j] == 0
        # idempotence: S is its own Smith form
        assert smith(d.S).S == d.S
        assert len(nonzero) == rational_rank(a)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_augmentation_row(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1, 1]]))
        assert k.cols == 2
        for j in range(2):
            assert sum(k.col_list(j)) == 0

    def test_three_cycle_boundary(self):
        # edges (0,1), (1,2), (2,0): flows found by brute force over {-1,0,1}
        boundary = IntMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
        flows = [
            v
            for v in itertools.product([-1, 0, 1], repeat=3)
            if all(x == 0 for x in mul_vector(boundary, v)) and any(v)
        ]
        assert set(flows) == {(1, 1, 1), (-1, -1, -1)}
        k = kernel_basis(boundary)
        assert k.cols == 1
        assert k.col_list(0) == [1, 1, 1]

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_properties(self, a):
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert k.cols == a.cols - rational_rank(a)
        assert is_saturated_basis(k)
        # canonical: recomputing from a column-shuffled generating set agrees
        assert col_hermite(k) == k

    @given(matrices(max_dim=4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_against_rational_oracle(self, a):
        # every rational kernel vector must be a rational combination of the
        # integer kernel basis: check by solving over the fractions
        k = kernel_basis(a)
        rat = [[Fraction(x) for x in row] for row in a.to_lists()]
        # rational kernel via elimination
        cols = a.cols
        pivots = []
        row = 0
        for col in range(cols):
            piv = next((i for i in range(row, a.rows) if rat[i][col] != 0), None)
            if piv is None:
                continue
            rat[row], rat[piv] = rat[piv], rat[row]
            for i in range(a.rows):
                if i != row and rat[i][col] != 0:
                    f = rat[i][col] / rat[row][col]
                    rat[i] = [x - f * y for x, y in zip(rat[i], rat[row])]
            pivots.append((row, col))
            row += 1
        pivot_cols = {c for _, c in pivots}
        for free in (c for c in range(cols) if c not in pivot_cols):
            vec = [Fraction(0)] * cols
            vec[free] = Fraction(1)
            for r, c in pivots:
                vec[c] = -rat[r][free] / rat[r][c]
            # clear denominators: the integer vector must lie in span(k)
            den = 1
            for x in vec:
                den = den * x.denominator // gcd_int(den, x.denominator)
            ivec = [int(x * den) for x in vec]
            from glattice.intlinalg import BasisSolver

            coords = express_dense(BasisSolver(k), ivec)
            assert coords is not None

    def test_zero_row_matrix(self):
        assert kernel_basis(IntMatrix.zeros(0, 4)) == IntMatrix.identity(4)


class TestCokernel:
    def test_identity(self):
        assert cokernel_invariants(IntMatrix.identity(4)) == ([], 0)

    def test_diag_2_3_with_enumeration_oracle(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert cokernel_invariants(a) == ([6], 0)
        # brute force: count residues of Z^2 modulo the column span on [0,6)^2
        span = set()
        for c1 in range(-18, 19):
            for c2 in range(-18, 19):
                v = (2 * c1 % 6, 3 * c2 % 6)
                span.add(v)
        reps = {(x % 6, y % 6) for x in range(6) for y in range(6)}
        classes = set()
        for x, y in reps:
            canon = min(((x - sx) % 6, (y - sy) % 6) for sx, sy in span)
            classes.add(canon)
        assert len(classes) == 6

    def test_free_part_split(self):
        a = IntMatrix.column([2, 0])
        assert cokernel_invariants(a) == ([2], 1)


def sympy_smith_diagonal(a: IntMatrix) -> list:
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(*a.shape, entries(a)), domain=sympy.ZZ)
    return [abs(int(snf[i, i])) for i in range(min(a.shape))]


class TestSmithByAlternation:
    """The Smith diagonal from alternating row Hermite forms, on matrices
    that reach each of its steps, against sympy and the dense oracle."""

    CASES = {
        # diagonal already, but not a divisibility chain: only gcd/lcm acts
        "diag(2,3)": ([[2, 0], [0, 3]], [1, 6]),
        "diag(4,6)": ([[4, 0], [0, 6]], [2, 12]),
        "unit pivot after one round": ([[2, 1], [0, 2]], [1, 4]),
        "four rounds": ([[6, -3, 9], [0, 2, 6], [4, 4, -3]], [1, 1, 324]),
        "wide": ([[2, 4, 4], [-6, 6, 12]], [2, 6]),
        "rank deficient": ([[2, 4], [3, 6], [5, 10]], [1, 0]),
        "beyond 2**64": (
            [[2**70, 0, 3], [0, 3 * 2**66, 2**65 + 1], [2**64, 5, 0]],
            None,
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_case(self, name):
        rows, expected = self.CASES[name]
        a = IntMatrix.from_rows(rows)
        diag = sympy_smith_diagonal(a)
        assert _smith_diagonal(a) == diag == smith(a).diagonal()
        if expected is not None:
            assert diag == expected
        rank = sum(1 for d in diag if d)
        assert cokernel_invariants(a) == ([d for d in diag if d > 1], a.rows - rank)

    def test_repeated_transposes(self, monkeypatch):
        rounds = []
        core = intlinalg._row_hermite_rows

        def counted(h, cols, u=None):
            rounds.append(len(h))
            return core(h, cols, u)

        monkeypatch.setattr(intlinalg, "_row_hermite_rows", counted)
        a = IntMatrix.from_rows(self.CASES["four rounds"][0])
        H = column_span_canonical(a)
        rounds.clear()
        assert intlinalg._hermite_smith_diagonal(H) == [1, 1, 324]
        assert len(rounds) >= 3  # the alternation runs more than once

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        a = IntMatrix.zeros(*shape)
        assert _smith_diagonal(a) == sympy_smith_diagonal(a) == smith(a).diagonal() == []
        assert cokernel_invariants(a) == ([], shape[0])


def tate_matrices(M, H):
    """The degree -1 and degree 0 Tate matrices of M over H."""
    eye = IntMatrix.identity(M.rank)
    minus_one = IntMatrix.zeros(M.rank, 0)
    for s in H.generators():
        minus_one = minus_one.hstack(M.action[s] - eye)
    return minus_one, norm_matrix(M, H)


@pytest.mark.parametrize("spec", ["D:4", "SD:3,2,2"])
@pytest.mark.parametrize("gens", ["s,t", "all"])
def test_cokernel_of_tate_matrices_against_dense_smith(spec, gens):
    """Every degree -1 and 0 Tate matrix of the flow and dual flow lattices,
    over every subgroup class."""
    G = parse_group_spec(spec)
    X = cayley_graph(
        G,
        [G.generator_indices[k] for k in "st"] if gens == "s,t"
        else [g for g in G.elements() if g != G.identity],
    )
    fl = flow_lattice(X)
    for M in (fl, dual(fl)):
        for H in subgroup_conjugacy_reps(G):
            for A in tate_matrices(M, H):
                diag = smith(A).diagonal()
                rank = sum(1 for d in diag if d)
                assert cokernel_invariants(A) == ([d for d in diag if d > 1], A.rows - rank)


def solve(A, b):
    """solve_matrix on one right-hand side."""
    X = solve_matrix(A, IntMatrix.column(b))
    return None if X is None else X.col_list(0)


class TestSolve:
    def test_identity(self):
        assert solve(IntMatrix.identity(3), [4, 5, 6]) == [4, 5, 6]

    def test_parity_obstruction(self):
        assert solve(IntMatrix.from_rows([[2]]), [3]) is None

    def test_bezout(self):
        x = solve(IntMatrix.from_rows([[2, 3]]), [1])
        assert x is not None
        assert 2 * x[0] + 3 * x[1] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(IntMatrix.identity(2), [1, 2, 3])

    @given(matrices(), st.lists(small_entries, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_and_no_solution_consistency(self, a, x):
        x = (x * a.cols)[: a.cols]
        b = mul_vector(a, x)
        got = solve(a, b)
        assert got is not None
        assert mul_vector(a, got) == b
        # independent solvability oracle: b in colspan(A) iff augmenting
        # by b leaves the column span unchanged
        b2 = [v + 1 for v in b]
        expect = same_column_span(a, a.hstack(IntMatrix.column(b2)))
        assert (solve(a, b2) is not None) == expect


class TestHermite:
    @given(matrices(max_dim=4), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_canonical_under_column_moves(self, a, seed):
        # apply deterministic pseudo-random unimodular column operations
        rows = a.to_lists()
        n = a.cols
        s = seed
        for step in range(6):
            s = (1103515245 * s + 12345) % (1 << 31)
            i, j = s % n, (s // n) % n
            if i != j:
                q = (s >> 7) % 5 - 2
                for row in rows:
                    row[i] += q * row[j]
        m = IntMatrix.from_rows(rows, cols=n)
        assert column_span_canonical(a) == column_span_canonical(m)

    def test_transform(self):
        a = IntMatrix.from_rows([[4, 6], [2, 2]])
        h, v = col_hermite(a, transform=True)
        assert a @ v == h
        assert abs(det(v)) == 1


class TestSaturationAndSolver:
    def test_saturation_of_doubled_lattice(self):
        a = IntMatrix.from_rows([[2, 0], [0, 2], [0, 0]])
        sat = saturation(a)
        assert sat == IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])

    def test_basis_solver_membership(self):
        basis = IntMatrix.from_rows([[1, 0], [1, 2], [0, 1]])
        bs = BasisSolver(basis)
        coords = express_dense(bs, [1, 3, 1])
        assert coords is not None
        assert mul_vector(basis, coords) == [1, 3, 1]
        assert express_dense(bs, [0, 1, 0]) is None

    def test_express_matrix(self):
        basis = IntMatrix.from_rows([[2, 1], [0, 3]])
        bs = BasisSolver(basis)
        m = basis @ IntMatrix.from_rows([[1, -2], [4, 0]])
        assert bs.express_matrix(m) == IntMatrix.from_rows([[1, -2], [4, 0]])


def triple_loop_product(a: IntMatrix, b: IntMatrix) -> list:
    """Independent oracle for the matrix product, in Python integers."""
    A, B = a.to_lists(), b.to_lists()
    return [[sum(A[i][t] * B[t][j] for t in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)]


@st.composite
def product_operands(draw):
    """Operands whose bound k * max|A| * max|B| straddles 2**62.

    Sides are either tiny or large enough for the int64 path; entries
    are either near the int64 guard or above 2**63.
    """
    def dim():
        return draw(st.one_of(st.integers(0, 3), st.integers(10, 16)))

    m, k, n = dim(), dim(), dim()
    if draw(st.booleans()):
        ma = draw(st.integers(1, 2**31))
        mb = max(1, 2**62 // (max(k, 1) * ma) + draw(st.integers(-1, 1)))
    else:
        ma = 2**63 + draw(st.integers(0, 2**10))
        mb = draw(st.integers(1, 2**64))

    def operand(r, c, bound):
        flat = draw(st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c))
        if flat:  # make max|entry| exactly the bound
            flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from([bound, -bound]))
        return IntMatrix.from_rows([flat[i * c:(i + 1) * c] for i in range(r)], cols=c)

    return operand(m, k, ma), operand(k, n, mb)


class TestProduct:
    @given(product_operands())
    @settings(max_examples=150, deadline=None)
    def test_against_triple_loop(self, ops):
        a, b = ops
        c = a @ b
        assert c.shape == (a.rows, b.cols)
        assert c.to_lists() == triple_loop_product(a, b)
        assert all(type(x) is int for x in entries(c))

    @pytest.mark.parametrize("mb", [2**28 - 1, 2**28, 2**30])
    def test_guard_boundary(self, mb):
        # every entry sits at its bound, so each result entry equals
        # k * max|A| * max|B|: just below 2**62, at it, and above 2**63
        k = 16
        a = IntMatrix.from_rows([[2**30] * k] * k)
        b = IntMatrix.from_rows([[mb] * k] * k)
        c = a @ b
        assert all(x == k * 2**30 * mb and type(x) is int for x in entries(c))

    def test_mixed_signs_wide_range(self):
        k = 12
        a = IntMatrix.from_rows([[(-1) ** (i + j) * (2**63 - 1) for j in range(k)] for i in range(k)])
        b = IntMatrix.from_rows([[-(2**63) if i == j else 0 for j in range(k)] for i in range(k)])
        assert (a @ b).to_lists() == triple_loop_product(a, b)


class TestVerdictsAreBool:
    """is_identity and is_zero return bool, on int64-held matrices (made by
    a constructor or a product) and on matrices held as Python ints."""

    def test_int64_held(self):
        for m in (IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[1, 0], [0, 0]]),
                  IntMatrix.identity(2), IntMatrix.zeros(2, 2)):
            assert m.a.dtype == np.int64
            assert type(m.is_identity()) is bool and type(m.is_zero()) is bool
        assert not IntMatrix.from_rows([[1, 1], [0, 1]]).is_identity()
        assert not IntMatrix.from_rows([[1, 0], [0, 0]]).is_zero()

    def test_int64_products(self):
        n = 16
        eye = IntMatrix.identity(n)
        shear = IntMatrix.from_rows([[int(i == j or j == i + 1) for j in range(n)] for i in range(n)])
        products = [eye @ eye, shear @ eye, IntMatrix.zeros(n, n) @ eye]
        assert all(p.a.dtype == np.int64 for p in products)
        assert [(p.is_identity(), p.is_zero()) for p in products] == [
            (True, False), (False, False), (False, True)
        ]
        assert all(type(v) is bool for p in products for v in (p.is_identity(), p.is_zero()))

    def test_python_int_held(self):
        wide = [IntMatrix.from_rows([[1, 2**64], [0, 1]]), IntMatrix.from_rows([[2**63, 0], [0, 1]]),
                IntMatrix.from_rows([[1, 0], [0, 1]]) @ IntMatrix.from_rows([[1, -(2**80)], [0, 1]])]
        assert all(m.a.dtype == object for m in wide)
        assert [(m.is_identity(), m.is_zero()) for m in wide] == [(False, False)] * 3
        assert all(type(v) is bool for m in wide for v in (m.is_identity(), m.is_zero()))
        back = wide[2] @ IntMatrix.from_rows([[1, 2**80], [0, 1]])
        assert back.a.dtype == np.int64 and back.is_identity() is True


class TestFromSparseColumns:
    @given(st.integers(0, 5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_against_from_columns(self, rows, data):
        entry = st.integers(-(2**70), 2**70)
        dense = data.draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), max_size=4))
        sparse = [{i: x for i, x in enumerate(col) if x} for col in dense]
        m = IntMatrix.from_sparse_columns(rows, sparse)
        assert m == IntMatrix.from_columns(dense, rows=rows)
        assert all(type(x) is int for x in entries(m))

    def test_zero_entries_and_integer_types(self):
        m = IntMatrix.from_sparse_columns(2, [{np.int64(1): True, 0: 0}, {}])
        assert m.to_lists() == [[0, 0], [1, 0]]
        assert all(type(x) is int for x in entries(m))

    @pytest.mark.parametrize("row", [-1, 3])
    def test_row_out_of_range(self, row):
        with pytest.raises(ValueError, match=f"row index {row} out of range"):
            IntMatrix.from_sparse_columns(3, [{0: 1}, {row: 1}])

    @pytest.mark.parametrize("col", [{0.0: 1}, {0: 1.0}])
    def test_floats_refused(self, col):
        with pytest.raises(TypeError):
            IntMatrix.from_sparse_columns(3, [col])


def lattice_index_oracle(basis: IntMatrix):
    """(rank, product of nonzero invariant factors) of the column span, via sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(basis.to_lists()), domain=sympy.ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(basis.shape)) if snf[i, i] != 0]
    return len(diag), math.prod(diag)


class TestSympyOracles:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_smith_diagonal(self, data):
        r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        a = IntMatrix.from_rows(
            data.draw(st.lists(st.lists(wide_entries, min_size=c, max_size=c), min_size=r, max_size=r))
        )
        diag = sympy_smith_diagonal(a)
        rank = sum(1 for d in diag if d)
        assert smith(a).diagonal() == diag == _smith_diagonal(a)
        assert cokernel_invariants(a) == ([d for d in diag if d > 1], r - rank)
        assert is_saturated_basis(a) == (rank == c and all(d == 1 for d in diag))

    @given(matrices(max_dim=5), st.lists(small_entries, min_size=5, max_size=5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_solver_membership(self, basis, x, in_span):
        """v lies in the span of B exactly when [B | v] has B's rank and index."""
        if in_span:
            v = mul_vector(basis, x[: basis.cols])
        else:
            v = [x[i % len(x)] for i in range(basis.rows)]
        coords = express_dense(BasisSolver(basis), v)
        expected = lattice_index_oracle(basis) == lattice_index_oracle(
            basis.hstack(IntMatrix.column(v))
        )
        assert (coords is not None) == expected
        if coords is not None:
            assert mul_vector(basis, coords) == v


def smith_kernel_basis(A: IntMatrix) -> IntMatrix:
    """Reference kernel from the full Smith form: the columns of V under
    the zero diagonal, in column Hermite form."""
    if A.cols == 0:
        return IntMatrix.zeros(0, 0)
    if A.rows == 0:
        return IntMatrix.identity(A.cols)
    dec = smith(A)
    diag = dec.diagonal()
    ker_cols = [j for j in range(A.cols) if j >= len(diag) or diag[j] == 0]
    return col_hermite(dec.V.take_columns(ker_cols))


def smith_solve_matrix(A: IntMatrix, B: IntMatrix):
    """Reference solve from the full Smith form: U A V = S, so A X = B has
    an integer solution iff S Y = U B does, and then X = V Y."""
    dec = smith(A)
    diag = dec.diagonal()
    C = dec.U @ B
    Y = [[0] * B.cols for _ in range(A.cols)]
    for k in range(B.cols):
        for i in range(A.rows):
            c = int(C[i, k])
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c != 0:
                    return None
            else:
                if c % d != 0:
                    return None
                Y[i][k] = c // d
    return dec.V @ IntMatrix.from_rows(Y, cols=B.cols)


@st.composite
def wide_matrices(draw, max_dim=4):
    """Small matrices, possibly with no rows or columns, whose entries may
    exceed 2**63."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    flat = draw(st.lists(wide_entries, min_size=r * c, max_size=r * c))
    return IntMatrix.from_rows([flat[i * c:(i + 1) * c] for i in range(r)], cols=c)


@st.composite
def dependent_matrices(draw):
    """A matrix with one extra column, an integer combination of the others."""
    a = draw(matrices(max_dim=4))
    coeffs = draw(st.lists(small_entries, min_size=a.cols, max_size=a.cols))
    return a.hstack(IntMatrix.column(mul_vector(a, coeffs)))


class TestNormalFormOracles:
    """The Hermite-based kernel and solve against the full Smith form."""

    @given(st.one_of(wide_matrices(), matrices()))
    @settings(max_examples=120, deadline=None)
    def test_kernel_equals_smith_kernel(self, a):
        assert kernel_basis(a) == smith_kernel_basis(a)

    @given(st.one_of(matrices(), dependent_matrices()), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solve_matrix_against_smith_solve(self, a, data):
        k = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):  # solvable by construction
            x = data.draw(st.lists(st.lists(small_entries, min_size=k, max_size=k),
                                   min_size=a.cols, max_size=a.cols))
            b = a @ IntMatrix.from_rows(x, cols=k)
        else:
            b = IntMatrix.from_rows(
                data.draw(st.lists(st.lists(small_entries, min_size=k, max_size=k),
                                   min_size=a.rows, max_size=a.rows)), cols=k)
        got, ref = solve_matrix(a, b), smith_solve_matrix(a, b)
        assert (got is None) == (ref is None)
        if got is not None:
            assert a @ got == b

    def test_saturation_edge_shapes(self):
        assert is_saturated_basis(IntMatrix.zeros(3, 0))
        assert not is_saturated_basis(IntMatrix.zeros(0, 2))
        assert not is_saturated_basis(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
        assert cokernel_invariants(IntMatrix.zeros(0, 3)) == ([], 0)
        assert cokernel_invariants(IntMatrix.zeros(2, 0)) == ([], 2)


class TestFromColumns:
    def test_zero_length_columns_keep_their_count(self):
        m = IntMatrix.from_columns([[], []], rows=0)
        assert m.shape == (0, 2)
        # two vectors of Z^0 are dependent
        assert not is_saturated_basis(m)
        assert IntMatrix.from_columns([], rows=3).shape == (3, 0)

    def test_rows_disagreeing_with_the_columns(self):
        with pytest.raises(ValueError, match="ragged columns"):
            IntMatrix.from_columns([[1, 2]], rows=5)
        with pytest.raises(ValueError, match="ragged columns"):
            IntMatrix.from_columns([[1, 2], [3]])
        assert IntMatrix.from_columns([[1, 2], [3, 4]], rows=2).to_lists() == [[1, 3], [2, 4]]


class TestCallerNumbers:
    """Numbers enter as integers or not at all: a float or a string is
    refused, never truncated into a lattice vector."""

    NOT_INTEGERS = [2.5, 2.0, np.float64(3.0), "3"]

    @pytest.mark.parametrize("x", NOT_INTEGERS, ids=repr)
    def test_refused_everywhere_they_enter(self, x):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[x]])
        with pytest.raises(TypeError):
            IntMatrix.from_columns([[1, x]])
        with pytest.raises(TypeError):
            IntMatrix.column([x])
        with pytest.raises(TypeError):
            BasisSolver(IntMatrix.identity(1)).express_columns([{0: x}])
        with pytest.raises(TypeError):
            BasisSolver(IntMatrix.identity(1)).express_columns([{x: 1}])

    @pytest.mark.parametrize("x", [3, np.int64(3), np.int8(3), True], ids=repr)
    def test_integers_enter_as_python_ints(self, x):
        n = int(x)
        for m in (IntMatrix.from_rows([[x]]), IntMatrix.from_columns([[x]]), IntMatrix.column([x])):
            assert m.to_lists() == [[n]] and type(m[0, 0]) is int
        y = BasisSolver(IntMatrix.identity(1)).express_columns([{x - x: x}])
        assert y.to_lists() == [[n]] and type(y[0, 0]) is int
        assert str(IntMatrix.from_rows([[x]])) == f"[{n}]"


def test_module_doctests():
    import doctest
    import reference
    from glattice import checks, cohom, gflows, gmod, groups, intlinalg

    for module in (checks, cohom, gflows, gmod, groups, intlinalg, reference):
        result = doctest.testmod(module)
        assert result.failed == 0 and result.attempted > 0


class TestGcdHelpers:
    def test_xgcd_pinned(self):
        assert xgcd(2, 3) == (1, -1, 1)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_xgcd(self, a, b):
        g, x, y = xgcd(a, b)
        from math import gcd
        assert g == gcd(a, b)
        assert a * x + b * y == g

    def test_bezout_pinned(self):
        assert bezout_coefficients([2, 3]) == [-1, 1]
        assert bezout_coefficients([4, 9]) == [-2, 1]

    def test_bezout_sum(self):
        vals = [6, 10, 15]
        coeffs = bezout_coefficients(vals)
        assert sum(c * v for c, v in zip(coeffs, vals)) == 1
