"""Exact integer matrix algebra: normal forms, kernels, solving, quotients.

How an ``IntMatrix`` is stored is private to this module: every other
module builds and reads matrices through its API.  A matrix holds one
array, ``a``: int64 exactly when every entry fits, else an object array
of Python integers.  Caller numbers enter through ``operator.index``, so
a float or a string is refused rather than truncated.  Every operation
checks a bound on its results before it runs on machine words, so
nothing silently overflows: a product with shared dimension k runs in
float64 (BLAS) when k * max|A| * max|B| < 2**53, where every partial sum
is an exact integer in any order, and it is large enough to repay
converting; in int64 below 2**62; on Python integers beyond that, as do
a sum, negation or Kronecker product that may leave int64.  Every read
hands out Python ints: a numpy scalar would wrap silently.  A vector is
a sparse map, ``{row: entry}``: a matrix may be given by its columns as
such maps and read as them (``column_nonzeros``), and
``BasisSolver.express_columns`` takes its columns so; the matrices
themselves are stored densely all the same.  The Hermite forms eliminate
on rows of Python integers.  Every routine is a pure function of its
inputs and deterministic.

One integer elimination routine serves every question: the row Hermite
form, on rows kept as lists of integers, with a fixed pivot rule
(smallest nonzero absolute value in the column, ties to the first row)
and sparse row operations.  Invariant factors (``cokernel_invariants``,
``is_saturated_basis``) read the Smith diagonal, computed without
transforms by alternating the row Hermite forms of a matrix and of its
transpose until it is diagonal, starting from the column Hermite form;
it is skipped when every pivot of that form is 1.  Kernels and solves
(``kernel_basis``, ``solve_matrix``, ``BasisSolver``) use the column
Hermite form and its transform, skipped for a matrix already in that
form; a certified triangular basis, such as a spanning-tree flow basis,
is its own solver too, given by its sparse columns: no identity transform
is multiplied, and its dense matrix is made when first read.  Each
echelon column is 0 in the pivot rows of the columns before it (a Hermite
form is, and a caller of ``BasisSolver._of_triangular`` must certify
it), so the pivot rows hold a triangular minor, and the coordinates are
read off them: as they are when that minor is the identity, else by one
forward substitution over it.  One exact product on the other rows then
decides membership of a whole batch.  No routine builds the Smith
transforms.  Independence over Q is read off the pivot columns of
the row Hermite form (``pivot_columns``).
"""

from __future__ import annotations

import operator
from functools import cached_property
from heapq import heappop, heappush
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

# Bounds on k * max|A| * max|B| below which a product runs in float64, int64.
_FLOAT64_PRODUCT_BOUND = 1 << 53
_INT64_PRODUCT_BOUND = 1 << 62
# Below this many multiply-adds an int64 product beats converting to float64.
_BLAS_PRODUCT = 4096
# A sum, negation or Kronecker product runs in int64 when its results are below this.
_INT64_BOUND = 1 << 63


class IntMatrix:
    """An integer matrix, never changed once made (nothing writes through
    ``.a``), held as int64 exactly when every entry fits.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.rows, m.cols
    (2, 2)
    >>> print(m @ IntMatrix.identity(2))
    [1 2]
    [3 4]
    """

    __slots__ = ("a", "_bound")

    def __init__(self, a: np.ndarray, bound: Optional[int] = None):
        # a 2-d int64 array, or an object array of Python ints with an entry
        # outside int64, built in this module only; a bound on |entry| if known
        self.a, self._bound = a, bound

    @classmethod
    def _held(cls, a: np.ndarray, bound: Optional[int] = None) -> "IntMatrix":
        """Wrap an int64 array, or Python ints: held as int64 if every entry fits."""
        if a.dtype == object:
            try:
                a = a.astype(np.int64)
            except OverflowError:
                pass
        return cls(a, bound)

    def _max_abs(self, kept: bool = True) -> int:
        """A bound on |entry|: the one kept, else (or unless ``kept``) the
        largest absolute entry, 0 for none, which is then kept.  A guard that
        fails on kept bounds is checked again on the largest entries."""
        if self._bound is None or not kept:
            a = np.abs(self.a)  # |-2**63| wraps to -2**63, whose uint64 view is 2**63
            self._bound = int((a.view(np.uint64) if a.dtype == np.int64 else a).max()) if a.size else 0
        return self._bound

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        ncols = (len(rows[0]) if rows else 0) if cols is None else cols
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls._of_int_rows([list(map(operator.index, row)) for row in rows], ncols)  # caller numbers enter here

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        if len(columns) == 0:
            return cls.zeros(rows or 0, 0)
        nrows = len(columns[0]) if rows is None else rows
        if any(len(c) != nrows for c in columns):
            raise ValueError("ragged columns")
        return cls.from_rows(list(map(list, zip(*columns))), cols=len(columns))

    @classmethod
    def from_sparse_columns(cls, rows: int, columns: Sequence[Mapping[int, int]]) -> "IntMatrix":
        """The rows x len(columns) matrix whose column j holds the entries of
        the map columns[j], {row: entry}; the rows it omits are 0.  Only the
        input is sparse: the matrix is stored densely like any other.

        >>> print(IntMatrix.from_sparse_columns(3, [{0: 1, 2: -1}, {}]))
        [1 0]
        [0 0]
        [-1 0]
        """
        a = np.zeros((rows, len(columns)), dtype=np.int64)
        for j, col in enumerate(columns):
            for i, x in col.items():
                i = operator.index(i)
                if not 0 <= i < rows:
                    raise ValueError(f"row index {i} out of range for {rows} rows")
                x = operator.index(x)  # caller numbers enter here
                try:
                    a[i, j] = x
                except OverflowError:  # x leaves int64: hold Python ints
                    a = a.astype(object)
                    a[i, j] = x
        return cls(a)

    @classmethod
    def _of_int_rows(cls, rows: list, cols: int) -> "IntMatrix":
        """Wrap rows that are already lists of ``cols`` Python ints."""
        try:
            a = np.array(rows, dtype=np.int64)
        except OverflowError:
            a = np.array(rows, dtype=object)
        return cls(a.reshape(len(rows), cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.unit_columns(n, range(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), 0)

    @classmethod
    def unit_columns(cls, rows: int, images: Sequence[int]) -> "IntMatrix":
        """The rows x len(images) matrix whose column j is the unit vector
        of row images[j]: the matrix of the basis map j -> images[j]."""
        a = np.zeros((rows, len(images)), dtype=np.int64)
        a[list(images), range(len(images))] = 1
        return cls(a, int(len(images) > 0))

    @classmethod
    def block_diagonal(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        dtype = np.result_type(np.int64, *(b.a for b in blocks))  # object if a block is
        a = np.zeros((sum(b.rows for b in blocks), sum(b.cols for b in blocks)), dtype=dtype)
        i = j = 0
        for b in blocks:
            a[i : i + b.rows, j : j + b.cols] = b.a
            i, j = i + b.rows, j + b.cols
        return cls(a)

    @classmethod
    def column(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls.from_rows([[x] for x in entries], cols=1)

    # -- shape & access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __getitem__(self, ij):
        """An entry as an int, or the entries of a slice as lists of ints."""
        x = self.a[ij]
        return x.tolist() if isinstance(x, (np.ndarray, np.integer)) else x

    def col_list(self, j: int) -> list:
        return self.a[:, j].tolist()

    def to_lists(self) -> list:
        return self.a.tolist()

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        # numpy's product refuses a shape mismatch with ValueError on every route
        (m, k), n = self.shape, other.cols
        a, b = self.a, other.a
        bound = k * self._max_abs() * other._max_abs()
        if bound >= _FLOAT64_PRODUCT_BOUND:
            bound = k * self._max_abs(kept=False) * other._max_abs(kept=False)
        if bound < _INT64_PRODUCT_BOUND and a.dtype == b.dtype == np.int64:
            if bound < _FLOAT64_PRODUCT_BOUND and m * k * n >= _BLAS_PRODUCT:
                return IntMatrix((a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64), bound)
            return IntMatrix(a @ b, bound)
        return IntMatrix._held(np.dot(a.astype(object), b.astype(object)), bound)

    def _elementwise(self, op, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:  # numpy would broadcast a row or a column
            raise ValueError(f"shape mismatch: {self.shape} and {other.shape}")
        bound = self._max_abs() + other._max_abs()
        if bound >= _INT64_BOUND:
            bound = self._max_abs(kept=False) + other._max_abs(kept=False)
        a, b = (self.a, other.a) if bound < _INT64_BOUND else (self.a.astype(object), other.a.astype(object))
        return IntMatrix._held(op(a, b), bound)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._elementwise(np.add, other)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._elementwise(np.subtract, other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix.zeros(*self.shape) - self  # -(-2**63) leaves int64, as the guard knows

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.a.T.copy(), self._bound)

    @property
    def T(self) -> "IntMatrix":
        return self.transpose()

    @property
    def shape(self):
        return self.a.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.a, other.a))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.a)

    def is_identity(self) -> bool:
        n, a = self.rows, self.a
        return bool(n == self.cols and np.count_nonzero(a) == n and (a.diagonal() == 1).all())

    def hstack(self, *others: "IntMatrix") -> "IntMatrix":  # numpy refuses a row mismatch
        return IntMatrix(np.hstack([self.a] + [o.a for o in others]))

    def vstack(self, *others: "IntMatrix") -> "IntMatrix":  # numpy refuses a column mismatch
        return IntMatrix(np.vstack([self.a] + [o.a for o in others]))

    def take_columns(self, js: Iterable[int]) -> "IntMatrix":
        return IntMatrix._held(self.a[:, list(js)], self._bound)  # a copy, as every index array makes

    def take_rows(self, idx: Iterable[int]) -> "IntMatrix":
        return IntMatrix._held(self.a[list(idx), :], self._bound)

    def column_nonzeros(self) -> list:
        """Each column as a dict of its nonzero entries by row, rows ascending."""
        js, rows = np.nonzero((self.a != 0).T)
        columns = [{} for _ in range(self.cols)]
        for j, i, x in zip(js.tolist(), rows.tolist(), self.a[rows, js].tolist()):
            columns[j][i] = x
        return columns

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product, row-major block convention: entry
        (i * other.rows + k, j * other.cols + l) is self[i, j] * other[k, l]."""
        a, b = self.a, other.a
        bound = self._max_abs() * other._max_abs()
        if bound >= _INT64_BOUND:
            bound = self._max_abs(kept=False) * other._max_abs(kept=False)
        if bound >= _INT64_BOUND or a.dtype != b.dtype:  # an object array has an entry past int64
            a, b = a.astype(object), b.astype(object)
        c = (a[:, None, :, None] * b[None, :, None, :]).reshape(self.rows * other.rows, self.cols * other.cols)
        return IntMatrix._held(c, bound)

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(map(str, row)) + "]" for row in self.to_lists()) or "[]"

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"


def _smith_diagonal(A: IntMatrix) -> list:
    """The Smith diagonal (min(rows, cols) entries), without transforms, taken
    from the nonzero columns of the column Hermite form of A (same diagonal)."""
    B = column_span_canonical(A)
    return _hermite_smith_diagonal(B) + [0] * (min(A.shape) - B.cols)


def _hermite_smith_diagonal(H: IntMatrix) -> list:
    """The Smith diagonal of a column Hermite form without zero columns.

    When every pivot (the first nonzero entry of a column) is 1, the pivot
    rows form a unit lower-triangular minor, so the diagonal is all 1.
    Otherwise the k = H.cols nonzero rows of the row Hermite form of H are
    a square upper-triangular matrix with the same Smith form, and a
    diagonal of 1s there means determinant +-1.  Else the row Hermite forms
    of the transpose and of the matrix alternate until it is diagonal
    (Kannan and Bachem, 1979): each round makes the first pivot the gcd of
    the row before, so it falls until it divides that row, which the next
    round clears, and so on down the diagonal.  Pairwise gcd and lcm then
    turn the diagonal into a divisibility chain.
    """
    k = H.cols
    if k == 0 or all(H.a[(H.a != 0).argmax(axis=0), np.arange(k)] == 1):
        return [1] * k
    t = H.to_lists()
    _row_hermite_rows(t, k)
    del t[k:]
    if all(t[i][i] == 1 for i in range(k)):
        return [1] * k
    while any(any(row[i + 1 :]) for i, row in enumerate(t)):
        t = [list(col) for col in zip(*t)]
        _row_hermite_rows(t, k)
    d = [t[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def _row_hermite_rows(h: list, cols: int, u: Optional[list] = None) -> None:
    """Bring the rows h (lists of ``cols`` integers) to the canonical row
    Hermite form in place, nonzero rows first, doing the same row operations
    on the rows u when given.

    The pivot of each column is its entry of smallest absolute value among
    the rows not yet used, ties to the first such row.
    """
    rows = len(h)
    mats = (h,) if u is None else (h, u)

    def pivot_support(k):  # nonzero (index, entry) pairs of row k of each matrix
        return [[(j, x) for j, x in enumerate(m[k]) if x] for m in mats]

    def row_sub(i, support, q):  # row_i -= q * the row whose support is given
        for m, pairs in zip(mats, support):
            mi = m[i]
            for j, x in pairs:
                mi[j] -= q * x

    def negate(i):
        for m in mats:
            m[i] = [-x for x in m[i]]

    p = 0
    for col in range(cols):
        if p == rows:
            break
        nz = [i for i in range(p, rows) if h[i][col] != 0]  # ascending
        while nz:
            i0 = min(nz, key=lambda i: abs(h[i][col]))  # ties: the first
            if i0 != p:
                for m in mats:
                    m[p], m[i0] = m[i0], m[p]
            support = pivot_support(p)
            d = h[p][col]
            left = []  # rows still nonzero in col; each step reads only row p
            for i in nz:
                if i != i0:
                    i = i0 if i == p else i  # the old row p now sits at i0
                    row_sub(i, support, h[i][col] // d)
                    if h[i][col] != 0:
                        left.append(i)
            nz = [p] + sorted(left) if left else []
        if h[p][col] != 0:  # the last round left row p and its support as they are
            if h[p][col] < 0:
                negate(p)
                support = pivot_support(p)
            for i in range(p):
                q = h[i][col] // h[p][col]
                if q != 0:
                    row_sub(i, support, q)
            p += 1


def row_hermite(A: IntMatrix, transform: bool = False):
    """Canonical row Hermite form (pivots positive, entries above reduced).

    With ``transform=True`` also returns unimodular U with U @ A == H.
    """
    h = A.to_lists()
    u = [[1 if i == j else 0 for j in range(A.rows)] for i in range(A.rows)] if transform else None
    _row_hermite_rows(h, A.cols, u)
    H = IntMatrix._of_int_rows(h, A.cols)
    if transform:
        return H, IntMatrix._of_int_rows(u, A.rows)
    return H


def col_hermite(A: IntMatrix, transform: bool = False):
    """Canonical column Hermite form; with transform, A @ V == H."""
    if transform:
        H, U = row_hermite(A.T, transform=True)
        return H.T, U.T
    return row_hermite(A.T).T


def _is_column_hermite(A: IntMatrix) -> bool:
    """Whether ``col_hermite`` returns A with the identity transform: nonzero
    columns first, their pivots (first nonzero entries) positive in
    increasing rows, and every entry left of a pivot in [0, pivot)."""
    a = A.a
    if A.rows and A.cols > 1 and a[0, 1] != 0:  # row 0 is zero past column 0
        return False
    nonzero = a != 0
    k = int(np.count_nonzero(nonzero.any(axis=0)))  # the nonzero columns, which must come first
    if not k:
        return True
    piv = nonzero[:, :k].argmax(axis=0)  # their first nonzero rows, row 0 for a zero column
    rows = a[:, :k].take(piv, axis=0)  # row j: the pivot row of column j, on the first k columns
    pivots = rows.diagonal()
    # positive pivots in increasing rows leave rows lower triangular; then
    # only the pivots are below 0 or reach the pivot of their row
    return bool(np.count_nonzero(pivots > 0) == k and not np.count_nonzero(piv[1:] <= piv[:-1])
                and np.count_nonzero((rows < 0) | (rows >= pivots[:, None])) == k)


def drop_zero_columns(A: IntMatrix) -> IntMatrix:
    return A.take_columns(np.flatnonzero((A.a != 0).any(axis=0)))


def column_span_canonical(A: IntMatrix) -> IntMatrix:
    """Canonical basis matrix of the column span (zero columns dropped)."""
    return drop_zero_columns(A if _is_column_hermite(A) else col_hermite(A))


def same_column_span(A: IntMatrix, B: IntMatrix) -> bool:
    """Exact equality of integer column spans via canonical forms."""
    if A.rows != B.rows:
        return False
    return column_span_canonical(A) == column_span_canonical(B)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Saturated basis of {x : A @ x == 0}, in column Hermite form.

    For a wide A (4 * rows <= cols), J its pivot columns read from the
    right: when each other column i has integer coordinates Y_i in A_J,
    the e_i - Y_i (Y_i on the rows J) are that form.  Otherwise the form of
    the columns of V under the zero columns of H, A @ V == H in column
    Hermite form (a transform as wide as A; J needs one as tall).  On the
    benchmark's kernels the first route wins on every one from 3 * rows <=
    cols up, and loses below 2 * rows, where some have no integer Y.

    >>> kernel_basis(IntMatrix.from_rows([[1, 1, 1]])).cols
    2
    """
    n = A.cols
    if 4 * A.rows <= n:
        J = sorted(n - 1 - j for j in pivot_columns(A.take_columns(range(n - 1, -1, -1))))
        free = sorted(set(range(n)).difference(J))
        Y = BasisSolver(A.take_columns(J)).express_matrix(A.take_columns(free))
        if Y is not None:
            minus_y = (-Y).a
            k = np.zeros((n, len(free)), dtype=minus_y.dtype)
            k[free, range(len(free))] = 1
            k[J, :] = minus_y
            return IntMatrix(k)
    H, V = col_hermite(A, transform=True)
    rank = sum(1 for col in H.a.T.tolist() if any(col))
    return column_span_canonical(V.take_columns(range(rank, A.cols)))


def cokernel_invariants(A: IntMatrix):
    """Invariant factors (> 1) and free rank of Z^rows / colspan(A).

    Reads the Smith diagonal, computed without transforms.

    >>> cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3]]))
    ([6], 0)
    """
    diag = _smith_diagonal(A)
    return [d for d in diag if d > 1], A.rows - sum(1 for d in diag if d)


def solve_matrix(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with A @ X == B (columnwise solve), or None.

    Reads each column of B off the pivot rows of the column Hermite form
    of A (see ``BasisSolver``); A may have dependent columns.
    """
    return BasisSolver(A).express_matrix(B)


class BasisSolver:
    """Repeated coordinate extraction against a fixed column basis.

    Keeps an echelon form H: the column Hermite form, basis @ V == H, or the
    basis itself (V None).  Its rank nonzero columns come first, each 0 in
    the pivot rows P of the columns before it, so H[P] is a lower-triangular
    minor T; N are the other rows.  H @ Y == B is read off B[P]: Y = B[P]
    when T is the identity, else by one forward substitution over T, None
    at a pivot that does not divide (the rational solution is unique).  One
    exact product, H[N] @ Y == B[N], then decides membership of the batch.
    P and N are made on the first solve.  An entry above a pivot, which a
    caller of ``_of_triangular`` must certify away, refuses the batch.
    """

    def __init__(self, basis: IntMatrix):
        H, V = (basis, None) if _is_column_hermite(basis) else col_hermite(basis, transform=True)
        self.basis = basis
        nonzero = H.a != 0  # a Hermite form's nonzero columns come first
        pivots = nonzero.argmax(axis=0)[nonzero.any(axis=0)].tolist() if H.rows else []
        self._setup(basis.rows, basis.cols, V, H, pivots)

    @classmethod
    def _of_triangular(cls, rows: int, pivots: Sequence[int],
                       columns: Sequence[Mapping[int, int]]) -> "BasisSolver":
        """The solver of the rows x len(columns) basis, made when first read,
        that is its own echelon form: column j, the {row: entry} map columns[j],
        is nonzero in row pivots[j] and 0 in the pivot rows of the columns before it."""
        solver = cls.__new__(cls)
        solver._basis_columns = columns
        solver._setup(rows, len(columns), None, None, list(pivots))
        return solver

    @cached_property
    def basis(self) -> IntMatrix:  # set by __init__; made here for a triangular solver
        return IntMatrix.from_sparse_columns(self.rows, self._basis_columns)

    def _setup(self, rows: int, cols: int, V, H, pivots: list) -> None:
        # V None: the basis is its own echelon form H (None: the basis, when first read)
        self.rows, self.cols, self.V, self._H, self._pivots = rows, cols, V, H, pivots
        self.rank = len(pivots)

    @cached_property
    def _pivot_rows(self):
        """(P, N, H[N] on the nonzero columns, and the minor T: None when it
        is the identity, else each column k as (T[k, k], its other nonzero
        (row, entry) pairs), rows numbered by position in P)."""
        H = (self.basis if self._H is None else self._H).take_columns(range(self.rank))
        P, T, minor = self._pivots, H.take_rows(self._pivots), None
        if not T.is_identity():
            minor = [(col[k], [(i, h) for i, h in enumerate(col) if h and i != k])
                     for k, col in enumerate(T.a.T.tolist())]
        N = sorted(set(range(self.rows)).difference(P))
        return P, N, H.take_rows(N), minor

    def _solve(self, B: IntMatrix) -> Optional[IntMatrix]:
        """The coordinate matrix of the columns of B, B.rows == self.rows, or
        None when one lies outside the span: every solve enters here."""
        P, N, H_N, minor = self._pivot_rows
        if minor is None:
            Y = B.take_rows(P)
        else:
            ys = _forward_substitution(minor, B.a[P].T.tolist())
            if ys is None:
                return None
            Y = IntMatrix._of_int_rows(ys, self.rank).T
        if H_N @ Y != B.take_rows(N):
            return None
        if self.rank < self.cols:  # the zero columns of H take coordinate 0
            Y = Y.vstack(IntMatrix.zeros(self.cols - self.rank, B.cols))
        return Y if self.V is None else self.V @ Y

    def express_matrix(self, M: IntMatrix) -> Optional[IntMatrix]:
        if M.rows != self.rows:
            raise ValueError("matrix row mismatch")
        return self._solve(M)

    def express_columns(self, columns: Sequence[Mapping[int, int]]) -> Optional[IntMatrix]:
        """The coordinate matrix of the columns given as {row: entry} maps
        (a missing row or an entry 0 means 0); None when one lies outside
        the span.  Rows and entries enter through ``operator.index``, and a
        row out of range raises ValueError (``IntMatrix.from_sparse_columns``).

        >>> print(BasisSolver(IntMatrix.from_rows([[2, 0], [1, 1]])).express_columns([{0: 2, 1: 3}]))
        [1]
        [2]
        """
        return self._solve(IntMatrix.from_sparse_columns(self.rows, columns))


def _forward_substitution(minor: list, columns: list) -> Optional[list]:
    """y with T y == x for each list x of Python ints (consumed), T the minor
    of ``BasisSolver._pivot_rows``, or None when one has none: the pivots
    are visited in order, only those a nonzero entry reaches."""
    ys = []
    for x in columns:
        y = [0] * len(x)
        heap = [k for k, v in enumerate(x) if v]  # ascending, so a heap
        while heap:
            k = heappop(heap)
            if not x[k]:  # pushed twice, or cancelled since
                continue
            d, pairs = minor[k]
            y[k], rem = divmod(x[k], d)
            if rem:
                return None
            x[k] = 0
            for i, h in pairs:
                if i > k and not x[i]:
                    heappush(heap, i)
                x[i] -= y[k] * h
        if any(x):  # an entry above a pivot: T is not triangular
            return None
        ys.append(y)
    return ys


def is_saturated_basis(A: IntMatrix) -> bool:
    """True when the columns are independent and span a saturated sublattice."""
    H = column_span_canonical(A)
    return H.cols == A.cols and is_saturated_hermite(H)


def is_saturated_hermite(H: IntMatrix) -> bool:
    """Whether a column Hermite form without zero columns spans a saturated
    sublattice: its Smith diagonal is all 1."""
    return all(d == 1 for d in _hermite_smith_diagonal(H))


def pivot_columns(A: IntMatrix) -> list:
    """The pivot columns of the row Hermite form of A, in order: the leftmost
    columns independent over Q.  When there are A.rows of them they span
    Q^rows.

    >>> pivot_columns(IntMatrix.from_rows([[2, 4, 1], [1, 2, 0]]))
    [0, 2]
    """
    h = A.to_lists()
    _row_hermite_rows(h, A.cols)
    return [next(j for j, x in enumerate(row) if x) for row in h if any(row)]


def xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g.

    >>> xgcd(2, 3)
    (1, -1, 1)
    """
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def bezout_coefficients(values: Sequence[int]) -> list:
    """Deterministic a_i with sum(a_i * values_i) == gcd(values)."""
    if not values:
        raise ValueError("no values")
    coeffs = [1]
    g = int(values[0])
    for v in values[1:]:
        g2, x, y = xgcd(g, int(v))
        coeffs = [c * x for c in coeffs] + [y]
        g = g2
    if g < 0:
        coeffs = [-c for c in coeffs]
    return coeffs
