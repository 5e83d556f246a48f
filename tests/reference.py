"""Reference implementations the tests compare the library against.

Each is independent of the code path it checks, and none is used by the
library itself: the determinant, the Smith form with both transforms,
the cyclic formula for degree 1 Tate cohomology, the identity map, and
the Shapiro construction of equivariant maps out of a permutation
lattice.
"""

from dataclasses import dataclass
from typing import List

from glattice.cohom import TateGroup, _quotient_in_lattice
from glattice.errors import InvalidParameterError
from glattice.gmod import EquivariantMap, GLattice, fixed_sublattice, norm_matrix
from glattice.groups import Subgroup
from glattice.intlinalg import IntMatrix, _find_pivot, kernel_basis


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pk * a[i][j] - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Invertible U, V and diagonal S with U @ A @ V == S.

    Diagonal entries are nonnegative and divisibility-chained
    (d_i | d_{i+1}); U and V have determinant +-1.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list:
        n = min(self.S.rows, self.S.cols)
        return [int(self.S[i, i]) for i in range(n)]


def smith(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, by the library's pivot rule
    (smallest nonzero absolute value, ties row-major).

    >>> d = smith(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> d.diagonal()
    [2, 4]
    >>> d.U @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ d.V == d.S
    True
    """
    rows, cols = A.rows, A.cols
    s = A.to_lists()
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # row_i -= q * row_k, in S and U
        for m, n in ((s, cols), (u, rows)):
            for j in range(n):
                m[i][j] -= q * m[k][j]

    def col_op(j, k, q):  # col_j -= q * col_k, in S and V
        for m, n in ((s, rows), (v, cols)):
            for i in range(n):
                m[i][j] -= q * m[i][k]

    def swap_rows(i, k):
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for m in (s, v):
            for row in m:
                row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(rows, cols):
        piv = _find_pivot(s, t, rows, cols)
        if piv is None:
            break
        _, pi, pj = piv
        swap_rows(t, pi)
        swap_cols(t, pj)
        restart = True
        while restart:
            restart = False
            for i in range(rows):  # clear column t
                if i != t and s[i][t] != 0:
                    row_op(i, t, s[i][t] // s[t][t])
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(cols):  # clear row t
                if j != t and s[t][j] != 0:
                    col_op(j, t, s[t][j] // s[t][t])
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
        # the pivot must divide every remaining entry; if not, add the
        # offending row to row t and reduce again
        bad = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if s[i][j] % s[t][t]),
            None,
        )
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SmithDecomposition(
        U=IntMatrix.from_rows(u, cols=rows),
        S=IntMatrix.from_rows(s, cols=cols),
        V=IntMatrix.from_rows(v, cols=cols),
    )


def tate1_cyclic_direct(M: GLattice, H: Subgroup) -> TateGroup:
    """Degree 1 over a cyclic subgroup, from the periodicity of cyclic
    cohomology: ker(norm) / image(h - 1) for a generator h."""
    if H.parent is not M.group:
        raise InvalidParameterError("subgroup belongs to a different group")
    gen = H.cyclic_generator()
    if gen is None:
        raise InvalidParameterError("subgroup is not cyclic")
    norm_ker = kernel_basis(norm_matrix(M, H))
    image = M.action[gen] - IntMatrix.identity(M.rank)
    return _quotient_in_lattice(norm_ker, image)


def identity_map(M: GLattice) -> EquivariantMap:
    return EquivariantMap(M, M, IntMatrix.identity(M.rank))


def shapiro_hom_basis(C: GLattice, A: GLattice) -> List[IntMatrix]:
    """Z-basis of Hom_G(C, A) for a permutation lattice C with its G-set.

    Hom_G(Z[G/H], A) = A^H (Shapiro): per orbit, send the basepoint to a
    vector fixed by its stabilizer, and the point g(basepoint) to g of it.
    """
    points = C.gset
    out = []
    for orbit in points.orbits():
        base = orbit[0]
        reach = {}
        for g in range(points.group.order):
            reach.setdefault(points.apply(g, base), g)
        fixed = fixed_sublattice(A, points.stabilizer(base))
        for j in range(fixed.cols):
            v = fixed.col_list(j)
            m = IntMatrix.zeros(A.rank, C.rank)
            for p in orbit:
                col = A.action[reach[p]].mul_vector(v)
                for i in range(A.rank):
                    m.a[i, p] = col[i]
            out.append(m)
    return out
