"""Reference implementations the tests compare the library against.

Each is independent of the code path it checks, and none is used by the
library itself: subgroups closed from the identity (the whole subgroup
lattice by closing every found subgroup's element set again, greedy
generators re-closed from scratch, and the center and abelian test over
all pairs), the determinant, unimodularity as a Hermite form equal to
I (a test ``EquivariantMap`` once carried beside its certified inverse),
the Smith form with both transforms,
Tate groups from coordinates in the saturated fixed or norm-kernel
lattice, the cyclic formula for degree 1 Tate cohomology, sections by
group averaging with a congruence solve modulo |G|, the identity map,
the Shapiro construction of equivariant maps out of a permutation
lattice, the Hom bases and the one-solve section that ``find_section``
once took (H-fixed functionals into a permutation lattice, else the
Kronecker kernel), the symmetric group's table composed as tuples, and
the tables of the cyclic, semidirect and direct product groups and of
a subgroup as a group, built entry by entry in lists as the constructors
once built them, and the G-set operations as they were once written out where
they were used: the edge action of a graph read off its vertex action
pair by pair, edge orbits by scanning every element, cosets by their
own enumeration, a vector moved by a loop, the action on a stable edge
subset, the two breadth-first searches of spanning trees and path
flows, orbit counts point by point, the per-class orbit-count system
solved over the rationals, and the coinvariant projection as a left
kernel.  The routes that solving on generators replaced: a
sublattice's action solved element by element, exactness decided by
comparing the image with ``kernel_basis`` of the right map, the flow
basis as ``kernel_basis`` of the boundary, and the bar-cocycle loops
over dense edge vectors.  The saturation of a span as a double kernel,
which the closed-walk check once compared with the flow basis.  A flow
lattice is validated from scratch against the boundary map and the edge
action.  The back-substitution of ``BasisSolver`` as a dense sweep
that divides at every column, and the fundamental cycles of a spanning
tree as candidates for ``spanning_tree_basis``, and that function as it
was when every candidate was a dense edge vector; the cocycle check as
it was before it sorted index arrays, one merge of flow dicts per
triple.  The bounded stable-basis
search as it was before it numbered the box vectors: orbits found vector
by vector, one backtracker per kind of search, and subgroup classes from
conjugating by every element.  Lattice equality read on every element,
the kernel basis through the full Hermite transform, fixed points as the
kernel of the stacked h - 1, direct sums folded two at a time, the
section of a permutation quotient found orbit by orbit against those
fixed points and moved point by point, and the flasque scan over every
subgroup class in order.  Dense vectors, which the library no longer
takes, are multiplied, solved for and flattened here, and flows given
as dicts are laid out as the padded arrays the bar-cocycle checks read.
Products and Kronecker products of matrices given as lists of rows, on
Python ints, check every operation across the int64 boundary.  The rank-formula
graphs built by the group and G-set constructors, as they were before
the command line read them from graph specs.  The tensor lattice, and
the dense Bezout embedding and retraction through tensors with coset
lattices that an invertibility certificate once built and validated.
The split as two routines: ``find_section``, which validated the section
on its own, and the ``split_iso`` built on it, which solved again for
the retraction that the section's route had built.  The edge-removal
isomorphism onto Fl(V, E') + ZG^m, one regular summand per removed
orbit, certified beside the split: by its own validation, a Hermite-form
unimodularity test and a check of the embedded subgraph flows.
"""

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from glattice.cohom import (
    ENUMERATION_CAP,
    PermutationSearchOutcome,
    TateGroup,
    _left_inverse,
    lift,
    tate,
)
from glattice.errors import InvalidParameterError, certify
from glattice.gmod import (
    EquivariantMap,
    ExactnessReport,
    GLattice,
    ShortExactSequence,
    _Action,
    check_exact,
    coset_lattice,
    direct_sum,
    direct_sum_many,
    dual,
    fixed_sublattice,
    norm_matrix,
    regular,
)
from glattice.groups import (
    FiniteGroup,
    GSet,
    Subgroup,
    all_subgroups,
    coset_gset,
    prime_factorization,
    subgroup_conjugacy_reps,
)
from glattice.intlinalg import (
    BasisSolver,
    IntMatrix,
    bezout_coefficients,
    cokernel_invariants,
    col_hermite,
    column_span_canonical,
    is_saturated_basis,
    kernel_basis,
    solve_matrix,
    xgcd,
)


def mul_vector(M: IntMatrix, v: Sequence[int]) -> List[int]:
    """M v for a dense vector v (a list), one dot product per row."""
    if len(v) != M.cols:
        raise ValueError("vector length mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in M.to_lists()]


def express_dense(solver: BasisSolver, vec: Sequence[int]) -> Optional[List[int]]:
    """The coordinates of a dense vector, as a list, or None when it lies
    outside the span: ``express_columns`` on its entries by row."""
    if len(vec) != solver.rows:
        raise ValueError("vector length mismatch")
    Y = solver.express_columns([dict(enumerate(vec))])
    return None if Y is None else Y.col_list(0)


def product_by_python_ints(A: List[List[int]], B: List[List[int]], n: Optional[int] = None) -> List[List[int]]:
    """The product of two matrices given as lists of rows (B with n columns),
    one Python-int dot product per entry."""
    n = len(B[0]) if n is None else n
    return [[sum(row[t] * B[t][j] for t in range(len(row))) for j in range(n)] for row in A]


def kron_by_python_ints(A: List[List[int]], B: List[List[int]]) -> List[List[int]]:
    """The Kronecker product of two matrices given as lists of rows: entry
    (i * rows(B) + k, j * cols(B) + l) is A[i][j] * B[k][l]."""
    return [[x * y for x in a_row for y in b_row] for a_row in A for b_row in B]


def entries(M: IntMatrix) -> List[int]:
    """The entries of M, row by row."""
    return [x for row in M.to_lists() for x in row]


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


def is_unimodular_by_hermite(m: IntMatrix) -> bool:
    """Whether m is invertible over Z: square, with column Hermite form I."""
    return m.rows == m.cols and column_span_canonical(m).is_identity()


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


def _find_pivot(a, t: int, rows: int, cols: int):
    """Smallest |nonzero| entry of the trailing block, ties row-major."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x != 0:
                v = -x if x < 0 else x
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 1:
                        return best
    return best


def smith(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms, by dense elimination with the
    pivot of smallest nonzero absolute value in the trailing block, ties
    row-major.

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


def quotient_in_lattice(span_basis: IntMatrix, generators: IntMatrix) -> TateGroup:
    """Invariant factors of span(span_basis) / span(generators), from the
    coordinates of the generators in the (saturated) span, which must
    contain them with finite index."""
    if span_basis.cols == 0:
        return TateGroup(())
    solver = BasisSolver(span_basis)
    cols = []
    for j in range(generators.cols):
        coords = express_dense(solver, generators.col_list(j))
        if coords is None:
            raise InvalidParameterError("generator escapes the ambient sublattice")
        cols.append(coords)
    factors, free = cokernel_invariants(IntMatrix.from_columns(cols, rows=span_basis.cols))
    if free:
        raise InvalidParameterError("the quotient is not finite")
    return TateGroup(tuple(factors))


def tate_in_lattice(M: GLattice, H: Subgroup, degree: int) -> TateGroup:
    """Tate cohomology by its definition: M^H / N M in degree 0 and
    ker N / (h - 1 for every h in H) M in degree -1, each in coordinates
    of the saturated ambient lattice; degree 1 dualizes to -1."""
    if degree == 1:
        return tate_in_lattice(dual(M), H, -1)
    if degree == 0:
        return quotient_in_lattice(fixed_sublattice(M, H), norm_matrix(M, H))
    eye = IntMatrix.identity(M.rank)
    gens = IntMatrix.zeros(M.rank, 0)
    for h in H.elements:
        if h != M.group.identity:
            gens = gens.hstack(M.action[h] - eye)
    return quotient_in_lattice(kernel_basis(norm_matrix(M, H)), gens)


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
    return quotient_in_lattice(norm_ker, image)


def solve_mod_prime_power(
    H: List[List[int]], b: List[int], p: int, e: int
) -> Optional[List[int]]:
    """One solution of H x = b over Z/p^e (free variables pinned to 0).

    Pivots are chosen by minimal p-valuation, so when a pivot of
    valuation v is selected every remaining entry is divisible by p^v;
    elimination touches only unreduced rows, and pivots are solved by
    back-substitution in reverse selection order.  Solvability then
    reduces to per-pivot divisibility, independent of the free variables.
    """
    q = p ** e
    rows = len(H)
    cols = len(H[0]) if rows else 0
    m = [[H[i][j] % q for j in range(cols)] + [b[i] % q] for i in range(rows)]

    def valuation(x: int) -> int:
        if x == 0:
            return e
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    order: List[Tuple[int, int, int]] = []  # (row, col, valuation)
    used: set = set()
    free_cols = list(range(cols))
    while True:
        best = None
        for i in range(rows):
            if i in used:
                continue
            for j in free_cols:
                x = m[i][j]
                if x % q == 0:
                    continue
                v = valuation(x)
                if best is None or v < best[0]:
                    best = (v, i, j)
            if best and best[0] == 0:
                break
        if best is None:
            break
        v, pi, pj = best
        unit = m[pi][pj] // (p ** v)
        m[pi] = [(x * pow(unit, -1, q)) % q for x in m[pi]]
        for i in range(rows):
            if i not in used and i != pi and m[i][pj] % q:
                factor = m[i][pj] // (p ** v)  # exact: valuation >= v
                m[i] = [(x - factor * y) % q for x, y in zip(m[i], m[pi])]
        used.add(pi)
        order.append((pi, pj, v))
        free_cols.remove(pj)
    for i in range(rows):
        if i not in used and m[i][cols] % q:
            return None
    x = [0] * cols
    for pi, pj, v in reversed(order):
        rhs = m[pi][cols] - sum(m[pi][j] * x[j] for j in range(cols) if j != pj)
        rhs %= q
        if rhs % (p ** v):
            return None
        x[pj] = rhs // (p ** v)
    return x


def solve_mod(H: List[List[int]], b: List[int], n: int) -> Optional[List[int]]:
    """Integer x with H x = b (mod n), via prime powers and CRT."""
    cols = len(H[0]) if H else 0
    if n == 1:
        return [0] * cols
    solutions = []
    for p, e in prime_factorization(n):
        sol = solve_mod_prime_power(H, b, p, e)
        if sol is None:
            return None
        solutions.append((p ** e, sol))
    x = [0] * cols
    for j in range(cols):
        residue, modulus = 0, 1
        for q, sol in solutions:
            # CRT combine residue (mod modulus) with sol[j] (mod q)
            g, u, v = xgcd(modulus, q)
            residue = (residue * v * q + sol[j] * u * modulus) % (modulus * q)
            modulus *= q
        x[j] = residue
    return x


def section_by_averaging(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """An equivariant section of seq.right, or None, by group averaging.

    A rational equivariant section always exists: the average of an
    integer right inverse.  An integral one exists exactly when |G| times
    it can be corrected, by an equivariant map C -> B that the quotient
    map kills, to a multiple of |G|: a congruence modulo |G|.  Works for
    every quotient, permutation or not.
    """
    B, C = seq.B, seq.C
    G = B.group
    n = G.order
    pi = seq.right.matrix
    s0 = solve_matrix(pi, IntMatrix.identity(C.rank))
    if s0 is None:
        raise InvalidParameterError("the quotient map is not surjective")
    t = IntMatrix.zeros(B.rank, C.rank)
    for g in range(n):
        t = t + (B.action[g] @ s0 @ C.action[G.inverses[g]])
    if B.gset is not None and B.is_permutation_action():
        candidates = hom_basis_into_permutation(C, B)
        flat_pi = IntMatrix.from_columns(
            [entries(pi @ m) for m in candidates], rows=C.rank * C.rank
        )
        coeff_kernel = kernel_basis(flat_pi)
        corrections = []
        for k in range(coeff_kernel.cols):
            m = IntMatrix.zeros(B.rank, C.rank)
            for cf, cand in zip(coeff_kernel.col_list(k), candidates):
                if cf:
                    m = m + _scaled(cand, cf)
            corrections.append(m)
    else:
        corrections = [seq.left.matrix @ h for h in hom_basis(C, seq.A)]
    flats = [entries(m) for m in corrections]
    flat_h = [[f[k] for f in flats] for k in range(B.rank * C.rank)]
    x = solve_mod(flat_h, [-v for v in entries(t)], n)
    if x is None:
        return None
    total = t
    for xi, m in zip(x, corrections):
        if xi:
            total = total + _scaled(m, xi)
    rows = []
    for i in range(B.rank):
        row = []
        for j in range(C.rank):
            q, r = divmod(int(total[i, j]), n)
            if r:
                raise InvalidParameterError("the corrected average is not divisible by |G|")
            row.append(q)
        rows.append(row)
    return EquivariantMap(C, B, IntMatrix.from_rows(rows, cols=C.rank)).validate()


def _scaled(m: IntMatrix, c: int) -> IntMatrix:
    return IntMatrix.from_rows([[c * x for x in row] for row in m.to_lists()], cols=m.cols)


def identity_map(M: GLattice) -> EquivariantMap:
    return EquivariantMap(M, M, IntMatrix.identity(M.rank))


def hom_basis_into_permutation(C: GLattice, B: GLattice) -> List[IntMatrix]:
    """Z-basis of Hom_G(C, B) for a permutation target with point structure.

    Hom_G(C, Z[G/H]) corresponds to H-fixed functionals on C: the
    coordinate of the point g(basepoint) is the functional twisted by g.
    """
    if B.gset is None:
        raise InvalidParameterError("target needs permutation point structure")
    Cd = dual(C)
    out = []
    for base, transversal in B.gset.orbit_transversal():
        fixed = fixed_sublattice(Cd, B.gset.stabilizer(base))
        f = fixed.cols
        # row t * f + j is the row of the t-th point in the j-th map; the last row is 0
        rows = IntMatrix.zeros(0, C.rank).vstack(
            *((Cd.action[g] @ fixed).T for _, g in transversal), IntMatrix.zeros(1, C.rank)
        )
        slot = {p: t * f for t, (p, _) in enumerate(transversal)}
        zero = len(transversal) * f
        out.extend(
            rows.take_rows(slot[p] + j if p in slot else zero for p in range(B.rank))
            for j in range(f)
        )
    return out


def hom_basis(C: GLattice, A: GLattice) -> List[IntMatrix]:
    """Z-basis of the saturated lattice of equivariant maps C -> A.

    The kernel of T -> rho_A(g) T - T rho_C(g) over the generators g,
    with T flattened column-major.
    """
    a, c = A.rank, C.rank
    if a == 0 or c == 0:
        return []
    eye_a, eye_c = IntMatrix.identity(a), IntMatrix.identity(c)
    stacked = IntMatrix.zeros(0, a * c).vstack(
        *(eye_c.kron(A.action[g]) - C.action[g].T.kron(eye_a) for g in C.group.generators)
    )
    # column j of the kernel basis is the j-th map, flattened column-major
    return [
        IntMatrix.from_columns([v[col * a : (col + 1) * a] for col in range(c)], rows=a)
        for v in kernel_basis(stacked).T.to_lists()
    ]


def section_by_hom_basis(seq: ShortExactSequence) -> Optional[IntMatrix]:
    """The matrix of an equivariant section of seq.right, or None, by one
    integer solve in Hom_G(C, B): vec(id) as a combination of the
    vec(right . h_k) over a Z-basis h_k (into a permutation lattice with its
    G-set, by H-fixed functionals; else the Kronecker kernel)."""
    B, C = seq.B, seq.C
    homs = hom_basis_into_permutation(C, B) if B.gset is not None else hom_basis(C, B)
    if not homs:
        return None if C.rank else IntMatrix.zeros(B.rank, 0)
    pi = seq.right.matrix
    flat = IntMatrix.from_columns([entries(pi @ h) for h in homs], rows=C.rank * C.rank)
    x = express_dense(BasisSolver(flat), entries(IntMatrix.identity(C.rank)))
    if x is None:
        return None
    total = IntMatrix.zeros(B.rank, C.rank)
    for xk, h in zip(x, homs):
        if xk:
            total = total + _scaled(h, xk)
    return total


def shapiro_hom_basis(C: GLattice, A: GLattice) -> List[IntMatrix]:
    """Z-basis of Hom_G(C, A) for a permutation lattice C with its G-set.

    Hom_G(Z[G/H], A) = A^H (Shapiro): per orbit, send the basepoint to a
    vector fixed by its stabilizer, and the point g(basepoint) to g of it.
    """
    points = C.gset
    out = []
    for base, transversal in points.orbit_transversal():
        fixed = fixed_sublattice(A, points.stabilizer(base))
        for j in range(fixed.cols):
            v = fixed.col_list(j)
            cols = {p: mul_vector(A.action[g], v) for p, g in transversal}
            zero = [0] * A.rank
            out.append(IntMatrix.from_columns([cols.get(p, zero) for p in range(C.rank)], rows=A.rank))
    return out


def symmetric_table_by_composition(n: int) -> List[List[int]]:
    """The table of the symmetric group on n points over its sorted
    permutations: entry (i, j) is the position of x -> p_i[p_j[x]],
    composed as tuples and looked up in a dict."""
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    return [[pos[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def cyclic_table(n: int) -> List[List[int]]:
    row = list(range(n))
    return [row[i:] + row[:i] for i in range(n)]


def semidirect_table(n: int, m: int, r: int) -> List[List[int]]:
    """(s^i1 t^j1)(s^i2 t^j2) = s^(i1 + i2 r^-j1) t^(j1 + j2), index i m + j."""
    rinv = pow(r, -1, n) if n > 1 else 0
    return [
        [(i1 + i2 * pow(rinv, j1, n)) % n * m + (j1 + j2) % m for i2 in range(n) for j2 in range(m)]
        for i1 in range(n)
        for j1 in range(m)
    ]


def direct_product_table(G: FiniteGroup, H: FiniteGroup) -> List[List[int]]:
    m = H.order
    return [
        [ac * m + bd for ac in G.table[a] for bd in H.table[b]]
        for a in range(G.order)
        for b in range(m)
    ]


def subgroup_table(G: FiniteGroup, elements: Sequence[int]) -> List[List[int]]:
    pos = {g: i for i, g in enumerate(elements)}
    return [[pos[G.table[a][b]] for b in elements] for a in elements]


def closure_from_identity(G: FiniteGroup, seed: Sequence[int]) -> Tuple[int, ...]:
    """Sorted subgroup generated by the seed: breadth-first search from the
    identity under right multiplication by every seed element."""
    els = {G.identity}
    queue = [G.identity]
    for a in queue:
        for s in seed:
            c = G.table[a][s]
            if c not in els:
                els.add(c)
                queue.append(c)
    return tuple(sorted(els))


def subgroups_by_closing_whole(G: FiniteGroup) -> List[Tuple[int, ...]]:
    """Every subgroup, sorted by (order, elements): each found subgroup's
    whole element set is closed with every element outside it."""
    known = {(G.identity,)}
    frontier = [(G.identity,)]
    while frontier:
        base = frontier.pop()
        for g in range(G.order):
            if g not in base:
                new = closure_from_identity(G, base + (g,))
                if new not in known:
                    known.add(new)
                    frontier.append(new)
    return sorted(known, key=lambda els: (len(els), els))


def greedy_generators_from_scratch(G: FiniteGroup, elements: Sequence[int]) -> Tuple[int, ...]:
    """Add the smallest element not yet reached, closing all of them again
    from the identity each time; raise when a closure leaves `elements`."""
    target = set(elements)
    gens: List[int] = []
    have = {G.identity}
    while len(have) < len(target):
        gens.append(min(target - have))
        have = set(closure_from_identity(G, gens))
        if not have <= target:
            raise InvalidParameterError("subgroup not closed under multiplication")
    return tuple(gens)


def center_all_pairs(G: FiniteGroup) -> Tuple[int, ...]:
    """The elements that commute with every element."""
    t = G.table
    return tuple(g for g in range(G.order) if all(t[g][h] == t[h][g] for h in range(G.order)))


def is_abelian_all_pairs(G: FiniteGroup) -> bool:
    t = G.table
    return all(t[a][b] == t[b][a] for a in range(G.order) for b in range(G.order))


def infer_edge_action(vertices: GSet, edges: Sequence[Tuple[int, int]]) -> List[Tuple[int, ...]]:
    """The edge action read off the vertex action: g moves the edge (s, t)
    to the edge (g s, g t), looked up pair by pair.  Parallel edges have no
    such action, and an edge set that is not stable has none either."""
    index = {}
    for i, pair in enumerate(edges):
        if pair in index:
            raise InvalidParameterError("parallel edges need an explicit edge action")
        index[pair] = i
    act = []
    for g in range(vertices.group.order):
        vg = vertices.action[g]
        perm = []
        for s, t in edges:
            moved = (vg[s], vg[t])
            if moved not in index:
                raise InvalidParameterError(f"edge set is not stable under element {g}")
            perm.append(index[moved])
        act.append(tuple(perm))
    return act


def edge_orbits_by_scan(X) -> List[Tuple[int, ...]]:
    """Edge orbits of a G-graph, each from the images of its smallest edge."""
    seen = [False] * X.n_edges
    out = []
    for e in range(X.n_edges):
        if seen[e]:
            continue
        orbit = sorted({X.edge_gset.action[g][e] for g in range(X.group.order)})
        for x in orbit:
            seen[x] = True
        out.append(tuple(orbit))
    return out


def coset_gset_by_scan(G: FiniteGroup, H: Subgroup) -> GSet:
    """Left cosets gH, enumerated in order of their smallest element."""
    coset_of = {}
    reps = []
    for g in range(G.order):
        if g in coset_of:
            continue
        members = sorted(G.table[g][h] for h in H.elements)
        for x in members:
            coset_of[x] = len(reps)
        reps.append(members[0])
    action = [tuple(coset_of[G.table[g][rep]] for rep in reps) for g in range(G.order)]
    return GSet(G, action)


def move_by_loop(perm: Sequence[int], vec: Sequence[int]) -> List[int]:
    """The vector whose entry at perm[k] is vec[k]."""
    out = [0] * len(vec)
    for k, c in enumerate(vec):
        out[perm[k]] += c
    return out


def stable_subset_action(points: GSet, subset: Sequence[int]) -> List[Tuple[int, ...]]:
    """The action on a stable subset of points, renumbered in increasing order."""
    keep = sorted(set(int(x) for x in subset))
    pos = {x: i for i, x in enumerate(keep)}
    action = []
    for g in range(points.group.order):
        perm = []
        for x in keep:
            moved = points.action[g][x]
            if moved not in pos:
                raise InvalidParameterError(f"subset not stable under element {g}")
            perm.append(pos[moved])
        action.append(tuple(perm))
    return action


def _incident(X, allowed: Sequence[int]) -> List[List[int]]:
    incident: List[List[int]] = [[] for _ in range(X.n_vertices)]
    for e in allowed:
        s, t = X.edges[e]
        incident[s].append(e)
        if t != s:
            incident[t].append(e)
    return incident


def spanning_tree_by_bfs(X, allowed_edges=None) -> List[int]:
    """BFS spanning tree from vertex 0, scanning edges in listed order."""
    allowed = list(range(X.n_edges)) if allowed_edges is None else list(allowed_edges)
    incident = _incident(X, allowed)
    seen = [False] * X.n_vertices
    seen[0] = True
    tree = []
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for e in incident[v]:
            s, t = X.edges[e]
            w = t if s == v else s
            if not seen[w]:
                seen[w] = True
                tree.append(e)
                queue.append(w)
    if not all(seen):
        raise InvalidParameterError("graph is disconnected; no spanning tree")
    return sorted(tree)


def path_flow_by_bfs(X, src: int, dst: int, allowed_edges=None) -> List[int]:
    """Unit flow along the BFS path src -> dst, the search stopping at dst."""
    allowed = list(range(X.n_edges)) if allowed_edges is None else list(allowed_edges)
    incident = _incident(X, allowed)
    prev: List[Optional[Tuple[int, int]]] = [None] * X.n_vertices
    seen = [False] * X.n_vertices
    seen[src] = True
    queue = deque([src])
    while queue and not seen[dst]:
        v = queue.popleft()
        for e in incident[v]:
            s, t = X.edges[e]
            w = t if s == v else s
            if not seen[w]:
                seen[w] = True
                prev[w] = (e, 1 if s == v else -1)
                queue.append(w)
    if not seen[dst]:
        raise InvalidParameterError(f"no path from {src} to {dst} in allowed edges")
    vec = [0] * X.n_edges
    v = dst
    while v != src:
        e, sign = prev[v]
        vec[e] += sign
        s, t = X.edges[e]
        v = s if sign == 1 else t
    return vec


def orbit_count(points: GSet, K: Subgroup) -> int:
    """Number of K-orbits on a G-set, counted point by point."""
    seen = set()
    orbits = 0
    for x in range(points.size):
        if x in seen:
            continue
        orbits += 1
        seen.update(points.action[g][x] for g in K.elements)
    return orbits


def orbit_count_solutions_rational(M: GLattice) -> Optional[List[Tuple[int, ...]]]:
    """Candidate per-class orbit counts for a stable basis of M, from a
    Gauss-Jordan elimination over the rationals.

    A stable basis with n_H orbits of stabilizer class H satisfies
    rank M^K = sum_H n_H * #(K-orbits on G/H) for every subgroup class K.
    Returns [] when the system is unsolvable in nonnegative integers
    (so no stable basis exists at all), None when the solution set is
    too large to enumerate, and otherwise the finite candidate list in a
    deterministic order.
    """
    G = M.group
    reps = subgroup_conjugacy_reps(G)
    k = len(reps)
    cosets = [coset_gset(G, H) for H in reps]
    table = [[len(pts.restrict_group(K).orbits()) for pts in cosets] for K in reps]
    rhs = [fixed_sublattice(M, K).cols for K in reps]
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(table)]
    pivots: List[Tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, k) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(k):
            if i != row and a[i][col] != 0:
                f = a[i][col] / a[row][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append((row, col))
        row += 1
    for i in range(row, k):
        if a[i][k] != 0:
            return []  # inconsistent: no stable basis exists
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(k) if c not in pivot_cols]
    particular = [Fraction(0)] * k
    for r, c in pivots:
        particular[c] = a[r][k] / a[r][c]
    if not free_cols:
        if all(v.denominator == 1 and v >= 0 for v in particular):
            return [tuple(int(v) for v in particular)]
        return []
    if len(free_cols) > 2:
        return None
    null_dirs = []
    for fc in free_cols:
        direction = [Fraction(0)] * k
        direction[fc] = Fraction(1)
        for r, c in pivots:
            direction[c] = -a[r][fc] / a[r][c]
        null_dirs.append(direction)
    bound = M.rank + 1
    found = set()
    for ts in itertools.product(range(-bound, bound + 1), repeat=len(free_cols)):
        cand = [
            particular[i] + sum(t * d[i] for t, d in zip(ts, null_dirs))
            for i in range(k)
        ]
        if all(v.denominator == 1 and 0 <= v <= M.rank for v in cand):
            found.add(tuple(int(v) for v in cand))
        if len(found) > 60:
            return None
    return sorted(found)


def coinvariant_projection_left_kernel(M: GLattice) -> IntMatrix:
    """Rows spanning the saturated left kernel of the s - 1, side by side
    over the generators s of G (the identity for the trivial group)."""
    eye = IntMatrix.identity(M.rank)
    stacked = None
    for g in M.group.generators:
        block = M.action[g] - eye
        stacked = block if stacked is None else stacked.hstack(block)
    if stacked is None:
        return eye
    return kernel_basis(stacked.T).T


def sublattice_action_per_element(M: GLattice, basis: IntMatrix) -> List[IntMatrix]:
    """The action on an invariant span, one solve per group element."""
    solver = BasisSolver(basis)
    if solver.rank != basis.cols:
        raise InvalidParameterError("basis columns are not linearly independent")
    action = []
    for g in range(M.group.order):
        coords = solver.express_matrix(M.action[g] @ basis)
        if coords is None:
            raise InvalidParameterError(f"column span is not invariant under element {g}")
        action.append(coords)
    return action


def saturation(A: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturation of the column span of A."""
    left = kernel_basis(A.T)  # columns span the rational left-kernel
    return kernel_basis(left.T)


def check_exact_by_kernel(seq: ShortExactSequence) -> ExactnessReport:
    """Exactness with the image compared against kernel_basis(right)."""
    failures = []
    if seq.A.rank + seq.C.rank != seq.B.rank:
        failures.append(f"rank mismatch: {seq.A.rank} + {seq.C.rank} != {seq.B.rank}")
    image = column_span_canonical(seq.left.matrix)
    if image.cols != seq.left.matrix.cols:
        failures.append("left map is not injective")
    factors, free = cokernel_invariants(seq.right.matrix)
    if factors or free:
        failures.append(
            f"right map is not surjective (cokernel factors={factors}, free rank={free})"
        )
    if image != kernel_basis(seq.right.matrix):
        failures.append("image of left map differs from kernel of right map")
    for label, m in (("left", seq.left), ("right", seq.right)):
        g = m.equivariance_failure()
        if g is not None:
            failures.append(f"{label} map not equivariant at element {g}")
    return ExactnessReport(not failures, failures)


def _boundary(X) -> IntMatrix:
    cols = [[(v == t) - (v == s) for v in range(X.n_vertices)] for s, t in X.edges]
    return IntMatrix.from_columns(cols, rows=X.n_vertices)


def flow_basis_by_kernel(X) -> IntMatrix:
    """The flow basis as the kernel of the boundary map."""
    return kernel_basis(_boundary(X))


def validate_flow_lattice(fl) -> None:
    """Check a flow lattice from scratch: its basis columns are flows, the
    rank formula holds on a connected graph, they span the kernel of the
    boundary map, and the lattice action is the edge action on them."""
    X = fl.graph
    bd = _boundary(X)
    if not (bd @ fl.basis).is_zero():
        raise InvalidParameterError("basis columns violate the flow condition")
    if X.is_connected():
        expected = X.n_edges - X.n_vertices + 1
        if fl.rank != expected:
            raise InvalidParameterError(f"rank {fl.rank} != |E|-|V|+1 = {expected}")
    if column_span_canonical(fl.basis) != column_span_canonical(kernel_basis(bd)):
        raise InvalidParameterError("basis does not span the saturated kernel")
    for g in X.group.generators:
        # g moves edge e to perm[e], so row perm[e] of g * basis is row e
        # of basis; sorting the edges by perm inverts it
        perm = X.edge_gset.action[g]
        moved = fl.basis.take_rows(sorted(range(X.n_edges), key=perm.__getitem__))
        if moved != fl.basis @ fl.action[g]:
            raise InvalidParameterError(f"action invariant fails at element {g}")


def bar_flow_dense(X, G: FiniteGroup, g: int, h: int) -> Tuple[int, ...]:
    """d(g, h) = (e -> g -> gh) - (e -> gh) as a dense edge vector, loops as zero."""
    e = G.identity
    vec = [0] * X.n_edges
    if g == e or h == e:
        return tuple(vec)
    idx = X.edge_index()
    gh = G.mul(g, h)
    for s, t, c in ((e, g, 1), (g, gh, 1), (e, gh, -1)):
        if s != t:
            vec[idx[(s, t)]] += c
    return tuple(vec)


def cocycle_failures_dense(X, G: FiniteGroup, d) -> int:
    """Triples failing d(g1, g2) + d(g1 g2, g3) = d(g1, g2 g3) + g1 . d(g2, g3)."""
    def move(g: int, vec: Sequence[int]) -> List[int]:
        return move_by_loop(X.edge_gset.action[g], vec)

    failures = 0
    for g1 in G.elements():
        for g2 in G.elements():
            for g3 in G.elements():
                lhs = tuple(a + b for a, b in zip(d[(g1, g2)], d[(G.mul(g1, g2), g3)]))
                rhs = tuple(
                    a + b for a, b in zip(d[(g1, G.mul(g2, g3))], move(g1, d[(g2, g3)]))
                )
                failures += lhs != rhs
    return failures


def tree_recursion_failures_dense(X, G: FiniteGroup, d) -> int:
    """Pairs failing d(h, g) = [e -> h] + h . [e -> g] - [e -> hg] on dense vectors."""
    e = G.identity
    idx = X.edge_index()
    def move(g: int, vec: Sequence[int]) -> List[int]:
        return move_by_loop(X.edge_gset.action[g], vec)


    def edge_unit(g: int) -> Tuple[int, ...]:
        vec = [0] * X.n_edges
        if g != e:
            vec[idx[(e, g)]] = 1
        return tuple(vec)

    bad = 0
    for h in G.elements():
        for g in G.elements():
            rhs = tuple(
                a + b - c
                for a, b, c in zip(edge_unit(h), move(h, edge_unit(g)), edge_unit(G.mul(h, g)))
            )
            bad += d[(h, g)] != rhs
    return bad


def bar_arrays(d, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The padded (n, n, k) edge and coefficient arrays of a dict of flows
    d[(g, h)], {edge: coefficient}, that the library's bar-cocycle checks
    read: entry i of d(g, h) in order, explicit zeros kept, then padding
    coefficient 0 on edge 0; k is the longest flow, at least 1.  The
    coefficients are Python ints where one exceeds int64."""
    k = max(map(len, d.values()), default=0) or 1
    edges = np.zeros((n, n, k), dtype=np.int64)
    coefs = np.zeros((n, n, k), dtype=object)
    for (g, h), flow in d.items():
        edges[g, h, : len(flow)] = list(flow)
        coefs[g, h, : len(flow)] = list(flow.values())
    if all(-(2**63) <= c < 2**63 for c in coefs.flat):
        coefs = coefs.astype(np.int64)
    return edges, coefs


def bar_flow_dicts(X, G: FiniteGroup) -> dict:
    """Every bar flow d(g, h), keyed by (g, h), as the map of its nonzero
    coefficients by edge (``bar_flow_dense``)."""
    return {(g, h): as_flow(bar_flow_dense(X, G, g, h)) for g in G.elements() for h in G.elements()}


def cocycle_failures_by_dicts(X, G: FiniteGroup, d) -> int:
    """Triples failing d(g1, g2) + d(g1 g2, g3) = d(g1, g2 g3) + g1 . d(g2, g3),
    with d as {edge: coefficient} maps: one dict merge per triple."""
    failures = 0
    for g1 in G.elements():
        perm, row1 = X.edge_gset.action[g1], G.table[g1]
        for g2 in G.elements():
            row2, g12, d12 = G.table[g2], row1[g2], d[(g1, g2)]
            for g3 in G.elements():
                acc = dict(d12)  # the left side minus the right side
                for k, c in d[(g12, g3)].items():
                    acc[k] = acc.get(k, 0) + c
                for k, c in d[(g1, row2[g3])].items():
                    acc[k] = acc.get(k, 0) - c
                for k, c in d[(g2, g3)].items():
                    acc[perm[k]] = acc.get(perm[k], 0) - c
                failures += any(acc.values())
    return failures


def tree_recursion_failures_by_dicts(X, G: FiniteGroup, d) -> int:
    """Pairs failing d(h, g) = [e -> h] + h . [e -> g] - [e -> hg], with d as
    {edge: coefficient} maps, where an explicit zero means 0: three unit
    maps moved and merged per pair."""
    e = G.identity
    idx = X.edge_index()

    def edge_unit(g: int, c: int = 1) -> dict:
        return {idx[(e, g)]: c} if g != e else {}

    def sum_flows(*flows: dict) -> dict:
        out: dict = {}
        for f in flows:
            for k, c in f.items():
                out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}

    bad = 0
    for h in G.elements():
        perm = X.edge_gset.action[h]
        for g in G.elements():
            moved = {perm[k]: c for k, c in edge_unit(g).items()}
            if sum_flows(d[(h, g)]) != sum_flows(edge_unit(h), moved, edge_unit(G.mul(h, g), -1)):
                bad += 1
    return bad


def as_flow(vec: Sequence[int]) -> dict:
    """The nonzero entries of a dense edge vector, by edge."""
    return {e: c for e, c in enumerate(vec) if c}


def spanning_tree_basis_dense(X, tree_edges: Sequence[int], candidates: Sequence[Sequence[int]]):
    """``spanning_tree_basis`` on dense candidate vectors: every test loops
    over all edges of every candidate, and the basis is built from the
    dense columns.  Raises what it raises, with the same messages."""
    from glattice.gflows import FlowLattice, SpanningTreeBasisError, _find

    tree = sorted(set(map(operator.index, tree_edges)))
    if len(tree) != X.n_vertices - 1:
        raise InvalidParameterError(
            f"tree has {len(tree)} edges, expected |V|-1 = {X.n_vertices - 1}"
        )
    parent = list(range(X.n_vertices))
    for e in tree:
        rs, rt = (_find(parent, v) for v in X.edges[e])
        if rs == rt:
            raise InvalidParameterError("tree edges contain a cycle")
        parent[rs] = rt
    if len({_find(parent, v) for v in range(X.n_vertices)}) != 1:
        raise InvalidParameterError("tree edges do not span the graph")
    tree_set = set(tree)
    non_tree = [e for e in range(X.n_edges) if e not in tree_set]
    position = {e: j for j, e in enumerate(non_tree)}
    r = len(non_tree)
    if len(candidates) != r:
        raise SpanningTreeBasisError(
            f"need {r} candidate flows (one per non-tree edge), got {len(candidates)}"
        )
    cols, first = [], []
    for i, cand in enumerate(candidates):
        vec = list(map(operator.index, cand))
        if len(vec) != X.n_edges:
            raise InvalidParameterError(f"candidate {i} has wrong length")
        net = [0] * X.n_vertices
        for e, c in enumerate(vec):
            if c:
                s, t = X.edges[e]
                net[t] += c
                net[s] -= c
        if any(net):
            raise InvalidParameterError(f"candidate {i} violates the flow condition")
        cols.append(vec)
        first.append(next((position[e] for e, c in enumerate(vec) if c and e in position), r))
    for i in range(r):
        d = cols[i][non_tree[i]]
        if d not in (1, -1):
            raise SpanningTreeBasisError(
                f"diagonal entry f_{i}(e_{non_tree[i]}) = {d} is not +-1"
            )
        if first[i] < i:
            raise SpanningTreeBasisError(
                f"matrix not upper triangular: f_{i}(e_{non_tree[first[i]]}) != 0"
            )
    basis = IntMatrix.from_columns(cols, rows=X.n_edges)
    return FlowLattice(X, BasisSolver._of_triangular(basis.rows, non_tree, basis.column_nonzeros()))


def express_by_dense_sweep(basis: IntMatrix, vec: Sequence[int], pivots=None) -> Optional[List[int]]:
    """Coordinates of vec in the basis columns, or None: a back-substitution
    that divides at the pivot of every nonzero column of the echelon form,
    in column order, on a dense residual.  Without pivots the echelon form
    is the column Hermite form with its transform; with them the basis is
    its own echelon form, column j pivoting in row pivots[j]."""
    H, V = col_hermite(basis, transform=True) if pivots is None else (basis, None)
    r = list(map(operator.index, vec))
    if len(r) != H.rows:
        raise ValueError("vector length mismatch")
    y = [0] * H.cols
    for j in range(H.cols):
        col = H.col_list(j)
        nonzero = [(i, x) for i, x in enumerate(col) if x != 0]
        if not nonzero:
            continue
        piv = nonzero[0][0] if pivots is None else pivots[j]
        q, rem = divmod(r[piv], col[piv])
        if rem != 0:
            return None
        y[j] = q
        for i, h in nonzero:
            r[i] -= q * h
    if any(r):
        return None
    return y if V is None else mul_vector(V, y)


def fundamental_cycles(X, tree: Sequence[int]) -> List[List[int]]:
    """One flow per non-tree edge e = (s, t), in edge order: e itself
    closed by the tree path from t back to s."""
    tree_set = set(tree)
    cycles = []
    for e in range(X.n_edges):
        if e not in tree_set:
            s, t = X.edges[e]
            vec = path_flow_by_bfs(X, t, s, tree)
            vec[e] += 1
            cycles.append(vec)
    return cycles


def subgroup_classes_by_all_conjugates(G: FiniteGroup) -> Tuple[List[Subgroup], dict]:
    """Conjugacy classes of subgroups: the first subgroup of each class in
    canonical order, and each subgroup's class index, conjugating by every
    element."""
    reps, class_of = [], {}
    for sub in all_subgroups(G):
        if sub.elements in class_of:
            continue
        for g in G.elements():
            class_of[tuple(sorted(G.conjugate(g, h) for h in sub.elements))] = len(reps)
        reps.append(sub)
    return reps, class_of


def permutation_search_by_scan(M: GLattice, bound: int, budget: int) -> PermutationSearchOutcome:
    """``is_permutation_bounded`` as two backtracking searches over orbits
    found vector by vector: one per candidate orbit count, filled class by
    class, and one over a flat pool when the counts are unknown.  Orbit
    counts come from the rational solve, classes from every conjugate."""
    if bound < 1:
        raise InvalidParameterError("bound must be >= 1")
    r = M.rank
    if r == 0:
        return PermutationSearchOutcome(IntMatrix.zeros(0, 0), [], bound)
    G = M.group
    actions = [np.array(M.action[g].to_lists(), dtype=np.int64) for g in G.elements()]
    if M.is_permutation_action():
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        orbits, seen = [], set()
        for j in range(r):
            if j not in seen:
                orbit = sorted({int(np.flatnonzero(mat[:, j])[0]) for mat in actions})
                seen.update(orbit)
                orbits.append(orbit)
        return PermutationSearchOutcome(IntMatrix.from_rows(eye), orbits, bound, "standard basis is stable")
    box = 2 * bound + 1
    if box ** r > ENUMERATION_CAP:
        return PermutationSearchOutcome(None, [], bound, f"search space {box}^{r} exceeds enumeration cap")
    options = orbit_count_solutions_rational(M)
    if options == []:
        return PermutationSearchOutcome(
            None, [], bound, "orbit-count obstruction: fixed ranks admit no solution"
        )
    reps, class_lookup = subgroup_classes_by_all_conjugates(G)
    coinv = coinvariant_projection_left_kernel(M)
    if options is not None:
        options = [c for c in options if sum(c) == coinv.rows]
        if not options:
            return PermutationSearchOutcome(
                None, [], bound, "coinvariant rank does not match any orbit count"
            )

    vectors = np.array(list(itertools.product(range(-bound, bound + 1), repeat=r)), dtype=np.int64)
    keep = ~(vectors == 0).all(axis=1)
    for mat in actions:
        keep &= (np.abs(vectors @ mat.T) <= bound).all(axis=1)
    pool_set = set()
    for v in vectors[keep]:
        tup = tuple(int(x) for x in v)
        if gcd(*tup) == 1:
            pool_set.add(tup)

    def saturated_cols(cols) -> bool:
        return is_saturated_basis(IntMatrix.from_columns(cols, rows=len(cols[0])))

    relevant = None if options is None else [any(c[i] for c in options) for i in range(len(reps))]
    per_class: List[List[dict]] = [[] for _ in reps]
    seen = set()
    for tup in sorted(pool_set, key=lambda v: (max(abs(x) for x in v), v)):
        if tup in seen:
            continue
        arr = np.array(tup, dtype=np.int64)
        stab = tuple(g for g in G.elements() if tuple(int(x) for x in actions[g] @ arr) == tup)
        orbit = sorted({tuple(int(x) for x in mat @ arr) for mat in actions})
        seen.update(orbit)
        if any(v not in pool_set for v in orbit):
            continue
        cls = class_lookup.get(stab)
        if cls is None or (relevant is not None and not relevant[cls]):
            continue
        if not saturated_cols(list(orbit)):
            continue
        image = mul_vector(coinv, list(tup))
        if gcd(*image) != 1:
            continue
        per_class[cls].append({"orbit": orbit, "image": image})

    left = [budget]
    chosen: List[dict] = []

    def extendable() -> bool:
        cols = [v for item in chosen for v in item["orbit"]]
        return saturated_cols(cols) and saturated_cols([item["image"] for item in chosen])

    def search_with_counts(counts) -> bool:
        if any(len(per_class[c]) < counts[c] for c in range(len(reps))):
            return False
        class_order = sorted((c for c in range(len(reps)) if counts[c]), key=lambda c: (-reps[c].order, c))

        def backtrack(ci: int, start: int, remaining: int) -> bool:
            if left[0] <= 0:
                return False
            if remaining == 0:
                if ci + 1 == len(class_order):
                    return True
                return backtrack(ci + 1, 0, counts[class_order[ci + 1]])
            pool = per_class[class_order[ci]]
            for k in range(start, len(pool)):
                left[0] -= 1
                if left[0] <= 0:
                    return False
                chosen.append(pool[k])
                if extendable() and backtrack(ci, k + 1, remaining - 1):
                    return True
                chosen.pop()
            return False

        if not class_order:
            return coinv.rows == 0
        return backtrack(0, 0, counts[class_order[0]])

    def search_unconstrained() -> bool:
        pool = sorted(
            (item for cls_pool in per_class for item in cls_pool),
            key=lambda it: (len(it["orbit"]), it["orbit"]),
        )

        def backtrack(start: int, size: int) -> bool:
            if size == r:
                return True
            if left[0] <= 0:
                return False
            for k in range(start, len(pool)):
                if size + len(pool[k]["orbit"]) > r:
                    continue
                left[0] -= 1
                if left[0] <= 0:
                    return False
                chosen.append(pool[k])
                if extendable() and backtrack(k + 1, size + len(pool[k]["orbit"])):
                    return True
                chosen.pop()
            return False

        return backtrack(0, 0)

    ok = False
    if options is None:
        ok = search_unconstrained()
    else:
        for counts in options:
            chosen.clear()
            if search_with_counts(counts):
                ok = True
                break
            if left[0] <= 0:
                break
    if not ok:
        reason = "node budget exhausted" if left[0] <= 0 else "no stable basis within bound"
        return PermutationSearchOutcome(None, [], bound, reason)
    cols, orbits_out = [], []
    for item in chosen:
        first = len(cols)
        cols.extend(list(v) for v in item["orbit"])
        orbits_out.append(list(range(first, len(cols))))
    return PermutationSearchOutcome(IntMatrix.from_columns(cols, rows=r), orbits_out, bound)


def lattices_equal_all_elements(M: GLattice, N: GLattice) -> bool:
    """Equality of two lattices read on every group element's matrix."""
    return M is N or (
        M.group is N.group
        and M.rank == N.rank
        and all(M.action[g] == N.action[g] for g in range(M.group.order))
    )


def kernel_basis_by_transform(A: IntMatrix) -> IntMatrix:
    """The canonical kernel basis from the column Hermite form A V = H: the
    columns of V under the zero columns of H, brought to Hermite form."""
    H, V = col_hermite(A, transform=True)
    rank = sum(1 for j in range(H.cols) if any(H.col_list(j)))
    return column_span_canonical(V.take_columns(range(rank, A.cols)))


def fixed_sublattice_by_kernel(M: GLattice, H: Subgroup) -> IntMatrix:
    """The H-fixed vectors as the kernel of the h - 1 stacked over the
    generators h of H, whether or not M has a G-set."""
    eye = IntMatrix.identity(M.rank)
    gens = H.generators()
    if not gens:
        return eye
    return kernel_basis_by_transform(
        IntMatrix.zeros(0, M.rank).vstack(*(M.action[h] - eye for h in gens)))


def direct_sum_by_fold(lattices: Sequence[GLattice]) -> List[IntMatrix]:
    """The action matrices of a direct sum, built two summands at a time."""
    G = lattices[0].group
    out = [M for M in lattices[0].action]
    for N in lattices[1:]:
        for g in range(G.order):
            zero = IntMatrix.zeros(out[g].rows, N.rank)
            out[g] = out[g].hstack(zero).vstack(zero.T.hstack(N.action[g]))
    return out


def find_section_orbitwise(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """A section of a sequence onto a permutation lattice, or None: per
    orbit of the quotient, one solve for a stabilizer-fixed preimage of
    the basepoint (fixed points by stacked kernels), moved point by point.
    The section is validated."""
    B, C = seq.B, seq.C
    pi = seq.right.matrix
    cols = {}
    for base, transversal in C.gset.orbit_transversal():
        F = fixed_sublattice_by_kernel(B, C.gset.stabilizer(base))
        target = [int(i == base) for i in range(C.rank)]
        b = express_dense(BasisSolver(pi @ F), target)
        if b is None:
            return None
        b = mul_vector(F, b)
        for p, g in transversal:
            cols[p] = mul_vector(B.action[g], b)
    section = EquivariantMap(C, B, IntMatrix.from_columns([cols[p] for p in range(C.rank)], rows=B.rank))
    section.validate()
    if not (pi @ section.matrix).is_identity():
        raise AssertionError("the orbitwise section is no right inverse")
    return section


def vanishing_by_full_scan(M: GLattice, degree: int):
    """(ok, failing class elements, failing Tate group) from a scan of every
    subgroup class in order; degree 1 is degree -1 of the dual."""
    from glattice.cohom import tate

    for H in subgroup_conjugacy_reps(M.group):
        t = tate(M, H, degree)
        if not t.is_trivial:
            return False, H.elements, t
    return True, None, None


def quick_suite_graphs():
    """The rank-formula graphs, (report label, graph), built by the group and
    G-set constructors instead of from graph specs."""
    from glattice.gflows import cayley_graph, complete_edges
    from glattice.groups import (
        cyclic,
        dihedral,
        direct_product,
        natural_gset,
        regular_gset,
        semidirect,
        subgroup_from_generators,
        symmetric,
    )

    out = []
    for n in (2, 3, 4, 5, 6):
        G = cyclic(n)
        out.append((f"cayley(C:{n};s)", cayley_graph(G, [G.generator_indices["s"]])))
    G = cyclic(12)
    s = G.generator_indices["s"]
    out.append(("cayley(C:12;s,s2)", cayley_graph(G, [s, G.power(s, 2)])))
    G = cyclic(8)
    s = G.generator_indices["s"]
    out.append(("cayley(C:8;s,s3)", cayley_graph(G, [s, G.power(s, 3)])))
    for n in (3, 4, 6):
        G = dihedral(n)
        out.append(
            (f"cayley(D:{n};s,t)",
             cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]]))
        )
    for (n, m, r) in ((3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 3, 2)):
        G = semidirect(n, m, r)
        out.append(
            (f"cayley(SD:{n},{m},{r};s,t)",
             cayley_graph(G, [G.generator_indices["s"], G.generator_indices["t"]]))
        )
    K4 = direct_product(cyclic(2), cyclic(2))
    out.append(
        ("cayley(X(C:2,C:2);all)",
         cayley_graph(K4, [g for g in K4.elements() if g != K4.identity]))
    )
    out.append(("complete(regular X(C:2,C:2))", complete_edges(regular_gset(K4))))
    S3 = symmetric(3)
    out.append(("complete(natural S:3)", complete_edges(natural_gset(S3))))
    out.append(
        ("complete(regular S:3; loops)", complete_edges(regular_gset(S3), loops=True))
    )
    t = next(g for g in S3.elements() if S3.element_order(g) == 2)
    out.append(
        ("complete(cosets S:3/<t>)",
         complete_edges(coset_gset(S3, subgroup_from_generators(S3, [t]))))
    )
    S4 = symmetric(4)
    swap = S4.point_action.index((1, 0, 2, 3))
    four = S4.point_action.index((1, 2, 3, 0))
    out.append(("cayley(S:4;(12),(1234))", cayley_graph(S4, [swap, four])))
    out.append(("complete(natural S:4)", complete_edges(natural_gset(S4))))
    return out


def tensor(M: GLattice, N: GLattice) -> GLattice:
    """Tensor over Z with the diagonal action; row-major index (i, j) -> i*rank(N)+j."""
    if M.group is not N.group:
        raise InvalidParameterError("tensor needs a common group")
    action = _Action(M.rank * N.rank, [None] * M.group.order,
                     lambda _, g: M.action[g].kron(N.action[g]))
    return GLattice(M.group, action, _derived=True)


def bezout_embedding(M: GLattice, cert, coeffs=None) -> Tuple[EquivariantMap, EquivariantMap]:
    """The split an InvertibilityCertificate stands for, built densely:
    m -> (a_i u_i (x) m)_i into the sum of tensor(coset_lattice(G, H_i), M)
    over its subgroups, u_i the sum of the coset vectors, and back by
    summing each block's copies.  Both maps are validated on the
    generators, and retraction . embedding = I is certified, so
    coefficients a_i (by default the Bezout coefficients of the indices)
    with sum a_i [G:H_i] != 1 raise CertificateError."""
    G = M.group
    if coeffs is None:
        coeffs = bezout_coefficients([H.index() for H in cert.subgroups])
    target = direct_sum_many([tensor(coset_lattice(G, H), M) for H in cert.subgroups])
    eye = IntMatrix.identity(M.rank)
    emb = IntMatrix.zeros(0, M.rank).vstack(
        *(IntMatrix.column([a_i] * H.index()).kron(eye) for a_i, H in zip(coeffs, cert.subgroups))
    )
    retr = IntMatrix.zeros(M.rank, 0).hstack(
        *(IntMatrix.from_rows([[1] * H.index()]).kron(eye) for H in cert.subgroups)
    )
    embedding = EquivariantMap(M, target, emb).validate()
    retraction = EquivariantMap(target, M, retr).validate()
    certify((retr @ emb).is_identity(), "the retraction inverts the embedding")
    return embedding, retraction


def find_section(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """An equivariant s: C -> B with right . s = id, or None when none exists.

    Two routes, each decisive both ways.  Out of a permutation quotient, or
    a pullback row onto one, s is a lift (module docstring).  Into a
    permutation middle term, the injection with the smaller source gets a
    left inverse (_left_inverse): with rank A < rank C a retraction r of
    the inclusion, and s = X - left . r . X for any integer X with
    right . X = id; else L . right^T = id, from B (a permutation lattice is
    its own dual, with the same G-set) to the dual of C, and s = L^T.
    With neither, the sequence is refused with InvalidParameterError.  The
    exactness report is the one the sequence already carries, if any.
    """
    report = check_exact(seq)
    if not report.ok:
        raise InvalidParameterError(f"sequence is not exact: {report.failures}")
    A, B, C = seq.A, seq.B, seq.C
    iota, pi = seq.left.matrix, seq.right.matrix
    if C.gset is not None:
        if seq.section is None:
            return lift(EquivariantMap(C, C, IntMatrix.identity(C.rank)), seq.right)
        s_matrix = seq.section()
    elif B.gset is None:
        raise InvalidParameterError(
            "a section needs a permutation quotient or a permutation middle term"
        )
    elif A.rank < C.rank:
        r = _left_inverse(B, A, iota)
        if r is None:
            return None
        X = solve_matrix(pi, IntMatrix.identity(C.rank))  # exists: right is onto
        s_matrix = X - iota @ (r @ X)
    else:
        L = _left_inverse(B, dual(C), pi.T)
        s_matrix = None if L is None else L.T
    if s_matrix is None:
        return None
    section = EquivariantMap(C, B, s_matrix)
    section.validate()
    certify((pi @ s_matrix).is_identity(), "the section is a right inverse of the quotient map")
    return section


def split_iso(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """The unimodular iso A + C -> B assembled from the inclusion and a
    section (see find_section), or None when the sequence does not split.

    Its inverse is constructed explicitly and certified as a right
    inverse, fwd @ back = I: find_section's exactness check has certified
    rank A + rank C = rank B, so fwd is square and back @ fwd = I follows.
    The iso keeps back, so ``inverse`` reads it back.
    """
    section = find_section(seq)
    if section is None:
        return None
    A, B, C = seq.A, seq.B, seq.C
    fwd_matrix = seq.left.matrix.hstack(section.matrix)
    fwd = EquivariantMap(direct_sum(A, C), B, fwd_matrix)
    back_top = BasisSolver(seq.left.matrix).express_matrix(
        IntMatrix.identity(B.rank) - section.matrix @ seq.right.matrix
    )
    certify(back_top is not None, "the section's complement lies in the inclusion's image")
    back = back_top.vstack(seq.right.matrix)
    certify((fwd_matrix @ back).is_identity(), "the split map has the constructed inverse")
    fwd.validate()
    fwd._inverse = back
    return fwd


def remove_edges_decomposition(X, X_sub) -> EquivariantMap:
    """Unimodular iso Fl(V, E') + ZG^m -> Fl(V, E) for free vertex actions.

    One circular flow per removed edge orbit: the orbit representative,
    closed through the subgraph's search tree by ``fundamental_cycles``.
    The restriction to Fl(V, E') is the natural embedding.
    """
    from glattice.gflows import flow_lattice, fundamental_cycles

    G = X.group
    if X_sub.vertices is not X.vertices and X_sub.vertices.action != X.vertices.action:
        raise InvalidParameterError("graphs must share the vertex G-set")
    if not X.vertices.is_free():
        raise InvalidParameterError("vertex action must be free")
    if not X_sub.is_connected():
        raise InvalidParameterError("subgraph must be connected")
    idx = X.edge_index()
    sub_in_X = []
    for pair in X_sub.edges:
        if pair not in idx:
            raise InvalidParameterError(f"subgraph edge {pair} missing from the graph")
        sub_in_X.append(idx[pair])
    sub_set = set(sub_in_X)

    fl = flow_lattice(X)
    fl_sub = flow_lattice(X_sub)

    removed_orbits = [
        orbit for orbit in X.edge_orbits() if orbit[0] not in sub_set
    ]
    for orbit in removed_orbits:
        if any(e in sub_set for e in orbit):
            raise InvalidParameterError("edge orbit straddles the subgraph")
        if len(orbit) != G.order:
            raise InvalidParameterError("free action forces free edge orbits")
    m = len(removed_orbits)
    certify(m * G.order == X.n_edges - X_sub.n_edges, "the removed edges form free orbits")

    # the subgraph flows extended by zero, then one free orbit of circular
    # flows per removed orbit: its representative closed in the subgraph
    embedded = [{sub_in_X[e]: c for e, c in col.items()} for col in fl_sub.basis.column_nonzeros()]
    flows = list(embedded)
    closed = fundamental_cycles(X, sub_in_X)
    for orbit in removed_orbits:
        flows += [X.edge_gset.move(g, closed[orbit[0]]) for g in range(G.order)]
    matrix = fl.solver.express_columns(flows)
    certify(matrix is not None, "the embedded and circular flows are flows")
    source = direct_sum_many([fl_sub] + [regular(G) for _ in range(m)])
    iso = EquivariantMap(source, fl, matrix)
    iso.validate()
    certify(is_unimodular_by_hermite(matrix), "edge-removal decomposition must be unimodular")
    # restriction block identity: the first columns are the embedded basis
    emb = fl.basis @ matrix.take_columns(range(fl_sub.rank))
    certify(emb.column_nonzeros() == embedded, "the embedding extends subgraph flows by zero")
    return iso
