"""Tate cohomology in degrees -1, 0, 1; flasque/coflasque predicates;
resolution constructors; pullback squares; split isomorphisms;
permutation and invertibility certificates.

Each Tate group is the torsion of one cokernel: of the norm in degree 0,
and of the s - 1 over the generators s of the subgroup in degree -1.
Degree 1 is degree -1 of the dual; the tests check it against the direct
formula for cyclic subgroups.

The flasque and coflasque scans visit only the p-subgroup classes:
restriction embeds the p-part of a Tate group of H into that of a Sylow
p-subgroup of H, whose class comes first (by order), so the first
failing class of a scan over all classes is a p-group.

Schanuel's lemma is one construction: ``pullback`` takes two sequences
onto one lattice and returns the two rows of their pullback square, and
``split_iso``, the one splitting routine, turns each split row into a
unimodular iso [left | s] with its inverse [r; right], so two
resolutions compare through one composed map.  It builds one half by one
of two routes and reads the other off it.  Out of a permutation quotient
the section s is the sequence's own (a pullback row's x -> (x, lift x),
the circular flows of an edge removal) or the lift of the quotient's
identity (``lift``, one solve per orbit of a permutation source).  Into
a permutation middle term a left inverse (``_left_inverse``, one solve
over all orbits) of the injection on the smaller side gives the
retraction r of the inclusion, or s through the transposed quotient map.

Each certificate condition is checked once, on the object it is about.
A flasque resolution is validated as flasque only, which checks what a
coflasque validation of its transpose would; a split iso is validated
once and certifies fwd @ back = I only, which with ranks that add up
certifies its sequence exact and every half it was built from; an
invertibility certificate rests on its witnesses and Bezout identity.
A pullback row's section lies in the pullback as ``lift`` certifies
g . lift = f.  A permutation witness is unimodular by the saturation
check that accepts its last orbit.  Rank 0 gets no resolution, as
``direct_sum_many`` refuses an empty sum.

The bounded search for a G-stable basis numbers the box vectors, so each
group element acts on them by one index array, reads every orbit and
stabilizer off those arrays, and combines orbits by one backtracking
routine.  Stabilizers are classified by ``groups.subgroup_classes``, and
the orbit counts that prune the search come from double coset counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CertificateError, GlatticeError, InvalidParameterError, certify
from .gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    check_exact,
    coset_lattice,
    direct_sum,
    direct_sum_many,
    dual,
    fixed_sublattice,
    lattices_equal,
    norm_matrix,
    orbit_map,
    restrict,
    sublattice_with_action,
)
from .groups import (
    Subgroup,
    double_coset_count,
    prime_factorization,
    subgroup_classes,
    subgroup_conjugacy_reps,
    sylow,
    whole_group,
)
from .intlinalg import (
    BasisSolver,
    IntMatrix,
    bezout_coefficients,
    cokernel_invariants,
    is_saturated_basis,
    kernel_basis,
    pivot_columns,
    solve_matrix,
)


@dataclass(frozen=True)
class TateGroup:
    """A finite abelian group as a divisibility chain of invariant factors."""

    invariant_factors: Tuple[int, ...] = ()

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d <= 1 for d in fs):
            raise InvalidParameterError("invariant factors must exceed 1")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise InvalidParameterError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def tate(M: GLattice, H: Subgroup, degree: int) -> TateGroup:
    """Tate cohomology of the subgroup H with coefficients in M.

    Degree 0 is M^H / N M and degree -1 is ker N / I_H M, where N is the
    norm and I_H M is spanned by (s - 1) M over the generators s of H.
    M^H and ker N are saturated and contain N M and I_H M with finite
    index, so each group is the torsion of Z^rank modulo the smaller
    lattice: one Smith diagonal.  Degree +1 dualizes to -1.

    >>> from glattice.gmod import trivial
    >>> from glattice.groups import cyclic, whole_group
    >>> C2 = cyclic(2)
    >>> str(tate(trivial(C2), whole_group(C2), 0))  # Z / 2Z: the norm is 2
    'Z/2'
    """
    if H.parent is not M.group:
        raise InvalidParameterError("subgroup belongs to a different group")
    if degree not in (-1, 0, 1):
        raise InvalidParameterError("degree must be -1, 0 or 1")
    if degree == 1:
        return tate(dual(M), H, -1)
    if degree == 0:
        spanning = norm_matrix(M, H)
    else:
        eye = IntMatrix.identity(M.rank)
        spanning = IntMatrix.zeros(M.rank, 0).hstack(*(M.action[s] - eye for s in H.generators()))
    factors, _ = cokernel_invariants(spanning)
    return TateGroup(tuple(factors))


@dataclass
class VanishingReport:
    """Result of a flasque/coflasque scan over subgroup representatives."""

    ok: bool
    degree: int
    failing_subgroup: Optional[Subgroup] = None
    failing_group: Optional[TateGroup] = None

    def __bool__(self) -> bool:
        return self.ok


def _vanishes_for_all_subgroups(M: GLattice, degree: int) -> VanishingReport:
    # class representatives suffice; the p-classes decide (module docstring)
    for H in subgroup_conjugacy_reps(M.group):
        if len(prime_factorization(H.order)) <= 1:
            group = tate(M, H, degree)
            if not group.is_trivial:
                return VanishingReport(False, degree, H, group)
    return VanishingReport(True, degree)


def is_flasque(M: GLattice) -> VanishingReport:
    """Vanishing of degree -1 Tate cohomology for every subgroup."""
    return _vanishes_for_all_subgroups(M, -1)


def is_coflasque(M: GLattice) -> VanishingReport:
    """Vanishing of degree +1 Tate cohomology for every subgroup: degree -1 of the dual."""
    report = _vanishes_for_all_subgroups(dual(M), -1)
    return VanishingReport(report.ok, 1, report.failing_subgroup, report.failing_group)


# -- resolutions ---------------------------------------------------------------


@dataclass
class ResolutionCertificate:
    """A checked (co)flasque resolution; its middle term is a permutation
    lattice with a G-set.  The library builds every one it validates, so a
    failed condition is a CertificateError, a fault of the program."""

    sequence: ShortExactSequence
    kind: str  # "coflasque" or "flasque"

    def validate(self) -> "ResolutionCertificate":
        report = check_exact(self.sequence)
        if not report.ok:
            raise CertificateError(f"resolution is not exact: {report.failures}")
        if not self.sequence.B.is_permutation_action():
            raise CertificateError("middle term is not a permutation lattice")
        if self.kind == "coflasque":
            verdict = is_coflasque(self.sequence.A)
            if not verdict:
                raise CertificateError(
                    f"kernel fails coflasqueness at subgroup {verdict.failing_subgroup}"
                )
        elif self.kind == "flasque":
            verdict = is_flasque(self.sequence.C)
            if not verdict:
                raise CertificateError(
                    f"cokernel fails flasqueness at subgroup {verdict.failing_subgroup}"
                )
        else:
            raise CertificateError(f"unknown resolution kind {self.kind!r}")
        return self


def coflasque_resolution(
    M: GLattice, rep_order: Optional[Sequence[int]] = None
) -> ResolutionCertificate:
    """0 -> C -> P -> M -> 0 with P permutation and C coflasque.

    P carries one copy of Z[G/H] per basis vector of the H-fixed
    sublattice, over every subgroup conjugacy representative H; the copy
    maps gH to g applied to the fixed vector.  This makes P^H -> M^H
    surjective for all H, which forces the kernel coflasque (verified).
    """
    return ResolutionCertificate(_coflasque_sequence(M, rep_order), "coflasque").validate()


def _coflasque_sequence(
    M: GLattice, rep_order: Optional[Sequence[int]] = None
) -> ShortExactSequence:
    """The unvalidated sequence of ``coflasque_resolution``; rank 0, with no
    fixed vectors, is refused as an empty sum by ``direct_sum_many``."""
    G = M.group
    reps = subgroup_conjugacy_reps(G)
    if rep_order is not None:
        if sorted(rep_order) != list(range(len(reps))):
            raise InvalidParameterError("rep_order must permute the representatives")
        reps = [reps[i] for i in rep_order]
    summands: List[GLattice] = []
    fixed_vectors: List[IntMatrix] = []  # the basepoint images, one per summand
    for H in reps:
        fixed = fixed_sublattice(M, H)
        if fixed.cols:
            summands += [coset_lattice(G, H)] * fixed.cols
            fixed_vectors.append(fixed)
    P = direct_sum_many(summands)  # one orbit per summand, in order; none for rank 0
    pi = EquivariantMap(P, M, orbit_map(P, M, IntMatrix.zeros(M.rank, 0).hstack(*fixed_vectors)))
    _, incl = sublattice_with_action(P, kernel_basis(pi.matrix))
    return ShortExactSequence(incl, pi)


def flasque_resolution(M: GLattice) -> ResolutionCertificate:
    """0 -> M -> P -> F -> 0, the transpose of the coflasque sequence
    0 -> C -> P -> M* -> 0 of the dual, with F = C*; permutation lattices
    are self dual, so P keeps its point structure on the nose.

    Only the flasque certificate is validated: exactness of the
    transposes, the permutation middle term and H^-1 of F = C* are what a
    coflasque validation of the sequence of M* checks (H^1 of C).
    """
    co = _coflasque_sequence(dual(M))
    left = EquivariantMap(M, co.B, co.right.matrix.T)
    right = EquivariantMap(co.B, dual(co.A), co.left.matrix.T)
    return ResolutionCertificate(ShortExactSequence(left, right), "flasque").validate()


def pullback(
    first: ShortExactSequence, second: ShortExactSequence
) -> Tuple[ShortExactSequence, ShortExactSequence]:
    """The two rows of the pullback square of 0 -> A1 -> B1 -> C -> 0 and
    0 -> A2 -> B2 -> C -> 0: 0 -> A2 -> Q -> B1 -> 0 and
    0 -> A1 -> Q -> B2 -> 0, in that order.

    Q is the fibre product {(x, y): f(x) = g(y)} of the right maps f and
    g, in the canonical (column Hermite) basis of the kernel of [f | -g];
    the rows' right maps are its two projections.  One solver of that
    basis gives Q its action and embeds both kernels, A1 as (a, 0) and A2
    as (0, a); a left map whose image leaves the kernel of its right map
    has no such embedding, and raises.  A row's section x -> (x, lift x)
    lies in Q, whose basis is saturated, as ``lift`` certifies g . lift = f.
    """
    f, g = first.right, second.right
    if not lattices_equal(f.target, g.target):
        raise InvalidParameterError("pullback legs must share the target")
    basis = kernel_basis(f.matrix.hstack(-g.matrix))
    solver = BasisSolver(basis)
    B1, B2 = first.B, second.B
    Q, _ = sublattice_with_action(direct_sum(B1, B2), basis, solver=solver)
    a1 = solver.express_matrix(first.left.matrix.vstack(IntMatrix.zeros(B2.rank, first.A.rank)))
    a2 = solver.express_matrix(IntMatrix.zeros(B1.rank, second.A.rank).vstack(second.left.matrix))
    certify(a1 is not None and a2 is not None, "both kernels lie in the pullback")

    def section(f, g, pair):  # x -> (x, lift(f, g) x) in Q's basis; None with no lift
        t = lift(f, g)
        return None if t is None else solver.express_matrix(pair(t.matrix))

    return (
        ShortExactSequence(
            EquivariantMap(second.A, Q, a2),
            EquivariantMap(Q, B1, basis.take_rows(range(B1.rank))),
            section=lambda: section(f, g, lambda t: IntMatrix.identity(t.cols).vstack(t)),
        ),
        ShortExactSequence(
            EquivariantMap(first.A, Q, a1),
            EquivariantMap(Q, B2, basis.take_rows(range(B1.rank, basis.rows))),
            section=lambda: section(g, f, lambda t: t.vstack(IntMatrix.identity(t.cols))),
        ),
    )


# -- splits ----------------------------------------------------------------------


def lift(f: EquivariantMap, g: EquivariantMap) -> Optional[EquivariantMap]:
    """A G-map sigma: P -> B with g . sigma = f, for f: P -> C out of a
    lattice P with a G-set and g: B -> C, or None when none exists.  A
    basepoint p goes to F y, F = fixed_sublattice(B, stab p), g F y = f(e_p):
    one decisive solve per orbit, batched by stabilizer, moved by orbit_map.
    g . sigma = f is certified; sigma is equivariant by construction, and
    split_iso validates it once, as the section block of its iso."""
    P, B = f.source, g.source
    if P.gset is None or not lattices_equal(f.target, g.target):
        raise InvalidParameterError("lift needs a permutation source and maps into one lattice")
    by_stab: Dict[Tuple[int, ...], Tuple[Subgroup, List[int]]] = {}
    for base, _ in P.gset.orbit_transversal():  # basepoints ascending
        stab = P.gset.stabilizer(base)
        by_stab.setdefault(stab.elements, (stab, []))[1].append(base)
    images, order = [], []  # the basepoint images, by stabilizer
    for stab, bases in by_stab.values():
        F = fixed_sublattice(B, stab)
        y = BasisSolver(g.matrix @ F).express_matrix(f.matrix.take_columns(bases))
        if y is None:
            return None
        images.append(F @ y)
        order += bases
    Y = IntMatrix.zeros(B.rank, 0).hstack(*images).take_columns(np.argsort(order))
    sigma = EquivariantMap(P, B, orbit_map(P, B, Y))
    certify(g.matrix @ sigma.matrix == f.matrix, "the lift maps through g onto f")
    return sigma


def _orbit_spanning_basis(T: GLattice) -> List[int]:
    """Indices l whose basis vectors e_l have G-orbits spanning T over Q:
    the l of the pivot columns of the orbit vectors g e_l, which are the
    leftmost ones independent over Q.  The orbits of e_0 .. e_{k-1} are
    read for k = 1, 2, 4, ... up to the first such prefix of full rank,
    which holds every pivot column.

    An equivariant map out of T that vanishes on these orbits vanishes on
    a sublattice of full rank, hence on all of T.
    """
    n, r = T.group.order, T.rank
    # column l * n + g is g e_l, column l of the g-th matrix of the hstack
    stacked = IntMatrix.zeros(r, 0).hstack(*T.action)
    k = min(1, r)
    while True:
        pivots = pivot_columns(stacked.take_columns(g * r + l for l in range(k) for g in range(n)))
        if len(pivots) == r or k == r:
            return sorted({j // n for j in pivots})
        k = min(2 * k, r)


def _left_inverse(B: GLattice, T: GLattice, j: IntMatrix) -> Optional[IntMatrix]:
    """The matrix of a G-map L: B -> T with L . j = id_T, for an injective
    G-map j: T -> B into a lattice B with a G-set, or None when none exists.

    L sends the basepoint of each orbit of B to F x, F = fixed_sublattice(T,
    its stabilizer), and g_p of it to rho_T(g_p) F x (orbit_map).  Since
    L . j - id is equivariant, it is 0 once it vanishes on the e_l, l in J,
    whose orbits span T (_orbit_spanning_basis): one solve over all orbits
    together, whose row block l reads sum_p j[p, l] rho_T(g_p) F x = e_l,
    decisive both ways.  split_iso's one validation of its iso and its
    fwd @ back = I certify L equivariant and L . j = id.
    """
    t = T.rank
    J = _orbit_spanning_basis(T)
    spread = IntMatrix.identity(t)
    rho = IntMatrix.zeros(0, t).vstack(*T.action)  # row block g is rho_T(g)
    fixed, blocks = [], []
    for base, transversal in B.gset.orbit_transversal():
        F = fixed_sublattice(T, B.gset.stabilizer(base))
        moved = (rho @ F).take_rows(g * t + i for _, g in transversal for i in range(t))
        # (j[orbit, J]^T kron I_t) @ moved: row block l is sum_p j[p, l] rho_T(g_p) F
        coefficients = j.take_rows(p for p, _ in transversal).take_columns(J).T
        blocks.append(coefficients.kron(spread) @ moved)
        fixed.append(F)
    # the right-hand side is e_l for l in J, stacked
    x = BasisSolver(IntMatrix.zeros(len(J) * t, 0).hstack(*blocks)).express_columns(
        [{k * t + l: 1 for k, l in enumerate(J)}]
    )
    if x is None:
        return None
    images, start = [], 0
    for F in fixed:
        images.append(F @ x.take_rows(range(start, start + F.cols)))
        start += F.cols
    return orbit_map(B, T, IntMatrix.zeros(t, 0).hstack(*images))


def split_iso(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """The unimodular iso [left | s]: A + C -> B for a section s of the
    right map, with its inverse [r; right] (r . left = id_A), or None when
    the sequence is exact and does not split.

    Each route builds one half and reads the other off it, decisively both
    ways.  Out of a permutation quotient, s is the sequence's own section
    or a lift (module docstring).  Into a permutation middle term, the
    injection with the smaller source gets a left inverse (_left_inverse):
    with rank A < rank C that is r itself, and s = X - left . r . X for any
    integer X with right . X = id; else L . right^T = id, from B (its own
    dual, with the same G-set) to the dual of C, and s = L^T.  Given s, r
    solves left . r = id - s . right.  With neither route, an exact
    sequence is refused with InvalidParameterError.

    The split certifies the sequence exact: with rank A + rank C = rank B,
    fwd is square and fwd @ back = I gives back @ fwd = I (right . s = id,
    r . left = id, ker right = im left), and fwd, validated once, makes
    left, s and its inverse equivariant, so right is.  check_exact runs
    only to explain a split not certified: a sequence that is not exact is
    refused with its failures; on an exact one the route's None or the
    CertificateError stands.  The iso keeps back for ``inverse``.
    """
    iso = failure = None
    if seq.A.rank + seq.C.rank == seq.B.rank:
        try:
            iso = _split(seq)
        except GlatticeError as error:
            failure = error
    if iso is None:
        report = check_exact(seq)
        if not report.ok:
            raise InvalidParameterError(f"sequence is not exact: {report.failures}") from failure
        if failure is not None:
            raise failure
    return iso


def _split(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """split_iso's iso, certified, on a sequence with rank A + rank C = rank B."""
    A, B, C = seq.A, seq.B, seq.C
    iota, pi = seq.left.matrix, seq.right.matrix
    r = None
    if C.gset is not None and seq.section is not None:
        s = seq.section()
    elif C.gset is not None:
        t = lift(EquivariantMap(C, C, IntMatrix.identity(C.rank)), seq.right)
        s = None if t is None else t.matrix
    elif B.gset is None:
        raise InvalidParameterError(
            "a section needs a permutation quotient or a permutation middle term"
        )
    elif A.rank < C.rank:
        r = _left_inverse(B, A, iota)
        X = None if r is None else solve_matrix(pi, IntMatrix.identity(C.rank))  # None: not onto
        s = None if X is None else X - iota @ (r @ X)
    else:
        L = _left_inverse(B, dual(C), pi.T)
        s = None if L is None else L.T
    if s is None:
        return None
    if r is None:
        r = BasisSolver(iota).express_matrix(IntMatrix.identity(B.rank) - s @ pi)
        certify(r is not None, "the section's complement lies in the inclusion's image")
    fwd = EquivariantMap(direct_sum(A, C), B, iota.hstack(s))
    back = r.vstack(pi)
    certify((fwd.matrix @ back).is_identity(), "the split map has the constructed inverse")
    certify(fwd.equivariance_failure() is None, "the split map is equivariant")
    fwd._inverse = back
    return fwd


# -- bounded permutation-basis search -------------------------------------------


@dataclass
class PermutationSearchOutcome:
    """Witness of a G-stable basis, or an explicit bounded-search marker."""

    witness: Optional[IntMatrix]
    orbits: List[List[int]] = field(default_factory=list)
    bound: int = 0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.witness is not None


ENUMERATION_CAP = 1_000_000
SEARCH_NODE_BUDGET = 20_000


def _coinvariant_projection(M: GLattice) -> IntMatrix:
    """Projection onto the free part of M / span{(g-1)M} (orbit images).

    Its rows are the canonical basis of the G-fixed functionals.  Every
    member of a G-orbit has the same image, and the images of the orbits
    of any G-stable basis form a basis of the free quotient.
    """
    return fixed_sublattice(dual(M), whole_group(M.group)).T


def _orbit_count_solutions(M: GLattice) -> Optional[List[Tuple[int, ...]]]:
    """Candidate per-class orbit counts for a stable basis of M.

    A stable basis with n_H orbits of stabilizer class H satisfies
    rank M^K = sum_H n_H * #(K-orbits on G/H) for every subgroup class K,
    and #(K-orbits on G/H) is the number of double cosets K g H.
    Returns [] when the system is unsolvable in nonnegative integers
    (so no stable basis exists at all), None when the solution set is
    too large to enumerate, and otherwise the finite candidate list in a
    deterministic order.

    The integer solutions are x + K t: one particular solution x plus the
    lattice spanned by the kernel basis K.  A nonnegative solution lies in
    [0, rank M]^k, since the trivial class reads
    sum_H n_H * [G:H] = rank M.  K is in column Hermite form, so once
    t_0 .. t_{j-1} are fixed, the pivot row of column j, which no later
    column touches, bounds t_j.
    """
    reps = subgroup_conjugacy_reps(M.group)
    table = [[double_coset_count(K, H) for H in reps] for K in reps]
    rhs = [fixed_sublattice(M, K).cols for K in reps]
    T, b = IntMatrix.from_rows(table), IntMatrix.column(rhs)
    if len(reps) in pivot_columns(T.hstack(b)):
        return []  # inconsistent over Q: no stable basis exists
    K = kernel_basis(T)
    if K.cols > 2:
        return None
    x = solve_matrix(T, b)
    if x is None:
        return []
    r = M.rank
    found: List[Tuple[int, ...]] = []

    def extend(point: List[int], j: int) -> bool:  # False once past 60 points
        if j == K.cols:
            if all(0 <= v <= r for v in point):
                found.append(tuple(point))
            return len(found) <= 60
        col = K.col_list(j)
        piv = next(i for i, v in enumerate(col) if v)
        lo, hi = -(point[piv] // col[piv]), (r - point[piv]) // col[piv]
        return all(
            extend([v + t * c for v, c in zip(point, col)], j + 1) for t in range(lo, hi + 1)
        )

    return sorted(found) if extend(x.col_list(0), 0) else None


def _box_orbits(M: GLattice, bound: int) -> List[Tuple[List[List[int]], Tuple[int, ...]]]:
    """The G-orbits of the primitive vectors whose whole orbit has entries
    in [-bound, bound], each as (its members in increasing order, the
    stabilizer of its least member under the key (max |entry|, vector)),
    in the order of those least members.

    The box vectors are numbered in itertools.product order, so each
    element acts on the kept ones by one index array: a unimodular action
    keeps the orbit of a kept vector kept and primitive.
    """
    box, r = 2 * bound + 1, M.rank
    vectors = np.indices((box,) * r).reshape(r, -1).T - bound  # itertools.product order
    actions = [np.array(M.action[g].to_lists(), dtype=np.int64).T for g in M.group.elements()]
    keep = vectors.any(axis=1)
    for mat in actions:
        keep &= (np.abs(vectors @ mat) <= bound).all(axis=1)
    vecs = vectors[keep]
    vecs = vecs[np.gcd.reduce(np.abs(vecs), axis=1) == 1]
    weights = box ** np.arange(r - 1, -1, -1)
    kept = (vecs + bound) @ weights  # the numbers of the kept vectors, increasing
    # row j, column g: the position in kept of g applied to vector j
    moves = np.stack(
        [np.searchsorted(kept, (vecs @ mat + bound) @ weights) for mat in actions], axis=1
    ).tolist()
    seen, out = set(), []
    for j in np.argsort(np.abs(vecs).max(axis=1), kind="stable").tolist():
        if j not in seen:
            seen.update(moves[j])
            stab = tuple(g for g, i in enumerate(moves[j]) if i == j)
            out.append((vecs[sorted(set(moves[j]))].tolist(), stab))
    return out


def is_permutation_bounded(M: GLattice, bound: int = 2) -> PermutationSearchOutcome:
    """Search for a G-stable basis among vectors with entries in [-B, B].

    Complete within the bound: a stable basis is a disjoint union of full
    orbits of box vectors, so orbits are enumerated and combined by
    backtracking.  Pruning uses only necessary conditions (orbit counts
    per stabilizer class, saturation of partial spans, orbit images in
    the coinvariant quotient), so a failed search is reported as
    exhausted, never as a disproof.

    The backtracking fills segments: for each candidate count, one per
    class, largest stabilizer first, where an orbit costs 1; with the
    counts unknown, one pool of every orbit filled to rank r, where an
    orbit costs its size.  Every orbit tried is one node of the budget.
    The chosen orbits hold r vectors (sum_H n_H [G:H] = r at the trivial
    class), so the saturation check of the last certifies the witness.
    """
    if bound < 1:
        raise InvalidParameterError("bound must be >= 1")
    r = M.rank
    if r == 0:
        return PermutationSearchOutcome(IntMatrix.zeros(0, 0), [], bound)
    if M.is_permutation_action():
        orbits: List[List[int]] = []
        for j in range(r):  # the orbits of the standard basis
            if not any(j in orbit for orbit in orbits):
                orbits.append(sorted({a.col_list(j).index(1) for a in M.action}))
        eye = IntMatrix.identity(r)
        return PermutationSearchOutcome(eye, orbits, bound, "standard basis is stable")
    box = 2 * bound + 1
    if box ** r > ENUMERATION_CAP:
        return PermutationSearchOutcome(
            None, [], bound, f"search space {box}^{r} exceeds enumeration cap"
        )

    options = _orbit_count_solutions(M)
    if options == []:
        return PermutationSearchOutcome(
            None, [], bound, "orbit-count obstruction: fixed ranks admit no solution"
        )
    reps, class_of = subgroup_classes(M.group)
    coinv = _coinvariant_projection(M)
    if options is not None:
        options = [c for c in options if sum(c) == coinv.rows]
        if not options:
            return PermutationSearchOutcome(
                None, [], bound, "coinvariant rank does not match any orbit count"
            )

    def saturated_cols(cols: List[Sequence[int]]) -> bool:
        return is_saturated_basis(IntMatrix.from_columns(cols, rows=len(cols[0])))

    # (orbit, image in the coinvariant quotient), bucketed by stabilizer class;
    # the images of all orbit leaders come from one product
    orbits = [(orbit, class_of[stab]) for orbit, stab in _box_orbits(M, bound)
              if options is None or any(c[class_of[stab]] for c in options)]
    leaders = IntMatrix.from_columns([orbit[0] for orbit, _ in orbits], rows=r)
    per_class: List[List[Tuple[List[List[int]], List[int]]]] = [[] for _ in reps]
    for (orbit, cls), image in zip(orbits, (coinv @ leaders).T.to_lists()):
        if gcd(*image) == 1 and saturated_cols(orbit):
            per_class[cls].append((orbit, image))

    # segments (pool, total cost, whether an orbit costs its size), one list per search
    if options is None:
        pool = [item for items in per_class for item in items]
        pool.sort(key=lambda item: (len(item[0]), item[0]))
        plans = [[(pool, r, True)]]
    else:
        by_order = sorted(range(len(reps)), key=lambda c: (-reps[c].order, c))
        plans = [
            [(per_class[c], counts[c], False) for c in by_order if counts[c]]
            for counts in options
            if all(len(per_class[c]) >= counts[c] for c in range(len(reps)))
        ]

    budget = SEARCH_NODE_BUDGET
    chosen: List[Tuple[List[List[int]], List[int]]] = []

    def backtrack(segments, seg: int, start: int, left: int) -> bool:
        # orbits of segment seg from position start on, costing left in all;
        # left == 0 moves to the next segment (seg == -1: to the first)
        nonlocal budget
        if left == 0:
            seg, start = seg + 1, 0
            if seg == len(segments):
                return True
            left = segments[seg][1]
        if budget <= 0:
            return False
        pool, _, by_size = segments[seg]
        for k in range(start, len(pool)):
            cost = len(pool[k][0]) if by_size else 1
            if cost > left:
                continue
            budget -= 1
            if budget <= 0:
                return False
            chosen.append(pool[k])
            if (
                saturated_cols([v for orbit, _ in chosen for v in orbit])
                and saturated_cols([image for _, image in chosen])
                and backtrack(segments, seg, k + 1, left - cost)
            ):
                return True
            chosen.pop()
        return False

    if not any(backtrack(segments, -1, 0, 0) for segments in plans):
        reason = "node budget exhausted" if budget <= 0 else "no stable basis within bound"
        return PermutationSearchOutcome(None, [], bound, reason)
    witness = IntMatrix.from_columns([v for orbit, _ in chosen for v in orbit], rows=r)
    orbits_out, first = [], 0
    for orbit, _ in chosen:
        orbits_out.append(list(range(first, first + len(orbit))))
        first += len(orbit)
    return PermutationSearchOutcome(witness, orbits_out, bound)


# -- invertibility certificates ---------------------------------------------------


@dataclass
class InvertibilityCertificate:
    """M invertible (Colliot-Thelene-Sansuc 1977): a permutation witness of
    its restriction to each Sylow subgroup H_i makes Z[G/H_i] (x) M, the
    lattice induced from that restriction, permutation, and the Bezout
    identity sum a_i [G:H_i] = 1 makes M a direct summand of their sum.

    These two facts are the certificate; no map is built.  With u_i the
    sum of the coset vectors of Z[G/H_i], m -> (a_i u_i (x) m)_i is
    equivariant because every generator fixes u_i, as any permutation
    action does (``GSet`` refuses any other), and so is summing each
    block's copies, which sends that image back to sum a_i [G:H_i] m = m.
    """

    subgroups: List[Subgroup]
    restriction_witnesses: List[PermutationSearchOutcome]


def invertibility_certificate(M: GLattice) -> Optional[InvertibilityCertificate]:
    """Certify M invertible via its Sylow subgroups, one for each prime
    dividing |G| (the whole group when G is trivial), or None.

    The Bezout identity of their indices is certified exactly, and each
    restriction must earn a permutation witness of bound 2 or 3.  Absence
    of a certificate is never a disproof.
    """
    G = M.group
    subgroups = [sylow(G, p) for p, _ in prime_factorization(G.order)] or [whole_group(G)]
    indices = [H.index() for H in subgroups]
    coeffs = bezout_coefficients(indices)
    certify(sum(a * n for a, n in zip(coeffs, indices)) == 1, "the Bezout identity holds")
    witnesses = []
    for H in subgroups:
        R = restrict(M, H)
        outcome = is_permutation_bounded(R, 2) or is_permutation_bounded(R, 3)
        if not outcome:
            return None
        witnesses.append(outcome)
    return InvertibilityCertificate(subgroups, witnesses)
