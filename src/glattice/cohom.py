"""Tate cohomology in degrees -1, 0, 1; flasque/coflasque predicates;
resolution constructors; split finding; permutation and invertibility
certificates.

Each Tate group is the torsion of one cokernel: of the norm in degree 0,
and of the s - 1 over the generators s of the subgroup in degree -1.
Degree 1 is degree -1 of the dual; the tests check it against the direct
formula for cyclic subgroups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, certify
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
    restrict,
    sublattice_with_action,
    tensor,
)
from .groups import (
    FiniteGroup,
    GSet,
    Subgroup,
    coset_gset,
    prime_factorization,
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
    # cohomology is conjugation-invariant, so representatives suffice
    for H in subgroup_conjugacy_reps(M.group):
        t = tate(M, H, degree)
        if not t.is_trivial:
            return VanishingReport(False, degree, H, t)
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
    """A checked (co)flasque resolution with its permutation middle term."""

    sequence: ShortExactSequence
    kind: str  # "coflasque" or "flasque"
    permutation_witness: Optional[GSet]

    def validate(self) -> "ResolutionCertificate":
        report = check_exact(self.sequence)
        if not report.ok:
            raise InvalidParameterError(f"resolution is not exact: {report.failures}")
        if not self.sequence.B.is_permutation_action():
            raise InvalidParameterError("middle term is not a permutation lattice")
        if self.kind == "coflasque":
            verdict = is_coflasque(self.sequence.A)
            if not verdict:
                raise InvalidParameterError(
                    f"kernel fails coflasqueness at subgroup {verdict.failing_subgroup}"
                )
        elif self.kind == "flasque":
            verdict = is_flasque(self.sequence.C)
            if not verdict:
                raise InvalidParameterError(
                    f"cokernel fails flasqueness at subgroup {verdict.failing_subgroup}"
                )
        else:
            raise InvalidParameterError(f"unknown resolution kind {self.kind!r}")
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
    G = M.group
    reps = subgroup_conjugacy_reps(G)
    if rep_order is not None:
        if sorted(rep_order) != list(range(len(reps))):
            raise InvalidParameterError("rep_order must permute the representatives")
        reps = [reps[i] for i in rep_order]
    summands: List[GLattice] = []
    col_blocks: List[List[List[int]]] = []
    for H in reps:
        fixed = fixed_sublattice(M, H)
        if fixed.cols == 0:
            continue
        lat = coset_lattice(G, H)
        # G/H is one orbit; g_p moves the identity coset to the point p
        [(_, transversal)] = lat.gset.orbit_transversal()
        for j in range(fixed.cols):
            v = fixed.col_list(j)
            summands.append(lat)
            col_blocks.append([M.action[g].mul_vector(v) for _, g in transversal])
    if not summands:
        raise InvalidParameterError("lattice admits no fixed vectors; rank 0 unsupported")
    P = direct_sum_many(summands)
    pi_cols: List[List[int]] = []
    for block in col_blocks:
        pi_cols.extend(block)
    pi = EquivariantMap(P, M, IntMatrix.from_columns(pi_cols, rows=M.rank))
    kernel = kernel_basis(pi.matrix)
    C, incl = sublattice_with_action(P, kernel, name="coflasque kernel")
    cert = ResolutionCertificate(
        sequence=ShortExactSequence(incl, pi),
        kind="coflasque",
        permutation_witness=P.gset,
    )
    return cert.validate()


def flasque_resolution(M: GLattice) -> ResolutionCertificate:
    """0 -> M -> P -> F -> 0 obtained by dualizing a coflasque resolution.

    Permutation lattices are self dual, so the middle term keeps its
    point structure on the nose.
    """
    co = coflasque_resolution(dual(M))
    P = co.sequence.B  # self-dual: identical matrices
    C = co.sequence.A
    F = dual(C)
    left = EquivariantMap(M, P, co.sequence.right.matrix.T)
    right = EquivariantMap(P, F, co.sequence.left.matrix.T)
    cert = ResolutionCertificate(
        sequence=ShortExactSequence(left, right),
        kind="flasque",
        permutation_witness=co.permutation_witness,
    )
    return cert.validate()


def pullback(
    f: EquivariantMap, g: EquivariantMap
) -> Tuple[GLattice, EquivariantMap, EquivariantMap, EquivariantMap]:
    """Fibre product {(x, y): f(x) = g(y)}.

    Returns the pullback lattice, its two projections, and the inclusion
    into the ambient direct sum of the sources, whose matrix is the
    canonical (column Hermite) basis of the kernel of [f | -g].
    """
    if not lattices_equal(f.target, g.target):
        raise InvalidParameterError("pullback legs must share the target")
    big = f.matrix.hstack(-g.matrix)
    K = kernel_basis(big)
    ambient = direct_sum(f.source, g.source)
    Q, incl = sublattice_with_action(ambient, K, name="pullback")
    b1 = f.source.rank
    p1 = EquivariantMap(Q, f.source, K.take_rows(range(b1)))
    p2 = EquivariantMap(Q, g.source, K.take_rows(range(b1, ambient.rank)))
    return Q, p1, p2, incl


# -- equivariant hom spaces -----------------------------------------------------


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


# -- section finding -------------------------------------------------------------


def _find_section_orbitwise(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """Section search when the quotient is a permutation lattice.

    A section is exactly a choice, per orbit, of a stabilizer-fixed
    preimage of the basepoint; each orbit is one integer solve, and an
    unsolvable orbit rules the section out.
    """
    B, C = seq.B, seq.C
    pi = seq.right.matrix
    cols: Dict[int, List[int]] = {}
    # stabilizer -> (basis F of its fixed points, None if trivial; solver of pi @ F)
    solvers: Dict[Tuple[int, ...], Tuple[Optional[IntMatrix], BasisSolver]] = {}
    for base, transversal in C.gset.orbit_transversal():
        stab = C.gset.stabilizer(base)
        target = [0] * C.rank
        target[base] = 1
        if stab.elements not in solvers:
            F = None if stab.order == 1 else fixed_sublattice(B, stab)
            solvers[stab.elements] = (F, BasisSolver(pi if F is None else pi @ F))
        F, solver = solvers[stab.elements]
        b = solver.express(target)
        if b is None:
            return None
        if F is not None:
            b = F.mul_vector(b)
        for p, g in transversal:
            cols[p] = B.action[g].mul_vector(b)
    matrix = IntMatrix.from_columns([cols[p] for p in range(C.rank)], rows=B.rank)
    section = EquivariantMap(C, B, matrix)
    section.validate()
    certify((pi @ matrix).is_identity(), "the section is a right inverse of the quotient map")
    return section


def _orbit_spanning_basis(C: GLattice) -> List[int]:
    """Indices l whose basis vectors e_l have G-orbits spanning C over Q:
    the l of the pivot columns of the orbit vectors g e_l, which are the
    leftmost ones independent over Q.

    An equivariant map out of C that vanishes on these orbits vanishes on
    a sublattice of full rank, hence on all of C.
    """
    n, r = C.group.order, C.rank
    # column l * n + g is g e_l, column l of the g-th matrix of the hstack
    stacked = IntMatrix.zeros(r, 0).hstack(*C.action)
    orbits = stacked.take_columns(g * r + l for l in range(r) for g in range(n))
    return sorted({j // n for j in pivot_columns(orbits)})


def find_section(seq: ShortExactSequence) -> Optional[EquivariantMap]:
    """An equivariant s: C -> B with right . s = id, or None when none exists.

    Permutation quotients split orbit by orbit.  Otherwise the sections
    are the equivariant maps that the quotient map sends to the identity:
    with h_k a Z-basis of Hom_G(C, B), a section exists exactly when
    vec(id) is an integer combination of the vec(right . h_k), which is
    one integer solve, decisive both ways.  Since right . s - id is
    equivariant, the equations on the columns of a few basis vectors whose
    orbits span C over Q decide it (see _orbit_spanning_basis).  The
    exactness report is the one the sequence already carries, if any.
    """
    report = check_exact(seq)
    if not report.ok:
        raise InvalidParameterError(f"sequence is not exact: {report.failures}")
    B, C = seq.B, seq.C
    pi = seq.right.matrix
    if C.gset is not None:
        return _find_section_orbitwise(seq)
    if B.gset is not None:
        homs = hom_basis_into_permutation(C, B)
    else:
        homs = hom_basis(C, B)
    c, k = C.rank, len(homs)
    stacked = IntMatrix.zeros(B.rank, 0).hstack(*homs)  # column j * c + l is column l of h_j
    J = _orbit_spanning_basis(C)
    # row t * c + i, column j: entry (i, J[t]) of right . h_j
    images = IntMatrix.zeros(0, k).vstack(
        *(pi @ stacked.take_columns(range(l, k * c, c)) for l in J)
    )
    # one equation per entry (i, l), l in J: sum_j x_j (right . h_j)[i, l] = id[i, l]
    equations = images.take_rows(t * c + i for i in range(c) for t in range(len(J)))
    x = BasisSolver(equations).express([int(i == l) for i in range(c) for l in J])
    if x is None:
        return None
    s_matrix = stacked @ IntMatrix.column(x).kron(IntMatrix.identity(c))  # sum_j x_j h_j
    section = EquivariantMap(C, B, s_matrix)
    section.validate()
    certify((pi @ s_matrix).is_identity(), "the section is a right inverse of the quotient map")
    return section


def split_iso_from_section(
    seq: ShortExactSequence, section: EquivariantMap
) -> EquivariantMap:
    """The unimodular iso A + C -> B assembled from inclusion and section.

    Its inverse is constructed explicitly, which certifies unimodularity;
    the iso keeps it, so ``inverse`` and ``is_unimodular`` read it back.
    """
    A, B, C = seq.A, seq.B, seq.C
    fwd_matrix = seq.left.matrix.hstack(section.matrix)
    fwd = EquivariantMap(direct_sum(A, C), B, fwd_matrix)
    back_top = BasisSolver(seq.left.matrix).express_matrix(
        IntMatrix.identity(B.rank) - section.matrix @ seq.right.matrix
    )
    certify(back_top is not None, "the section's complement lies in the inclusion's image")
    back = back_top.vstack(seq.right.matrix)
    certify((fwd_matrix @ back).is_identity(), "the split map has the constructed inverse")
    certify((back @ fwd_matrix).is_identity(), "the split map has the constructed inverse")
    fwd.validate()
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


def _subgroup_class_lookup(G: FiniteGroup) -> Dict[Tuple[int, ...], int]:
    """Map each subgroup's canonical conjugate to its representative index."""
    lookup: Dict[Tuple[int, ...], int] = {}
    for idx, rep in enumerate(subgroup_conjugacy_reps(G)):
        for g in G.elements():
            lookup[tuple(sorted(G.conjugate(g, h) for h in rep.elements))] = idx
    return lookup


def _orbit_count_solutions(M: GLattice) -> Optional[List[Tuple[int, ...]]]:
    """Candidate per-class orbit counts for a stable basis of M.

    A stable basis with n_H orbits of stabilizer class H satisfies
    rank M^K = sum_H n_H * #(K-orbits on G/H) for every subgroup class K.
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
    G = M.group
    reps = subgroup_conjugacy_reps(G)
    cosets = [coset_gset(G, H) for H in reps]
    table = [[len(pts.restrict_group(K).orbits()) for pts in cosets] for K in reps]
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


def is_permutation_bounded(M: GLattice, bound: int = 2) -> PermutationSearchOutcome:
    """Search for a G-stable basis among vectors with entries in [-B, B].

    Complete within the bound: a stable basis is a disjoint union of full
    orbits of box vectors, so orbits are enumerated and combined by
    backtracking.  Pruning uses only necessary conditions (orbit counts
    per stabilizer class, saturation of partial spans, orbit images in
    the coinvariant quotient), so a failed search is reported as
    exhausted, never as a disproof.
    """
    if bound < 1:
        raise InvalidParameterError("bound must be >= 1")
    r = M.rank
    if r == 0:
        return PermutationSearchOutcome(IntMatrix.zeros(0, 0), [], bound)
    if M.is_permutation_action():
        eye = IntMatrix.identity(r)
        orbits = _orbits_of_columns(M, eye)
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
    G = M.group
    reps = subgroup_conjugacy_reps(G)
    class_lookup = _subgroup_class_lookup(G)
    coinv = _coinvariant_projection(M)
    if options is not None:
        options = [c for c in options if sum(c) == coinv.rows]
        if not options:
            return PermutationSearchOutcome(
                None, [], bound, "coinvariant rank does not match any orbit count"
            )

    # enumerate primitive box vectors whose whole orbit stays in the box
    actions = [np.array(M.action[g].to_lists(), dtype=np.int64) for g in G.elements()]
    vectors = np.array(
        list(itertools.product(range(-bound, bound + 1), repeat=r)), dtype=np.int64
    )
    keep = ~(vectors == 0).all(axis=1)
    for mat in actions:
        keep &= (np.abs(vectors @ mat.T) <= bound).all(axis=1)
    pool_set = set()
    for v in vectors[keep]:
        tup = tuple(int(x) for x in v)
        g = 0
        for x in tup:
            g = gcd(g, abs(x))
        if g == 1:
            pool_set.add(tup)

    def saturated_cols(cols: List[Sequence[int]]) -> bool:
        return is_saturated_basis(IntMatrix.from_columns(cols, rows=len(cols[0])))

    # orbits, bucketed by stabilizer conjugacy class
    relevant = (
        None if options is None else [any(c[i] for c in options) for i in range(len(reps))]
    )
    per_class: List[List[dict]] = [[] for _ in reps]
    seen = set()
    for tup in sorted(pool_set, key=lambda v: (max(abs(x) for x in v), v)):
        if tup in seen:
            continue
        arr = np.array(tup, dtype=np.int64)
        stab = tuple(
            g for g in G.elements() if tuple(int(x) for x in actions[g] @ arr) == tup
        )
        orbit = sorted({tuple(int(x) for x in mat @ arr) for mat in actions})
        seen.update(orbit)
        if any(v not in pool_set for v in orbit):
            continue
        cls = class_lookup.get(stab)
        if cls is None or (relevant is not None and not relevant[cls]):
            continue
        if not saturated_cols(list(orbit)):
            continue
        image = coinv.mul_vector(list(tup))
        g = 0
        for x in image:
            g = gcd(g, abs(x))
        if g != 1:
            continue
        per_class[cls].append({"orbit": orbit, "image": image})

    budget = [SEARCH_NODE_BUDGET]
    chosen: List[dict] = []

    def extendable() -> bool:
        cols = [v for item in chosen for v in item["orbit"]]
        if not saturated_cols(cols):
            return False
        images = [item["image"] for item in chosen]
        return saturated_cols(images)

    def search_with_counts(counts: Sequence[int]) -> bool:
        if any(len(per_class[c]) < counts[c] for c in range(len(reps))):
            return False
        class_order = sorted(
            (c for c in range(len(reps)) if counts[c]),
            key=lambda c: (-reps[c].order, c),
        )

        def backtrack(ci: int, start: int, remaining: int) -> bool:
            if budget[0] <= 0:
                return False
            if remaining == 0:
                if ci + 1 == len(class_order):
                    return True
                return backtrack(ci + 1, 0, counts[class_order[ci + 1]])
            pool = per_class[class_order[ci]]
            for k in range(start, len(pool)):
                budget[0] -= 1
                if budget[0] <= 0:
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
        # unknown per-class counts: one flat pool, still orbit-structured
        pool = sorted(
            (item for cls_pool in per_class for item in cls_pool),
            key=lambda it: (len(it["orbit"]), it["orbit"]),
        )

        def backtrack(start: int, size: int) -> bool:
            if size == r:
                return True
            if budget[0] <= 0:
                return False
            for k in range(start, len(pool)):
                if size + len(pool[k]["orbit"]) > r:
                    continue
                budget[0] -= 1
                if budget[0] <= 0:
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
            if budget[0] <= 0:
                break
    if not ok:
        reason = (
            "node budget exhausted" if budget[0] <= 0 else "no stable basis within bound"
        )
        return PermutationSearchOutcome(None, [], bound, reason)
    cols = []
    orbits_out = []
    for item in chosen:
        first = len(cols)
        cols.extend(list(v) for v in item["orbit"])
        orbits_out.append(list(range(first, len(cols))))
    witness = IntMatrix.from_columns(cols, rows=r)
    certify(is_saturated_basis(witness), "witness must be unimodular")
    return PermutationSearchOutcome(witness, orbits_out, bound)


def _orbits_of_columns(M: GLattice, basis: IntMatrix) -> List[List[int]]:
    cols = {tuple(basis.col_list(j)): j for j in range(basis.cols)}
    seen = set()
    orbits = []
    for tup, j in sorted(cols.items(), key=lambda kv: kv[1]):
        if j in seen:
            continue
        orbit = sorted(
            {cols[tuple(M.action[g].mul_vector(list(tup)))] for g in M.group.elements()}
        )
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


# -- invertibility certificates ---------------------------------------------------


@dataclass
class InvertibilityCertificate:
    """M as an explicit direct summand of a permutation-induced sum."""

    subgroups: List[Subgroup]
    restriction_witnesses: List[PermutationSearchOutcome]
    embedding: EquivariantMap
    retraction: EquivariantMap


def invertibility_certificate(M: GLattice) -> Optional[InvertibilityCertificate]:
    """Certify M invertible via its Sylow subgroups, one for each prime
    dividing |G| (the whole group when G is trivial), or None.

    Their indices are coprime.  Each restriction must earn a permutation
    witness of bound 2 or 3; the split embedding into the sum of
    coset-lattice tensors is emitted with its retraction.  Absence of a
    certificate is never a disproof.
    """
    G = M.group
    subgroups = [sylow(G, p) for p, _ in prime_factorization(G.order)] or [whole_group(G)]
    indices = [H.index() for H in subgroups]
    certify(gcd(*indices) == 1, "Sylow subgroups have coprime indices")

    witnesses = []
    for H in subgroups:
        R = restrict(M, H)
        outcome = None
        for b in (2, 3):
            outcome = is_permutation_bounded(R, b)
            if outcome:
                break
        witnesses.append(outcome)
        if not outcome:
            return None

    coeffs = bezout_coefficients(indices)
    blocks = [tensor(coset_lattice(G, H), M) for H in subgroups]
    target = direct_sum_many(blocks)
    # block i is index(H_i) copies of M: a_i times the identity into each
    # copy, and the identity back from each
    eye = IntMatrix.identity(M.rank)
    emb = IntMatrix.zeros(0, M.rank).vstack(
        *(IntMatrix.column([a_i] * H.index()).kron(eye) for a_i, H in zip(coeffs, subgroups))
    )
    retr = IntMatrix.zeros(M.rank, 0).hstack(
        *(IntMatrix.from_rows([[1] * H.index()]).kron(eye) for H in subgroups)
    )
    embedding = EquivariantMap(M, target, emb).validate()
    retraction = EquivariantMap(target, M, retr).validate()
    certify((retr @ emb).is_identity(), "the retraction inverts the embedding")
    return InvertibilityCertificate(
        subgroups=list(subgroups),
        restriction_witnesses=witnesses,
        embedding=embedding,
        retraction=retraction,
    )
