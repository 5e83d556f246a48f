"""G-lattices: duals, sums, restriction, fixed points, norm maps,
equivariant homomorphisms and short exact sequences.

A lattice never claims an isomorphism from numerical coincidences: every
identification is carried by an explicit unimodular equivariant map.

A derived lattice makes each element's matrix when first read, and keeps
it.  Permutation lattices fill it from their G-set.  The action on an
invariant span has one maker, ``span_action``: a generator is solved for
(its basis reindexed by row when there is a G-set), any other element is
one product.  With a G-set, the H-orbit sums by least point are the
H-fixed vectors' canonical basis.  A direct sum is made in one step: the
permutation lattice of one disjoint union of G-sets, else block diagonal
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParameterError
from .groups import FiniteGroup, GSet, Subgroup, coset_gset, regular_gset
from .intlinalg import (
    BasisSolver,
    IntMatrix,
    cokernel_invariants,
    column_span_canonical,
    is_saturated_hermite,
    kernel_basis,
)


class _Action:
    """rho(g) is ``made[g]``, made by ``make(self, g)`` on first read (iterated
    through ``__getitem__``); ``make`` never refers to the lattice owning it."""

    __slots__ = ("rank", "_made", "_make")

    def __init__(self, rank: int, made: List[Optional[IntMatrix]], make=None):
        self.rank, self._made, self._make = rank, made, make

    def __getitem__(self, g: int) -> IntMatrix:
        m = self._made[g]
        if m is None:
            m = self._made[g] = self._make(self, g)
        return m

    def __setitem__(self, g: int, m: IntMatrix) -> None:
        self._made[g] = m

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


class GLattice:
    """A free Z-module of finite rank with a G-action by integer matrices.

    ``action[g]`` is rho(g).  A lattice built from caller-supplied matrices
    is validated at construction.  The constructors of this module derive
    their lattices from already-checked inputs, so those are correct by
    construction, skip the check (``_derived``) and make matrices on use.
    """

    def __init__(
        self,
        group: FiniteGroup,
        action: Sequence[IntMatrix],
        gset: Optional[GSet] = None,
        *,
        _derived: bool = False,
    ):
        self.group = group
        if not (_derived and isinstance(action, _Action)):
            action = list(action)
            if len(action) != group.order:
                raise InvalidParameterError("need one action matrix per group element")
            rank = action[0].rows
            if any(m.shape != (rank, rank) for m in action):
                raise InvalidParameterError("action matrices must be square of equal rank")
            action = _Action(rank, action)
        self.action, self.rank = action, action.rank
        self.gset = gset
        # fixed_sublattice results, keyed by the subgroup's elements
        self._fixed: Dict[Tuple[int, ...], IntMatrix] = {}
        if not _derived:
            self.validate()

    def validate(self) -> None:
        """Check that the action is a homomorphism on the group's generators.

        With rho(e) = I and rho(g s) = rho(g) rho(s) for every element g and
        every generator s, induction on the word length of h gives
        rho(g h) = rho(g) rho(h); then rho(g) rho(g^-1) = I makes every
        matrix unimodular.  A G-set must match on the generators too.
        """
        G = self.group
        if not self.action[G.identity].is_identity():
            raise InvalidParameterError("identity element must act as the identity matrix")
        for s in G.generators:
            for g in range(G.order):
                if self.action[G.table[g][s]] != self.action[g] @ self.action[s]:
                    raise InvalidParameterError(
                        f"action is not a homomorphism at elements ({g}, {s})"
                    )
        X = self.gset
        if X is not None and (X.group is not G or X.size != self.rank or any(
                self.action[s] != IntMatrix.unit_columns(X.size, X.action[s])
                for s in G.generators)):
            raise InvalidParameterError("G-set does not match the action on the generators")

    def is_permutation_action(self) -> bool:
        """Whether every generator acts by a permutation matrix: entries 0
        and 1, a single 1 per column (an invertible such matrix permutes).

        The action is a homomorphism, so then every element does too.
        """
        return all(
            col.count(1) == 1 and col.count(0) == len(col) - 1
            for s in self.group.generators
            for col in self.action[s].T.to_lists()
        )

    def __repr__(self) -> str:
        return f"GLattice(group={self.group.spec}, rank={self.rank})"


def lattices_equal(M: GLattice, N: GLattice) -> bool:
    """Exact equality: same group object, rank and generator matrices (homomorphisms)."""
    return M is N or (
        M.group is N.group
        and M.rank == N.rank
        and all(M.action[s] == N.action[s] for s in M.group.generators)
    )


@dataclass
class EquivariantMap:
    """A G-map between lattices, stored as a target.rank x source.rank matrix."""

    source: GLattice
    target: GLattice
    matrix: IntMatrix
    # the inverse matrix, once some construction has certified one
    _inverse: Optional[IntMatrix] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.source.group is not self.target.group:
            raise InvalidParameterError("equivariant map needs a common group")
        if self.matrix.shape != (self.target.rank, self.source.rank):
            raise InvalidParameterError(
                f"matrix shape {self.matrix.shape} does not match "
                f"({self.target.rank}, {self.source.rank})"
            )

    def equivariance_failure(self) -> Optional[int]:
        """First generator where target_action @ F != F @ source_action.

        Generators suffice because both actions are homomorphisms:
        commutation propagates along products.
        """
        for g in self.source.group.generators:
            if self.target.action[g] @ self.matrix != self.matrix @ self.source.action[g]:
                return g
        return None

    def validate(self) -> "EquivariantMap":
        g = self.equivariance_failure()
        if g is not None:
            raise InvalidParameterError(f"map is not equivariant at element {g}")
        return self

    def compose(self, inner: "EquivariantMap") -> "EquivariantMap":
        """self after inner (source of self must equal target of inner)."""
        if not lattices_equal(self.source, inner.target):
            raise InvalidParameterError("composition mismatch")
        out = EquivariantMap(inner.source, self.target, self.matrix @ inner.matrix)
        if self._inverse is not None and inner._inverse is not None:
            out._inverse = inner._inverse @ self._inverse
        return out

    def inverse(self) -> "EquivariantMap":
        """The inverse a construction certified (``split_iso``, ``inverse``
        or ``compose`` of two such maps); no other map is inverted."""
        inv = self._inverse
        if inv is None:
            raise InvalidParameterError("map was not constructed with an inverse")
        out = EquivariantMap(self.target, self.source, inv)
        out._inverse = self.matrix
        return out


@dataclass
class ShortExactSequence:
    """0 -> A -> B -> C -> 0 carried by two equivariant maps, and optionally
    the maker of a section of the right map, which returns its matrix, or
    None with no section: a pullback row and an edge removal are made with
    one, and ``cohom.split_iso`` calls it."""

    left: EquivariantMap   # A -> B
    right: EquivariantMap  # B -> C
    section: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not lattices_equal(self.left.target, self.right.source):
            raise InvalidParameterError("sequence maps do not share the middle lattice")

    @property
    def A(self) -> GLattice:
        return self.left.source

    @property
    def B(self) -> GLattice:
        return self.left.target

    @property
    def C(self) -> GLattice:
        return self.right.target


@dataclass
class ExactnessReport:
    ok: bool
    failures: List[str]


def check_exact(seq: ShortExactSequence) -> ExactnessReport:
    """Verify all short-exact-sequence invariants; name the first failures.

    The image of the left map equals the kernel of the right map exactly
    when right . image = 0, the image has the kernel's rank
    B.rank - rank(right), and the image is saturated: a saturated lattice
    inside the kernel with its rank is the whole kernel.  The rank of the
    right map is read off its cokernel, and saturation off the canonical
    basis of the image, so no kernel is computed.  Not cached: split_iso
    calls it only to explain a split it could not certify.
    """
    failures = []
    if seq.A.rank + seq.C.rank != seq.B.rank:
        failures.append(
            f"rank mismatch: {seq.A.rank} + {seq.C.rank} != {seq.B.rank}"
        )
    image = column_span_canonical(seq.left.matrix)
    if image.cols != seq.left.matrix.cols:
        failures.append("left map is not injective")
    factors, free = cokernel_invariants(seq.right.matrix)
    if factors or free:
        failures.append(
            f"right map is not surjective (cokernel factors={factors}, free rank={free})"
        )
    kernel_rank = seq.B.rank - (seq.C.rank - free)
    if not (
        image.cols == kernel_rank
        and (seq.right.matrix @ image).is_zero()
        and is_saturated_hermite(image)
    ):
        failures.append("image of left map differs from kernel of right map")
    for label, m in (("left", seq.left), ("right", seq.right)):
        g = m.equivariance_failure()
        if g is not None:
            failures.append(f"{label} map not equivariant at element {g}")
    return ExactnessReport(not failures, failures)


# -- permutation-type constructors -------------------------------------------


def permutation_lattice(G: FiniteGroup, gset: GSet) -> GLattice:
    """Z-basis indexed by the G-set points, permuted by the action."""
    if gset.group is not G:
        raise InvalidParameterError("invalid-gset: G-set belongs to a different group")
    action = _Action(
        gset.size, [None] * G.order, lambda _, g: IntMatrix.unit_columns(gset.size, gset.action[g])
    )
    return GLattice(G, action, gset=gset, _derived=True)


def regular(G: FiniteGroup) -> GLattice:
    return permutation_lattice(G, regular_gset(G))


def coset_lattice(G: FiniteGroup, H: Subgroup) -> GLattice:
    return permutation_lattice(G, coset_gset(G, H))


def orbit_map(P: GLattice, B: GLattice, images: IntMatrix) -> IntMatrix:
    """The matrix of the G-map from P, a lattice with a G-set, to B sending the
    basepoint (least point) of orbit i to column i of images, which its
    stabilizer must fix, and h p to h images_i: one product per element h."""
    orbits = P.gset.orbit_transversal()
    moved: Dict[int, int] = {}  # element -> its block among the moved images
    column = [0] * P.rank
    for i, (_, transversal) in enumerate(orbits):
        for p, h in transversal:
            column[p] = moved.setdefault(h, len(moved)) * len(orbits) + i
    blocks = IntMatrix.zeros(B.rank, 0).hstack(*(B.action[h] @ images for h in moved))
    return blocks.take_columns(column)


def trivial(G: FiniteGroup) -> GLattice:
    return GLattice(G, [IntMatrix.identity(1)] * G.order, _derived=True)


# -- functorial operations -----------------------------------------------------


def dual(M: GLattice) -> GLattice:
    """Dual lattice: action of g becomes the transpose of the action of g^-1."""
    G = M.group
    action = _Action(M.rank, [None] * G.order, lambda _, g: M.action[G.inverses[g]].T)
    return GLattice(G, action, _derived=True)


def direct_sum(M: GLattice, N: GLattice) -> GLattice:
    return direct_sum_many([M, N])


def direct_sum_many(lattices: Sequence[GLattice]) -> GLattice:
    if not lattices:
        raise InvalidParameterError("empty direct sum")
    G = lattices[0].group
    if any(M.group is not G for M in lattices):
        raise InvalidParameterError("direct sum needs a common group")
    if all(M.gset is not None for M in lattices):
        first, *rest = (M.gset for M in lattices)
        return permutation_lattice(G, first.disjoint_union(*rest))
    action = _Action(sum(M.rank for M in lattices), [None] * G.order,
                     lambda _, g: IntMatrix.block_diagonal([M.action[g] for M in lattices]))
    return GLattice(G, action, _derived=True)


def restrict(M: GLattice, H: Subgroup) -> GLattice:
    """The same module seen as a lattice over the subgroup."""
    if H.parent is not M.group:
        raise InvalidParameterError("subgroup belongs to a different group")
    Hgrp, embed = H.as_group()
    action = _Action(M.rank, [None] * Hgrp.order, lambda _, h: M.action[embed[h]])
    return GLattice(Hgrp, action, _derived=True)


def fixed_sublattice(M: GLattice, H: Subgroup) -> IntMatrix:
    """Saturated column basis of the H-fixed vectors of M, in column Hermite form.

    The H-orbit sums with a G-set (module docstring), else the kernel of the
    h - 1 over H's generators h; computed once per lattice and subgroup.
    """
    if H.parent is not M.group:
        raise InvalidParameterError("subgroup belongs to a different group")
    fixed = M._fixed.get(H.elements)
    if fixed is None:
        gens = H.generators()
        if M.gset is not None:
            fixed = IntMatrix.from_sparse_columns(M.rank, [dict.fromkeys(o, 1) for o in M.gset.orbits(H)])
        elif not gens:
            fixed = IntMatrix.identity(M.rank)
        else:
            eye = IntMatrix.identity(M.rank)
            stacked = IntMatrix.zeros(0, M.rank).vstack(*(M.action[h] - eye for h in gens))
            fixed = kernel_basis(stacked)
        M._fixed[H.elements] = fixed
    return fixed


def norm_matrix(M: GLattice, H: Subgroup) -> IntMatrix:
    """Sum of the action matrices over the subgroup."""
    if H.parent is not M.group:
        raise InvalidParameterError("subgroup belongs to a different group")
    total = IntMatrix.zeros(M.rank, M.rank)
    for h in H.elements:
        total = total + M.action[h]
    return total


def span_action(M: GLattice, solver: BasisSolver) -> _Action:
    """The action on an invariant saturated span in M, in the coordinates of
    its basis B = ``solver.basis``: each matrix made when first read.

    A generator s is solved for, M(s) B = B rho(s); with a G-set on M, each
    nonzero column of B, read once, is moved by ``GSet.move`` instead of
    multiplied.  A span that s moves out of itself raises, naming s.  Any
    other element is rho(a s) = rho(a) rho(s), one product each, along the
    breadth-first search of FiniteGroup.closure.  This is exact and rho is a
    homomorphism, because M is one and B is injective; that is why a basis
    without full column rank is refused.
    """
    if solver.rank != solver.cols:
        raise InvalidParameterError("basis columns are not linearly independent")
    G, gens = M.group, set(M.group.generators)
    columns = parent = None

    def make(action, g):
        nonlocal columns, parent
        if g == G.identity:
            return IntMatrix.identity(solver.cols)
        if g in gens:
            if M.gset is None:
                m = solver.express_matrix(M.action[g] @ solver.basis)
            else:
                columns = columns or solver.basis.column_nonzeros()
                m = solver.express_columns([M.gset.move(g, col) for col in columns])
            if m is None:
                raise InvalidParameterError(f"column span is not invariant under element {g}")
            return m
        if parent is None:  # c -> (a, s), c = a s
            parent, queue = {G.identity: None}, [G.identity]
            for a in queue:
                for s in G.generators:
                    if G.table[a][s] not in parent:
                        parent[G.table[a][s]] = (a, s)
                        queue.append(G.table[a][s])
        path = [g]  # multiply down from the nearest element made, or a generator
        while action._made[parent[path[-1]][0]] is None and parent[path[-1]][0] not in gens:
            path.append(parent[path[-1]][0])
        for c in reversed(path):
            action[c] = action[parent[c][0]] @ action[parent[c][1]]
        return action[g]

    return _Action(solver.cols, [None] * G.order, make)


def sublattice_with_action(
    M: GLattice, basis: IntMatrix, solver: Optional[BasisSolver] = None
) -> Tuple[GLattice, EquivariantMap]:
    """The lattice on an invariant saturated column span, in the given basis,
    with its inclusion into M.  Its action is ``span_action``'s, with every
    generator read here, so a span that is not G-invariant raises now (and
    invariance under the generators is invariance under every element).  A
    caller that already holds a BasisSolver of the basis may pass it."""
    action = span_action(M, solver or BasisSolver(basis))
    for s in M.group.generators:
        action[s]
    sub = GLattice(M.group, action, _derived=True)
    return sub, EquivariantMap(sub, M, basis)


def augmentation_map(P: GLattice) -> EquivariantMap:
    """Sum-of-coordinates map from a permutation lattice onto Z."""
    if not P.is_permutation_action():
        raise InvalidParameterError("augmentation needs a permutation lattice")
    ones = IntMatrix.from_rows([[1] * P.rank])
    return EquivariantMap(P, trivial(P.group), ones)


def augmentation_kernel(P: GLattice) -> Tuple[GLattice, EquivariantMap]:
    """The augmentation-zero sublattice with its inclusion map, whose
    matrix is the canonical (column Hermite) basis of the kernel.

    >>> from glattice.groups import cyclic
    >>> C3 = cyclic(3)
    >>> I, _ = augmentation_kernel(regular(C3))
    >>> s = I.action[C3.generators[0]]
    >>> print(s)
    [-1 -1]
    [1 0]
    >>> I.rank, (s @ s @ s).is_identity()
    (2, True)
    """
    eps = augmentation_map(P)
    basis = kernel_basis(eps.matrix)
    return sublattice_with_action(P, basis)
