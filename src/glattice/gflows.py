"""G-graphs, boundary maps, flow lattices, their boundary sequences and
spanning-tree bases, and the edge-removal isomorphism between flow
lattices, the split (``cohom.split_iso``) of the restriction of flows to
the removed edges, onto their permutation lattice.

Every G-graph is built from its vertex G-set, its edges and an explicit
edge action, checked on the generators against the vertex action.  Every
cycle is walked one way, pinned for determinism: ``fundamental_cycles``
closes each edge it is given, by default every edge outside a spanning
edge set, through the breadth-first tree of the set from vertex 0,
scanning edges in listed order.  Every flow basis is certified one way,
by its triangular +-1 minor on the non-tree edges:
``spanning_tree_basis``, or ``spanning_tree_basis_of_arrays`` for
candidates in padded arrays.  Every edge vector (a candidate, a cycle,
a circular flow) is a ``Flow``, the map of its nonzero coefficients by
edge, so certifying a basis costs time in its nonzeros, and flows are solved for by ``express_columns`` of the
lattice's solver; the dense basis matrix is made from the basis flows
only when first read.  Caller numbers (edge endpoints, generators, tree
and spanning edges, candidate edges and coefficients, edge indices)
enter through ``operator.index``, so a float is refused, not truncated.
A flow lattice is a G-lattice that keeps its graph and the solver of its
basis: each action matrix is solved for when first read, so a caller
that needs only the basis or the rank makes no solve.

A graph keeps its edges as one read-only (n_edges, 2) int64 array
(``GGraph.edge_array``), the original of the list ``GGraph.edges``; they
enter through the intake of ``groups``, ``_int64_table``, as the edge
action does through its G-set.  The endpoint check is one fancy-index
comparison of the moved endpoints over the generators, and
``cayley_graph`` and ``complete_edges`` make the edges and edge action
with one broadcast of the group or vertex table.  The certificate of
``spanning_tree_basis_of_arrays`` reads the candidates as (candidate,
edge, coefficient) columns, their flow condition one scatter-add;
``spanning_tree_basis`` reads its flows entry by entry.  Both refuse
alike, first failure first.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .cohom import split_iso
from .errors import GlatticeError, InvalidParameterError, certify
from .gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    augmentation_kernel,
    permutation_lattice,
    span_action,
)
from .groups import (
    FiniteGroup,
    GSet,
    Subgroup,
    _int64_table,
    _read_only,
    regular_gset,
)
from .intlinalg import BasisSolver, IntMatrix


Flow = Dict[int, int]  # a sparse edge vector: {edge: nonzero coefficient}


class SpanningTreeBasisError(GlatticeError):
    """Candidate flows failed the triangular basis certification."""


class GGraph:
    """A finite directed multigraph with a compatible group action: the
    permutation of the edges by each element is given with the edges."""

    def __init__(self, vertices: GSet, edges: Sequence[Tuple[int, int]],
                 edge_action: Sequence[Sequence[int]]):
        self.vertices = vertices
        self.group = vertices.group
        ends = _int64_table(edges)
        if not len(ends):  # no edges
            ends = ends.reshape(0, 2)
        if ends.shape[1] != 2:
            raise InvalidParameterError("an edge is not a (source, target) pair")
        if np.count_nonzero(ends.view(np.uint64) >= vertices.size):  # a negative as uint64 is past 2**63
            raise InvalidParameterError("edge endpoint out of range")
        # the edge G-set checks that the edge action is a homomorphism
        self.edge_gset = GSet(self.group, edge_action)
        if self.edge_gset.size != len(ends):
            raise InvalidParameterError("edge action entries are not permutations")
        self.edge_array = _read_only(ends)
        self.edges = list(map(tuple, ends.tolist()))
        self._components: Optional[List[Tuple[int, ...]]] = None
        # endpoints move with the vertices: on the generators, since both
        # actions are homomorphisms; edge g e against (g source, g target)
        gens = list(self.group.generators)
        images = self.edge_gset.action_array.take(gens, axis=0)
        bad = ends.take(images, axis=0) != vertices.action_array.take(gens, axis=0).take(ends, axis=1)
        if np.count_nonzero(bad):
            bad = bad.any(axis=2)  # (generator, edge)
            j = int(bad.any(axis=1).argmax())
            raise InvalidParameterError(
                f"edge action incompatible with vertex action at g={gens[j]}, edge={int(bad[j].argmax())}"
            )

    @property
    def n_vertices(self) -> int:
        return self.vertices.size

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def components(self) -> List[Tuple[int, ...]]:
        """Connected components of the underlying undirected graph."""
        if self._components is None:
            comps: List[Tuple[int, ...]] = []
            seen: set = set()
            for v0 in range(self.n_vertices):
                if v0 not in seen:
                    prev = _bfs(self, v0)
                    comps.append(tuple(v for v, p in enumerate(prev) if p or v == v0))
                    seen.update(comps[-1])
            self._components = comps
        return self._components

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def edge_index(self) -> Dict[Tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.edges)}

    def edge_lattice(self) -> GLattice:
        return permutation_lattice(self.group, self.edge_gset)

    def vertex_lattice(self) -> GLattice:
        return permutation_lattice(self.group, self.vertices)

    def edge_orbits(self) -> List[Tuple[int, ...]]:
        return self.edge_gset.orbits()

    def __repr__(self) -> str:
        return (
            f"GGraph(group={self.group.spec}, |V|={self.n_vertices}, |E|={self.n_edges})"
        )


def complete_edges(vertices: GSet, loops: bool = False) -> GGraph:
    """All ordered pairs of vertices (distinct unless loops are requested).

    On n vertices the edge (u, v) is numbered u n + v with loops, and
    u (n - 1) + v - [v > u] without, so g moves it to the number of
    (g u, g v).

    >>> from glattice.groups import cyclic
    >>> X = complete_edges(regular_gset(cyclic(3)))
    >>> X.edges
    [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    >>> X.edges[X.edge_gset.action[1][1]]  # s moves (0, 2) to (s 0, s 2)
    (1, 0)
    """
    n = vertices.size
    if n == 0:
        raise InvalidParameterError("vertex set must be nonempty")
    # row g of the action numbers the edge (g u, g v) of each edge (u, v)
    ends = np.stack(np.divmod(np.arange(n * n), n), axis=1)  # (u, v) in edge order
    if not loops:
        ends = ends[ends[:, 0] != ends[:, 1]]
    a, b = (vertices.action_array[:, ends[:, i]] for i in (0, 1))
    action = a * n + b if loops else a * (n - 1) + b - (b > a)
    return GGraph(vertices, ends, action)


def cayley_graph(G: FiniteGroup, generators: Sequence[int]) -> GGraph:
    """Directed Cayley graph: vertices G under left translation, edges g -> gs.

    The edge (g, gs) has degree s; the identity produces self loops.
    Connected exactly when the generators generate G (see is_connected).
    """
    gens = []
    for s in generators:
        s = operator.index(s)
        if not 0 <= s < G.order:
            raise InvalidParameterError(f"generator index {s} out of range")
        if s not in gens:
            gens.append(s)
    n, m = G.order, len(gens)
    # edge k n + g is (g, g s_k), and h moves it to (h g, h g s_k), edge k n + h g
    table = G.table_array
    ends = np.empty((m, n, 2), dtype=np.int64)
    ends[:, :, 0] = np.arange(n)
    ends[:, :, 1] = table.T[gens]
    action = (table[:, None, :] + n * np.arange(m)[:, None]).reshape(n, m * n)
    return GGraph(regular_gset(G), ends.reshape(m * n, 2), action)


def boundary_matrix(X: GGraph) -> EquivariantMap:
    """The map ZE -> ZV sending an edge to target minus source (loops to 0)."""
    heads = IntMatrix.unit_columns(X.n_vertices, [t for _, t in X.edges])
    m = heads - IntMatrix.unit_columns(X.n_vertices, [s for s, _ in X.edges])
    return EquivariantMap(X.edge_lattice(), X.vertex_lattice(), m)


class FlowLattice(GLattice):
    """The kernel of the boundary map: a G-lattice in the basis of the flows
    that keeps its graph and the BasisSolver of that basis, ``basis``.

    Its rank is the solver's column count, so reading it makes no basis
    matrix, and its action is ``span_action`` on Z[E], each matrix solved
    for when first read.  None is read at construction: the one
    certificate, ``spanning_tree_basis``, proves by its triangular +-1
    minor on the non-tree edges that the basis spans the whole kernel of
    the boundary map, and the boundary is equivariant, since GGraph checks
    the edge action against the vertex action, so its kernel is G-stable.
    A caller that builds a FlowLattice from another basis gets the error of
    ``sublattice_with_action`` when it reads a matrix that leaves the span.
    """

    def __init__(self, graph: GGraph, solver: BasisSolver):
        super().__init__(graph.group, span_action(graph.edge_lattice(), solver), _derived=True)
        self.graph, self.solver = graph, solver

    @property
    def basis(self) -> IntMatrix:  # the flows in Z[E]: the inclusion's matrix
        return self.solver.basis

    def boundary_sequence(self) -> ShortExactSequence:
        """0 -> Fl -> Z[E] -> I_V -> 0: the flows in the edges, and the
        boundary onto the augmentation sublattice I_V of Z[V], in its
        canonical basis.  Every boundary sums to 0, which is certified."""
        bd = boundary_matrix(self.graph)
        I_lat, I_incl = augmentation_kernel(bd.target)
        coords = BasisSolver(I_incl.matrix).express_matrix(bd.matrix)
        certify(coords is not None, "the boundary lands in the augmentation sublattice")
        return ShortExactSequence(
            EquivariantMap(self, bd.source, self.basis),
            EquivariantMap(bd.source, I_lat, coords),
        )

    def __repr__(self) -> str:
        return f"FlowLattice(rank={self.rank}, graph={self.graph!r})"


def flow_lattice(X: GGraph) -> FlowLattice:
    """Flow lattice of a connected G-graph (empty or disconnected graphs rejected).

    Its basis is the fundamental cycles of Kruskal's tree taken from the
    last edge backwards, certified by ``spanning_tree_basis``.  On that tree
    each non-tree edge is the first edge of its cycle and in no other, so
    in edge order the cycles are already the column Hermite form: the
    canonical basis of the boundary's kernel, its own solver with the
    non-tree edges as pivots.
    """
    if X.n_vertices == 0:
        raise InvalidParameterError("graph has no vertices")
    if not X.is_connected():
        raise InvalidParameterError(
            f"graph is disconnected; components: {X.components()}"
        )
    root, tree = list(range(X.n_vertices)), set()
    for e in reversed(range(X.n_edges)):
        a, b = (_find(root, v) for v in X.edges[e])
        if a != b:
            root[a] = b
            tree.add(e)
    return spanning_tree_basis(X, tree, list(fundamental_cycles(X, tree).values()))


# -- search trees and fundamental cycles ---------------------------------------------


def _find(root: List[int], x: int) -> int:
    """The representative of x in a union-find forest."""
    while root[x] != x:
        x = root[x]
    return x


def _bfs(
    X: GGraph, src: int, allowed_edges: Optional[Sequence[int]] = None
) -> List[Optional[Tuple[int, int]]]:
    """Undirected BFS from src over the allowed edges, scanning edges in listed order.

    Returns, per vertex, the (edge, sign) it was first reached by, with
    sign +1 when the edge was traversed forward; None for src and for the
    vertices not reached.
    """
    incident: List[List[int]] = [[] for _ in range(X.n_vertices)]
    for e in range(X.n_edges) if allowed_edges is None else allowed_edges:
        s, t = X.edges[e]
        incident[s].append(e)
        if t != s:
            incident[t].append(e)
    prev: List[Optional[Tuple[int, int]]] = [None] * X.n_vertices
    seen = [False] * X.n_vertices
    seen[src] = True
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for e in incident[v]:
            s, t = X.edges[e]
            w = t if s == v else s
            if not seen[w]:
                seen[w] = True
                prev[w] = (e, 1 if s == v else -1)
                queue.append(w)
    return prev


def _edges_outside(X: GGraph, edges: Iterable[int]) -> List[int]:
    """The edges of X not among the given ones, in edge order."""
    inside = set(edges)
    return [e for e in range(X.n_edges) if e not in inside]


def fundamental_cycles(
    X: GGraph, spanning: Iterable[int], closing: Optional[Iterable[int]] = None
) -> Dict[int, Flow]:
    """The cycle of each closing edge, by default each edge outside the
    spanning set, keyed by edge in the order given: the edge forward,
    closed by the path between its ends in the breadth-first tree from
    vertex 0 of a connected spanning edge set.  Over a tree that path is
    the only one, and a closing edge on the tree closes to 0.

    >>> from glattice.groups import cyclic
    >>> X = cayley_graph(cyclic(3), [1])  # the triangle 0 -> 1 -> 2 -> 0
    >>> fundamental_cycles(X, [0, 1])
    {2: {2: 1, 1: 1, 0: 1}}
    >>> fundamental_cycles(X, [0, 1, 2], [1, 2])  # the tree is edges 0 and 2
    {1: {1: 1, 0: 1, 2: 1}, 2: {}}
    """
    inside = set(map(operator.index, spanning))
    if inside and not (min(inside) >= 0 and max(inside) < X.n_edges):
        raise InvalidParameterError("spanning edge out of range")
    if closing is None:
        closing = _edges_outside(X, inside)
    else:
        closing = list(map(operator.index, closing))
        if closing and not (min(closing) >= 0 and max(closing) < X.n_edges):
            raise InvalidParameterError("closing edge out of range")
    prev = _bfs(X, 0, sorted(inside))
    if None in prev[1:]:
        raise InvalidParameterError("edge set does not span the graph")
    # the path t -> s is the tree path from the root to s less the one to t
    cycles: Dict[int, Flow] = {}
    for e in closing:
        vec = {e: 1}
        for v, c in ((X.edges[e][0], 1), (X.edges[e][1], -1)):
            while prev[v] is not None:
                f, sign = prev[v]
                vec[f] = vec.get(f, 0) + c * sign
                v = X.edges[f][0] if sign == 1 else X.edges[f][1]
        cycles[e] = {f: c for f, c in vec.items() if c}
    return cycles


def spanning_tree_basis(
    X: GGraph, tree_edges: Iterable[int], candidates: Sequence[Mapping[int, int]]
) -> FlowLattice:
    """Certify candidate flows as a basis via the triangular-tree criterion.

    Each candidate is a ``Flow``: its coefficients by edge, where a missing
    edge or a coefficient 0 means 0.  The matrix of candidate values on the
    non-tree edges (in listed edge order) must be upper triangular with +-1
    on the diagonal (the first non-tree edge where candidate i is nonzero
    is the i-th: the solver's invariant).  Raises SpanningTreeBasisError
    with a diagnostic otherwise.  The criterion proves a Z-basis of the
    flows: a flow is determined by its values on the non-tree edges, and
    that minor is unimodular.  So the lattice is built without a second
    span check, and it is its own solver.  These checks read only the
    nonzero coefficients, and the solver makes the dense basis matrix only
    when it is first read.  A tree edge out of range is refused.
    """
    non_tree = _non_tree_edges(X, tree_edges, len(candidates))
    return _tree_basis_by_entries(X, non_tree, [cand.items() for cand in candidates])


def spanning_tree_basis_of_arrays(
    X: GGraph, tree_edges: Iterable[int], edges: np.ndarray, coefficients: np.ndarray
) -> FlowLattice:
    """``spanning_tree_basis`` of candidates given as padded (count, k)
    integer arrays: candidate i is coefficient [i, j] on edge [i, j],
    summed over j, so a padding entry is coefficient 0 on any edge.

    The candidates are certified as (candidate, edge, coefficient) columns
    by ``_tree_basis_by_columns``.  Integer arrays enter as they are; the
    entries of other arrays go through ``operator.index`` before entries
    on one edge add, so a float edge is refused, not merged.
    """
    non_tree = _non_tree_edges(X, tree_edges, len(edges))
    candidate = np.repeat(np.arange(len(edges)), edges.shape[1])
    return _tree_basis_by_columns(X, non_tree, candidate, edges, coefficients)


def _entries(a: np.ndarray) -> Tuple[np.ndarray, int]:
    """The entries of an array in row order: int64 from a signed integer
    array, else Python ints in an object array, each entry through
    ``operator.index``, with 0 for each entry it refuses; and the position
    of the first such entry (the entry count when there is none)."""
    if a.dtype.kind == "i":
        return a.astype(np.int64).ravel(), a.size
    values, first = [], a.size
    for p, x in enumerate(a.ravel().tolist()):
        try:
            values.append(operator.index(x))
        except TypeError:
            values.append(0)
            first = min(first, p)
    return np.array(values, dtype=object), first


def _non_tree_edges(X: GGraph, tree_edges: Iterable[int], count: int) -> List[int]:
    """The edges off a spanning tree of X, in edge order, once the tree is
    checked (in range, |V| - 1 edges and acyclic in the undirected sense,
    so each edge joins two components and the tree spans) and there is one
    of the count candidates for each."""
    tree = sorted(set(map(operator.index, tree_edges)))
    if tree and not (tree[0] >= 0 and tree[-1] < X.n_edges):
        raise InvalidParameterError("spanning edge out of range")
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
    non_tree = _edges_outside(X, tree)
    if count != len(non_tree):
        raise SpanningTreeBasisError(
            f"need {len(non_tree)} candidate flows (one per non-tree edge), got {count}"
        )
    return non_tree


def _tree_basis_by_entries(
    X: GGraph, non_tree: List[int], candidates: Sequence[Iterable[Tuple[int, int]]]
) -> FlowLattice:
    """The triangular-tree certificate entry by entry, on candidates given
    as (edge, coefficient) entries, where entries on one edge add: each
    entry through ``operator.index`` and its edge's range before it is
    added, then the flow condition of its candidate, candidate by
    candidate; then the +-1 diagonal and the first non-tree position of
    each candidate, in candidate order."""
    position = {e: j for j, e in enumerate(non_tree)}
    r = len(non_tree)
    cols: List[Flow] = []
    first = []  # each candidate's smallest nonzero non-tree position
    edges, n_edges = X.edges, X.n_edges
    for i, cand in enumerate(candidates):
        vec: Flow = {}
        net: Dict[int, int] = {}  # the boundary of vec
        for e, c in cand:
            e, c = operator.index(e), operator.index(c)
            if not 0 <= e < n_edges:
                raise InvalidParameterError(f"candidate {i} has edge {e} out of range")
            if c:
                vec[e] = vec.get(e, 0) + c
                s, t = edges[e]
                net[t] = net.get(t, 0) + c
                net[s] = net.get(s, 0) - c
        if any(net.values()):
            raise InvalidParameterError(f"candidate {i} violates the flow condition")
        if 0 in vec.values():  # entries on one edge cancelled
            vec = {e: c for e, c in vec.items() if c}
        cols.append(vec)
        first.append(min((position[e] for e in vec if e in position), default=r))
    for i in range(r):
        d = cols[i].get(non_tree[i], 0)
        if d not in (1, -1) or first[i] < i:
            _check_pivot(non_tree, i, d, first[i])
    return FlowLattice(X, BasisSolver._of_triangular(n_edges, non_tree, cols))


def _check_pivot(non_tree: List[int], i: int, diagonal: int, first: int) -> None:
    """Refuse candidate i unless its diagonal entry is +-1 and its first
    nonzero non-tree position is not before i."""
    if diagonal not in (1, -1):
        raise SpanningTreeBasisError(
            f"diagonal entry f_{i}(e_{non_tree[i]}) = {diagonal} is not +-1"
        )
    if first < i:
        raise SpanningTreeBasisError(
            f"matrix not upper triangular: f_{i}(e_{non_tree[first]}) != 0"
        )


def _tree_basis_by_columns(
    X: GGraph, non_tree: List[int], candidate: np.ndarray, edges: np.ndarray, coefficients: np.ndarray
) -> FlowLattice:
    """``_tree_basis_by_entries`` on the entries of padded edge and
    coefficient arrays, with the candidate of each entry in increasing
    order, where entries on one edge add: the same refusals in the same
    order.

    The entry faults come first: the first entry whose edge or coefficient
    ``operator.index`` refuses, or whose edge is out of range, is refused
    after the flow condition of the candidates before its own.  The flow
    condition is one scatter-add over (candidate, vertex), in int64 when
    the largest coefficient times twice the entry count is below 2**63,
    else in Python ints.  One sort of (candidate, edge) keys orders the
    entries and adds those on one edge; one scatter-min gives each
    candidate's first nonzero non-tree position, read with the diagonal
    entries to refuse the first failing candidate as the per-entry form
    does.
    """
    r, n_edges = len(non_tree), X.n_edges
    (edge, bad_edge), (coef, bad_coef) = _entries(edges), _entries(coefficients)
    big = max(-int(coef.min()), int(coef.max())) if len(coef) else 0
    coef = coef.astype(np.int64 if big * 2 * len(coef) < 1 << 63 else object)
    stop = min(bad_edge, bad_coef)
    outside = (edge[:stop] < 0) | (edge[:stop] >= n_edges)
    p = int(outside.argmax()) if outside.any() else stop
    if p < len(edge):
        before = candidate < candidate[p]
        _check_flows(X, r, candidate[before], edge[before].astype(np.int64), coef[before])
        if p == stop:  # raises the TypeError of the edge, else of the coefficient
            operator.index(edges.item(p)), operator.index(coefficients.item(p))
        raise InvalidParameterError(f"candidate {candidate[p]} has edge {edge[p]} out of range")
    edge = edge.astype(np.int64)
    _check_flows(X, r, candidate, edge, coef)

    key = candidate * n_edges + edge
    order = np.argsort(key)
    key, coef = key[order], coef[order]
    if (key[1:] == key[:-1]).any():  # entries on one edge add
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        key, coef = key[starts], np.add.reduceat(coef, starts)
    nonzero = coef != 0
    candidate, edge = np.divmod(key[nonzero], n_edges)
    coef = coef[nonzero]

    position = np.full(n_edges, r, dtype=np.int64)  # r off the non-tree edges
    position[non_tree] = np.arange(r)
    pos = position[edge]
    first = np.full(r, r, dtype=np.int64)
    np.minimum.at(first, candidate, pos)
    diagonal = np.zeros(r, dtype=coef.dtype)
    on_diagonal = pos == candidate
    diagonal[candidate[on_diagonal]] = coef[on_diagonal]
    failing = (first < np.arange(r)) | (diagonal != 1) & (diagonal != -1)
    if failing.any():
        i = int(failing.argmax())
        _check_pivot(non_tree, i, int(diagonal[i]), int(first[i]))

    cols: List[Flow] = [{} for _ in range(r)]
    for i, e, c in zip(candidate.tolist(), edge.tolist(), coef.tolist()):
        cols[i][e] = c
    return FlowLattice(X, BasisSolver._of_triangular(n_edges, non_tree, cols))


def _check_flows(X: GGraph, r: int, candidate: np.ndarray, edge: np.ndarray, coef: np.ndarray) -> None:
    """Refuse the first of r candidates, given by columns with edges in
    range, whose boundary is not 0: one scatter-add of +c at the target and
    -c at the source of every entry, over (candidate, vertex)."""
    ends, n = X.edge_array, X.n_vertices
    net = np.zeros(r * n, dtype=coef.dtype)
    np.add.at(net, candidate * n + ends[edge, 1], coef)
    np.subtract.at(net, candidate * n + ends[edge, 0], coef)
    if net.any():
        bad = int((net.reshape(r, n) != 0).any(axis=1).argmax())
        raise InvalidParameterError(f"candidate {bad} violates the flow condition")


# -- subgraphs and edge removal --------------------------------------------------


def subgraph(X: GGraph, edge_indices: Sequence[int]) -> GGraph:
    """The G-subgraph on a stable subset of edges (same vertices)."""
    keep = sorted(set(map(operator.index, edge_indices)))
    edge_gset = X.edge_gset.restrict(keep)  # refuses an edge out of range
    return GGraph(X.vertices, X.edge_array.take(keep, axis=0), edge_gset.action_array)


def remove_edges_decomposition(X: GGraph, X_sub: GGraph) -> EquivariantMap:
    """The unimodular iso Fl(V, E') + Z[E - E'] -> Fl(V, E), with its inverse,
    for a connected G-subgraph on the same free vertex G-set: ``split_iso``
    of 0 -> Fl(V, E') -> Fl(V, E) -> Z[E - E'] -> 0, whose left map extends
    flows by zero and whose right map restricts them to the removed edges.
    The section is the circular flows: each removed orbit's least edge closed
    through the subgraph by ``fundamental_cycles``, moved by the edge G-set.
    ``flow_lattice`` refuses a subgraph that is not connected.

    >>> from glattice.groups import cyclic
    >>> G = cyclic(4)  # s is element 1 and s2 element 2
    >>> iso = remove_edges_decomposition(cayley_graph(G, [1, 2]), cayley_graph(G, [1]))
    >>> iso.source.rank, iso.inverse().source is iso.target
    (5, True)
    """
    if X_sub.vertices is not X.vertices and X_sub.vertices.action != X.vertices.action:
        raise InvalidParameterError("graphs must share the vertex G-set")
    if not X.vertices.is_free():
        raise InvalidParameterError("vertex action must be free")
    idx = X.edge_index()
    sub_in_X = []
    for pair in X_sub.edges:
        if pair not in idx:
            raise InvalidParameterError(f"subgraph edge {pair} missing from the graph")
        sub_in_X.append(idx[pair])
    removed = _edges_outside(X, sub_in_X)
    quotient = permutation_lattice(X.group, X.edge_gset.restrict(removed))
    fl, fl_sub = flow_lattice(X), flow_lattice(X_sub)

    # the subgraph flows extended by zero, then each removed edge's circular flow
    flows = [{sub_in_X[e]: c for e, c in col.items()} for col in fl_sub.basis.column_nonzeros()]
    orbits = quotient.gset.orbit_transversal()
    closed = fundamental_cycles(X, sub_in_X, [removed[base] for base, _ in orbits])
    circular = [None] * len(removed)
    for base, transversal in orbits:
        for p, g in transversal:
            circular[p] = X.edge_gset.move(g, closed[removed[base]])
    matrix = fl.solver.express_columns(flows + circular)
    certify(matrix is not None, "the embedded and circular flows are flows")
    k = fl_sub.rank
    return split_iso(ShortExactSequence(
        EquivariantMap(fl_sub, fl, matrix.take_columns(range(k))),
        EquivariantMap(fl, quotient, fl.basis.take_rows(removed)),
        section=lambda: matrix.take_columns(range(k, matrix.cols)),
    ))


def restrict_graph_group(X: GGraph, H: Subgroup) -> GGraph:
    """The same graph seen as an H-graph for a subgroup H."""
    return GGraph(X.vertices.restrict_group(H), X.edge_array, X.edge_gset.restrict_group(H).action_array)
