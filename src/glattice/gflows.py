"""G-graphs, boundary maps and flow lattices, with the explicit
decomposition isomorphisms between them.

Conventions pinned for determinism: spanning trees are BFS from vertex 0
scanning edges in listed order, path flows use the BFS path, and every
kernel basis is saturated column-Hermite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import GlatticeError, InvalidParameterError, certify
from .gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    check_exact,
    direct_sum,
    direct_sum_many,
    permutation_lattice,
    regular,
    sublattice_with_action,
    trivial,
)
from .groups import FiniteGroup, GSet, Subgroup, regular_gset
from .intlinalg import (
    BasisSolver,
    IntMatrix,
    bezout_coefficients,
    col_hermite,
    column_span_canonical,
    drop_zero_columns,
    kernel_basis,
)

class SpanningTreeBasisError(GlatticeError):
    """Candidate flows failed the triangular basis certification."""


class GGraph:
    """A finite directed multigraph with a compatible group action."""

    def __init__(
        self,
        vertices: GSet,
        edges: Sequence[Tuple[int, int]],
        edge_action: Optional[Sequence[Sequence[int]]] = None,
    ):
        self.vertices = vertices
        self.group = vertices.group
        self.edges = [(int(s), int(t)) for s, t in edges]
        for s, t in self.edges:
            if not (0 <= s < vertices.size and 0 <= t < vertices.size):
                raise InvalidParameterError("edge endpoint out of range")
        if edge_action is None:
            edge_action = self._infer_edge_action()
        # the edge G-set checks that the edge action is a homomorphism
        self.edge_gset = GSet(
            self.group, edge_action, [f"e{i}" for i in range(len(self.edges))]
        )
        self.edge_action = self.edge_gset.action
        if self.edge_gset.size != len(self.edges):
            raise InvalidParameterError("edge action entries are not permutations")
        self._validate()
        self._components: Optional[List[Tuple[int, ...]]] = None

    def _infer_edge_action(self) -> List[Tuple[int, ...]]:
        index = {}
        for i, pair in enumerate(self.edges):
            if pair in index:
                raise InvalidParameterError(
                    "parallel edges need an explicit edge action"
                )
            index[pair] = i
        act = []
        for g in range(self.group.order):
            vg = self.vertices.action[g]
            perm = []
            for s, t in self.edges:
                moved = (vg[s], vg[t])
                if moved not in index:
                    raise InvalidParameterError(
                        f"edge set is not stable under element {g}"
                    )
                perm.append(index[moved])
            act.append(tuple(perm))
        return act

    def _validate(self) -> None:
        """Check that edge endpoints move with the vertices.

        Generators suffice, since both actions are homomorphisms.
        """
        for s in self.group.generators:
            vs = self.vertices.action[s]
            ps = self.edge_action[s]
            for e, (a, b) in enumerate(self.edges):
                if self.edges[ps[e]] != (vs[a], vs[b]):
                    raise InvalidParameterError(
                        f"edge action incompatible with vertex action at g={s}, edge={e}"
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
    """All ordered pairs of vertices (distinct unless loops are requested)."""
    if vertices.size == 0:
        raise InvalidParameterError("vertex set must be nonempty")
    edges = [
        (u, v)
        for u in range(vertices.size)
        for v in range(vertices.size)
        if u != v or loops
    ]
    return GGraph(vertices, edges)


def cayley_graph(G: FiniteGroup, generators: Sequence[int]) -> GGraph:
    """Directed Cayley graph: vertices G under left translation, edges g -> gs.

    The edge (g, gs) has degree s; the identity produces self loops.
    Connected exactly when the generators generate G (see is_connected).
    """
    gens = []
    for s in generators:
        s = int(s)
        if not 0 <= s < G.order:
            raise InvalidParameterError(f"generator index {s} out of range")
        if s not in gens:
            gens.append(s)
    vertices = regular_gset(G)
    edges = [(g, G.table[g][s]) for s in gens for g in range(G.order)]
    graph = GGraph(vertices, edges)
    graph.generators = tuple(gens)
    graph.edge_degree = [s for s in gens for _ in range(G.order)]
    return graph


def boundary_matrix(X: GGraph) -> EquivariantMap:
    """The map ZE -> ZV sending an edge to target minus source (loops to 0)."""
    m = IntMatrix.zeros(X.n_vertices, X.n_edges)
    for e, (s, t) in enumerate(X.edges):
        if s != t:
            m.a[t, e] += 1
            m.a[s, e] -= 1
    return EquivariantMap(X.edge_lattice(), X.vertex_lattice(), m)


class FlowLattice:
    """The kernel of the boundary map, with an explicit basis and G-action."""

    def __init__(self, graph: GGraph, basis: IntMatrix, glattice: GLattice,
                 inclusion: EquivariantMap, solver: BasisSolver):
        self.graph = graph
        self.basis = basis
        self.glattice = glattice
        self.inclusion = inclusion  # glattice -> ZE
        self.solver = solver  # BasisSolver of basis

    @property
    def rank(self) -> int:
        return self.basis.cols

    def flow_coordinates(self, edge_vector: Sequence[int]) -> Optional[list]:
        """Basis coordinates of an edge vector, or None when it is no flow."""
        return self.solver.express(edge_vector)

    def validate(self) -> None:
        X = self.graph
        bd = boundary_matrix(X).matrix
        if not (bd @ self.basis).is_zero():
            raise InvalidParameterError("basis columns violate the flow condition")
        if X.is_connected():
            expected = X.n_edges - X.n_vertices + 1
            if self.rank != expected:
                raise InvalidParameterError(
                    f"rank {self.rank} != |E|-|V|+1 = {expected}"
                )
        if not _spans_flows(self.solver, bd):
            raise InvalidParameterError("basis does not span the saturated kernel")
        for g in X.group.generators:
            # g moves edge e to perm[e], so row perm[e] of g * basis is row e
            # of basis; sorting the edges by perm inverts it
            perm = X.edge_action[g]
            moved = self.basis.take_rows(sorted(range(X.n_edges), key=perm.__getitem__))
            if moved != self.basis @ self.glattice.action[g]:
                raise InvalidParameterError(f"action invariant fails at element {g}")

    def __repr__(self) -> str:
        return f"FlowLattice(rank={self.rank}, graph={self.graph!r})"


def flow_lattice(X: GGraph) -> FlowLattice:
    """Flow lattice of a connected G-graph (disconnected graphs rejected).

    The fundamental cycles of the BFS tree from vertex 0 (see _bfs) are a
    Z-basis of the flows: each non-tree edge, forward, closed by the tree
    path back to its source.  Their column Hermite form is therefore the
    canonical basis of the kernel of the boundary map, and it is its own
    Hermite form for the solver.
    """
    if not X.is_connected():
        raise InvalidParameterError(
            f"graph is disconnected; components: {X.components()}"
        )
    prev = _bfs(X, 0)
    tree = {p[0] for p in prev if p is not None}

    def add_root_path(vec: List[int], v: int, c: int) -> None:
        # add c times the unit flow along the tree path from vertex 0 to v
        while v != 0:
            e, sign = prev[v]
            vec[e] += c * sign
            s, t = X.edges[e]
            v = s if sign == 1 else t

    cycles = []
    for e, (s, t) in enumerate(X.edges):
        if e not in tree:
            vec = [0] * X.n_edges
            vec[e] = 1
            add_root_path(vec, s, 1)
            add_root_path(vec, t, -1)
            cycles.append(vec)
    basis = col_hermite(IntMatrix.from_columns(cycles, rows=X.n_edges))
    fl = _flow_lattice_on(X, basis, BasisSolver.of_hermite(basis))
    expected = X.n_edges - X.n_vertices + 1
    certify(fl.rank == expected, f"rank formula violated: {fl.rank} != {expected}")
    return fl


def flow_lattice_with_basis(X: GGraph, basis: IntMatrix) -> FlowLattice:
    """Flow lattice carried by explicitly supplied basis columns."""
    bd = boundary_matrix(X).matrix
    if not (bd @ basis).is_zero():
        raise InvalidParameterError("supplied columns are not flows")
    solver = BasisSolver(basis)
    if not _spans_flows(solver, bd):
        raise InvalidParameterError("supplied columns do not span the flow lattice")
    return _flow_lattice_on(X, basis, solver)


def _flow_lattice_on(X: GGraph, basis: IntMatrix, solver: BasisSolver) -> FlowLattice:
    """The flow lattice on a basis already known to span the flows."""
    glat, incl = sublattice_with_action(X.edge_lattice(), basis, name="Fl", solver=solver)
    return FlowLattice(X, basis, glat, incl, solver)


def _spans_flows(solver: BasisSolver, bd: IntMatrix) -> bool:
    """Whether the solver's basis spans the kernel of the boundary matrix."""
    return drop_zero_columns(solver.H) == column_span_canonical(kernel_basis(bd))


# -- walks ---------------------------------------------------------------------

WalkStep = Union[int, Tuple[int, int]]


def walk_to_flow(X: GGraph, walk: Sequence[WalkStep]) -> List[int]:
    """Signed edge-traversal counts of a closed walk.

    Steps are edge indices (traversed forward) or pairs (edge, sign) with
    sign -1 for a backward traversal.  The empty walk gives the zero flow.
    """
    vec = [0] * X.n_edges
    if not walk:
        return vec
    pos = None
    start = None
    for step in walk:
        e, sign = (step, 1) if isinstance(step, int) else (int(step[0]), int(step[1]))
        if sign not in (1, -1):
            raise InvalidParameterError("walk step sign must be +1 or -1")
        if not 0 <= e < X.n_edges:
            raise InvalidParameterError(f"edge {e} not in the graph")
        s, t = X.edges[e]
        frm, to = (s, t) if sign == 1 else (t, s)
        if pos is None:
            start = frm
        elif pos != frm:
            raise InvalidParameterError(
                f"walk breaks at edge {e}: expected to leave vertex {pos}, edge leaves {frm}"
            )
        pos = to
        vec[e] += sign
    if pos != start:
        raise InvalidParameterError(f"walk is not closed: starts at {start}, ends at {pos}")
    return vec


# -- canonical trees and path flows ---------------------------------------------


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


def spanning_tree(X: GGraph, allowed_edges: Optional[Sequence[int]] = None) -> List[int]:
    """BFS spanning tree from vertex 0, scanning edges in listed order."""
    prev = _bfs(X, 0, allowed_edges)
    if None in prev[1:]:
        raise InvalidParameterError("graph is disconnected; no spanning tree")
    return sorted(e for e, _ in prev[1:])


def path_flow(
    X: GGraph, src: int, dst: int, allowed_edges: Optional[Sequence[int]] = None
) -> List[int]:
    """Unit flow along the canonical BFS path src -> dst (boundary dst - src)."""
    prev = _bfs(X, src, allowed_edges)
    if dst != src and prev[dst] is None:
        raise InvalidParameterError(f"no path from {src} to {dst} in allowed edges")
    vec = [0] * X.n_edges
    v = dst
    while v != src:
        e, sign = prev[v]
        vec[e] += sign
        s, t = X.edges[e]
        v = s if (sign == 1) else t
    return vec


def spanning_tree_basis(
    X: GGraph, tree_edges: Sequence[int], candidates: Sequence[Sequence[int]]
) -> FlowLattice:
    """Certify candidate flows as a basis via the triangular-tree criterion.

    The matrix of candidate values on the non-tree edges (in listed edge
    order) must be upper triangular with +-1 on the diagonal.  Raises
    SpanningTreeBasisError with a diagnostic otherwise.  The criterion
    proves a Z-basis of the flows: a flow is determined by its values on
    the non-tree edges, and that minor is unimodular.  So the lattice is
    built without a second span check.
    """
    tree = sorted(set(int(e) for e in tree_edges))
    # validate the tree: spanning and acyclic in the undirected sense
    if len(tree) != X.n_vertices - 1:
        raise InvalidParameterError(
            f"tree has {len(tree)} edges, expected |V|-1 = {X.n_vertices - 1}"
        )
    parent = list(range(X.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in tree:
        s, t = X.edges[e]
        rs, rt = find(s), find(t)
        if rs == rt:
            raise InvalidParameterError("tree edges contain a cycle")
        parent[rs] = rt
    if len({find(v) for v in range(X.n_vertices)}) != 1:
        raise InvalidParameterError("tree edges do not span the graph")

    tree_set = set(tree)
    non_tree = [e for e in range(X.n_edges) if e not in tree_set]
    r = len(non_tree)
    if len(candidates) != r:
        raise SpanningTreeBasisError(
            f"need {r} candidate flows (one per non-tree edge), got {len(candidates)}"
        )
    cols = []
    for i, cand in enumerate(candidates):
        vec = list(map(int, cand))
        if len(vec) != X.n_edges:
            raise InvalidParameterError(f"candidate {i} has wrong length")
        net = [0] * X.n_vertices  # the boundary of vec
        for e, c in enumerate(vec):
            if c:
                s, t = X.edges[e]
                net[t] += c
                net[s] -= c
        if any(net):
            raise InvalidParameterError(f"candidate {i} violates the flow condition")
        cols.append(vec)
    for i in range(r):
        d = cols[i][non_tree[i]]
        if d not in (1, -1):
            raise SpanningTreeBasisError(
                f"diagonal entry f_{i}(e_{non_tree[i]}) = {d} is not +-1"
            )
        for j in range(i):
            if cols[i][non_tree[j]] != 0:
                raise SpanningTreeBasisError(
                    f"matrix not upper triangular: f_{i}(e_{non_tree[j]}) != 0"
                )
    basis = IntMatrix.from_columns(cols, rows=X.n_edges)
    return _flow_lattice_on(X, basis, BasisSolver(basis))


# -- decomposition isomorphisms --------------------------------------------------


def loop_split(X_plus: GGraph) -> Tuple[EquivariantMap, EquivariantMap]:
    """Mutually inverse maps Fl(V, E+) <-> Fl(V, E-) + ZV.

    Requires the complete graph with loops; loops are themselves flows and
    every flow restricts to a flow on the loopless graph.
    """
    n = X_plus.n_vertices
    expected = {(u, v) for u in range(n) for v in range(n)}
    if set(X_plus.edges) != expected or X_plus.n_edges != len(expected):
        raise InvalidParameterError("loop_split expects the complete graph with loops")
    X_minus = complete_edges(X_plus.vertices, loops=False)
    fl_plus = flow_lattice(X_plus)
    fl_minus = flow_lattice(X_minus)
    zv = X_plus.vertex_lattice()
    target = direct_sum(fl_minus.glattice, zv)

    idx_plus = X_plus.edge_index()
    loop_at = [idx_plus[(v, v)] for v in range(n)]
    minus_in_plus = [idx_plus[pair] for pair in X_minus.edges]

    fwd_cols = []
    for j in range(fl_plus.rank):
        f = fl_plus.basis.col_list(j)
        minus_part = [f[e] for e in minus_in_plus]
        coords = fl_minus.flow_coordinates(minus_part)
        certify(coords is not None, "the loopless part of a flow is a flow")
        fwd_cols.append(coords + [f[loop_at[v]] for v in range(n)])
    fwd = EquivariantMap(fl_plus.glattice, target, IntMatrix.from_columns(fwd_cols))

    bwd_cols = []
    for j in range(fl_minus.rank):
        f = fl_minus.basis.col_list(j)
        vec = [0] * X_plus.n_edges
        for e_minus, e_plus in enumerate(minus_in_plus):
            vec[e_plus] = f[e_minus]
        bwd_cols.append(fl_plus.flow_coordinates(vec))
    for v in range(n):
        vec = [0] * X_plus.n_edges
        vec[loop_at[v]] = 1
        bwd_cols.append(fl_plus.flow_coordinates(vec))
    bwd = EquivariantMap(target, fl_plus.glattice, IntMatrix.from_columns(bwd_cols))

    certify((fwd.matrix @ bwd.matrix).is_identity(), "loop splitting maps are mutually inverse")
    certify((bwd.matrix @ fwd.matrix).is_identity(), "loop splitting maps are mutually inverse")
    fwd.validate()
    bwd.validate()
    return fwd, bwd


def subgraph(X: GGraph, edge_indices: Sequence[int]) -> GGraph:
    """The G-subgraph on a stable subset of edges (same vertices)."""
    keep = sorted(set(int(e) for e in edge_indices))
    return GGraph(X.vertices, [X.edges[e] for e in keep], X.edge_gset.restrict(keep).action)


def remove_edges_decomposition(X: GGraph, X_sub: GGraph) -> EquivariantMap:
    """Unimodular iso Fl(V, E') + ZG^m -> Fl(V, E) for free vertex actions.

    One circular flow per removed edge orbit: the orbit representative is
    completed by the canonical path flow inside the subgraph.  The
    restriction to Fl(V, E') is the natural embedding.
    """
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

    cols = []
    # natural embedding of the subgraph flows
    for j in range(fl_sub.rank):
        f = fl_sub.basis.col_list(j)
        vec = [0] * X.n_edges
        for e_sub, e_full in enumerate(sub_in_X):
            vec[e_full] = f[e_sub]
        cols.append(fl.flow_coordinates(vec))
    # one free orbit of circular flows per removed orbit representative
    for orbit in removed_orbits:
        rep = orbit[0]
        v_i, w_i = X.edges[rep]
        path = path_flow(X_sub, w_i, v_i)
        circ = [0] * X.n_edges
        for e_sub, e_full in enumerate(sub_in_X):
            circ[e_full] = path[e_sub]
        circ[rep] += 1
        for g in range(G.order):
            cols.append(fl.flow_coordinates(X.edge_gset.move(g, circ)))
    source = direct_sum_many([fl_sub.glattice] + [regular(G) for _ in range(m)])
    matrix = IntMatrix.from_columns(cols, rows=fl.rank)
    iso = EquivariantMap(source, fl.glattice, matrix)
    iso.validate()
    certify(iso.is_unimodular(), "edge-removal decomposition must be unimodular")
    # restriction block identity: the first columns are the embedded basis
    emb = fl.inclusion.matrix @ matrix.take_columns(range(fl_sub.rank))
    for j in range(fl_sub.rank):
        col = emb.col_list(j)
        src = fl_sub.basis.col_list(j)
        expect = [0] * X.n_edges
        for e_sub, e_full in enumerate(sub_in_X):
            expect[e_full] = src[e_sub]
        certify(col == expect, "the embedding extends subgraph flows by zero")
    return iso


def restrict_graph_group(X: GGraph, H: Subgroup) -> GGraph:
    """The same graph seen as an H-graph for a subgroup H."""
    return GGraph(X.vertices.restrict_group(H), X.edges, X.edge_gset.restrict_group(H).action)


def restrict_to_subgroup_decomposition(
    G: FiniteGroup, H: Subgroup, S: Sequence[int], S0: Sequence[int]
) -> EquivariantMap:
    """H-lattice iso Fl(H, S0) + ZH^m -> Fl(G, S) restricted to H.

    Connects the cosets of H by a tree of matching edge orbits, inside
    which every flow is supported on the Cay(H, S0) block, then removes
    the remaining edges orbit by orbit.
    """
    S = [int(s) for s in S]
    S0 = [int(s) for s in S0]
    if any(s not in S for s in S0):
        raise InvalidParameterError("S0 must be contained in S")
    if G.closure(S) != tuple(range(G.order)):
        raise InvalidParameterError("S does not generate the group")
    if G.closure(S0) != H.elements:
        raise InvalidParameterError("S0 does not generate the subgroup")

    X = cayley_graph(G, S)
    XH = restrict_graph_group(X, H)
    Hgrp, embed = H.as_group()

    idx = X.edge_index()
    # block of Cay(H, S0) sitting inside the big graph
    inner = [idx[(h, G.table[h][s0])] for s0 in dict.fromkeys(S0) for h in H.elements]

    # connect the H-orbits (right cosets) by a BFS tree of matching orbits
    vertex_orbits = XH.vertices.orbits()
    orbit_of = {v: o_i for o_i, orbit in enumerate(vertex_orbits) for v in orbit}
    edge_orbit = {e: orbit for orbit in XH.edge_orbits() for e in orbit}
    seen = {orbit_of[G.identity]}
    tree_edges: List[int] = []
    # grow a tree over the coset orbits, scanning edges in listed order
    while len(seen) < len(vertex_orbits):
        progressed = False
        for e, (s, t) in enumerate(X.edges):
            os, ot = orbit_of[s], orbit_of[t]
            if (os in seen) != (ot in seen):
                new = ot if os in seen else os
                seen.add(new)
                # the whole H-orbit of e is a matching between the two cosets
                tree_edges.extend(edge_orbit[e])
                progressed = True
        if not progressed:
            raise InvalidParameterError("cosets cannot be connected inside the graph")

    keep = sorted(set(inner) | set(tree_edges))
    X_small = subgraph(XH, keep)
    if not X_small.is_connected():
        raise InvalidParameterError("connecting subgraph is disconnected")

    # flows of the connecting subgraph live on the Cay(H, S0) block
    fl_small = flow_lattice(X_small)
    keep_pos = {e: i for i, e in enumerate(keep)}
    matching_positions = [keep_pos[e] for e in keep if e not in set(inner)]
    for j in range(fl_small.rank):
        col = fl_small.basis.col_list(j)
        leaks = any(col[p] for p in matching_positions)
        certify(not leaks, "flow leaks onto a coset-matching edge")

    iso_big = remove_edges_decomposition(XH, X_small)

    # identify Fl(X_small) with Fl(Cay(H, S0)) by restricting coordinates
    X0 = cayley_graph(Hgrp, [embed.index(s0) for s0 in dict.fromkeys(S0)])
    fl0 = flow_lattice(X0)
    inner_pos = [keep_pos[e] for e in sorted(set(inner))]
    # map inner edges of X_small to X0 edges
    x0_idx = X0.edge_index()
    pos_to_x0 = {}
    for e in sorted(set(inner)):
        s, t = X.edges[e]
        hs = embed.index(s)
        ht = embed.index(t)
        pos_to_x0[keep_pos[e]] = x0_idx[(hs, ht)]
    cols = []
    for j in range(fl0.rank):
        f0 = fl0.basis.col_list(j)
        vec = [0] * X_small.n_edges
        for p, e0 in pos_to_x0.items():
            vec[p] = f0[e0]
        cols.append(fl_small.flow_coordinates(vec))
    reindex = EquivariantMap(
        fl0.glattice, fl_small.glattice, IntMatrix.from_columns(cols, rows=fl_small.rank)
    ).validate()
    certify(reindex.is_unimodular(), "the reindexing map is unimodular")

    m = (XH.n_edges - X_small.n_edges) // Hgrp.order
    blocks = [reindex] + [
        EquivariantMap(regular(Hgrp), regular(Hgrp), IntMatrix.identity(Hgrp.order))
        for _ in range(m)
    ]
    widen = blocks[0]
    for b in blocks[1:]:
        from .gmod import direct_sum_maps

        widen = direct_sum_maps(widen, b)
    return iso_big.compose(widen)


def remove_orbit_with_map(
    vertices: GSet,
    orbit_index: int,
    psi: Dict[int, int],
    loops: bool = False,
) -> EquivariantMap:
    """Certified iso Fl(V, E) -> Fl(V - V_i, E') for an equivariant V_i -> V_j.

    Builds the complete graph on the remaining vertices plus one pendant
    edge per removed vertex, and certifies that every flow vanishes on
    the pendants.
    """
    orbits = vertices.orbits()
    if not 0 <= orbit_index < len(orbits):
        raise InvalidParameterError("orbit index out of range")
    vi = orbits[orbit_index]
    vi_set = set(vi)
    if set(psi) != vi_set:
        raise InvalidParameterError("psi must be defined exactly on the removed orbit")
    targets = {psi[u] for u in vi}
    target_orbits = {i for i, o in enumerate(orbits) if targets & set(o)}
    if len(target_orbits) != 1 or orbit_index in target_orbits:
        raise InvalidParameterError("psi must land in a single distinct orbit")
    for g in range(vertices.group.order):
        for u in vi:
            if psi[vertices.apply(g, u)] != vertices.apply(g, psi[u]):
                raise InvalidParameterError(
                    f"psi is not equivariant at element {g}, point {u}"
                )

    rest = sorted(v for v in range(vertices.size) if v not in vi_set)
    X_rest = complete_edges(vertices.restrict(rest), loops=loops)

    edges = [
        (rest[s], rest[t]) for (s, t) in X_rest.edges
    ] + [(u, psi[u]) for u in sorted(vi)]
    X_full = GGraph(vertices, edges)
    fl_full = flow_lattice(X_full)
    fl_rest = flow_lattice(X_rest)

    n_rest_edges = X_rest.n_edges
    for j in range(fl_full.rank):
        col = fl_full.basis.col_list(j)
        certify(not any(col[n_rest_edges:]), "a flow crosses a pendant edge")

    cols = []
    for j in range(fl_full.rank):
        col = fl_full.basis.col_list(j)
        cols.append(fl_rest.flow_coordinates(col[:n_rest_edges]))
    iso = EquivariantMap(
        fl_full.glattice, fl_rest.glattice, IntMatrix.from_columns(cols, rows=fl_rest.rank)
    )
    iso.validate()
    certify(iso.is_unimodular(), "orbit-removal map must be unimodular")
    return iso


def gcd_splitting(vertices: GSet) -> EquivariantMap:
    """A section of the vertex-sum map when orbit sizes have gcd 1.

    Sends 1 to the Bezout combination of the orbit norm elements; combined
    with the boundary sequence this certifies the flow lattice to be
    quasi-permutation.
    """
    orbits = vertices.orbits()
    sizes = [len(o) for o in orbits]
    coeffs = bezout_coefficients(sizes)
    if sum(c * s for c, s in zip(coeffs, sizes)) != 1:
        raise InvalidParameterError(f"orbit sizes {sizes} have gcd != 1")
    col = [0] * vertices.size
    for coeff, orbit in zip(coeffs, orbits):
        for v in orbit:
            col[v] = coeff
    G = vertices.group
    phi = EquivariantMap(
        trivial(G), permutation_lattice(G, vertices), IntMatrix.from_columns([col])
    )
    phi.validate()
    certify(sum(col) == 1, "section property against the vertex-sum map")
    return phi


def quasi_permutation_certificate(X: GGraph) -> ShortExactSequence:
    """The checked sequence 0 -> Fl(X) -> Z + ZE -> ZV -> 0."""
    fl = flow_lattice(X)
    phi = gcd_splitting(X.vertices)
    bd = boundary_matrix(X)
    middle = direct_sum(trivial(X.group), bd.source)
    right = EquivariantMap(middle, bd.target, phi.matrix.hstack(bd.matrix))
    left_matrix = IntMatrix.zeros(1, fl.rank).vstack(fl.basis)
    left = EquivariantMap(fl.glattice, middle, left_matrix)
    seq = ShortExactSequence(left, right)
    report = check_exact(seq)
    certify(report.ok, f"quasi-permutation certificate failed: {report.failures}")
    return seq
