"""Named structural checks over flow lattices, producing machine-readable
pass/fail reports.

Every check is deterministic and idempotent; a report lists one outcome
per sub-assertion so a failure names exactly what broke.

An iso from ``cohom.split_iso`` is certified (fwd @ back = I, fwd
equivariant, its sequence exact) or refused, so an assertion about one,
its blocks or a composition reads that certificate and recomputes nothing:
cyclic-flows' "unimodular" and "equivariant", sn-restrictions' cycle
basis, kernel-generators' "ker(pi) + M", faithful-transfer's middle row
and resolutions, and schanuel after its two resolutions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import GlatticeError, InvalidParameterError, certify
from .gflows import (
    Flow,
    FlowLattice,
    GGraph,
    boundary_matrix,
    cayley_graph,
    complete_edges,
    flow_lattice,
    fundamental_cycles,
    remove_edges_decomposition,
    restrict_graph_group,
    spanning_tree_basis,
    spanning_tree_basis_of_arrays,
    subgraph,
)
from .gmod import (
    EquivariantMap,
    GLattice,
    ShortExactSequence,
    augmentation_kernel,
    check_exact,
    coset_lattice,
    direct_sum_many,
    orbit_map,
    regular,
    sublattice_with_action,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    coset_gset,
    cyclic,
    natural_gset,
    semidirect,
    subgroup_conjugacy_reps,
    subgroup_from_generators,
    symmetric,
)
from .cohom import (
    coflasque_resolution,
    is_coflasque,
    is_flasque,
    pullback,
    split_iso,
)
from .intlinalg import (
    BasisSolver,
    IntMatrix,
    cokernel_invariants,
    column_span_canonical,
    kernel_basis,
    same_column_span,
)


@dataclass
class CheckReport:
    """Outcome of one named check, reproducible modulo elapsed time.

    A check records each named assertion as it runs; ``finish`` sets the
    status and the time since the report was made.

    >>> report = CheckReport("demo", "C:1", {})
    >>> report.record("holds", True)
    True
    >>> report.run("refused", lambda: (False, "by its own verdict"))
    False
    >>> report.finish().status, report.ok
    ('fail', False)
    """

    check_id: str
    group_spec: str
    parameters: Dict[str, object]
    details: List[Dict[str, str]] = field(default_factory=list)
    status: str = "running"  # "pass" | "fail" once finished
    elapsed_ms: float = 0.0
    _start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.details.append(
            {"name": name, "status": "pass" if ok else "fail", "detail": detail}
        )
        return ok

    def run(self, name: str, fn: Callable[[], Tuple[bool, str]]) -> bool:
        try:
            ok, detail = fn()
        except GlatticeError as exc:  # recorded, not raised: reports stay comparable
            return self.record(name, False, f"{type(exc).__name__}: {exc}")
        return self.record(name, ok, detail)

    def finish(self) -> "CheckReport":
        self.status = "pass" if all(d["status"] == "pass" for d in self.details) else "fail"
        self.elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        return self

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "check_id": self.check_id,
            "group": self.group_spec,
            "parameters": dict(self.parameters),
            "status": self.status,
            "assertions": [dict(d) for d in self.details],
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _sparse_sum(terms: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """The sparse vector sum of the c e_i over the (i, c) terms, zeros dropped."""
    out: Dict[int, int] = {}
    for i, c in terms:
        out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def _edge_vector(X: GGraph, steps: Sequence[Tuple[int, int, int]]) -> Flow:
    """The edge vector of (source, target, coefficient) triples."""
    idx = X.edge_index()
    return _sparse_sum((idx[(s, t)], c) for s, t, c in steps)


def _certified(iso: EquivariantMap) -> Tuple[bool, str]:
    """The verdict of split_iso's certificate on iso, or on a composition of
    its isos: the inverse iso carries, or InvalidParameterError without one."""
    iso.inverse()
    return True, ""


# -- cyclic decomposition ---------------------------------------------------------


def check_cyclic_flows(n: int, gens: Sequence[int]) -> CheckReport:
    """Cay(C_n, S) flows split as the cycle flow plus free summands."""
    G = cyclic(n)
    sigma = G.generator_indices["s"]
    gens = [g % n for g in gens]
    if sigma not in gens:
        raise InvalidParameterError("generating set must contain the rotation s")
    ck = CheckReport("cyclic-flows", f"C:{n}", {"n": n, "gens": sorted(set(gens))})
    X = cayley_graph(G, gens)
    Xc = cayley_graph(G, [sigma])
    iso = remove_edges_decomposition(X, Xc)
    m = (X.n_edges - Xc.n_edges) // G.order
    ck.record("free rank", iso.source.rank == 1 + m * n, f"m={m}")
    ck.run("unimodular", lambda: _certified(iso))
    ck.run("equivariant", lambda: _certified(iso))
    ck.record(
        "trivial action on the cycle summand",
        all(int(iso.source.action[g][0, 0]) == 1 for g in G.elements()),
    )

    def free_complement():
        for g in (g for g in G.elements() if g != G.identity):
            for i, col in enumerate(iso.source.action[g].column_nonzeros()[1:], 1):
                if list(col.values()) != [1]:
                    return False, f"column {i} of element {g} is not a unit vector"
                if i in col:
                    return False, f"element {g} fixes complement basis vector {i}"
        return True, f"free stable basis of rank {m * n}"

    ck.run("complement is a freely permuted basis", free_complement)
    return ck.finish()


# -- flow lattices are coflasque ----------------------------------------------------


def check_flow_coflasque(G: FiniteGroup, gens: Sequence[int]) -> CheckReport:
    """Fl(Cay(G, S)) is coflasque and resolves the augmentation sublattice."""
    if G.closure(gens) != tuple(range(G.order)):
        raise InvalidParameterError("generating set does not generate the group")
    ck = CheckReport(
        "flow-coflasque",
        G.spec,
        {"gens": [G.element_names[g] for g in dict.fromkeys(int(g) for g in gens)]},
    )
    X = cayley_graph(G, gens)
    fl = flow_lattice(X)
    verdict = is_coflasque(fl)
    ck.record(
        "flow lattice coflasque",
        bool(verdict),
        "" if verdict else f"fails at subgroup {verdict.failing_subgroup}",
    )
    seq = fl.boundary_sequence()
    ck.record("boundary lands in the augmentation sublattice", True)
    report = check_exact(seq)
    ck.record("boundary sequence exact", report.ok, "; ".join(report.failures))
    ck.record("middle term is permutation", seq.B.is_permutation_action())
    ck.record(
        "certificate kind",
        bool(verdict),
        "coflasque resolution of the augmentation sublattice",
    )
    return ck.finish()


# -- bar basis and the cocycle identity ----------------------------------------------

_COCYCLE_BLOCK_ROWS = 1024  # the cocycle check sorts at most this many triples at once

BarFlows = Tuple[np.ndarray, np.ndarray]  # padded (n, n, k) edges and coefficients of d
TermKeys = Tuple[np.ndarray, np.ndarray, int]  # d's keys, made once by _term_keys


def _bar_flows(X: GGraph, G: FiniteGroup) -> BarFlows:
    """d(g, h) = (e -> g -> gh) - (e -> gh), loops dropped as zero, for all g, h,
    as padded (n, n, 3) int64 arrays of edges and coefficients: d(g, h) is
    coefficient [g, h, i] on edge [g, h, i], summed over i, and a dropped
    term is coefficient 0 on edge 0.

    X is the Cayley graph on the non-identity elements, so d(g, h) has three
    distinct edges when g, h != e, of which (e, gh) is a loop when gh = e.
    """
    n, e, table = G.order, G.identity, G.table_array
    ends = X.edge_array
    at = np.zeros((n, n), dtype=np.int64)  # at[u, v]: the edge u -> v
    at[ends[:, 0], ends[:, 1]] = np.arange(X.n_edges)
    g = np.arange(n)[:, None]
    edges = np.stack(np.broadcast_arrays(at[e, g], at[g, table], at[e, table]), axis=-1)
    coefs = np.empty_like(edges)
    coefs[...] = (1, 1, -1)
    coefs[e] = coefs[:, e] = 0
    coefs[table == e, 2] = 0
    edges[coefs == 0] = 0
    return edges, coefs


def _term_keys(X: GGraph, d: BarFlows) -> TermKeys:
    """Sort keys for the terms of d, with the coefficients they index.

    Term i of d(g, h) has the key edge << shift | place, with place its
    index in d and terms[place] its coefficient; place + size (d has size
    terms) is that of its negative, and 2 size + 0, 1, 2 those of -1, 1
    and 0.  So a row of keys sorts by edge.  The coefficients are
    certified small enough that no row of 4 k terms, k the terms of a
    flow, overflows int64 on any running sum, and an edge out of range is
    refused.
    """
    edges, coefs = d
    k = edges.shape[2]
    bound = (1 << 62) // (4 * k)  # then no running sum of 4 k terms overflows
    certify(max(-int(coefs.min()), int(coefs.max())) < bound, "bar flow coefficients sum exactly in int64")
    if not 0 <= edges.min() <= edges.max() < X.n_edges:
        raise InvalidParameterError("bar flow edge out of range")
    size = coefs.size
    shift = (2 * size + 2).bit_length()
    certify(X.n_edges << shift < 1 << 63, "bar flow keys fit in int64")
    coefs = coefs.astype(np.int64).ravel()
    terms = np.concatenate([coefs, -coefs, [-1, 1, 0]])
    place = np.arange(size, dtype=np.int64).reshape(edges.shape)
    return edges.astype(np.int64) << shift | place, terms, shift


def _failing_rows(keys: np.ndarray, terms: np.ndarray, shift: int) -> int:
    """The number of rows of keys (see ``_term_keys``) whose terms do not sum
    to 0 on every edge.  One sort per row orders its terms by edge, and they
    sum to 0 on every edge exactly when their running sum is 0 at the end
    of every run of equal edges; the sorted rows are scanned term by term,
    all rows at once.  keys is sorted in place."""
    keys.sort(axis=1)
    keys = np.ascontiguousarray(keys.T)
    running = terms[keys & ((1 << shift) - 1)]
    np.cumsum(running, axis=0, out=running)
    keys >>= shift
    bad = (keys[1:] != keys[:-1]) & (running[:-1] != 0)
    return int(np.count_nonzero(bad.any(axis=0) | (running[-1] != 0)))


def _cocycle_failures(X: GGraph, G: FiniteGroup, d: BarFlows, keys: Optional[TermKeys] = None) -> int:
    """Triples with d(g1, g2) + d(g1 g2, g3) != d(g1, g2 g3) + g1 . d(g2, g3).

    Every triple is checked exactly, in int64 key arrays made for a block
    of g1 values at a time: at most ``_COCYCLE_BLOCK_ROWS`` triples, or one
    g1.  The left side minus the right side of a triple is 4 k terms, k
    those of each flow of d, indexed by fancy indexing into d's keys.
    """
    plus, terms, shift = keys or _term_keys(X, d)
    n, k = G.order, plus.shape[2]
    minus = plus + plus.size  # the keys of -d
    moved = X.edge_gset.action_array << shift  # g1 moves edge << shift to moved[g1, edge]
    minus_place = minus & ((1 << shift) - 1)
    edges, table = d[0], G.table_array
    step = max(1, _COCYCLE_BLOCK_ROWS // (n * n))
    failures = 0
    for start in range(0, n, step):
        g1 = np.arange(start, min(start + step, n))
        keys = np.empty((len(g1), n, n, 4, k), dtype=np.int64)  # (g1, g2, g3, term)
        keys[:, :, :, 0] = plus[g1][:, :, None]  # d(g1, g2)
        keys[:, :, :, 1] = plus[table[g1]]  # d(g1 g2, g3)
        keys[:, :, :, 2] = minus[g1[:, None, None], table]  # -d(g1, g2 g3)
        np.add(np.take(moved[g1], edges, axis=1), minus_place, out=keys[:, :, :, 3])  # -g1 . d(g2, g3)
        failures += _failing_rows(keys.reshape(-1, 4 * k), terms, shift)
    return failures


def _tree_recursion_failures(X: GGraph, G: FiniteGroup, d: BarFlows, keys: Optional[TermKeys] = None) -> int:
    """Pairs with d(h, g) != [e -> h] + h . [e -> g] - [e -> hg] on the star-tree edges.

    X is the Cayley graph on the non-identity elements.  The right side is
    0 when g or h is e.  Otherwise it is 1 on the edges (e, h) and
    h . (e, g) = (h, hg), and -1 on (e, hg) unless hg = e.  Each pair is a
    row of the k terms of d(h, g) and the three of the right side, negated.
    """
    plus, terms, shift = keys or _term_keys(X, d)
    n, e, table = G.order, G.identity, G.table_array
    ends = X.edge_array
    star = np.zeros(n, dtype=np.int64)  # star[g]: the edge e -> g
    tree = np.flatnonzero(ends[:, 0] == e)
    star[ends[tree, 1]] = tree
    h = np.arange(n)[:, None]
    right = np.stack(np.broadcast_arrays(star[h], X.edge_gset.action_array[h, star], star[table]), axis=-1)
    place = np.empty_like(right)
    place[...] = 2 * plus.size + np.array([0, 0, 1])  # the places of -1, -1 and 1
    place[e] = place[:, e] = 2 * plus.size + 2  # that of 0
    place[table == e, 2] = 2 * plus.size + 2
    keys = np.concatenate([plus, right << shift | place], axis=2)
    return _failing_rows(keys.reshape(n * n, -1), terms, shift)


def _star_tree_basis(X: GGraph, G: FiniteGroup, d: BarFlows) -> FlowLattice:
    """The bar flows d(u, u^-1 v) of the edges (u, v) off the star tree at e,
    certified as a basis of the flows of X, the Cayley graph on the
    non-identity elements; raises SpanningTreeBasisError when they are not."""
    ends = X.edge_array
    on_star = ends[:, 0] == G.identity
    u, v = ends[~on_star].T
    h = G.table_array[np.array(G.inverses)[u], v]
    return spanning_tree_basis_of_arrays(X, np.flatnonzero(on_star), d[0][u, h], d[1][u, h])


def check_bar_cocycle(G: FiniteGroup) -> CheckReport:
    """The translated two-step flows form a basis obeying the cocycle law."""
    if G.order < 2:
        raise InvalidParameterError("group must have at least two elements")
    ck = CheckReport("bar-cocycle", G.spec, {"order": G.order})
    X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
    d = _bar_flows(X, G)
    try:
        fl = _star_tree_basis(X, G, d)
        ck.record("basis certified by the star tree", True, f"rank {fl.rank}")
    except GlatticeError as exc:
        ck.record("basis certified by the star tree", False, str(exc))
        return ck.finish()

    keys = _term_keys(X, d)
    failures = _cocycle_failures(X, G, d, keys)
    ck.record("two cocycle condition", failures == 0, f"{G.order ** 3} triples")
    bad = _tree_recursion_failures(X, G, d, keys)
    ck.record("tree-edge recursion at the edge level", bad == 0, f"{G.order ** 2} pairs")
    return ck.finish()


# -- closed walks span the flows -------------------------------------------------------


def check_center_walks(G: FiniteGroup) -> CheckReport:
    """Closed walks from the identity, of lengths up to |G| + 1, span the
    full flow lattice of Cay(G, G)."""
    max_len = G.order + 1
    ck = CheckReport("center-walks", G.spec, {"max_len": max_len})
    n = G.order
    X = cayley_graph(G, list(range(n)))  # includes the identity: loops
    fl = flow_lattice(X)
    ck.record("rank formula", fl.rank == X.n_edges - n + 1, f"rank {fl.rank}")
    boundary = boundary_matrix(X).matrix
    idx = X.edge_index()
    edge_of = [[idx[(v, G.table[v][s])] for s in range(n)] for v in range(n)]
    flows = set()
    spanned = False
    level_reached = 0
    walks_used = 0
    for length in range(1, max_len + 1):
        for prefix in itertools.product(range(n), repeat=length - 1):
            v, steps = G.identity, []
            for s in prefix:
                steps.append((edge_of[v][s], 1))
                v = G.table[v][s]
            steps.append((edge_of[v][G.inverses[v]], 1))  # back to the identity
            flows.add(tuple(sorted(_sparse_sum(steps).items())))
        level_reached = length
        walks_used = len(flows)
        W = IntMatrix.from_sparse_columns(X.n_edges, [dict(f) for f in sorted(flows)])
        # the walks lie in the saturated Fl, so their saturated span is Fl
        # exactly when they are flows of full rank
        if (boundary @ W).is_zero() and column_span_canonical(W).cols == fl.rank:
            spanned = True
            break
    ck.record(
        "saturated walk span equals the flow lattice",
        spanned,
        f"walk length {level_reached}, {walks_used} distinct flows",
    )
    return ck.finish()


# -- symmetric group restrictions --------------------------------------------------------


def check_sn_restrictions(n: int) -> CheckReport:
    """Point-graph flows restrict to permutation lattices on both key subgroups."""
    if not 3 <= n <= 5:
        raise InvalidParameterError("n must be between 3 and 5")
    G = symmetric(n)
    ck = CheckReport("sn-restrictions", G.spec, {"n": n})
    V = natural_gset(G)
    X = complete_edges(V, loops=False)
    fl = flow_lattice(X)
    ck.record(
        "rank formula", fl.rank == n * (n - 1) - n + 1, f"rank {fl.rank}"
    )

    # full cycle subgroup: reduce to the directed cycle plus free orbits
    cycle_perm = tuple((i + 1) % n for i in range(n))
    cyc = G.point_action.index(cycle_perm)
    H1 = subgroup_from_generators(G, [cyc])
    XH1 = restrict_graph_group(X, H1)
    idx = X.edge_index()
    cycle_edges = [idx[(i, (i + 1) % n)] for i in range(n)]
    iso1 = remove_edges_decomposition(XH1, subgraph(XH1, cycle_edges))
    ck.record("cycle-subgroup restriction has a stable basis", iso1.source.is_permutation_action(),
              f"Z + ZC{n}^{(iso1.source.rank - 1) // n}")

    # point stabilizer: the star-tree fundamental flows are a stable basis
    H2 = V.stabilizer(n - 1)
    ck.record("point stabilizer order", H2.order == G.order // n, f"order {H2.order}")
    star = [idx[(i, n - 1)] for i in range(n - 1)]
    candidates = list(fundamental_cycles(X, star).values())
    fl2 = spanning_tree_basis(X, star, candidates)
    ck.record("star-tree flows form a basis", True, f"rank {fl2.rank}")
    cand_set = {frozenset(c.items()) for c in candidates}
    stable = all(
        frozenset(X.edge_gset.move(h, cand).items()) in cand_set
        for h in H2.elements for cand in candidates
    )
    ck.record("star-tree basis is stabilizer-stable", stable)
    return ck.finish()


# -- kernel presentation for split metacyclic groups ----------------------------------------


@dataclass
class _MetacyclicData:
    G: FiniteGroup
    # 0 -> ker(pi) -> Z[G/s] + Z[G/t] + ZG -> Fl -> 0
    pres: ShortExactSequence
    Hs: Subgroup
    Ht: Subgroup
    u_vectors: IntMatrix
    v_vectors: IntMatrix
    # the t-coset block of the kernel, onto the augmentation sublattice
    # of the t-coset lattice (None when it lands outside)
    phi: Optional[EquivariantMap]
    # the u vectors in the kernel's coordinates (None when outside)
    u_in_K: Optional[IntMatrix]


def _metacyclic_presentation(n: int, m: int, r: int) -> _MetacyclicData:
    """Build the presentation map for <s, t | s^n = t^m, t^-1 s t = s^r>.
    ``semidirect`` certifies the twist congruence r^m = 1 mod n, the flow
    solve that the twist path is a flow, so ends at s t, and pi.validate()
    that the cycle flows are invariant, as the coset basepoints' images."""
    if gcd(n, m) != 1:
        raise InvalidParameterError(f"orders n={n}, m={m} must be coprime")
    G = semidirect(n, m, r)
    r = r % n
    if r == 1 % n:
        raise InvalidParameterError("twist must move s (r != 1 mod n)")
    s, t = G.generator_indices["s"], G.generator_indices["t"]
    X = cayley_graph(G, [s, t])
    fl = flow_lattice(X)
    Hs = subgroup_from_generators(G, [s])
    Ht = subgroup_from_generators(G, [t])
    Ls, Lt, LG = coset_lattice(G, Hs), coset_lattice(G, Ht), regular(G)
    B = direct_sum_many([Ls, Lt, LG])

    def cycle_flow(gen: int, length: int) -> Flow:
        steps = []
        v = G.identity
        for _ in range(length):
            steps.append((v, G.table[v][gen], 1))
            v = G.table[v][gen]
        return _edge_vector(X, steps)

    # A = (e -> s -> s t) - (e -> t -> t s -> ... -> t s^r)
    steps = [(G.identity, s, 1), (s, G.mul(s, t), 1), (G.identity, t, -1)]
    v = t
    for _ in range(r):
        steps.append((v, G.table[v][s], -1))
        v = G.table[v][s]
    # the cycles and the twist path in the flow basis: B has the three
    # orbits of Ls, Lt and LG, in that order
    bases = fl.solver.express_columns([cycle_flow(s, n), cycle_flow(t, m), _edge_vector(X, steps)])
    certify(bases is not None, "the cycles and the twist path are flows")

    pi = EquivariantMap(B, fl, orbit_map(B, fl, bases))
    pi.validate()

    kernel = kernel_basis(pi.matrix)
    solver = BasisSolver(kernel)
    K, K_incl = sublattice_with_action(B, kernel, solver=solver)

    # the listed kernel elements, in the coordinates of B, as sparse maps
    s_hat, t_hat, a_hat = {0: 1}, {m: 1}, {m + n + G.identity: 1}
    move = B.gset.move

    def combine(*terms: Tuple[int, Dict[int, int]]) -> Dict[int, int]:  # sum of the c * vec
        return _sparse_sum((i, c * x) for c, vec in terms for i, x in vec.items())

    norm_s_a = [(1, move(G.power(s, i), a_hat)) for i in range(n)]
    u_e = combine(*norm_s_a, (-1, s_hat), (r, move(t, s_hat)))
    u_cols = [move(G.power(t, j), u_e) for j in range(m)]

    coeff = (r ** m - 1) // n
    # t^j s^i a_hat for i < r^j, by multiplicity: each i < n appears
    # floor(r^j / n) times, and once more when i < r^j mod n
    v_sum = [(q + (i < rest), move(G.mul(G.power(t, j), G.power(s, i)), a_hat))
             for j in range(m) for q, rest in [divmod(r ** j, n)] for i in range(n)]
    v_e = combine(*v_sum, (coeff, s_hat), (1, t_hat), (-1, move(s, t_hat)))
    v_cols = [move(g, v_e) for g in G.elements()]

    u_vectors = IntMatrix.from_sparse_columns(B.rank, u_cols)
    I_lat, I_incl = augmentation_kernel(Lt)
    phi_cols = BasisSolver(I_incl.matrix).express_matrix(kernel.take_rows(range(m, m + n)))
    return _MetacyclicData(
        G=G, pres=ShortExactSequence(K_incl, pi), Hs=Hs, Ht=Ht,
        u_vectors=u_vectors,
        v_vectors=IntMatrix.from_sparse_columns(B.rank, v_cols),
        phi=None if phi_cols is None else EquivariantMap(K, I_lat, phi_cols),
        u_in_K=solver.express_matrix(u_vectors),
    )


def check_kernel_generators(n: int, m: int, r: int) -> CheckReport:
    """The listed flows present the kernel of the metacyclic surjection."""
    data = _metacyclic_presentation(n, m, r)
    G = data.G
    ck = CheckReport("kernel-generators", G.spec, {"n": n, "m": m, "r": r % n})

    pres = data.pres
    factors, free = cokernel_invariants(pres.right.matrix)
    ck.record("pi surjective", factors == [] and free == 0)

    W = data.v_vectors.hstack(data.u_vectors)
    ck.record("listed elements lie in the kernel", (pres.right.matrix @ W).is_zero())
    ck.record(
        "listed elements span the kernel saturated",
        same_column_span(W, pres.left.matrix),
        f"{W.cols} generators",
    )
    ck.record("kernel rank n+m-1", pres.A.rank == n + m - 1, f"rank {pres.A.rank}")

    u_in_K = data.u_in_K
    ck.record("norm-type elements generate a submodule", u_in_K is not None)
    M0, _ = sublattice_with_action(pres.A, u_in_K)
    iso = EquivariantMap(coset_lattice(G, data.Hs), M0, IntMatrix.identity(m))
    ck.run(
        "M0 is the s-coset lattice via the basepoint map",
        lambda: (iso.equivariance_failure() is None, ""),
    )

    # quotient: project kernel onto the t-coset block and land in its
    # augmentation sublattice
    phi = data.phi
    ck.record("kernel projects into the augmentation sublattice", phi is not None)
    if phi is not None:
        ck.run("projection equivariant", lambda: (phi.equivariance_failure() is None, ""))
        f2, free2 = cokernel_invariants(phi.matrix)
        ck.record("projection surjective", f2 == [] and free2 == 0)
        ck.record(
            "kernel of projection is exactly M0",
            same_column_span(kernel_basis(phi.matrix), u_in_K),
        )
        f3, free3 = cokernel_invariants(u_in_K)
        ck.record(
            "quotient by M0 is free of rank n-1",
            f3 == [] and free3 == n - 1,
            f"factors {f3}, free {free3}",
        )

    verdict = is_coflasque(pres.A)
    ck.record(
        "kernel coflasque",
        bool(verdict),
        "" if verdict else f"fails at {verdict.failing_subgroup}",
    )

    split = split_iso(pres)
    ck.record("presentation sequence splits", split is not None)
    if split is not None:
        ck.run("ker(pi) + M = Z[G/s] + Z[G/t] + ZG", lambda: _certified(split))
    return ck.finish()


def check_faithful_transfer(n: int, m: int, r: int) -> CheckReport:
    """Flasque-class transfer from the group graph to the coset graph."""
    data = _metacyclic_presentation(n, m, r)
    G = data.G
    ck = CheckReport("faithful-transfer", G.spec, {"n": n, "m": m, "r": r % n})

    # phi: ker(pi) ->> I on the t-cosets with kernel M0 = Z[G/s] (checked
    # elsewhere); psi: the boundary of the complete graph on the t-cosets
    K = data.pres.A
    certify(data.phi is not None, "the kernel block lies in the augmentation sublattice")
    certify(data.u_in_K is not None, "the u vectors lie in the kernel")
    phi_seq = ShortExactSequence(
        EquivariantMap(coset_lattice(G, data.Hs), K, data.u_in_K), data.phi
    )
    flt = flow_lattice(complete_edges(coset_gset(G, data.Ht), loops=False))
    psi_seq = flt.boundary_sequence()
    f0, free0 = cokernel_invariants(psi_seq.right.matrix)
    ck.record("coset boundary surjects onto the augmentation sublattice",
              f0 == [] and free0 == 0)

    # middle column 0 -> ker(psi) -> Q -> ker(pi) -> 0, middle row
    # 0 -> Z[G/s] -> Q -> P -> 0
    col_seq, row_seq = pullback(phi_seq, psi_seq)
    Q = row_seq.B
    ck.record("pullback rank", Q.rank == K.rank + row_seq.C.rank - psi_seq.C.rank,
              f"rank {Q.rank}")
    ck.record("s-coset lattice embeds into the pullback", True)
    q_iso = split_iso(row_seq)  # Ls + P -> Q; a row that is not exact is refused
    ck.record("middle row exact", True)
    ck.record("middle row splits", q_iso is not None)
    if q_iso is None:
        return ck.finish()
    ck.record("pullback is permutation", q_iso.source.is_permutation_action())
    ck.record("coset flows embed into the pullback", True)
    col_report = check_exact(col_seq)
    ck.record("middle column exact", col_report.ok, "; ".join(col_report.failures))

    # the shared flasque cokernel: 0 -> Fl -> B -> K -> 0 by the blocks of u,
    # and the middle column, which q_iso carries to Ls + P
    u = split_iso(data.pres)  # K + Fl -> B
    ck.record("presentation splits", u is not None)
    if u is None:
        return ck.finish()
    ck.run("flasque resolution of the flow lattice", lambda: _certified(u))
    ck.record("flasque resolution of the coset flows", col_report.ok,
              "; ".join(col_report.failures))
    ck.record(
        "resolutions share permutation middles",
        data.pres.B.is_permutation_action() and q_iso.source.is_permutation_action(),
    )
    verdict = is_flasque(K)
    ck.record(
        "shared cokernel flasque",
        bool(verdict),
        "" if verdict else f"fails at {verdict.failing_subgroup}",
    )
    return ck.finish()


# -- Schanuel uniqueness -------------------------------------------------------------------


def check_schanuel(M: GLattice, group_spec: str, lattice_spec: str) -> CheckReport:
    """Two independent coflasque resolutions have matching complements."""
    ck = CheckReport("schanuel", group_spec, {"lattice": lattice_spec})
    k = len(subgroup_conjugacy_reps(M.group))
    r1 = coflasque_resolution(M)
    r2 = coflasque_resolution(M, rep_order=list(reversed(range(k))))
    ck.record("two resolutions built", True,
              f"middles of rank {r1.sequence.B.rank} and {r2.sequence.B.rank}")
    seq1, seq2 = pullback(r1.sequence, r2.sequence)
    iso1 = split_iso(seq1)  # C2 + P1 -> Q; a row that is not exact is refused
    iso2 = split_iso(seq2)  # C1 + P2 -> Q
    ck.record("first projection exact", True)
    ck.record("second projection exact", True)
    ck.record("both projections split", iso1 is not None and iso2 is not None)
    if iso1 is None or iso2 is None:
        return ck.finish()
    final = iso1.inverse().compose(iso2)  # C1 + P2 -> C2 + P1
    ck.run("C1 + P2 = C2 + P1 via an explicit unimodular map", lambda: _certified(final))
    return ck.finish()


# -- rank formula over a graph collection -----------------------------------------------------


def check_rank_formula(graphs: Sequence[Tuple[str, GGraph]]) -> CheckReport:
    """rank Fl = |E| - |V| + 1 on every listed connected graph."""
    ck = CheckReport("rank-formula", "various", {"graphs": len(graphs)})
    for label, X in graphs:
        fl = flow_lattice(X)
        expected = X.n_edges - X.n_vertices + 1
        ck.record(label, fl.rank == expected, f"rank {fl.rank} = {expected}")
    return ck.finish()

