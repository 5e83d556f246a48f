"""The sparse back-substitution of ``BasisSolver`` against the dense sweep.

Every basis kind the library solves against: Hermite bases (no
transform), other bases (through the Hermite transform) and certified
triangular bases whose pivots are not their first nonzero rows, among
them the spanning-tree bases of random Cayley graphs.  Vectors lie in
the span, outside it, off by one at a pivot that does not divide it, and
have entries beyond 2**64.
"""

import pytest
from hypothesis import given, settings, strategies as st

from glattice import intlinalg
from glattice.checks import _bar_flows, _star_tree_basis
from glattice.cli import parse_group_spec
from glattice.gflows import cayley_graph, spanning_tree_basis
from glattice.intlinalg import BasisSolver, IntMatrix, _is_column_hermite, col_hermite, solve_matrix
from reference import as_flow, express_by_dense_sweep, fundamental_cycles, mul_vector, spanning_tree_by_bfs

BIG = 2**64
ENTRY = st.one_of(st.integers(-3, 3), st.integers(-3 * BIG, 3 * BIG))
SMALL = st.integers(-3, 3)


@st.composite
def probes(draw, basis, pivots):
    """Vectors for the basis: inside its span, arbitrary, and (when some
    pivot is not +-1) inside plus 1 in that pivot's row."""
    coords = [draw(ENTRY) for _ in range(basis.cols)]
    inside = mul_vector(basis, coords)
    vectors = [inside, [draw(ENTRY) for _ in range(basis.rows)]]
    for j, p in enumerate(pivots):
        if p is not None and basis[p, j] not in (1, -1):
            vectors.append([x + (i == p) for i, x in enumerate(inside)])
            break
    return vectors


def hermite_pivots(H):
    return [next((i for i in range(H.rows) if H[i, j]), None) for j in range(H.cols)]


@st.composite
def general_case(draw):
    """A basis (scaled, so that its pivots need not be 1), the pivots of its
    column Hermite form, and probe vectors."""
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    scale = draw(st.integers(1, 3))
    basis = IntMatrix.from_rows([[scale * draw(SMALL) for _ in range(k)] for _ in range(n)], cols=k)
    H = col_hermite(basis)
    return basis, draw(probes(H, hermite_pivots(H)))


@st.composite
def triangular_case(draw):
    """A basis with pivot pivots[j] in column j, 0 in the pivot rows of the
    columns before it, pivots in any row order, and probe vectors."""
    n = draw(st.integers(0, 6))
    r = draw(st.integers(0, n))
    pivots = draw(st.permutations(range(n)))[:r]
    cols = []
    for j in range(r):
        col = [draw(ENTRY) for _ in range(n)]
        for p in pivots[:j]:
            col[p] = 0
        col[pivots[j]] = draw(st.sampled_from([1, -1, 2, -3]))
        cols.append(col)
    basis = IntMatrix.from_columns(cols, rows=n)
    return basis, pivots, draw(probes(basis, pivots))


SPANNING_GROUPS = ["C:4", "C:6", "D:3", "X(C:2,C:2)", "SD:3,2,2"]


@st.composite
def spanning_tree_case(draw):
    """A certified spanning-tree basis of a random Cayley graph: fundamental
    cycles, each plus multiples of the later ones, and its non-tree edges."""
    G = parse_group_spec(draw(st.sampled_from(SPANNING_GROUPS)))
    gens = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    X = cayley_graph(G, gens + list(G.generators))
    tree = spanning_tree_by_bfs(X)
    cycles = fundamental_cycles(X, tree)
    candidates = []
    for i, cyc in enumerate(cycles):
        vec = list(cyc)
        for later in cycles[i + 1 :]:
            c = draw(SMALL)
            vec = [x + c * y for x, y in zip(vec, later)]
        candidates.append(as_flow(vec))
    fl = spanning_tree_basis(X, tree, candidates)
    non_tree = [e for e in range(X.n_edges) if e not in set(tree)]
    return fl, non_tree, draw(probes(fl.basis, non_tree))


def expected_matrix(basis, vectors, pivots=None):
    ys = [express_by_dense_sweep(basis, v, pivots) for v in vectors]
    return None if None in ys else IntMatrix.from_columns(ys, rows=basis.cols)


def assert_agrees(solver, basis, vectors, pivots=None):
    for v in vectors:
        assert solver.express_columns([as_flow(v)]) == expected_matrix(basis, [v], pivots)
    for m in (vectors, vectors[:1], []):
        M = IntMatrix.from_columns(m, rows=basis.rows)
        assert solver.express_matrix(M) == expected_matrix(basis, m, pivots)


class TestAgainstTheDenseSweep:
    @settings(max_examples=150, deadline=None)
    @given(general_case())
    def test_hermite_bases(self, case):
        basis, vectors = case
        H = col_hermite(basis)
        solver = BasisSolver(H)
        assert solver.V is None
        assert_agrees(solver, H, vectors)
        M = IntMatrix.from_columns(vectors, rows=H.rows)
        assert solve_matrix(H, M) == expected_matrix(H, vectors)

    @settings(max_examples=150, deadline=None)
    @given(general_case())
    def test_other_bases(self, case):
        basis, vectors = case
        solver = BasisSolver(basis)
        assert (solver.V is None) == _is_column_hermite(basis)
        H = col_hermite(basis)
        assert_agrees(solver, basis, vectors)
        M = IntMatrix.from_columns(vectors, rows=basis.rows)
        assert solve_matrix(basis, M) == expected_matrix(basis, vectors)
        assert solver.rank == sum(p is not None for p in hermite_pivots(H))

    @settings(max_examples=150, deadline=None)
    @given(triangular_case())
    def test_triangular_bases(self, case):
        basis, pivots, vectors = case
        solver = BasisSolver._of_triangular(basis.rows, pivots, basis.column_nonzeros())
        assert_agrees(solver, basis, vectors, pivots)

    @settings(max_examples=40, deadline=None)
    @given(spanning_tree_case())
    def test_spanning_tree_bases(self, case):
        fl, non_tree, vectors = case
        units = [[int(i == e) for i in range(fl.basis.rows)] for e in range(fl.basis.rows)]
        assert_agrees(fl.solver, fl.basis, vectors + units, non_tree)


class TestRefusals:
    @pytest.mark.parametrize("cols", [0, 1, 2])
    def test_express_matrix_checks_the_row_count(self, cols):
        solver = BasisSolver(IntMatrix.identity(2))
        for rows in (0, 1, 3):
            with pytest.raises(ValueError):
                solver.express_matrix(IntMatrix.zeros(rows, cols))
            with pytest.raises(ValueError):
                solve_matrix(IntMatrix.identity(2), IntMatrix.zeros(rows, cols))

    def test_express_columns_refuses_a_non_integer_or_a_row_out_of_range(self):
        solver = BasisSolver(IntMatrix.identity(3))
        for col in ({0: 2.5}, {0: 2.0}, {0.0: 1}, {0: "1"}):
            with pytest.raises(TypeError):
                solver.express_columns([col])
        for row in (3, 99, -1):
            with pytest.raises(ValueError, match="out of range"):
                solver.express_columns([{0: 1}, {row: 1}])
        # a zero entry is no entry, and the columns are left as they were
        cols = [{0: 1, 2: 0}, {1: -2}]
        assert solver.express_columns(cols).to_lists() == [[1, 0], [0, -2], [0, 0]]
        assert cols == [{0: 1, 2: 0}, {1: -2}]


def test_bar_cocycle_divides_only_at_reached_pivots(monkeypatch):
    """Work count, no clock: making the generator action of the C:16
    bar-cocycle basis divides at most 2,000 times (visiting only the
    reached pivots makes 645); a divmod at every basis column for every
    vector made 50,625."""
    G = parse_group_spec("C:16")
    X = cayley_graph(G, [g for g in G.elements() if g != G.identity])
    fl = _star_tree_basis(X, G, _bar_flows(X, G))
    calls = []

    def counting(a, b):
        calls.append(b)
        return divmod(a, b)

    monkeypatch.setattr(intlinalg, "divmod", counting, raising=False)
    for s in G.generators:
        fl.action[s]
    assert 0 < len(calls) <= 2000
