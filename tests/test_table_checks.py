"""The whole-table form of the group, G-set, G-graph and spanning-tree
checks against the per-entry form, each run on inputs on both sides of the
size rule: the same result on valid input, the same exception type and
message on malformed input.  And the route each command takes, counted by
forms patched to raise: no clock."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import glattice.gflows as gflows_mod
import glattice.groups as groups_mod
from glattice.cli import main, parse_group_spec
from glattice.errors import GlatticeError, InvalidParameterError
from glattice.gflows import (
    GGraph,
    cayley_graph,
    complete_edges,
    flow_lattice,
    spanning_tree_basis,
    spanning_tree_basis_of_arrays,
)
from glattice.groups import (
    FiniteGroup,
    GSet,
    all_subgroups,
    coset_gset,
    cyclic,
    direct_product,
    natural_gset,
    regular_gset,
    semidirect,
    subgroup_conjugacy_reps,
)
import reference
from reference import spanning_tree_by_bfs

# the regular action of C:3 has 9 entries and that of S:4 576, on either
# side of the size rule; S:4's Cayley graph on three generators has 72 edges
GSET_GROUPS = ["C:3", "S:3", "D:4", "S:4", "X(C:4,C:4)"]


def _outcome(make):
    try:
        return make()
    except (GlatticeError, TypeError) as exc:
        return type(exc), str(exc)


def _by_size_rule(entries, make):
    """The outcome of make with the size rule at entries, so that every
    table of at least that many entries takes the array form: 0 for all,
    None for none."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups_mod, "_ARRAY_CHECK_ENTRIES", float("inf") if entries is None else entries)
        return _outcome(make)


def _both_forms(make):
    """The outcomes of make by the array forms and by the per-entry forms."""
    return _by_size_rule(0, make), _by_size_rule(None, make)


def _group_data(G):
    return G.table, G.table_array.tolist(), G.identity, G.inverses, G.generators, G.element_names, G.spec


class TestGroupForms:
    @pytest.mark.parametrize("spec", [
        "C:1", "C:3", "C:16", "C:120", "D:4", "D:8", "SD:5,4,2", "SD:8,2,5", "S:3", "S:4", "S:5",
        "X(C:2,C:4)", "X(C:2,C:8)", "X(C:4,C:4)", "X(C:2,C:60)", "X(S:3,C:4)",
    ])
    def test_constructors_agree(self, spec):
        """Every constructor gives the same group whether its table is
        certified by whole-table scans or entry by entry, with tables of
        Python ints."""
        by_table, by_entry = _both_forms(lambda: _group_data(parse_group_spec(spec)))
        assert by_table == by_entry
        assert {type(x) for row in by_table[0] for x in row} == {int}

    def test_constructor_tables_match_the_entry_by_entry_builders(self):
        """The broadcast tables against the list builders, at orders on both
        sides of the size rule."""
        for n in range(1, 121):
            assert cyclic(n).table == reference.cyclic_table(n)
        for n, m in itertools.product(range(1, 16), range(1, 9)):
            for r in range(n):
                if math.gcd(r, n) == 1 and pow(r, m, n) == 1 % n:
                    assert semidirect(n, m, r).table == reference.semidirect_table(n, m, r)
        groups = [parse_group_spec(spec) for spec in ["C:1", "C:2", "C:3", "S:3", "D:4", "C:8", "C:12"]]
        for G, H in itertools.product(groups, repeat=2):
            if G.order * H.order <= groups_mod.MAX_ORDER:
                assert direct_product(G, H).table == reference.direct_product_table(G, H)
        for spec in ["S:4", "X(C:4,C:8)", "D:16"]:
            for sub in all_subgroups(parse_group_spec(spec)):
                assert sub.as_group()[0].table == reference.subgroup_table(sub.parent, sub.elements)

    @pytest.mark.parametrize("spec", ["X(C:4,C:8)", "S:4", "D:16"])
    def test_subgroups_as_groups_agree(self, spec):
        def build():
            return [_group_data(H.as_group()[0]) for H in all_subgroups(parse_group_spec(spec))]

        by_table, by_entry = _both_forms(build)
        assert by_table == by_entry

    @staticmethod
    def _c16():
        return [list(row) for row in parse_group_spec("C:16").table]

    def _corrupted(self, place):
        rows = self._c16()
        for (a, b), x in place.items():
            rows[a][b] = x
        return rows

    @pytest.mark.parametrize("place, expected", [
        ({(3, 5): 16}, "multiplication table is not closed"),
        ({(7, 2): -1}, "multiplication table is not closed"),
        ({(7, 2): 2**70}, "multiplication table is not closed"),
        # row 0 the row of 1: no element acts as the identity
        ({(0, b): (b + 1) % 16 for b in range(16)}, "no identity element in table"),
        # row 0 still arange(16), column 0 not
        ({(3, 0): 4}, "no identity element in table"),
        # row 5 misses 0
        ({(5, 11): 1}, "element 5 has no inverse"),
        # row 5 holds 0 first at 2, but 2 . 5 = 7
        ({(5, 2): 0}, "element 5 has no inverse"),
        # closed, with identity and inverses, generated by 1; fails first at (2, 1)
        ({(3, 5): 9, (3, 6): 8}, "associativity fails at elements (2, 1)"),
        ({(5, 11): True}, "element 5 has no inverse"),
    ], ids=str)
    def test_corrupted_tables(self, place, expected):
        rows = self._corrupted(place)
        by_table, by_entry = _both_forms(lambda: FiniteGroup(rows))
        assert by_table == by_entry == (InvalidParameterError, expected)

    def test_float_and_bool_entries(self):
        """A float is refused through operator.index in both forms; a bool
        where its int belongs is that int in both."""
        floats = self._corrupted({(2, 3): 5.0})
        refused = (TypeError, "'float' object cannot be interpreted as an integer")
        assert _both_forms(lambda: FiniteGroup(floats)) == (refused, refused)
        bools = self._corrupted({(0, 1): True, (1, 0): True, (0, 0): False})
        by_table, by_entry = _both_forms(lambda: _group_data(FiniteGroup(bools)))
        assert by_table == by_entry and by_table[0] == self._c16()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_outcome(self, data):
        """A group table with up to three faults: an entry -1, n or 2**70, a
        float, an entry copied from elsewhere in its row, or two entries of
        a row swapped."""
        G = parse_group_spec(data.draw(st.sampled_from(["C:4", "D:4", "C:16", "D:8", "X(C:4,C:4)", "S:4"])))
        rows = [list(row) for row in G.table]
        cell = st.tuples(st.integers(0, G.order - 1), st.integers(0, G.order - 1))
        for _ in range(data.draw(st.integers(0, 3))):
            (a, b), (_, c) = data.draw(cell), data.draw(cell)
            kind = data.draw(st.sampled_from(["entry", "float", "copy", "swap"]))
            if kind == "entry":
                rows[a][b] = data.draw(st.sampled_from([-1, G.order, 2**70]))
            elif kind == "float":
                rows[a][b] = float(rows[a][b])
            elif kind == "copy":
                rows[a][b] = rows[a][c]
            else:
                rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
        by_table, by_entry = _both_forms(lambda: _group_data(FiniteGroup(rows)))
        assert by_table == by_entry


@st.composite
def gset_tables(draw):
    """A group and a permutation table of one of its G-sets, with up to two
    faults: a repeated point, a point -1, |X| or 2**70, an identity row that
    moves two points, or a non-identity row with two points swapped."""
    G = parse_group_spec(draw(st.sampled_from(GSET_GROUPS), label="group"))
    X = draw(st.sampled_from([
        regular_gset(G),
        coset_gset(G, subgroup_conjugacy_reps(G)[1]),
        *([natural_gset(G)] if G.point_action else []),
    ]))
    rows = [list(perm) for perm in X.action]
    for _ in range(draw(st.integers(0, 2))):
        g = draw(st.integers(0, G.order - 1))
        i, j = draw(st.integers(0, X.size - 1)), draw(st.integers(0, X.size - 1))
        kind = draw(st.sampled_from(["repeat", "point", "identity", "swap"]))
        if kind == "repeat":
            rows[g][i] = rows[g][j]
        elif kind == "point":
            rows[g][i] = draw(st.sampled_from([-1, X.size, 2**70]))
        else:
            g = G.identity if kind == "identity" else g
            rows[g][i], rows[g][j] = rows[g][j], rows[g][i]
    return G, [tuple(row) for row in rows]


class TestGSetForms:
    @given(gset_tables())
    @settings(max_examples=150, deadline=None)
    def test_same_outcome(self, case):
        G, rows = case
        by_table, by_entry = _both_forms(lambda: GSet(G, rows).action)
        assert by_table == by_entry

    @given(gset_tables())
    @settings(max_examples=100, deadline=None)
    def test_cores_directly(self, case):
        """The array core called on every table that fits int64, small or
        large, against the per-entry form; the images agree with the rows."""
        G, rows = case
        table = groups_mod._int64_table(rows)
        by_entry = _outcome(lambda: groups_mod._action_by_rows(G, rows))
        if table is None:  # 2**70: refused entry by entry, whatever the size
            assert by_entry == (InvalidParameterError, "invalid-gset: action values are not permutations")
            return
        by_table = _outcome(lambda: groups_mod._check_action_table(G, table))
        if by_table is None:
            assert by_entry == [tuple(row) for row in table.tolist()]
            assert (GSet(G, rows).action_array == table).all()
        else:
            assert by_table == by_entry

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1]],  # rows of unequal lengths
        [[0.0, 1.0], [1.0, 0.0]],
        [["0", "1"], ["1", "0"]],
        [[0, 1]],  # too few rows
        [[0, 1, 2]] * 3,
    ], ids=str)
    def test_other_malformed_tables(self, rows):
        G = parse_group_spec("C:2")
        by_table, by_entry = _both_forms(lambda: GSet(G, rows).action)
        assert by_table == by_entry and by_table[0] in (InvalidParameterError, TypeError)


@st.composite
def graph_cases(draw):
    """A Cayley graph's vertices, edges and edge action, with two edges'
    endpoints swapped or one endpoint moved out of range."""
    G = parse_group_spec(draw(st.sampled_from(GSET_GROUPS), label="group"))
    X = cayley_graph(G, draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)))
    edges = [list(pair) for pair in X.edges]
    i, j = draw(st.integers(0, X.n_edges - 1)), draw(st.integers(0, X.n_edges - 1))
    if draw(st.booleans()):
        edges[i], edges[j] = edges[j], edges[i]
    else:
        edges[i][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, X.n_vertices]))
    return X, edges


class TestGGraphForms:
    @given(graph_cases())
    @settings(max_examples=100, deadline=None)
    def test_same_outcome(self, case):
        X, edges = case
        by_table, by_entry = _both_forms(lambda: GGraph(X.vertices, edges, X.edge_gset.action).edges)
        assert by_table == by_entry

    @pytest.mark.parametrize("spec", ["C:3", "S:3", "D:4", "S:4"])
    def test_builders_agree(self, spec):
        """The complete graphs with and without loops and the Cayley graph
        come out the same from lists and from one broadcast."""
        G = parse_group_spec(spec)

        def build():
            graphs = [complete_edges(V, loops) for V in (regular_gset(G), coset_gset(G, subgroup_conjugacy_reps(G)[1]))
                      for loops in (False, True)]
            return [(X.edges, X.edge_gset.action) for X in graphs + [cayley_graph(G, G.generators)]]

        by_table, by_entry = _both_forms(build)
        assert by_table == by_entry


# Cayley graphs with their generators: C:3 and S:3 have a few entries of
# candidates, C:12 on five generators and S:4 on its two some hundreds
TREE_GRAPHS = [("C:3", (1,)), ("S:3", None), ("C:12", (1, 2, 3, 5, 7)), ("S:4", None)]


@st.composite
def tree_cases(draw):
    """A spanning tree of a Cayley graph and its fundamental cycles as
    candidates, each plus a multiple of a later one, with up to two faults:
    a non-flow, a candidate scaled by 0, 2, -2 or 2**62 and beyond (a
    diagonal that is not +-1), a multiple of an earlier candidate added (a
    matrix not triangular), a float entry, an edge -1, |E| or 2**70, or a
    coefficient +-2**62 and beyond."""
    spec, gens = draw(st.sampled_from(TREE_GRAPHS), label="graph")
    G = parse_group_spec(spec)
    X = cayley_graph(G, gens or G.generators)
    tree = spanning_tree_by_bfs(X)
    cands = list(gflows_mod.fundamental_cycles(X, tree).values())
    r = len(cands)
    for i in range(r - 1):
        j, c = draw(st.integers(i + 1, r - 1)), draw(st.integers(-2, 2))
        for e, x in cands[j].items():
            cands[i][e] = cands[i].get(e, 0) + c * x
    big = st.sampled_from([2**62, -(2**62), 2**63, -(2**70)])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, r - 1))
        kind = draw(st.sampled_from(["non-flow", "scale", "earlier", "float", "edge", "coefficient"]))
        e = draw(st.integers(0, X.n_edges - 1))
        if kind == "non-flow":
            cands[i][e] = cands[i].get(e, 0) + draw(st.sampled_from([1, -1]))
        elif kind == "scale":
            c = draw(st.one_of(st.sampled_from([0, 2, -2]), big))
            cands[i] = {e: c * x for e, x in cands[i].items()}
        elif kind == "earlier" and i:
            j = draw(st.integers(0, i - 1))
            for f, x in cands[j].items():
                cands[i][f] = cands[i].get(f, 0) + x
        elif kind == "float":
            if draw(st.booleans()):
                cands[i][e] = float(cands[i].get(e, 1))
            else:
                cands[i][float(e)] = 1
        elif kind == "edge":
            cands[i][draw(st.sampled_from([-1, X.n_edges, 2**70]))] = draw(st.sampled_from([0, 1]))
        else:
            cands[i][e] = draw(big)
    return X, tree, cands


def _fits_int64(cands):
    return all(type(x) is int and -(2**63) <= x < 2**63 for c in cands for x in (*c, *c.values()))


def _as_arrays(cands):
    """The candidates as padded arrays: int64 when every entry is an int64,
    else of the entries themselves as Python objects."""
    k = max(map(len, cands), default=0) or 1
    rows = [list(c.items()) + [(0, 0)] * (k - len(c)) for c in cands]
    dtype = np.int64 if _fits_int64(cands) else object
    return tuple(np.array([[entry[i] for entry in row] for row in rows], dtype=dtype) for i in (0, 1))


class TestSpanningTreeForms:
    @given(tree_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_outcome(self, case):
        """The padded-array entry, on both sides of the size rule, against
        the per-entry form of the same candidates as flows; object arrays
        (a float, an entry beyond int64) are certified entry by entry."""
        X, tree, cands = case
        by_entry = _outcome(lambda: spanning_tree_basis(X, tree, cands).basis)
        arrays = _as_arrays(cands)
        by_arrays = _both_forms(lambda: spanning_tree_basis_of_arrays(X, tree, *arrays).basis)
        assert by_arrays == (by_entry, by_entry)

    @pytest.mark.parametrize("edge", [1.0, 1, 0.0], ids=repr)
    def test_float_edge_is_refused_not_merged(self, edge):
        """The triangle 0 -> 1 -> 2 -> 0 with tree [0, 1]: its one cycle is
        certified, and a float edge in the object-array route is refused,
        also where an int entry of its row names the same edge."""
        X = cayley_graph(parse_group_spec("C:3"), [1])
        edges, coefs = np.array([[2, 1, 0, edge]], dtype=object), np.array([[1, 1, 1, 0]], dtype=object)
        outcome = _both_forms(lambda: spanning_tree_basis_of_arrays(X, [0, 1], edges, coefs).rank)
        if type(edge) is int:
            assert outcome == (1, 1)
        else:
            assert outcome == ((TypeError, "'float' object cannot be interpreted as an integer"),) * 2

    @given(tree_cases())
    @settings(max_examples=100, deadline=None)
    def test_cores_directly(self, case):
        """The column core on the int64 entries of every candidate set that
        has them, small or large, against the per-entry form."""
        X, tree, cands = case
        assume(_fits_int64(cands))  # floats and wider integers: test_same_outcome
        non_tree = gflows_mod._non_tree_edges(X, tree, len(cands))
        by_entry = _outcome(lambda: gflows_mod._tree_basis_by_entries(X, non_tree, [c.items() for c in cands]).basis)
        candidate = np.repeat(np.arange(len(cands)), [len(c) for c in cands])
        edge, coef = (np.array([x for c in cands for x in part(c)], dtype=np.int64) for part in (dict.keys, dict.values))
        by_columns = _outcome(lambda: gflows_mod._tree_basis_by_columns(X, non_tree, candidate, edge, coef).basis)
        assert by_columns == by_entry


def _raising(name):
    def form(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return form


ENTRY_FORMS = [(groups_mod, "_action_by_rows"), (GGraph, "_validate"), (gflows_mod, "_tree_basis_by_entries")]
TABLE_FORMS = [(groups_mod, "_check_action_table"), (GGraph, "_validate_by_table"),
               (gflows_mod, "_tree_basis_by_columns")]
GROUP_TABLE_FORMS = ["_identity_and_inverses", "_check_associativity_by_table"]


class TestRoutes:
    """The size rule sends the ladder's bar-cocycle to the array forms only
    and a small request to the per-entry forms only."""

    @pytest.mark.parametrize("argv, forbidden", [
        (["check", "bar-cocycle", "--group", "C:16"], ENTRY_FORMS),
        (["check", "cyclic-flows", "--n", "3", "--gens", "s"], TABLE_FORMS),
    ])
    def test_no_call_to_the_other_forms(self, argv, forbidden, monkeypatch, capsys):
        for owner, name in forbidden:
            monkeypatch.setattr(owner, name, _raising(name))
        assert main(argv) == 0
        assert '"status": "pass"' in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["C:16", "D:8", "SD:8,2,5", "S:4", "C:120", "S:5"])
    def test_group_info_certifies_by_table(self, spec, monkeypatch, capsys):
        monkeypatch.setattr(FiniteGroup, "_check_associativity", _raising("_check_associativity"))
        assert main(["group", "info", "--group", spec, "--output", "json"]) == 0
        assert capsys.readouterr().out

    def test_small_group_info_certifies_by_entries(self, monkeypatch, capsys):
        for name in GROUP_TABLE_FORMS:
            monkeypatch.setattr(groups_mod, name, _raising(name))
        assert main(["group", "info", "--group", "C:4", "--output", "json"]) == 0
        assert capsys.readouterr().out

    def test_both_forms_build_the_same_flow_lattice(self):
        G = parse_group_spec("S:4")
        by_table, by_entry = _both_forms(lambda: flow_lattice(cayley_graph(G, G.generators)))
        assert by_table.basis == by_entry.basis and by_table.graph.edges == by_entry.graph.edges
        assert by_table.graph.edge_gset.action == by_entry.graph.edge_gset.action
