"""CLI surface: spec grammars, exit codes, JSON output, determinism."""

import io
import json
import re
import time
from pathlib import Path

import pytest

from glattice.cli import (
    CHECKS,
    RANK_FORMULA_GRAPHS,
    main,
    parse_generators,
    parse_graph_spec,
    parse_group_spec,
    parse_lattice_spec,
    parse_subgroup_spec,
    run_check,
)
from glattice.errors import CertificateError, SpecParseError
from glattice.gmod import GLattice
from glattice.intlinalg import BasisSolver
from reference import quick_suite_graphs
from test_golden import CHECK_ARGVS, TATE_GRID


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestSpecParsing:
    def test_group_specs(self):
        assert parse_group_spec("C:6").order == 6
        assert parse_group_spec("D:4").order == 8
        assert parse_group_spec("SD:3,2,2").order == 6
        assert parse_group_spec("S:4").order == 24
        assert parse_group_spec("X(C:2,C:3)").order == 6
        assert parse_group_spec("X(C:2,X(C:2,C:2))").order == 8

    def test_group_spec_errors_carry_position(self):
        with pytest.raises(SpecParseError) as err:
            parse_group_spec("Q:8")
        assert err.value.position == 0
        with pytest.raises(SpecParseError):
            parse_group_spec("C:3junk")

    def test_generator_tokens(self):
        G = parse_group_spec("SD:3,2,2")
        assert parse_generators(G, "s,t") == [
            G.generator_indices["s"], G.generator_indices["t"]
        ]
        assert parse_generators(G, "s2t") == [
            G.mul(G.power(G.generator_indices["s"], 2), G.generator_indices["t"])
        ]
        assert parse_generators(G, "e")[0] == G.identity
        assert parse_generators(G, "#4") == [4]
        assert len(parse_generators(G, "*")) == 5

    def test_cycle_tokens(self):
        G = parse_group_spec("S:4")
        (idx,) = parse_generators(G, "(1234)")
        assert G.point_action[idx] == (1, 2, 3, 0)
        (swap,) = parse_generators(G, "(12)")
        assert G.point_action[swap] == (1, 0, 2, 3)
        (double,) = parse_generators(G, "(12)(34)")
        assert G.point_action[double] == (1, 0, 3, 2)
        assert parse_generators(G, "(1)(2)") == [G.identity]

    def test_a_long_generator_power_is_its_residue(self):
        start = time.perf_counter()
        X = parse_graph_spec("cayley(C:3;s10000000000000000000000)")
        assert time.perf_counter() - start < 0.1
        Y = parse_graph_spec("cayley(C:3;s1)")  # 10^22 = 1 mod 3
        assert X.edges == Y.edges and X.edge_gset.action == Y.edge_gset.action

    def test_graph_specs(self):
        X = parse_graph_spec("cayley(C:5;s)")
        assert (X.n_vertices, X.n_edges) == (5, 5)
        X = parse_graph_spec("complete(regular(C:3);loops=1)")
        assert X.n_edges == 9
        X = parse_graph_spec("cosets(SD:3,2,2;t)")
        assert X.n_vertices == 3

    def test_lattice_specs(self):
        G = parse_group_spec("SD:3,2,2")
        assert parse_lattice_spec(G, "regular").rank == 6
        assert parse_lattice_spec(G, "trivial").rank == 1
        assert parse_lattice_spec(G, "flows:cayley").rank == 7
        C2 = parse_group_spec("C:2")
        assert parse_lattice_spec(C2, "sign").rank == 1
        with pytest.raises(SpecParseError):
            parse_lattice_spec(G, "sign")

    @pytest.mark.parametrize("spec, graph", [
        ("flows:cayley", "cayley(SD:3,2,2;s,t)"),
        ("flows:cayley(SD:3,2,2;s,t)", "cayley(SD:3,2,2;s,t)"),
        ("flows:cayley(SD:3,2,2;*)", "cayley(SD:3,2,2;*)"),
    ])
    def test_flow_lattice_specs_keep_the_graph(self, spec, graph, monkeypatch):
        """The lattice of a flows spec is a GLattice that keeps the graph of
        that spec; reading its rank and graph solves for nothing."""
        G = parse_group_spec("SD:3,2,2")
        solves = []
        monkeypatch.setattr(BasisSolver, "express_columns", lambda *args: solves.append(args))
        M = parse_lattice_spec(G, spec)
        X = parse_graph_spec(graph)
        assert isinstance(M, GLattice) and M.group is M.graph.group is G
        assert M.graph.edges == X.edges and M.graph.edge_gset.action == X.edge_gset.action
        assert M.rank == X.n_edges - X.n_vertices + 1
        assert solves == []

    @pytest.mark.parametrize("group, spec", [
        ("SD:3,2,2", "flows:cayley(SD:3,2,2;s,t)"),
        ("S:3", "flows:cosets(S:3;(23))"),
        ("C:4", "flows:complete(regular(C:4);loops=0)"),
    ])
    def test_flow_lattice_is_over_the_given_group(self, group, spec):
        G = parse_group_spec(group)
        assert parse_lattice_spec(G, spec).group is G

    def test_flow_lattice_over_another_group_refused(self, capsys):
        with pytest.raises(SpecParseError, match="differs from --group"):
            parse_lattice_spec(parse_group_spec("C:4"), "flows:cayley(C:3;s)")
        assert main(["tate", "--group", "C:4", "--lattice", "flows:cosets(S:3;(23))",
                     "--subgroup", "whole", "--degree", "0"]) == 2
        assert "differs from --group" in capsys.readouterr().err

    def test_tate_subgroup_of_a_flow_lattice(self):
        assert run_cli(["tate", "--group", "D:4", "--lattice", "flows:cayley(D:4;s,t)",
                        "--subgroup", "gen:s", "--degree", "0"]) == (0, "Z/4\n")

    def test_subgroup_specs(self):
        G = parse_group_spec("SD:3,2,2")
        assert parse_subgroup_spec(G, "sylow2").order == 2
        assert parse_subgroup_spec(G, "sylow3").order == 3
        assert parse_subgroup_spec(G, "whole").order == 6
        assert parse_subgroup_spec(G, "trivial").order == 1
        assert parse_subgroup_spec(G, "gen:s").order == 3


class TestExitCodes:
    def test_invalid_group_order_is_usage_error(self):
        code, _ = run_cli(["group", "info", "--group", "C:0"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["C:1000000000", "D:1000000000", "SD:1000003,1,1"])
    def test_group_over_the_cap_is_refused_before_its_table(self, spec, capsys):
        # building the table of any of these would take minutes and gigabytes
        code, _ = run_cli(["group", "info", "--group", spec])
        assert code == 2
        assert "exceeds cap" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        code, _ = run_cli(["group", "info", "--group", "C:2", "--frobnicate"])
        assert code == 2

    def test_bad_spec_token(self):
        code, _ = run_cli(["flows", "--graph", "cayley(Q:8;s)"])
        assert code == 2

    def test_passing_check_exits_zero(self):
        code, _ = run_cli(["check", "cyclic-flows", "--n", "6", "--gens", "s1,s2"])
        assert code == 0

    def test_missing_check_params(self):
        code, _ = run_cli(["check", "kernel-generators"])
        assert code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["check", "kernel-generators", "--n", "3"], "--m"),
        (["check", "schanuel", "--group", "C:2"], "--lattice"),
    ])
    def test_missing_check_parameter_names_its_flag(self, capsys, argv, flag):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"invalid invocation: missing check parameter {flag}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["check", "bar-cocycle", "--group", "C:3", "--gens", "zzz"], "--gens"),
        (["check", "cyclic-flows", "--n", "3", "--gens", "s", "--lattice", "foo",
          "--group", "D:4"], "--group"),
        (["check", "rank-formula", "--n", "3"], "--n"),
    ])
    def test_extra_check_parameter_is_refused_by_its_flag(self, capsys, argv, flag):
        assert run_cli(argv) == (2, "")
        check_id = argv[1]
        assert capsys.readouterr().err == (
            f"invalid invocation: check {check_id} takes no parameter {flag}\n"
        )

    def test_non_integer_element_index_names_its_token(self, capsys):
        assert run_cli(["flows", "--graph", "cayley(C:3;#x)"]) == (2, "")
        assert capsys.readouterr().err == (
            "spec error: element index 'x' is not an integer (token '#x', position 0)\n"
        )

    @pytest.mark.parametrize("token, message", [
        ("(1 2)", "malformed cycle token '(1 2)'"),
        ("(1x2)", "malformed cycle token '(1x2)'"),
        ("(1)2(3)", "malformed cycle token '(1)2(3)'"),
        ("(12", "malformed cycle token '(12'"),
        ("(12)(13)", "cycles of '(12)(13)' are not disjoint"),
        ("(14)", "bad cycle '14'"),
    ])
    def test_malformed_cycle_tokens_are_refused(self, capsys, token, message):
        assert run_cli(["flows", "--graph", f"cayley(S:3;{token},(123))"]) == (2, "")
        assert capsys.readouterr().err == f"spec error: {message} (token '{token}', position 0)\n"

    @pytest.mark.parametrize("check, m", [("kernel-generators", "2"), ("faithful-transfer", "3")])
    def test_metacyclic_twist_refused_at_n_1(self, capsys, check, m):
        # at n = 1 every r is 1 mod n, so no twist moves s
        assert run_cli(["check", check, "--n", "1", "--m", m, "--r", "0"]) == (2, "")
        assert capsys.readouterr().err == "invalid invocation: twist must move s (r != 1 mod n)\n"

    def test_kernel_generators_past_the_enumeration_cap_is_refused(self, capsys):
        # order 120, where r^j runs to 4^23: the v vector is summed by
        # multiplicity, so the check reaches the cap at once
        argv = ["check", "kernel-generators", "--n", "5", "--m", "24", "--r", "4"]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == (
            "invalid invocation: subgroup enumeration capped at order 64\n"
        )

    def test_invertible_certificate_refuses_a_bound(self, capsys):
        argv = ["certify", "--group", "C:2", "--lattice", "sign",
                "--kind", "invertible", "--bound", "7"]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == (
            "invalid invocation: certify --kind invertible takes no parameter --bound\n"
        )

    def test_permutation_bound_defaults_to_two(self):
        argv = ["certify", "--group", "C:2", "--lattice", "sign",
                "--kind", "permutation", "--output", "json"]
        code, text = run_cli(argv)
        assert code == 0 and json.loads(text)["bound"] == 2

    def test_permutation_bound_zero_is_refused(self, capsys):
        argv = ["certify", "--group", "C:2", "--lattice", "sign",
                "--kind", "permutation", "--bound", "0"]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == "invalid invocation: bound must be >= 1\n"

    def test_a_huge_sylow_prime_is_refused_before_it_is_factored(self, capsys):
        # trial division of p would take sqrt(p) steps; p does not divide 4
        argv = ["tate", "--group", "C:4", "--lattice", "regular",
                "--subgroup", "sylow100000000000000000039", "--degree", "0"]
        start = time.perf_counter()
        assert run_cli(argv) == (2, "")
        assert time.perf_counter() - start < 1.0
        assert "does not divide the group order 4" in capsys.readouterr().err

    @pytest.mark.parametrize("p, message", [
        ("0", "0 is not prime"), ("1", "1 is not prime"), ("4", "4 is not prime"),
        ("9", "9 does not divide the group order 4"),
    ])
    def test_sylow_refusals(self, capsys, p, message):
        argv = ["tate", "--group", "C:4", "--lattice", "regular",
                "--subgroup", f"sylow{p}", "--degree", "0"]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"invalid invocation: {message}\n"

    @staticmethod
    def nested(depth):
        return "X(C:1," * depth + "C:1" + ")" * depth

    @pytest.mark.parametrize("argv", [
        lambda g: ["group", "info", "--group", g],
        lambda g: ["flows", "--graph", f"cayley({g};s)"],
        lambda g: ["flows", "--graph", f"cayley({g};e)"],
        lambda g: ["tate", "--group", "C:1", "--lattice", f"flows:cayley({g};e)",
                   "--subgroup", "whole", "--degree", "0"],
    ], ids=["group", "cayley-s", "cayley-e", "flows"])
    def test_a_deeply_nested_group_spec_is_a_spec_error(self, capsys, argv):
        assert run_cli(argv(self.nested(1200))) == (2, "")
        assert capsys.readouterr().err == (
            "spec error: group spec nests X(...) too deeply (token 'X(C:1,X(', position 0)\n"
        )

    @pytest.mark.parametrize("argv", [
        lambda g: ["group", "info", "--group", g],
        lambda g: ["flows", "--graph", f"cayley({g};e)"],
        lambda g: ["tate", "--group", g, "--lattice", f"flows:cayley({g};e)",
                   "--subgroup", "whole", "--degree", "0"],
    ], ids=["group", "cayley-e", "flows"])
    def test_a_moderately_nested_group_spec_parses(self, argv):
        # direct products name no generator s, so the Cayley graphs take e
        code, _ = run_cli(argv(self.nested(300)))
        assert code == 0

    @pytest.mark.parametrize(
        "exc",
        [
            CertificateError("the section is a right inverse"),
            AttributeError("no attribute x"),
            KeyError("x"),
            TypeError("unsupported operand"),
            ValueError("shape mismatch"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_internal_error_exits_three_without_traceback(self, monkeypatch, capsys, exc):
        def runner():
            raise exc

        monkeypatch.setitem(CHECKS, "rank-formula", ((), runner))
        code, out = run_cli(["check", "rank-formula"])
        err = capsys.readouterr().err
        assert code == 3
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"
        assert "Traceback" not in err


class TestCommands:
    def test_group_info_json(self):
        code, text = run_cli(["group", "info", "--group", "SD:3,2,2", "--output", "json"])
        assert code == 0
        info = json.loads(text)
        assert info["order"] == 6
        assert info["z_group"] is True
        assert info["sylow_orders"] == {"2": 2, "3": 3}

    def test_tate_prints_invariant_factors(self):
        code, text = run_cli([
            "tate", "--group", "SD:3,2,2", "--lattice", "trivial",
            "--subgroup", "sylow3", "--degree", "0", "--output", "json",
        ])
        assert code == 0
        assert json.loads(text)["invariant_factors"] == [3]

    def test_tate_duality_route(self):
        code, text = run_cli([
            "tate", "--group", "SD:3,2,2", "--lattice", "flows:cayley",
            "--subgroup", "sylow2", "--degree", "1",
        ])
        assert code == 0
        assert text.strip() == "0"

    @pytest.mark.parametrize(
        "argv",
        [argv for argv in TATE_GRID
         if argv[2] in ("D:4", "SD:3,2,2") and argv[4] == "flows:cayley"],
        ids=" ".join,
    )
    def test_tate_on_a_graph_lattice_spec(self, argv):
        """A lattice named by its graph is built over its own copy of the
        group; the subgroup must be read in that copy."""
        graph_argv = argv[:4] + [f"flows:cayley({argv[2]};s,t)"] + argv[5:]
        code, text = run_cli(argv)
        assert code == 0
        assert run_cli(graph_argv) == (0, text)

    def test_flows_disconnected(self):
        code, text = run_cli(["flows", "--graph", "cayley(C:4;s2)", "--output", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["connected"] is False
        assert payload["components"] == [[0, 2], [1, 3]]

    def test_resolve(self):
        code, text = run_cli([
            "resolve", "--group", "C:2", "--lattice", "sign",
            "--kind", "coflasque", "--output", "json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["certified"] is True
        assert payload["ranks"]["middle"] == 2

    def test_certify_permutation(self):
        code, text = run_cli([
            "certify", "--group", "C:3", "--lattice", "regular",
            "--kind", "permutation", "--output", "json",
        ])
        assert code == 0
        assert json.loads(text)["witness_found"] is True

    def test_check_json_report(self):
        code, text = run_cli([
            "check", "bar-cocycle", "--group", "C:2", "--output", "json",
        ])
        assert code == 0
        report = json.loads(text)
        assert report["status"] == "pass"
        assert report["check_id"] == "bar-cocycle"

    def test_check_deterministic_modulo_elapsed(self):
        argv = ["check", "center-walks", "--group", "C:3", "--output", "json"]
        _, a = run_cli(argv)
        _, b = run_cli(argv)
        ja, jb = json.loads(a), json.loads(b)
        ja.pop("elapsed_ms"), jb.pop("elapsed_ms")
        assert ja == jb

    @pytest.mark.parametrize("argv", CHECK_ARGVS, ids=lambda argv: argv[1])
    def test_every_check_id_is_addressable(self, argv):
        code, text = run_cli(argv)
        assert code == 0
        assert json.loads(text)["status"] == "pass"

    def test_unknown_check_id_is_a_spec_error(self):
        with pytest.raises(SpecParseError, match="unknown check id"):
            run_check("no-such-check", {})


    def test_group_info_enumerates_subgroups_up_to_the_cap(self):
        _, text = run_cli(["group", "info", "--group", "C:64", "--output", "json"])
        assert json.loads(text)["subgroup_count"] == 7  # one per divisor of 64
        _, text = run_cli(["group", "info", "--group", "C:65", "--output", "json"])
        assert "subgroup_count" not in json.loads(text)


def test_rank_formula_specs_build_the_reference_graphs():
    reference = quick_suite_graphs()
    assert [label for label, _ in RANK_FORMULA_GRAPHS] == [label for label, _ in reference]
    for (_, spec), (label, want) in zip(RANK_FORMULA_GRAPHS, reference):
        got = parse_graph_spec(spec)
        assert got.group.spec == want.group.spec, label
        assert got.vertices.action == want.vertices.action, label
        assert got.edges == want.edges, label
        assert got.edge_gset.action == want.edge_gset.action, label


def test_readme_lists_every_check_id():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Check ids", 1)[1].split("Reports follow", 1)[0]
    listed = [
        (check_id, tuple(re.findall(r"`--([a-z]+)`", flags)))
        for check_id, flags in re.findall(r"^- `([a-z-]+)`(.*)$", section, re.M)
    ]
    assert listed == [(check_id, flags) for check_id, (flags, _) in CHECKS.items()]
