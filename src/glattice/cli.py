"""Command-line front end: parse group/graph/lattice specs, run
computations and check suites, emit text or JSON reports.

Spec grammars
    group     C:<n> | D:<n> | SD:<n>,<m>,<r> | S:<n> | X(<spec>,<spec>)
    generator e | s | s<k> | t<k> | s<k>t<j> | #<index> | * (all nonidentity)
              and cycle notation like (12) or (123)(45) for S:<n>
              (disjoint cycles; malformed tokens are refused)
    gset      regular(<group>) | natural(<group>) | cosets(<group>;<gens>)
    graph     cayley(<group>;<gens>) | complete(<gset>;loops=0|1)
              | cosets(<group>;<gens>)
    lattice   flows:<graph> | flows:cayley | regular | trivial | sign
    subgroup  whole | trivial | sylow<p> | gen:<gens>

Exit codes: 0 success / all checks pass, 1 a check failed (reports are
still emitted), 2 usage or spec error (with the failing token), 3 an
internal error (one `internal error: <Type>: <message>` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParameterError, SpecParseError
from .gflows import GGraph, cayley_graph, complete_edges, flow_lattice
from .gmod import GLattice, regular as regular_lattice, trivial as trivial_lattice
from .groups import (
    MAX_SUBGROUP_ENUMERATION_ORDER,
    FiniteGroup,
    GSet,
    Subgroup,
    all_subgroups,
    coset_gset,
    cyclic,
    dihedral,
    direct_product,
    is_z_group,
    natural_gset,
    prime_factorization,
    regular_gset,
    semidirect,
    subgroup_from_generators,
    sylow,
    symmetric,
    trivial_subgroup,
    whole_group,
)
from .intlinalg import IntMatrix
from . import checks
from .cohom import (
    coflasque_resolution,
    flasque_resolution,
    invertibility_certificate,
    is_permutation_bounded,
    tate,
)


# -- spec parsing ------------------------------------------------------------------


def parse_group_spec(spec: str) -> FiniteGroup:
    spec = spec.strip()
    try:
        group, rest = _parse_group_prefix(spec, 0)
    except RecursionError:  # the descent recurses once per X( level
        raise SpecParseError("group spec nests X(...) too deeply", spec[:8], 0) from None
    if rest != len(spec):
        raise SpecParseError(
            f"trailing characters in group spec {spec!r}", spec[rest:], rest
        )
    return group


def _parse_group_prefix(spec: str, pos: int) -> Tuple[FiniteGroup, int]:
    m = re.match(r"C:(\d+)", spec[pos:])
    if m:
        return cyclic(int(m.group(1))), pos + m.end()
    m = re.match(r"D:(\d+)", spec[pos:])
    if m:
        return dihedral(int(m.group(1))), pos + m.end()
    m = re.match(r"SD:(\d+),(\d+),(\d+)", spec[pos:])
    if m:
        return semidirect(int(m.group(1)), int(m.group(2)), int(m.group(3))), pos + m.end()
    m = re.match(r"S:(\d+)", spec[pos:])
    if m:
        return symmetric(int(m.group(1))), pos + m.end()
    if spec[pos:].startswith("X("):
        left, p = _parse_group_prefix(spec, pos + 2)
        if p >= len(spec) or spec[p] != ",":
            raise SpecParseError("expected ',' in product spec", spec[p : p + 1], p)
        right, p = _parse_group_prefix(spec, p + 1)
        if p >= len(spec) or spec[p] != ")":
            raise SpecParseError("expected ')' in product spec", spec[p : p + 1], p)
        return direct_product(left, right), p + 1
    raise SpecParseError(
        f"unrecognized group spec at position {pos}", spec[pos : pos + 8], pos
    )


def parse_generator_token(G: FiniteGroup, token: str) -> int:
    token = token.strip()
    if token == "e":
        return G.identity
    if token.startswith("#"):
        try:
            idx = int(token[1:])
        except ValueError:
            raise SpecParseError(
                f"element index {token[1:]!r} is not an integer", token, 0
            ) from None
        if not 0 <= idx < G.order:
            raise SpecParseError(f"element index {idx} out of range", token, 0)
        return idx
    if token.startswith("("):
        if G.point_action is None:
            raise SpecParseError(
                "cycle notation needs a symmetric group", token, 0
            )
        if not re.fullmatch(r"(\(\d+\))+", token):
            raise SpecParseError(f"malformed cycle token {token!r}", token, 0)
        n = len(G.point_action[0])
        perm, moved = list(range(n)), set()
        for cyc in re.findall(r"\((\d+)\)", token):
            pts = [int(c) - 1 for c in cyc]
            if any(not 0 <= p < n for p in pts) or len(set(pts)) != len(pts):
                raise SpecParseError(f"bad cycle {cyc!r}", token, 0)
            if moved.intersection(pts):
                raise SpecParseError(f"cycles of {token!r} are not disjoint", token, 0)
            moved.update(pts)
            for i, p in enumerate(pts):
                perm[p] = pts[(i + 1) % len(pts)]
        return G.point_action.index(tuple(perm))  # S:n holds every permutation
    m = re.fullmatch(r"(?:s(\d*))?(?:t(\d*))?", token)
    if m and token:
        si = G.generator_indices.get("s")
        ti = G.generator_indices.get("t")
        out = G.identity
        if m.group(1) is not None:
            if si is None:
                raise SpecParseError("group has no generator s", token, 0)
            out = G.mul(out, G.power(si, int(m.group(1) or 1)))
        if m.group(2) is not None:
            if ti is None:
                raise SpecParseError("group has no generator t", token, 0)
            out = G.mul(out, G.power(ti, int(m.group(2) or 1)))
        return out
    raise SpecParseError(f"unrecognized generator token {token!r}", token, 0)


def parse_generators(G: FiniteGroup, csv: str) -> List[int]:
    csv = csv.strip()
    if csv == "*":
        return [g for g in G.elements() if g != G.identity]
    tokens = [t for t in csv.split(",") if t.strip()]
    if not tokens:
        raise SpecParseError("empty generator list", csv, 0)
    return [parse_generator_token(G, t) for t in tokens]


def _parse_gset(spec: str, group_of: Callable[[str], FiniteGroup]) -> GSet:
    spec = spec.strip()
    m = re.fullmatch(r"regular\((.*)\)", spec)
    if m:
        return regular_gset(group_of(m.group(1)))
    m = re.fullmatch(r"natural\((.*)\)", spec)
    if m:
        return natural_gset(group_of(m.group(1)))
    m = re.fullmatch(r"cosets\((.*);(.*)\)", spec)
    if m:
        G = group_of(m.group(1))
        H = subgroup_from_generators(G, parse_generators(G, m.group(2)))
        return coset_gset(G, H)
    raise SpecParseError(f"unrecognized gset spec {spec!r}", spec[:12], 0)


def parse_graph_spec(spec: str) -> GGraph:
    return _parse_graph(spec, parse_group_spec)


def _parse_graph(spec: str, group_of: Callable[[str], FiniteGroup]) -> GGraph:
    spec = spec.strip()
    m = re.fullmatch(r"cayley\((.*);(.*)\)", spec)
    if m:
        G = group_of(m.group(1))
        return cayley_graph(G, parse_generators(G, m.group(2)))
    m = re.fullmatch(r"complete\((.*);loops=([01])\)", spec)
    if m:
        return complete_edges(_parse_gset(m.group(1), group_of), loops=m.group(2) == "1")
    if re.fullmatch(r"cosets\((.*);(.*)\)", spec):
        return complete_edges(_parse_gset(spec, group_of), loops=False)
    raise SpecParseError(f"unrecognized graph spec {spec!r}", spec[:12], 0)


def parse_lattice_spec(G: FiniteGroup, spec: str) -> GLattice:
    spec = spec.strip()
    if spec == "regular":
        return regular_lattice(G)
    if spec == "trivial":
        return trivial_lattice(G)
    if spec == "sign":
        if G.order != 2:
            raise SpecParseError("sign lattice is defined for C:2", spec, 0)
        return GLattice(G, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    if spec == "flows:cayley":
        gens = [G.generator_indices[k] for k in ("s", "t") if k in G.generator_indices]
        if not gens or G.closure(gens) != tuple(range(G.order)):
            raise SpecParseError(
                "flows:cayley needs distinguished generators; use flows:cayley(...)",
                spec, 0,
            )
        return flow_lattice(cayley_graph(G, gens))
    if spec.startswith("flows:"):
        # the graph is built over G itself wherever its group spec names G
        def own_group(text: str) -> FiniteGroup:
            H = parse_group_spec(text)
            return G if H.spec == G.spec else H

        graph = _parse_graph(spec[len("flows:"):], own_group)
        if graph.group is not G:
            raise SpecParseError("lattice graph group differs from --group", spec, 0)
        return flow_lattice(graph)
    raise SpecParseError(f"unrecognized lattice spec {spec!r}", spec[:12], 0)


def parse_subgroup_spec(G: FiniteGroup, spec: str) -> Subgroup:
    spec = spec.strip()
    if spec == "whole":
        return whole_group(G)
    if spec == "trivial":
        return trivial_subgroup(G)
    m = re.fullmatch(r"sylow(\d+)", spec)
    if m:
        return sylow(G, int(m.group(1)))
    m = re.fullmatch(r"gen:(.*)", spec)
    if m:
        return subgroup_from_generators(G, parse_generators(G, m.group(1)))
    raise SpecParseError(f"unrecognized subgroup spec {spec!r}", spec[:12], 0)


# -- check dispatch ------------------------------------------------------------------


def _cyclic_flows(n: int, gens: str) -> checks.CheckReport:
    return checks.check_cyclic_flows(n, parse_generators(cyclic(n), gens))


def _flow_coflasque(group: str, gens: str) -> checks.CheckReport:
    G = parse_group_spec(group)
    return checks.check_flow_coflasque(G, parse_generators(G, gens))


def _schanuel(group: str, lattice: str) -> checks.CheckReport:
    G = parse_group_spec(group)
    return checks.check_schanuel(parse_lattice_spec(G, lattice), G.spec, lattice)


# The rank-formula graphs: (report label, graph spec), in report order.
# Most labels are their specs; the rest are pinned by the report's output.
RANK_FORMULA_GRAPHS = [(spec, spec) for spec in (
    *(f"cayley(C:{n};s)" for n in (2, 3, 4, 5, 6)),
    "cayley(C:12;s,s2)",
    "cayley(C:8;s,s3)",
    *(f"cayley(D:{n};s,t)" for n in (3, 4, 6)),
    *(f"cayley(SD:{nmr};s,t)" for nmr in ("3,2,2", "5,2,4", "5,4,2", "7,3,2")),
)] + [
    ("cayley(X(C:2,C:2);all)", "cayley(X(C:2,C:2);*)"),
    ("complete(regular X(C:2,C:2))", "complete(regular(X(C:2,C:2));loops=0)"),
    ("complete(natural S:3)", "complete(natural(S:3);loops=0)"),
    ("complete(regular S:3; loops)", "complete(regular(S:3);loops=1)"),
    ("complete(cosets S:3/<t>)", "cosets(S:3;(23))"),
    ("cayley(S:4;(12),(1234))", "cayley(S:4;(12),(1234))"),
    ("complete(natural S:4)", "complete(natural(S:4);loops=0)"),
]


def _rank_formula() -> checks.CheckReport:
    return checks.check_rank_formula(
        [(label, parse_graph_spec(spec)) for label, spec in RANK_FORMULA_GRAPHS]
    )


# Each check id, in the order the CLI lists them, with the flags its
# runner reads, in that order, and the runner, called with their values.
CHECKS: Dict[str, Tuple[Tuple[str, ...], Callable[..., checks.CheckReport]]] = {
    "rank-formula": ((), _rank_formula),
    "cyclic-flows": (("n", "gens"), _cyclic_flows),
    "flow-coflasque": (("group", "gens"), _flow_coflasque),
    "kernel-generators": (("n", "m", "r"), checks.check_kernel_generators),
    "faithful-transfer": (("n", "m", "r"), checks.check_faithful_transfer),
    "bar-cocycle": (("group",), lambda group: checks.check_bar_cocycle(parse_group_spec(group))),
    "center-walks": (("group",), lambda group: checks.check_center_walks(parse_group_spec(group))),
    "sn-restrictions": (("n",), checks.check_sn_restrictions),
    "schanuel": (("group", "lattice"), _schanuel),
}


def run_check(check_id: str, params: Dict[str, object]) -> checks.CheckReport:
    """Run one named check from exactly the flags it reads, by flag name."""
    if check_id not in CHECKS:
        raise SpecParseError(f"unknown check id {check_id!r}", check_id, 0)
    flags, runner = CHECKS[check_id]
    for flag in flags:
        if flag not in params:
            raise InvalidParameterError(f"missing check parameter --{flag}")
    extra = [flag for flag in params if flag not in flags]
    if extra:
        raise InvalidParameterError(f"check {check_id} takes no parameter --{extra[0]}")
    return runner(*(params[flag] for flag in flags))


def suite_definition(name: str) -> List[Tuple[str, Dict[str, object]]]:
    """Declarative check lists: quick covers order <= 12, full order <= 24 and S5."""
    if name not in ("quick", "full"):
        raise SpecParseError(f"unknown suite {name!r}", name, 0)
    checks: List[Tuple[str, Dict[str, object]]] = [("rank-formula", {})]
    for n in range(2, 13):
        checks.append(("cyclic-flows", {"n": n, "gens": "s"}))
        second = "s,s2" if n > 2 else "s,e"
        checks.append(("cyclic-flows", {"n": n, "gens": second}))
    for group, gens in (
        ("C:6", "s"),
        ("C:12", "s,s5"),
        ("X(C:2,C:2)", "*"),
        ("SD:3,2,2", "s,t"),
        ("D:4", "s,t"),
        ("SD:5,2,4", "s,t"),
        ("D:6", "s,t"),
    ):
        checks.append(("flow-coflasque", {"group": group, "gens": gens}))
    checks.append(("kernel-generators", {"n": 3, "m": 2, "r": 2}))
    checks.append(("kernel-generators", {"n": 5, "m": 2, "r": 4}))
    checks.append(("faithful-transfer", {"n": 3, "m": 2, "r": 2}))
    checks.append(("faithful-transfer", {"n": 5, "m": 2, "r": 4}))
    for group in ("C:2", "C:4", "SD:3,2,2", "D:4"):
        checks.append(("bar-cocycle", {"group": group}))
    for group in ("C:2", "C:3", "SD:3,2,2"):
        checks.append(("center-walks", {"group": group}))
    checks.append(("sn-restrictions", {"n": 3}))
    checks.append(("schanuel", {"group": "C:2", "lattice": "trivial"}))
    checks.append(("schanuel", {"group": "C:2", "lattice": "sign"}))
    checks.append(("schanuel", {"group": "SD:3,2,2", "lattice": "flows:cayley"}))
    if name == "full":
        for (n, m, r) in ((7, 3, 2), (5, 4, 2), (5, 4, 3)):
            checks.append(("kernel-generators", {"n": n, "m": m, "r": r}))
        checks.append(("faithful-transfer", {"n": 7, "m": 3, "r": 2}))
        for group, gens in (
            ("SD:5,4,2", "s,t"),
            ("SD:7,3,2", "s,t"),
            ("D:12", "s,t"),
            ("S:4", "(12),(1234)"),
        ):
            checks.append(("flow-coflasque", {"group": group, "gens": gens}))
        checks.append(("sn-restrictions", {"n": 4}))
        checks.append(("sn-restrictions", {"n": 5}))
    return checks


def run_suite(name: str) -> List[checks.CheckReport]:
    reports = [run_check(cid, params) for cid, params in suite_definition(name)]
    reports.sort(key=lambda r: (r.check_id, r.group_spec, json.dumps(r.parameters, sort_keys=True)))
    return reports


# -- output helpers -------------------------------------------------------------------


def _emit(payload: Dict[str, object], output: str, out) -> None:
    """Print a payload as indented JSON, or as one `key: value` line per key."""
    if output == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        for k, v in payload.items():
            print(f"{k}: {v}", file=out)


def _print_report(report: checks.CheckReport, output: str, out) -> None:
    if output == "json":
        _emit(report.to_json_dict(), output, out)
        return
    print(f"[{report.status.upper():6s}] {report.check_id} {report.group_spec} "
          f"{json.dumps(report.parameters, sort_keys=True)}", file=out)
    for d in report.details:
        mark = "ok " if d["status"] == "pass" else "FAIL"
        detail = f"  ({d['detail']})" if d["detail"] else ""
        print(f"    {mark} {d['name']}{detail}", file=out)


def _suite_payload(name: str, reports: List[checks.CheckReport]) -> Dict[str, object]:
    status = "pass"
    if any(r.status == "fail" for r in reports):
        status = "fail"
    return {
        "suite": name,
        "status": status,
        "checks": [r.to_json_dict() for r in reports],
    }


# -- command implementations --------------------------------------------------------------


def _cmd_group_info(opts: Dict[str, object], output: str, out) -> int:
    G = parse_group_spec(str(opts["group"]))
    info: Dict[str, object] = {
        "spec": G.spec,
        "order": G.order,
        "abelian": G.is_abelian(),
        "center_order": len(G.center()),
        "element_names": list(G.element_names),
    }
    if G.order <= MAX_SUBGROUP_ENUMERATION_ORDER:
        subs = all_subgroups(G)
        info["subgroup_count"] = len(subs)
        info["subgroup_orders"] = sorted(s.order for s in subs)
        info["z_group"] = is_z_group(G)
        info["sylow_orders"] = {
            str(p): sylow(G, p).order for p, _ in prime_factorization(G.order)
        }
    _emit(info, output, out)
    return 0


def _cmd_flows(opts: Dict[str, object], output: str, out) -> int:
    X = parse_graph_spec(str(opts["graph"]))
    payload: Dict[str, object] = {
        "graph": str(opts["graph"]),
        "group": X.group.spec,
        "vertices": X.n_vertices,
        "edges": X.n_edges,
        "connected": X.is_connected(),
    }
    if X.is_connected():
        fl = flow_lattice(X)
        payload["rank"] = fl.rank
        payload["edge_orbits"] = [len(o) for o in X.edge_orbits()]
    else:
        payload["components"] = [list(c) for c in X.components()]
    _emit(payload, output, out)
    return 0


def _cmd_tate(opts: Dict[str, object], output: str, out) -> int:
    G = parse_group_spec(str(opts["group"]))
    M = parse_lattice_spec(G, str(opts["lattice"]))
    H = parse_subgroup_spec(G, str(opts["subgroup"]))
    degree = int(opts["degree"])
    result = tate(M, H, degree)
    payload = {
        "group": G.spec,
        "lattice": str(opts["lattice"]),
        "subgroup": str(opts["subgroup"]),
        "degree": degree,
        "invariant_factors": list(result.invariant_factors),
        "tate_group": str(result),
    }
    if output == "json":
        _emit(payload, output, out)
    else:
        print(result, file=out)
    return 0


def _cmd_resolve(opts: Dict[str, object], output: str, out) -> int:
    G = parse_group_spec(str(opts["group"]))
    M = parse_lattice_spec(G, str(opts["lattice"]))
    kind = str(opts["kind"])
    cert = coflasque_resolution(M) if kind == "coflasque" else flasque_resolution(M)
    payload = {
        "group": G.spec,
        "lattice": str(opts["lattice"]),
        "kind": cert.kind,
        "ranks": {
            "left": cert.sequence.A.rank,
            "middle": cert.sequence.B.rank,
            "right": cert.sequence.C.rank,
        },
        "middle_orbit_sizes": sorted(len(o) for o in cert.sequence.B.gset.orbits()),
        "certified": True,
    }
    _emit(payload, output, out)
    return 0


def _cmd_certify(opts: Dict[str, object], output: str, out) -> int:
    kind, bound = str(opts["kind"]), opts["bound"]
    if kind == "invertible" and bound is not None:
        raise InvalidParameterError("certify --kind invertible takes no parameter --bound")
    G = parse_group_spec(str(opts["group"]))
    M = parse_lattice_spec(G, str(opts["lattice"]))
    if kind == "permutation":
        outcome = is_permutation_bounded(M, 2 if bound is None else int(bound))
        payload = {
            "group": G.spec,
            "lattice": str(opts["lattice"]),
            "kind": "permutation",
            "witness_found": bool(outcome),
            "bound": outcome.bound,
            "orbit_sizes": [len(o) for o in outcome.orbits] if outcome else None,
            "reason": outcome.reason,
        }
    else:
        cert = invertibility_certificate(M)
        payload = {
            "group": G.spec,
            "lattice": str(opts["lattice"]),
            "kind": "invertible",
            "certified": cert is not None,
        }
        if cert is not None:
            payload["subgroups"] = [list(H.elements) for H in cert.subgroups]
            payload["indices"] = [H.index() for H in cert.subgroups]
            payload["witness_orbit_sizes"] = [
                [len(o) for o in w.orbits] for w in cert.restriction_witnesses
            ]
        else:
            payload["status"] = "unknown"
    _emit(payload, output, out)
    return 0


def _cmd_check(opts: Dict[str, object], output: str, out) -> int:
    params = {k: v for k, v in opts.items() if k != "check_id" and v is not None}
    report = run_check(str(opts["check_id"]), params)
    _print_report(report, output, out)
    return 0 if report.ok else 1


def _cmd_suite(opts: Dict[str, object], output: str, out) -> int:
    name = str(opts["name"])
    reports = run_suite(name)
    if output == "json":
        _emit(_suite_payload(name, reports), output, out)
    else:
        for r in reports:
            _print_report(r, "text", out)
        passed = sum(1 for r in reports if r.status == "pass")
        print(f"suite {name}: {passed}/{len(reports)} passed", file=out)
    return 0 if all(r.status != "fail" for r in reports) else 1


# -- argument parsing -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glattice",
        description="Exact computations with finite-group lattices and graph flows.",
    )
    sub = parser.add_subparsers(required=True)

    p_group = sub.add_parser("group", help="group utilities")
    group_sub = p_group.add_subparsers(required=True)
    p_info = group_sub.add_parser("info", help="orders, subgroups, Sylow data")
    p_info.add_argument("--group", required=True)
    p_info.add_argument("--output", choices=("text", "json"), default="text")
    p_info.set_defaults(run=_cmd_group_info)

    p_flows = sub.add_parser("flows", help="flow lattice of a graph spec")
    p_flows.add_argument("--graph", required=True)
    p_flows.add_argument("--output", choices=("text", "json"), default="text")
    p_flows.set_defaults(run=_cmd_flows)

    p_tate = sub.add_parser("tate", help="Tate cohomology in degrees -1, 0, 1")
    p_tate.add_argument("--group", required=True)
    p_tate.add_argument("--lattice", required=True)
    p_tate.add_argument("--subgroup", required=True)
    p_tate.add_argument("--degree", type=int, required=True, choices=(-1, 0, 1))
    p_tate.add_argument("--output", choices=("text", "json"), default="text")
    p_tate.set_defaults(run=_cmd_tate)

    p_res = sub.add_parser("resolve", help="coflasque/flasque resolution")
    p_res.add_argument("--group", required=True)
    p_res.add_argument("--lattice", required=True)
    p_res.add_argument("--kind", choices=("coflasque", "flasque"), default="coflasque")
    p_res.add_argument("--output", choices=("text", "json"), default="text")
    p_res.set_defaults(run=_cmd_resolve)

    p_cert = sub.add_parser("certify", help="permutation/invertibility certificates")
    p_cert.add_argument("--group", required=True)
    p_cert.add_argument("--lattice", required=True)
    p_cert.add_argument("--kind", choices=("invertible", "permutation"), default="invertible")
    p_cert.add_argument("--bound", type=int, default=None)
    p_cert.add_argument("--output", choices=("text", "json"), default="text")
    p_cert.set_defaults(run=_cmd_certify)

    p_check = sub.add_parser("check", help="run one named check")
    p_check.add_argument("check_id", choices=list(CHECKS))
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--r", type=int)
    p_check.add_argument("--group")
    p_check.add_argument("--gens")
    p_check.add_argument("--lattice")
    p_check.add_argument("--output", choices=("text", "json"), default="json")
    p_check.set_defaults(run=_cmd_check)

    p_suite = sub.add_parser("suite", help="run the quick or full check suite")
    p_suite.add_argument("name", choices=("quick", "full"))
    p_suite.add_argument("--output", choices=("text", "json"), default="text")
    p_suite.set_defaults(run=_cmd_suite)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    opts = vars(args)
    run, output = opts.pop("run"), opts.pop("output")
    try:
        return run(opts, output, out)
    except SpecParseError as exc:
        print(
            f"spec error: {exc} (token {exc.token!r}, position {exc.position})",
            file=sys.stderr,
        )
        return 2
    except InvalidParameterError as exc:
        print(f"invalid invocation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, never a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
