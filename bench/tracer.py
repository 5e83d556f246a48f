"""Span tracer that times glattice's layers from outside the program.

`Tracer.install()` replaces every public function and public method of
the seven glattice modules with a wrapper that records one span per call:
its name, start, end and parent span.  The package is left untouched on
disk; only the running process's module and class attributes are
rebound.  Spans stay in memory until `write_spans` saves them.

A layer is a module.  A span's self time is its duration minus the
durations of its child spans, so the self times of all spans partition
the time spent inside the outermost calls.  Sub-layers (`SUBLAYERS`)
group the spans of a few named entry points inside one layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "checks", "cohom", "gflows", "gmod", "groups", "intlinalg")

# Dunder methods that are entry points: constructors (object builds and
# their validation) and the matrix product.  Other dunders, and all
# properties, stay unwrapped; their time counts toward their caller.
WRAPPED_DUNDERS = ("__init__", "__post_init__", "__matmul__")

SUBLAYERS: Dict[str, tuple] = {
    "intlinalg.smith": ("intlinalg.smith",),
    "intlinalg.matmul": ("intlinalg.IntMatrix.__matmul__",),
    "intlinalg.hermite": ("intlinalg.row_hermite", "intlinalg.col_hermite"),
    "intlinalg.solve": (
        "intlinalg.solve",
        "intlinalg.solve_matrix",
        "intlinalg.solvable",
        "intlinalg.BasisSolver.__init__",
        "intlinalg.BasisSolver.express",
        "intlinalg.BasisSolver.express_matrix",
        "intlinalg.BasisSolver.contains",
    ),
    "gmod.validate": ("gmod.GLattice.validate",),
    "gmod.equivariance": (
        "gmod.EquivariantMap.equivariance_failure",
        "gmod.EquivariantMap.validate",
    ),
    "gmod.sublattice": ("gmod.sublattice_with_action",),
    "cohom.tate": ("cohom.tate",),
    "cohom.resolution": ("cohom.coflasque_resolution", "cohom.flasque_resolution"),
    "gflows.graph": (
        "gflows.GGraph.__init__",
        "gflows.cayley_graph",
        "gflows.complete_edges",
    ),
    "gflows.flow_lattice": ("gflows.flow_lattice",),
    "groups.group": (
        "groups.FiniteGroup.__init__",
        "groups.cyclic",
        "groups.semidirect",
        "groups.dihedral",
        "groups.symmetric",
        "groups.direct_product",
    ),
    "groups.gset": (
        "groups.GSet.__init__",
        "groups.regular_gset",
        "groups.coset_gset",
        "groups.natural_gset",
        "groups.trivial_gset",
    ),
    "groups.subgroups": (
        "groups.all_subgroups",
        "groups.subgroup_conjugacy_reps",
        "groups.subgroup_from_generators",
        "groups.sylow",
        "groups.Subgroup.__post_init__",
    ),
    "cli.parse": (
        "cli.parse_group_spec",
        "cli.parse_generator_token",
        "cli.parse_generators",
        "cli.parse_gset_spec",
        "cli.parse_graph_spec",
        "cli.parse_lattice_spec",
        "cli.parse_subgroup_spec",
    ),
}

# Bookkeeping done after a call returns (reading the sizes of its result)
# is recorded as a span of this pseudo-layer, so that it is charged to the
# tracer and to no glattice layer.
OBSERVE = "trace.observe"


def _max_bits(matrix) -> int:
    a = matrix.a
    if a.size == 0:
        return 0
    return max(abs(int(a.min())), abs(int(a.max()))).bit_length()


class Counters:
    """Values read off results at the layer boundary while tracing."""

    def __init__(self) -> None:
        self.max_dim = 0
        self.max_bits = 0
        self.sections_found = 0
        self.resolution_input_rank = 0
        self.resolution_middle_rank = 0

    def _normal_form(self, matrices) -> None:
        for m in matrices:
            self.max_dim = max(self.max_dim, m.rows, m.cols)
            self.max_bits = max(self.max_bits, _max_bits(m))

    def smith(self, args, result) -> None:
        self._normal_form((result.U, result.S, result.V))

    def hermite(self, args, result) -> None:
        self._normal_form(result if isinstance(result, tuple) else (result,))

    def find_section(self, args, result) -> None:
        self.sections_found += result is not None

    def coflasque_resolution(self, args, result) -> None:
        # every caller passes the lattice positionally
        self.resolution_input_rank += args[0].rank
        self.resolution_middle_rank += result.sequence.B.rank

    def observers(self) -> Dict[str, Callable]:
        return {
            "intlinalg.smith": self.smith,
            "intlinalg.row_hermite": self.hermite,
            "intlinalg.col_hermite": self.hermite,
            "cohom.find_section": self.find_section,
            "cohom.coflasque_resolution": self.coflasque_resolution,
        }


class Tracer:
    """Records spans for wrapped calls; one instance per process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of_span = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.raised: List[int] = []
        self._stack: List[int] = []
        self.op = 0  # the operation being traced, set by the caller
        self.op_of_root: Dict[int, int] = {}
        self.counters = Counters()
        self._observe_id = self._name_id(OBSERVE)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_of_span.append(nid)
        if stack:
            self.parent.append(stack[-1])
        else:
            self.parent.append(-1)
            self.op_of_root[idx] = self.op
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _wrap(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.append(idx)
                raise
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer._stack.pop()
            if observe is not None:
                obs = tracer._open(tracer._observe_id)
                try:
                    observe(args, result)
                finally:
                    tracer.end[obs] = time.perf_counter_ns()
                    tracer._stack.pop()
            return result

        return traced

    def install(self) -> None:
        """Wrap the public surface of every layer, then rebind references."""
        observers = self.counters.observers()
        replaced: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"glattice.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, name, observers.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # `from .x import f` copies references into other modules; point
        # every copy at the wrapper.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "glattice" or mod_name.startswith("glattice."):
                for attr, obj in list(vars(mod).items()):
                    wrapper = replaced.get(id(obj))
                    if wrapper is not None and wrapper.__wrapped__ is obj:
                        setattr(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self._wrap(member.__func__, name, None)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, name, None))

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> List[int]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def metrics(self, wall_traced_s: float, wall_untraced_s: float) -> Dict[str, float]:
        """Per-layer metrics, keyed by the names in BENCHMARK.json."""
        own = self.self_times_ns()
        layer_of = [name.split(".", 1)[0] for name in self.names]
        sub_of: Dict[int, str] = {}
        for sub, members in SUBLAYERS.items():
            for member in members:
                if member in self._name_ids:
                    sub_of[self._name_ids[member]] = sub
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        name_calls = [0] * len(self.names)
        for idx, nid in enumerate(self.name_of_span):
            name_calls[nid] += 1
            for key in (layer_of[nid], sub_of.get(nid)):
                if key is not None:
                    calls[key] = calls.get(key, 0) + 1
                    self_ns[key] = self_ns.get(key, 0) + own[idx]
        raised: Dict[str, int] = {}
        for idx in self.raised:
            layer = layer_of[self.name_of_span[idx]]
            raised[layer] = raised.get(layer, 0) + 1

        def n_calls(name: str) -> int:
            nid = self._name_ids.get(name)
            return name_calls[nid] if nid is not None else 0

        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
            out[f"{layer}.raised"] = raised.get(layer, 0)
        for sub in ("intlinalg.smith", "intlinalg.matmul", "gmod.validate", "cohom.tate"):
            out[f"{sub}.calls"] = calls.get(sub, 0)
        sections = n_calls("cohom.find_section")
        out["cohom.find_section.calls"] = sections
        for sub in SUBLAYERS:
            out[f"{sub}.self_s"] = self_ns.get(sub, 0) / 1e9
        c = self.counters
        built = n_calls("gmod.GLattice.__init__")
        validated = n_calls("gmod.GLattice.validate")
        out["intlinalg.max_dim"] = c.max_dim
        out["intlinalg.max_bits"] = c.max_bits
        out["gmod.lattices_built"] = built
        out["gmod.validated_ratio"] = validated / built if built else 0.0
        out["cohom.resolution.middle_rank_ratio"] = (
            c.resolution_middle_rank / c.resolution_input_rank
            if c.resolution_input_rank else 0.0
        )
        out["cohom.find_section.hit_ratio"] = c.sections_found / sections if sections else 0.0
        layer_total = sum(self_ns.get(layer, 0) for layer in LAYERS) / 1e9
        out["trace.coverage"] = layer_total / wall_traced_s
        out["trace.overhead"] = wall_traced_s / wall_untraced_s
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent, op, name, start_ns, end_ns, raised."""
        raised = set(self.raised)
        op = array("l", [0]) * len(self.start)
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\traised\n")
            for idx, parent in enumerate(self.parent):
                op[idx] = op[parent] if parent >= 0 else self.op_of_root[idx]
                fh.write(
                    f"{idx}\t{parent}\t{op[idx]}\t{self.names[self.name_of_span[idx]]}\t"
                    f"{self.start[idx]}\t{self.end[idx]}\t{int(idx in raised)}\n"
                )
