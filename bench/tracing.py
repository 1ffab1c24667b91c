"""The traced run: timing wrappers at every layer boundary, spans, self times,
and the share of time spent in ``fractions``.

While a `Tracer` is installed, each traced library function is replaced, in
every ``querysort`` module that holds a reference to it, by a wrapper from
this file; `Tracer.remove` puts the originals back.  Coarse calls become
spans (name, start, end, parent, op id).  The hottest leaves -- the pair
test, the witness tests and the environments' ``state``/``query`` -- are
counted and timed in aggregate instead, because one span per pair test
would need gigabytes; their time is still charged to the enclosing span,
so self times stay exact.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import statistics
import sys
import time
from pathlib import Path

from querysort import cli, core, graph, instances, offline, online

STRATEGIES = (
    "run_oblivious",
    "simple_adaptive",
    "simple_adaptive_stable_sort",
    "vc_adaptive",
    "algorithm1",
    "algorithm2",
    "algorithm3_cpcp",
    "advice_half",
    "advice_lg3",
)

GENERATORS = tuple(name for name in vars(instances) if name.startswith("gen_"))

#: (layer, module or class, attribute, per-call measurement or None)
SPANS = (
    ("core.build_permutation", core, "build_permutation", None),
    ("graph.build_graph", graph, "build_graph", lambda args, g: len(g.edges)),
    ("graph.min_cost_vertex_cover", graph, "min_cost_vertex_cover", None),
    ("graph.structure", graph, "components", None),
    ("graph.structure", graph, "component_of", None),
    ("graph.structure", graph, "find_triangle", None),
    ("graph.structure", graph, "longest_path_caterpillar", None),
    ("offline.optimum_query_set", offline, "optimum_query_set", None),
    ("offline.forced_query_set", offline, "forced_query_set", None),
    ("offline.oblivious_query_set", offline, "oblivious_query_set", None),
    ("offline.brute_force", offline, "brute_force_optimum", None),
    ("offline.brute_force", offline, "cpcp_brute_force_optimum", None),
    ("online.expected_cost_exact", online, "expected_cost_exact", None),
    ("instances.deserialize", instances, "deserialize", lambda args, inst: len(args[0].encode())),
    ("instances.serialize", instances, "serialize", None),
    ("cli.main", cli, "main", None),
) + tuple(
    (f"online.{name}", online, name, None) for name in STRATEGIES
) + tuple(
    ("instances.generate", instances, name, None) for name in GENERATORS
)

#: (counter, module or class, attribute)
LEAVES = (
    ("core.dependent", core, "dependent"),
    ("core.witness_test", core, "singleton_witness_value"),
    ("core.witness_test", core, "singleton_witness_static"),
    ("online.state", online.Environment, "state"),
    ("online.state", online.CpcpEnvironment, "state"),
    ("online.query", online.Environment, "query"),
    ("online.query", online.CpcpEnvironment, "query"),
)

#: Per-layer metrics: name, unit, and which end-to-end metric it should move on which workload.
LAYER_METRICS = (
    ("core.dependent.calls", "calls/op", "op_ms_p50 on adaptive-loop"),
    ("core.dependent.ns_per_call", "ns", "ops_per_s on one-shot-large (integer kernel)"),
    ("core.witness_test.calls", "calls/op", "op_ms_p50 on adaptive-loop"),
    ("core.build_permutation.s", "s/op", "op_ms_p50 on one-shot-large; no move on ratio-sweep"),
    ("core.build_permutation.calls", "calls/op", "op_ms_p50 on one-shot-large; no move on ratio-sweep"),
    ("graph.build_graph.calls", "calls/op", "op_ms_p50 on adaptive-loop"),
    ("graph.build_graph.s", "s/op", "ops_per_s on one-shot-large (time per call)"),
    ("graph.build_graph.edges_mean", "edges", "op_ms_p50 on adaptive-loop"),
    ("graph.min_cost_vertex_cover.s", "s/op", "op_ms_p50 on one-shot-large"),
    ("graph.structure.s", "s/op", "op_ms_p90 on adaptive-loop"),
    ("offline.optimum_query_set.s", "s/op", "op_ms_p50 on one-shot-large"),
    ("offline.forced_query_set.s", "s/op", "op_ms_p50 on one-shot-large"),
    ("offline.brute_force.s", "s/op", "ops_per_s on ratio-sweep"),
    ("offline.brute_force.calls", "calls/op", "ops_per_s on ratio-sweep"),
) + tuple(
    (f"online.{name}.ms_p50", "ms", "op_ms_p50 on the workload that runs it")
    for name in STRATEGIES
) + (
    ("online.self_s", "s/op", "op_ms_p50 on adaptive-loop"),
    ("online.state.calls", "calls/op", "op_ms_p50 on adaptive-loop"),
    ("online.query.calls", "calls/op", "none: an invariance guard"),
    ("online.expected_cost_exact.s", "s/op", "ops_per_s on ratio-sweep"),
    ("online.expectation.strategy_calls", "calls/op", "ops_per_s on ratio-sweep"),
    ("online.expectation.leaves", "leaves/op", "ops_per_s on ratio-sweep"),
    ("instances.deserialize.s", "s/op", "ops_per_s on one-shot-large"),
    ("instances.document_bytes", "bytes", "ops_per_s on one-shot-large"),
    ("instances.generate.s", "s/op", "ops_per_s on ratio-sweep (the program's gen_* generators)"),
    ("cli.self_s", "s/op", "ops_per_s on ratio-sweep"),
    ("fractions.self_share", "share", "ops_per_s on every workload"),
    ("trace.overhead", "share", "none: 1 - traced/untraced ops_per_s"),
)

#: Units of the metrics that are times, and so are scaled to the reference speed.
TIME_UNITS = ("s", "s/op", "ms", "ns")

NAME, START, END, PARENT, OP, LEAF_NS, RAISED = range(7)


class Tracer:
    """Spans and leaf counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {}
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, measure=None):
        """``fn`` wrapped to record one span per call under ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        samples = self.samples.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                samples.append(measure(args, result))
            return result

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        stat = self.leaves.setdefault(name, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    spans[stack[-1]][LEAF_NS] += dt

        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper, wherever it is referenced."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "querysort"]
        for name, owner, attr, measure in SPANS:
            self._replace(modules, owner, attr, self.span(name, getattr(owner, attr), measure))
        for name, owner, attr in LEAVES:
            self._replace(modules, owner, attr, self._leaf(name, getattr(owner, attr)))

    def _replace(self, modules, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapper)

    def remove(self) -> None:
        """Restore every original, newest replacement first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, op_id: int, kind: str):
        """Wrap one benchmark operation in a root span."""
        self.op_id = op_id
        return self.span(f"op.{kind}", lambda run: run())

    def write(self, path: Path) -> None:
        """Spans as tab-separated rows, one per line, times in nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\tleaf_ns\traised\n")
            for rec in self.spans:
                handle.write("\t".join(str(int(x) if isinstance(x, bool) else x) for x in rec) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus its child spans and the leaf calls inside it."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[k] - rec[LEAF_NS] for k, rec in enumerate(spans)]


def layer_metrics(tracer: Tracer, ops: int, fractions_share: float, overhead: float,
                  factor: float) -> dict[str, float]:
    """Every per-layer metric of `LAYER_METRICS`, from one traced window.

    Totals are divided by the operations in the window; because the window
    is whole sweeps of the corpus, each count per operation repeats exactly
    for a given seed.  Times are multiplied by the window's speed ``factor``.
    """
    spans = tracer.spans
    own = self_times(spans)
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    done: dict[str, list[int]] = {}
    replays: list[bool] = []  # per strategy run inside expected_cost_exact: did it reach a leaf?
    for k, rec in enumerate(spans):
        name = rec[NAME]
        total[name] = total.get(name, 0) + rec[END] - rec[START]
        self_ns[name] = self_ns.get(name, 0) + own[k]
        calls[name] = calls.get(name, 0) + 1
        if not rec[RAISED]:
            done.setdefault(name, []).append(rec[END] - rec[START])
        parent = rec[PARENT]
        if parent >= 0 and name.startswith("online.") and spans[parent][NAME] == "online.expected_cost_exact":
            replays.append(not rec[RAISED])
    leaf = tracer.leaves

    def per_op_s(name):
        return total.get(name, 0) / 1e9 / ops

    def per_op(n):
        return n / ops

    dep_calls, dep_ns = leaf.get("core.dependent", [0, 0])
    edges = tracer.samples.get("graph.build_graph", [])
    doc_bytes = tracer.samples.get("instances.deserialize", [])
    online_self = sum(v for name, v in self_ns.items() if name.startswith("online."))
    online_self += leaf.get("online.state", [0, 0])[1] + leaf.get("online.query", [0, 0])[1]
    values = {
        "core.dependent.calls": per_op(dep_calls),
        "core.dependent.ns_per_call": dep_ns / dep_calls if dep_calls else 0.0,
        "core.witness_test.calls": per_op(leaf.get("core.witness_test", [0, 0])[0]),
        "core.build_permutation.s": per_op_s("core.build_permutation"),
        "core.build_permutation.calls": per_op(calls.get("core.build_permutation", 0)),
        "graph.build_graph.calls": per_op(calls.get("graph.build_graph", 0)),
        "graph.build_graph.s": per_op_s("graph.build_graph"),
        "graph.build_graph.edges_mean": statistics.fmean(edges) if edges else 0.0,
        "graph.min_cost_vertex_cover.s": per_op_s("graph.min_cost_vertex_cover"),
        "graph.structure.s": per_op_s("graph.structure"),
        "offline.optimum_query_set.s": per_op_s("offline.optimum_query_set"),
        "offline.forced_query_set.s": per_op_s("offline.forced_query_set"),
        "offline.brute_force.s": per_op_s("offline.brute_force"),
        "offline.brute_force.calls": per_op(calls.get("offline.brute_force", 0)),
        "online.self_s": online_self / 1e9 / ops,
        "online.state.calls": per_op(leaf.get("online.state", [0, 0])[0]),
        "online.query.calls": per_op(leaf.get("online.query", [0, 0])[0]),
        "online.expected_cost_exact.s": per_op_s("online.expected_cost_exact"),
        "online.expectation.strategy_calls": per_op(len(replays)),
        "online.expectation.leaves": per_op(sum(replays)),
        "instances.deserialize.s": per_op_s("instances.deserialize"),
        "instances.document_bytes": statistics.fmean(doc_bytes) if doc_bytes else 0.0,
        "instances.generate.s": per_op_s("instances.generate"),
        "cli.self_s": self_ns.get("cli.main", 0) / 1e9 / ops,
        "fractions.self_share": fractions_share,
        "trace.overhead": overhead,
    }
    for name in STRATEGIES:
        runs_ns = done.get(f"online.{name}")
        values[f"online.{name}.ms_p50"] = statistics.median(runs_ns) / 1e6 if runs_ns else 0.0
    for name, unit, _ in LAYER_METRICS:
        if unit in TIME_UNITS:
            values[name] *= factor
    return values


def fractions_share(run) -> float:
    """Share of profiled CPU time spent inside the ``fractions`` module."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler).stats
    total = sum(row[2] for row in stats.values())
    inside = sum(row[2] for (filename, _, _), row in stats.items() if filename.endswith("fractions.py"))
    return inside / total if total else 0.0
