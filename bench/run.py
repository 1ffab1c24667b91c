"""Benchmark of the querysort package: one closed-loop workload per run.

    python3 bench/run.py --workload adaptive-loop --seed 1 --seconds 20 --trace 0

One process, one thread, one client: each operation starts when the previous
one has finished.  The run sets up its corpus from ``--seed`` (several times,
reporting the median), then runs whole sweeps of the corpus until
``--seconds`` have passed, then checks every output outside the timed
region.  Stopping only at the end of a sweep makes every commit time the
same operations for a seed, so a run can last up to one sweep longer than
``--seconds``.  It prints each metric with its unit, and
as the last line a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every time is scaled to the reference speed of
`speed.Gauge`; the run prints the raw figures and the scale factor too.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run instead measures whole sweeps of the corpus twice, untraced and then
with a timing wrapper on every layer boundary, profiles one pass with
``cProfile``, writes the spans under ``bench/out/`` and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from program import load_program
from speed import Gauge

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
RECORDED_DIR = HERE / "recorded"

#: Set-ups per run; setup_s is the median.
SETUP_REPEATS = 3

#: Reference chunks take this share of the measured time, in the window and in set-up.
WINDOW_REFERENCE_SHARE = 0.05
SETUP_REFERENCE_SHARE = 0.2

#: (metric, unit) of every end-to-end metric in the result line.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("cost_ratio_mean", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics in the result line of a traced run: the ones every workload exercises.
PER_LAYER = (
    "core.dependent.calls",
    "core.dependent.ns_per_call",
    "core.witness_test.calls",
    "core.build_permutation.s",
    "core.build_permutation.calls",
    "graph.build_graph.calls",
    "graph.build_graph.s",
    "graph.build_graph.edges_mean",
    "online.self_s",
    "online.state.calls",
    "online.query.calls",
    "fractions.self_share",
)

#: op_ms_p90 is reported only from this many operations up.
P90_MIN_OPS = 100


@dataclass
class Record:
    op: Any
    seconds: float
    out: Any
    error: Optional[str]


@dataclass
class Window:
    records: list[Record]
    elapsed: float
    sweeps: int
    gauge: Gauge

    @property
    def busy_s(self) -> float:
        """Raw time spent in operations, without the reference chunks."""
        return sum(rec.seconds for rec in self.records)

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / (self.busy_s * self.gauge.factor)


def timed_loop(corpus, seconds: float, wrap=None) -> Window:
    """Run whole sweeps of the corpus, in order, until ``seconds`` have passed.

    The loop stops only at the end of a sweep, so every pass has run equally
    often.  An operation that raises is recorded as failed and the loop goes on.
    """
    passes = corpus.passes
    records: list[Record] = []
    gauge = Gauge(WINDOW_REFERENCE_SHARE)
    done = 0
    start = time.perf_counter()
    while True:
        for op in passes[done % len(passes)]:
            call = wrap(op, len(records)) if wrap else op.run
            t0 = time.perf_counter()
            try:
                out, error = call(), None
            except Exception:
                out, error = None, traceback.format_exc()
            records.append(Record(op, time.perf_counter() - t0, out, error))
            gauge.add(records[-1].seconds)
        done += 1
        if done % len(passes) == 0 and time.perf_counter() - start >= seconds:
            return Window(records, time.perf_counter() - start, done // len(passes), gauge)


def load_recorded(workload: str, seed: int) -> Optional[dict]:
    """Outputs recorded from the seed commit for this seed, if any."""
    path = RECORDED_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def check_outputs(workload, corpus, records: list[Record], recorded: Optional[dict]):
    """Failures per operation, and the cost ratios of distinct passing items."""
    failures: list[tuple[str, list[str]]] = []
    ratios: list[Fraction] = []
    counted: set[str] = set()
    for rec in records:
        if rec.error is not None:
            problems = [rec.error.strip().splitlines()[-1]]
        else:
            try:
                problems = workload.check(corpus, rec.op, rec.out, recorded)
            except Exception:
                problems = [traceback.format_exc().strip().splitlines()[-1]]
        if problems:
            failures.append((rec.op.key, problems))
        elif rec.op.key not in counted:
            counted.add(rec.op.key)
            ratios += workload.ratios(corpus, rec.op, rec.out)
    return failures, ratios


def setup(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last corpus.

    Returns it with the median raw set-up time and the gauge's scale factor.
    """
    times = []
    gauge = Gauge(SETUP_REFERENCE_SHARE)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = workload.setup(seed)
        corpus.passes[0][0].run()
        times.append(time.perf_counter() - t0)
        gauge.add(times[-1])
    return corpus, statistics.median(times), gauge.factor


def describe_corpus(corpus) -> str:
    from querysort import graph

    degrees = [len(graph.build_graph(inst).edges) / inst.n for inst in corpus.instances]
    ops = sum(len(p) for p in corpus.passes)
    text = f"corpus       : {len(corpus.passes)} passes, {ops} operations per sweep"
    if degrees:
        sizes = sorted({inst.n for inst in corpus.instances})
        text += (
            f"; {len(degrees)} instances, n = {', '.join(map(str, sizes))},"
            f" edges per vertex mean {statistics.fmean(degrees):.3f}"
            f" (min {min(degrees):.3f}, max {max(degrees):.3f})"
        )
    return text


def report_checks(records, failures) -> None:
    attempted = len(records)
    print(f"failed_frac  : {len(failures) / attempted:.4f} ({len(failures)} of {attempted} operations)")
    for key, problems in failures[:10]:
        print(f"  FAILED {key}: {'; '.join(problems)}")


def median_latencies_ms(records: list[Record], factor: float) -> dict[str, float]:
    """Median scaled latency of each operation kind."""
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(rec.seconds * 1000 * factor)
    return {kind: statistics.median(ms) for kind, ms in by_kind.items()}


def end_to_end(args, workload, corpus, setup_s: float) -> tuple[dict, list, list]:
    window = timed_loop(corpus, args.seconds)
    recorded = load_recorded(workload.name, args.seed)
    failures, ratios = check_outputs(workload, corpus, window.records, recorded)
    factor = window.gauge.factor
    latencies_ms = sorted(rec.seconds * 1000 * factor for rec in window.records)
    n = len(latencies_ms)
    kind_p50 = median_latencies_ms(window.records, factor)
    op_ms_p50 = statistics.geometric_mean(kind_p50.values())
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": window.ops_per_s,
        "op_ms_p50": op_ms_p50,
        "cost_ratio_mean": float(sum(ratios, Fraction(0)) / len(ratios)) if ratios else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"timed window : {n} operations in {window.elapsed:.3f} s"
          f" ({window.sweeps} full sweeps); recorded outputs {'checked' if recorded else 'absent for this seed'}")
    print(f"speed        : scale factor {factor:.4f} from {window.gauge.chunks} reference chunks;"
          f" raw ops_per_s {n / window.busy_s:.6g}, raw op_ms_p50 {op_ms_p50 / factor:.6g}")
    for name, unit in END_TO_END:
        print(f"{name:<13}: {metrics[name]:.6g} {unit}")
    if n >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies_ms, n=10)[-1]
        print(f"op_ms_p90    : {p90:.6g} ms ({n} samples)")
    else:
        print(f"op_ms_p90    : not reported ({n} samples, needs {P90_MIN_OPS})")
    print(f"p50 per kind : {', '.join(f'{kind} {ms:.5g}' for kind, ms in kind_p50.items())} (ms)")
    print(f"cost ratios  : {len(ratios)} distinct results")
    report_checks(window.records, failures)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, window.records, failures


def per_layer(args, workload, corpus) -> tuple[dict, list, list]:
    import tracing

    untraced = timed_loop(corpus, args.seconds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_loop(
            corpus, args.seconds, wrap=lambda op, op_id: lambda: tracer.op(op_id, op.kind)(op.run),
        )
    finally:
        tracer.remove()
    share = tracing.fractions_share(lambda: [op.run() for op in corpus.passes[0]])
    overhead = 1 - traced.ops_per_s / untraced.ops_per_s
    values = tracing.layer_metrics(
        tracer, len(traced.records), share, overhead, traced.gauge.factor,
    )
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv"
    tracer.write(spans_path)

    print(f"untraced     : {len(untraced.records)} operations in {untraced.elapsed:.3f} s,"
          f" {untraced.ops_per_s:.6g} ops/s ({untraced.sweeps} sweeps, scale factor {untraced.gauge.factor:.4f})")
    print(f"traced       : {len(traced.records)} operations in {traced.elapsed:.3f} s,"
          f" {traced.ops_per_s:.6g} ops/s ({traced.sweeps} sweeps, scale factor {traced.gauge.factor:.4f});"
          f" overhead {overhead:.2%}")
    print(f"spans        : {len(tracer.spans)} written to {spans_path.relative_to(HERE.parent)}")
    for name, unit, moves in tracing.LAYER_METRICS:
        print(f"{name:<40} {values[name]:>14.6g} {unit:<9} -> {moves}")
    records = untraced.records + traced.records
    failures, _ = check_outputs(workload, corpus, records, load_recorded(workload.name, args.seed))
    report_checks(records, failures)
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    return {name: {"value": values[name], "unit": units[name]} for name in PER_LAYER}, records, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    load_program()
    import workloads

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    corpus, setup_median, setup_factor = setup(workload, args.seed)
    print(f"workload     : {workload.name}, seed {args.seed}; closed loop, 1 process, 1 thread, 1 client")
    print(describe_corpus(corpus))
    print(f"set-up       : raw import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups {setup_median:.4f} s,"
          f" scale factor {setup_factor:.4f}")
    if args.trace:
        metrics, records, failures = per_layer(args, workload, corpus)
    else:
        setup_s = (import_s + setup_median) * setup_factor
        metrics, records, failures = end_to_end(args, workload, corpus, setup_s)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
