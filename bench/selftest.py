"""Self-tests of the benchmark: each output check fires, and a tiny run prints
every metric.

    python3 bench/selftest.py

Uses tiny corpora, so it finishes in well under a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from types import SimpleNamespace

from program import ROOT, load_program

load_program()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from querysort import Permutation  # noqa: E402

def tiny_commands(seed: int) -> list[list[str]]:
    """A replay, a brute-force oracle and the refinement model, on tiny instances."""
    return [
        ["ratio", "alg1", "random", "--n", "5", "--trials", "2", "--seed", str(seed)],
        ["ratio", "advice_half", "random", "--n", "5", "--trials", "1", "--seed", str(seed)],
        ["ratio", "alg3", "cpcp", "--n", "2", "--M", "2"],
    ]


def tiny(name: str):
    return {
        "adaptive-loop": lambda: workloads.AdaptiveLoop(n=12, slots=2),
        "one-shot-large": lambda: workloads.OneShotLarge(n=24, docs=1),
        "ratio-sweep": lambda: workloads.RatioSweep(commands=tiny_commands),
    }[name]()


def first_output(workload, kind=None, seed: int = 3):
    """The corpus, the first operation of ``kind`` (any kind by default) and its output."""
    corpus = workload.setup(seed)
    op = next(op for ops in corpus.passes for op in ops if kind in (None, op.kind))
    return corpus, op, op.run()


def failed(workload, corpus, op, out, recorded=None) -> int:
    failures, _ = run.check_outputs(workload, corpus, [run.Record(op, 0.0, out, None)], recorded)
    return len(failures)


class ChecksFire(unittest.TestCase):
    def test_correct_outputs_pass(self):
        for name in workloads.WORKLOADS:
            workload = tiny(name)
            corpus, op, out = first_output(workload)
            recorded = workload.fingerprints(corpus, op, out)
            self.assertEqual(failed(workload, corpus, op, out, recorded), 0, name)

    def test_corrupted_permutation_fails(self):
        workload = tiny("adaptive-loop")
        corpus, op, report = first_output(workload, "simple_adaptive")
        k, rational, _ = op.context
        values = corpus.items[k][rational].values
        # Largest value first: invalid whenever two values differ by more than the threshold.
        worst = Permutation(tuple(sorted(range(len(values)), key=lambda i: -values[i])))
        self.assertEqual(failed(workload, corpus, op, replace(report, permutation=worst)), 1)

    def test_over_bound_spend_fails(self):
        for name, kind in (("adaptive-loop", "simple_adaptive"), ("adaptive-loop", "algorithm3_cpcp"),
                           ("one-shot-large", "solve-vc")):
            workload = tiny(name)
            corpus, op, out = first_output(workload, kind)
            report = out[1] if isinstance(out, tuple) else out
            inflated = SimpleNamespace(
                permutation=report.permutation,
                queried_indices=report.queried_indices,
                total_cost=report.total_cost * 3 + 1,
            )
            bad = (out[0], inflated) if isinstance(out, tuple) else inflated
            self.assertEqual(failed(workload, corpus, op, bad), 1, kind)

    def test_infeasible_optimum_fails(self):
        workload = tiny("one-shot-large")
        corpus, op, out = first_output(workload, "opt")
        self.assertEqual(failed(workload, corpus, op, replace(out, chosen=frozenset())), 1)

    def test_nonzero_cli_exit_fails(self):
        workload = workloads.RatioSweep(commands=lambda seed: [["ratio", "simple", "random", "--n", "0"]])
        corpus, op, out = first_output(workload)
        self.assertNotEqual(out.code, 0)
        self.assertEqual(failed(workload, corpus, op, out), 1)

    def test_recorded_mismatch_fails(self):
        for name in workloads.WORKLOADS:
            workload = tiny(name)
            corpus, op, out = first_output(workload)
            recorded = {key: value + "x" for key, value in workload.fingerprints(corpus, op, out).items()}
            self.assertEqual(failed(workload, corpus, op, out, recorded), 1, name)

    def test_raising_operation_fails(self):
        workload = tiny("adaptive-loop")
        corpus = workload.setup(3)
        records = [run.Record(corpus.passes[0][0], 0.0, None, "Traceback ...\nValueError: boom")]
        failures, ratios = run.check_outputs(workload, corpus, records, None)
        self.assertEqual((len(failures), ratios), (1, []))


#: A seed with no recorded outputs: those belong to the full-size corpora.
UNRECORDED_SEED = 10**6


class Smoke(unittest.TestCase):
    def run_tiny(self, name: str, traced: bool) -> tuple[str, dict]:
        workload = tiny(name)
        corpus, setup_s, _ = run.setup(workload, UNRECORDED_SEED)
        args = argparse.Namespace(workload=name, seed=UNRECORDED_SEED, seconds=0.0, trace=int(traced))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if traced:
                metrics, records, failures = run.per_layer(args, workload, corpus)
            else:
                metrics, records, failures = run.end_to_end(args, workload, corpus, setup_s)
        self.assertEqual(failures, [], out.getvalue())
        self.assertTrue(records)
        return out.getvalue(), metrics

    def test_end_to_end_metrics_printed(self):
        for name in workloads.WORKLOADS:
            text, metrics = self.run_tiny(name, traced=False)
            self.assertEqual(list(metrics), [m for m, _ in run.END_TO_END])
            for metric in [m for m, _ in run.END_TO_END] + ["op_ms_p90", "failed_frac"]:
                self.assertIn(metric, text, name)
            for metric in metrics.values():
                self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_printed(self):
        for name in workloads.WORKLOADS:
            text, metrics = self.run_tiny(name, traced=True)
            self.assertEqual(list(metrics), list(run.PER_LAYER))
            for metric, _, _ in tracing.LAYER_METRICS:
                self.assertIn(metric, text, name)

    def test_tracer_restores_every_function(self):
        import querysort

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "querysort"]
        before = [dict(vars(m)) for m in modules]
        methods = dict(vars(querysort.Environment))
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(querysort.online.build_graph, before[modules.index(querysort.online)]["build_graph"])
        tracer.remove()
        self.assertEqual([dict(vars(m)) for m in modules], before)
        self.assertEqual(dict(vars(querysort.Environment)), methods)

    def test_benchmark_json_names_what_the_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, units[name]) for name in run.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))

    def test_fails_without_the_program(self):
        bare = run.OUT_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "ratio-sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
