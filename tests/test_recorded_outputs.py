"""The benchmark's recorded outputs still hold.

`bench/recorded/` keeps, for seeds 0-19, a fingerprint of every operation's
output (spends, queried sets, optimum costs, CLI stdout digests).  The
benchmark compares against it only after a timed run; this test runs one
sweep of two workloads for seed 0 and applies the same checks, so an
output change shows up in the ordinary test run.  Nothing under `bench/`
is written.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["adaptive-loop", "ratio-sweep"])
def test_seed_0_matches_recorded_outputs(workloads, name):
    recorded = json.loads((BENCH / "recorded" / f"{name}.json").read_text(encoding="utf-8"))["0"]
    workload = workloads.WORKLOADS[name]()
    corpus = workload.setup(0)
    failures = {}
    for ops in corpus.passes:
        for op in ops:
            problems = workload.check(corpus, op, op.run(), recorded)
            if problems:
                failures[op.key] = problems
    assert not failures
