"""The benchmark's recorded outputs still hold.

`bench/recorded/` keeps, for seeds 0-19, a fingerprint of every operation's
output (spends, queried sets, optimum costs, CLI stdout digests).  The
benchmark compares against it only after a timed run; these tests run one
sweep of two workloads for seed 0, and of `ratio-sweep` (whose every row
draws from the generators) for seeds 1 and 2 too, and apply the same
checks, so an output change shows up in the ordinary test run.  Nothing
under `bench/` is written.
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


def unmatched(workloads, name, seed):
    """The operations of one sweep of ``name`` at ``seed`` whose outputs differ
    from the recorded ones, with what differs."""
    recorded = json.loads((BENCH / "recorded" / f"{name}.json").read_text(encoding="utf-8"))[str(seed)]
    workload = workloads.WORKLOADS[name]()
    corpus = workload.setup(seed)
    failures = {}
    for ops in corpus.passes:
        for op in ops:
            problems = workload.check(corpus, op, op.run(), recorded)
            if problems:
                failures[op.key] = problems
    return failures


@pytest.mark.parametrize("name", ["adaptive-loop", "ratio-sweep"])
def test_seed_0_matches_recorded_outputs(workloads, name):
    assert not unmatched(workloads, name, 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_ratio_sweep_matches_recorded_outputs(workloads, seed):
    assert not unmatched(workloads, "ratio-sweep", seed)
