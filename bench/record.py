"""Record the outputs of the current code, for later commits to reproduce.

    python3 bench/record.py

Runs every operation of each recorded seed's corpus once, untimed, checks
its invariants, and writes ``bench/recorded/<workload>.json`` for every
workload: for each seed, the canonical output of every corpus item (optimum
costs, each run's spend and queried set, a digest of each CLI command's
output).  The benchmark compares against these for the recorded seeds only.
"""

from __future__ import annotations

import json
import sys

from program import load_program

RECORDED_SEEDS = range(20)


def record_seed(workload, seed: int) -> dict[str, str]:
    corpus = workload.setup(seed)
    outputs: dict[str, str] = {}
    for ops in corpus.passes:
        for op in ops:
            out = op.run()
            problems = workload.invariant_failures(corpus, op, out)
            if problems:
                raise SystemExit(f"{workload.name} seed {seed} {op.key}: {'; '.join(problems)}")
            outputs.update(workload.fingerprints(corpus, op, out))
    return outputs


def main() -> int:
    load_program()
    import workloads
    from run import RECORDED_DIR

    RECORDED_DIR.mkdir(exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        recorded = {str(seed): record_seed(workload, seed) for seed in RECORDED_SEEDS}
        path = RECORDED_DIR / f"{name}.json"
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(recorded)} seeds written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
