"""Scaling ladder: every strategy once on one sparse instance per size.

    python3 bench/ladder.py

Reports wall-clock seconds per strategy, the time of one `build_graph` and
the edge count, as a Markdown table, and the ladder's own run time.  Nothing
here is gated: single runs on a shared machine give the shape of the
scaling, not precise values.  The instances use the benchmark's sparse
generator, so the mean degree is the same at every size; the uniform-cost
strategies run at threshold 0 with unit costs, the others at 1/2 with
rational costs.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from program import load_program

#: (column, strategy, runs on the rational-cost half-threshold instance)
COLUMNS = (
    ("run_oblivious", "run_oblivious", True),
    ("vc_adaptive", "vc_adaptive", True),
    ("simple_adaptive", "simple_adaptive", False),
    ("stable_sort", "simple_adaptive_stable_sort", False),
    ("algorithm1", "algorithm1", False),
    ("algorithm2", "algorithm2", True),
    ("algorithm3_cpcp", "algorithm3_cpcp", True),
)

SIZES = (100, 200, 400)
SEED = 0


def timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def main() -> int:
    load_program()
    from querysort import graph
    from corpus import sparse_draw, sparse_instance
    from workloads import run_strategy

    started = time.perf_counter()
    print("| n | edges (delta 0) | edges (delta 1/2) | build_graph | " + " | ".join(c for c, _, _ in COLUMNS) + " |")
    print("|---" * (4 + len(COLUMNS)) + "|")
    for n in SIZES:
        rows = sparse_draw(random.Random(f"ladder:{SEED}:{n}"), n)
        uniform = sparse_instance(rows, Fraction(0), rational_costs=False)
        rational = sparse_instance(rows, Fraction(1, 2), rational_costs=True)
        edges = (len(graph.build_graph(uniform).edges), len(graph.build_graph(rational).edges))
        cells = [str(n), str(edges[0]), str(edges[1]), f"{timed(lambda: graph.build_graph(rational)):.3f} s"]
        for _, name, on_rational in COLUMNS:
            inst = rational if on_rational else uniform
            cells.append(f"{timed(lambda: run_strategy(name, inst, SEED)):.3f} s")
            print(f"  n={n} {name} done", file=sys.stderr, flush=True)
        print("| " + " | ".join(cells) + " |", flush=True)
    print(f"ladder run time: {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
