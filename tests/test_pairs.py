"""One sweep per instance: `Instance.pairs` against the pairwise scan.

An instance's own intervals are swept for dependent pairs once, on first
read of `Instance.pairs`.  The environment's live graph, H of the exact
optima (`offline._unforced_graph`) and `build_graph(inst)` all read those
pairs, so each must equal the all-pairs `dependent` scan of `test_sweep`.
`require_independent` sweeps any items on their own grid and names the
smallest dependent pair.  `oblivious_query_set` reads the same pairs and
grid, and must equal the graph rule it replaced.
"""

import random
from fractions import Fraction as F

import pytest

from querysort import (
    Environment,
    UnresolvedDependency,
    build_graph,
    canonical_optimum,
    forced_query_set,
    gen_random,
    gen_random_scripted,
    is_trivial,
    oblivious_query_set,
    optimum_query_set,
    run_oblivious,
    valid_permutation,
)
from querysort import core, graph, offline, online
from test_local_picks import sparse
from test_sweep import ref_edges

#: Each draw of ``n`` items at a threshold, seeded by ``n``.
DRAWS = {
    "random": lambda n, delta: gen_random(n, n, delta),
    "scripted": lambda n, delta: gen_random_scripted(n, n, delta),
    "sparse": sparse,
}


@pytest.mark.parametrize("delta", [F(0), F(1, 2), F(1)], ids=str)
@pytest.mark.parametrize("n", [1, 40, 300])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_pairs_match_pairwise(draw, n, delta):
    inst = DRAWS[draw](n, delta)
    edges = ref_edges(inst.intervals, delta)
    assert sorted(inst.pairs) == sorted(edges)  # each pair once, smaller end first
    assert build_graph(inst).edges == Environment(inst).graph().edges == edges
    rng = random.Random(n)
    for left_out in (forced_query_set(inst), {v for v in range(n) if rng.random() < 0.3}):
        kept = {(i, j) for i, j in edges if i not in left_out and j not in left_out}
        assert offline._unforced_graph(inst, frozenset(left_out)).edges == kept
    if not edges:
        return
    i, j = min(edges)
    with pytest.raises(UnresolvedDependency) as exc:
        core.require_independent(inst.intervals, delta)
    assert str(exc.value) == f"items {i} and {j} are still dependent: {inst.intervals[i]} vs {inst.intervals[j]}"


def ref_oblivious_query_set(inst):
    """The graph rule: every vertex with an edge in `build_graph(inst)` whose `Fraction`
    interval is not trivial at the instance threshold."""
    g = build_graph(inst)
    return frozenset(v for v in g.active_vertices() if not is_trivial(g.intervals[v], inst.delta))


@pytest.mark.parametrize("delta", [F(0), F(1, 2), F(1)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 40, 300])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_oblivious_set_matches_the_graph_rule(draw, n, delta):
    inst = DRAWS[draw](n, delta)
    expected = ref_oblivious_query_set(inst)
    assert oblivious_query_set(inst) == expected
    if inst.values is not None:  # a fresh environment queries exactly that set
        assert run_oblivious(Environment(inst)).queried_indices == tuple(sorted(expected))


def test_oblivious_skips_what_is_already_queried():
    """On an environment with queries, `run_oblivious` takes the instance's set minus
    the items already queried, and still ends with a valid order."""
    inst = gen_random(3, 12, F(1, 2))
    chosen = sorted(oblivious_query_set(inst))
    outside = next(v for v in range(inst.n) if v not in chosen)
    env = Environment(inst)
    env.query(chosen[0]), env.query(outside)
    report = run_oblivious(env)
    assert report.queried_indices == tuple(sorted({*chosen, outside}))
    assert [i for i, _, _ in report.transcript] == [chosen[0], outside, *chosen[1:]]
    assert valid_permutation(inst, None, report.permutation)


def test_an_instance_is_swept_once(monkeypatch):
    """An environment, both exact optima and `build_graph` on one fresh instance
    make one sweep between them."""
    calls = []
    original = core.sweep_pairs

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    for module in (core, graph, offline, online):
        if getattr(module, "sweep_pairs", None) is original:
            monkeypatch.setattr(module, "sweep_pairs", counted)
    inst = gen_random(0, 40, F(1, 2))
    Environment(inst)
    optimum_query_set(inst)
    canonical_optimum(inst)
    assert len(build_graph(inst).edges) > inst.n  # a crowded instance: its pairs matter
    assert calls == [inst.n]
