"""Differential tests: the sort-and-sweep paths and the environments' live
graph against pairwise references, and the proven ratios and advice
budgets at n = 200.

The references below are the plain all-pairs scans, on `Fraction`s, that the
integer-grid sweeps replaced.  They live only here.  Instances reach n = 250
and mix points, trivial intervals and endpoints tied on a half-integer grid,
at thresholds 0, 1/2 and 1, so every strict-versus-non-strict boundary is
exercised.  `wide_instances` goes past that grid: its numbers mix
denominators 3, 7 and 10^9 + 7, and its threshold has a denominator of its
own, so the common grid is a large integer.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    HALF,
    AdviceOracle,
    CpcpEnvironment,
    Environment,
    Instance,
    KnowledgeState,
    RandomCoin,
    UncertainInterval,
    UnresolvedDependency,
    advice_half,
    advice_lg3,
    algorithm2,
    algorithm3_cpcp,
    build_graph,
    build_permutation,
    dependent,
    expected_cost_exact,
    feasible_query_set,
    forced_query_set,
    gen_cost_path,
    optimum_query_set,
    run_oblivious,
    simple_adaptive,
    simple_adaptive_stable_sort,
    singleton_witness_static,
    singleton_witness_value,
    valid_permutation,
    vc_adaptive,
)
from querysort import cli, core, graph, offline, online
from querysort.instances import _generic_position_ok
from querysort.online import _flush_value_witnesses, _preprocess_witnesses
from test_online import count_flips

MAX_N = 250


def make_instance(seed, n, delta, span, scripted=False):
    """A seeded instance; ``span`` sets how crowded the starts are."""
    rng = random.Random(seed)
    ivs, values, scripts = [], [], []
    for _ in range(n):
        lo = F(rng.randint(0, 2 * span), 2)
        width = rng.choice([F(0), delta, F(1, 2), F(rng.randint(0, 24), 2)])
        value = lo + width * F(rng.randint(0, 4), 4)
        ivs.append(UncertainInterval(lo, lo + width, F(rng.randint(1, 6), rng.choice((1, 2)))))
        values.append(value)
        steps, a, b = [], lo, lo + width
        for _ in range(rng.randint(0, 3) if scripted else 0):
            a += (value - a) * F(rng.randint(0, 2), 2)
            b -= (b - value) * F(rng.randint(0, 2), 2)
            steps.append(UncertainInterval(a, b, ivs[-1].cost))
        steps.append(UncertainInterval(value, value, ivs[-1].cost))
        scripts.append(tuple(steps))
    return Instance(delta, tuple(ivs), tuple(values), tuple(scripts) if scripted else None)


@st.composite
def instances(draw, scripted=False):
    """A drawn instance: crowded (span 2 or 8) or sparse (span 4n + 1)."""
    n = draw(st.integers(0, MAX_N))
    delta = draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    span = draw(st.sampled_from([2, 8, 4 * n + 1]))
    return make_instance(draw(st.integers(0, 2 ** 32)), n, delta, span, scripted)


WIDE_DENOMINATORS = (3, 7, 10 ** 9 + 7)


def make_wide_instance(seed, n, delta, span, scripted=False):
    """A seeded instance over mixed denominators.

    About a third of the intervals start exactly ``delta`` before an earlier
    interval's end, and values sit at an endpoint two times in three, so
    exact ties at the threshold stay common.
    """
    rng = random.Random(seed)

    def between(a, b):
        den = rng.choice(WIDE_DENOMINATORS)
        return a + (b - a) * F(rng.randint(0, den), den)

    ivs, values, scripts = [], [], []
    for _ in range(n):
        lo = rng.choice(ivs).hi - delta if ivs and rng.randrange(3) == 0 else between(0, span)
        width = rng.choice([F(0), delta, 2 * delta, between(0, 12)])
        value = rng.choice([lo, lo + width, between(lo, lo + width)])
        ivs.append(UncertainInterval(lo, lo + width, F(rng.randint(1, 6), rng.choice((1, 7)))))
        values.append(value)
        steps, a, b = [], lo, lo + width
        for _ in range(rng.randint(0, 3) if scripted else 0):
            a, b = between(a, value), between(value, b)
            steps.append(UncertainInterval(a, b, ivs[-1].cost))
        steps.append(UncertainInterval(value, value, ivs[-1].cost))
        scripts.append(tuple(steps))
    return Instance(delta, tuple(ivs), tuple(values), tuple(scripts) if scripted else None)


@st.composite
def wide_instances(draw, scripted=False):
    """A drawn mixed-denominator instance: crowded (span 3) or sparse (span 4n + 1)."""
    n = draw(st.integers(0, MAX_N))
    delta = draw(st.sampled_from([F(0), F(2, 5), F(3, 11), F(1, 10 ** 9 + 9)]))
    span = draw(st.sampled_from([3, 4 * n + 1]))
    return make_wide_instance(draw(st.integers(0, 2 ** 32)), n, delta, span, scripted)


def ref_edges(items, delta):
    return {
        (i, j)
        for i in range(len(items))
        for j in range(i + 1, len(items))
        if dependent(items[i], items[j], delta)
    }


def ref_edges_after(edges, old, new, delta):
    """``ref_edges(new, delta)``, given ``edges == ref_edges(old, delta)`` (or
    None): only the pairs of items whose interval changed are tested again."""
    if edges is None:
        return ref_edges(new, delta)
    changed = {i for i in range(len(new)) if new[i] != old[i]}
    return {e for e in edges if not changed & set(e)} | {
        (min(i, j), max(i, j))
        for i in changed
        for j in range(len(new))
        if j != i and dependent(new[i], new[j], delta)
    }


def ref_forced(inst):
    return frozenset(
        j
        for j in range(inst.n)
        if any(
            i != j
            and singleton_witness_value(inst.intervals[j], inst.values[i], inst.delta)
            and dependent(inst.intervals[i], inst.intervals[j], inst.delta)
            for i in range(inst.n)
        )
    )


def ref_feasible(inst, chosen):
    cur = [
        UncertainInterval(inst.values[i], inst.values[i], itv.cost) if i in chosen else itv
        for i, itv in enumerate(inst.intervals)
    ]
    return not ref_edges(cur, inst.delta)


def ref_valid(inst, order):
    vals = inst.values
    return all(
        vals[order[a]] <= vals[order[b]] + inst.delta
        for a in range(len(order))
        for b in range(a + 1, len(order))
    )


def ref_flush(env, witnessed):
    """Query the smallest index that ``witnessed(cur, i)`` holds for, until none does."""
    done = []
    while True:
        cur = env.state().current
        candidate = next(
            (i for i in range(env.n) if not cur[i].is_point and witnessed(cur, i)), None
        )
        if candidate is None:
            return done
        env.query(candidate)
        done.append(candidate)


def value_witnessed(delta):
    def witnessed(cur, i):
        return any(
            j != i and p.is_point and singleton_witness_value(cur[i], p.lo, delta)
            for j, p in enumerate(cur)
        )
    return witnessed


def static_witnessed(delta):
    def witnessed(cur, i):
        return any(
            j != i and singleton_witness_static(cur[i], cur[j], delta)
            for j in range(len(cur))
        )
    return witnessed


def check_build_graph(inst):
    edges = ref_edges(inst.intervals, inst.delta)
    state = KnowledgeState(inst.intervals, (0,) * inst.n, F(0))
    assert build_graph(inst).edges == build_graph(state, inst.delta).edges == edges
    if edges:
        i, j = min(edges)
        try:
            build_permutation(inst.intervals, inst.delta)
        except UnresolvedDependency as exc:
            assert f"items {i} and {j} are still dependent" in str(exc)
        else:
            raise AssertionError("a dependent pair went unreported")


@settings(max_examples=40, deadline=None)
@given(instances())
def test_build_graph_matches_pairwise(inst):
    check_build_graph(inst)


@settings(max_examples=15, deadline=None)
@given(wide_instances())
def test_build_graph_matches_pairwise_off_the_half_grid(inst):
    check_build_graph(inst)


def check_offline(inst, seed):
    assert forced_query_set(inst) == ref_forced(inst)
    rng = random.Random(seed)
    for chosen in (set(), set(range(inst.n)), {i for i in range(inst.n) if rng.random() < 0.7}):
        assert feasible_query_set(inst, chosen) == ref_feasible(inst, chosen)


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2 ** 32))
def test_offline_checks_match_pairwise(inst, seed):
    check_offline(inst, seed)


@settings(max_examples=15, deadline=None)
@given(wide_instances(), st.integers(0, 2 ** 32))
def test_offline_checks_match_pairwise_off_the_half_grid(inst, seed):
    check_offline(inst, seed)


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2 ** 32))
def test_valid_permutation_matches_pairwise(inst, seed):
    rng = random.Random(seed)
    by_value = sorted(range(inst.n), key=lambda k: inst.values[k])
    nearly = list(by_value)
    for _ in range(3):
        if inst.n >= 2:
            k = rng.randrange(inst.n - 1)
            nearly[k], nearly[k + 1] = nearly[k + 1], nearly[k]
    shuffled = rng.sample(range(inst.n), inst.n)
    for order in (by_value, nearly, by_value[::-1], shuffled):
        assert valid_permutation(inst, None, order) == ref_valid(inst, order)


def check_value_flush(inst, seed):
    rng = random.Random(seed)
    pre = [i for i in range(inst.n) if rng.random() < 0.3]
    env, ref = Environment(inst), Environment(inst)
    for i in pre:
        env.query(i)
        ref.query(i)
    assert _flush_value_witnesses(env) == ref_flush(ref, value_witnessed(inst.delta))
    assert env.transcript == ref.transcript


@settings(max_examples=15, deadline=None)
@given(instances(), st.integers(0, 2 ** 32))
def test_value_flush_matches_pairwise(inst, seed):
    check_value_flush(inst, seed)


@settings(max_examples=10, deadline=None)
@given(wide_instances(), st.integers(0, 2 ** 32))
def test_value_flush_matches_pairwise_off_the_half_grid(inst, seed):
    check_value_flush(inst, seed)


def check_static_flush(inst, refine):
    make = CpcpEnvironment if refine else Environment
    env, ref = make(inst), make(inst)
    assert _preprocess_witnesses(env) == ref_flush(ref, static_witnessed(inst.delta))
    assert env.transcript == ref.transcript


@settings(max_examples=10, deadline=None)
@given(instances(scripted=True), st.booleans())
def test_static_flush_matches_pairwise(inst, refine):
    check_static_flush(inst, refine)


@settings(max_examples=8, deadline=None)
@given(wide_instances(scripted=True), st.booleans())
def test_static_flush_matches_pairwise_off_the_half_grid(inst, refine):
    check_static_flush(inst, refine)


ENVIRONMENT_KINDS = [(Environment, False), (CpcpEnvironment, False), (CpcpEnvironment, True)]


def check_live_graph(inst, make, rng):
    """The graph read first after ``first_read`` queries is the one every later
    read returns, and after every later query its edges are the pairwise ones of
    ``env.state().current``, whose ends on the grid are its ``los`` and ``his``."""
    env = make(inst)
    first_read = rng.randint(0, 6)
    held = ref = seen = None
    for step in range(24):
        if step >= first_read:
            g = env.graph()
            if held is None:
                held = g
            assert g is held
            current = env.state().current
            ref, seen = ref_edges_after(ref, seen, current, inst.delta), current
            assert held.edges == ref
            scale = inst.grid.scale
            assert (list(held.los), list(held.his)) == ([c.lo * scale for c in current], [c.hi * scale for c in current])
        done = env.exhausted if make is CpcpEnvironment else env.queried
        left = [i for i in range(inst.n) if not done(i)]
        if not left:
            break
        active = [i for i in left if env.graph().adj[i]] if step >= first_read else []
        env.query(rng.choice(active if active and rng.random() < 0.8 else left))


@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from(ENVIRONMENT_KINDS))
def test_live_graph_matches_rebuild(data, kind):
    make, scripted = kind
    inst = data.draw(instances(scripted=scripted))
    check_live_graph(inst, make, random.Random(data.draw(st.integers(0, 2 ** 32))))


@settings(max_examples=10, deadline=None)
@given(st.data(), st.sampled_from(ENVIRONMENT_KINDS))
def test_live_graph_matches_pairwise_off_the_half_grid(data, kind):
    make, scripted = kind
    inst = data.draw(wide_instances(scripted=scripted))
    check_live_graph(inst, make, random.Random(data.draw(st.integers(0, 2 ** 32))))


def count_graphs(monkeypatch):
    """Count the dependency graphs the environments build from now on."""
    built = []

    class Counted(online.DependencyGraph):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(online, "DependencyGraph", Counted)
    return built


def test_one_graph_per_run(monkeypatch):
    built = count_graphs(monkeypatch)
    inst = make_instance(7, 120, F(1, 2), 4 * 120 + 1)
    report = algorithm2(Environment(inst), HALF, rng=RandomCoin(3))
    assert len(report.transcript) > 10
    assert built == [inst.n]


def test_one_graph_per_walk(monkeypatch):
    """The coin walk keeps one environment, and so one graph, through all its real flips."""
    built, flips = count_graphs(monkeypatch), count_flips(monkeypatch)
    inst = gen_cost_path(40, F(1, 1000))
    expected_cost_exact(algorithm2, inst, HALF)
    assert len(flips) > 10
    assert built == [inst.n]


def count_grids(monkeypatch):
    """Count the instance grids computed from now on."""
    built = []
    grid = core.Instance.grid.func
    counted = functools.cached_property(lambda inst: built.append(inst.n) or grid(inst))
    counted.__set_name__(core.Instance, "grid")
    monkeypatch.setattr(core.Instance, "grid", counted)
    return built


def test_one_grid_per_instance(monkeypatch, capsys):
    """A `ratio` row scales its instance once: its environment, through every real flip of
    the coin walk, `forced_query_set`, `optimum_query_set` and `AdviceOracle` share the grid."""
    built, flips = count_grids(monkeypatch), count_flips(monkeypatch)
    assert cli.main(["ratio", "alg2", "cost_path", "--n", "40"]) == 0
    assert len(flips) > 10
    assert len(built) == 1
    assert cli.main(["ratio", "advice_lg3", "random", "--n", "10", "--trials", "3", "--delta", "1"]) == 0
    assert len(built) == 1 + 3
    assert capsys.readouterr().out.count("status=OK") == 2


@pytest.mark.parametrize("seed", range(4))
def test_edge_reads_agree(seed):
    """``has_edge``, membership in ``edges`` and `dependent` agree on every pair,
    on a built graph and on an environment's graph after some queries."""
    rng = random.Random(seed)
    n = (0, 1, 37, MAX_N)[seed]
    inst = make_instance(seed, n, (F(0), F(1, 2), F(1))[seed % 3], (8, 4 * n + 1)[seed % 2])
    env = Environment(inst)
    env.graph()
    for i in rng.sample(range(n), n // 3):
        env.query(i)
    for g, iv in ((build_graph(inst), inst.intervals), (env.graph(), env.state().current)):
        edges = g.edges
        for u in range(n):
            for v in range(n):
                if u != v:
                    expect = dependent(iv[u], iv[v], inst.delta)
                    assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges) == expect


SCALE_N = 200


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("delta", [F(0), F(1, 2)])
def test_proven_ratios_at_scale(seed, delta):
    """The 2x bounds, on sparse n = 200 instances, against the polynomial optimum."""
    inst = make_instance(seed, SCALE_N, delta, 4 * SCALE_N + 1)
    uniform = Instance(delta, tuple(UncertainInterval(a.lo, a.hi) for a in inst.intervals), inst.values)
    assert simple_adaptive(Environment(uniform)).total_cost <= 2 * optimum_query_set(uniform)[1]
    _, opt = optimum_query_set(inst)
    assert opt > 0
    assert vc_adaptive(Environment(inst)).total_cost <= 2 * opt
    assert algorithm3_cpcp(CpcpEnvironment(inst)).total_cost <= 2 * opt


@pytest.mark.parametrize(
    "strategy, make_env, zero_threshold",
    [
        (run_oblivious, Environment, False),
        (simple_adaptive, Environment, False),
        (simple_adaptive_stable_sort, Environment, True),
        (vc_adaptive, Environment, False),
        (algorithm3_cpcp, CpcpEnvironment, False),
        (advice_half, Environment, True),
        (advice_lg3, Environment, False),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_spend_is_the_ordered_runs_cost(strategy, make_env, zero_threshold, seed):
    """A strategy with no coin is one leaf of `expected_cost_exact`: that spends what
    the public strategy reports, and its `_TRIALS` start alone queries what the run
    queries and leaves no dependent pair, on crowded and sparse scripted instances
    up to n = 200."""
    n = (7, 40, 120, SCALE_N)[seed]
    delta = F(0) if zero_threshold else (F(0), F(1, 2), F(1))[seed % 3]
    inst = make_instance(seed, n, delta, (8, 4 * n + 1)[seed % 2], scripted=True)
    advised = strategy in (advice_half, advice_lg3)
    rule = lambda: AdviceOracle(inst) if advised else None  # what the strategy takes beyond its environment
    env = make_env(inst)
    online._TRIALS[strategy][0](env, rule())
    report = strategy(make_env(inst), rule()) if advised else strategy(make_env(inst))
    assert expected_cost_exact(strategy, inst, rule()) == report.total_cost
    assert tuple(env.transcript) == report.transcript
    core.require_independent(env.state().current, delta)


def generic_shift(inst):
    """``inst`` with item ``i``'s interval and value moved right by ``i / 10^5``.

    `make_instance` puts values on a 1/8 grid and endpoints on a 1/2 grid,
    and no two shifts differ by 1/8 at n <= 250, so afterwards no value
    equals another item's value or endpoint: generic position at threshold 0.
    """
    shift = [F(i, 10 ** 5) for i in range(inst.n)]
    ivs = tuple(UncertainInterval(a.lo + d, a.hi + d, a.cost) for a, d in zip(inst.intervals, shift))
    return Instance(inst.delta, ivs, tuple(v + d for v, d in zip(inst.values, shift)))


def test_oracle_and_oblivious_read_the_graph_they_hold(monkeypatch):
    """Once the instance grid exists, `AdviceOracle` covers subgraphs of H
    without rebuilding a graph or putting intervals on a fresh grid,
    `run_oblivious` reads `Instance.pairs` on the instance grid, and
    `build_graph(inst)` reads the instance's grid and pairs."""
    inst = make_instance(0, SCALE_N, F(0), 4 * SCALE_N + 1)
    inst.grid
    calls = []
    for home, name in ((core, "to_grid"), (graph, "build_graph")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (core, graph, offline, online):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    AdviceOracle(inst)
    assert calls == []
    run_oblivious(Environment(inst))
    assert calls == ["to_grid"]  # `build_permutation`'s check of the final intervals
    graph.build_graph(inst)
    assert calls == ["to_grid", "build_graph"]
    graph.build_graph(KnowledgeState(inst.intervals, (0,) * inst.n, F(0)), inst.delta)  # the counters see a rebuild
    assert calls == ["to_grid", "build_graph", "build_graph", "to_grid"]


@pytest.mark.parametrize("seed", range(3))
def test_advice_at_scale(seed):
    """Both advice strategies spend exactly the optimum at n = 200, within their bit budgets."""
    half = generic_shift(make_instance(seed, SCALE_N, F(0), 4 * SCALE_N + 1))
    assert _generic_position_ok(half.values, half.intervals, F(0))
    report = advice_half(Environment(half), AdviceOracle(half))
    assert report.total_cost == optimum_query_set(half)[1]
    assert report.advice_bits <= SCALE_N // 2
    inst = make_instance(seed, SCALE_N, (F(0), F(1, 2), F(1))[seed], 4 * SCALE_N + 1)
    report = advice_lg3(Environment(inst), AdviceOracle(inst))
    assert report.total_cost == optimum_query_set(inst)[1] > 0
    budget = 0  # ceil(n lg 3 / 3): the smallest b with 8^b >= 3^n
    while 8 ** budget < 3 ** SCALE_N:
        budget += 1
    assert report.advice_bits <= budget
