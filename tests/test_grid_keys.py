"""Orderings and picks on the integer grid against the `Fraction`-keyed
versions they replaced, which live only here.

`peo_min_right` sorts by ``his``, `longest_path_caterpillar` orients by
``los``, and `algorithm1`, `advice_half`, `advice_lg3` and the stable sort
pick by grid keys.  Each is checked against the earlier version, keyed on
``g.intervals`` or the environment's current intervals, on graphs and runs
up to n = 250, half of them over mixed denominators (`wide_instances`).
An environment's `Fraction` intervals come from ``env.state().current``, as
its graph carries only the grid ends.  The first-edge pointer of
`simple_adaptive` and `algorithm3_cpcp` is checked
against ``min(g.edges)`` at every step, up to n = 2 000, and
`algorithm3_cpcp`'s heap of zero-price items against the scan of every
active vertex it replaced, by whole transcripts up to n = 2 000.
"""

import copy
import inspect
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    AdviceOracle,
    CpcpEnvironment,
    Environment,
    Instance,
    Permutation,
    RandomCoin,
    UncertainInterval,
    UnresolvedDependency,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm3_cpcp,
    build_graph,
    components,
    forced_query_set,
    longest_path_caterpillar,
    peo_min_right,
    simple_adaptive,
    simple_adaptive_stable_sort,
    verify_peo,
)
from querysort import core, offline, online
from test_graph import outcome, ref_longest_path_caterpillar
from test_sweep import instances, make_instance, wide_instances

any_instance = st.one_of(instances(), wide_instances())


# ---------------------------------------------------------------------------
# The Fraction-keyed references
# ---------------------------------------------------------------------------


def with_intervals(g, iv):
    """A copy of ``g`` whose ``intervals`` are ``iv``, for the references to key on."""
    ref = copy.copy(g)
    ref.intervals = tuple(iv)
    return ref


def ref_peo_min_right(g):
    order = tuple(sorted(range(g.n), key=lambda v: (g.intervals[v].hi, v)))
    assert verify_peo(g, order)
    return order


def ref_algorithm1_trial(env, p, state):
    """`online._algorithm1_trial`, picking by the current `Fraction` endpoints."""
    while True:
        g = env.graph()
        if not any(g.adj):
            return None
        pairs = [c for c in components(g) if len(c) == 2]
        if pairs:
            u, v = pairs[0]
            return p, online._query_pair(u, v), online._query_pair(v, u)
        iv = env.state().current
        x = min(g.active_vertices(), key=lambda w: (iv[w].hi, w))
        neighbors_x = sorted(g.adj[x])
        y = min(neighbors_x, key=lambda w: (iv[w].hi, w))
        if len(neighbors_x) >= 2:
            z = min((w for w in neighbors_x if w != y), key=lambda w: (iv[w].hi, w))
        else:
            z = min((w for w in g.adj[y] if w != x), key=lambda w: (iv[w].hi, w))
        env.query(y)
        if g.has_edge(x, y) or g.has_edge(x, z):
            env.query(x)
            env.query(z)
        online._flush_value_witnesses(env)


def ref_stable_sort(env):
    comparisons = 0

    def goes_first(x, y):
        nonlocal comparisons
        comparisons += 1
        if env.graph().has_edge(x, y):
            for k in (x, y):
                if not env.queried(k):
                    env.query(k)
        current = env.state().current
        return current[x].hi <= current[y].lo

    def merge_sort(items):
        if len(items) <= 1:
            return items
        left, right = merge_sort(items[:len(items) // 2]), merge_sort(items[len(items) // 2:])
        out, a, b = [], 0, 0
        while a < len(left) and b < len(right):
            if goes_first(left[a], right[b]):
                out.append(left[a])
                a += 1
            else:
                out.append(right[b])
                b += 1
        return out + left[a:] + right[b:]

    order = merge_sort(list(range(env.n)))
    return dict(permutation=Permutation(order), comparisons=comparisons)


def ref_advice_half(env, oracle):
    """`online.advice_half`'s play as it was, on `Fraction` endpoints: `find_triangle`
    from vertex 0 and the smallest leaf from a scan of every active vertex, at every step."""
    known_out = set()
    while True:
        g = env.graph()
        if not any(g.adj):
            break
        triangle = online.find_triangle(g)
        if triangle is not None:
            group = set(triangle)
            remembered = sorted(group & known_out)
            if remembered:
                for u in sorted(group - {remembered[0]}):
                    env.query(u)
                online._flush_value_witnesses(env)
                continue
            iv = env.state().current
            i = min(group, key=lambda w: (iv[w].lo, w))
            k = min(group - {i}, key=lambda w: (-iv[w].hi, w))
            (j,) = group - {i, k}
        else:
            i = min(v for v in g.active_vertices() if len(g.adj[v]) == 1)
            (j,) = g.adj[i]
            if j in known_out:
                for u in sorted(g.adj[j]):
                    env.query(u)
                online._flush_value_witnesses(env)
                continue
            if i in known_out:
                env.query(j)
                online._flush_value_witnesses(env)
                continue
        if oracle.ask_membership(j):
            env.query(j)
        else:
            known_out.add(j)
            for u in sorted(g.adj[j]):
                env.query(u)
        online._flush_value_witnesses(env)
    return dict(advice_bits=oracle.bits_used, advice_question_sizes=tuple(oracle.question_sizes))


def ref_advice_lg3(env, oracle):
    known_out = set()
    while True:
        g = env.graph()
        if not any(g.adj):
            break
        iv = env.state().current
        x = min(g.active_vertices(), key=lambda w: (iv[w].hi, w))
        group = frozenset({x} | g.adj[x])
        remembered = sorted(group & known_out)
        if remembered:
            y = remembered[0]
        else:
            y = oracle.ask_excluded(group, x)
            if y != x:
                known_out.add(y)
        for u in sorted(group - {y}):
            env.query(u)
        online._flush_value_witnesses(env)
    return dict(advice_bits=oracle.bits_used, advice_question_sizes=tuple(oracle.question_sizes))


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


def graphs_of(inst, rng):
    """`build_graph`'s graph, H (`_unforced_graph`), and an environment's graph
    after a few queries, the first ones on active vertices, each with the
    `Fraction` intervals it was built from."""
    env = Environment(inst)
    for _ in range(min(inst.n, rng.randint(1, 8))):
        active = [v for v in env.graph().active_vertices() if not env.queried(v)]
        left = active or [v for v in range(inst.n) if not env.queried(v)]
        env.query(rng.choice(left))
    return [(build_graph(inst), inst.intervals), (offline._unforced_graph(inst, forced_query_set(inst)), inst.intervals),
            (env.graph(), env.state().current)]


@settings(max_examples=40, deadline=None)
@given(any_instance, st.integers(0, 2 ** 32))
def test_orderings_match_the_fraction_keyed_references(inst, seed):
    for g, iv in graphs_of(inst, random.Random(seed)):
        ref = with_intervals(g, iv)
        assert peo_min_right(g) == ref_peo_min_right(ref)
        for comp in components(g):
            assert outcome(longest_path_caterpillar, g, comp) == outcome(ref_longest_path_caterpillar, ref, comp)


# ---------------------------------------------------------------------------
# Strategy picks
# ---------------------------------------------------------------------------


def uniform(inst):
    return Instance(inst.delta, tuple(UncertainInterval(a.lo, a.hi) for a in inst.intervals), inst.values)


def at_zero(inst):
    return Instance(F(0), inst.intervals, inst.values)


@settings(max_examples=15, deadline=None)
@given(any_instance, st.sampled_from([F(0), F(1, 2), F(1)]), st.integers(0, 2 ** 32))
def test_algorithm1_matches_the_fraction_keyed_reference(inst, p, seed):
    inst = uniform(inst)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "_finish", lambda env: tuple(env.transcript))  # no final ordering
        for trial in (online._algorithm1_trial, ref_algorithm1_trial):
            mp.setattr(online, "_algorithm1_trial", trial)
            runs.append(algorithm1(Environment(inst), p, RandomCoin(seed)))
    assert runs[0] == runs[1]


def ref_algorithm3_cpcp(env, zero_picks=None):
    """`online.algorithm3_cpcp`'s play, scanning every active vertex for a
    zero-price step at every step; counts its zero-price picks in ``zero_picks``."""
    residual = {}

    def current_cost(i):
        key = (i, env.times(i))
        if key not in residual:
            residual[key] = env.step_cost(*key)
        return residual[key]

    for i, j in online._first_edges(env):
        zeros = [k for k in env.graph().active_vertices() if current_cost(k) == 0]
        if zeros:
            env.query(zeros[0])
            online._preprocess_witnesses(env)
            if zero_picks is not None:
                zero_picks.append(zeros[0])
            continue
        take = min(current_cost(i), current_cost(j))
        residual[(i, env.times(i))] -= take
        residual[(j, env.times(j))] -= take
        online._preprocess_witnesses(env)
    return {}


def with_zero_prices(inst, seed):
    """``inst`` with a price on every script step, about two in five of them zero."""
    rng = random.Random(seed)
    rows = tuple(tuple(F(rng.choice([0, 0, 1, 2, 3]), rng.choice((1, 2))) for _ in script)
                 for script in inst.refinements)
    return Instance(inst.delta, inst.intervals, inst.values, inst.refinements, rows)


def play(strategy, env, *args):
    """A strategy's play alone (no final ordering): its transcript and extras."""
    extras = strategy(env, *args)
    return tuple(env.transcript), extras


@settings(max_examples=15, deadline=None)
@given(any_instance)
def test_advice_and_stable_sort_match_the_fraction_keyed_references(inst):
    zero = at_zero(inst)
    for strategy, ref, case in ((advice_half, ref_advice_half, zero), (advice_lg3, ref_advice_lg3, inst)):
        ours = play(inspect.unwrap(strategy), Environment(case), AdviceOracle(case))
        assert ours == play(ref, Environment(case), AdviceOracle(case))
    ours = play(inspect.unwrap(simple_adaptive_stable_sort), Environment(zero))
    assert ours == play(ref_stable_sort, Environment(zero))


# ---------------------------------------------------------------------------
# The first edge and the final check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, delta", [(60, F(1)), (500, F(1, 2)), (2000, F(0))])
@pytest.mark.parametrize("strategy, make_env", [(simple_adaptive, Environment),
                                                (algorithm3_cpcp, CpcpEnvironment)])
def test_first_edge_is_the_smallest_edge(monkeypatch, strategy, make_env, n, delta):
    """At every step of a whole run, on sparse instances, the pointer's edge is
    ``min(g.edges)``, and the run ends with no edge left."""
    first_edges, steps = online._first_edges, []

    def checked(env):
        for edge in first_edges(env):
            assert edge == min(env.graph().edges)
            steps.append(edge)
            yield edge

    monkeypatch.setattr(online, "_first_edges", checked)
    inst = make_instance(n, n, delta, 4 * n + 1, scripted=make_env is CpcpEnvironment)
    env = make_env(inst)
    online._spend(strategy, env)
    assert len(steps) >= n // 20  # the runs take many steps
    assert not any(env.graph().adj)


@settings(max_examples=30, deadline=None)
@given(any_instance, st.integers(0, 2 ** 32))
def test_an_own_ordering_is_checked_on_the_live_graph(inst, seed):
    """`_finish` with a strategy's own ordering, before or after some queries,
    refuses what `require_independent` refuses, with the same message naming
    the smallest dependent pair."""
    rng = random.Random(seed)
    env = Environment(inst)
    for i in rng.sample(range(inst.n), rng.choice([0, inst.n // 3, inst.n])):
        env.query(i)
    try:
        core.require_independent(env.state().current, inst.delta)
    except UnresolvedDependency as exc:
        with pytest.raises(UnresolvedDependency) as got:
            online._finish(env, Permutation(range(inst.n)))
        assert str(got.value) == str(exc)
    else:
        assert online._finish(env, Permutation(range(inst.n))).permutation.order == tuple(range(inst.n))


def cpcp_play(inst):
    """`algorithm3_cpcp`'s play on ``inst``, stopped with an `AssertionError` past the
    most steps a play can take: a step that prices no item zero is followed by
    one that queries, so there are at most two per script step, plus one."""
    first_edges, steps = online._first_edges, 2 * sum(map(len, inst.refinements)) + 1

    def bounded(env):
        for count, edge in enumerate(first_edges(env)):
            assert count < steps, "the play does not end"
            yield edge

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(online, "_first_edges", bounded)
        return outcome(play, inspect.unwrap(algorithm3_cpcp), CpcpEnvironment(inst))


@pytest.mark.parametrize("n, delta", [(60, F(1)), (500, F(1, 2)), (2000, F(0))])
@pytest.mark.parametrize("zero_prices", [False, True], ids=["flat", "zero-prices"])
def test_zero_price_heap_picks_what_the_scan_picks(n, delta, zero_prices):
    """Whole `algorithm3_cpcp` plays on sparse scripted instances: the transcript,
    and so every pick, is the one the full scan of active vertices makes."""
    inst = make_instance(n, n, delta, 4 * n + 1, scripted=True)
    if zero_prices:
        inst = with_zero_prices(inst, n)
    zero_picks = []
    want = play(ref_algorithm3_cpcp, CpcpEnvironment(inst), zero_picks)
    assert repr(cpcp_play(inst)) == repr(want)
    assert len(zero_picks) >= n // 40  # the zero-price branch is taken


@settings(max_examples=30, deadline=None)
@given(st.one_of(instances(scripted=True), wide_instances(scripted=True)), st.booleans(), st.integers(0, 2 ** 32))
def test_zero_price_heap_on_crowded_instances(inst, zero_prices, seed):
    if zero_prices and inst.n:
        inst = with_zero_prices(inst, seed)
    assert repr(cpcp_play(inst)) == repr(outcome(play, ref_algorithm3_cpcp, CpcpEnvironment(inst)))
