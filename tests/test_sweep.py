"""Differential tests: the sort-and-sweep paths against pairwise references.

The references below are the plain all-pairs scans the swept code replaced.
They live only here.  Instances reach n = 250 and mix points, trivial
intervals and endpoints tied on a half-integer grid, at thresholds 0, 1/2
and 1, so every strict-versus-non-strict boundary is exercised.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    CpcpEnvironment,
    Environment,
    Instance,
    UncertainInterval,
    UnresolvedDependency,
    build_graph,
    build_permutation,
    dependent,
    feasible_query_set,
    forced_query_set,
    singleton_witness_static,
    singleton_witness_value,
    valid_permutation,
)
from querysort.online import _flush_value_witnesses, _preprocess_witnesses

MAX_N = 250


@st.composite
def instances(draw, scripted=False):
    """A seeded instance; ``span`` sets how crowded the starts are."""
    n = draw(st.integers(0, MAX_N))
    delta = draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    span = draw(st.sampled_from([2, 8, 4 * n + 1]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
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


def ref_edges(items, delta):
    return {
        (i, j)
        for i in range(len(items))
        for j in range(i + 1, len(items))
        if dependent(items[i], items[j], delta)
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


@settings(max_examples=40, deadline=None)
@given(instances())
def test_build_graph_matches_pairwise(inst):
    edges = ref_edges(inst.intervals, inst.delta)
    assert build_graph(inst).edges == edges
    if edges:
        i, j = min(edges)
        try:
            build_permutation(inst.intervals, inst.delta)
        except UnresolvedDependency as exc:
            assert f"items {i} and {j} are still dependent" in str(exc)
        else:
            raise AssertionError("a dependent pair went unreported")


@settings(max_examples=25, deadline=None)
@given(instances(), st.integers(0, 2 ** 32))
def test_offline_checks_match_pairwise(inst, seed):
    assert forced_query_set(inst) == ref_forced(inst)
    rng = random.Random(seed)
    for chosen in (set(), set(range(inst.n)), {i for i in range(inst.n) if rng.random() < 0.7}):
        assert feasible_query_set(inst, chosen) == ref_feasible(inst, chosen)


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


@settings(max_examples=15, deadline=None)
@given(instances(), st.integers(0, 2 ** 32))
def test_value_flush_matches_pairwise(inst, seed):
    rng = random.Random(seed)
    pre = [i for i in range(inst.n) if rng.random() < 0.3]
    env, ref = Environment(inst), Environment(inst)
    for i in pre:
        env.query(i)
        ref.query(i)
    assert _flush_value_witnesses(env) == ref_flush(ref, value_witnessed(inst.delta))
    assert env.transcript == ref.transcript


@settings(max_examples=10, deadline=None)
@given(instances(scripted=True), st.booleans())
def test_static_flush_matches_pairwise(inst, refine):
    make = CpcpEnvironment if refine else Environment
    env, ref = make(inst), make(inst)
    assert _preprocess_witnesses(env) == ref_flush(ref, static_witnessed(inst.delta))
    assert env.transcript == ref.transcript
