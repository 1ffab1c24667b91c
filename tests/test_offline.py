"""Offline optimum: forced sets, feasibility, polynomial vs exhaustive.

`scan_cpcp_optimum` is the plain scan of every script-prefix vector that
the pruned search in `cpcp_brute_force_optimum` replaced, and
`fraction_cpcp_optimum` is that pruned search deciding on `Fraction`s, before
it moved to the instance's grid ints; both live only here, as references.
"""

import random
import re
from bisect import bisect_left
from fractions import Fraction as F
from itertools import accumulate, product

import pytest

from querysort import (
    CpcpEnvironment,
    InvariantViolation,
    MissingRealization,
    TooLarge,
    UncertainInterval,
    brute_force_optimum,
    canonical_optimum,
    cpcp_brute_force_optimum,
    feasible_query_set,
    fig1_instance,
    forced_query_set,
    gen_advice_triangles,
    gen_cpcp_adversary,
    gen_independent_pairs,
    gen_lemma4_pair,
    gen_nested_star,
    gen_random,
    gen_random_scripted,
    interval,
    oblivious_query_set,
    optimum_query_set,
)
from querysort.core import Instance, dependent
from querysort.graph import DependencyGraph, build_graph
from querysort.offline import BRUTE_FORCE_LIMIT, CPCP_ENUMERATION_LIMIT
from test_checked_once import ref_refinement_steps
from test_local_picks import sparse


def test_forced_set_fig1():
    assert forced_query_set(fig1_instance("a")) == frozenset({0, 2})
    assert forced_query_set(fig1_instance("b")) == frozenset()


def test_forced_set_lemma4():
    a, b = gen_lemma4_pair(F(0))
    assert forced_query_set(a) == frozenset({1})
    assert forced_query_set(b) == frozenset({0})


def test_dependent_once_values_are_revealed():
    a, b = interval(2, 7), interval(0, 4)
    a_at, b_at = interval(F(11, 2), F(11, 2)), interval(3, 3)
    assert dependent(a, b, F(0))
    # revealing b at 3 leaves the pair dependent (3 sits inside a)
    assert dependent(a, b_at, F(0))
    # revealing a at 5.5 resolves it (5.5 is above b entirely)
    assert not dependent(a_at, b, F(0))
    assert not dependent(a_at, b_at, F(0))


def test_feasible_query_set_basics():
    inst = fig1_instance("a")
    assert feasible_query_set(inst, frozenset(range(inst.n)))
    assert not feasible_query_set(inst, frozenset())
    assert feasible_query_set(inst, frozenset({0, 2}))
    # querying only interval 1 leaves 0-2 unresolved? 0 and 2 are dependent
    # and neither is queried, so no
    assert not feasible_query_set(inst, frozenset({1}))
    with pytest.raises(MissingRealization):
        feasible_query_set(Instance(inst.delta, inst.intervals), frozenset())


def test_feasible_query_set_refuses_an_index_that_names_no_item():
    inst = gen_nested_star(4)
    assert inst.n == 4
    for query_set, first in (({3, 99}, 99), ([3, -7, 99], -7), ((4,), 4)):
        with pytest.raises(InvariantViolation, match=f"query index {first} names no item"):
            feasible_query_set(inst, query_set)


def test_optimum_contains_forced_and_is_feasible():
    for s in range(80):
        inst = gen_random(s, 2 + s % 8, (F(0), F(1))[s % 2], cost_model="rational-range")
        qs, cost = optimum_query_set(inst)
        assert forced_query_set(inst) <= qs
        assert feasible_query_set(inst, qs)
        assert cost == sum((inst.intervals[i].cost for i in qs), start=F(0))


def test_optimum_equals_brute_force():
    for s in range(150):
        inst = gen_random(s, 2 + s % 8, (F(0), F(1), F(2))[s % 3], cost_model="rational-range")
        _, cost = optimum_query_set(inst)
        bcost, minimizers = brute_force_optimum(inst)
        assert cost == bcost, (s, cost, bcost)
        assert minimizers  # at least one witness
        # canonical minimizer is lexicographically least by sorted index tuple
        keys = [tuple(sorted(m)) for m in minimizers]
        assert keys[0] == min(keys)
        for m in minimizers:
            assert feasible_query_set(inst, m)


def with_costs(inst, rng):
    """``inst`` with each cost kept, zeroed, or redrawn as a multiple of 1/3."""
    ivs = tuple(
        UncertainInterval(itv.lo, itv.hi, rng.choice((F(0), itv.cost, F(rng.randint(1, 6), 3))))
        for itv in inst.intervals
    )
    return Instance(inst.delta, ivs, inst.values)


def test_canonical_optimum_matches_brute_force():
    """Cost and first minimizer, exactly, on 630 seeded instances and two
    structured families; a third of the random ones have zero costs."""
    rng = random.Random(9)
    cases = []
    for s in range(630):
        inst = gen_random(s, 1 + s % 14, (F(0), F(1, 2), F(1))[s % 3],
                          cost_model=("uniform", "rational-range")[s % 2],
                          value_model=("uniform-in-interval", "endpoint-biased")[s // 2 % 2])
        cases.append(with_costs(inst, rng) if s // 3 % 3 == 0 else inst)
    for m in range(1, 7):
        cases += [gen_independent_pairs(m), gen_independent_pairs(m, F(1, 2))]
    for m in range(1, 5):
        cases += gen_advice_triangles(m, F(1))
    for k, inst in enumerate(cases):
        cost, minimizers = brute_force_optimum(inst)
        assert canonical_optimum(inst) == (cost, minimizers[0]), k


def test_optimum_with_zero_cost_items_matches_brute_force():
    """Zero-cost items, isolated in the unforced graph or on one of its edges: the
    polynomial optimum is one of brute force's minimizers, at the same cost.  An
    isolated zero-cost item stays in the cover, as a free and harmless query."""
    rng, isolated_free, dependent_free = random.Random(23), 0, 0
    for s in range(240):
        inst = with_costs(gen_random(s, 2 + s % 12, (F(0), F(1, 2), F(1))[s % 3], cost_model="rational-range"), rng)
        chosen, cost = optimum_query_set(inst)
        best, minimizers = brute_force_optimum(inst)
        assert cost == best and chosen in minimizers, s
        graph = build_graph(inst)
        free = [v for v in range(inst.n) if inst.intervals[v].cost == 0 and v not in forced_query_set(inst)]
        assert all(v in chosen for v in free if not graph.adj[v]), s
        isolated_free += sum(1 for v in free if not graph.adj[v])
        dependent_free += sum(1 for v in free if graph.adj[v])
    assert isolated_free > 50 and dependent_free > 50, (isolated_free, dependent_free)


def test_feasible_query_set_refuses_an_entry_that_is_not_an_int():
    inst = gen_nested_star(4)
    for query_set, shown in ((["a"], "'a'"), ([True], "True"), ([0, False], "False"), ([1.0], "1.0"),
                             ([F(1)], "Fraction(1, 1)")):
        with pytest.raises(InvariantViolation, match=re.escape(f"query index {shown} names no item (n = 4)")):
            feasible_query_set(inst, query_set)


def test_canonical_optimum_past_the_brute_force_guard():
    inst = gen_independent_pairs(BRUTE_FORCE_LIMIT)
    cost, chosen = canonical_optimum(inst)
    assert cost == optimum_query_set(inst)[1] == BRUTE_FORCE_LIMIT
    assert feasible_query_set(inst, chosen)
    assert canonical_optimum(Instance(F(0), (), ())) == (0, frozenset())


@pytest.mark.parametrize("n, delta", [(300, F(1)), (2000, F(1, 2))])
def test_canonical_optimum_at_scale(n, delta):
    """Far past brute force: a sparse draw with a third of its costs zero (`with_costs`),
    then ``n // 10`` free intervals past its right end, each on its own.  The cost is
    `optimum_query_set`'s, the set is feasible, and an isolated unforced vertex is kept
    exactly when it is free and comes before the index where the scan stops, the first
    at which the kept prefix is feasible."""
    draw = with_costs(sparse(n, delta), random.Random(n))
    top = max(itv.hi for itv in draw.intervals)
    tail = [UncertainInterval(top + 2 * k, top + 2 * k + 1, F(0)) for k in range(n // 10)]
    inst = Instance(delta, draw.intervals + tuple(tail), draw.values + tuple(itv.lo for itv in tail))
    cost, chosen = canonical_optimum(inst)
    assert cost == optimum_query_set(inst)[1]
    assert feasible_query_set(inst, chosen)
    # a prefix stays feasible as it grows, so bisect for the first feasible one
    stop = bisect_left(range(inst.n + 1), True, key=lambda s: feasible_query_set(inst, [v for v in chosen if v < s]))
    forced, graph = forced_query_set(inst), build_graph(inst)
    isolated = [v for v in range(inst.n) if v not in forced and graph.adj[v] <= forced]
    for v in isolated:
        assert (v in chosen) == (inst.intervals[v].cost == 0 and v < stop), v
    free = [v for v in isolated if inst.intervals[v].cost == 0]
    assert min(free) < stop <= max(free) and len(free) < len(isolated)


def test_brute_force_guard():
    inst = Instance(F(0), tuple(interval(i, i + 2) for i in range(BRUTE_FORCE_LIMIT + 1)),
                    tuple(F(i) + 1 for i in range(BRUTE_FORCE_LIMIT + 1)))
    with pytest.raises(TooLarge):
        brute_force_optimum(inst)


def test_oblivious_query_set():
    star = gen_nested_star(6)
    assert oblivious_query_set(star) == frozenset(range(6))
    edgeless = Instance(F(0), (interval(0, 1), interval(5, 6)), (F(0), F(5)))
    assert oblivious_query_set(edgeless) == frozenset()
    # trivial intervals are never queried obliviously, even when dependent
    for inst in (Instance(F(2), (interval(0, 1), interval(-5, 6)), (F(0), F(-5))),
                 Instance(F(1), (interval(4, 5), interval(0, 10)), (F(4), F(9)))):
        assert oblivious_query_set(inst) == frozenset({1})
    # only an instance: its pairs and grid carry the threshold
    with pytest.raises(InvariantViolation):
        oblivious_query_set(build_graph(star))
    with pytest.raises(InvariantViolation):
        oblivious_query_set(DependencyGraph(2, [(0, 1)], (F(1), F(1))))


def test_cpcp_brute_force_hand_case():
    inst = gen_cpcp_adversary(1, 2)
    cost, prefix = cpcp_brute_force_optimum(inst)
    # querying the second item to the end (2 steps) resolves the pair
    assert prefix == (0, 2)
    assert cost == 2
    cost8, prefix8 = cpcp_brute_force_optimum(gen_cpcp_adversary(2, 8))
    assert cost8 == 10 and prefix8 == (1, 1, 0, 8)


def test_cpcp_brute_force_embeds_exact_model():
    inst = fig1_instance("a")
    cost, prefix = cpcp_brute_force_optimum(inst)
    assert cost == 2
    assert prefix == (1, 0, 1)


def test_cpcp_enumeration_guard():
    big = gen_cpcp_adversary(1, 2)
    # (M+1)^2 must exceed the limit to trip the guard
    M = 1100
    too_big = gen_cpcp_adversary(1, M)
    assert (M + 1) ** 2 > CPCP_ENUMERATION_LIMIT
    with pytest.raises(TooLarge):
        cpcp_brute_force_optimum(too_big)
    assert cpcp_brute_force_optimum(big)[0] == 2


def scan_cpcp_optimum(inst):
    """Every prefix vector in lexicographic order; the first cheapest wins."""
    n = inst.n
    scripts = []
    for i in range(n):
        if inst.refinements is not None and inst.refinements[i] is not None:
            scripts.append(inst.refinements[i])
        else:
            v = inst.values[i]
            scripts.append((UncertainInterval(v, v, inst.intervals[i].cost),))

    def step_cost(i, t):
        if inst.time_costs is not None and inst.time_costs[i] is not None:
            return inst.time_costs[i][t]
        return inst.intervals[i].cost

    prefix_cost = []
    for i in range(n):
        row = [F(0)]
        for t in range(len(scripts[i])):
            row.append(row[-1] + step_cost(i, t))
        prefix_cost.append(row)

    best = best_vec = None
    for vec in product(*(range(len(s) + 1) for s in scripts)):
        c = sum((prefix_cost[i][k] for i, k in enumerate(vec)), start=F(0))
        if best is not None and c >= best:
            continue
        cur = [
            scripts[i][k - 1] if k >= 1 else inst.intervals[i]
            for i, k in enumerate(vec)
        ]
        if not any(
            dependent(cur[i], cur[j], inst.delta)
            for i in range(n)
            for j in range(i + 1, n)
        ):
            best, best_vec = c, vec
    return best, best_vec


def fraction_cpcp_optimum(inst):
    """The pruned depth-first search of `cpcp_brute_force_optimum`, on `Fraction`
    endpoints and prices: the same order, cuts and tie-break."""
    n = inst.n
    rows = [ref_refinement_steps(inst, i) for i in range(n)]
    steps = [(itv,) + script for itv, (script, _) in zip(inst.intervals, rows)]
    prefix_cost = [[F(0), *accumulate(prices)] for _, prices in rows]
    best, best_vec = None, ()

    def search(i, cost, chosen, vec):
        nonlocal best, best_vec
        if i == n:
            best, best_vec = cost, vec
            return
        for k, itv in enumerate(steps[i]):
            c = cost + prefix_cost[i][k]
            if best is not None and c >= best:
                return
            if not any(dependent(other, itv, inst.delta) for other in chosen):
                search(i + 1, c, chosen + (itv,), vec + (k,))

    search(0, F(0), (), ())
    return best, best_vec


def with_free_steps(inst, seed):
    """The same scripts with about half the prices (flat and per step) zero."""
    rng = random.Random(seed)
    ivs = tuple(
        UncertainInterval(itv.lo, itv.hi, rng.choice((F(0), itv.cost)))
        for itv in inst.intervals
    )
    costs = tuple(
        None if s is None else tuple(rng.choice((F(0), F(1))) for _ in s)
        for s in inst.refinements
    )
    return Instance(inst.delta, ivs, inst.values, inst.refinements, costs)


def test_cpcp_search_matches_scan_on_random_scripts():
    for seed in range(300):
        n = 2 + seed % 6
        delta = (F(0), F(1, 2), F(1))[seed % 3]
        inst = gen_random_scripted(seed, n, delta, max_steps=4)
        assert cpcp_brute_force_optimum(inst) == scan_cpcp_optimum(inst), seed


def test_cpcp_search_matches_scan_on_ties():
    # zero prices make many vectors tie, so the lexicographic tie-break decides
    zero_optima = 0
    for seed in range(60):
        n = 2 + seed % 5
        delta = (F(0), F(1, 2), F(1))[seed % 3]
        inst = with_free_steps(gen_random_scripted(seed, n, delta, max_steps=4), seed)
        cost, vec = cpcp_brute_force_optimum(inst)
        assert (cost, vec) == scan_cpcp_optimum(inst), seed
        zero_optima += cost == 0 and any(vec)
    assert zero_optima > 0


def test_cpcp_search_matches_scan_on_stalling_family():
    for n, M in [(n, M) for n in range(1, 6) for M in range(1, 5)] + [(6, 4)]:
        inst = gen_cpcp_adversary(n, M)
        assert cpcp_brute_force_optimum(inst) == scan_cpcp_optimum(inst), (n, M)


def test_cpcp_int_search_matches_the_fraction_search_past_the_scan():
    """Scripted draws at n = 8-12, too many vectors for the full scan but under the
    guard, with and without zero prices; the free ones make ties that the
    lexicographic tie-break decides."""
    zero_optima = 0
    for seed in range(40):
        n = 8 + seed % 5
        inst = gen_random_scripted(seed, n, (F(0), F(1, 2), F(1))[seed % 3], max_steps=2)
        assert cpcp_brute_force_optimum(inst) == fraction_cpcp_optimum(inst), seed
        free = with_free_steps(inst, seed)
        cost, vec = cpcp_brute_force_optimum(free)
        assert (cost, vec) == fraction_cpcp_optimum(free), seed
        zero_optima += cost == 0 and any(vec)
    assert zero_optima > 0


def test_missing_script_is_one_error_from_environment_and_optimum():
    # 2^25 prefix vectors would trip the guard, but item 0 is refused first.
    inst = Instance(F(0), tuple(interval(i, i + 2) for i in range(25)))
    message = "item 0 has neither a refinement script nor a value"
    with pytest.raises(MissingRealization, match=message):
        CpcpEnvironment(inst)
    with pytest.raises(MissingRealization, match=message):
        cpcp_brute_force_optimum(inst)


def test_optimum_requires_values():
    with pytest.raises(MissingRealization):
        optimum_query_set(Instance(F(0), fig1_instance("a").intervals))
