"""Generators, intervals and the optimum against the versions they replaced,
which live only here.

`gen_random` takes its endpoints, unit cost and first-grid values from
shared `Fraction`s, `gen_laminar` carves on integer numerators, and
`_generic_position_ok` counts instead of comparing pairs: each draws
byte-identical documents for seeds 0-199.  `Instance` checks its values on
its grid ints, refusing what the `Fraction` check refused with its message.  `max_weight_independent_set` decides on int residuals, and
`optimum_query_set` and `canonical_optimum` sum costs as ints: each is
checked against the `Fraction` version on chordal graphs and instances up
to n = 300.  `UncertainInterval` keeps its value semantics with slots, and
`expected_cost_exact` mixes one pair once wherever both ends are the same.

A run's money is cost units on `Instance.cost_grid`: each strategy's spend
is checked against the `Fraction` sum of its transcript, `algorithm2` with
unit residuals against the same trials on `Fraction` residuals, the
expectation against the stack walk, which sums `Fraction` spends, and the
two rules on unit weights against the same rules on `Fraction` weights.
"""

import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    FIXED,
    HALF,
    SQRT3,
    AdviceOracle,
    CpcpEnvironment,
    Environment,
    Instance,
    InvariantViolation,
    RandomCoin,
    Sqrt3Prob,
    UncertainInterval,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm2,
    algorithm3_cpcp,
    build_graph,
    canonical_optimum,
    expected_cost_exact,
    gen_cost_path,
    gen_independent_pairs,
    gen_laminar,
    gen_random,
    gen_random_scripted,
    max_weight_independent_set,
    min_cost_vertex_cover,
    optimum_query_set,
    run_oblivious,
    serialize,
    simple_adaptive,
    simple_adaptive_stable_sort,
    vc_adaptive,
    verify_peo,
)
from querysort import core, instances, online
from querysort.graph import DependencyGraph, mcs_peo, peo_min_right
from test_online import count_flips, stack_expected_cost
from test_sweep import instances as crowded_instances
from test_sweep import make_instance, wide_instances

# ---------------------------------------------------------------------------
# The Fraction-built references
# ---------------------------------------------------------------------------


def ref_generic_position_ok(values, ivs, delta):
    for i, v in enumerate(values):
        for j, other in enumerate(ivs):
            if i == j:
                continue
            if v in (other.lo - delta, other.lo + delta, other.hi - delta, other.hi + delta):
                return False
        for j, w in enumerate(values):
            if j != i and abs(v - w) == delta:
                return False
    return True


def ref_gen_random(seed, n, delta, cost_model="uniform", value_model="uniform-in-interval"):
    """`gen_random`, normalizing a new `Fraction` for every endpoint and cost.  It
    shares the generic-position test, which has its own reference."""
    delta = core.scalar(delta)
    rng = random.Random(seed)
    drawn = []
    for _ in range(n):
        lo = rng.randint(0, 80)
        hi = lo + rng.randint(0, 24)
        if cost_model == "uniform":
            cost = F(1)
        else:
            cost = F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        drawn.append((lo, hi, cost))
    if value_model == "generic":
        drawn = [(lo, hi + (lo == hi), cost) for lo, hi, cost in drawn]
    ivs = [UncertainInterval(F(lo, 2), F(hi, 2), cost) for lo, hi, cost in drawn]

    def draw_values(denominator):
        out = []
        for (lo, hi, _), itv in zip(drawn, ivs):
            if value_model == "endpoint-biased":
                kind = rng.randint(1, 4)
                if kind == 1:
                    out.append(itv.lo)
                    continue
                if kind == 2:
                    out.append(itv.hi)
                    continue
            inset = 1 if value_model == "generic" else 0
            k = rng.randint(inset, denominator - inset)
            out.append(F(lo * denominator + (hi - lo) * k, 2 * denominator))
        return out

    if value_model == "generic":
        denominator = 16
        while True:
            values = draw_values(denominator)
            if instances._generic_position_ok(values, ivs, delta):  # checked on its own below
                break
            denominator *= 2
    else:
        values = draw_values(16)
    return Instance(delta, tuple(ivs), tuple(values))


def ref_gen_laminar(seed, n, depth=3):
    """`gen_laminar`, carving every child with `Fraction` arithmetic."""
    rng = random.Random(seed)
    ivs = []
    frontier = []
    root_cursor = F(0)

    def add(lo, hi, level):
        ivs.append(UncertainInterval(lo, hi, F(1)))
        if level > 0:
            frontier.append((lo, hi, level))

    while len(ivs) < n:
        if frontier:
            lo, hi, level = frontier.pop(rng.randrange(len(frontier)))
            width = hi - lo
            children = min(rng.randint(1, 3), n - len(ivs))
            slots = 2 * children + 1
            for c in range(children):
                add(lo + width * F(2 * c + 1, slots), lo + width * F(2 * c + 2, slots), level - 1)
        else:
            width = F(rng.randint(8, 24))
            add(root_cursor, root_cursor + width, depth)
            root_cursor += width + rng.randint(1, 5)
    values = tuple(itv.lo + itv.width * F(rng.randint(0, 16), 16) for itv in ivs)
    return Instance(F(0), tuple(ivs), values)


def ref_max_weight_independent_set(g):
    """`max_weight_independent_set` on `Fraction` residual weights."""
    if g.his is not None:
        order = peo_min_right(g)
    else:
        order = mcs_peo(g)
        assert verify_peo(g, order)
    pos = {v: k for k, v in enumerate(order)}
    residual = list(g.weights)
    marked = [False] * g.n
    for v in order:
        if residual[v] > 0:
            marked[v] = True
            take = residual[v]
            for u in g.adj[v]:
                if pos[u] > pos[v]:
                    residual[u] = max(F(0), residual[u] - take)
    chosen = set()
    for v in reversed(order):
        if marked[v] and not (g.adj[v] & chosen):
            chosen.add(v)
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [F(0), F(1, 2), F(1)], ids=["0", "1/2", "1"])
@pytest.mark.parametrize("n", [1, 10, 40])
@pytest.mark.parametrize("value_model", instances._VALUE_MODELS)
@pytest.mark.parametrize("cost_model", instances._COST_MODELS)
def test_gen_random_draws_the_same_documents(cost_model, value_model, n, delta):
    for seed in range(200):
        want = serialize(ref_gen_random(seed, n, delta, cost_model, value_model))
        assert serialize(gen_random(seed, n, delta, cost_model, value_model)) == want, seed


@pytest.mark.parametrize("value_model", ["uniform-in-interval", "endpoint-biased"])
def test_gen_random_values_are_shared(value_model):
    """Every value is an endpoint or a ``m/32`` from the shared table, which reaches
    the largest endpoint a draw can make, so no value is a fresh `Fraction`."""
    shared = {id(x) for x in instances._HALVES + instances._THIRTY_SECONDS}
    assert instances._THIRTY_SECONDS[-1] == instances._HALVES[-1]
    for seed in range(200):
        inst = gen_random(seed, 40, F(1, 2), "rational-range", value_model)
        assert all(id(v) in shared for v in inst.values), seed


def ref_value_error(intervals, values):
    """The message of the `Fraction` check that `Instance` made on each value."""
    for i, (itv, v) in enumerate(zip(intervals, values)):
        if not itv.lo <= v <= itv.hi:
            return f"value {v} of item {i} lies outside {itv}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-4, 4)] * 3, *[st.sampled_from([1, 2, 3, 7])] * 3),
                min_size=1, max_size=6), st.sampled_from([F(0), F(1, 3)]))
def test_values_are_checked_on_the_grid(rows, delta):
    """Values inside, on and just past the ends of intervals over mixed denominators."""
    intervals = tuple(UncertainInterval(F(a, p), F(a, p) + F(abs(b), q), F(1)) for a, b, _, p, q, _ in rows)
    values = tuple(itv.lo + F(c, r) for itv, (_, _, c, _, _, r) in zip(intervals, rows))
    try:
        Instance(delta, intervals, values)
        got = None
    except InvariantViolation as exc:
        got = str(exc)
    assert got == ref_value_error(intervals, values)


@pytest.mark.parametrize("depth", [0, 1, 3, 5])
@pytest.mark.parametrize("n", [1, 10, 40])
def test_gen_laminar_draws_the_same_documents(n, depth):
    for seed in range(200):
        assert serialize(gen_laminar(seed, n, depth)) == serialize(ref_gen_laminar(seed, n, depth)), seed


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.sampled_from([F(0), F(1, 2), F(1), F(3, 7)]),
       st.lists(st.integers(0, 6), min_size=3, max_size=3), st.integers(0, 2 ** 32))
def test_generic_position_counts_what_the_pair_scan_finds(n, delta, grid, seed):
    """Endpoints and values on a small grid, so that values often sit on another
    interval's boundary or exactly ``delta`` from each other."""
    rng = random.Random(seed)
    step = F(1, 1 + grid[0])
    ivs, values = [], []
    for _ in range(n):
        lo = step * rng.randint(0, 4 + grid[1])
        hi = lo + step * rng.randint(0, 2 + grid[2])
        ivs.append(UncertainInterval(lo, hi))
        values.append(rng.choice([lo, hi, lo + (hi - lo) / 2, lo + delta]))
    assert instances._generic_position_ok(values, ivs, delta) == ref_generic_position_ok(values, ivs, delta)


# ---------------------------------------------------------------------------
# The optimum on ints
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 7, 10 ** 9 + 7)


def mixed_weights(rng, n):
    """Weights over mixed denominators, about one in four of them zero."""
    return [F(0) if rng.random() < 0.25 else F(rng.randint(1, 40), rng.choice(DENOMINATORS))
            for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(crowded_instances(), wide_instances()), st.integers(0, 300), st.integers(0, 2 ** 32))
def test_independent_set_on_ints_matches_fractions(inst, extra, seed):
    """On the interval graph of a drawn instance (n up to 250) or of a sparse one
    up to n = 300, with mixed-denominator weights, by either elimination order."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        inst = make_instance(seed, extra, F(1, 2), 4 * extra + 1)
    g = build_graph(inst)
    weights = mixed_weights(rng, inst.n)
    for graph in (DependencyGraph(inst.n, g.edges, weights, his=g.his),
                  DependencyGraph(inst.n, g.edges, weights)):
        assert max_weight_independent_set(graph) == ref_max_weight_independent_set(graph)
        cover = min_cost_vertex_cover(graph)
        assert set(cover).isdisjoint(max_weight_independent_set(graph))


def test_independent_set_takes_int_weights():
    g = DependencyGraph(3, [(0, 1), (1, 2)], [2, 3, 2], his=[1, 2, 3])
    assert max_weight_independent_set(g) == (0, 2)


@pytest.mark.parametrize("seed", range(30))
def test_cover_skips_isolated_vertices_as_the_reference_walks_them(seed):
    """On sparse interval graphs (n from 20 to 78) holding isolated vertices of weight
    zero and of positive weight, with int and with `Fraction` weights, by either
    elimination order: the independent set equals the reference's, which walks every
    vertex, an isolated vertex is in it exactly when its weight is positive, and the
    cover is its complement."""
    rng = random.Random(seed)
    n = 20 + 2 * seed
    g = build_graph(make_instance(seed, n, F(1, 2), 4 * n + 1))
    isolated = [v for v in range(n) if not g.adj[v]]
    assert len(isolated) >= 2 and g.edges
    units = [rng.choice((0, rng.randint(1, 40))) for _ in range(n)]
    units[isolated[0]], units[isolated[-1]] = 0, rng.randint(1, 40)
    den = rng.choice(DENOMINATORS)
    for weights in (units, [F(u, den) for u in units], mixed_weights(rng, n)):
        for graph in (DependencyGraph(n, g.edges, weights, his=g.his), DependencyGraph(n, g.edges, weights)):
            kept = max_weight_independent_set(graph)
            assert kept == ref_max_weight_independent_set(graph)
            assert [v for v in isolated if v in kept] == [v for v in isolated if weights[v] > 0]
            assert min_cost_vertex_cover(graph) == tuple(v for v in range(n) if v not in kept)


@settings(max_examples=40, deadline=None)
@given(st.one_of(crowded_instances(), wide_instances()), st.integers(0, 2 ** 32))
def test_optimum_costs_sum_on_ints(inst, seed):
    """Rational costs over mixed denominators: the optimum's cost is the `Fraction`
    sum of its set, and the canonical optimum costs the same."""
    rng = random.Random(seed)
    costs = mixed_weights(rng, inst.n)
    inst = Instance(inst.delta, tuple(UncertainInterval(itv.lo, itv.hi, c)
                                      for itv, c in zip(inst.intervals, costs)), inst.values)
    chosen, cost = optimum_query_set(inst)
    assert type(cost) is F
    assert cost == sum((costs[v] for v in chosen), start=F(0))
    canonical_cost, canonical = canonical_optimum(inst)
    assert type(canonical_cost) is F
    assert canonical_cost == cost == sum((costs[v] for v in canonical), start=F(0))


def test_instance_costs_are_read_once():
    inst = gen_random(1, 8, F(1, 2), cost_model="rational-range")
    assert inst.costs is inst.costs
    assert inst.costs == tuple(itv.cost for itv in inst.intervals)


# ---------------------------------------------------------------------------
# Intervals with slots
# ---------------------------------------------------------------------------


def test_interval_is_a_frozen_value_with_slots():
    a = UncertainInterval(F(1, 2), F(7, 3), F(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.lo = F(0)
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):  # no slot for it, and no __dict__ to hold it
        object.__setattr__(a, "extra", 1)
    b = UncertainInterval(F(1, 2), F(7, 3), F(2))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != UncertainInterval(F(1, 2), F(7, 3), F(3))
    assert len({a, b, UncertainInterval(F(0), F(1))}) == 2
    assert UncertainInterval(F(0), F(1)).cost == 1
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)
        assert (twin.lo, twin.hi, twin.cost) == (F(1, 2), F(7, 3), F(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.hi = F(9)


# ---------------------------------------------------------------------------
# One pair, mixed once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm, rule, per_flip", [
    (algorithm1, FIXED(F(1, 2)), 1),
    (algorithm2, HALF, 1),
    (algorithm2, SQRT3, 2),
])
def test_both_ends_are_mixed_once_under_a_rational_rule(monkeypatch, algorithm, rule, per_flip):
    """Every real flip mixes its two sides once when both ends of each side are one
    pair (every rational rule), and twice only for a square-root enclosure."""
    mixes, mix = [], online._mix

    def counting_mix(*args):
        mixes.append(1)
        return mix(*args)

    monkeypatch.setattr(online, "_mix", counting_mix)
    flips = count_flips(monkeypatch)
    inst = gen_cost_path(8, F(1, 100)) if algorithm is algorithm2 else gen_independent_pairs(5)
    got = expected_cost_exact(algorithm, inst, rule)
    assert len(flips) > 0
    assert len(mixes) == per_flip * len(flips)
    assert isinstance(got, tuple) == (rule is SQRT3)
    assert got == stack_expected_cost(algorithm, inst, rule)


# ---------------------------------------------------------------------------
# Money in cost units
# ---------------------------------------------------------------------------


def ref_spend(transcript):
    """The `Fraction` ledger: the sum of every charge in the transcript."""
    return sum((charge for _, _, charge in transcript), start=F(0))


def with_costs(inst, costs):
    """``inst`` with item ``i`` charging ``costs[i]`` (its scripts keep their entries)."""
    return Instance(inst.delta, tuple(UncertainInterval(itv.lo, itv.hi, c) for itv, c in zip(inst.intervals, costs)),
                    inst.values, inst.refinements, inst.time_costs)


#: Every strategy as ``(run(env, inst), needs threshold zero)``; `algorithm1` runs on
#: the instance with every cost set to 5/3, so its ledger keeps a scale above 1.
STRATEGIES = {
    "run_oblivious": (lambda env, inst: run_oblivious(env), False),
    "simple_adaptive": (lambda env, inst: simple_adaptive(env), False),
    "simple_adaptive_stable_sort": (lambda env, inst: simple_adaptive_stable_sort(env), True),
    "vc_adaptive": (lambda env, inst: vc_adaptive(env), False),
    "algorithm1": (lambda env, inst: algorithm1(env, F(1, 2), RandomCoin(inst.n)), False),
    "algorithm2": (lambda env, inst: algorithm2(env, SQRT3 if inst.n % 2 else HALF, RandomCoin(inst.n)), False),
    "algorithm3_cpcp": (lambda env, inst: algorithm3_cpcp(env), False),
    "advice_half": (lambda env, inst: advice_half(env, AdviceOracle(inst)), True),
    "advice_lg3": (lambda env, inst: advice_lg3(env, AdviceOracle(inst)), False),
}

#: Instance families as ``make(n, delta)``; the scripted one's time costs are halves
#: while its item costs are whole, so its cost grid's scale comes from the time costs.
FAMILIES = {
    "random-uniform": lambda n, delta: gen_random(n, n, delta, cost_model="uniform"),
    "random-rational": lambda n, delta: gen_random(n, n, delta, cost_model="rational-range"),
    "cost_path": lambda n, delta: gen_cost_path(n, F(1, 1000)),
    "scripted": lambda n, delta: gen_random_scripted(n, n, delta),
}


@pytest.mark.parametrize("n", [4, 40, 300])
@pytest.mark.parametrize("family, delta", [(family, delta) for family in sorted(FAMILIES) for delta in (F(0), F(1, 2))
                                           if not (family == "cost_path" and delta)],  # its threshold is 0
                         ids=lambda x: str(x))
def test_every_ledger_is_the_transcript_sum(family, delta, n):
    """For all nine strategies: the report's total, the state's spend and the edgeless
    spend are the `Fraction` sum of the transcript, and the ledger holds it in units."""
    inst = FAMILIES[family](n, delta)
    if family == "scripted":
        assert any(c.denominator == 2 for row in inst.time_costs if row for c in row)
        assert all(c.denominator == 1 for c in inst.costs)
    for name, (run, needs_zero) in STRATEGIES.items():
        if needs_zero and inst.delta != 0:
            continue
        case = with_costs(inst, [F(5, 3)] * inst.n) if name == "algorithm1" else inst
        env = (CpcpEnvironment if name == "algorithm3_cpcp" else Environment)(case)
        report = run(env, case)
        want = ref_spend(env.transcript)
        edgeless = F(online._edgeless_paid(env, range(env.n)), env._scale)
        assert report.total_cost == env.state().spent == edgeless == want, name
        assert type(report.total_cost) is type(env.state().spent) is F
        assert env._paid == want * env._scale
        assert all(charge is case.costs[i] for i, _, charge in env.transcript if name != "algorithm3_cpcp")


def test_cost_grid_covers_every_cost():
    inst = gen_random_scripted(5, 12, F(1, 2))
    scale, units = inst.cost_grid
    prices = [c for row in inst.time_costs if row for c in row]
    assert inst.cost_grid is inst.cost_grid
    assert all((c * scale).denominator == 1 for c in (*inst.costs, *prices))
    assert list(units) == [c * scale for c in inst.costs] and all(type(u) is int for u in units)
    assert scale == 2  # whole item costs, half time costs
    assert Instance(F(0), ()).cost_grid == (1, ())


@settings(max_examples=30, deadline=None)
@given(st.one_of(crowded_instances(), wide_instances()), st.integers(0, 2 ** 32))
def test_algorithm2_on_unit_residuals_plays_as_on_fractions(inst, seed):
    """The same trials, started once on unit residuals and once on `Fraction` ones over
    mixed denominators, query the same items and end with the same residuals."""
    inst = with_costs(inst, mixed_weights(random.Random(seed), inst.n))
    scale = inst.cost_grid[0]
    start, trial, key = online._TRIALS[algorithm2]
    for rule in (HALF, SQRT3):
        states, reports = [], []
        for residuals, vertices in ((None, None), ((list(inst.costs), {}), range(inst.n))):  # units, then `Fraction`s
            def started(env, rule):
                states.append(start(env, rule, residuals, vertices))
                return states[-1]

            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(online._TRIALS, algorithm2, (started, trial, key))
                reports.append(algorithm2(Environment(inst), rule, RandomCoin(seed)))
        (report, want), (state, ref_state) = reports, states
        assert report.transcript == want.transcript and report.total_cost == want.total_cost
        assert state[0] == [r * scale for r in ref_state[0]]


def rational_costs(inst, rng, uniform):
    """``inst`` with rational costs over {2, 3, 7}: one shared cost, or one per item."""
    draw = lambda: F(rng.randint(1, 12), rng.choice((2, 3, 7)))
    shared = draw()
    return with_costs(inst, [shared if uniform else draw() for _ in range(inst.n)])


@settings(max_examples=30, deadline=None)
@given(crowded_instances(), st.integers(0, 2 ** 32))
def test_expectation_in_units_matches_the_fraction_stack_walk(inst, seed):
    """Crowded instances with rational costs, at most 10 items so that every coin
    tree stays within the stack walk's depth guard: each rule's expectation
    equals the stack walk's."""
    inst = Instance(inst.delta, inst.intervals[:10], inst.values[:10])
    rng = random.Random(seed)
    for algorithm, rule, uniform in ((algorithm1, FIXED(F(1, 2)), True), (algorithm1, FIXED(1), True),
                                     (algorithm2, HALF, False), (algorithm2, SQRT3, False)):
        case = rational_costs(inst, rng, uniform)
        got = expected_cost_exact(algorithm, case, rule)
        assert got == stack_expected_cost(algorithm, case, rule)
        assert all(type(end) is F for end in (got if isinstance(got, tuple) else (got,)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.sampled_from(DENOMINATORS), st.sampled_from(DENOMINATORS),
       st.sampled_from([1, 6, 21, 10 ** 9 + 7]))
def test_rules_take_units_or_fractions_alike(w, wb, den_w, den_b, extra):
    """Positive weights (a trial's are: zero residuals are queried first) as `Fraction`s,
    and the same weights in units (times a common multiple of their denominators), give
    the same probability: equal `Fraction`s, or `Sqrt3Prob`s of the same value, with the
    same enclosure and the same verdict on a draw."""
    weight, center = F(w, den_w), F(wb, den_b)
    scale = den_w * den_b * extra
    units = F(int(weight * scale)), F(int(center * scale))
    assert HALF(*units) == HALF(weight, center) and type(HALF(*units)) is F
    got, want = SQRT3(*units), SQRT3(weight, center)
    assert type(got) is type(want)
    if isinstance(want, Sqrt3Prob):
        assert got.num / got.den == want.num / want.den
        assert got.enclosure(F(1, 10 ** 24)) == want.enclosure(F(1, 10 ** 24))
        for u in (F(0), F(1, 3), want.enclosure(F(1, 10 ** 6))[0], want.enclosure(F(1, 10 ** 6))[1], F(99, 100)):
            assert got.accepts(u) == want.accepts(u)
    else:
        assert got == want


def test_refinement_replies_reuse_entries_with_the_flat_cost():
    """A script entry priced at its item's flat cost is the step's reply itself; one
    with another cost is replied with the flat cost, as the transcript always shows."""
    a = UncertainInterval(F(0), F(4), F(3, 2))
    own, other = UncertainInterval(F(1), F(3), F(3, 2)), UncertainInterval(F(2), F(2), F(7))
    inst = Instance(F(0), (a, UncertainInterval(F(2), F(5), F(1))), (F(2), F(3)), ((own, other), None),
                    ((F(1, 3), F(0)), None))
    env = CpcpEnvironment(inst)
    assert env.query(0) is own
    reply = env.query(0)
    assert reply == UncertainInterval(F(2), F(2), F(3, 2)) and reply is not other
    assert env.query(1) == UncertainInterval(F(3), F(3), F(1))
    assert [charge for _, _, charge in env.transcript] == [F(1, 3), F(0), F(1)]
    assert env.state().spent == F(4, 3) and (env._paid, env._scale) == (8, 6)  # the item cost 3/2 is on the grid too


# ---------------------------------------------------------------------------
# The coin-tree walk on ints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [16, 20, 24])
@pytest.mark.parametrize("rule", [HALF, SQRT3], ids=["half", "sqrt3"])
def test_int_walk_matches_the_stack_walk_on_long_cost_paths(n, rule):
    """Past n = 10, on the cost paths that branch most: both ends of the square-root
    enclosure, and the one value under `HALF`, equal the `Fraction` stack walk's."""
    inst = gen_cost_path(n, F(1, 1000))
    got = expected_cost_exact(algorithm2, inst, rule)
    assert isinstance(got, tuple) == (rule is SQRT3)
    assert got == stack_expected_cost(algorithm2, inst, rule)


@pytest.mark.parametrize("algorithm, rule, inst", [
    (algorithm1, FIXED(F(1, 3)), gen_independent_pairs(6)),
    (algorithm1, FIXED(F(1, 2)), with_costs(gen_independent_pairs(5), [F(5, 3)] * 10)),
    (algorithm2, HALF, gen_cost_path(12, F(1, 1000))),
    (algorithm2, SQRT3, gen_cost_path(12, F(1, 1000))),
    (algorithm2, SQRT3, with_costs(gen_independent_pairs(4), [F(k + 1, 7) for k in range(8)])),
], ids=["alg1-third", "alg1-rational-costs", "half", "sqrt3", "sqrt3-pairs"])
def test_the_walk_mixes_and_joins_only_ints(monkeypatch, algorithm, rule, inst):
    """`_mix` and `_join` take int pairs and triples and return an int triple in lowest
    terms, so no `Fraction` arithmetic creeps back into the walk and its denominators
    stay bounded by the depth of the tree."""
    calls = {"_mix": 0, "_join": 0}
    for name in calls:
        def checked(*args, inner=getattr(online, name), name=name):
            calls[name] += 1
            out = inner(*args)
            assert all(type(x) is int for part in (*args, out) for x in part), (name, args, out)
            assert len(out) == 3 and math.gcd(*out) == 1, (name, out)
            return out
        monkeypatch.setattr(online, name, checked)
    want = stack_expected_cost(algorithm, inst, rule)
    assert expected_cost_exact(algorithm, inst, rule) == want
    assert calls["_mix"] > 0 and calls["_join"] > 0, calls
