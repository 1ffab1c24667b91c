"""Strategies: environments, coins, adaptive/randomized/advice runs.

`expected_cost_exact` has two references that live only here.
`replay_expected_cost` restarts the public strategy at every node of the coin
tree.  `stack_expected_cost` forks the whole environment at every real flip
(`fork`, a copy kept only here) and keeps the ``True`` sides on a stack,
splitting nothing: it visits every leaf once, so it serves the larger
differential cases.  The walk itself keeps one environment and rolls it back
after each flip's ``False`` side; `check_rollbacks` checks a rolled-back
environment against a fresh one.
"""

import copy
import functools
import random
import re
from fractions import Fraction as F

import pytest

from querysort import (
    FIXED,
    HALF,
    SQRT3,
    AdviceOracle,
    CpcpEnvironment,
    DeltaNotZero,
    Environment,
    InvariantViolation,
    MissingRealization,
    QuerysortError,
    RandomCoin,
    RepeatQuery,
    ScriptExhausted,
    TooManyBranches,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm2,
    algorithm3_cpcp,
    brute_force_optimum,
    expected_cost_exact,
    fig1_instance,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_independent_pairs,
    gen_laminar,
    gen_lemma4_pair,
    gen_lemma7_two_triangles,
    gen_random,
    gen_random_scripted,
    interval,
    no_2component_after_preprocess,
    optimum_query_set,
    residual_component_sizes,
    run_oblivious,
    simple_adaptive,
    simple_adaptive_stable_sort,
    valid_permutation,
    vc_adaptive,
)
from querysort import offline, online
from querysort.core import Instance, isqrt_bounds
from querysort.graph import DependencyGraph, build_graph
from querysort.online import _ENCLOSURE_PRECISION, Sqrt3Prob


# ---------------------------------------------------------------------------
# Coins and probability rules
# ---------------------------------------------------------------------------


def test_probability_rules():
    assert HALF(F(1), F(4, 3)) == F(3, 8)
    assert HALF(F(10), F(1)) == F(1)
    p = SQRT3(F(1), F(1))
    assert isinstance(p, Sqrt3Prob)
    assert SQRT3(F(10), F(1)) == F(1)
    assert FIXED(F(1, 3)) == F(1, 3)
    assert FIXED("1/3") == F(1, 3)
    with pytest.raises(InvariantViolation):
        FIXED(F(3, 2))


def test_half_rule_with_a_zero_center_weight():
    """`HALF` returns 1 once ``W >= 2 w_b``, also at ``w_b = 0``, as `SQRT3` does."""
    for w in (F(0), F(1, 3), F(5)):
        assert HALF(w, F(0)) == SQRT3(w, F(0)) == 1
        assert type(HALF(w, F(0))) is F
    for w in (F(0), F(1, 3), F(1), F(2), F(5)):
        for w_b in (F(1, 4), F(1), F(3, 2)):
            assert HALF(w, w_b) == min(F(1), w / (2 * w_b))


@pytest.mark.parametrize("rule", [HALF, SQRT3], ids=["half", "sqrt3"])
def test_rules_check_their_weights(rule):
    """Both rules read each weight as a scalar and refuse a negative one, on either side;
    ints, strings and `Fraction`s of the same value give the same probability."""
    floats = "floats are not allowed as scalars"
    cases = [
        ((0.5, 1), floats), ((1, 0.5), floats), ((True, 1), floats), ((1, False), floats),
        (("x", 1), "not a rational number: 'x'"), ((None, 1), "cannot interpret NoneType as a scalar"),
        ((F(-1), F(1)), "rule weights must be non-negative, got -1, 1"),
        ((F(-2), F(1)), "rule weights must be non-negative, got -2, 1"),
        ((F(1), F(-1, 3)), "rule weights must be non-negative, got 1, -1/3"),
        ((-1, 1), "rule weights must be non-negative, got -1, 1"),
        ((0, -5), "rule weights must be non-negative, got 0, -5"),
    ]
    for weights, message in cases:
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            rule(*weights)
    for w, w_b in ((1, 4), (3, 4), (7, 2), (5, 0), (0, 0), (0, 4)):
        assert rule(w, w_b) == rule(F(w), F(w_b)) == rule(str(w), str(w_b))
    assert rule(0, 4) == 0 and type(rule(0, 4)) is F  # no neighbour weight: never query the center


def test_coin_strategies_refuse_the_other_kind_of_rule():
    """`algorithm1` takes a bias, `algorithm2` a weight rule; everything else is refused
    with a `QuerysortError`, by the strategy and by the expectation walk alike."""
    inst = gen_lemma4_pair(F(0))[0]
    assert algorithm1(Environment(inst), F(1, 2), rng=RandomCoin(0)).total_cost >= 1
    bias = "this strategy takes a fixed coin bias"
    cases = [
        (algorithm1, HALF, bias),
        (algorithm1, SQRT3, bias),
        (algorithm1, "1/2", bias),
        (algorithm1, F(3, 2), r"probability 3/2 outside \[0, 1\]"),
        (algorithm2, FIXED(F(1, 2)), "this strategy takes the half or sqrt3 rule"),
        (algorithm2, "half", "this strategy takes the half or sqrt3 rule"),
        (algorithm2, lambda w, w_b: F(1, 2), "this strategy takes the half or sqrt3 rule"),
    ]
    for algorithm, rule, message in cases:
        with pytest.raises(QuerysortError, match=message):
            algorithm(Environment(inst), rule, rng=RandomCoin(0))
        with pytest.raises(QuerysortError, match=message):
            expected_cost_exact(algorithm, inst, rule)


def test_sqrt3_prob_exact_comparison():
    pr = Sqrt3Prob(1, 1)  # 1/sqrt(3)
    # 0.5 < 1/sqrt3 < 0.6, decided without any floating point
    assert pr.accepts(F(1, 2))
    assert not pr.accepts(F(3, 5))
    lo, hi = pr.enclosure(F(1, 10**12))
    assert lo < hi and hi - lo <= F(1, 10**12)
    assert lo * lo * 3 <= 1 <= hi * hi * 3


def test_sqrt3_prob_compares_and_hashes_by_value():
    a, b = SQRT3(F(3), F(4)), SQRT3(F(6), F(8))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.num, a.den, b.num, b.den) == (3, 4, 6, 8)  # the parts stay as given
    assert a != SQRT3(F(3), F(5)) and a != F(3, 4) and F(3, 4) != a
    s_lo, s_hi = isqrt_bounds(3, _ENCLOSURE_PRECISION)
    for p in (a, b):  # the enclosure and verdicts of 3 / (4 sqrt 3) ≈ 0.433, from either pair of parts
        assert p.enclosure(_ENCLOSURE_PRECISION) == (F(3) * s_lo / 12, F(3) * s_hi / 12)
        assert [p.accepts(F(k, 100)) for k in (0, 43, 44, 60)] == [True, True, False, False]


def test_random_coin_deterministic():
    a = RandomCoin(7)
    b = RandomCoin(7)
    flips_a = [a.flip(F(1, 2)) for _ in range(20)]
    flips_b = [b.flip(F(1, 2)) for _ in range(20)]
    assert flips_a == flips_b
    assert any(flips_a) and not all(flips_a)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


def test_environment_queries_and_errors():
    inst = fig1_instance("a")
    env = Environment(inst)
    v = env.query(0)
    assert v == F(11, 2)
    assert env.state().spent == 1
    assert env.state().current[0].is_point
    with pytest.raises(RepeatQuery):
        env.query(0)
    with pytest.raises(MissingRealization):
        Environment(Instance(inst.delta, inst.intervals))


def test_cpcp_environment_scripts():
    inst = gen_cpcp_adversary(1, 2)
    env = CpcpEnvironment(inst)
    first = env.query(0)
    assert first == inst.intervals[0]  # stall step repeats the interval
    second = env.query(0)
    assert second.is_point
    with pytest.raises(ScriptExhausted):
        env.query(0)
    assert env.times(0) == 2 and env.exhausted(0)


def test_environment_refuses_a_number_off_the_grid():
    """A script entry whose denominator the instance grid lacks raises, rather
    than being rounded, when the environment puts its scripts on the grid."""
    inst = Instance(F(0), (interval(0, 2), interval(1, 3)), (F(1), F(2)),
                    refinements=((interval("1/2", "3/2"), interval(1, 1)), None))
    inst.grid
    object.__setattr__(inst, "refinements", ((interval("1/7", "13/7"), interval(1, 1)), None))
    with pytest.raises(InvariantViolation, match="not on the integer grid"):
        CpcpEnvironment(inst)


def test_cpcp_time_costs():
    inst = Instance(
        F(0),
        (interval(0, 10, 5), interval(20, 21, 1)),
        (F(4), F(20)),
        refinements=((interval(2, 6, 5), interval(4, 4, 5)), None),
        time_costs=((F(1), F(2)), None),
    )
    env = CpcpEnvironment(inst)
    env.query(0)
    assert env.state().spent == 1  # per-step price, not the flat cost
    env.query(0)
    assert env.state().spent == 3


# ---------------------------------------------------------------------------
# Deterministic strategies
# ---------------------------------------------------------------------------


def test_run_oblivious_fig1():
    rep = run_oblivious(Environment(fig1_instance("a")))
    assert rep.total_cost == 3
    assert valid_permutation(fig1_instance("a"), None, rep.permutation)


def test_simple_adaptive_witness_sets():
    for s in range(40):
        inst = gen_random(s, 2 + s % 7, (F(0), F(1))[s % 2])
        rep = simple_adaptive(Environment(inst))
        assert valid_permutation(inst, None, rep.permutation)
        _, minimizers = brute_force_optimum(inst)
        for batch in rep.witness_sets or ():
            # every step's batch intersects every optimal query set
            assert all(batch & m for m in minimizers), (s, batch)
        # batches are pairwise disjoint
        seen = set()
        for batch in rep.witness_sets or ():
            assert not (batch & seen)
            seen |= batch


def test_stable_sort_requires_zero_threshold():
    with pytest.raises(DeltaNotZero):
        simple_adaptive_stable_sort(Environment(gen_lemma4_pair(F(1))[0]))


def test_stable_sort_is_stable_and_valid():
    inst = Instance(
        F(0),
        (interval(0, 4), interval(0, 4), interval(0, 4)),
        (F(2), F(2), F(2)),
    )
    rep = simple_adaptive_stable_sort(Environment(inst))
    assert list(rep.permutation) == [0, 1, 2]  # ties keep input order
    assert rep.comparisons is not None and rep.comparisons >= 2
    for s in range(30):
        inst = gen_random(s, 2 + s % 7, F(0))
        rep = simple_adaptive_stable_sort(Environment(inst))
        assert valid_permutation(inst, None, rep.permutation)
        # stability: two items whose equal values were both revealed must
        # keep their input order
        pos = {i: p for p, i in enumerate(rep.permutation)}
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                if (
                    rep.queried[i]
                    and rep.queried[j]
                    and inst.values[i] == inst.values[j]
                ):
                    assert pos[i] < pos[j], (s, i, j)


def test_vc_adaptive_fig1():
    rep = vc_adaptive(Environment(fig1_instance("a")))
    assert rep.total_cost == 2  # cover {0}, then 2 joins from the value pass
    assert valid_permutation(fig1_instance("a"), None, rep.permutation)


def test_vc_adaptive_cost_example():
    # expensive second interval: cover takes the cheap one, value pass the rest
    inst = Instance(F(0), (interval(0, 10, 1), interval(4, 14, 100)), (F(7), F(12)))
    rep = vc_adaptive(Environment(inst))
    assert rep.total_cost == 101
    _, opt = optimum_query_set(inst)
    assert opt == 100
    assert rep.total_cost <= 2 * opt


# ---------------------------------------------------------------------------
# algorithm1
# ---------------------------------------------------------------------------


def test_algorithm1_rejects_nonuniform_costs():
    inst = Instance(F(0), (interval(0, 10, 1), interval(4, 14, 2)), (F(7), F(12)))
    with pytest.raises(InvariantViolation):
        algorithm1(Environment(inst), FIXED(F(1, 2)), rng=RandomCoin(0))


def test_algorithm1_rejects_weight_rules():
    with pytest.raises(InvariantViolation):
        algorithm1(Environment(fig1_instance("a")), HALF, rng=RandomCoin(0))


def test_algorithm1_refuses_a_refinement_environment():
    """Its steps read a query's answer as a value, which only `Environment` returns."""
    for s in range(4):
        inst = gen_random(s, 6, F(0))
        with pytest.raises(InvariantViolation, match="runs on an Environment"):
            algorithm1(CpcpEnvironment(inst), FIXED(F(1, 2)), rng=RandomCoin(0))


#: Every exact-model strategy, as ``run(env, inst)``.
EXACT_MODEL = {
    "run_oblivious": lambda env, inst: run_oblivious(env),
    "simple_adaptive": lambda env, inst: simple_adaptive(env),
    "simple_adaptive_stable_sort": lambda env, inst: simple_adaptive_stable_sort(env),
    "vc_adaptive": lambda env, inst: vc_adaptive(env),
    "algorithm1": lambda env, inst: algorithm1(env, FIXED(F(1, 2)), rng=RandomCoin(0)),
    "algorithm2": lambda env, inst: algorithm2(env, HALF, rng=RandomCoin(0)),
    "advice_half": lambda env, inst: advice_half(env, AdviceOracle(inst)),
    "advice_lg3": lambda env, inst: advice_lg3(env, AdviceOracle(inst)),
}


@pytest.mark.parametrize("name", sorted(EXACT_MODEL))
def test_exact_model_strategies_refuse_a_refinement_environment(name):
    """Before any query: the driver checks the environment before the strategy starts."""
    inst = gen_random_scripted(3, 8, F(0))
    message = r"^this strategy runs on an Environment \(each query reveals a value\)$"
    env = CpcpEnvironment(inst)
    with pytest.raises(InvariantViolation, match=message):
        EXACT_MODEL[name](env, inst)
    assert env.transcript == []


def test_algorithm1_expected_lemma4():
    for d in (F(0), F(2), F(5)):
        a, b = gen_lemma4_pair(d)
        for inst in (a, b):
            e = expected_cost_exact(algorithm1, inst, FIXED(F(1, 2)))
            assert e == F(3, 2)
            _, opt = optimum_query_set(inst)
            assert opt == 1


def test_algorithm1_default_bias_is_a_fair_coin():
    for s in range(12):
        inst = gen_random(s, 12, F(0))
        for seed in range(3):
            default = algorithm1(Environment(inst), rng=RandomCoin(seed))
            assert default == algorithm1(Environment(inst), FIXED(F(1, 2)), rng=RandomCoin(seed)), (s, seed)


def test_algorithm1_deterministic_ends_consume_no_coin():
    a, _ = gen_lemma4_pair(F(0))
    for p in (F(0), F(1)):
        e = expected_cost_exact(algorithm1, a, FIXED(p))
        rep = algorithm1(Environment(a), FIXED(p), rng=None)  # no coin needed
        assert e == rep.total_cost


def test_no_2component_predicate():
    assert no_2component_after_preprocess(gen_lemma7_two_triangles())
    assert not no_2component_after_preprocess(gen_lemma4_pair(F(0))[0])
    assert residual_component_sizes(gen_lemma7_two_triangles()) == (5,)
    with pytest.raises(DeltaNotZero):
        residual_component_sizes(gen_lemma4_pair(F(1))[0])


# ---------------------------------------------------------------------------
# algorithm2 / algorithm3
# ---------------------------------------------------------------------------


def test_algorithm2_rejects_fixed_rule():
    with pytest.raises(InvariantViolation):
        algorithm2(Environment(fig1_instance("a")), FIXED(F(1, 2)), rng=RandomCoin(0))


def test_algorithm2_zero_cost_intervals_are_free_choices():
    inst = Instance(
        F(0), (interval(0, 10, 0), interval(4, 14, 3)), (F(7), F(12))
    )
    e = expected_cost_exact(algorithm2, inst, HALF)
    assert isinstance(e, F)
    _, opt = optimum_query_set(inst)
    assert opt > 0
    assert e / opt <= F(57, 32)


def test_algorithm3_requires_script_environment():
    with pytest.raises(InvariantViolation):
        algorithm3_cpcp(Environment(fig1_instance("a")))


def test_algorithm3_exact_embedding_within_two():
    rep = algorithm3_cpcp(CpcpEnvironment(fig1_instance("a")))
    assert rep.total_cost <= 4
    assert valid_permutation(fig1_instance("a"), None, rep.permutation)


def test_algorithm3_scripted_fuzz():
    from querysort import cpcp_brute_force_optimum

    for s in range(30):
        inst = gen_random_scripted(s, 4, (F(0), F(1))[s % 2], max_steps=3)
        rep = algorithm3_cpcp(CpcpEnvironment(inst))
        copt, _ = cpcp_brute_force_optimum(inst)
        if copt > 0:
            assert rep.total_cost / copt <= 2, (s, rep.total_cost, copt)
        else:
            assert rep.total_cost == 0
        assert valid_permutation(inst, None, rep.permutation)


# ---------------------------------------------------------------------------
# Advice
# ---------------------------------------------------------------------------


def test_advice_oracle_bit_accounting():
    inst = gen_independent_pairs(2)
    oracle = AdviceOracle(inst)
    oracle.ask_membership(1)
    assert oracle.bits_used == 1
    oracle.ask_excluded(frozenset({0, 1, 2}), 0)
    assert oracle.bits_used == 3  # ceil(log2(2 * 3))


def test_advice_half_requires_zero_threshold():
    inst = gen_lemma4_pair(F(1))[0]
    with pytest.raises(DeltaNotZero):
        advice_half(Environment(inst), AdviceOracle(inst))


def test_advice_half_boundary_tie_regression():
    # Boundary ties break the two-per-question pairing, so the bit bound
    # floor(n/2) genuinely needs values in generic position: here the
    # revealed 0 sits exactly on the big interval's endpoint, the pair is
    # resolved without a witness, and the strategy must ask again.  Cost
    # still equals the optimum; only the bit count exceeds the bound.
    inst = Instance(
        F(0),
        (interval(0, 10), interval(0, 6), interval(4, 9)),
        (F(7), F(0), F(5)),
    )
    rep = advice_half(Environment(inst), AdviceOracle(inst))
    bcost, _ = brute_force_optimum(inst)
    assert rep.total_cost == bcost == 3
    assert rep.advice_bits == 2 > inst.n // 2


def test_advice_half_generic_fuzz():
    for s in range(60):
        inst = gen_random(s, 2 + s % 8, F(0), value_model="generic")
        rep = advice_half(Environment(inst), AdviceOracle(inst))
        bcost, _ = brute_force_optimum(inst)
        assert rep.total_cost == bcost, (s, rep.total_cost, bcost)
        assert rep.advice_bits <= inst.n // 2, (s, rep.advice_bits)
        assert valid_permutation(inst, None, rep.permutation)


def test_advice_lg3_fuzz_any_threshold():
    for s in range(60):
        inst = gen_random(s, 2 + s % 8, (F(0), F(1), F(3, 2))[s % 3])
        rep = advice_lg3(Environment(inst), AdviceOracle(inst))
        bcost, _ = brute_force_optimum(inst)
        assert rep.total_cost == bcost, (s, rep.total_cost, bcost)
        # ceil(n/3 * lg 3) via integers: smallest b with 8^b >= 3^n
        n = inst.n
        bound = 0
        while 8**bound < 3**n:
            bound += 1
        assert rep.advice_bits <= bound, (s, rep.advice_bits, bound)
        assert valid_permutation(inst, None, rep.permutation)


def test_advice_lg3_single_edge_one_bit():
    a, _ = gen_lemma4_pair(F(0))
    rep = advice_lg3(Environment(a), AdviceOracle(a))
    assert rep.advice_bits == 1
    assert rep.advice_question_sizes == (2,)
    assert rep.total_cost == 1


def test_advice_oracle_never_enumerates(monkeypatch):
    """The oracle's optimum comes from `canonical_optimum`, not the 2^n scan."""
    def refuse(inst):
        raise AssertionError("brute_force_optimum called")

    monkeypatch.setattr(offline, "brute_force_optimum", refuse)
    assert not hasattr(online, "brute_force_optimum")
    for s in range(30):
        inst = gen_random(s, 2 + s % 8, F(0), value_model="generic")
        opt = optimum_query_set(inst)[1]
        for strategy in (advice_half, advice_lg3):
            assert strategy(Environment(inst), AdviceOracle(inst)).total_cost == opt, s


# ---------------------------------------------------------------------------
# Expected-cost evaluator
# ---------------------------------------------------------------------------


def test_expected_cost_deterministic_equals_run():
    inst = gen_laminar(11, 7)
    e = expected_cost_exact(algorithm1, inst, FIXED(F(1, 2)))
    rep = algorithm1(Environment(inst), FIXED(F(1, 2)), rng=RandomCoin(0))
    assert e == rep.total_cost


def fork(env):
    """An independent copy of ``env``: querying either one leaves the other unchanged."""
    twin = copy.copy(env)
    twin._lo, twin._hi, twin._queried = list(env._lo), list(env._hi), list(env._queried)
    twin.transcript = list(env.transcript)
    twin._graph = DependencyGraph(env.n, (), env._units, None, twin._lo, twin._hi)
    twin._graph.adj = [set(nbrs) for nbrs in env._graph.adj]
    return twin


def copy_state(state):
    """An independent copy of a strategy state: a tuple of containers of immutable values."""
    return tuple(map(copy.copy, state))


def count_flips(monkeypatch):
    """A list that gains the bias of each real flip `online._next_flip` returns from now on."""
    flips, next_flip = [], online._next_flip

    def counting(*args):
        step = next_flip(*args)
        if step is not None:
            flips.append(step[0])
        return step

    monkeypatch.setattr(online, "_next_flip", counting)
    return flips


def apply(env, op):
    """One step of a rollback script: a flush of either kind, or a query of an item not yet queried."""
    if op == "value":
        online._flush_value_witnesses(env)
    elif op == "static":
        online._preprocess_witnesses(env)
    elif not env.queried(op):
        env.query(op)


def view(env):
    """Everything a rollback restores, in forms that compare by value."""
    return (repr(env.state()), env.graph().edges, list(env.transcript), env._paid, env._flushed,
            list(env._lo), list(env._hi), list(env._queried))


def check_rollbacks(inst, seed):
    """Mark a random script's run at the start and at up to three later steps, then roll
    back to each mark, innermost first, taking a few new steps after each: the environment
    then equals a fresh one that took only the steps before that mark.  Returns the number
    of queries rolled back."""
    rng = random.Random(seed)
    ops = [rng.choice(("value", "static")) if rng.random() < 0.2 else rng.randrange(inst.n)
           for _ in range(rng.randint(0, 2 * inst.n))]
    cuts = {0, *rng.sample(range(len(ops) + 1), min(3, len(ops)))}
    env, marks, undone = Environment(inst), [], 0
    for k, op in enumerate([*ops, None]):
        if k in cuts:
            marks.append((k, (len(env.transcript), env._paid, env._flushed)))
        if op is not None:
            apply(env, op)
    for k, mark in reversed(marks):
        undone += len(env.transcript) - mark[0]
        env._rollback(mark)
        fresh = Environment(inst)
        for op in ops[:k]:
            apply(fresh, op)
        assert view(env) == view(fresh), (seed, k)
        for _ in range(rng.randint(0, 4)):  # the other side of a flip, undone by the next mark out
            apply(env, rng.randrange(inst.n))
    return undone


def test_rollback_matches_a_fresh_environment():
    """On `gen_random` draws at every threshold, crowded and generic, n from 2 to 30."""
    undone = 0
    for seed in range(90):
        delta, model = (F(0), F(1, 2), F(1))[seed % 3], ("uniform-in-interval", "generic")[seed % 2]
        undone += check_rollbacks(gen_random(seed, 2 + seed % 29, delta, value_model=model), seed)
    assert undone > 1000


def test_rollback_matches_a_fresh_environment_at_scale():
    """On a crowded `gen_random` draw at n = 500 and the sparse draw at n = 2 000."""
    from test_local_picks import sparse  # that module imports this one
    for inst in (gen_random(1, 500, F(1, 2)), sparse(2000, F(1, 2))):
        assert check_rollbacks(inst, 7) > inst.n // 4


def test_fork_is_independent():
    """Two query histories from one point, taken in turn on one environment with a rollback
    between them, stay apart: each side's transcript, spend and graph are its own."""
    inst = gen_random(5, 12, F(1, 2))
    env = Environment(inst)
    env.query(0)
    mark = (len(env.transcript), env._paid, env._flushed)
    live = env.graph()

    def check(queried):
        assert [entry[0] for entry in env.transcript] == list(queried)
        assert env.state().queried == tuple(int(i in queried) for i in range(inst.n))
        assert env.state().spent == sum(inst.costs[i] for i in queried)
        current = env.state().current
        assert env.graph().edges == build_graph(Instance(inst.delta, current, inst.values)).edges
        assert env.graph() is live and live.los is env._lo and live.his is env._hi
        assert [i for i in range(inst.n) if current[i] != inst.intervals[i]] == list(queried)

    for i in (3, 7):
        env.query(i)
    check((0, 3, 7))
    env._rollback(mark)
    check((0,))
    env.query(5)
    check((0, 5))


def test_fork_before_any_graph_read():
    """A mark taken before the graph is first read rolls the graph back to the instance's."""
    inst = gen_random(5, 12, F(1, 2))
    start = build_graph(inst)
    env = Environment(inst)
    mark = (len(env.transcript), env._paid, env._flushed)
    for i in start.active_vertices()[:3]:
        env.query(i)
    assert env.graph().edges != start.edges
    assert env.graph().edges == build_graph(Instance(inst.delta, env.state().current, inst.values)).edges
    env._rollback(mark)
    assert env.graph().edges == start.edges
    assert env.transcript == [] and env.state().spent == 0


def test_expected_cost_refuses_other_strategies_and_rules():
    inst = gen_lemma4_pair(F(0))[0]
    with pytest.raises(InvariantViolation, match=r"\.<lambda> is not a querysort strategy$"):
        expected_cost_exact(lambda env, rule, rng: algorithm1(env, rule, rng=rng), inst, FIXED(F(1, 2)))
    for ruleless in (simple_adaptive, run_oblivious):
        with pytest.raises(InvariantViolation, match=f"^{ruleless.__name__} takes no rule, got Fraction$"):
            expected_cost_exact(ruleless, inst, FIXED(F(1, 2)))
    with pytest.raises(InvariantViolation, match="^this strategy takes a fixed coin bias$"):
        expected_cost_exact(algorithm1, inst, None)


#: The oracles' own depth guard: neither walks a coin path with more real flips.
MAX_ORACLE_DEPTH = 20


class _Unscripted(Exception):
    pass


class _ScriptedCoin:
    def __init__(self, script):
        self.script = script
        self.flips = []

    def flip(self, p):
        if len(self.flips) >= len(self.script):
            raise _Unscripted()
        outcome = self.script[len(self.flips)]
        self.flips.append((outcome, p))
        return outcome


def _branch_probability(flips):
    lo = hi = F(1)
    for outcome, p in flips:
        p_lo, p_hi = p.enclosure(_ENCLOSURE_PRECISION) if isinstance(p, Sqrt3Prob) else (p, p)
        if outcome:
            lo *= p_lo
            hi *= p_hi
        else:
            lo *= 1 - p_hi
            hi *= 1 - p_lo
    return lo, hi


def replay_expected_cost(algorithm, inst, rule, *, leaves=None):
    """Fork at the first unscripted flip and rerun both sides from scratch.

    Appends each leaf's cost to ``leaves`` when a list is given.
    """
    stack = [()]
    e_lo = e_hi = F(0)
    while stack:
        script = stack.pop()
        coin = _ScriptedCoin(script)
        try:
            report = algorithm(Environment(inst), rule=rule, rng=coin)
        except _Unscripted:
            if len(script) >= MAX_ORACLE_DEPTH:
                raise TooManyBranches(f"more than 2^{MAX_ORACLE_DEPTH} coin branches")
            stack.append(script + (True,))
            stack.append(script + (False,))
            continue
        if leaves is not None:
            leaves.append(report.total_cost)
        p_lo, p_hi = _branch_probability(coin.flips)
        e_lo += p_lo * report.total_cost
        e_hi += p_hi * report.total_cost
    return e_lo if e_lo == e_hi else (e_lo, e_hi)


def stack_expected_cost(algorithm, inst, rule):
    """Walk the whole coin tree once: fork at each real flip, keep the ``True`` side
    on a stack and go on with the ``False`` side in place."""
    start, trial, _ = online._TRIALS[algorithm]
    env = Environment(inst)
    stack = [(env, start(env, rule), None, 0, F(1), F(1))]
    e_lo = e_hi = F(0)
    while stack:
        env, state, pending, depth, lo, hi = stack.pop()
        if pending is not None:
            pending(env)
            online._flush_value_witnesses(env)
        while (step := trial(env, rule, state)) is not None:
            p, heads, tails = step
            outcome = online._certain(p)
            if outcome is None:
                if depth >= MAX_ORACLE_DEPTH:
                    raise TooManyBranches(f"more than 2^{MAX_ORACLE_DEPTH} coin branches")
                p_lo, p_hi = p.enclosure(_ENCLOSURE_PRECISION) if isinstance(p, Sqrt3Prob) else (p, p)
                depth += 1
                stack.append((fork(env), copy_state(state), heads, depth, lo * p_lo, hi * p_hi))
                lo, hi = lo * (1 - p_hi), hi * (1 - p_lo)
                outcome = False
            (heads if outcome else tails)(env)
            online._flush_value_witnesses(env)
        spent = F(online._edgeless_paid(env, range(env.n)), env._scale)
        e_lo += lo * spent
        e_hi += hi * spent
    return e_lo if e_lo == e_hi else (e_lo, e_hi)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QuerysortError as exc:
        return repr(exc)


class ForkCounter:
    """Counts, while installed, the forks `stack_expected_cost` takes and the real flips
    `expected_cost_exact` walks: a walk that forked would take one fork at each."""

    def __init__(self, monkeypatch):
        self.forks = 0
        take_fork, next_flip = fork, online._next_flip

        def counting_fork(env):
            self.forks += 1
            return take_fork(env)

        def counting_flip(*args):
            step = next_flip(*args)
            self.forks += step is not None
            return step

        monkeypatch.setitem(globals(), "fork", counting_fork)
        monkeypatch.setattr(online, "_next_flip", counting_flip)


def never_called(algorithm):
    """A `functools.wraps` wrapper of ``algorithm`` that fails if it is called."""
    @functools.wraps(algorithm)
    def wrapper(*args, **kwargs):
        raise AssertionError(f"{algorithm.__name__} was called")

    return wrapper


#: The cost paths that branch most (algorithm1 refuses their non-uniform costs).
COST_PATHS = [gen_cost_path(n, F(1, 1000)) for n in (12, 16, 20)]

#: 48 random instances per threshold, n from 6 to 14, and the cost paths.
DIFFERENTIAL_INSTANCES = [
    gen_random(seed, 6 + seed % 9, delta)
    for delta in (F(0), F(1, 2), F(1))
    for seed in range(48)
] + COST_PATHS


@pytest.mark.parametrize(
    "algorithm, rule",
    [
        pytest.param(algorithm1, FIXED(F(1, 3)), id="algorithm1-rule0"),
        pytest.param(algorithm1, FIXED(F(1, 2)), id="algorithm1-rule1"),
        pytest.param(algorithm1, FIXED(F(1)), id="algorithm1-rule2"),
        pytest.param(algorithm2, HALF, id="algorithm2-rule3"),
        pytest.param(algorithm2, SQRT3, id="algorithm2-rule4"),
        pytest.param(algorithm1, FIXED(F(0)), id="algorithm1-fixed0"),
    ],
)
def test_expected_cost_matches_branch_replay(monkeypatch, algorithm, rule):
    counter = ForkCounter(monkeypatch)
    for k, inst in enumerate(DIFFERENTIAL_INSTANCES):
        leaves = []
        want = outcome(replay_expected_cost, algorithm, inst, rule, leaves=leaves)
        assert outcome(stack_expected_cost, algorithm, inst, rule) == want, k
        counter.forks = 0
        got = outcome(expected_cost_exact, never_called(algorithm), inst, rule)
        assert got == want, k
        if not isinstance(got, str):  # at most one fork per leaf after the first
            assert counter.forks <= len(leaves) - 1, k
            if inst in COST_PATHS:
                assert counter.forks <= inst.n, k


#: Crowded rational-cost instances: n from 10 to 14 on `gen_random`'s fixed span,
#: at both thresholds and under both value models that draw endpoint ties.
CROWDED_INSTANCES = [
    gen_random(seed, 10 + seed % 5, delta, cost_model="rational-range", value_model=model)
    for model in ("uniform-in-interval", "endpoint-biased")
    for delta in (F(0), F(1, 2))
    for seed in range(40)
]


@pytest.mark.parametrize("rule", [HALF, SQRT3], ids=["half", "sqrt3"])
def test_expected_cost_matches_stack_walk_on_crowded_instances(monkeypatch, rule):
    """Both ends of every enclosure agree exactly, and the split walk forks no more
    often than the walk that forks once per leaf after the first."""
    counter = ForkCounter(monkeypatch)
    for k, inst in enumerate(CROWDED_INSTANCES):
        counter.forks = 0
        want = outcome(stack_expected_cost, algorithm2, inst, rule)
        stack_forks, counter.forks = counter.forks, 0
        got = outcome(expected_cost_exact, algorithm2, inst, rule)
        assert got == want, k
        assert counter.forks <= stack_forks, k


def test_expected_cost_does_not_split_the_root():
    """Before `algorithm2`'s first flush, a value witness pending in one component
    is flushed at another component's first step, so the root stays whole."""
    inst = gen_random(2, 12, F(0), cost_model="rational-range")
    assert replay_expected_cost(algorithm2, inst, HALF) == F(337, 12)
    for rule in (HALF, SQRT3):
        assert expected_cost_exact(algorithm2, inst, rule) == replay_expected_cost(algorithm2, inst, rule)


def test_algorithm2_key_fixes_the_next_trial():
    """Equal keys must mean equal component walks: two states of one component
    that differ only in a residual weight flip different coins and get different
    keys.  (Inside one walk residuals stop changing at the first real flip.)"""
    start, trial, key = online._TRIALS[algorithm2]
    env = Environment(gen_cost_path(6, F(1, 100)))
    state = start(env, HALF)
    lighter = copy_state(state)
    lighter[0][0] //= 2  # residuals are cost units
    biases = [trial(fork(env), HALF, copy_state(s))[0] for s in (state, lighter)]
    assert biases == [F(1, 2), F(1, 4)]
    assert key(state, list(range(6))) != key(lighter, list(range(6)))


def test_expected_cost_on_independent_components():
    # 2^20 leaves, each pair walked once: a fair coin pays 3/2 per punishing pair
    assert expected_cost_exact(algorithm1, gen_independent_pairs(20), FIXED(F(1, 2))) == 30


def test_expected_cost_node_budget(monkeypatch):
    """21 independent single-edge components put 21 fair flips on every coin path.
    The replay oracle keeps its depth guard and refuses them; the split walk takes
    each pair's flip once, 21 flips in all, and pays 3/2 per pair.  Only a walk
    past the node budget is refused."""
    inst, fair = gen_independent_pairs(21), FIXED(F(1, 2))
    with pytest.raises(TooManyBranches) as err:
        replay_expected_cost(algorithm1, inst, fair)
    assert str(err.value) == "more than 2^20 coin branches"
    assert expected_cost_exact(algorithm1, inst, fair) == F(63, 2)
    monkeypatch.setattr(online, "_MAX_FLIPS_WALKED", 21)
    assert expected_cost_exact(algorithm1, inst, fair) == F(63, 2)
    monkeypatch.setattr(online, "_MAX_FLIPS_WALKED", 20)
    with pytest.raises(TooManyBranches) as err:
        expected_cost_exact(algorithm1, inst, fair)
    assert str(err.value) == "the coin tree has more than 20 real flips to walk"


def test_algorithm2_guarantees_at_scale():
    # the tight cost paths, far past the sizes of the acceptance criteria
    s_lo, s_hi = Sqrt3Prob(1, 1).enclosure(F(1, 10 ** 12))  # 1/sqrt(3)
    for n in (24, 40):
        inst = gen_cost_path(n, F(1, 1000))
        _, opt = optimum_query_set(inst)
        assert expected_cost_exact(algorithm2, inst, HALF) <= F(57, 32) * opt
    for n in (20, 40):
        inst = gen_cost_path(n, F(1, 1000))
        _, opt = optimum_query_set(inst)
        lo, hi = expected_cost_exact(algorithm2, inst, SQRT3)
        assert lo <= hi <= (1 + 4 * s_hi / 3) * opt
