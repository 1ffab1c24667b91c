"""Refusals that no other test reaches, each pinned by its type and exact message.

Every case calls one public entry with one fault.  The table keeps them in
module order: ``core``, ``graph``, ``offline``, ``online``, ``instances``.
"""

import json
from fractions import Fraction as F

import pytest

from querysort import (
    FIXED,
    HALF,
    AdviceOracle,
    CoTTFunctions,
    CpcpEnvironment,
    Environment,
    Instance,
    InvariantViolation,
    KnowledgeState,
    MissingRealization,
    NotChordal,
    Permutation,
    QuerysortError,
    RandomCoin,
    RunReport,
    ScriptExhausted,
    Sqrt3Prob,
    UncertainInterval,
    advice_half,
    advice_lg3,
    algorithm2,
    algorithm3_cpcp,
    asteroid_realization,
    brute_force_optimum,
    build_graph,
    build_permutation,
    cott_to_instance,
    dependent,
    deserialize,
    expected_cost_exact,
    feasible_query_set,
    find_triangle,
    gen_advice_triangles,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_figure3_chain,
    gen_independent_pairs,
    gen_laminar,
    gen_lemma4_pair,
    gen_nested_star,
    gen_random,
    gen_random_scripted,
    gen_triangle_chain,
    interval,
    is_trivial,
    isqrt_bounds,
    longest_path_caterpillar,
    min_cost_vertex_cover,
    oblivious_query_set,
    peo_min_right,
    scalar,
    serialize,
    simple_adaptive,
    singleton_witness_static,
    singleton_witness_value,
    valid_permutation,
    verify_peo,
)
from querysort.core import rational_text
from querysort.graph import DependencyGraph, component_of

ONE = (interval(0, 2),)
PAIR = Instance(F(0), (interval(0, 4), interval(0, 6)), (F(3), F(1)))
EDGE = DependencyGraph(2, [(0, 1)], (1, 1))
PATH = DependencyGraph(3, [(0, 1), (1, 2)], (1,) * 3)
COTT = CoTTFunctions((F(0), F(1), F(2)), (F(2), F(3), F(4)))
#: A 4-cycle with no endpoints: the cover falls back to a maximum cardinality search.
SQUARE = DependencyGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], (1,) * 4)
FIVE = gen_random(1, 5, 0)
APART = (interval(0, 1), interval(5, 6))
STATE = KnowledgeState(APART, (0, 0), 0)
POINT = UncertainInterval(F(1), F(1))
FLOAT = "floats are not allowed as scalars (got 0.5); pass an int, Fraction, or string like '5/2'"


def queried_at(env):
    """``env`` after a query of item 4, which a wrapped index would read."""
    env.query(4)
    return env

#: ``(call, exception, its exact message)``.
REFUSALS = [
    # core
    (lambda: isqrt_bounds(-1, F(1, 10)), InvariantViolation, "square root of a negative number requested"),
    # at m = 0, where a missing precision check returns instead of iterating for ever
    (lambda: isqrt_bounds(0, F(0)), InvariantViolation, "square root precision must be positive, got 0"),
    (lambda: isqrt_bounds(0, F(-1, 3)), InvariantViolation, "square root precision must be positive, got -1/3"),
    (lambda: isqrt_bounds(2.5, F(1, 10)), InvariantViolation, "square root argument 2.5 is not an int"),
    (lambda: isqrt_bounds("3", F(1, 10)), InvariantViolation, "square root argument '3' is not an int"),
    (lambda: isqrt_bounds(True, F(1, 10)), InvariantViolation, "square root argument True is not an int"),
    (lambda: ONE[0].collapse("x"), InvariantViolation, "not a rational number: 'x'"),
    (lambda: ONE[0].collapse(0.5), InvariantViolation, FLOAT),
    (lambda: ONE[0].collapse("5/2"), InvariantViolation, "value 5/2 lies outside [0, 2]"),
    (lambda: Instance(F(0), (interval(0, 1), (0, 1))), InvariantViolation,
     "intervals must be UncertainInterval, got tuple"),
    (lambda: Instance(F(0), ONE, (F(1),), (None, None)), InvariantViolation, "2 refinement scripts for 1 intervals"),
    (lambda: Instance(F(0), ONE, (F(1),), ((interval(1, 1),),), (None, None)), InvariantViolation,
     "2 time-cost rows for 1 intervals"),
    (lambda: Instance(F(0), ONE, (F(1),), ((),)), InvariantViolation, "item 0 has an empty refinement script"),
    (lambda: Instance(F(0), ONE, (F(1),), ((F(1),),)), InvariantViolation,
     "item 0 step 0: script entries must be intervals"),
    (lambda: Instance(F(0), ONE, None, ((interval(1, 1),),)), InvariantViolation,
     "item 0 has a refinement script but the instance has no values"),
    (lambda: Instance(F(0), ONE, (F(2),), ((interval(1, 1),),)), InvariantViolation,
     "item 0: script ends at 1 but the value is 2"),
    (lambda: Instance(F(0), 5), InvariantViolation, "intervals must be a sequence, got int"),
    (lambda: Instance(F(0), ONE, 5), InvariantViolation, "values must be a sequence, got int"),
    (lambda: Instance(F(0), ONE, (F(1),), 5), InvariantViolation, "refinements must be a sequence, got int"),
    (lambda: Instance(F(0), ONE, (F(1),), ((interval(1, 1),),), 5), InvariantViolation,
     "time_costs must be a sequence, got int"),
    (lambda: KnowledgeState(5, (), 0), InvariantViolation, "current must be a sequence, got int"),
    (lambda: KnowledgeState((), 5, 0), InvariantViolation, "queried must be a sequence, got int"),
    (lambda: KnowledgeState(ONE, (0, 0), 0), InvariantViolation, "queried counts do not match intervals"),
    (lambda: KnowledgeState(ONE, (-1,), 0), InvariantViolation, "negative query count"),
    (lambda: KnowledgeState(((0, 2),), (0,), 0), InvariantViolation,
     "current intervals must be UncertainInterval, got tuple"),
    (lambda: KnowledgeState(ONE, (0,), -1), InvariantViolation, "negative spend -1"),
    (lambda: KnowledgeState(ONE, (0.5,), 0), InvariantViolation, "query count 0.5 is not an int"),
    (lambda: KnowledgeState(ONE, (True,), 0), InvariantViolation, "query count True is not an int"),
    (lambda: Instance(F(-1), ONE), InvariantViolation, "negative threshold -1"),
    (lambda: build_permutation(5, 0), InvariantViolation, "items must be a sequence, got int"),
    (lambda: build_permutation([(0, 1)], 0), InvariantViolation, "items must be UncertainInterval, got tuple"),
    (lambda: build_permutation([ONE[0], None], 0), InvariantViolation, "items must be UncertainInterval, got NoneType"),
    (lambda: build_permutation("ab", 0), InvariantViolation, "items must be UncertainInterval, got str"),
    (lambda: build_permutation(APART, -10), InvariantViolation, "negative threshold -10"),
    (lambda: build_permutation(APART, 0.5), InvariantViolation, FLOAT),
    (lambda: dependent(*APART, -10), InvariantViolation, "negative threshold -10"),
    (lambda: dependent(*APART, 0.5), InvariantViolation, FLOAT),
    (lambda: is_trivial(ONE[0], -1), InvariantViolation, "negative threshold -1"),
    (lambda: is_trivial(ONE[0], 0.5), InvariantViolation, FLOAT),
    (lambda: singleton_witness_static(*APART, -10), InvariantViolation, "negative threshold -10"),
    (lambda: singleton_witness_static(*APART, 0.5), InvariantViolation, FLOAT),
    (lambda: singleton_witness_value(ONE[0], 1, -1), InvariantViolation, "negative threshold -1"),
    (lambda: singleton_witness_value(ONE[0], 1, 0.5), InvariantViolation, FLOAT),
    (lambda: singleton_witness_value(ONE[0], 0.5, 0), InvariantViolation, FLOAT),
    (lambda: valid_permutation(PAIR, (F(1),), (0, 1)), InvariantViolation, "1 values for 2 items"),
    (lambda: valid_permutation(PAIR, 5, (0, 1)), InvariantViolation, "values must be a sequence, got int"),
    (lambda: valid_permutation(PAIR, None, 5), InvariantViolation, "order must be a sequence, got int"),
    (lambda: Permutation((0.0, 1)), InvariantViolation, "order entry 0.0 is not an int"),
    (lambda: valid_permutation(PAIR, None, (True, 0)), InvariantViolation, "order entry True is not an int"),
    (lambda: valid_permutation(PAIR, None, (0, 1, 2)), InvariantViolation, "not a permutation of 0..1: (0, 1, 2)"),
    # graph
    (lambda: verify_peo(EDGE, (0, 0)), InvariantViolation, "order is not a permutation of the vertices"),
    (lambda: verify_peo(PATH, [0, True, 2]), InvariantViolation, "order entry True is not an int"),
    (lambda: verify_peo(PATH, [0, 1.0, 2]), InvariantViolation, "order entry 1.0 is not an int"),
    (lambda: verify_peo(PATH, [0, 1, "a"]), InvariantViolation, "order entry 'a' is not an int"),
    (lambda: peo_min_right(EDGE), InvariantViolation, "peo_min_right needs the underlying intervals"),
    (lambda: build_graph(STATE, -10), InvariantViolation, "negative threshold -10"),
    (lambda: build_graph(STATE, 0.5), InvariantViolation, FLOAT),
    (lambda: min_cost_vertex_cover(SQUARE), NotChordal, "graph has no perfect elimination ordering"),
    (lambda: longest_path_caterpillar(EDGE, []), InvariantViolation, "empty vertex set"),
    (lambda: CoTTFunctions((F(0),), (F(1), F(2))), InvariantViolation, "threshold/tolerance lists differ in length"),
    (lambda: cott_to_instance(COTT, [1]), InvariantViolation, "1 costs for 3 CoTT vertices"),
    (lambda: cott_to_instance(COTT, [1, 2, 3, 4]), InvariantViolation, "4 costs for 3 CoTT vertices"),
    (lambda: DependencyGraph(2, [(False, True)], (1, 1)), InvariantViolation, "edge entry False is not an int"),
    (lambda: DependencyGraph(2, [(0.0, 1)], (1, 1)), InvariantViolation, "edge entry 0.0 is not an int"),
    (lambda: DependencyGraph(2.0, [], (1, 1)), InvariantViolation, "vertex count 2.0 is not an int"),
    (lambda: DependencyGraph(2, [(0,)], [1, 1]), InvariantViolation, "bad edge (0,) for n=2"),
    (lambda: DependencyGraph(2, [(0, 1, 1)], [1, 1]), InvariantViolation, "bad edge (0, 1, 1) for n=2"),
    (lambda: DependencyGraph(2, [(0.5,)], [1, 1]), InvariantViolation, "edge entry 0.5 is not an int"),
    (lambda: DependencyGraph(2, [0], [1, 1]), InvariantViolation, "edge must be a sequence, got int"),
    (lambda: DependencyGraph(2, None, [1, 1]), InvariantViolation, "edges must be a sequence, got NoneType"),
    (lambda: DependencyGraph(2, [], None), InvariantViolation, "weights must be a sequence, got NoneType"),
    (lambda: DependencyGraph(2, [], (1, 1), None, (0,), (1, 2)), InvariantViolation, "los do not match vertex count"),
    (lambda: DependencyGraph(2, [], (1, 1), None, (0, 1), (1, 2, 3)), InvariantViolation,
     "his do not match vertex count"),
    (lambda: DependencyGraph(2, [], (1, 1), None, 5, (1, 2)), InvariantViolation, "los must be a sequence, got int"),
    (lambda: CoTTFunctions(1, 2), InvariantViolation, "a must be a sequence, got int"),
    (lambda: CoTTFunctions((F(0),), None), InvariantViolation, "b must be a sequence, got NoneType"),
    (lambda: component_of(PATH, True), InvariantViolation, "vertex True is not an int"),
    (lambda: component_of(PATH, 1.0), InvariantViolation, "vertex 1.0 is not an int"),
    (lambda: find_triangle(PATH, 0.5), InvariantViolation, "triangle search start 0.5 is not an int"),
    (lambda: longest_path_caterpillar(PATH, [0, 1.0, 2]), InvariantViolation, "vertex 1.0 is not an int"),
    (lambda: longest_path_caterpillar(PATH, [0, 1, 1.0, 2]), InvariantViolation, "vertex 1.0 is not an int"),
    # offline
    (lambda: brute_force_optimum(Instance(PAIR.delta, PAIR.intervals)), MissingRealization,
     "brute force needs the hidden values"),
    (lambda: oblivious_query_set(EDGE), InvariantViolation, "oblivious_query_set takes an Instance, got DependencyGraph"),
    (lambda: feasible_query_set(PAIR, None), InvariantViolation, "query_set must be a sequence, got NoneType"),
    # online
    (lambda: Sqrt3Prob(0, 1), InvariantViolation, "Sqrt3Prob needs positive parts"),
    (lambda: Sqrt3Prob(2, 1), InvariantViolation, "Sqrt3Prob must be < 1; use Fraction(1)"),
    (lambda: CpcpEnvironment(PAIR).step_cost(0, 1), ScriptExhausted, "item 0 has only 1 script steps"),
    (lambda: CpcpEnvironment(PAIR).step_cost(0, -1), InvariantViolation, "step index -1 is not an int at or above 0"),
    (lambda: CpcpEnvironment(PAIR).step_cost(0, True), InvariantViolation,
     "step index True is not an int at or above 0"),
    (lambda: CpcpEnvironment(PAIR).step_cost(-1, 0), InvariantViolation, "query index -1 names no item (n = 2)"),
    (lambda: Environment(FIVE).query(-1), InvariantViolation, "query index -1 names no item (n = 5)"),
    (lambda: Environment(FIVE).query(True), InvariantViolation, "query index True names no item (n = 5)"),
    (lambda: Environment(FIVE).query(5), InvariantViolation, "query index 5 names no item (n = 5)"),
    (lambda: Environment(FIVE).query(1.0), InvariantViolation, "query index 1.0 names no item (n = 5)"),
    (lambda: CpcpEnvironment(FIVE).query(-2), InvariantViolation, "query index -2 names no item (n = 5)"),
    (lambda: CpcpEnvironment(FIVE).query(False), InvariantViolation, "query index False names no item (n = 5)"),
    (lambda: queried_at(Environment(FIVE)).queried(-1), InvariantViolation, "query index -1 names no item (n = 5)"),
    (lambda: queried_at(Environment(FIVE)).queried(7), InvariantViolation, "query index 7 names no item (n = 5)"),
    (lambda: queried_at(Environment(FIVE)).queried(True), InvariantViolation,
     "query index True names no item (n = 5)"),
    (lambda: queried_at(CpcpEnvironment(FIVE)).times(-1), InvariantViolation, "query index -1 names no item (n = 5)"),
    (lambda: queried_at(CpcpEnvironment(FIVE)).exhausted(-1), InvariantViolation,
     "query index -1 names no item (n = 5)"),
    (lambda: RunReport((1,), F(1), Permutation((0,)), ()), InvariantViolation,
     "total cost 1 does not match transcript sum 0"),
    (lambda: RunReport((1,), F(1), Permutation((0,)), ((0, POINT, 1.0),)), InvariantViolation,
     FLOAT.replace("0.5", "1.0")),
    (lambda: RunReport((1,), F(1), Permutation((0,)), ((0, POINT, True),)), InvariantViolation,
     FLOAT.replace("0.5", "True")),
    (lambda: RunReport((1,), F(1), Permutation((0,)), ((0, POINT, "x"),)), InvariantViolation,
     "not a rational number: 'x'"),
    (lambda: RunReport((1,), 0.5, Permutation((0,)), ((0, POINT, F(1, 2)),)), InvariantViolation, FLOAT),
    (lambda: RunReport((-1,), F(0), Permutation((0,)), ()), InvariantViolation, "negative query count"),
    (lambda: RunReport((1.5,), F(0), Permutation((0,)), ()), InvariantViolation, "query count 1.5 is not an int"),
    (lambda: RunReport((True,), F(0), Permutation((0,)), ()), InvariantViolation, "query count True is not an int"),
    (lambda: RunReport((1,), F(-1), Permutation((0,)), ((0, POINT, F(-1)),)), InvariantViolation,
     "negative spend -1"),
    (lambda: RunReport(5, F(0), Permutation((0,)), ()), InvariantViolation, "queried must be a sequence, got int"),
    (lambda: RunReport((0,), F(0), Permutation((0,)), 5), InvariantViolation,
     "transcript must be a sequence, got int"),
    (lambda: algorithm2(Environment(gen_cost_path(4, F(1, 100))), HALF), InvariantViolation,
     "this run is randomized; pass rng=RandomCoin(seed)"),
    (lambda: expected_cost_exact([], PAIR, HALF), InvariantViolation, "list is not a querysort strategy"),
    (lambda: expected_cost_exact(10 ** 5000, PAIR, HALF), InvariantViolation, "int is not a querysort strategy"),
    (lambda: expected_cost_exact(simple_adaptive, PAIR, HALF), InvariantViolation,
     "simple_adaptive takes no rule, got HALF"),
    (lambda: algorithm3_cpcp(Environment(PAIR)), InvariantViolation,
     "this strategy runs on a CpcpEnvironment (scripts or embedded values)"),
    # instances
    (lambda: gen_random_scripted(0, 0, 0), InvariantViolation, "need at least one interval"),
    (lambda: gen_lemma4_pair(-1), InvariantViolation, "negative threshold -1"),
    (lambda: gen_triangle_chain(1, "middle"), InvariantViolation, "punish must be 'lower' or 'upper'"),
    (lambda: gen_laminar(0, 0), InvariantViolation, "need at least one interval"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS, ids=[str(k) for k in range(len(REFUSALS))])
def test_refusal_messages(call, error, message):
    with pytest.raises(QuerysortError) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_the_good_calls_pass():
    """Each fault above is the only one: the same calls without it succeed."""
    assert Instance(F(0), ONE, (F(1),), ((interval(1, 1),),), ((F(1),),)).n == 1
    assert Instance(F(0), ONE).n == 1 and Instance(F(0), ONE, (F(1),)).values == (1,)
    assert KnowledgeState(ONE, (0,), 0).n == 1 and KnowledgeState((), (), 0).n == 0
    assert valid_permutation(PAIR, (F(1), F(3)), (0, 1))
    assert valid_permutation(PAIR, None, (1, 0)) and Permutation((1, 0)).order == (1, 0)
    assert verify_peo(EDGE, (0, 1)) and longest_path_caterpillar(EDGE, [0, 1]) == (0, 1)
    assert verify_peo(PATH, [0, 1, 2]) and min_cost_vertex_cover(PATH) == (1,)
    assert cott_to_instance(COTT, [1, 2, 3]).costs == (1, 2, 3)
    assert DependencyGraph(2, [(0, 1)], (1, 1)).edges == {(0, 1)} and component_of(PATH, 1) == [0, 1, 2]
    assert DependencyGraph(2, iter([[0, 1]]), [1, 1], None, [0, 1], [2, 3]).edges == {(0, 1)}
    assert CoTTFunctions([0, 1], iter([2, 3])).b == (2, 3) and feasible_query_set(PAIR, [0, 1])
    assert ONE[0].collapse("1/2") == UncertainInterval(F(1, 2), F(1, 2)) and isqrt_bounds(3, F(1, 10))[0] < 2
    assert find_triangle(PATH, 0) is None and longest_path_caterpillar(PATH, [0, 1, 2]) == (0, 1, 2)
    assert CpcpEnvironment(PAIR).step_cost(0, 0) == CpcpEnvironment(PAIR).step_cost(1, 0) == 1
    for env in (Environment(FIVE), CpcpEnvironment(FIVE)):
        assert env.query(0) is not None and env.query(4) is not None
        assert [i for i, _, _ in env.transcript] == [0, 4]
    assert queried_at(Environment(FIVE)).queried(4) and not queried_at(Environment(FIVE)).queried(0)
    cpcp = queried_at(CpcpEnvironment(FIVE))
    assert (cpcp.times(4), cpcp.exhausted(4), cpcp.times(0), cpcp.exhausted(0)) == (1, True, 0, False)
    assert KnowledgeState(ONE, (1,), F(1, 2)).spent == F(1, 2) and Instance(0, ONE).delta == 0
    assert [p.order for p in (build_permutation(APART, 0), build_permutation(APART, F(1, 2)))] == [(0, 1)] * 2
    overlap = KnowledgeState((interval(0, 4), interval(1, 5)), (0, 0), 0)
    assert build_graph(STATE, 0).edges == set() and build_graph(overlap, "5/2").edges == {(0, 1)}
    assert not dependent(*APART, 0) and dependent(*overlap.current, F(5, 2)) and not dependent(*overlap.current, "3")
    assert is_trivial(ONE[0], 2) and not is_trivial(ONE[0], F(1, 2))
    assert singleton_witness_static(interval(0, 6), interval(2, 3), 1) and not singleton_witness_static(*APART, 0)
    assert singleton_witness_value(ONE[0], 1, F(1, 2)) and singleton_witness_value(ONE[0], "1", 0)
    assert oblivious_query_set(PAIR) == frozenset({0, 1})
    assert RunReport((1,), F(1), Permutation((0,)), ((0, POINT, F(1)),)).total_cost == 1
    assert RunReport((0,), F(0), Permutation((0,)), ()).total_cost == 0
    by_hand = RunReport([2], "3/2", Permutation((0,)), [(0, POINT, F(1, 2)), (0, POINT, 1)])
    assert (by_hand.queried, by_hand.total_cost) == ((2,), F(3, 2)) and type(by_hand.total_cost) is F
    assert Sqrt3Prob(1, 1).ratio == 1


#: Text whose numerator or denominator would pass 4 300 digits: a literal, then exponent forms,
#: the last of whose powers would take seconds to compute.
PAST_THE_DIGIT_LIMIT = ["1" * 5000, "1e5000", "1e-5000", "9e4300", "1e4300", "-2.5E+4300", "1e10000000"]


def with_field(field, text):
    """`PAIR`'s document with ``text`` as its threshold, as item 0's cost or as its last value."""
    doc = json.loads(serialize(PAIR))
    if field == "cost":
        doc["intervals"][0]["cost"] = text
    elif field == "values":
        doc["values"][-1] = text
    else:
        doc["delta"] = text
    return json.dumps(doc)


@pytest.mark.parametrize("text", PAST_THE_DIGIT_LIMIT, ids=lambda text: text[:12])
def test_numbers_past_the_digit_limit_are_refused(text):
    """Exponent forms past the limit are refused in the words of a too-long literal."""
    with pytest.raises(InvariantViolation) as exc:
        scalar(text)
    assert str(exc.value) == f"not a rational number: {text!r}"
    for field, where in (("delta", "delta"), ("cost", "interval 0 cost"), ("values", "value 1")):
        with pytest.raises(InvariantViolation) as exc:
            deserialize(with_field(field, text))
        assert str(exc.value) == f"{where} is not a valid rational: {text!r}"


def test_numbers_up_to_the_digit_limit_are_read():
    assert scalar("1e3") == 1000 and scalar("2.5e-1") == F(1, 4) and scalar(" -7E+2 ") == -700
    assert scalar("1e4299") == 10**4299 and scalar("1e-4299") == F(1, 10**4299)
    assert scalar("9" * 4300) == 10**4300 - 1 and scalar("0.5e4300") == 5 * 10**4299
    assert deserialize(with_field("cost", "2.5e-1")).costs[0] == F(1, 4)
    assert deserialize(with_field("delta", "1e3")).delta == 1000


#: A number of 5 001 digits, and its text as every refusal prints it.
HUGE = 10 ** 5000
HUGE_TEXT = rational_text(HUGE)
#: Constructors and rules that refuse a number past Python's int-to-text cap, in the words
#: they use for a small one.
HUGE_REFUSALS = [
    (lambda: interval(HUGE, 0), f"empty interval: lo={HUGE_TEXT} > hi=0"),
    (lambda: Instance(F(0), ONE, (F(HUGE),)), f"value {HUGE_TEXT} of item 0 lies outside [0, 2]"),
    (lambda: interval(0, 1, -HUGE), f"negative query cost -{HUGE_TEXT}"),
    (lambda: FIXED(HUGE), f"probability {HUGE_TEXT} outside [0, 1]"),
    (lambda: HALF(-HUGE, 1), f"rule weights must be non-negative, got -{HUGE_TEXT}, 1"),
    (lambda: Instance(F(-HUGE), ONE), f"negative threshold -{HUGE_TEXT}"),
    (lambda: KnowledgeState(ONE, (0,), -HUGE), f"negative spend -{HUGE_TEXT}"),
    (lambda: DependencyGraph(1, (), (-HUGE,)),
     f"vertex 0: weight must be a non-negative int or Fraction, got -{HUGE_TEXT}"),
    (lambda: Environment(FIVE).query(HUGE), f"query index {HUGE_TEXT} names no item (n = 5)"),
    (lambda: CpcpEnvironment(gen_cpcp_adversary(1, 2)).step_cost(0, -HUGE),
     f"step index -{HUGE_TEXT} is not an int at or above 0"),
]


@pytest.mark.parametrize("call, message", HUGE_REFUSALS, ids=[str(k) for k in range(len(HUGE_REFUSALS))])
def test_refusals_name_numbers_past_the_digit_cap(call, message):
    """Each number in a refusal is written by `rational_text`, so a 5 001-digit one is
    refused as an `InvariantViolation`, not a `ValueError` from the cap."""
    with pytest.raises(InvariantViolation) as exc:
        call()
    assert str(exc.value) == message


#: Every size parameter of a generator, by name, as a call that passes ``k`` to it alone.
SIZES = [
    ("n", lambda k: gen_random(0, k, 0)),
    ("n", lambda k: gen_random_scripted(0, k, 0)),
    ("max_steps", lambda k: gen_random_scripted(0, 2, 0, max_steps=k)),
    ("k", lambda k: gen_triangle_chain(k)),
    ("m", lambda k: gen_advice_triangles(k, 1)),
    ("m", lambda k: gen_independent_pairs(k)),
    ("k", lambda k: gen_figure3_chain(k)),
    ("n", lambda k: gen_laminar(0, k)),
    ("depth", lambda k: gen_laminar(0, 3, depth=k)),
    ("n", lambda k: gen_nested_star(k)),
    ("n", lambda k: gen_cost_path(k, F(1, 1000))),
    ("n", lambda k: gen_cpcp_adversary(k, 2)),
    ("M", lambda k: gen_cpcp_adversary(1, k)),
    ("k", lambda k: asteroid_realization("fig5a", k, 1, F(1, 2))),
]


@pytest.mark.parametrize("bad", [2.5, "3", True], ids=repr)
@pytest.mark.parametrize("name, make", SIZES, ids=[f"{k}-{name}" for k, (name, _) in enumerate(SIZES)])
def test_generator_sizes_must_be_ints(name, make, bad):
    """Each size goes through one integer rule before any comparison: a float, a string and
    a bool are refused by name, in the words of every other refused int."""
    with pytest.raises(InvariantViolation) as exc:
        make(bad)
    assert str(exc.value) == f"{name} {bad!r} is not an int"
    assert make(4)  # the fault is the only one: the same call with an int passes


def flips(seed):
    coin = RandomCoin(seed)
    return [coin.flip(F(1, 2)) for _ in range(16)]


#: Every seeded entry point, as a call that passes ``seed`` to it alone.
SEEDED = [
    ("gen_random", lambda seed: gen_random(seed, 3, 0)),
    ("gen_random_scripted", lambda seed: gen_random_scripted(seed, 3, 0)),
    ("gen_laminar", lambda seed: gen_laminar(seed, 3)),
    ("RandomCoin", flips),
]


@pytest.mark.parametrize("bad", [None, "3", 2.5, True, [1]], ids=repr)
@pytest.mark.parametrize("make", [make for _, make in SEEDED], ids=[name for name, _ in SEEDED])
def test_seeds_must_be_ints(make, bad):
    """A seed goes through the integer rule before `random.Random` sees it: no seed draws
    differently from call to call (``None``) or stands for another int (``"3"``, ``2.5``, ``True``)."""
    with pytest.raises(InvariantViolation) as exc:
        make(bad)
    assert str(exc.value) == f"seed {bad!r} is not an int"
    assert make(3) == make(3)  # the fault is the only one: the same call with an int passes, the same each time


#: A fair coin's first 20 flips at seed 7, heads as ``1``.
SEVEN_AT_A_HALF = "01101001111010000101"


def test_a_coin_reads_its_bias_through_fixed():
    """`RandomCoin.flip` decides on a rational bias that `FIXED` reads, or on a `Sqrt3Prob`:
    never on a float, a bool, or a number outside [0, 1]."""
    coin = RandomCoin(7)
    assert "".join("1" if coin.flip(F(1, 2)) else "0" for _ in range(20)) == SEVEN_AT_A_HALF
    coin = RandomCoin(7)
    assert "".join("1" if coin.flip("1/2") else "0" for _ in range(20)) == SEVEN_AT_A_HALF
    for bad, message in [(0.5, FLOAT), (True, "floats are not allowed as scalars (got True); pass an int, "
                                               "Fraction, or string like '5/2'"),
                         ("x", "not a rational number: 'x'"), (F(3, 2), "probability 3/2 outside [0, 1]"),
                         (2, "probability 2 outside [0, 1]")]:
        with pytest.raises(InvariantViolation) as exc:
            RandomCoin(7).flip(bad)
        assert str(exc.value) == message


@pytest.mark.parametrize("strategy", [advice_half, advice_lg3], ids=lambda s: s.__name__)
@pytest.mark.parametrize("oracle", [AdviceOracle(gen_random(4, 8, 0)), None, "yes"],
                         ids=["another instance", "None", "not an AdviceOracle"])
def test_advice_comes_from_the_instance_played(strategy, oracle):
    """An advice strategy refuses an oracle that does not answer about its own instance:
    another instance's oracle would spend past the optimum without a word."""
    inst = gen_random(3, 8, 0)
    with pytest.raises(InvariantViolation) as exc:
        strategy(Environment(inst), oracle)
    assert str(exc.value) == "the advice must come from an AdviceOracle of this environment's instance"
    equal = gen_random(3, 8, 0)  # an equal instance's oracle answers the same questions
    assert equal == inst and equal is not inst
    report = strategy(Environment(inst), AdviceOracle(equal))
    assert report.total_cost == AdviceOracle(inst).optimum_cost == 5
