"""Instance families, generators, and the canonical document format."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from querysort import (
    Environment,
    InvariantViolation,
    ParseError,
    QuerysortError,
    asteroid_expected_edges,
    asteroid_realization,
    brute_force_optimum,
    build_graph,
    deserialize,
    fig1_instance,
    gen_advice_triangles,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_figure3_chain,
    gen_independent_pairs,
    gen_laminar,
    gen_lemma4_pair,
    gen_lemma7_two_triangles,
    gen_nested_star,
    gen_random,
    gen_random_scripted,
    gen_triangle_chain,
    interval,
    is_chordal,
    optimum_query_set,
    scalar,
    serialize,
    simple_adaptive,
)
from querysort.core import Instance, UncertainInterval
from querysort.instances import _generic_position_ok


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------


def test_gen_random_deterministic():
    a = gen_random(42, 6, F(1), cost_model="rational-range", value_model="endpoint-biased")
    b = gen_random(42, 6, F(1), cost_model="rational-range", value_model="endpoint-biased")
    assert serialize(a) == serialize(b)
    c = gen_random(43, 6, F(1))
    assert serialize(a) != serialize(c)


def test_gen_random_model_aliases_and_rejection():
    # only the documented names: the short aliases are refused like any unknown model
    for cost_model in ("rational", "gaussian"):
        with pytest.raises(InvariantViolation, match=f"unknown model '{cost_model}'"):
            gen_random(5, 4, 0, cost_model=cost_model)
    for value_model in ("uniform", "endpoint", "worst-case"):
        with pytest.raises(InvariantViolation, match=f"unknown model '{value_model}'"):
            gen_random(5, 4, 0, value_model=value_model)
    with pytest.raises(InvariantViolation):
        gen_random(5, 0, 0)


def test_gen_random_generic_position():
    for s in range(25):
        d = (F(0), F(1), F(3, 2))[s % 3]
        inst = gen_random(s, 3 + s % 6, d, value_model="generic")
        for i, v in enumerate(inst.values):
            for j, other in enumerate(inst.intervals):
                if i != j:
                    assert v not in (
                        other.lo - d,
                        other.lo + d,
                        other.hi - d,
                        other.hi + d,
                    ), (s, i, j)
            for j, w in enumerate(inst.values):
                if i != j:
                    assert abs(v - w) != d, (s, i, j)


def fraction_gen_random(seed, n, delta, cost_model, value_model):
    """`gen_random` as first written, drawing on `Fraction`s: the reference
    for its integer draws, which must consume the RNG in the same order."""
    rng = random.Random(seed)
    ivs = []
    for _ in range(n):
        lo = F(rng.randint(0, 80), 2)
        width = F(rng.randint(0, 24), 2)
        cost = F(1) if cost_model == "uniform" else F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        ivs.append(UncertainInterval(lo, lo + width, cost))
    if value_model == "generic":
        ivs = [UncertainInterval(a.lo, a.hi + F(1, 2), a.cost) if a.is_point else a for a in ivs]

    def draw_values(denominator):
        out = []
        for itv in ivs:
            if value_model == "endpoint-biased":
                kind = rng.randint(1, 4)
                if kind <= 2:
                    out.append(itv.lo if kind == 1 else itv.hi)
                    continue
            if value_model == "generic":
                out.append(itv.lo + itv.width * F(rng.randint(1, denominator - 1), denominator))
            else:
                out.append(itv.lo + itv.width * F(rng.randint(0, denominator), denominator))
        return out

    denominator = 16
    values = draw_values(denominator)
    while value_model == "generic" and not _generic_position_ok(values, ivs, delta):
        denominator *= 2
        values = draw_values(denominator)
    return Instance(delta, tuple(ivs), tuple(values))


@pytest.mark.parametrize("cost_model", ["uniform", "rational-range"])
@pytest.mark.parametrize("value_model", ["uniform-in-interval", "endpoint-biased", "generic"])
def test_gen_random_matches_fraction_draws(cost_model, value_model):
    for seed in range(40):
        for n in (1, 5, 10, 12):
            for delta in (F(0), F(1, 2), F(1)):
                want = fraction_gen_random(seed, n, delta, cost_model, value_model)
                got = gen_random(seed, n, delta, cost_model, value_model)
                assert serialize(got) == serialize(want), (seed, n, delta)


def test_gen_random_scripted_structure():
    saw_script = saw_priced = False
    for s in range(20):
        inst = gen_random_scripted(s, 5, F(0), max_steps=4)
        assert inst.refinements is not None
        assert any(r is not None for r in inst.refinements)
        saw_script = True
        if inst.time_costs is not None and any(t is not None for t in inst.time_costs):
            saw_priced = True
        assert serialize(inst) == serialize(gen_random_scripted(s, 5, F(0), max_steps=4))
    assert saw_script and saw_priced
    with pytest.raises(InvariantViolation):
        gen_random_scripted(1, 3, 0, max_steps=0)


# ---------------------------------------------------------------------------
# Named families: structure and pinned optima
# ---------------------------------------------------------------------------


def test_lemma4_pair_structure():
    for d in (F(0), F(1), F(5)):
        a, b = gen_lemma4_pair(d)
        assert a.intervals == b.intervals
        assert a.n == 2
        g = build_graph(a)
        assert set(g.edges) == {(0, 1)}
        for inst in (a, b):
            cost, _ = brute_force_optimum(inst)
            assert cost == 1
        # each realization punishes a different fixed choice
        assert brute_force_optimum(a)[1][0] != brute_force_optimum(b)[1][0]


def test_lemma7_structure():
    for punish in ("lower", "upper"):
        inst = gen_lemma7_two_triangles(punish)
        assert inst.n == 5
        cost, _ = brute_force_optimum(inst)
        assert cost == 3
    with pytest.raises(InvariantViolation):
        gen_lemma7_two_triangles("sideways")


def test_triangle_chain_structure():
    for k in (1, 2):
        for punish in ("lower", "upper"):
            inst = gen_triangle_chain(k, punish)
            assert inst.n == 3 * k + 2
            cost, _ = brute_force_optimum(inst)
            assert cost == 2 * k + 1
    with pytest.raises(InvariantViolation):
        gen_triangle_chain(0)


def test_advice_triangles_structure():
    for m in (1, 2):
        batch = gen_advice_triangles(m, F(1))
        assert len(batch) == 3
        for inst in batch:
            assert inst.n == 3 * m
            cost, minimizers = brute_force_optimum(inst)
            assert cost == 2 * m
            assert len(minimizers) == 1  # unique optimum per realization
        # the three realizations exclude three different corners
        assert len({brute_force_optimum(i)[1][0] for i in batch}) == 3
    with pytest.raises(InvariantViolation):
        gen_advice_triangles(1, 0)
    with pytest.raises(InvariantViolation):
        gen_advice_triangles(0, 1)


def test_independent_pairs_structure():
    for m in (1, 3):
        inst = gen_independent_pairs(m)
        assert inst.n == 2 * m
        g = build_graph(inst)
        assert len(g.edges) == m
        assert all(b == a + 1 for a, b in g.edges)
        cost, _ = brute_force_optimum(inst)
        assert cost == m
    with pytest.raises(InvariantViolation):
        gen_independent_pairs(0)


def ref_gen_triangle_chain(k, punish="lower"):
    """`gen_triangle_chain` as it was written before the block tiling was shared."""
    if k < 1:
        raise InvariantViolation("need at least one triangle")
    if punish not in ("lower", "upper"):
        raise InvariantViolation("punish must be 'lower' or 'upper'")
    ivs, values = [], []
    for i in range(k):
        base = 30 * i
        ivs += [interval(base, base + 10), interval(base + 2, base + 12), interval(base + 4, base + 21)]
        values += [base + 1, base + 3, base + 13]
    base = 30 * k
    ivs += [interval(base, base + 10), interval(base + 2, base + 12)]
    values += [base + 5, base + 11] if punish == "lower" else [base + 1, base + 5]
    return Instance(F(0), tuple(ivs), tuple(scalar(v) for v in values))


def ref_gen_advice_triangles(m, delta):
    """`gen_advice_triangles` as it was written before the block tiling was shared."""
    if m < 1:
        raise InvariantViolation("need at least one triangle")
    d = scalar(delta)
    if d <= 0:
        raise InvariantViolation("this family needs a positive threshold")
    base = ((F(0), 6 * d), (F(4, 5) * d, F(36, 5) * d), (2 * d, 8 * d))
    (l1, r1), (l2, r2), (l3, r3) = base
    ivs = []
    for t in range(m):
        shift = 10 * d * t
        ivs += [interval(lo + shift, hi + shift) for lo, hi in base]
    out = []
    for pattern in ((r1, r2, r3), (l1, 4 * d, r3), (l1, l2, l3)):
        values = []
        for t in range(m):
            shift = 10 * d * t
            values += [v + shift for v in pattern]
        out.append(Instance(d, tuple(ivs), tuple(values)))
    return tuple(out)


def ref_gen_independent_pairs(m, delta=0):
    """`gen_independent_pairs` as it was written before the block tiling was shared."""
    if m < 1:
        raise InvariantViolation("need at least one pair")
    d = scalar(delta)
    a, _ = gen_lemma4_pair(d)
    span = a.intervals[1].hi + max(d, 1) + 6
    ivs, values = [], []
    for t in range(m):
        shift = span * t
        ivs += [interval(itv.lo + shift, itv.hi + shift) for itv in a.intervals]
        values += [v + shift for v in a.values]
    return Instance(d, tuple(ivs), tuple(values))


def ref_gen_figure3_chain(k):
    """`gen_figure3_chain` as it was written before the block tiling was shared."""
    if k < 1:
        raise InvariantViolation("need at least one block")
    ivs, values = [], []

    def connector(i):
        base = 40 * i
        ivs.extend([interval(base - 16, base - 1), interval(base - 14, base + 1)])
        values.extend([scalar(base - 8), scalar(base - 7)])

    gadget = ((0, 10), (2, 12), (4, 21), (13, 23), (15, 25))
    for i in range(k):
        connector(i)
        base = 40 * i
        ivs.extend(interval(lo + base, hi + base) for lo, hi in gadget)
        values.extend(scalar(v) + base for v in (1, 7, F(25, 2), 19, 24))
    connector(k)
    return Instance(F(0), tuple(ivs), tuple(values))


def ref_gen_cpcp_adversary(n, M):
    """`gen_cpcp_adversary` as it was written before the block tiling was shared."""
    if n < 1:
        raise InvariantViolation("need at least one pair")
    if M < 1:
        raise InvariantViolation("scripts need at least one step")
    ivs = [interval(3 * j, 3 * j + 4) for j in range(2 * n)]
    values = []
    for i in range(n - 1):
        values += [6 * i + F(13, 4), 6 * i + F(15, 4)]
    values += [scalar(6 * n) - F(5, 2), scalar(6 * n - 2)]
    refinements = [None] * (2 * n - 2)
    for j in (2 * n - 2, 2 * n - 1):
        itv = ivs[j]
        refinements.append(tuple(itv for _ in range(M - 1)) + (UncertainInterval(values[j], values[j], itv.cost),))
    return Instance(F(0), tuple(ivs), tuple(values), refinements=tuple(refinements))


def outcome(make, *args):
    """Each document ``make(*args)`` returns, or the refusal it raises."""
    try:
        made = make(*args)
    except InvariantViolation as exc:
        return ("refused", str(exc))
    return [serialize(inst) for inst in (made if isinstance(made, tuple) else (made,))]


@pytest.mark.parametrize("m", range(0, 9))
def test_tiled_families_match_their_references(m):
    """The five block-tiled families give the documents (or refusals) of their
    hand-written references, for every threshold, both ``punish`` variants and
    every stall length ``M`` of the refinement family up to 4."""
    for punish in ("lower", "upper"):
        assert outcome(gen_triangle_chain, m, punish) == outcome(ref_gen_triangle_chain, m, punish)
    for delta in (F(0), F(1, 2), F(1), F(3), F(7, 3)):
        assert outcome(gen_advice_triangles, m, delta) == outcome(ref_gen_advice_triangles, m, delta)
        assert outcome(gen_independent_pairs, m, delta) == outcome(ref_gen_independent_pairs, m, delta)
    assert outcome(gen_figure3_chain, m) == outcome(ref_gen_figure3_chain, m)
    for M in range(0, 5):
        assert outcome(gen_cpcp_adversary, m, M) == outcome(ref_gen_cpcp_adversary, m, M)


def test_figure3_chain_structure():
    from querysort import components

    for k in (1, 2):
        inst = gen_figure3_chain(k)
        assert inst.n == 7 * k + 2
        g = build_graph(inst)
        assert len(components(g)) == 1
        cost, _ = brute_force_optimum(inst)
        assert cost == 5 * k + 2
    with pytest.raises(InvariantViolation):
        gen_figure3_chain(0)


def test_laminar_structure():
    for s in range(15):
        inst = gen_laminar(s, 9)
        assert serialize(inst) == serialize(gen_laminar(s, 9))
        ivs = inst.intervals
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                a, b = ivs[i], ivs[j]
                overlap = a.lo < b.hi and b.lo < a.hi
                nested = (a.lo < b.lo and b.hi < a.hi) or (b.lo < a.lo and a.hi < b.hi)
                assert (not overlap) or nested, (s, i, j)
    assert gen_laminar(0, 6, depth=0).n == 6
    with pytest.raises(InvariantViolation):
        gen_laminar(0, 6, depth=-1)


def test_nested_star_structure():
    inst = gen_nested_star(5)
    assert inst.n == 5
    big = inst.intervals[-1]
    assert all(
        big.lo < small.lo and small.hi < big.hi for small in inst.intervals[:-1]
    )
    cost, minimizers = brute_force_optimum(inst)
    assert cost == 1 and minimizers[0] == frozenset({4})
    with pytest.raises(InvariantViolation):
        gen_nested_star(1)


def test_cost_path_structure():
    inst = gen_cost_path(6, F(1, 100))
    assert inst.n == 6
    assert inst.costs[0] == inst.costs[1] == 1
    assert all(c == F(1, 100) for c in inst.costs[2:])
    g = build_graph(inst)
    assert set(g.edges) == {(i, i + 1) for i in range(5)}  # a path
    with pytest.raises(InvariantViolation):
        gen_cost_path(5, F(1, 100))  # odd
    with pytest.raises(InvariantViolation):
        gen_cost_path(6, F(1, 2))  # eps too big
    with pytest.raises(InvariantViolation):
        gen_cost_path(6, 0)


def test_cpcp_adversary_structure():
    inst = gen_cpcp_adversary(2, 3)
    assert inst.n == 4
    assert inst.refinements is not None
    assert inst.refinements[0] is None and inst.refinements[1] is None
    assert len(inst.refinements[2]) == 3 and len(inst.refinements[3]) == 3
    assert inst.refinements[2][-1].is_point
    with pytest.raises(InvariantViolation):
        gen_cpcp_adversary(0, 3)
    with pytest.raises(InvariantViolation):
        gen_cpcp_adversary(1, 0)


def test_fig1_variants():
    a = fig1_instance("a")
    b = fig1_instance("b")
    assert a.intervals == b.intervals
    assert optimum_query_set(a) == (frozenset({0, 2}), F(2))
    assert optimum_query_set(b) == (frozenset({0}), F(1))
    with pytest.raises(InvariantViolation):
        fig1_instance("c")


def test_asteroid_realizations():
    for kind in ("fig5a", "fig5b"):
        for k in (2, 3):
            inst = asteroid_realization(kind, k, F(1), F(1, 2))
            g = build_graph(inst)
            assert set(g.edges) == asteroid_expected_edges(kind, k), (kind, k)
            assert is_chordal(g)
            assert inst.values is None
    with pytest.raises(InvariantViolation):
        asteroid_realization("fig5c", 2, F(1), F(1, 2))
    with pytest.raises(InvariantViolation):
        asteroid_realization("fig5a", 1, F(1), F(1, 2))
    with pytest.raises(InvariantViolation):
        asteroid_realization("fig5a", 2, F(1), F(1))  # eps must be < delta
    with pytest.raises(InvariantViolation):
        asteroid_realization("fig5a", 2, F(1), 0)


# ---------------------------------------------------------------------------
# Adversarial grid search
# ---------------------------------------------------------------------------


def adversarial_search(intervals, delta, value_grids, score, limit=200_000):
    """Grid search for the value assignment maximizing a score.

    Tries every combination from ``value_grids`` (one candidate list per
    interval), skipping assignments that fall outside their intervals, and
    returns the best score with a witnessing instance.  It confirms that a
    family's pinned realization is the worst case on its natural grid.
    """
    total = 1
    for g in value_grids:
        total *= max(1, len(g))
    if total > limit:
        raise InvariantViolation(f"value grid too large ({total} > {limit})")
    d = scalar(delta)
    best = F(-1)
    best_inst = None
    for combo in itertools.product(*value_grids):
        values = tuple(scalar(v) for v in combo)
        if any(not itv.contains(v) for itv, v in zip(intervals, values)):
            continue
        inst = Instance(d, tuple(intervals), values)
        s = score(inst)
        if s > best:
            best, best_inst = s, inst
    return best, best_inst


def test_adversarial_search_recovers_worst_case():
    a, _ = gen_lemma4_pair(F(0))
    ivs = a.intervals

    def score(inst):
        rep = simple_adaptive(Environment(inst))
        _, opt = optimum_query_set(inst)
        return rep.total_cost / opt

    grids = [
        [ivs[0].lo + F(i, 2) for i in range(21)],
        [ivs[1].lo + F(i, 2) for i in range(21)],
    ]
    best, witness = adversarial_search(ivs, F(0), grids, score)
    assert best == 2
    assert witness is not None and witness.intervals == ivs


def test_adversarial_search_grid_guard():
    a, _ = gen_lemma4_pair(F(0))
    big = [F(i, 8) for i in range(80)]
    with pytest.raises(InvariantViolation):
        adversarial_search(a.intervals, F(0), [big, big], lambda i: F(0), limit=1000)


# ---------------------------------------------------------------------------
# Canonical document format
# ---------------------------------------------------------------------------


def test_serialize_round_trips():
    fixtures = [
        gen_random(3, 5, F(3, 2), cost_model="rational-range"),
        gen_random_scripted(7, 4, F(0)),
        gen_cpcp_adversary(2, 4),
        asteroid_realization("fig5b", 3, F(2), F(1, 3)),  # no values
        Instance(F(0), fig1_instance("a").intervals),
    ]
    for inst in fixtures:
        text = serialize(inst)
        again = deserialize(text)
        assert again == inst
        assert serialize(again) == text  # byte-stable
        assert text.endswith("\n")


def test_deserialize_defaults_cost_to_one():
    text = (
        '{"schema": "1", "delta": "0", '
        '"intervals": [{"lo": "0", "hi": "2"}], "values": ["1"]}'
    )
    inst = deserialize(text)
    assert inst.intervals[0].cost == 1


def test_deserialize_rejections():
    good = serialize(fig1_instance("a"))
    with pytest.raises(ParseError) as exc:
        deserialize("{oops")
    assert exc.value.line == 1 and exc.value.column == 2
    with pytest.raises(InvariantViolation, match="root"):
        deserialize('["not", "an", "object"]')
    with pytest.raises(InvariantViolation, match="bare JSON number"):
        deserialize(good.replace('"delta": "0"', '"delta": 0'))
    with pytest.raises(InvariantViolation, match="unknown field"):
        deserialize(good.replace('"delta"', '"delta2"'))
    with pytest.raises(InvariantViolation, match="rational"):
        deserialize(good.replace('"delta": "0"', '"delta": "zero"'))
    with pytest.raises(InvariantViolation):
        deserialize(good.replace('"schema": "1"', '"schema": "99"'))
    with pytest.raises(InvariantViolation):
        deserialize('{"schema": "1", "delta": "0"}')  # intervals missing
    # wrong value count surfaces the model's own validation
    bad = (
        '{"schema": "1", "delta": "0", '
        '"intervals": [{"lo": "0", "hi": "2"}], "values": ["1", "1"]}'
    )
    with pytest.raises(InvariantViolation):
        deserialize(bad)


def test_deserialize_refuses_repeated_fields():
    pair = '"intervals": [{"lo": "0", "hi": "4", "cost": "1"}, {"lo": "2", "hi": "6", "cost": "1"}]'
    once = '{"schema": "1", "delta": "0", %s, "values": ["1", "5"]}' % pair
    assert deserialize(once).delta == 0
    # "last one wins" would read delta = 3: an instance with nothing to query
    with pytest.raises(InvariantViolation, match="repeated field 'delta'"):
        deserialize(once[:-1] + ', "delta": "3"}')
    with pytest.raises(InvariantViolation, match="repeated field 'lo'"):
        deserialize(once.replace('"hi": "4"', '"hi": "4", "lo": "3"'))


#: A scripted two-item document that loads; each case below breaks one thing in it.
GOOD_DOCUMENT = {
    "schema": "1",
    "delta": "0",
    "intervals": [{"lo": "0", "hi": "4", "cost": "1"}, {"lo": "2", "hi": "6", "cost": "1"}],
    "values": ["1", "5"],
    "refinements": [None, [{"lo": "4", "hi": "6"}, {"lo": "5", "hi": "5"}]],
    "time_costs": [None, ["1", "1/2"]],
}

_STEP = {"lo": "4", "hi": "6"}

#: ``(fields replaced in GOOD_DOCUMENT, or the whole text; exception; its exact message)``.
#: A field set to ``...`` is left out.  Cases with two faults pin the order of the checks.
DOCUMENT_REFUSALS = [
    ("{oops", ParseError, "Expecting property name enclosed in double quotes (line 1, column 2)"),
    ('["not", "an", "object"]', InvariantViolation, "document root must be an object"),
    ({"delta": 0}, InvariantViolation, "bare JSON number '0': all numbers must be exact-rational strings"),
    ('{"schema": "1", "schema": "1"}', InvariantViolation, "repeated field 'schema'"),
    ({"extra": "1"}, InvariantViolation, "unknown field(s) in document: ['extra']"),
    ({"schema": "2"}, InvariantViolation, "unsupported schema '2'"),
    ({"schema": ...}, InvariantViolation, "unsupported schema None"),
    ({"delta": ...}, InvariantViolation, "document needs 'delta' and 'intervals'"),
    ({"intervals": ...}, InvariantViolation, "document needs 'delta' and 'intervals'"),
    ({"delta": None}, InvariantViolation, "delta must be a rational string, got None"),
    ({"delta": "1/0"}, InvariantViolation, "delta is not a valid rational: '1/0'"),
    ({"intervals": []}, InvariantViolation, "'intervals' must be a non-empty array"),
    ({"intervals": {"lo": "0"}}, InvariantViolation, "'intervals' must be a non-empty array"),
    ({"intervals": ["0"]}, InvariantViolation, "interval 0 must be an object"),
    ({"intervals": [{"lo": "0", "hi": "1", "w": "1"}]}, InvariantViolation,
     "unknown field(s) in interval 0: ['w']"),
    ({"intervals": [{"lo": "0"}]}, InvariantViolation, "interval 0 needs 'lo' and 'hi'"),
    ({"intervals": [{"lo": "a", "hi": "1"}]}, InvariantViolation, "interval 0 lo is not a valid rational: 'a'"),
    ({"intervals": [{"lo": "0", "hi": None}]}, InvariantViolation, "interval 0 hi must be a rational string, got None"),
    ({"intervals": [{"lo": "0", "hi": "1", "cost": "x"}]}, InvariantViolation,
     "interval 0 cost is not a valid rational: 'x'"),
    ({"intervals": [{"lo": "3", "hi": "1"}], "values": "x"}, InvariantViolation, "empty interval: lo=3 > hi=1"),
    ({"values": "1"}, InvariantViolation, "'values' must list one value per interval"),
    ({"values": ["1"]}, InvariantViolation, "'values' must list one value per interval"),
    ({"values": ["1", None]}, InvariantViolation, "value 1 must be a rational string, got None"),
    ({"values": ["1", "5/0"]}, InvariantViolation, "value 1 is not a valid rational: '5/0'"),
    ({"values": ["x"], "refinements": "x"}, InvariantViolation, "'values' must list one value per interval"),
    ({"refinements": {}}, InvariantViolation, "'refinements' must list one entry per interval"),
    ({"refinements": [None, None, None]}, InvariantViolation, "'refinements' must list one entry per interval"),
    ({"refinements": [None, []]}, InvariantViolation, "refinement script 1 must be a non-empty array"),
    ({"refinements": [_STEP, None]}, InvariantViolation, "refinement script 0 must be a non-empty array"),
    ({"refinements": [None, [_STEP, "x"]]}, InvariantViolation, "refinement 1[1] must be an object"),
    ({"refinements": [None, [{"lo": "4", "hi": "6", "cost": "1"}]]}, InvariantViolation,
     "unknown field(s) in refinement 1[0]: ['cost']"),
    ({"refinements": [None, [{"hi": "6"}]]}, InvariantViolation, "refinement 1[0] needs 'lo' and 'hi'"),
    ({"refinements": [None, [{"lo": "y", "hi": "6"}]]}, InvariantViolation,
     "refinement 1[0] lo is not a valid rational: 'y'"),
    ({"refinements": [None, [{"lo": "4", "hi": ["6"]}]]}, InvariantViolation,
     "refinement 1[0] hi must be a rational string, got ['6']"),
    ({"refinements": [[], "x"], "time_costs": "x"}, InvariantViolation, "refinement script 0 must be a non-empty array"),
    ({"time_costs": "1"}, InvariantViolation, "'time_costs' must list one entry per interval"),
    ({"time_costs": [None]}, InvariantViolation, "'time_costs' must list one entry per interval"),
    ({"time_costs": [None, "1"]}, InvariantViolation, "time_costs 1 must be an array or null"),
    ({"time_costs": [None, ["1", None]]}, InvariantViolation, "time_costs 1[1] must be a rational string, got None"),
    ({"time_costs": [None, ["1", "1/2/3"]]}, InvariantViolation, "time_costs 1[1] is not a valid rational: '1/2/3'"),
    ({"time_costs": [[], None]}, InvariantViolation, "item 0 has time costs but no refinement script"),
]


def malformed_document(change):
    if isinstance(change, str):
        return change
    doc = {**GOOD_DOCUMENT, **change}
    return json.dumps({key: value for key, value in doc.items() if value is not ...})


def test_the_good_document_loads():
    inst = deserialize(json.dumps(GOOD_DOCUMENT))
    assert inst.n == 2 and inst.time_costs == (None, (F(1), F(1, 2)))


@pytest.mark.parametrize("change, error, message", DOCUMENT_REFUSALS,
                         ids=[str(k) for k in range(len(DOCUMENT_REFUSALS))])
def test_deserialize_refusal_messages(change, error, message):
    with pytest.raises(QuerysortError) as exc:
        deserialize(malformed_document(change))
    assert type(exc.value) is error
    assert str(exc.value) == message
