"""What the program builds from numbers it has read before, against the
checked versions, which live only here.

`gen_random`'s draws, the narrowed intervals of `QueryEnvironment.state`,
`collapse`, and the one-step scripts of `Instance.steps` each rebuild an
`UncertainInterval` from numbers that passed its checks earlier.  Every
such interval must equal the checked constructor's, field for field and
type for type, at sizes up to n = 300: `UncertainInterval(...)` is the one
way to make one (`test_hygiene.py` holds the source to that), and these
tests pin what each rebuild makes.

An environment keeps its current intervals only as grid ends; `ref_narrow`,
which narrows `Fraction` intervals query by query as the environments once
did beside those ends, is the oracle for ``state()``.  `to_grid` reads
each `Fraction` once through ``as_integer_ratio()``; the
``.numerator``/``.denominator`` version it replaced is the oracle.
`Instance.steps` builds an unscripted item's step from the instance grid,
once per instance; `ref_refinement_steps`, the rule it replaced, is the oracle.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    CpcpEnvironment,
    Environment,
    Instance,
    InvariantViolation,
    MissingRealization,
    UncertainInterval,
    cpcp_brute_force_optimum,
    gen_cpcp_adversary,
    gen_random,
    gen_random_scripted,
    instances,
    interval,
)
from querysort import core
from querysort.core import Grid, on_grid, to_grid
from test_int_paths import FAMILIES, STRATEGIES, with_costs
from test_online import fork


def assert_checked(itv):
    """``itv`` is what the checked constructor builds from its fields, all `Fraction`s."""
    assert all(type(x) is F for x in (itv.lo, itv.hi, itv.cost)), itv
    again = UncertainInterval(itv.lo, itv.hi, itv.cost)  # raises on an unchecked flaw
    assert again == itv and hash(again) == hash(itv)


# ---------------------------------------------------------------------------
# Intervals rebuilt from checked numbers
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 300), st.sampled_from(instances._VALUE_MODELS),
       st.sampled_from(instances._COST_MODELS), st.sampled_from([F(0), F(1, 2), F(1)]))
def test_gen_random_draws_checked_intervals(seed, n, value_model, cost_model, delta):
    inst = gen_random(seed, n, delta, cost_model, value_model)
    for itv in inst.intervals:
        assert_checked(itv)
        assert itv.cost > 0 and itv.lo.denominator in (1, 2) and itv.hi.denominator in (1, 2)


def test_collapse_builds_the_checked_point():
    a = interval(1, 4, "3/2")
    for v in (1, F(5, 2), 4, "5/2", "4"):
        point = a.collapse(v)
        assert_checked(point)
        assert point == UncertainInterval(F(v), F(v), F(3, 2))
    for bad in (0, F(9, 2)):
        with pytest.raises(InvariantViolation, match=f"value {bad} lies outside"):
            a.collapse(bad)


@pytest.mark.parametrize("n", [12, 120])
@pytest.mark.parametrize("family, delta", [(family, delta) for family in ("random-uniform", "random-rational", "scripted")
                                           for delta in (F(0), F(1, 2))], ids=str)
def test_every_transcript_point_is_checked(family, delta, n):
    """For all nine strategies: every current interval and every reply of a run equals the
    checked constructor's, and an exact-model query leaves exactly the checked point of its
    value at its cost."""
    inst = FAMILIES[family](n, delta)
    for name, (run, needs_zero) in STRATEGIES.items():
        if needs_zero and inst.delta != 0:
            continue
        case = with_costs(inst, [F(5, 3)] * inst.n) if name == "algorithm1" else inst
        cpcp = name == "algorithm3_cpcp"
        env = (CpcpEnvironment if cpcp else Environment)(case)
        run(env, case)
        assert env.transcript, name
        for itv in env.state().current:
            assert_checked(itv)
        for i, answer, _ in env.transcript:
            if cpcp:
                assert_checked(answer)
            else:
                assert env.state().current[i] == UncertainInterval(answer, answer, case.intervals[i].cost), name


# ---------------------------------------------------------------------------
# Grid reads
# ---------------------------------------------------------------------------


def ref_to_grid(delta, intervals, values=None, extra=()):
    """`to_grid` as it read each `Fraction`'s ``numerator`` and ``denominator`` properties."""
    scale = lcm(delta.denominator, *{x.denominator for itv in (*intervals, *extra) for x in (itv.lo, itv.hi)},
                *{v.denominator for v in values or ()})
    return Grid(scale, delta.numerator * (scale // delta.denominator),
                tuple([itv.lo.numerator * (scale // itv.lo.denominator) for itv in intervals]),
                tuple([itv.hi.numerator * (scale // itv.hi.denominator) for itv in intervals]),
                None if values is None else tuple([v.numerator * (scale // v.denominator) for v in values]))


#: Rationals of either sign and zero, with small and large denominators mixed.
rationals = st.one_of(st.just(F(0)), st.integers(-50, 50).map(F),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12))
spans = st.tuples(rationals, rationals, st.fractions(min_value=0, max_value=100, max_denominator=97)).map(
    lambda t: UncertainInterval(min(t[:2]), max(t[:2]), t[2]))


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=0, max_value=50, max_denominator=10 ** 6), st.lists(spans, max_size=30),
       st.booleans(), st.lists(rationals, max_size=30), st.lists(spans, max_size=5))
def test_to_grid_matches_the_property_reads(delta, intervals, with_values, values, extra):
    values = values[:len(intervals)] + [F(0)] * (len(intervals) - len(values)) if with_values else None
    got = to_grid(delta, intervals, values, extra)
    assert got == ref_to_grid(delta, intervals, values, extra)
    assert all(type(x) is int for row in (got.los, got.his, got.values or ()) for x in row)
    assert all(type(row) is tuple for row in (got.los, got.his, got.values or ()))


# ---------------------------------------------------------------------------
# One-step refinement scripts
# ---------------------------------------------------------------------------


def ref_refinement_steps(inst, i):
    """Item ``i``'s refinement script and the price of each step: no script means one step
    to the value, made by the checked constructor; no time costs mean the flat cost."""
    script = inst.refinements[i] if inst.refinements is not None else None
    if script is None:
        if inst.values is None:
            raise MissingRealization(f"item {i} has neither a refinement script nor a value")
        script = (UncertainInterval(inst.values[i], inst.values[i], inst.intervals[i].cost),)
    prices = inst.time_costs[i] if inst.time_costs is not None else None
    return script, prices or (inst.intervals[i].cost,) * len(script)


def ref_scripts(inst):
    """`Instance.steps` as built for every item through `ref_refinement_steps`, with every
    end and price put on the grids by `on_grid`."""
    scale, cost_scale = inst.grid.scale, inst.cost_grid[0]
    for i, itv in enumerate(inst.intervals):
        yield tuple((e if e.cost == itv.cost else UncertainInterval(e.lo, e.hi, itv.cost),
                     on_grid(e.lo, scale), on_grid(e.hi, scale), price, on_grid(price, cost_scale))
                    for e, price in zip(*ref_refinement_steps(inst, i)))


def with_time_costs(inst, seed):
    """``inst`` with a random price, zero included, on every step of every script."""
    rng = random.Random(seed)
    costs = tuple(None if script is None else tuple(F(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in script)
                  for script in inst.refinements)
    return Instance(inst.delta, inst.intervals, inst.values, inst.refinements, costs)


#: Refinement-model instances at ``(seed, n, delta)``: every item unscripted, mixed, or stalling
#: (the stalling family keeps its own threshold, 0).
STEP_DRAWS = {
    "random-uniform": lambda seed, n, delta: gen_random(seed, n, delta, "uniform"),
    "random-rational": lambda seed, n, delta: gen_random(seed, n, delta, "rational-range"),
    "scripted": lambda seed, n, delta: gen_random_scripted(seed, n, delta),
    "scripted-timed": lambda seed, n, delta: with_time_costs(gen_random_scripted(seed, n, delta), seed),
    "cpcp-adversary": lambda seed, n, delta: gen_cpcp_adversary(max(1, n // 2), seed % 5 + 1),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 300), st.sampled_from(sorted(STEP_DRAWS)),
       st.sampled_from([F(0), F(1, 2), F(1)]))
def test_one_step_scripts_match_refinement_steps(seed, n, draw, delta):
    inst = STEP_DRAWS[draw](seed, n, delta)
    table = inst.steps
    assert table == CpcpEnvironment(inst)._scripts == tuple(ref_scripts(inst))
    for steps in table:
        for reply, lo, hi, price, units in steps:
            assert_checked(reply)
            assert type(lo) is type(hi) is type(units) is int and type(price) is F


def test_one_table_per_instance(monkeypatch):
    """Every environment on an instance, and its refinement optimum, read the one table
    `Instance.steps` builds; only scripted steps go through `on_grid`, three calls each."""
    calls = []
    original = core.on_grid

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "on_grid", counted)
    inst = gen_cpcp_adversary(6, 4)
    first, second = CpcpEnvironment(inst), CpcpEnvironment(inst)
    assert first._scripts is second._scripts is inst.steps
    assert cpcp_brute_force_optimum(inst) == (F(14), (1,) * 10 + (0, 4))
    assert len(calls) == 3 * 2 * 4  # two stalling scripts of four steps
    calls.clear()
    inst = gen_random_scripted(5, 30, 0)
    CpcpEnvironment(inst), CpcpEnvironment(inst)
    assert len(calls) == 3 * sum(len(script) for script in inst.refinements if script) == 147


def test_value_less_instance_still_raises_missing_realization():
    draw = gen_random(3, 8, F(1, 2))
    inst = Instance(draw.delta, draw.intervals)
    with pytest.raises(MissingRealization, match="item 0 has neither a refinement script nor a value"):
        CpcpEnvironment(inst)


# ---------------------------------------------------------------------------
# The Fraction view of an environment
# ---------------------------------------------------------------------------


def ref_narrow(env, current, i, answer):
    """Item ``i`` of ``current`` narrowed by a query that answered ``answer``: to the value's
    point at the item's cost in the exact model, to the script reply in the refinement model."""
    cost = env.instance.intervals[i].cost
    current[i] = answer if isinstance(env, CpcpEnvironment) else UncertainInterval(answer, answer, cost)


def check_state(env, current, counts, queried=None, spent=None):
    """``env.state()`` against the reference: the same intervals, an unqueried item's the
    instance's own object, and the same counts and spend.  Item ``queried``'s interval is
    built checked; without one, every interval is, and they match repr for repr.  The
    spend is ``spent`` when given, else the sum of the transcript's charges."""
    state = env.state()
    assert state.current == tuple(current)
    assert all(q or itv is start for itv, start, q in zip(state.current, env.instance.intervals, counts))
    for itv in state.current if queried is None else (state.current[queried],):
        assert_checked(itv)
    if queried is None:
        assert repr(state.current) == repr(tuple(current))
    assert state.queried == tuple(counts)
    if spent is None:
        spent = sum((charge for _, _, charge in env.transcript), start=F(0))
    assert state.spent == spent


def query_with_forks(env, rng):
    """Query random open items of ``env``, and of up to two forks taken mid-run, until none
    is left, checking the queried environment's state after every query and every
    environment's at the end.  Each environment keeps a running spend, which a fork
    copies and each query adds its charge to; the checks at the end sum the whole
    transcript.  Returns the number of queries."""
    live = [(env, list(env.instance.intervals), [0] * env.n, F(0))]
    ends, queries = [], 0
    check_state(*live[0][:3])
    while live:
        k = rng.randrange(len(live))
        e, current, counts, spent = live[k]
        done = e.exhausted if isinstance(e, CpcpEnvironment) else e.queried
        left = [i for i in range(e.n) if not done(i)]
        if not left:
            ends.append(live.pop(k))
            continue
        if len(live) + len(ends) < 3 and rng.random() < 2 / (len(left) + 1):
            twin = fork(e)
            check_state(twin, current, counts)
            live.append((twin, list(current), list(counts), spent))
        i = rng.choice(left)
        answer = e.query(i)
        counts[i] += 1
        spent += e.transcript[-1][2]
        live[k] = (e, current, counts, spent)
        ref_narrow(e, current, i, answer)
        check_state(e, current, counts, i, spent)
        queries += 1
    for e, current, counts, _ in ends:
        check_state(e, current, counts)
    return queries


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 300), st.sampled_from(sorted(STEP_DRAWS)),
       st.sampled_from([F(0), F(1, 2), F(1)]), st.sampled_from([Environment, CpcpEnvironment]))
def test_state_matches_the_narrowed_fraction_intervals(seed, n, draw, delta, make):
    """``state()`` after every query of a random run and of forks taken mid-run, in both
    query models, on scripted and unscripted instances, with and without time costs."""
    inst = STEP_DRAWS[draw](seed, n, delta)
    assert query_with_forks(make(inst), random.Random(seed)) >= inst.n
