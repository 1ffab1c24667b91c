"""The premises behind branches the program does not have, checked at scale.

Each section names a branch that no input can take, so the program leaves it
out, and checks the fact that rules it out on runs and families well past
n = 10:

* `advice_half` remembers no 'no' answer: an item answered 'no' is inactive
  at every later question, so a memory of them would never be read.  Its
  play equals `ref_advice_half`, which keeps that memory.
* `_algorithm2_trial` takes its trial window at the start of the spine:
  `ref_algorithm2_trial`, which slides the window past a ``b`` with no
  neighbour but ``c``, never slides, and its runs and exact expectations
  equal the program's.
* `_algorithm2_start` copies no residuals for a component walk: no trial
  writes them after the first real flip, since no triangle is left then and
  queries only delete edges.  Every later flip sees the first flip's.
* `build_permutation` has no cycle guard: its forced relation orders items
  by ``lo + hi``, so it is acyclic and the schedule takes every item.
* `build_permutation` decides each unordered pair once and has no branch for
  a pair that neither test orders: `require_independent` rules it out.  Its
  orders equal `ref_build_permutation`'s, the Kahn schedule over every
  ordered pair that it replaced.  That order is one rule, `ready_order`,
  which an O(n log n) ordering can keep.
* `gen_advice_triangles` checks no layout: its block is the threshold times
  a constant block whose inequalities hold.
* `ratio` has no infinite ratio: every `ratio` family prices every item (and
  every script step) above 0, so a zero optimum means no pair is dependent,
  and then every strategy and every coin-tree leaf spends 0; the row's ratio
  is 1.
* `ratio` has no empty table: `_family_rows` refuses ``--trials`` below 1 and
  every family gives at least one row, so the maximum and the mean are taken
  over at least one ratio.
* `advice_lg3` does not check that its group is a clique.  The first-ending
  active interval ``x`` has neighbours ``u`` and ``w``; each ends no earlier
  than ``x`` and starts before ``x.hi - δ``, so ``u.hi - w.lo > δ`` and
  ``w.hi - u.lo > δ``: ``u`` and ``w`` are dependent.  Its play equals
  `checked_advice_lg3`, which keeps the check.
"""

import csv
import inspect
from fractions import Fraction as F
from heapq import heappop, heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    FIXED,
    HALF,
    SQRT3,
    AdviceOracle,
    DeltaNotZero,
    Environment,
    Instance,
    Permutation,
    RandomCoin,
    UnresolvedDependency,
    advice_half,
    advice_lg3,
    algorithm2,
    build_permutation,
    expected_cost_exact,
    gen_advice_triangles,
    gen_cost_path,
    gen_figure3_chain,
    gen_independent_pairs,
    gen_laminar,
    gen_nested_star,
    gen_random,
    gen_triangle_chain,
    interval,
    optimum_query_set,
    simple_adaptive,
    vc_adaptive,
)
from querysort import cli, online
from querysort import instances as draws
from querysort.cli import main
from querysort.core import require_independent, to_grid
from test_grid_keys import at_zero, play, ref_advice_half
from test_local_picks import ref_algorithm2_trial, sparse
from test_sweep import instances, make_instance, wide_instances

# ---------------------------------------------------------------------------
# advice_half: an item answered 'no' is inactive for good
# ---------------------------------------------------------------------------


class WatchedOracle(AdviceOracle):
    """An oracle that checks, at every question, that each item it has answered
    'no' about has no edge left in ``env``'s graph."""

    def __init__(self, inst, env):
        super().__init__(inst)
        self.env, self.refused = env, []

    def ask_membership(self, j):
        g = self.env.graph()
        assert [u for u in self.refused if g.adj[u]] == []
        if super().ask_membership(j):
            return True
        self.refused.append(j)
        return False


def zero_threshold_cases():
    """Threshold-zero draws and the families the advice bounds are stated on."""
    yield "sparse-100", at_zero(sparse(100, F(0)))
    yield "sparse-300", at_zero(sparse(300, F(0)))
    for seed in range(4):
        yield f"random-{seed}", gen_random(seed, 60 + 40 * seed, 0, value_model="generic")
    yield "independent_pairs", gen_independent_pairs(150)
    yield "triangle_chain-lower", gen_triangle_chain(60)
    yield "triangle_chain-upper", gen_triangle_chain(60, "upper")
    yield "figure3_chain", gen_figure3_chain(30)
    yield "laminar", at_zero(gen_laminar(7, 200))
    yield "nested_star", at_zero(gen_nested_star(200))


@pytest.mark.parametrize("name, inst", list(zero_threshold_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_advice_half_needs_no_memory(name, inst):
    env = Environment(inst)
    oracle = WatchedOracle(inst, env)
    transcript, extras = play(inspect.unwrap(advice_half), env, oracle)
    assert [u for u in oracle.refused if env.graph().adj[u]] == []
    assert (transcript, extras) == play(ref_advice_half, Environment(inst), AdviceOracle(inst))
    assert env.graph().edges == frozenset()


def test_the_watch_sees_an_active_refused_item():
    """Self-test: an item answered 'no' and left active fails the watch."""
    inst = gen_independent_pairs(2)
    env = Environment(inst)
    oracle = WatchedOracle(inst, env)
    j = next(v for v in range(inst.n) if v not in oracle.optimum_set)
    assert not oracle.ask_membership(j)
    with pytest.raises(AssertionError):
        oracle.ask_membership(j ^ 1)


# ---------------------------------------------------------------------------
# algorithm2: the trial window never slides
# ---------------------------------------------------------------------------


def with_trial(monkeypatch, trial):
    """Make `algorithm2` and `expected_cost_exact` take their trials from ``trial``."""
    start, _, key = online._TRIALS[algorithm2]
    monkeypatch.setattr(online, "_algorithm2_trial", trial)
    monkeypatch.setitem(online._TRIALS, algorithm2, (start, trial, key))


ALGORITHM2_CASES = [
    ("sparse-400", sparse(400, F(1, 2)), (HALF, SQRT3)),
    ("sparse-200", sparse(200, F(1)), (HALF, SQRT3)),
    ("cost_path-150", gen_cost_path(150, F(1, 1000)), (HALF,)),
    ("random-40", gen_random(5, 40, F(1, 2), cost_model="rational-range"), (HALF, SQRT3)),
]


@pytest.mark.parametrize("name, inst, rules", ALGORITHM2_CASES, ids=[c[0] for c in ALGORITHM2_CASES])
def test_algorithm2_window_never_slides(monkeypatch, name, inst, rules):
    """Plays of three seeds (the transcript fixes the ordering, so none is ordered)
    and the exact expectation, per rule, with and without the slide.  The reference
    scans the vertex list in the trial's state, all vertices at the root and one
    component in each component's walk, where the other components keep their edges."""
    monkeypatch.setattr(online, "_finish", lambda env: tuple(env.transcript))

    def runs(rule):
        return [algorithm2(Environment(inst), rule, RandomCoin(seed)) for seed in range(3)]

    ours = {rule: (runs(rule), expected_cost_exact(algorithm2, inst, rule)) for rule in rules}
    slides = []
    with monkeypatch.context() as patch:
        with_trial(patch, lambda env, rule, state: ref_algorithm2_trial(env, rule, state[:2], slides, state[2]))
        sliding = {rule: (runs(rule), expected_cost_exact(algorithm2, inst, rule)) for rule in rules}
    assert slides == []
    assert ours == sliding


def test_the_sliding_reference_is_the_one_run(monkeypatch):
    """Self-test: with the reference patched in, every trial comes from it."""
    calls = []

    def trial(env, rule, state):
        calls.append(1)
        return ref_algorithm2_trial(env, rule, state[:2], None, state[2])

    with_trial(monkeypatch, trial)
    inst = gen_cost_path(8, F(1, 100))
    algorithm2(Environment(inst), HALF, RandomCoin(0))
    ran = len(calls)
    expected_cost_exact(algorithm2, inst, HALF)
    assert ran > 0 and len(calls) > ran


# ---------------------------------------------------------------------------
# algorithm2: no walk writes the residuals after the first real flip
# ---------------------------------------------------------------------------


#: Draws whose root subtracts triangles before its first real flip, and walks more flips after it.
RESIDUAL_CASES = [
    ("sparse-400", sparse(400, F(1, 2))),
    ("sparse-200", sparse(200, F(1))),
    ("sparse-100", sparse(100, F(2))),
    ("random-40", gen_random(2, 40, F(1), cost_model="rational-range")),
    ("random-20", gen_random(4, 20, F(1, 2), cost_model="rational-range")),
]


@pytest.mark.parametrize("inst", [c[1] for c in RESIDUAL_CASES], ids=[c[0] for c in RESIDUAL_CASES])
def test_residuals_stop_changing_at_the_first_real_flip(monkeypatch, inst):
    """Each component walk reads its parent's residuals, with no copy: at the first real
    flip no triangle is left, and queries only delete edges, so no trial subtracts again.
    Every later real flip and leaf, under either rule, sees the residuals of the first flip."""
    next_flip = online._next_flip

    def watched(env, rule, state, trial):
        step = next_flip(env, rule, state, trial)
        if first:
            later.append(list(state[0]))
        elif step is not None:
            first.append(list(state[0]))
        return step

    monkeypatch.setattr(online, "_next_flip", watched)
    for rule in (HALF, SQRT3):
        first, later = [], []
        expected_cost_exact(algorithm2, inst, rule)
        assert first[0] != list(inst.cost_grid[1]) and later
        assert all(now == first[0] for now in later)


# ---------------------------------------------------------------------------
# build_permutation: the forced relation is acyclic
# ---------------------------------------------------------------------------


def before(a, b, delta):
    """`build_permutation`'s forced relation: ``a`` certainly <= ``b`` + delta, and
    ``b`` possibly > ``a`` + delta."""
    return a.hi - b.lo <= delta and not (b.hi - a.lo <= delta)


def ref_build_permutation(items, delta):
    """`build_permutation` as a Kahn schedule over every ordered pair, each
    tested with `before`; ready items leave smallest ``(lo, index)`` first."""
    items = tuple(items)
    n = len(items)
    require_independent(items, delta)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and before(items[i], items[j], delta):
                succ[i].append(j)
                indeg[j] += 1
    ready = []
    for i in range(n):
        if indeg[i] == 0:
            heappush(ready, (items[i].lo, i))
    out = []
    while ready:
        _, i = heappop(ready)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, (items[j].lo, j))
    return Permutation(tuple(out))


def independent_family(inst):
    """The instance's intervals with its optimum revealed: no two are dependent."""
    chosen, _ = optimum_query_set(inst)
    return [interval(inst.values[i], inst.values[i]) if i in chosen else itv for i, itv in enumerate(inst.intervals)]


@settings(max_examples=25, deadline=None)
@given(st.one_of(instances(), wide_instances()))
def test_forced_order_follows_midpoints(inst):
    items, delta = independent_family(inst), inst.delta
    sums = [a.lo + a.hi for a in items]
    by_sum = sorted(range(len(items)), key=sums.__getitem__)
    for x, i in enumerate(by_sum):  # only a pair in ascending sum order may be forced forward
        for j in by_sum[:x + 1]:
            assert not before(items[i], items[j], delta) or sums[i] < sums[j]
    assert sorted(build_permutation(items, delta)) == list(range(len(items)))


def test_the_midpoint_check_sees_a_forced_pair():
    a, b = interval(0, 1), interval(3, 4)
    assert before(a, b, F(1)) and not before(b, a, F(1))


def final_state(inst, strategy=vc_adaptive):
    """The current intervals at the end of a ``strategy`` run on ``inst``."""
    env = Environment(inst)
    strategy(env)
    return env.state().current


def ordering_draws(delta):
    """63 `gen_random` draws over every value and cost model, and 63 sparse draws
    (starts over [0, 4n]), at ``delta``: n up to 31, and for the last seed n = 100 and
    n = 300."""
    for seed in range(63):
        n, m = (100, 300) if seed == 62 else (1 + seed * 37 % 31,) * 2
        yield gen_random(seed, n, delta, draws._COST_MODELS[seed % 2], draws._VALUE_MODELS[seed % 3])
        yield make_instance(seed, m, delta, 4 * m + 1)


@pytest.mark.parametrize("delta", [F(0), F(1, 2), F(1), F(3)], ids=str)
def test_each_pair_decided_once_gives_the_kahn_order(delta):
    """252 independent families per threshold, 1 008 in all: each draw with its
    optimum revealed, and each draw's final `vc_adaptive` state.  `ready_order`
    gives the same order."""
    families = 0
    for inst in ordering_draws(delta):
        for items in (independent_family(inst), final_state(inst)):
            ours = build_permutation(items, delta)
            assert ours == ref_build_permutation(items, delta), (inst.n, delta)
            assert ours.order == ready_order(items, delta), (inst.n, delta)
            families += 1
    assert families == 252


def ready_order(items, delta):
    """The Kahn order as one rule, in O(n log n) on grid ints: place the smallest ``(lo, index)``
    among the unplaced items whose ``hi - δ`` is at or below every other unplaced item's ``lo``.

    The unplaced items are a linked list in ``(lo, index)`` order, so its head has the smallest
    ``lo`` left.  Any other item is ready once its ``hi - δ`` reaches the head's ``lo``, which
    only grows, so ready items stay ready and a heap fed in ``hi - δ`` order holds them; the
    head is ready against the second ``lo``, and it is the smallest ``(lo, index)`` of all."""
    grid = to_grid(delta, items)
    los, his, d, n = grid.los, grid.his, grid.delta, len(items)
    by_lo = sorted(range(n), key=lambda i: (los[i], i))
    nxt, prv = dict(zip(by_lo, by_lo[1:] + [None])), dict(zip(by_lo, [None] + by_lo[:-1]))
    feed, fed, ready, placed, out = sorted((his[i] - d, i) for i in range(n)), 0, [], [False] * n, []
    head = by_lo[0] if by_lo else None
    while head is not None:
        while fed < n and feed[fed][0] <= los[head]:
            heappush(ready, (los[feed[fed][1]], feed[fed][1]))
            fed += 1
        if nxt[head] is None or his[head] - d <= los[nxt[head]]:
            i = head
        else:
            while placed[ready[0][1]]:
                heappop(ready)
            _, i = heappop(ready)
        placed[i] = True
        out.append(i)
        if prv[i] is None:
            head = nxt[i]
        else:
            nxt[prv[i]] = nxt[i]
        if nxt[i] is not None:
            prv[nxt[i]] = prv[i]
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(st.one_of(instances(), wide_instances()))
def test_the_kahn_order_is_the_ready_rule(inst):
    """`build_permutation`'s order on an independent family is `ready_order`'s, so a
    faster ordering can keep its ties: on the draw with its optimum revealed and on the
    final states of `vc_adaptive` and `simple_adaptive`, n up to 250."""
    for items in (independent_family(inst), final_state(inst), final_state(inst, simple_adaptive)):
        assert ready_order(items, inst.delta) == build_permutation(items, inst.delta).order


def test_the_ready_rule_sees_the_head_and_the_heap():
    """The head leaves first when it is ready against the second ``lo``.  Otherwise the
    smallest ``(lo, index)`` on the heap leaves, and the head leaves as soon as it is
    ready again, before a heap item that starts later."""
    wide = [interval(0, 9), interval(2, 2), interval(1, 1)]
    assert ready_order(wide, F(8)) == build_permutation(wide, F(8)).order == (0, 2, 1)
    assert ready_order(wide, F(7)) == build_permutation(wide, F(7)).order == (2, 0, 1)
    assert ready_order([], F(0)) == ()


def test_a_dependent_family_is_refused_in_the_same_words():
    """The draws' own intervals, where two or more of them are dependent."""
    refused = 0
    for inst in ordering_draws(F(1, 2)):
        if inst.pairs:
            with pytest.raises(UnresolvedDependency) as ours:
                build_permutation(inst.intervals, inst.delta)
            with pytest.raises(UnresolvedDependency) as ref:
                ref_build_permutation(inst.intervals, inst.delta)
            assert str(ours.value) == str(ref.value)
            refused += 1
    assert refused == 108


# ---------------------------------------------------------------------------
# gen_advice_triangles: the layout holds at every positive threshold
# ---------------------------------------------------------------------------


def test_advice_triangle_layout():
    """The block at ``d = 1``, where the layout inequalities hold; at any other
    ``d`` every endpoint and value is ``d`` times the one at 1.  All three
    realizations share the block."""
    unit = gen_advice_triangles(2, 1)
    assert unit[0].intervals == unit[1].intervals == unit[2].intervals
    (l1, r1), (l2, r2), (l3, r3) = [(a.lo, a.hi) for a in unit[0].intervals[:3]]
    d = 1
    assert l1 < l2 and l2 < l3 - d and r1 + d < r2 and r2 < r3
    assert l2 <= l1 + d and r2 >= r3 - d and r1 - l3 > 2 * d
    for scale in (F(1, 7), F(3, 2), F(40)):
        for ours, at_one in zip(gen_advice_triangles(2, scale), unit):
            assert ours.delta == scale * at_one.delta
            assert [(a.lo, a.hi) for a in ours.intervals] == [(scale * a.lo, scale * a.hi) for a in at_one.intervals]
            assert ours.values == tuple(scale * v for v in at_one.values)



# ---------------------------------------------------------------------------
# ratio: every row has a finite ratio, and every table a row
# ---------------------------------------------------------------------------


RATIO_FAMILIES = tuple(family for family in cli._FAMILIES if family != "asteroid")
RATIO_SIZES = (1, 12, 120, 300)
RATIO_DELTAS = ("0", "1/2", "1")


def family_options(family, size, scripted_pairs=3):
    """`ratio`'s size options for ``family`` at ``size``: that many items for random, laminar
    and nested_star (two trials each for the first two), a path of about that many for
    cost_path, ``size // 3`` blocks for figure3, triangle_chain and advice_triangles, and at
    most ``scripted_pairs`` pairs for cpcp, whose optimum is a brute force."""
    blocks = str(max(1, size // 3))
    return {
        "random": ["--n", str(size), "--trials", "2"],
        "laminar": ["--n", str(size), "--trials", "2"],
        "nested_star": ["--n", str(max(2, size))],
        "cost_path": ["--n", str(2 * max(1, size // 2))],
        "figure3": ["--k", blocks],
        "triangle_chain": ["--k", blocks],
        "advice_triangles": ["--n", blocks],
        "cpcp": ["--n", str(min(size, scripted_pairs)), "--M", "3"],
    }.get(family, [])


@pytest.mark.parametrize("family", RATIO_FAMILIES)
def test_every_ratio_family_prices_every_item_above_zero(family):
    """Each family at each size and threshold, with one trial (cpcp up to 300 pairs): at least
    one row, and in every row each item's cost and each script step's price is above 0."""
    for size in RATIO_SIZES:
        for delta in RATIO_DELTAS:
            argv = ["ratio", "simple", family, "--delta", delta, *family_options(family, size, size), "--trials", "1"]
            rows = cli._family_rows(cli._build_parser().parse_args(argv))
            assert rows, argv
            for *_, inst in rows:
                assert min(inst.costs) > 0, argv
                assert all(price > 0 for row in inst.time_costs or () if row for price in row), argv


def test_a_zero_optimum_ratio_row_spends_nothing(capsys):
    """Every strategy on every family, at each size and threshold, through `main`: each table
    printed has a row, and a row whose optimum is 0 costs 0.  A command that prints no table
    is refused in one line (such as `advice_half` off threshold zero)."""
    zero_rows = 0
    for strategy in cli._STRATEGIES:
        for family in RATIO_FAMILIES:
            for size in RATIO_SIZES:
                for delta in RATIO_DELTAS:
                    argv = ["ratio", strategy, family, "--delta", delta, *family_options(family, size)]
                    code = main(argv)
                    out, err = capsys.readouterr()
                    if code not in (0, 3):
                        assert out == "" and err.count("\n") == 1, argv
                        continue
                    rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
                    assert rows, argv
                    for row in rows:
                        assert F(row["opt"]) > 0 or F(row["cost"]) == 0, (argv, row)
                        zero_rows += F(row["opt"]) == 0
    assert zero_rows > 0  # the one-item random and laminar rows


def revealed(inst):
    """``inst`` with its optimum's items revealed as points: no two items are dependent."""
    return Instance(inst.delta, tuple(independent_family(inst)), inst.values)


@pytest.mark.parametrize("family", [f for f in RATIO_FAMILIES if f != "cpcp"])
def test_no_strategy_spends_where_no_pair_is_dependent(family):
    """The rows of each family with values, at 120 and 300 and each threshold, revealed: each
    of the nine strategies spends 0, as `ratio` reads it, and `alg2` under both rules."""
    for size in (120, 300):
        for delta in RATIO_DELTAS:
            argv = ["ratio", "simple", family, "--delta", delta, *family_options(family, size)]
            for *_, inst in cli._family_rows(cli._build_parser().parse_args(argv)):
                inst = revealed(inst)
                assert inst.pairs == ()
                for name in cli._STRATEGIES:
                    for rule in {"alg2": ("half", "sqrt3")}.get(name, (None,)):  # alg1 flips at 1/2
                        args = SimpleNamespace(algorithm=name, seed=0, rule=rule, bias=FIXED(F(1, 2)))
                        try:
                            spent = cli._expected_cost(inst, args)[:2]
                        except DeltaNotZero:
                            continue
                        assert spent == (0, 0), (argv, name, rule)


# ---------------------------------------------------------------------------
# advice_lg3: the first-ending vertex and its neighbours are a clique
# ---------------------------------------------------------------------------


def first_ending(g, w):
    return g.his[w], w


def checked_advice_lg3(env, oracle, key=first_ending):
    """`advice_lg3`'s play with the clique check it dropped: each round scans the active
    vertices for the smallest ``key`` (the first-ending one), and asserts that it and its
    neighbours are pairwise dependent."""
    known_out, g = set(), env.graph()
    while active := [v for v in range(env.n) if g.adj[v]]:
        x = min(active, key=lambda w: key(g, w))
        group = frozenset({x} | g.adj[x])
        assert all(w in g.adj[u] for u in group for w in group if u != w), x
        remembered = sorted(group & known_out)
        if remembered:
            y = remembered[0]
        else:
            y = oracle.ask_excluded(group, x)
            if y != x:
                known_out.add(y)
        online._query_all(sorted(group - {y}))(env)
        online._flush_value_witnesses(env)
    return dict(advice_bits=oracle.bits_used, advice_question_sizes=tuple(oracle.question_sizes))


def at(inst, delta):
    return Instance(delta, inst.intervals, inst.values)


def advice_lg3_cases(delta):
    """Random (dense and sparse), laminar, advice-triangle and figure-3 families at ``delta``,
    up to 300 items."""
    for seed in range(3):
        yield f"random-{seed}", gen_random(seed, 40 + 130 * seed, delta, value_model="generic")
    yield "sparse-300", sparse(300, delta)
    yield "laminar-250", at(gen_laminar(5, 250), delta)
    for corner, inst in enumerate(gen_advice_triangles(80, 1)):
        yield f"advice_triangles-80-p{corner + 1}", at(inst, delta)
    yield "figure3-30", at(gen_figure3_chain(30), delta)


@pytest.mark.parametrize("delta", [F(0), F(1, 2), F(1)], ids=str)
def test_advice_lg3_groups_are_cliques(delta):
    """The play equals `checked_advice_lg3`'s, whose check passes at every round."""
    queried = 0
    for name, inst in advice_lg3_cases(delta):
        ours = play(inspect.unwrap(advice_lg3), Environment(inst), AdviceOracle(inst))
        assert ours == play(checked_advice_lg3, Environment(inst), AdviceOracle(inst)), name
        queried += len(ours[0])
    assert queried >= 1000


def test_the_clique_check_flags_a_path():
    """Self-test: the middle of a three-item path has two neighbours that are independent."""
    inst = Instance(F(0), (interval(0, 10), interval(9, 20), interval(19, 30)), (F(5), F(15), F(25)))
    with pytest.raises(AssertionError):
        checked_advice_lg3(Environment(inst), AdviceOracle(inst), lambda g, w: (-len(g.adj[w]), w))
