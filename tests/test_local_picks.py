"""Flushes and picks that start from what the last queries changed, against
the whole-graph scans they replaced, which live only here.

A flush tests only the vertices queried since the last flush of its kind and
their neighbours (`online._flush`).  `algorithm2` keeps its zero-residual
vertices in a heap, and its smallest active vertex and smallest triangle
behind positions in its walk's vertex list; `algorithm1` keeps heaps of
single-edge components and of first-ending vertices, and `advice_lg3` shares
the second; `advice_half` resumes its triangle search and keeps its leaves in
a heap.  `components` and
`component_of` walk a stack.  Each is checked against the scan it replaced
at every step of whole runs up to n = 2 000 and on Hypothesis instances, and
`expected_cost_exact`, whose component walks start their picks afresh,
against the stack walk that never splits.  The last tests count the
whole-graph scans of each play, so that a scan per step fails it, and the
vertices each component walk visits, so that a walk that reaches past its
own component fails it, and the memory that isolated items add to a deep
coin path, so that a copy of the state per flip fails it.
"""

import gc
import random
import tracemalloc
from fractions import Fraction as F
from heapq import heappop, heappush
from itertools import combinations

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
    RandomCoin,
    UncertainInterval,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm2,
    algorithm3_cpcp,
    components,
    expected_cost_exact,
    gen_cost_path,
    gen_independent_pairs,
    gen_triangle_chain,
    longest_path_caterpillar,
    run_oblivious,
    simple_adaptive,
    simple_adaptive_stable_sort,
    vc_adaptive,
)
from querysort import graph, online
from querysort.graph import DependencyGraph, component_of
from test_grid_keys import at_zero, play, ref_advice_half, ref_advice_lg3, uniform
from test_online import count_flips, fork, outcome, stack_expected_cost
from test_sweep import instances, make_instance, wide_instances

any_instance = st.one_of(instances(scripted=True), wide_instances(scripted=True))

# ---------------------------------------------------------------------------
# The whole-graph references
# ---------------------------------------------------------------------------


def ref_components(g):
    seen, out = set(), []
    for start in range(g.n):
        if start not in seen:
            out.append(sorted(graph._bfs(g, start)[0]))
            seen.update(out[-1])
    return out


def ref_component_of(g, v):
    return sorted(graph._bfs(g, v)[0])


def ref_flush(env, static):
    """`online._flush` as it was: every flush starts from a scan of every active vertex."""
    lo, hi, d, adj = env._lo, env._hi, env._grid.delta, env.graph().adj
    if static:
        witnessed = lambda i: any(lo[i] + d < lo[j] and hi[i] > hi[j] + d for j in adj[i])
    else:
        witnessed = lambda i: any(lo[j] == hi[j] for j in adj[i])
    pending = [i for i in env.graph().active_vertices() if witnessed(i)]
    done = []
    while pending:
        i = heappop(pending)
        env.query(i)
        done.append(i)
        for k in {i} | adj[i]:
            if k not in pending and witnessed(k):
                heappush(pending, k)
    return done


def ref_algorithm1_trial(env, p, state):
    """`online._algorithm1_trial` as it was: components and active vertices scanned at every step."""
    while True:
        g = env.graph()
        if not any(g.adj):
            return None
        pairs = [c for c in ref_components(g) if len(c) == 2]
        if pairs:
            u, v = pairs[0]
            return p, online._query_pair(u, v), online._query_pair(v, u)
        first_ending = lambda w: (g.his[w], w)
        x = min(g.active_vertices(), key=first_ending)
        neighbors_x = sorted(g.adj[x])
        y = min(neighbors_x, key=first_ending)
        if len(neighbors_x) >= 2:
            z = min((w for w in neighbors_x if w != y), key=first_ending)
        else:
            z = min((w for w in g.adj[y] if w != x), key=first_ending)
        env.query(y)
        if g.has_edge(x, y) or g.has_edge(x, z):
            env.query(x)
            env.query(z)
        online._flush_value_witnesses(env)


def ref_algorithm2_trial(env, rule, state, slides=None, vertices=None):
    """`online._algorithm2_trial` as it was: zeros, triangles and the smallest
    active vertex scanned over all of ``vertices`` (ascending; every vertex when
    None) at every step, and the trial window slid down the spine past a ``b``
    whose only neighbour is ``c`` (each slide is added to ``slides`` when given)."""
    residual, frozen_paths = state
    while True:
        g = env.graph()
        active = [v for v in (range(g.n) if vertices is None else vertices) if g.adj[v]]
        if not active:
            return None
        zeros = [v for v in active if residual[v] == 0]
        if zeros:
            env.query(zeros[0])
            online._flush_value_witnesses(env)
            continue
        triangle = next(((i, a, b) for i in active for a, b in combinations(sorted(g.adj[i]), 2)
                         if i < a and g.has_edge(a, b)), None)
        if triangle is None:
            break
        take = min(residual[v] for v in triangle)
        for v in triangle:
            residual[v] -= take
    comp = ref_component_of(g, active[0])
    path = next((frozen_paths[v] for v in comp if v in frozen_paths), None)
    if path is None:
        path = longest_path_caterpillar(g, comp)
        for v in comp:
            frozen_paths[v] = path
    spine = [v for v in path if v in set(comp)]
    start = 0
    while True:
        window = spine[start:]
        b = window[1] if len(window) >= 2 else window[0]
        c = window[2] if len(window) >= 3 else None
        targets = sorted(g.adj[b] - ({c} if c is not None else set()))
        if targets:
            break
        start += 1
        if slides is not None:
            slides.append((b, c))
    return rule(sum((residual[u] for u in targets), start=F(0)), residual[b]), \
        online._query_all([b]), online._query_all(targets)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def sparse(n, delta, scripted=False):
    """A seeded instance at fixed mean degree: starts on the half-integer grid over
    [0, 4n], widths up to 12 and values on a 1/16 grid, so that few intervals
    contain another; a scripted one comes from `make_instance`."""
    if scripted:
        return make_instance(n, n, delta, n + 1, scripted)
    rng = random.Random(n)
    ivs, values = [], []
    for _ in range(n):
        lo, halves = F(rng.randint(0, 8 * n), 2), rng.randint(0, 24)
        ivs.append(UncertainInterval(lo, lo + F(halves, 2), F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))))
        values.append(lo + F(rng.randint(0, 8 * halves), 16))
    return Instance(delta, tuple(ivs), tuple(values))


def side_by_side(inst, copies):
    """``copies`` of ``inst``, each shifted past the last, so none depends on another."""
    shift = max(itv.hi for itv in inst.intervals) - min(itv.lo for itv in inst.intervals) + inst.delta + 1
    ivs, values = [], []
    for k in range(copies):
        ivs += [UncertainInterval(a.lo + k * shift, a.hi + k * shift, a.cost) for a in inst.intervals]
        values += [v + k * shift for v in inst.values]
    return Instance(inst.delta, tuple(ivs), tuple(values))


SIZES = [(60, F(1)), (500, F(1, 2)), (2000, F(0))]

# ---------------------------------------------------------------------------
# Flushes
# ---------------------------------------------------------------------------


def checking_flush(flushes):
    """`online._flush`, checked against `ref_flush` on a fork at every call; each
    call's kind is appended to ``flushes``."""
    flush = online._flush

    def checked(env, witness, static):
        want = ref_flush(fork(env), static)
        got = flush(env, witness, static)
        assert got == want
        flushes.append(static)
        return got

    return checked


@settings(max_examples=40, deadline=None)
@given(any_instance, st.booleans(), st.integers(0, 2 ** 32))
def test_seeded_flush_queries_what_a_full_scan_queries(inst, refine, seed):
    """Queries and flushes of either kind, in a random order, in both environments:
    value flushes after static ones, static ones after value ones only, and repeats."""
    rng = random.Random(seed)
    env = (CpcpEnvironment if refine else Environment)(inst)
    for _ in range(6):
        open_items = [i for i in range(inst.n) if not (env.exhausted(i) if refine else env.queried(i))]
        for i in rng.sample(open_items, min(len(open_items), rng.randint(0, 3))):
            env.query(i)
        static = rng.random() < 0.5
        want = ref_flush(fork(env), static)
        assert (online._preprocess_witnesses if static else online._flush_value_witnesses)(env) == want


#: Each play, without a final ordering, as ``play(env, inst)``: a `_TRIALS` start for a strategy
#: with no coin, and the coin-driven ones on `RandomCoin(0)`.
PLAYS = {
    "simple_adaptive": lambda env, inst: online._TRIALS[simple_adaptive][0](env, None),
    "simple_adaptive_stable_sort": lambda env, inst: online._TRIALS[simple_adaptive_stable_sort][0](env, None),
    "vc_adaptive": lambda env, inst: online._TRIALS[vc_adaptive][0](env, None),
    "run_oblivious": lambda env, inst: online._TRIALS[run_oblivious][0](env, None),
    "algorithm1": lambda env, inst: algorithm1(env, F(1, 2), RandomCoin(0)),
    "algorithm2": lambda env, inst: algorithm2(env, HALF, RandomCoin(0)),
    "algorithm3_cpcp": lambda env, inst: online._TRIALS[algorithm3_cpcp][0](env, None),
    "advice_lg3": lambda env, inst: online._TRIALS[advice_lg3][0](env, AdviceOracle(inst)),
    "advice_half": lambda env, inst: online._TRIALS[advice_half][0](env, AdviceOracle(inst)),
}


def run_play(name, inst):
    """The play ``name`` on ``inst`` (`_finish` patched away for the coin-driven
    ones), and its transcript."""
    env = (CpcpEnvironment if name == "algorithm3_cpcp" else Environment)(inst)
    PLAYS[name](env, inst)
    return env.transcript


def play_instance(name, n, delta):
    """The sparse instance a play runs on: unit costs at threshold 0 where the play needs them."""
    inst = sparse(n, delta, scripted=name == "algorithm3_cpcp")
    if name == "algorithm1":
        return uniform(inst)
    return at_zero(inst) if name == "simple_adaptive_stable_sort" else inst


@pytest.mark.parametrize("n, delta", SIZES)
@pytest.mark.parametrize("name", ["algorithm1", "algorithm2", "algorithm3_cpcp", "advice_lg3"])
def test_seeded_flushes_in_whole_runs(monkeypatch, name, n, delta):
    """Every flush of a whole run queries what a full scan would, on sparse instances."""
    flushes = []
    monkeypatch.setattr(online, "_finish", lambda env: None)
    monkeypatch.setattr(online, "_flush", checking_flush(flushes))
    run_play(name, play_instance(name, n, delta))
    assert len(flushes) >= n // 20  # the runs flush many times


@pytest.mark.parametrize("algorithm, rule, inst", [
    (algorithm1, FIXED(F(1, 2)), gen_triangle_chain(4)),
    (algorithm1, FIXED(F(1, 2)), side_by_side(gen_triangle_chain(2), 3)),
    (algorithm1, FIXED(F(1, 3)), gen_independent_pairs(6)),
    (algorithm2, HALF, side_by_side(gen_cost_path(8, F(1, 100)), 3)),
    (algorithm2, SQRT3, gen_cost_path(12, F(1, 1000))),
])
def test_seeded_flushes_inside_the_component_view(monkeypatch, algorithm, rule, inst):
    """`expected_cost_exact` flushes inside each component's walk, where the other
    components keep their edges: each flush still queries what a full scan of the
    live graph would."""
    flushes = []
    want = stack_expected_cost(algorithm, inst, rule)
    monkeypatch.setattr(online, "_flush", checking_flush(flushes))
    assert expected_cost_exact(algorithm, inst, rule) == want
    assert len(flushes) > 5


# ---------------------------------------------------------------------------
# Strategy picks, step by step
# ---------------------------------------------------------------------------


def lockstep(algorithm, inst, rule, seed):
    """Run ``algorithm``'s trials and the whole-graph references side by side on
    two environments, taking the same side of every flip: after every trial and
    every side, the transcripts (every zero, single-edge and first-ending pick
    queries) and the residual weights (every triangle pick subtracts) agree,
    and so do the coin biases.  Returns the number of trial steps."""
    start, trial, _ = online._TRIALS[algorithm]
    ref_trial = ref_algorithm1_trial if algorithm is algorithm1 else ref_algorithm2_trial
    env, ref = Environment(inst), Environment(inst)
    state, ref_state = start(env, rule), start(ref, rule)[:2]
    rng, steps = random.Random(seed), 0
    while True:
        step, want = trial(env, rule, state), ref_trial(ref, rule, ref_state)
        assert env.transcript == ref.transcript
        if algorithm is algorithm2:
            assert state[0] == ref_state[0]
        assert (step is None) == (want is None)
        if step is None:
            return steps
        assert step[0] == want[0]
        heads = online._certain(step[0])
        heads = rng.random() < 0.5 if heads is None else heads
        for side, e in ((step, env), (want, ref)):
            (side[1] if heads else side[2])(e)
            online._flush_value_witnesses(e)
        steps += 1


@pytest.mark.parametrize("n, delta", SIZES)
@pytest.mark.parametrize("algorithm, rule", [(algorithm1, F(1, 2)), (algorithm2, HALF), (algorithm2, SQRT3)])
def test_picks_match_the_scans_in_whole_runs(algorithm, rule, n, delta):
    inst = sparse(n, delta)
    if algorithm is algorithm1:
        inst = uniform(at_zero(inst))
    assert lockstep(algorithm, inst, rule, n) >= n // 40


@settings(max_examples=30, deadline=None)
@given(st.one_of(instances(), wide_instances()), st.integers(0, 2 ** 32))
def test_picks_match_the_scans_on_crowded_instances(inst, seed):
    for algorithm, rule, case in ((algorithm1, F(1, 2), uniform(inst)), (algorithm2, HALF, inst)):
        lockstep(algorithm, case, rule, seed)


@pytest.mark.parametrize("n, delta", SIZES)
def test_advice_lg3_first_ending_pick_at_scale(n, delta):
    inst = sparse(n, delta)
    ours = play(online._TRIALS[advice_lg3][0], Environment(inst), AdviceOracle(inst))
    assert ours == play(ref_advice_lg3, Environment(inst), AdviceOracle(inst))
    assert len(ours[0]) >= n // 4


@pytest.mark.parametrize("n", [n for n, _ in SIZES])
def test_advice_half_picks_match_the_scans_at_every_step(monkeypatch, n):
    """Every `find_triangle` call of the play returns the whole-graph search's triangle,
    and every step (each ends with a value flush) queries what the scanning play's step
    queries, with the same questions and answers."""
    inst = at_zero(sparse(n, F(0)))
    ends, triangles, find_triangle, flush = {}, [], online.find_triangle, online._flush_value_witnesses

    def checked(g, start=0):
        found = find_triangle(g, start)
        assert found == find_triangle(g)
        triangles.append(found)
        return found

    def recorded(env):
        ends.setdefault(id(env), []).append(len(env.transcript))
        return flush(env)

    monkeypatch.setattr(online, "find_triangle", checked)
    monkeypatch.setattr(online, "_flush_value_witnesses", recorded)
    env, ref = Environment(inst), Environment(inst)
    ours = online._TRIALS[advice_half][0](env, AdviceOracle(inst))
    assert ours == ref_advice_half(ref, AdviceOracle(inst))
    assert env.transcript == ref.transcript
    assert ends[id(env)] == ends[id(ref)] and len(ends[id(env)]) >= n // 10
    assert any(triangles) and None in triangles  # both kinds of step ran


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def check_components(g):
    assert components(g) == ref_components(g)
    for v in range(0, g.n, max(1, g.n // 50)):
        assert component_of(g, v) == ref_component_of(g, v)


@settings(max_examples=30, deadline=None)
@given(st.one_of(instances(), wide_instances()), st.integers(0, 2 ** 32))
def test_components_match_the_bfs_versions(inst, seed):
    rng = random.Random(seed)
    env = Environment(inst)
    for k, i in enumerate(rng.sample(range(inst.n), inst.n // 3)):
        if k % 10 == 0:
            check_components(env.graph())
        env.query(i)
    check_components(env.graph())


@pytest.mark.parametrize("n, delta", SIZES)
def test_components_match_the_bfs_versions_at_scale(n, delta):
    env = Environment(sparse(n, delta))
    check_components(env.graph())
    for i in random.Random(n).sample(range(n), n // 2):
        env.query(i)
    check_components(env.graph())


# ---------------------------------------------------------------------------
# Expectation over component walks
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.sampled_from([F(0), F(1, 2), F(1)]), st.sampled_from([2, 8]),
       st.integers(0, 2 ** 32))
def test_expected_cost_matches_the_stack_walk_on_crowded_instances(n, delta, span, seed):
    inst = make_instance(seed, n, delta, span)
    cases = [(algorithm2, HALF, inst), (algorithm2, SQRT3, inst), (algorithm1, FIXED(F(1, 2)), uniform(inst))]
    for algorithm, rule, case in cases:
        want = outcome(stack_expected_cost, algorithm, case, rule)
        assert outcome(expected_cost_exact, algorithm, case, rule) == want


@pytest.mark.parametrize("algorithm, rule, inst", [
    (algorithm2, HALF, side_by_side(gen_cost_path(8, F(1, 100)), 3)),
    (algorithm2, SQRT3, side_by_side(gen_cost_path(6, F(1, 1000)), 4)),
    (algorithm1, FIXED(F(1, 2)), side_by_side(gen_triangle_chain(2), 4)),
])
def test_each_component_walk_has_its_own_picks(algorithm, rule, inst):
    """After a flip, several components are left, each with its own trials.  Each
    component's walk reads its picks (heaps and positions) from its own vertex
    list, while the other components keep their edges; picks shared across those
    walks would drop or skip the other components' vertices there.
    (`algorithm2` has no active zero-residual vertex left by then: its root
    queries them all before the first flip, so the positions are what sharing
    would break.)"""
    assert expected_cost_exact(algorithm, inst, rule) == stack_expected_cost(algorithm, inst, rule)


# ---------------------------------------------------------------------------
# Scaling guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PLAYS))
def test_plays_scan_the_whole_graph_a_constant_number_of_times(monkeypatch, name):
    """At n = 2 000, every play scans its environment's whole graph
    (`active_vertices`, which a run's first flush of each kind also reads, and
    `components`) at most twice, and its triangle searches (`algorithm2`'s, and
    `advice_half`'s `find_triangle`, through one per-vertex `_triangle_at`) visit
    each vertex once in all, plus once more for each triangle found, where the
    next search resumes; the play makes hundreds of queries.  Scans of other
    graphs, such as the subgraphs the advice oracle's optimum covers, are not
    counted."""
    n, scans, found = 2000, [], []
    active_vertices, triangle_at = DependencyGraph.active_vertices, graph._triangle_at
    inst = play_instance(name, n, F(1, 2) if name == "algorithm2" else F(0))
    env = (CpcpEnvironment if name == "algorithm3_cpcp" else Environment)(inst)

    def counted(g):
        if g is env.graph():
            scans.append("active_vertices")
        return active_vertices(g)

    def visited(g, i):
        found.append(triangle_at(g, i))
        return found[-1]

    monkeypatch.setattr(DependencyGraph, "active_vertices", counted)
    monkeypatch.setattr(online, "components", lambda g: scans.append("components") or components(g))
    monkeypatch.setattr(graph, "_triangle_at", visited)  # `find_triangle`'s
    monkeypatch.setattr(online, "_triangle_at", visited)  # `algorithm2`'s
    monkeypatch.setattr(online, "_finish", lambda env, *args, **kwargs: None)
    PLAYS[name](env, inst)
    assert len(env.transcript) >= 500
    assert len(scans) <= 2, scans
    assert len(found) <= n + sum(t is not None for t in found)
    assert (len(found) >= n) == (name in ("algorithm2", "advice_half"))  # each ends with a search to the last vertex


class Reads(list):
    """A graph's adjacency list that counts the reads of its entries from ``first`` on."""

    def __init__(self, adj, first):
        super().__init__(adj)
        self.first, self.count = first, 0

    def __getitem__(self, v):
        self.count += v >= self.first
        return super().__getitem__(v)

    def __iter__(self):
        self.count += max(0, len(self) - self.first)
        return super().__iter__()


def padded(inst, extra):
    """``inst`` with ``extra`` isolated items to the far right, at the first item's cost:
    unit-wide intervals, each past the last by more than the threshold."""
    right, step = max(itv.hi for itv in inst.intervals) + inst.delta + 1, inst.delta + 2
    los = [right + k * step for k in range(extra)]
    return Instance(inst.delta, inst.intervals + tuple(UncertainInterval(lo, lo + 1, inst.costs[0]) for lo in los),
                    inst.values + tuple(lo + F(1, 2) for lo in los))


def walk_visits(monkeypatch, algorithm, inst, rule, n):
    """`expected_cost_exact`'s result; the vertices its component search (`_reach`) and
    triangle search (`_triangle_at`) visit after the root's start, from the first
    component walk's start on, when neither whole-graph search may run; the reads of
    the neighbour sets of the vertices from ``n`` on, in the whole call; and the
    number of real flips walked."""
    start, trial, key = online._TRIALS[algorithm]
    reach, triangle_at, visits, walking, adj = online._reach, online._triangle_at, [0, 0], [], []

    def started(env, rule, state=None, vertices=None):
        if state is None:
            adj.append(Reads(env.graph().adj, n))
            env.graph().adj = adj[0]
        else:
            walking.append(vertices)
        return start(env, rule, state, vertices)

    def reached(g, v, seen):
        found = reach(g, v, seen)
        visits[0] += len(found) if walking else 0
        return found

    def visited(g, i):
        visits[1] += bool(walking)
        return triangle_at(g, i)

    def whole(*args):
        raise AssertionError("the walk searched the whole graph")

    with monkeypatch.context() as patch:
        patch.setitem(online._TRIALS, algorithm, (started, trial, key))
        patch.setattr(online, "_reach", reached)
        patch.setattr(online, "_triangle_at", visited)
        patch.setattr(online, "components", whole)
        patch.setattr(online, "find_triangle", whole)
        flips = count_flips(patch)
        return expected_cost_exact(algorithm, inst, rule), visits, adj[0].count, len(flips)


@pytest.mark.parametrize("algorithm, rule, inst", [
    (algorithm2, HALF, gen_cost_path(40, F(1, 1000))),
    (algorithm2, HALF, sparse(200, F(1, 2))),
    (algorithm2, SQRT3, sparse(200, F(1, 2))),
    (algorithm1, FIXED(F(1, 2)), uniform(at_zero(sparse(200, F(0))))),
], ids=["cost_path-half", "sparse-half", "sparse-sqrt3", "sparse-algorithm1"])
def test_component_walks_visit_only_their_component(monkeypatch, algorithm, rule, inst):
    """Each component walk owns its vertex list, so 5 000 isolated items to the far
    right change neither the expectation nor the vertices the walks' component and
    triangle searches visit after the root's one O(n) start; and the whole call reads
    those items' neighbour sets a few times, at the root, not once per flip."""
    expected, visits, _, flips = walk_visits(monkeypatch, algorithm, inst, rule, inst.n)
    assert visits[0] > 0 and (visits[1] > 0) == (algorithm is algorithm2)
    got, got_visits, reads, got_flips = walk_visits(monkeypatch, algorithm, padded(inst, 5000), rule, inst.n)
    assert (got, got_visits, got_flips) == (expected, visits, flips)
    assert reads <= 5 * 5000 < flips * 5000, reads


def traced_peak(run):
    """``run()``'s result and the `tracemalloc` peak, in bytes, while it ran."""
    gc.collect()  # garbage left by earlier tests is freed before, not inside, the traced region
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_padding_adds_no_memory_per_flip():
    """No flip copies the strategy state (a component walk reads its parent's residuals),
    so 5 000 isolated items to the far right add a peak that does not grow with the depth
    of the coin path (5 % allows for allocator rounding; a copy of the state per flip grew
    it 3.5 -> 9.4 MB), and change no expectation."""
    extra = []
    for n in (100, 400):
        inst = gen_cost_path(n, F(1, 10 ** 9))
        wide = padded(inst, 5000)
        want, alone = traced_peak(lambda: expected_cost_exact(algorithm2, inst, HALF))
        got, with_padding = traced_peak(lambda: expected_cost_exact(algorithm2, wide, HALF))
        assert got == want
        extra.append(with_padding - alone)
    assert 20 * extra[1] <= 21 * extra[0], extra
