"""Dependency graphs: structure, elimination orders, covers, representations."""

import itertools
import random
import re
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    CoTTFunctions,
    InvariantViolation,
    KnowledgeState,
    NotChordal,
    NotSimplicial,
    NotTree,
    build_graph,
    components,
    cott_graph,
    cott_to_instance,
    dependent,
    fig1_instance,
    find_triangle,
    gen_advice_triangles,
    gen_random,
    instance_to_cott,
    interval,
    is_chordal,
    longest_path_caterpillar,
    max_weight_independent_set,
    mcs_peo,
    min_cost_vertex_cover,
    peo_min_right,
    verify_peo,
)
from querysort.core import Instance, to_grid
from querysort.graph import DependencyGraph, component_of

SEED_MIX = [(s, 2 + s % 8, (F(0), F(1), F(3, 2))[s % 3]) for s in range(120)]


def test_build_graph_fig1():
    g = build_graph(fig1_instance("a"))
    assert g.n == 3
    assert set(g.edges) == {(0, 1), (0, 2)}
    assert g.weights == (F(1), F(1), F(1))
    assert g.adj[0] == frozenset({1, 2})
    assert g.active_vertices() == (0, 1, 2)


def test_components_and_ordering():
    inst = Instance(
        F(0),
        (interval(0, 2), interval(10, 12), interval(1, 3), interval(11, 13)),
    )
    g = build_graph(inst)
    comps = components(g)
    assert comps == [[0, 2], [1, 3]]
    assert component_of(g, 3) == [1, 3]


def test_verify_peo():
    g = build_graph(fig1_instance("a"))  # star at 0
    assert verify_peo(g, (1, 2, 0))
    assert not verify_peo(g, (0, 1, 2)) or not g.edges  # removing center first fails
    tri = build_graph(gen_advice_triangles(1, F(1))[0])
    for order in itertools.permutations(range(3)):
        assert verify_peo(tri, order)  # a clique: every order is a PEO


def test_graph_rejects_bad_shapes():
    ones = (F(1),) * 3
    for edge in [(1, 1), (2, 1), (-1, 0), (0, 3)]:
        with pytest.raises(InvariantViolation, match=rf"bad edge \({edge[0]}, {edge[1]}\) for n=3"):
            DependencyGraph(3, [(0, 1), edge], ones)
    with pytest.raises(InvariantViolation, match="weights do not match vertex count"):
        DependencyGraph(3, [(0, 1)], ones[:2])
    with pytest.raises(InvariantViolation, match="intervals do not match vertex count"):
        DependencyGraph(3, [(0, 1)], ones, [interval(0, 1)] * 4)


def test_build_graph_takes_an_instance_or_a_state_with_a_threshold():
    inst = fig1_instance("a")
    state = KnowledgeState(inst.intervals, (0,) * inst.n, F(0))
    assert build_graph(state, inst.delta).edges == build_graph(state, "0").edges == build_graph(inst).edges
    message = "build_graph takes an Instance, or a KnowledgeState and a threshold"
    for args in [(inst.intervals, inst.delta), (list(inst.intervals), F(0)), (inst.intervals,), (inst, inst.delta),
                 (inst, F(1)), (state,), (None, F(0))]:
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            build_graph(*args)


def test_graph_weights_follow_the_cost_rule():
    edges = [(0, 1), (1, 2)]
    g = DependencyGraph(3, edges, (1, F(1, 2), 3))
    assert min_cost_vertex_cover(g) == (1,)
    for bad in (0.5, "1", True, None, -1, F(-1, 2)):
        with pytest.raises(InvariantViolation, match=rf"^vertex 1: weight must be a non-negative int or Fraction, "
                                                     rf"got {re.escape(repr(bad))}$"):
            DependencyGraph(3, edges, (F(1), bad, F(1)))
    with pytest.raises(InvariantViolation, match="^vertex 0: weight must be"):
        min_cost_vertex_cover(DependencyGraph(3, edges, (0.5, 1.5, 0.1)))
    rep = instance_to_cott(fig1_instance("a"))
    assert min_cost_vertex_cover(cott_graph(rep, [F(1, 2), 1, 1])) == (0,)
    with pytest.raises(InvariantViolation, match="^vertex 0: weight must be"):
        cott_graph(rep, [0.5, 1, 1])


def test_peo_min_right_names_the_first_gap():
    # A 4-cycle is not chordal: eliminating 0 first leaves 1 and 3 apart.
    intervals = tuple(interval(0, k) for k in range(4))
    grid = to_grid(F(0), intervals)
    cycle = DependencyGraph(
        4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), (F(1),) * 4, intervals, grid.los, grid.his,
    )
    assert not verify_peo(cycle, (0, 1, 2, 3))
    with pytest.raises(NotSimplicial, match="vertex 0: later neighbors (1 and 3|3 and 1) are not adjacent"):
        peo_min_right(cycle)


def test_peo_min_right_and_mcs():
    for seed, n, d in SEED_MIX[:60]:
        inst = gen_random(seed, n, d)
        g = build_graph(inst)
        order = peo_min_right(g)
        assert sorted(order) == list(range(n))
        assert verify_peo(g, order)
        order2 = mcs_peo(g)
        assert verify_peo(g, order2)
        assert is_chordal(g)


def _brute_mwis(g):
    best, best_set = F(-1), ()
    for r in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            s = set(sub)
            if any(u in s and v in s for u, v in g.edges):
                continue
            w = sum((g.weights[v] for v in sub), start=F(0))
            if w > best:
                best, best_set = w, sub
    return best


def test_mwis_matches_brute_force():
    for seed, n, d in SEED_MIX[:50]:
        inst = gen_random(seed, n, d, cost_model="rational-range")
        g = build_graph(inst)
        kept = max_weight_independent_set(g)
        s = set(kept)
        assert not any(u in s and v in s for u, v in g.edges)
        assert sum((g.weights[v] for v in kept), start=F(0)) == _brute_mwis(g)


def test_mwis_and_cover_fig1():
    g = build_graph(fig1_instance("a"))
    assert set(max_weight_independent_set(g)) == {1, 2}
    assert set(min_cost_vertex_cover(g)) == {0}


def test_cover_covers_every_edge():
    for seed, n, d in SEED_MIX[50:90]:
        inst = gen_random(seed, n, d, cost_model="rational-range")
        g = build_graph(inst)
        cover = set(min_cost_vertex_cover(g))
        assert all(u in cover or v in cover for u, v in g.edges)


def test_find_triangle():
    tri = build_graph(gen_advice_triangles(2, F(1))[0])
    assert find_triangle(tri) == (0, 1, 2)  # lexicographically first
    path = build_graph(
        Instance(F(0), (interval(0, 4), interval(3, 8), interval(7, 12)))
    )
    assert find_triangle(path) is None


def test_longest_path_on_path_graph():
    inst = Instance(
        F(0), tuple(interval(3 * j, 3 * j + 4) for j in range(5))
    )
    g = build_graph(inst)
    path = longest_path_caterpillar(g)
    assert list(path) in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])


def test_longest_path_caterpillar_with_legs():
    # spine 0-1-2 with a leg hanging off the middle: longest path has 4 vertices
    ivs = (
        interval(0, 4),
        interval(3, 8),
        interval(7, 12),
        interval(5, F(13, 2)),  # short leg overlapping only the middle
    )
    inst = Instance(F(0), ivs)
    g = build_graph(inst)
    assert set(g.edges) == {(0, 1), (1, 2), (1, 3)}
    path = longest_path_caterpillar(g)
    assert len(path) == 3
    assert path[1] == 1  # middle of the spine


def test_path_and_triangle_helpers_refuse_vertices_outside_the_graph():
    path = build_graph(Instance(F(0), tuple(interval(3 * j, 3 * j + 4) for j in range(5))))
    for vertices, v in (([99], 99), ([-1, 0], -1), ([0, 1, 5], 5)):
        with pytest.raises(InvariantViolation, match=f"^no vertex {v} in a graph on 5 vertices$"):
            longest_path_caterpillar(path, vertices)
    for n in (1, 2):
        tri = build_graph(gen_advice_triangles(n, F(1))[0])
        assert find_triangle(tri, tri.n) is None
        assert find_triangle(tri, 0) == (0, 1, 2)
        for start in (-3, -1, tri.n + 1):
            with pytest.raises(InvariantViolation, match=rf"^triangle search start {start} outside \[0, {tri.n}\]$"):
                find_triangle(tri, start)


def test_longest_path_rejects_cycles():
    tri = build_graph(gen_advice_triangles(1, F(1))[0])
    with pytest.raises(NotTree):
        longest_path_caterpillar(tri)


# ---------------------------------------------------------------------------
# The BFS routines against the earlier versions, kept here as the reference
# ---------------------------------------------------------------------------


def ref_components(g):
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in sorted(g.adj[v]):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        out.append(sorted(comp))
    return out


def ref_component_of(g, v):
    return next(comp for comp in ref_components(g) if v in comp)


def ref_bfs_farthest(g, start, allowed):
    dist = {start: 0}
    parent = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(g.adj[v]):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
    return min(dist, key=lambda v: (-dist[v], v)), parent


def ref_longest_path_caterpillar(g, vertices=None):
    if vertices is None:
        vertices = range(g.n)
    vs = frozenset(vertices)
    if not vs:
        raise InvariantViolation("empty vertex set")
    inside_edges = sum(1 for (i, j) in g.edges if i in vs and j in vs)
    root = min(vs)
    reach = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if u in vs and u not in reach:
                reach.add(u)
                queue.append(u)
    if reach != vs:
        raise NotTree(f"vertex set {sorted(vs)} is not connected")
    if inside_edges != len(vs) - 1:
        raise NotTree(f"vertex set {sorted(vs)} contains a cycle")
    if len(vs) == 1:
        return (root,)
    end_a, _ = ref_bfs_farthest(g, root, vs)
    end_b, parent = ref_bfs_farthest(g, end_a, vs)
    path = [end_b]
    while path[-1] != end_a:
        path.append(parent[path[-1]])
    first, last = path[0], path[-1]
    key = (lambda v: (g.intervals[v].lo, v)) if g.intervals is not None else (lambda v: v)
    if key(last) < key(first):
        path.reverse()
    return tuple(path)


@st.composite
def graphs_with_vertex_sets(draw):
    """A random forest, or a forest with extra edges closing cycles, on up to
    300 relabelled vertices, with or without intervals, and vertex sets to ask
    about: every component, a single vertex, random subsets, the whole graph."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    attach = draw(st.sampled_from([1.0, 0.97, 0.7]))  # below 1: a forest of several trees
    extra = draw(st.sampled_from([0, 0, 1, 5, n // 4]))
    label = list(range(n))
    rng.shuffle(label)
    edges = {tuple(sorted((label[rng.randrange(v)], label[v])))
             for v in range(1, n) if rng.random() < attach}
    for _ in range(extra if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    intervals = los = his = None
    if draw(st.booleans()):
        intervals = tuple(interval(lo, lo + 1) for lo in (rng.randrange(4) for _ in range(n)))
        grid = to_grid(F(0), intervals)
        los, his = grid.los, grid.his
    g = DependencyGraph(n, edges, tuple(F(1) for _ in range(n)), intervals, los, his)
    sets = [None, [rng.randrange(n)]] + ref_components(g)
    sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
    return g, sets


def outcome(f, *args):
    try:
        return f(*args)
    except (InvariantViolation, NotTree) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(graphs_with_vertex_sets())
def test_bfs_routines_match_the_reference(case):
    g, sets = case
    assert components(g) == ref_components(g)
    for v in range(0, g.n, max(1, g.n // 20)):
        assert component_of(g, v) == ref_component_of(g, v)
    for vs in sets:
        assert outcome(longest_path_caterpillar, g, vs) == outcome(ref_longest_path_caterpillar, g, vs)


def test_component_of_refuses_a_vertex_outside_the_graph():
    g = DependencyGraph(2, [(0, 1)], (F(1), F(1)))
    for v in (-1, 2):
        with pytest.raises(InvariantViolation, match=f"no vertex {v}"):
            component_of(g, v)


def test_cott_round_trip_adjacency():
    for seed, n, d in SEED_MIX[:80]:
        inst = gen_random(seed, n, d)
        g = build_graph(inst)
        rep = instance_to_cott(inst)
        g2 = cott_graph(rep)
        assert set(g.edges) == set(g2.edges), (seed, n, d)
        # realize the abstract representation back as intervals
        inst2 = cott_to_instance(rep)
        g3 = build_graph(inst2)
        assert set(g.edges) == set(g3.edges), (seed, n, d)


def test_cott_functions_direct():
    rep = CoTTFunctions((F(0), F(4)), (F(2), F(6)))
    # adjacent iff each one's a lies strictly below the other's b
    assert rep.adjacent(0, 1) == (rep.a[0] < rep.b[1] and rep.a[1] < rep.b[0])
    inst = cott_to_instance(rep)
    g = build_graph(inst)
    assert (
        ((0, 1) in set(g.edges))
        == rep.adjacent(0, 1)
    )
