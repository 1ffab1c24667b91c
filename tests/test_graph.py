"""Dependency graphs: structure, elimination orders, covers, representations."""

import itertools
from fractions import Fraction as F

import pytest

from querysort import (
    CoTTFunctions,
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
from querysort.core import Instance
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


def test_peo_min_right_names_the_first_gap():
    # A 4-cycle is not chordal: eliminating 0 first leaves 1 and 3 apart.
    cycle = DependencyGraph(
        4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), (F(1),) * 4,
        tuple(interval(0, k) for k in range(4)),
    )
    assert not verify_peo(cycle, (0, 1, 2, 3))
    with pytest.raises(NotSimplicial, match="vertex 0: later neighbors (1 and 3|3 and 1) are not adjacent"):
        peo_min_right(cycle)


def test_peo_min_right_and_mcs():
    for seed, n, d in SEED_MIX[:60]:
        inst = gen_random(seed, n, d)
        g = build_graph(inst)
        order = peo_min_right(g, inst.intervals)
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


def test_longest_path_rejects_cycles():
    tri = build_graph(gen_advice_triangles(1, F(1))[0])
    with pytest.raises(NotTree):
        longest_path_caterpillar(tri)


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
