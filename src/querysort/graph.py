"""The dependency graph and the structural routines built on it.

Vertices are item indices; an edge joins two intervals that are dependent at
the instance threshold.  These graphs are never arbitrary: an interval graph
restricted by the threshold rule stays chordal, which is what makes an exact
minimum-cost vertex cover tractable here.

Determinism matters throughout -- algorithms and tests rely on reproducible
tie-breaking, so every routine that picks among equals picks the smallest
index (or the documented key).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .core import (
    Instance,
    KnowledgeState,
    UncertainInterval,
    dependent_pairs,
    scalar,
)
from .errors import (
    InvariantViolation,
    NotChordal,
    NotSimplicial,
    NotTree,
)


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected graph with vertex weights; edges stored as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[Fraction, ...]
    intervals: Optional[tuple[UncertainInterval, ...]] = None
    adj: tuple[frozenset[int], ...] = field(init=False)

    def __post_init__(self):
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n):
                raise InvariantViolation(f"bad edge ({i}, {j}) for n={self.n}")
            nbrs[i].add(j)
            nbrs[j].add(i)
        object.__setattr__(self, "adj", tuple(frozenset(s) for s in nbrs))
        if len(self.weights) != self.n:
            raise InvariantViolation("weights do not match vertex count")
        if self.intervals is not None and len(self.intervals) != self.n:
            raise InvariantViolation("intervals do not match vertex count")

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def active_vertices(self) -> tuple[int, ...]:
        """Vertices with at least one edge, ascending."""
        return tuple(v for v in range(self.n) if self.adj[v])

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


GraphSource = Union[Instance, KnowledgeState, Sequence[UncertainInterval]]


def build_graph(source: GraphSource, delta=None) -> DependencyGraph:
    """Dependency graph of an instance, knowledge state, or interval list.

    ``delta`` is taken from the instance when one is given and must be
    supplied otherwise.
    """
    if isinstance(source, Instance):
        if delta is None:
            delta = source.delta
        intervals = source.intervals
    elif isinstance(source, KnowledgeState):
        intervals = source.current
    else:
        intervals = tuple(source)
    if delta is None:
        raise InvariantViolation("a threshold is required to build the graph")
    return DependencyGraph(
        n=len(intervals),
        edges=frozenset(dependent_pairs(intervals, scalar(delta))),
        weights=tuple(itv.cost for itv in intervals),
        intervals=tuple(intervals),
    )


def components(g: DependencyGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    out: list[list[int]] = []
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


def component_of(g: DependencyGraph, v: int) -> list[int]:
    """Sorted vertex list of the component containing ``v``."""
    return next(comp for comp in components(g) if v in comp)


# ---------------------------------------------------------------------------
# Perfect elimination orderings and chordality
# ---------------------------------------------------------------------------

def _non_simplicial(
    g: DependencyGraph, order: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """First ``(v, a, b)`` along ``order`` with ``a``, ``b`` later neighbors of
    ``v`` that are not adjacent, or None when ``order`` eliminates perfectly."""
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                if not g.has_edge(later[a], later[b]):
                    return v, later[a], later[b]
    return None


def verify_peo(g: DependencyGraph, order: Sequence[int]) -> bool:
    """Check that each vertex's later neighbors form a clique."""
    if sorted(order) != list(range(g.n)):
        raise InvariantViolation("order is not a permutation of the vertices")
    return _non_simplicial(g, order) is None


def peo_min_right(
    g: DependencyGraph,
    intervals: Optional[Sequence[UncertainInterval]] = None,
) -> tuple[int, ...]:
    """Perfect elimination ordering by nondecreasing right endpoint.

    Sorting the vertices by ``(hi, index)`` eliminates, at each step, an
    interval whose remaining neighbors all run past its right endpoint and
    therefore pairwise overlap around it -- a simplicial vertex.  Verified
    explicitly; raises `NotSimplicial` if the structure does not hold
    (it always does for graphs built from intervals under the threshold
    rule).
    """
    if intervals is None:
        intervals = g.intervals
    if intervals is None:
        raise InvariantViolation("peo_min_right needs the underlying intervals")
    order = tuple(sorted(range(g.n), key=lambda v: (intervals[v].hi, v)))
    bad = _non_simplicial(g, order)
    if bad is not None:
        v, a, b = bad
        raise NotSimplicial(f"vertex {v}: later neighbors {a} and {b} are not adjacent")
    return order


def mcs_peo(g: DependencyGraph) -> tuple[int, ...]:
    """Candidate perfect elimination ordering via maximum-cardinality search.

    Visits vertices by descending count of visited neighbors (ties to the
    smallest index) and returns the reverse visiting order.  On a chordal
    graph the result is always a valid elimination ordering.
    """
    visited = [False] * g.n
    score = [0] * g.n
    visit_order = []
    for _ in range(g.n):
        v = max(
            (v for v in range(g.n) if not visited[v]),
            key=lambda v: (score[v], -v),
        )
        visited[v] = True
        visit_order.append(v)
        for u in g.adj[v]:
            if not visited[u]:
                score[u] += 1
    return tuple(reversed(visit_order))


def is_chordal(g: DependencyGraph) -> bool:
    return verify_peo(g, mcs_peo(g))


# ---------------------------------------------------------------------------
# Minimum-cost vertex cover
# ---------------------------------------------------------------------------

def max_weight_independent_set(g: DependencyGraph) -> tuple[int, ...]:
    """Exact maximum-weight independent set of a chordal graph.

    Greedy with residual weights along a perfect elimination ordering:
    walk the ordering, and whenever a vertex still has positive residual
    weight, mark it and charge that amount against its later neighbors.
    A backward pass keeps the marked vertices that are not blocked by an
    already-kept neighbor.  Exact on chordal graphs; `NotChordal` if no
    elimination ordering exists.
    """
    if g.intervals is not None:
        order = peo_min_right(g)
    else:
        order = mcs_peo(g)
        if not verify_peo(g, order):
            raise NotChordal("graph has no perfect elimination ordering")
    pos = {v: k for k, v in enumerate(order)}
    residual = list(g.weights)
    marked = [False] * g.n
    for v in order:
        if residual[v] > 0:
            marked[v] = True
            take = residual[v]
            for u in g.adj[v]:
                if pos[u] > pos[v]:
                    residual[u] = max(Fraction(0), residual[u] - take)
    chosen: set[int] = set()
    for v in reversed(order):
        if marked[v] and not (g.adj[v] & chosen):
            chosen.add(v)
    return tuple(sorted(chosen))


def min_cost_vertex_cover(g: DependencyGraph) -> tuple[int, ...]:
    """Exact minimum-weight vertex cover: complement of the heaviest independent set."""
    independent = set(max_weight_independent_set(g))
    return tuple(v for v in range(g.n) if v not in independent)


# ---------------------------------------------------------------------------
# Triangles and caterpillar paths
# ---------------------------------------------------------------------------

def find_triangle(g: DependencyGraph) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest triangle, or None."""
    for i in range(g.n):
        ni = sorted(u for u in g.adj[i] if u > i)
        for a in range(len(ni)):
            for b in range(a + 1, len(ni)):
                if g.has_edge(ni[a], ni[b]):
                    return (i, ni[a], ni[b])
    return None


def _bfs_farthest(
    g: DependencyGraph, start: int, allowed: frozenset[int]
) -> tuple[int, dict[int, int]]:
    """Farthest vertex from ``start`` (smallest index on ties) and parents."""
    dist = {start: 0}
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(g.adj[v]):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
    best = min((v for v in dist), key=lambda v: (-dist[v], v))
    return best, parent


def longest_path_caterpillar(
    g: DependencyGraph, vertices: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """A longest path of a tree component, as a deterministic vertex sequence.

    The component induced on ``vertices`` must be a connected tree
    (`NotTree` otherwise).  Found by the double-sweep: a farthest vertex
    from an arbitrary start is one end of a longest path, and a farthest
    vertex from *that* is the other end.  All ties break to the smallest
    index.  The returned path runs from whichever endpoint has the smaller
    ``(lo, index)`` key when intervals are attached (smaller index
    otherwise), so callers see a stable orientation.
    """
    if vertices is None:
        vertices = range(g.n)
    vs = frozenset(vertices)
    if not vs:
        raise InvariantViolation("empty vertex set")
    inside_edges = sum(
        1 for (i, j) in g.edges if i in vs and j in vs
    )
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
    end_a, _ = _bfs_farthest(g, root, vs)
    end_b, parent = _bfs_farthest(g, end_a, vs)
    path = [end_b]
    while path[-1] != end_a:
        path.append(parent[path[-1]])
    # path currently runs end_b -> end_a; orient deterministically.
    first, last = path[0], path[-1]
    if g.intervals is not None:
        key = lambda v: (g.intervals[v].lo, v)
    else:
        key = lambda v: v
    if key(last) < key(first):
        path.reverse()
    return tuple(path)


# ---------------------------------------------------------------------------
# Threshold-tolerance (co-TT) view
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoTTFunctions:
    """Per-vertex threshold/tolerance functions describing the same graph.

    Two vertices are adjacent exactly when each one's threshold lies below
    the other's tolerance: ``a[u] < b[v] and a[v] < b[u]``.
    """

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(scalar(x) for x in self.a))
        object.__setattr__(self, "b", tuple(scalar(x) for x in self.b))
        if len(self.a) != len(self.b):
            raise InvariantViolation("threshold/tolerance lists differ in length")

    @property
    def n(self) -> int:
        return len(self.a)

    def adjacent(self, u: int, v: int) -> bool:
        return self.a[u] < self.b[v] and self.a[v] < self.b[u]


def instance_to_cott(inst: Instance) -> CoTTFunctions:
    """Threshold/tolerance functions whose graph equals the dependency graph.

    Taking ``a = lo`` and ``b = hi - delta`` turns the two strict
    dependency inequalities into exactly the adjacency rule above.
    """
    return CoTTFunctions(
        a=tuple(itv.lo for itv in inst.intervals),
        b=tuple(itv.hi - inst.delta for itv in inst.intervals),
    )


def cott_to_instance(rep: CoTTFunctions, costs=None) -> Instance:
    """An interval instance whose dependency graph realizes ``rep``.

    The threshold is pushed just high enough that every tolerance plus the
    threshold clears its own threshold value, making all intervals
    well-formed; adjacency is unchanged because it only reads differences.
    """
    deficits = [rep.a[v] - rep.b[v] for v in range(rep.n)]
    delta = max([Fraction(0)] + deficits)
    if costs is None:
        costs = [Fraction(1)] * rep.n
    iv = tuple(
        UncertainInterval(rep.a[v], rep.b[v] + delta, scalar(costs[v]))
        for v in range(rep.n)
    )
    return Instance(delta, iv)


def cott_graph(rep: CoTTFunctions, weights=None) -> DependencyGraph:
    edges = frozenset(
        (u, v)
        for u in range(rep.n)
        for v in range(u + 1, rep.n)
        if rep.adjacent(u, v)
    )
    if weights is None:
        weights = tuple(Fraction(1) for _ in range(rep.n))
    return DependencyGraph(n=rep.n, edges=edges, weights=tuple(weights))
