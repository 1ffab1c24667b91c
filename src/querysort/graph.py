"""The dependency graph and the structural routines built on it.

Vertices are item indices; an edge joins two intervals that are dependent at
the instance threshold.  These graphs are never arbitrary: an interval graph
restricted by the threshold rule stays chordal, which is what makes an exact
minimum-cost vertex cover tractable here.

Every routine reads the adjacency sets of the graph it is handed, so a
caller that holds a graph never rebuilds one.

Determinism matters throughout -- algorithms and tests rely on reproducible
tie-breaking, so every routine that picks among equals picks the smallest
index (or the documented key).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .core import (
    Instance,
    KnowledgeState,
    UncertainInterval,
    _require_ints,
    grid_ints,
    rational_text,
    scalar,
    sweep_pairs,
    threshold,
    to_grid,
)
from .errors import (
    InvariantViolation,
    NotChordal,
    NotSimplicial,
    NotTree,
)


class DependencyGraph:
    """Undirected graph with vertex weights (non-negative ints or `Fraction`s, checked
    here), stored only as one neighbour set per vertex.

    ``edges`` derives the pairs ``(i, j)``, ``i < j``, from ``adj`` on each
    read.  A plain object: equality is identity.

    ``los`` and ``his`` are the vertices' endpoints as ints on one grid; the
    orderings in this module and the strategies' picks compare them, never
    ``intervals``.  Callers pass the grid they hold.  Without one,
    `peo_min_right` refuses the graph, the cover falls back to a maximum
    cardinality search, and `longest_path_caterpillar` orients by index.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], weights: Sequence[Fraction],
                 intervals: Optional[Sequence[UncertainInterval]] = None,
                 los: Optional[Sequence[int]] = None, his: Optional[Sequence[int]] = None):
        _require_ints("vertex count", n)
        self.n = n
        self.weights = weights
        self.intervals = intervals
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for (i, j) in edges:
            if not (type(i) is type(j) is int and 0 <= i < j < n):
                _require_ints("edge entry", i, j)
                raise InvariantViolation(f"bad edge ({rational_text(i)}, {rational_text(j)}) for n={n}")
            self.adj[i].add(j)
            self.adj[j].add(i)
        if len(weights) != n:
            raise InvariantViolation("weights do not match vertex count")
        for v, w in enumerate(weights):  # the rule a query cost follows; `type` also refuses a bool
            if type(w) not in (int, Fraction) or w.numerator < 0:
                raise InvariantViolation(
                    f"vertex {v}: weight must be a non-negative int or Fraction, got {rational_text(w, repr)}")
        if intervals is not None and len(intervals) != n:
            raise InvariantViolation("intervals do not match vertex count")
        self.los, self.his = los, his

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, nbrs in enumerate(self.adj) for j in nbrs if i < j)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def active_vertices(self) -> tuple[int, ...]:
        """Vertices with at least one edge, ascending."""
        return tuple(v for v in range(self.n) if self.adj[v])


def build_graph(source: Union[Instance, KnowledgeState], delta=None) -> DependencyGraph:
    """Dependency graph of an instance at its own threshold, read from its
    `Instance.grid` and `Instance.pairs`, or of a knowledge state's current
    intervals at the threshold ``delta``, swept on their own grid."""
    if isinstance(source, Instance) and delta is None:
        grid, pairs, intervals = source.grid, source.pairs, source.intervals
    elif isinstance(source, KnowledgeState) and delta is not None:
        intervals = source.current
        grid = to_grid(threshold(delta), intervals)
        pairs = sweep_pairs(grid.los, grid.his, grid.delta)
    else:
        raise InvariantViolation("build_graph takes an Instance, or a KnowledgeState and a threshold")
    return DependencyGraph(len(intervals), pairs, tuple(itv.cost for itv in intervals), tuple(intervals),
                           grid.los, grid.his)


def _bfs(
    g: DependencyGraph, start: int, allowed: Optional[frozenset[int]] = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Distances and parents of a BFS from ``start``, inside ``allowed`` when
    given, taking each vertex's neighbours in ascending order."""
    dist = {start: 0}
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(g.adj[v]):
            if u not in dist and (allowed is None or u in allowed):
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
    return dist, parent


def _reach(g: DependencyGraph, start: int, seen: set[int]) -> list[int]:
    """Sorted vertices of ``start``'s component, each added to ``seen`` as it is reached."""
    seen.add(start)
    out = [start]
    for v in out:  # walks the vertices appended below too
        new = g.adj[v] - seen
        seen |= new
        out += new
    return sorted(out)


def components(g: DependencyGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    seen: set[int] = set()  # an isolated vertex needs no mark: no walk reaches it
    return [_reach(g, start, seen) if g.adj[start] else [start] for start in range(g.n) if start not in seen]


def _check_vertex(g: DependencyGraph, v: int) -> None:
    _require_ints("vertex", v)
    if not 0 <= v < g.n:
        raise InvariantViolation(f"no vertex {rational_text(v)} in a graph on {g.n} vertices")


def component_of(g: DependencyGraph, v: int) -> list[int]:
    """Sorted vertex list of the component containing ``v``."""
    _check_vertex(g, v)
    return _reach(g, v, set())


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
        for a, b in combinations([u for u in g.adj[v] if pos[u] > pos[v]], 2):
            if not g.has_edge(a, b):
                return v, a, b
    return None


def verify_peo(g: DependencyGraph, order: Sequence[int]) -> bool:
    """Check that each vertex's later neighbors form a clique."""
    _require_ints("order entry", *order)
    if sorted(order) != list(range(g.n)):
        raise InvariantViolation("order is not a permutation of the vertices")
    return _non_simplicial(g, order) is None


def peo_min_right(g: DependencyGraph) -> tuple[int, ...]:
    """Perfect elimination ordering by nondecreasing right endpoint (``g.his``).

    Sorting the vertices by ``(hi, index)`` eliminates, at each step, an
    interval whose remaining neighbors all run past its right endpoint and
    therefore pairwise overlap around it -- a simplicial vertex.  Verified
    explicitly; raises `NotSimplicial` if the structure does not hold
    (it always does for graphs built from intervals under the threshold
    rule).
    """
    if g.his is None:
        raise InvariantViolation("peo_min_right needs the underlying intervals")
    return _by_right_end(g, range(g.n))


def _by_right_end(g: DependencyGraph, vertices: Sequence[int]) -> tuple[int, ...]:
    """`peo_min_right` on ``vertices`` (ascending), which hold every neighbour of each one."""
    order = tuple(sorted(vertices, key=g.his.__getitem__))  # stable: ties keep index order
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
    return _mcs(g, range(g.n))


def _mcs(g: DependencyGraph, vertices: Sequence[int]) -> tuple[int, ...]:
    """`mcs_peo` on ``vertices``, which hold each one's neighbours: an isolated vertex moves no score."""
    score, visit_order = dict.fromkeys(vertices, 0), []
    while score:
        v = max(score, key=lambda v: (score[v], -v))
        del score[v]
        visit_order.append(v)
        for u in g.adj[v] & score.keys():
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
    elimination ordering exists.  Only vertices with an edge are walked, as
    ints on the lcm grid of their weights (`grid_ints`), which keeps every
    decision exact; an isolated vertex is kept exactly when its weight is positive.
    """
    active = [v for v in range(g.n) if g.adj[v]]
    if g.his is not None:
        order = _by_right_end(g, active)
    else:
        order = _mcs(g, active)
        if _non_simplicial(g, order) is not None:
            raise NotChordal("graph has no perfect elimination ordering")
    pos = {v: k for k, v in enumerate(order)}
    residual = dict(zip(active, grid_ints([g.weights[v] for v in active])[1]))
    marked = []
    for v in order:
        if (take := residual[v]) > 0:
            marked.append(v)
            for u in g.adj[v]:
                if pos[u] > pos[v]:
                    residual[u] = max(0, residual[u] - take)
    chosen = {v for v in range(g.n) if not g.adj[v] and g.weights[v] > 0}
    for v in reversed(marked):
        if not (g.adj[v] & chosen):
            chosen.add(v)
    return tuple(sorted(chosen))


def min_cost_vertex_cover(g: DependencyGraph) -> tuple[int, ...]:
    """Exact minimum-weight vertex cover: complement of the heaviest independent set."""
    independent = set(max_weight_independent_set(g))
    return tuple(v for v in range(g.n) if v not in independent)


# ---------------------------------------------------------------------------
# Triangles and caterpillar paths
# ---------------------------------------------------------------------------

def find_triangle(g: DependencyGraph, start: int = 0) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest triangle whose first vertex is at least ``start``, or None."""
    _require_ints("triangle search start", start)
    if not 0 <= start <= g.n:
        raise InvariantViolation(f"triangle search start {rational_text(start)} outside [0, {g.n}]")
    return next(filter(None, (_triangle_at(g, i) for i in range(start, g.n))), None)


def _triangle_at(g: DependencyGraph, i: int) -> Optional[tuple[int, int, int]]:
    """Lexicographically smallest triangle ``(i, a, b)`` with ``i < a < b``, or None."""
    for a, b in combinations(sorted(u for u in g.adj[i] if u > i), 2):
        if g.has_edge(a, b):
            return (i, a, b)
    return None


def longest_path_caterpillar(
    g: DependencyGraph, vertices: Optional[Sequence[int]] = None
) -> tuple[int, ...]:
    """A longest path of a tree component, as a deterministic vertex sequence.

    The component induced on ``vertices`` must be a connected tree
    (`NotTree` otherwise).  Found by the double-sweep: a farthest vertex
    from an arbitrary start is one end of a longest path, and a farthest
    vertex from *that* is the other end.  All ties break to the smallest
    index.  The returned path runs from whichever endpoint has the smaller
    ``(lo, index)`` key when endpoints are attached (smaller index
    otherwise), so callers see a stable orientation.
    """
    if vertices is None:
        vertices = range(g.n)
    for v in vertices:
        _check_vertex(g, v)
    vs = frozenset(vertices)
    if not vs:
        raise InvariantViolation("empty vertex set")
    root = min(vs)
    dist, _ = _bfs(g, root, vs)
    if len(dist) != len(vs):
        raise NotTree(f"vertex set {sorted(vs)} is not connected")
    if sum(len(g.adj[v] & vs) for v in vs) != 2 * (len(vs) - 1):
        raise NotTree(f"vertex set {sorted(vs)} contains a cycle")
    if len(vs) == 1:
        return (root,)
    end_a = min(dist, key=lambda v: (-dist[v], v))
    dist, parent = _bfs(g, end_a, vs)
    end_b = min(dist, key=lambda v: (-dist[v], v))
    path = [end_b]
    while path[-1] != end_a:
        path.append(parent[path[-1]])
    # path runs end_b -> end_a; orient it by (lo, index), by index alone without endpoints
    key = lambda v: (g.los[v] if g.los is not None else 0, v)
    return tuple(reversed(path) if key(path[-1]) < key(path[0]) else path)


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
    elif len(costs) != rep.n:
        raise InvariantViolation(f"{len(costs)} costs for {rep.n} CoTT vertices")
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
