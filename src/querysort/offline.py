"""Offline (full-information) solvers and the exhaustive oracles tests lean on.

The offline player sees the hidden values and must pick, in advance, a
cheapest query set whose answers are guaranteed to leave no dependent pair.
That problem decomposes cleanly: some intervals are forced into *every*
feasible set (they strictly straddle some other item's value by more than
the threshold), and what remains is a minimum-cost vertex cover on a chordal
graph -- so the exact optimum is polynomial.

`canonical_optimum` finds the one optimum the advice oracle answers about,
the smallest minimizer by sorted index tuple, greedily over the indices
with one constrained vertex cover per vertex that has an edge, each on an
induced subgraph of the one graph it builds.  `brute_force_optimum`
recomputes the optimum and every minimizer by plain 2^n enumeration; it
exists to ground-truth everything else and is deliberately unclever.
`cpcp_brute_force_optimum` is the refinement-model optimum, found by a
pruned depth-first search over script-prefix vectors on grid ints; the tests
keep the plain scan and the `Fraction` search as its references.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Optional

from .core import (
    Instance,
    _check_item,
    dependent,
    singleton_witness_value,
    sweep_pairs,
)
from .errors import InvariantViolation, MissingRealization, TooLarge
from .graph import DependencyGraph, components, min_cost_vertex_cover

#: Guard for the 2^n subset enumeration.
BRUTE_FORCE_LIMIT = 20

#: Guard for the refinement-model enumeration (product of script lengths + 1).
CPCP_ENUMERATION_LIMIT = 10 ** 6


def forced_query_set(inst: Instance) -> frozenset[int]:
    """Intervals that belong to every feasible query set.

    Item ``j`` is forced when its interval strictly straddles some other
    item's value by more than the threshold: even after everything else is
    known, ``j`` still blocks a safe ordering.  So ``j`` is forced exactly
    when ``(lo + delta, hi - delta)`` holds a value besides its own, counted
    by bisecting the sorted values.  All of it reads the instance's integer
    grid (`Instance.grid`).
    """
    if inst.values is None:
        raise MissingRealization("the forced set needs the hidden values")
    grid = inst.grid
    d = grid.delta
    vals = sorted(grid.values)
    forced = set()
    for j, (lo, hi, v) in enumerate(zip(grid.los, grid.his, grid.values)):
        inside = bisect_left(vals, hi - d) - bisect_right(vals, lo + d)
        if lo + d < v < hi - d:
            inside -= 1
        if inside > 0:
            forced.add(j)
    return frozenset(forced)


def feasible_query_set(inst: Instance, query_set) -> bool:
    """Does revealing exactly these items leave no dependent pair?  The first entry
    that is not an int in ``[0, n)`` (a bool is refused) raises `InvariantViolation`."""
    if inst.values is None:
        raise MissingRealization("feasibility needs the hidden values")
    chosen = set()
    for i in query_set:
        _check_item(i, inst.n)
        chosen.add(i)
    grid = inst.grid
    los = [grid.values[i] if i in chosen else lo for i, lo in enumerate(grid.los)]
    his = [grid.values[i] if i in chosen else hi for i, hi in enumerate(grid.his)]
    return next(sweep_pairs(los, his, grid.delta), None) is None


def optimum_query_set(inst: Instance) -> tuple[frozenset[int], Fraction]:
    """Exact cheapest feasible query set, in polynomial time.

    The forced set F is in every solution; an edge not touching F can only
    be resolved by querying one of its own endpoints, and (because a
    straddled endpoint would itself be forced) querying either endpoint
    always works.  So the rest of the optimum is exactly a minimum-cost
    vertex cover of the dependency graph induced on the unforced vertices.
    """
    forced = forced_query_set(inst)
    chosen = forced | frozenset(min_cost_vertex_cover(_unforced_graph(inst, forced)))
    scale, units = inst.cost_grid
    return chosen, Fraction(sum(units[v] for v in chosen), scale)


def _unforced_graph(inst: Instance, forced: frozenset[int]) -> DependencyGraph:
    """The dependency graph on the unforced vertices, weighted in cost units; forced ones stay, isolated."""
    pairs = ((i, j) for i, j in inst.pairs if i not in forced and j not in forced)
    return DependencyGraph(inst.n, pairs, inst.cost_grid[1], None, inst.grid.los, inst.grid.his)


def canonical_optimum(inst: Instance) -> tuple[Fraction, frozenset[int]]:
    """`brute_force_optimum`'s cost and first minimizer, in polynomial time.

    A set is feasible exactly when it holds the forced set F and covers every
    edge of H, the dependency graph on the unforced vertices (see
    `optimum_query_set`).  The smallest minimizer by sorted index tuple is
    built over v = 0, 1, ...: stop once the kept set is feasible; otherwise
    keep v when some optimum holds the kept set and v and avoids every
    vertex left out, else leave v out (a vertex of F is always kept).  A
    feasible kept set is a minimizer and a proper prefix of every other
    minimizer that agrees with it, so the stop test comes first (a zero-cost
    v would pass the keep test).

    A left-out vertex forces its H-neighbours into the cover, so the test
    for v is one minimum-cost cover of what remains of v's component of H --
    an induced subgraph, so still chordal, taken from H's adjacency sets and
    not rebuilt from intervals; other components keep their own optimum.  An
    isolated unforced v needs no cover: it is kept exactly when it is free.
    """
    forced = forced_query_set(inst)
    (scale, costs), grid = inst.cost_grid, inst.grid
    h = _unforced_graph(inst, forced)
    kept: set[int] = set()
    left_out: set[int] = set()

    def cover_cost(comp: list[int], extra: Optional[int]) -> int:
        """Grid cost of the cheapest cover of H on ``comp`` holding ``kept``, ``extra``
        and every neighbour of a left-out vertex, and avoiding the left-out ones."""
        must = [u for u in comp if u in kept or u == extra or h.adj[u] & left_out]
        free = [u for u in comp if u not in must and u not in left_out]
        index = {u: k for k, u in enumerate(free)}
        pairs = ((k, index[w]) for k, u in enumerate(free) for w in h.adj[u] if index.get(w, -1) > k)
        sub = DependencyGraph(len(free), pairs, [costs[u] for u in free], his=[grid.his[u] for u in free])
        cover = [free[k] for k in min_cost_vertex_cover(sub)]
        return sum(costs[u] for u in must + cover)

    comps = [comp for comp in components(h) if len(comp) > 1]
    best = [cover_cost(comp, None) for comp in comps]
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    uncovered = sum(len(nbrs) for nbrs in h.adj) // 2
    missing = len(forced)
    for v in range(inst.n):
        if not missing and not uncovered:
            break
        if v in forced:
            missing -= 1
        elif (cover_cost(comps[comp_of[v]], v) != best[comp_of[v]]) if v in comp_of else costs[v]:
            left_out.add(v)
            continue
        uncovered -= len(h.adj[v] - kept)
        kept.add(v)
    return Fraction(sum(costs[v] for v in kept), scale), frozenset(kept)


def brute_force_optimum(
    inst: Instance,
) -> tuple[Fraction, tuple[frozenset[int], ...]]:
    """Minimum feasible query cost and ALL minimizers, by 2^n enumeration.

    The ground-truth oracle.  Guarded at n <= 20; tests stay well below.
    Minimizers are returned sorted by their sorted index tuples, so the
    first entry is the canonical (lexicographically smallest) optimum.
    """
    n = inst.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force over 2^{n} subsets refused (limit 2^{BRUTE_FORCE_LIMIT})")
    if inst.values is None:
        raise MissingRealization("brute force needs the hidden values")
    iv = inst.intervals
    vals = inst.values
    delta = inst.delta

    # Per original edge: bits of the endpoints and whether querying only one
    # endpoint resolves the pair (the other side must not straddle its value).
    edge_rules = []
    for i in range(n):
        for j in range(i + 1, n):
            if dependent(iv[i], iv[j], delta):
                ok_i_only = not singleton_witness_value(iv[j], vals[i], delta)
                ok_j_only = not singleton_witness_value(iv[i], vals[j], delta)
                edge_rules.append((1 << i, 1 << j, ok_i_only, ok_j_only))

    # Subset-sum costs by dynamic programming on the lowest set bit.
    cost = [Fraction(0)] * (1 << n)
    bit_cost = [iv[i].cost for i in range(n)]
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        cost[mask] = cost[mask & (mask - 1)] + bit_cost[low]

    best: Optional[Fraction] = None
    minimizers: list[frozenset[int]] = []
    for mask in range(1 << n):
        if best is not None and cost[mask] > best:
            continue
        feasible = True
        for bi, bj, ok_i, ok_j in edge_rules:
            has_i = mask & bi
            has_j = mask & bj
            if has_i and has_j:
                continue
            if has_i and ok_i:
                continue
            if has_j and ok_j:
                continue
            feasible = False
            break
        if not feasible:
            continue
        c = cost[mask]
        members = frozenset(i for i in range(n) if mask & (1 << i))
        if best is None or c < best:
            best = c
            minimizers = [members]
        elif c == best:
            minimizers.append(members)
    assert best is not None  # mask with everything queried is always feasible
    minimizers.sort(key=lambda s: tuple(sorted(s)))
    return best, tuple(minimizers)


def oblivious_query_set(inst: Instance) -> frozenset[int]:
    """Every non-trivial interval of ``inst`` with at least one dependency.

    The ends of `Instance.pairs` whose width on `Instance.grid` exceeds the
    threshold: the set depends on the instance alone, as a strategy that
    never looks at answers must.  This is the best such a strategy can do:
    any non-trivial interval with a dependency might be needed, and an
    adversary can make each one needed.  Trivial intervals are skipped even
    when dependent: a revealed point can never be dependent on a trivial
    interval (that would force its width above twice the threshold), so
    querying the non-trivial side of each edge always suffices.
    """
    if not isinstance(inst, Instance):
        raise InvariantViolation(f"oblivious_query_set takes an Instance, got {type(inst).__name__}")
    grid = inst.grid
    return frozenset(v for pair in inst.pairs for v in pair if grid.his[v] - grid.los[v] > grid.delta)


def cpcp_brute_force_optimum(
    inst: Instance,
) -> tuple[Fraction, tuple[int, ...]]:
    """Optimal refinement-model spend by enumerating script-prefix vectors.

    Each item may be queried 0..len(script) times; a vector of prefix
    lengths is feasible when the resulting current intervals are pairwise
    independent.  Returns the minimum total cost and the lexicographically
    smallest minimizing vector.  Items without a script get the 1-step
    script that jumps to their value.

    Searched depth first in lexicographic order on the grid ends and unit
    prices of `Instance.steps`, the table the refinement environments read.
    A branch is cut when its newest interval is dependent on an earlier one
    (no completion is feasible) or its partial cost reaches the best (costs
    are non-negative), so it finds what a full scan of every vector finds.
    """
    n, grid, table = inst.n, inst.grid, inst.steps
    if prod(len(steps) + 1 for steps in table) > CPCP_ENUMERATION_LIMIT:
        raise TooLarge(f"prefix enumeration exceeds {CPCP_ENUMERATION_LIMIT} vectors")
    # (lo, hi) of the interval, then of each script entry; the prices' prefix sums in cost units
    spans = [((grid.los[i], grid.his[i]), *((lo, hi) for _, lo, hi, _, _ in steps)) for i, steps in enumerate(table)]
    prefix_cost = [[0, *accumulate(units for *_, units in steps)] for steps in table]

    d = grid.delta
    best: Optional[int] = None
    best_vec: tuple[int, ...] = ()

    def search(i: int, cost: int, chosen: tuple, vec: tuple) -> None:
        nonlocal best, best_vec
        if i == n:
            best, best_vec = cost, vec
            return
        for k, (lo, hi) in enumerate(spans[i]):
            c = cost + prefix_cost[i][k]
            if best is not None and c >= best:
                return  # prefix costs never fall as k grows
            if not any(b - lo > d and hi - a > d for a, b in chosen):
                search(i + 1, c, chosen + ((lo, hi),), vec + (k,))

    search(0, 0, (), ())
    assert best is not None  # full prefixes are feasible
    return Fraction(best, inst.cost_grid[0]), best_vec
