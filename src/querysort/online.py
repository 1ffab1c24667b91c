"""Query environments, online strategies, and an exact expectation evaluator.

Two query models: in the exact model (`Environment`) a query reveals an
item's value, and in the refinement model (`CpcpEnvironment`) it returns the
next entry of the item's script.  Each environment keeps its state on the
instance's grids, in one live dependency graph (`QueryEnvironment`); README's
"Online strategies" gives the design.

Randomized strategies draw from an injected coin (`RandomCoin`) at a bias
that is `FIXED` or set by the rule `HALF` or `SQRT3`, whose irrational bias
stays symbolic (`Sqrt3Prob`): no float enters a decision.  Every strategy is
one `_TRIALS` entry: a ``start`` that validates and plays up to its first
coin flip, and a ``trial`` that plays on up to the next one (a strategy with
no coin plays whole in its start, and its trial never flips).  `_run` plays
a run of any of them and `expected_cost_exact` walks any coin tree once.

Every run ends in `_finish`, which fails loudly if any dependent pair
survived -- the feasibility guarantee is enforced, not assumed.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, prod
from typing import Callable, Iterator, Optional, Union

from .core import (
    Instance,
    KnowledgeState,
    Permutation,
    UncertainInterval,
    _as_tuple,
    _check_item,
    _require_ints,
    _require_ledger,
    _still_dependent,
    build_permutation,
    grid_ints,
    isqrt_bounds,
    rational_text,
    scalar,
)
from .errors import (
    DeltaNotZero,
    InvariantViolation,
    MissingRealization,
    RepeatQuery,
    ScriptExhausted,
    TooManyBranches,
)
from .graph import (
    DependencyGraph,
    _reach,
    _triangle_at,
    component_of,
    components,
    find_triangle,
    longest_path_caterpillar,
    min_cost_vertex_cover,
)
from .offline import canonical_optimum, oblivious_query_set

# ---------------------------------------------------------------------------
# Probabilities and coins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sqrt3Prob:
    """The probability ``num / (den * sqrt(3))``, kept symbolic.

    Only constructed for genuinely random trials (value strictly between
    0 and 1); `accepts` decides by squaring, `enclosure` reports.  Two
    compare and hash equal when their values are equal (``num / den``).
    """

    num: Fraction = field(compare=False)
    den: Fraction = field(compare=False)
    ratio: Fraction = field(init=False, repr=False)  # num / den: the one field compared and hashed

    def __post_init__(self):
        object.__setattr__(self, "num", scalar(self.num))
        object.__setattr__(self, "den", scalar(self.den))
        if self.num <= 0 or self.den <= 0:
            raise InvariantViolation("Sqrt3Prob needs positive parts")
        if self.num * self.num >= 3 * self.den * self.den:
            raise InvariantViolation("Sqrt3Prob must be < 1; use Fraction(1)")
        object.__setattr__(self, "ratio", self.num / self.den)

    def accepts(self, u: Fraction) -> bool:
        """Exact test ``u < num/(den*sqrt(3))`` for a rational draw ``u >= 0``."""
        if u <= 0:
            return True
        return 3 * (u * self.den) ** 2 < self.num ** 2

    def enclosure(self, precision: Fraction) -> tuple[Fraction, Fraction]:
        """Rational ``(lo, hi)`` with ``lo <= value <= hi, hi - lo <= precision``."""
        s_lo, s_hi = isqrt_bounds(3, precision)
        return (self.num * s_lo / (3 * self.den), self.num * s_hi / (3 * self.den))


Probability = Union[Fraction, Sqrt3Prob]


class RandomCoin:
    """Seeded biased-coin stream; identical seed means identical run.  A flip
    is heads when a 64-bit rational draw in [0, 1) is below the bias."""

    def __init__(self, seed: int):
        _require_ints("seed", seed)
        self._rng = random.Random(seed)

    def flip(self, p: Probability) -> bool:
        """Heads at the bias ``p``: a `Sqrt3Prob`, or a rational that `FIXED` reads."""
        u = Fraction(self._rng.getrandbits(64), 2 ** 64)
        return p.accepts(u) if isinstance(p, Sqrt3Prob) else u < FIXED(p)


def _certain(p: Probability) -> Optional[bool]:
    """The outcome of a flip at ``p`` when it is certain (``p`` ≥ 1 or ≤ 0), else None."""
    if isinstance(p, Fraction):
        if p >= 1:
            return True
        if p <= 0:
            return False
    return None


def FIXED(p) -> Fraction:
    """The uniform-cost strategy's constant coin bias ``p``, checked to lie in [0, 1]."""
    p = scalar(p)
    if not 0 <= p <= 1:
        raise InvariantViolation(f"probability {rational_text(p)} outside [0, 1]")
    return p


def _rule_weights(*weights) -> list[Fraction]:
    """A probability rule's weights as scalars, each refused when negative."""
    if min(weights := [scalar(w) for w in weights]) < 0:
        raise InvariantViolation(f"rule weights must be non-negative, got {', '.join(map(rational_text, weights))}")
    return weights


def HALF(neighbor_weight: Fraction, center_weight: Fraction) -> Probability:
    """``min(1, W / (2 w_b))``: ``W`` is the trial's neighbor weight sum, ``w_b``
    the trial center's weight."""
    neighbor_weight, center_weight = _rule_weights(neighbor_weight, center_weight)
    if neighbor_weight >= 2 * center_weight:  # also when w_b = 0, as in `SQRT3`
        return Fraction(1)
    return neighbor_weight / (2 * center_weight)


def SQRT3(neighbor_weight: Fraction, center_weight: Fraction) -> Probability:
    """``min(1, W / (w_b sqrt(3)))`` -- `HALF`'s shape with a better constant,
    kept exact via `Sqrt3Prob`."""
    neighbor_weight, center_weight = _rule_weights(neighbor_weight, center_weight)
    if neighbor_weight ** 2 >= 3 * center_weight ** 2:
        return Fraction(1)
    return Sqrt3Prob(neighbor_weight, center_weight) if neighbor_weight else Fraction(0)


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class QueryEnvironment:
    """What both query models share: query counts, spend, transcript, and the
    dependency graph of the current intervals.

    The current intervals are kept once, as their ends on the instance's
    integer grid: ``_lo`` and ``_hi`` are the graph's ``los`` and ``his``;
    `state` makes the `Fraction` view from them.  The ledger ``_paid`` adds
    cost units (step ``1/_scale``); transcript entries keep the instance's cost
    `Fraction`s.  The graph is built with the environment (`Instance.pairs`,
    kept as ``_nbrs``) and narrowed in place by `_record`, which re-tests only the
    queried vertex's neighbours: for a narrowed ``a' ⊆ a`` both ``a.hi - b.lo`` and
    ``b.hi - a.lo`` can only shrink (README, "Online strategies").
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._grid = instance.grid
        self._lo = list(self._grid.los)
        self._hi = list(self._grid.his)
        self._queried = [0] * instance.n
        self._scale, self._units = instance.cost_grid
        self._paid = 0
        self.transcript: list[tuple] = []
        self._flushed: tuple = (None, None)  # transcript lengths at the last value and static flushes
        self._graph = DependencyGraph(instance.n, instance.pairs, self._units, None, self._lo, self._hi)
        self._nbrs = tuple(map(tuple, self._graph.adj))  # instance neighbours: edges are only deleted

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def delta(self) -> Fraction:
        return self.instance.delta

    def state(self) -> KnowledgeState:
        """The current intervals as `Fraction`s, made from the grid ends: an unqueried item's is
        its instance interval, a queried one's its ends over the scale at that interval's cost."""
        s = self._grid.scale
        current = [UncertainInterval(Fraction(lo, s), Fraction(hi, s), itv.cost) if q else itv
                   for itv, q, lo, hi in zip(self.instance.intervals, self._queried, self._lo, self._hi)]
        return KnowledgeState(current, tuple(self._queried), Fraction(self._paid, self._scale))

    def graph(self) -> DependencyGraph:
        """Dependency graph of the current intervals at the instance threshold, live: every
        call returns the same object, which each query narrows in place.  Its ``los`` and
        ``his`` are this environment's grid ends, its ``weights`` the items' cost units, and it
        carries no ``intervals`` (`state` makes those).  A graph, ``adj`` set or ``los`` held
        across a query shows the state after it: copy what must stay fixed (``sorted(...)``) first."""
        return self._graph

    def _record(self, i: int, lo: int, hi: int, charge: Fraction, units: int, answer):
        """Narrow item ``i`` to ``lo``, ``hi`` on the grid (the one copy of its interval),
        charge ``charge`` (``units`` on the cost grid), return ``answer``."""
        d, los, his, adj = self._grid.delta, self._lo, self._hi, self._graph.adj
        self._queried[i] += 1
        los[i], his[i] = lo, hi
        self._paid += units
        self.transcript.append((i, answer, charge))
        for j in [j for j in adj[i] if hi - los[j] <= d or his[j] - lo <= d]:
            adj[i].remove(j)
            adj[j].remove(i)
        return answer


class Environment(QueryEnvironment):
    """Exact-model query oracle: one query per item reveals its value."""

    _described = "an Environment (each query reveals a value)"

    def __init__(self, instance: Instance):
        if instance.values is None:
            raise MissingRealization("an environment needs the hidden values")
        super().__init__(instance)

    def queried(self, i: int) -> bool:
        _check_item(i, len(self._queried))
        return self._queried[i] > 0

    def query(self, i: int) -> Fraction:
        _check_item(i, len(self._queried))
        if self._queried[i]:
            raise RepeatQuery(f"item {i} was already queried")
        at = self._grid.values[i]
        return self._record(i, at, at, self.instance.costs[i], self._units[i], self.instance.values[i])

    def _rollback(self, mark: tuple) -> None:
        """Undo every query since ``mark``, a ``(len(transcript), _paid, _flushed)``.  Newest first,
        each item queried since (unqueried at the mark: no repeats) takes back its instance ends
        and each edge that holds again; a pair is re-tested as its later end comes back, and
        dependence only grows as an interval widens, so the graph is the mark's."""
        length, self._paid, self._flushed = mark
        d, los, his, adj = self._grid.delta, self._lo, self._hi, self._graph.adj
        for i, _, _ in reversed(self.transcript[length:]):
            self._queried[i] = 0
            lo, hi = los[i], his[i] = self._grid.los[i], self._grid.his[i]
            adj[i].update(back := [j for j in self._nbrs[i] if hi - los[j] > d and his[j] - lo > d])
            for j in back:
                adj[j].add(i)
        del self.transcript[length:]


class CpcpEnvironment(QueryEnvironment):
    """Refinement-model query oracle: each query advances an item's script.

    Items without a script behave as in the exact model (a one-step script
    to the value point).  The t-th query on item ``i`` charges the t-th
    time cost when given, the item's flat cost otherwise; the steps are the
    instance's `Instance.steps`.
    """

    _described = "a CpcpEnvironment (scripts or embedded values)"

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self._scripts = instance.steps

    def times(self, i: int) -> int:
        """How many queries item ``i`` has received."""
        _check_item(i, len(self._queried))
        return self._queried[i]

    def exhausted(self, i: int) -> bool:
        _check_item(i, len(self._queried))
        return self._queried[i] >= len(self._scripts[i])

    def step_cost(self, i: int, t: int) -> Fraction:
        """Price of the (t+1)-th query on item ``i`` (t counts from 0)."""
        _check_item(i, len(self._queried))
        if type(t) is not int or t < 0:
            raise InvariantViolation(f"step index {rational_text(t, repr)} is not an int at or above 0")
        if t >= len(self._scripts[i]):
            raise ScriptExhausted(f"item {i} has only {len(self._scripts[i])} script steps")
        return self._scripts[i][t][3]

    def query(self, i: int) -> UncertainInterval:
        _check_item(i, len(self._queried))
        t = self._queried[i]
        if t >= len(self._scripts[i]):
            raise ScriptExhausted(f"item {i}: script ended before the pair resolved")
        result, lo, hi, price, units = self._scripts[i][t]
        return self._record(i, lo, hi, price, units, result)


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """What a strategy did: per-item query counts, spend, and the ordering.

    ``advice_bits`` is the exact ceiling of the summed question information
    (questions of size k contribute log2(k)); ``advice_question_sizes``
    lists the answer-space size of every question actually asked.
    ``witness_sets`` (pair-scanning strategy only) are the per-step query
    batches, each of which provably intersects every feasible query set.
    ``queried`` is kept as a tuple and ``total_cost`` as its `scalar`, refused
    as `KnowledgeState` refuses them, and the total unless it equals the
    transcript's charges, each read by `scalar` and summed as ints on their
    lcm denominator (`grid_ints`).
    """

    queried: tuple[int, ...]
    total_cost: Fraction
    permutation: Permutation
    transcript: tuple
    advice_bits: Optional[int] = None
    advice_question_sizes: Optional[tuple[int, ...]] = None
    witness_sets: Optional[tuple[frozenset[int], ...]] = None
    comparisons: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "queried", _as_tuple("queried", self.queried))
        object.__setattr__(self, "total_cost", scalar(self.total_cost))
        _require_ledger(self.queried, self.total_cost)
        scale, units = grid_ints([scalar(c) for _, _, c in _as_tuple("transcript", self.transcript)])
        if (charged := Fraction(sum(units), scale)) != self.total_cost:
            raise InvariantViolation(
                f"total cost {rational_text(self.total_cost)} does not match transcript sum {rational_text(charged)}"
            )

    @property
    def queried_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.queried) if c > 0)


def _finish(env: QueryEnvironment, permutation: Optional[Permutation] = None,
            **extra) -> RunReport:
    """The run's report, ordering its final intervals; a strategy that made its
    own ``permutation`` passes it, and no dependent pair may be left either way
    (for an own ordering, the live graph must be edgeless).  Only the ordering
    reads `state`'s `Fraction` intervals: the counts and the spend come from the
    environment's ints, which `_record` and `_rollback` keep at or above 0."""
    if permutation is None:
        permutation = build_permutation(env.state().current, env.delta)
    else:
        _edgeless_paid(env, range(env.n))
    return RunReport(
        queried=tuple(env._queried),
        total_cost=Fraction(env._paid, env._scale),
        permutation=permutation,
        transcript=tuple(env.transcript),
        **extra,
    )


def _first_edges(env: QueryEnvironment) -> Iterator[tuple[int, int]]:
    """The smallest edge of ``env``'s live graph, read again at each step, until
    none is left.  It starts at the smallest vertex with an edge, which never
    decreases (queries only delete edges), so one pointer walks the graph once."""
    adj, v = env.graph().adj, 0
    while True:
        while v < len(adj) and not adj[v]:
            v += 1
        if v == len(adj):
            return
        yield v, min(adj[v])  # v is the smallest vertex with an edge: its neighbours are larger


def _edgeless_paid(env: QueryEnvironment, vertices) -> int:
    """``env``'s spend in cost units.  While one of ``vertices`` (ascending, and holding each
    one's neighbours) has an edge, raises `UnresolvedDependency` in `build_permutation`'s words,
    naming the smallest pair: the first vertex with an edge and its smallest neighbour."""
    adj = env.graph().adj
    if (i := next((v for v in vertices if adj[v]), None)) is not None:
        _still_dependent(env.state().current, i, min(adj[i]))
    return env._paid


def _no_flip(env: QueryEnvironment, rule, state) -> None:
    """The trial of a strategy with no coin: its start played it whole."""


def _next_flip(env: QueryEnvironment, rule, state, trial) -> Optional[tuple]:
    """Play ``trial``, taking each certain coin step (p ≤ 0 or ≥ 1) and flushing value
    witnesses after it, up to the next real flip: its step, or None at the run's end."""
    while (step := trial(env, rule, state)) is not None:
        p, heads, tails = step
        if (outcome := _certain(p)) is None:
            return step
        (heads if outcome else tails)(env)
        _flush_value_witnesses(env)
    return None


def _run(strategy: Callable[..., RunReport], env: QueryEnvironment, rule=None, rng=None) -> RunReport:
    """One run of ``strategy``'s `_TRIALS` entry on ``env``: its start, then each real flip
    on the side ``rng`` picks (a certain step consumes no randomness), then `_finish` with
    the report's extras, which the start of a strategy with no coin returns."""
    start, trial, key = _entry(strategy, rule)
    if not isinstance(env, model := _model(start)):
        raise InvariantViolation(f"this strategy runs on {model._described}")
    state = start(env, rule)
    while (step := _next_flip(env, rule, state, trial)) is not None:
        if rng is None:
            raise InvariantViolation("this run is randomized; pass rng=RandomCoin(seed)")
        p, heads, tails = step
        (heads if rng.flip(p) else tails)(env)
        _flush_value_witnesses(env)
    return _finish(env, **(state if key is None else {}))


def _named(obj) -> str:
    """``obj`` in a refusal: its qualified name or its type (a repr may vary by run or pass the digit cap)."""
    return getattr(obj, "__qualname__", None) or type(obj).__name__


def _model(start) -> type:
    """The environment class the strategy with ``start`` plays on: the exact-model strategies'
    picks, guarantees and optimum hold only where each query reveals a value."""
    return CpcpEnvironment if start is _algorithm3_cpcp else Environment


# ---------------------------------------------------------------------------
# Witness flushing
# ---------------------------------------------------------------------------


def _flush(env: QueryEnvironment, witnessed: Callable[[int], bool], static: bool) -> list[int]:
    """Query the smallest witness, round after round, until none is left.

    Vertex ``i`` is a witness when ``witnessed(i)``, a loop testing grid
    endpoints over its neighbours in the live graph's ``adj``.  Narrowing an
    interval keeps every containment and every point neighbour, so a vertex
    stops being a witness only when it is queried, and becomes one only at or
    next to a queried vertex.  So a flush tests the vertices queried since the
    last flush of its kind and their neighbours (a run's first one scans every
    active vertex), and each round re-tests just the queried vertex and its
    neighbours.  A value witness is a static witness of a point: a static
    flush also ends the value witnesses, but not the other way round.
    """
    adj = env.graph().adj
    mark = env._flushed[static]
    seeds = env.graph().active_vertices() if mark is None else {
        k for i, _, _ in env.transcript[mark:] for k in (i, *adj[i])}
    pending = sorted([k for k in seeds if witnessed(k)])
    done: list[int] = []
    while pending:
        i = heappop(pending)
        env.query(i)
        done.append(i)
        for k in {i} | adj[i]:
            if k not in pending and witnessed(k):
                heappush(pending, k)
    now = len(env.transcript)
    env._flushed = (now, now if static else env._flushed[1])
    return done


def _flush_value_witnesses(env: QueryEnvironment) -> list[int]:
    """Query every interval that strictly straddles a known value (cascading).

    Such an interval belongs to every feasible query set, so querying it
    immediately is always safe.  Known values are the current points, and
    ``singleton_witness_value(a, v, delta)`` is ``dependent(a, [v, v], delta)``,
    so a value witness is exactly a vertex of the environment's graph with a
    point neighbour (two points are never dependent).  After this returns,
    every point is isolated in the dependency graph.
    """
    adj, lo, hi = env.graph().adj, env._lo, env._hi

    def witnessed(i: int) -> bool:
        for j in adj[i]:
            if lo[j] == hi[j]:
                return True
        return False
    return _flush(env, witnessed, False)


def _preprocess_witnesses(env: QueryEnvironment) -> list[int]:
    """Query every static or value witness, cascading: `singleton_witness_static` on the
    current intervals, which covers the value form too, since queried items are points.

    Such a containment is always a dependency, so only graph neighbours need
    testing.  In the refinement model an item may be queried several times in
    a row while its refinements keep straddling.
    """
    adj, lo, hi, d = env.graph().adj, env._lo, env._hi, env._grid.delta

    def witnessed(i: int) -> bool:
        inner_lo, inner_hi = lo[i] + d, hi[i] - d
        for j in adj[i]:
            if inner_lo < lo[j] and hi[j] < inner_hi:
                return True
        return False
    return _flush(env, witnessed, True)


# ---------------------------------------------------------------------------
# Simple strategies
# ---------------------------------------------------------------------------


def run_oblivious(env: Environment) -> RunReport:
    """Query everything that could possibly matter, then order.

    The best answer-blind strategy: `oblivious_query_set`, fixed before any
    answer, less the items the environment has already queried.
    """
    return _run(run_oblivious, env)


def _run_oblivious(env: Environment, rule) -> dict:
    for i in sorted(oblivious_query_set(env.instance)):
        if not env.queried(i):
            env.query(i)
    return {}


def simple_adaptive(env: Environment) -> RunReport:
    """Repeatedly query both sides of the first dependent pair.

    Pairs are scanned in index order.  Each step's batch (the pair members
    not yet queried) is recorded as a witness set: at least one member of
    each batch appears in every feasible query set, and the batches are
    disjoint -- which is exactly why this strategy never pays more than
    twice the optimum under uniform costs.
    """
    return _run(simple_adaptive, env)


def _simple_adaptive(env: Environment, rule) -> dict:
    witness_sets: list[frozenset[int]] = []
    for i, j in _first_edges(env):
        batch = [k for k in (i, j) if not env.queried(k)]
        for k in batch:
            env.query(k)
        witness_sets.append(frozenset(batch))
    return dict(witness_sets=tuple(witness_sets))


def simple_adaptive_stable_sort(env: Environment) -> RunReport:
    """Merge sort whose comparator queries a dependent pair before comparing.

    Zero-threshold only.  After resolving (at most one query per side), the
    pair admits at least one safe order; when both orders are safe the
    earlier input position goes first, so equal values keep their original
    order -- a stable sort.  Comparison count is the usual merge-sort
    O(n log n).  The sort's merges are its queries, so its start returns
    the order it made as an extra, and `_finish` only checks it.
    """
    return _run(simple_adaptive_stable_sort, env)


def _simple_adaptive_stable_sort(env: Environment, rule) -> dict:
    if env.delta != 0:
        raise DeltaNotZero("the sorting comparator needs threshold zero")
    comparisons = 0
    g = env.graph()

    def goes_first(x: int, y: int) -> bool:
        nonlocal comparisons
        comparisons += 1
        if g.has_edge(x, y):
            for k in (x, y):
                if not env.queried(k):
                    env.query(k)
        return g.his[x] <= g.los[y]

    def merge_sort(items: list[int]) -> list[int]:
        if len(items) <= 1:
            return items
        mid = len(items) // 2
        left = merge_sort(items[:mid])
        right = merge_sort(items[mid:])
        out: list[int] = []
        a = b = 0
        while a < len(left) and b < len(right):
            if goes_first(left[a], right[b]):
                out.append(left[a])
                a += 1
            else:
                out.append(right[b])
                b += 1
        out.extend(left[a:])
        out.extend(right[b:])
        return out

    order = merge_sort(list(range(env.n)))
    return dict(permutation=Permutation(order), comparisons=comparisons)


def vc_adaptive(env: Environment) -> RunReport:
    """Query a minimum-cost vertex cover, then whatever is still dependent.

    Two passes always suffice: querying can only remove dependencies, and
    after the cover is revealed every remaining dependency pins a
    still-unqueried interval that must be queried in every solution.
    """
    return _run(vc_adaptive, env)


def _vc_adaptive(env: Environment, rule) -> dict:
    for v in min_cost_vertex_cover(env.graph()):
        env.query(v)
    for v in env.graph().active_vertices():
        if not env.queried(v):
            env.query(v)
    return {}


# ---------------------------------------------------------------------------
# The uniform-cost randomized strategy
# ---------------------------------------------------------------------------


def algorithm1(env: Environment, rule: Optional[Fraction] = None, rng=None) -> RunReport:
    """Adaptive strategy tuned for uniform costs, with a biased coin.

    ``rule`` is the coin bias ``p``, a `Fraction` in [0, 1] (default 1/2);
    ``FIXED(p)`` checks one.  A warm-up always runs first, as in the
    paper's algorithm: query all static/value witnesses (cascading).  Main
    loop, while any dependency remains:

    * If some component is a single edge ``{u, v}`` (smallest first), flip
      the coin: query the lower-index member with probability ``p``, the
      other one otherwise; then query its partner only if the revealed
      value forces it.
    * Otherwise take ``x`` = the non-isolated vertex whose interval ends
      first, ``y`` = its first-ending neighbor, and ``z`` = another
      neighbor of ``x`` (of ``y`` when ``x`` has no other).  Query ``y``;
      if ``x`` strictly straddles the revealed value, or ``x`` and ``z``
      are currently dependent, query ``x`` then ``z``.

    Every step ends by flushing value witnesses.  With a fair coin the
    expected spend stays within 3/2 of the optimum; as a deterministic rule
    (p = 0 or 1) it stays within 5/3 on zero-threshold instances whose
    warmed-up graph has no single-edge component.  All ties break to the
    smaller index; the picks come from `_algorithm1_start`'s lazy heaps.
    """
    return _run(algorithm1, env, Fraction(1, 2) if rule is None else rule, rng)


def _algorithm1_start(env: Environment, p: Fraction, state: Optional[tuple] = None, vertices=None) -> tuple:
    """Start a walk: at the root, check the bias and costs and run
    the warm-up.  The state is the picks among ``vertices`` (ascending; all at
    the root): a heap of the smaller ends of single-edge components, a heap of
    ``(hi, v)`` per active vertex, and the transcript length the heaps are current to."""
    if state is None:
        if not isinstance(p, Fraction):
            raise InvariantViolation("this strategy takes a fixed coin bias")
        FIXED(p)  # refuses a bias outside [0, 1]
        units = env._units
        if any(u != units[0] for u in units):
            raise InvariantViolation("this strategy requires uniform query costs")
        _preprocess_witnesses(env)
        vertices = range(env.n)
    adj, his = env.graph().adj, env.graph().his
    pairs = [v for v in vertices if len(adj[v]) == 1 and v < (k := min(adj[v])) and len(adj[k]) == 1]
    return pairs, sorted((his[v], v) for v in vertices if adj[v]), [len(env.transcript)]


def _first_ending(adj: list[set[int]], ends: list[tuple[int, int]]) -> Optional[int]:
    """The first-ending active vertex (or None) from the lazy heap ``ends`` of ``(hi, v)``, read before
    any query or after a value flush: points are isolated then, so an active vertex's entry is current."""
    while ends and not adj[ends[0][1]]:
        heappop(ends)  # inactive for good: edges are only deleted
    return ends[0][1] if ends else None


def _algorithm1_trial(env: Environment, p: Fraction, state: tuple) -> Optional[tuple]:
    """Run `algorithm1`'s deterministic steps up to its next single-edge flip."""
    pairs, ends, seen = state
    g = env.graph()
    while True:
        for j in _touched(env, seen[0]):  # only these can form new single edges
            if len(g.adj[j]) == 1 and len(g.adj[k := min(g.adj[j])]) == 1:
                heappush(pairs, min(j, k))
        seen[0] = len(env.transcript)
        while pairs and not g.adj[pairs[0]]:
            heappop(pairs)  # a single edge stays one until a query deletes it
        if pairs:
            u, (v,) = pairs[0], g.adj[pairs[0]]
            return p, _query_pair(u, v), _query_pair(v, u)
        if (x := _first_ending(g.adj, ends)) is None:
            return None
        first_ending = lambda w: (g.his[w], w)
        y = min(g.adj[x], key=first_ending)
        z = min((w for w in (g.adj[x] if len(g.adj[x]) >= 2 else g.adj[y]) if w not in (x, y)), key=first_ending)
        env.query(y)
        # the live graph keeps x-y exactly when x straddles y's revealed value
        if g.has_edge(x, y) or g.has_edge(x, z):
            env.query(x)
            env.query(z)
        _flush_value_witnesses(env)


def _touched(env: QueryEnvironment, mark: int) -> set[int]:
    """The former neighbours of the vertices queried since transcript length ``mark``: a query
    deletes edges only at its vertex, so only these can have lost an edge since."""
    return {j for i, _, _ in env.transcript[mark:] for j in env._nbrs[i]}


def _query_pair(first: int, second: int) -> Callable[[QueryEnvironment], None]:
    """Query ``first``, then ``second`` only if the revealed value forces it."""
    def action(env: QueryEnvironment) -> None:
        env.query(first)
        if env.graph().has_edge(first, second):
            env.query(second)

    return action


def no_2component_after_preprocess(inst: Instance) -> bool:
    """Does the warmed-up dependency graph avoid single-edge components?

    Simulates the warm-up (static/value witness cascade) on the hidden
    realization and inspects what is left.  The deterministic 5/3 guarantee
    of `algorithm1` needs this to hold.
    """
    return all(size != 2 for size in residual_component_sizes(inst))


def residual_component_sizes(inst: Instance) -> tuple[int, ...]:
    """Sizes of the dependent components left after the witness warm-up."""
    if inst.delta != 0:
        raise DeltaNotZero("the warm-up analysis is defined at threshold zero")
    env = Environment(inst)
    _preprocess_witnesses(env)
    return tuple(len(c) for c in components(env.graph()) if len(c) >= 2)


# ---------------------------------------------------------------------------
# The arbitrary-cost randomized strategy
# ---------------------------------------------------------------------------


def algorithm2(env: Environment, rule: Callable[..., Probability], rng=None) -> RunReport:
    """Adaptive strategy for arbitrary costs: local-ratio plus path trials.

    ``rule`` is `HALF` (ratio at most 57/32) or `SQRT3` (1 + 4/(3 sqrt 3)).

    Keeps a residual copy of the weights, in cost units, for analysis-style
    bookkeeping (the environment always charges original costs):

    * any dependency-active vertex with zero residual weight is queried
      outright;
    * any triangle has the minimum residual weight of its corners
      subtracted from all three;
    * otherwise every component is a tree.  The component of the smallest
      active vertex plays a trial: along its longest path (frozen the first
      time the component reaches this phase, so repeat visits walk the same
      spine), take the first three still-active spine vertices ``a, b, c``;
      with probability ``rule(W, w_b)`` -- ``W`` being the residual weight
      of ``b``'s neighbors other than ``c`` -- query ``b``, else query all
      those neighbors.  Queries delete edges only at the queried vertex, so
      the component is a subtree of the one whose path was frozen and meets
      that path in a contiguous run: ``a``, when there is one, is such a
      neighbor, so every trial has something to query.

    Value witnesses are flushed after every query step; the picks come from
    `_algorithm2_start`'s heap and positions.
    """
    return _run(algorithm2, env, rule, rng)


def _algorithm2_start(env: Environment, rule, state: Optional[tuple] = None, vertices=None) -> tuple:
    """Start a walk: the residual weights, the frozen spines, the walk's ``vertices`` (ascending), a lazy heap
    of the zero-residual ones, and two positions in ``vertices`` that never decrease: the smallest active vertex
    and the smallest triangle's first vertex.  The root checks the rule and takes every
    vertex and fresh residuals.  A walk below reads its parent's residuals, which no trial writes after the first
    real flip (no triangle is left then), and spines if its component froze (whole, once), else starts with none."""
    if state is None:
        if rule is not HALF and rule is not SQRT3:
            raise InvariantViolation("this strategy takes the half or sqrt3 rule")
        state, vertices = (list(env._units), {}), range(env.n)
    frozen = state[1] if vertices and vertices[0] in state[1] else {}
    return state[0], frozen, vertices, [v for v in vertices if state[0][v] == 0], [0, 0]


def _algorithm2_trial(env: Environment, rule, state) -> Optional[tuple]:
    """Run `algorithm2`'s zero-weight and triangle steps up to its next path trial."""
    residual, frozen_paths, vertices, zeros, at = state
    g = env.graph()
    while True:
        while at[0] < len(vertices) and not g.adj[vertices[at[0]]]:
            at[0] += 1
        if at[0] == len(vertices):
            return None
        while zeros and not g.adj[zeros[0]]:
            heappop(zeros)  # inactive for good; a residual, once zero, stays zero
        if zeros:
            env.query(zeros[0])
            _flush_value_witnesses(env)
            continue
        while at[1] < len(vertices) and (triangle := _triangle_at(g, vertices[at[1]])) is None:
            at[1] += 1
        if at[1] == len(vertices):
            break
        take = min(residual[v] for v in triangle)
        for v in triangle:
            residual[v] -= take
            if residual[v] == 0:
                heappush(zeros, v)
    # Forest phase: trial on the component of the smallest active vertex.
    comp = component_of(g, vertices[at[0]])
    path = frozen_paths.get(comp[0])  # a component's vertices are frozen together or not at all
    if path is None:
        path = longest_path_caterpillar(g, comp)
        frozen_paths.update(dict.fromkeys(comp, path))
    comp_set = set(comp)
    spine = [v for v in path if v in comp_set]
    b = spine[1] if len(spine) >= 2 else spine[0]
    c = spine[2] if len(spine) >= 3 else None
    targets = sorted(g.adj[b] - {c})
    neighbor_weight = sum([residual[u] for u in targets])  # in units: both rules are scale-free
    return rule(neighbor_weight, residual[b]), _query_all([b]), _query_all(targets)


def _query_all(items: list[int]) -> Callable[[QueryEnvironment], None]:
    """Query ``items`` in order."""
    def action(env: QueryEnvironment) -> None:
        for i in items:
            env.query(i)

    return action


# ---------------------------------------------------------------------------
# The refinement-model strategy
# ---------------------------------------------------------------------------


def algorithm3_cpcp(env: CpcpEnvironment) -> RunReport:
    """Local-ratio strategy for queries that return refined intervals.

    Works on the time-expanded cost vector, in cost units: each potential
    query step of each item is its own coordinate.  While dependencies
    remain: query any active item whose *current step* has zero residual
    price (smallest
    index first); otherwise subtract the smaller current-step residual from
    both sides of the first dependent pair.  After every query, re-query
    any item whose current interval strictly contains another current
    interval padded by the threshold -- in this model that containment rule
    covers revealed values too, since values are just point intervals.
    Zero-price items wait in a lazy min-heap: a price changes only by a
    subtraction or a query, which push their items again; a popped item gone
    inactive (for good: edges are only deleted) or priced is dropped.
    """
    return _run(algorithm3_cpcp, env)


def _algorithm3_cpcp(env: CpcpEnvironment, rule) -> dict:
    residual: dict[tuple[int, int], int] = {}  # in cost units; an active item has a step left (see below)

    def current_cost(i: int) -> int:
        t = env.times(i)
        return residual.setdefault((i, t), env._scripts[i][t][4])

    adj = env.graph().adj
    zeros = [k for k in env.graph().active_vertices() if current_cost(k) == 0]  # ascending: a heap
    for i, j in _first_edges(env):
        # Post-flush, every active vertex is a genuine interval with script
        # steps remaining (a point cannot be straddling-dependent here).
        while zeros and not (adj[zeros[0]] and current_cost(zeros[0]) == 0):
            heappop(zeros)
        if zeros:
            changed = [heappop(zeros)]
            env.query(changed[0])
        else:
            take = min(current_cost(i), current_cost(j))
            residual[(i, env.times(i))] -= take
            residual[(j, env.times(j))] -= take
            changed = [i, j]
        for k in changed + _preprocess_witnesses(env):
            heappush(zeros, k)
    return {}


# ---------------------------------------------------------------------------
# Advice strategies
# ---------------------------------------------------------------------------


class AdviceOracle:
    """Answers questions about one fixed optimum query set.

    The reference set is `canonical_optimum`'s, fixed for the oracle's lifetime,
    so all answers are mutually consistent.  Question cost is information: a
    question with k possible answers adds log2(k); `bits_used` reports the exact
    ceiling of the running total via the product of sizes.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.optimum_cost, self.optimum_set = canonical_optimum(instance)
        self.question_sizes: list[int] = []

    def ask_membership(self, j: int) -> bool:
        """1-bit question: is item ``j`` in the reference optimum?"""
        self.question_sizes.append(2)
        return j in self.optimum_set

    def ask_excluded(self, group: frozenset[int], fallback: int) -> int:
        """log2(k)-bit question: name a group member outside the optimum.

        Returns the smallest-index member not in the reference set, or
        ``fallback`` when the whole group is inside.
        """
        self.question_sizes.append(len(group))
        outside = sorted(set(group) - set(self.optimum_set))
        return outside[0] if outside else fallback

    @property
    def bits_used(self) -> int:
        """ceil(log2) of the product of the question sizes, or 0 when it is at most 1."""
        return max(prod(self.question_sizes) - 1, 0).bit_length()


def _advised(env: QueryEnvironment, oracle) -> None:
    """Refuse an ``oracle`` that is not an `AdviceOracle` of ``env``'s instance."""
    if not (isinstance(oracle, AdviceOracle) and oracle.instance == env.instance):
        raise InvariantViolation("the advice must come from an AdviceOracle of this environment's instance")


def advice_half(env: Environment, oracle: AdviceOracle) -> RunReport:
    """Optimal-cost strategy using at most one bit per two items (threshold 0).

    In a triangle, the asked-about interval is the 'middle' one (neither
    the leftmost start nor, among the rest, the rightmost end); in a
    forest, it is the neighbor of the smallest-index leaf.  A 'yes' means
    the interval is in the reference optimum: query it.  A 'no' means every
    one of its current neighbors is (an unqueried dependency must be
    resolved from the other side): query them all.  No answer is
    remembered: after a 'no' on ``j`` its neighbours are queried and
    flushed, and at threshold zero a point ``j`` still straddles makes it a
    value witness, so ``j`` is inactive for good.  Triangles only disappear,
    so `find_triangle` resumes from the last one; leaves wait in a lazy
    heap, fed from the former neighbours of the vertices queried since.
    """
    return _run(advice_half, env, oracle)


def _advice_half(env: Environment, oracle: AdviceOracle) -> dict:
    _advised(env, oracle)
    if env.delta != 0:
        raise DeltaNotZero("the one-bit strategy is defined at threshold zero")
    g = env.graph()
    leaves, at, seen = [v for v in range(env.n) if len(g.adj[v]) == 1], 0, 0
    while True:
        triangle = find_triangle(g, at)
        at = triangle[0] if triangle else g.n
        if triangle is not None:
            group = set(triangle)
            i = min(group, key=lambda w: (g.los[w], w))
            k = min(group - {i}, key=lambda w: (-g.his[w], w))
            (j,) = group - {i, k}
        else:
            for v in _touched(env, seen):
                if len(g.adj[v]) == 1:
                    heappush(leaves, v)
            seen = len(env.transcript)
            while leaves and not g.adj[leaves[0]]:
                heappop(leaves)  # a leaf stays one until it loses its edge, and then is inactive for good
            if not leaves:  # a forest without a leaf has no edge
                break
            (j,) = g.adj[leaves[0]]
        if oracle.ask_membership(j):
            env.query(j)
        else:
            _query_all(sorted(g.adj[j]))(env)
        _flush_value_witnesses(env)
    return dict(advice_bits=oracle.bits_used, advice_question_sizes=tuple(oracle.question_sizes))


def advice_lg3(env: Environment, oracle: AdviceOracle) -> RunReport:
    """Optimal-cost strategy spending about 0.53 bits per item (any threshold).

    The first-ending active interval and its neighbors always form a
    clique (each neighbor ends no earlier and starts over δ before its
    end), and a clique holds at most one interval outside any feasible
    set.  Each round asks the oracle to name that member (or confirm there
    is none) and queries the rest of the clique.  Named members are
    remembered; a clique containing one costs no further advice.
    """
    return _run(advice_lg3, env, oracle)


def _advice_lg3(env: Environment, oracle: AdviceOracle) -> dict:
    _advised(env, oracle)
    known_out: set[int] = set()
    g = env.graph()
    ends = sorted((g.his[v], v) for v in range(env.n) if g.adj[v])
    while (x := _first_ending(g.adj, ends)) is not None:
        group = frozenset({x} | g.adj[x])
        if remembered := group & known_out:
            y = min(remembered)
        else:
            y = oracle.ask_excluded(group, x)
            if y != x:
                known_out.add(y)
        _query_all(sorted(group - {y}))(env)
        _flush_value_witnesses(env)
    return dict(advice_bits=oracle.bits_used, advice_question_sizes=tuple(oracle.question_sizes))


# ---------------------------------------------------------------------------
# Exact expectation by walking the coin tree on one environment
# ---------------------------------------------------------------------------

#: Width of the rational enclosures used for symbolic probabilities.
_ENCLOSURE_PRECISION = Fraction(1, 10 ** 24)
#: Node budget: one `expected_cost_exact` call walks at most this many real flips.
_MAX_FLIPS_WALKED = 2 ** 16


def _algorithm2_key(state, comp: list[int]) -> tuple:
    """A component's vertices, residual weights and frozen spine (None before its
    first trial; a component's vertices are frozen together or not at all)."""
    residual, frozen_paths = state[:2]
    path, inside = frozen_paths.get(comp[0]), set(comp)
    spine = None if path is None else tuple(v for v in path if v in inside)
    return tuple(comp), tuple(residual[v] for v in comp), spine


#: Every strategy, as its (start, trial, key) triple.  Just after a flush, a dependent
#: component's key fixes the rest of its walk; a strategy with no coin has none.
_TRIALS = {
    run_oblivious: (_run_oblivious, _no_flip, None),
    simple_adaptive: (_simple_adaptive, _no_flip, None),
    simple_adaptive_stable_sort: (_simple_adaptive_stable_sort, _no_flip, None),
    vc_adaptive: (_vc_adaptive, _no_flip, None),
    algorithm1: (_algorithm1_start, _algorithm1_trial, lambda state, comp: tuple(comp)),
    algorithm2: (_algorithm2_start, _algorithm2_trial, _algorithm2_key),
    algorithm3_cpcp: (_algorithm3_cpcp, _no_flip, None),
    advice_half: (_advice_half, _no_flip, None),
    advice_lg3: (_advice_lg3, _no_flip, None),
}


def _entry(strategy, rule) -> tuple:
    """``strategy``'s `_TRIALS` entry, looked up by identity (``strategy`` may be unhashable),
    also past a `functools.wraps` wrapper such as a tracer's.  Anything else is refused, and
    so is a ``rule`` given to a strategy whose public function takes its environment alone."""
    unwrapped = inspect.unwrap(strategy)
    entry = next((t for s, t in _TRIALS.items() if s is unwrapped), None)
    if entry is None:
        raise InvariantViolation(f"{_named(strategy)} is not a querysort strategy")
    if rule is not None and unwrapped.__code__.co_argcount == 1:
        raise InvariantViolation(f"{unwrapped.__name__} takes no rule, got {_named(rule)}")
    return entry


def _lowest(e: int, m: int, d: int) -> tuple:
    g = gcd(e, m, d)  # without it, d grows with the size of the tree, not its depth
    return e // g, m // g, d // g


def _join(a: tuple, b: tuple) -> tuple:
    """Two independent parts as one, each an (expected spend, mass, denominator) int triple."""
    return _lowest(a[0] * b[1] + b[0] * a[1], a[1] * b[1], a[2] * b[2])


def _mix(x: tuple, a: tuple, y: tuple, b: tuple) -> tuple:
    """The triple of side ``a`` weighted ``x`` and side ``b`` ``y``, each an int pair (num, den)."""
    u, w = x[0] * y[1] * b[2], y[0] * x[1] * a[2]
    return _lowest(u * a[0] + w * b[0], u * a[1] + w * b[1], x[1] * y[1] * a[2] * b[2])


def expected_cost_exact(
    algorithm: Callable[..., RunReport], inst: Instance, rule
) -> Union[Fraction, tuple[Fraction, Fraction]]:
    """Exact expected total cost over every branch of the strategy's coin.

    ``algorithm`` is any strategy (or a `functools.wraps` wrapper of one), and
    ``rule`` what it takes beyond its environment: a bias, `HALF` or `SQRT3` for
    `algorithm1` and `algorithm2`, an `AdviceOracle` for the advice strategies,
    None for the rest; anything else is refused.  A strategy with no coin is
    one leaf, the spend of its run left unordered.  The walk, ``False`` side
    first, is README's ("Online strategies").  Walking each dependent
    component apart after a flip is exact: a query deletes edges only at its
    own vertex, both flushes test only neighbours, and every trial step
    chooses within one component, so components run as they would alone, on
    independent coins.  The root is not split: before `algorithm2`'s first
    flush, a value witness pending in one component is flushed at another
    component's first step.

    Raises `TooManyBranches` past 2^16 real flips walked (a memo hit walks none).
    Returns an exact rational when every probability is rational, and a rational
    enclosure ``(lo, hi)`` (width far below 1e-9) when the square-root rule is involved.
    """
    start, trial, key = _entry(algorithm, rule)
    env = _model(start)(inst)  # the one environment of the whole walk
    memo: dict = {}  # component key -> its subtree
    walked = 0  # real flips walked in this call; a memo hit walks none

    def walk(state, base: int, comp):
        """The subtree of component ``comp`` (ascending): (lo, hi), each an (expected spend in cost units
        since ``base``, mass, denominator) triple; a flip's ``False`` side, then, rolled back, its ``True`` side.
        Nothing writes ``state`` after the flip, so both sides split from it as it was then."""
        nonlocal walked
        if (step := _next_flip(env, rule, state, trial)) is None:
            leaf = (_edgeless_paid(env, comp) - base, 1, 1)
            return leaf, leaf
        if (walked := walked + 1) > _MAX_FLIPS_WALKED:
            raise TooManyBranches(f"the coin tree has more than {_MAX_FLIPS_WALKED} real flips to walk")
        p, heads, tails = step
        p_lo, p_hi = p.enclosure(_ENCLOSURE_PRECISION) if isinstance(p, Sqrt3Prob) else (p, p)
        (ln, ld), (hn, hd) = (p_lo.numerator, p_lo.denominator), (p_hi.numerator, p_hi.denominator)
        mark = len(env.transcript), env._paid, env._flushed
        t_lo, t_hi = yield from split(state, tails, base, comp)
        env._rollback(mark)
        h_lo, h_hi = yield from split(state, heads, base, comp)
        lo = _mix((ln, ld), h_lo, (hd - hn, hd), t_lo)  # and hi, unless an end differs: computed once
        hi = lo if p_lo is p_hi and h_lo is h_hi and t_lo is t_hi else _mix((hn, hd), h_hi, (ld - ln, ld), t_hi)
        return lo, hi

    def split(state, side, base: int, comp):
        """`walk`'s subtree after taking ``side``: each dependent component left among ``comp`` is walked once,
        on its own vertices, from a state `start` reads off ``state``; yields each walk's start, gets its subtree."""
        side(env)
        _flush_value_witnesses(env)
        graph, seen, at = env.graph(), set(), env._paid
        parts = [(c, key(state, c)) for c in (_reach(graph, v, seen) for v in comp if graph.adj[v] and v not in seen)]
        for part, k in parts:
            if k not in memo:
                memo[k] = yield start(env, rule, state, part), env._paid, part
        lo = hi = (at - base, 1, 1)
        for _, k in parts:
            part_lo, part_hi = memo[k]
            joined = _join(lo, part_lo)  # and hi, unless an end differs: computed once
            lo, hi = joined, joined if lo is hi and part_lo is part_hi else _join(hi, part_hi)
        return lo, hi

    walks, sent = [walk(start(env, rule), 0, range(env.n))], None  # the open walks of the current path, innermost last
    while walks:
        try:
            walks.append(walk(*walks[-1].send(sent)))
            sent = None
        except StopIteration as done:
            walks.pop()
            sent = done.value
    (e_lo, _, d_lo), (e_hi, _, d_hi) = sent
    e_lo, e_hi = Fraction(e_lo, d_lo * env._scale), Fraction(e_hi, d_hi * env._scale)
    return e_lo if e_lo == e_hi else (e_lo, e_hi)
