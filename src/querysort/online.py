"""Query environments, online strategies, and an exact expectation evaluator.

Two query models are implemented.

*Exact model* (`Environment`): querying an interval reveals its hidden value,
charges its cost, and collapses it to a point.  Querying twice is an error.

*Refinement model* (`CpcpEnvironment`): each query on an item returns the
next entry of a nested script of closed intervals ending in the value point;
the t-th query may have its own price.  An instance without scripts embeds
into this model as one-step scripts.

Both environments keep the dependency graph of their current intervals,
and every strategy and witness flush reads it (`QueryEnvironment.graph`).
A query can only delete edges, and only at the queried vertex, because
for a narrowed interval ``a' ⊆ a`` both ``a.hi - b.lo`` and
``b.hi - a.lo`` can only shrink.  So each query re-tests just that
vertex's neighbours instead of rebuilding the graph.

Randomized strategies draw from an injected coin (`RandomCoin` for seeded
runs).  Probabilities are exact rationals, except the square-root-of-three
trial rule, which is kept symbolic (`Sqrt3Prob`) and decided by comparing
squares -- no floating point anywhere.  `expected_cost_exact` replays a
strategy down every branch of its coin and returns the exact expected
spend (an interval enclosure when the square-root rule is involved).

Every strategy returns a `RunReport` and finishes by ordering the final
intervals, which fails loudly if any dependent pair survived -- the
feasibility guarantee is enforced, not assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Optional, Union

from .core import (
    Instance,
    KnowledgeState,
    Permutation,
    UncertainInterval,
    build_permutation,
    dependent,
    dependent_pairs,
    isqrt_bounds,
    require_independent,
    scalar,
    singleton_witness_static,
    singleton_witness_value,
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
    component_of,
    components,
    find_triangle,
    longest_path_caterpillar,
    min_cost_vertex_cover,
)
from .offline import brute_force_optimum, oblivious_query_set

# ---------------------------------------------------------------------------
# Probabilities and coins
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sqrt3Prob:
    """The probability ``num / (den * sqrt(3))``, kept symbolic.

    Only constructed for genuinely random trials (value strictly between
    0 and 1).  Decisions against a rational draw are made exactly by
    squaring; numeric reporting goes through a rational enclosure.
    """

    num: Fraction
    den: Fraction

    def __post_init__(self):
        object.__setattr__(self, "num", scalar(self.num))
        object.__setattr__(self, "den", scalar(self.den))
        if self.num <= 0 or self.den <= 0:
            raise InvariantViolation("Sqrt3Prob needs positive parts")
        if self.num * self.num >= 3 * self.den * self.den:
            raise InvariantViolation("Sqrt3Prob must be < 1; use Fraction(1)")

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


def _accepts(p: Probability, u: Fraction) -> bool:
    if isinstance(p, Sqrt3Prob):
        return p.accepts(u)
    return u < p


class RandomCoin:
    """Seeded biased-coin stream; identical seed means identical run."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def flip(self, p: Probability) -> bool:
        u = Fraction(self._rng.getrandbits(64), 2 ** 64)
        return _accepts(p, u)


class _NeedBranch(Exception):
    """Internal: a replayed run wants more coin flips than were scripted."""


class ReplayCoin:
    """Coin that follows a fixed outcome script, recording probabilities.

    Used by `expected_cost_exact` to walk every branch of a randomized run:
    when the script runs out, the driver forks the run on both outcomes.
    """

    def __init__(self, script: tuple[bool, ...]):
        self.script = script
        self.flips: list[tuple[bool, Probability]] = []

    def flip(self, p: Probability) -> bool:
        if len(self.flips) >= len(self.script):
            raise _NeedBranch()
        outcome = self.script[len(self.flips)]
        self.flips.append((outcome, p))
        return outcome


def _flip(coin, p: Probability) -> bool:
    """Flip with certainty short-circuit: p in {0, 1} consumes no randomness."""
    if isinstance(p, Fraction):
        if p >= 1:
            return True
        if p <= 0:
            return False
    if coin is None:
        raise InvariantViolation(
            "this run is randomized; pass rng=RandomCoin(seed)"
        )
    return coin.flip(p)


@dataclass(frozen=True)
class ProbabilityRule:
    """How a strategy turns a local weight situation into a coin bias.

    ``fixed(p)``: always the constant ``p`` (the uniform-cost strategy).
    ``HALF``: ``min(1, W / (2 w_b))`` where ``W`` is the neighbor weight sum
    and ``w_b`` the trial center's weight.
    ``SQRT3``: ``min(1, W / (w_b sqrt(3)))`` -- same shape, better constant,
    kept exact via `Sqrt3Prob`.
    """

    kind: str
    p: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("fixed", "half", "sqrt3"):
            raise InvariantViolation(f"unknown probability rule {self.kind!r}")
        if self.kind == "fixed":
            if self.p is None:
                raise InvariantViolation("fixed rule needs a probability")
            object.__setattr__(self, "p", scalar(self.p))
            if not (0 <= self.p <= 1):
                raise InvariantViolation(f"probability {self.p} outside [0, 1]")
        elif self.p is not None:
            raise InvariantViolation(f"{self.kind} rule takes no parameter")

    def trial_probability(self, neighbor_weight: Fraction, center_weight: Fraction) -> Probability:
        if self.kind == "half":
            return min(Fraction(1), neighbor_weight / (2 * center_weight))
        if self.kind == "sqrt3":
            if neighbor_weight ** 2 >= 3 * center_weight ** 2:
                return Fraction(1)
            return Sqrt3Prob(neighbor_weight, center_weight)
        raise InvariantViolation("the fixed rule has no weight-based trial")


def FIXED(p) -> ProbabilityRule:
    """Constant-bias rule (the uniform-cost strategy's coin)."""
    return ProbabilityRule("fixed", scalar(p))


HALF = ProbabilityRule("half")
SQRT3 = ProbabilityRule("sqrt3")


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class QueryEnvironment:
    """What both query models share: current intervals, query counts, spend,
    transcript, and the dependency graph of the current intervals.

    The graph is built on its first read (`dependent_pairs`) and then kept
    exact: for a narrowed interval ``a' ⊆ a`` both ``a.hi - b.lo`` and
    ``b.hi - a.lo`` can only shrink, so a query only deletes edges at the
    queried vertex, and re-testing its neighbours is O(degree) work.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._current = list(instance.intervals)
        self._queried = [0] * instance.n
        self._spent = Fraction(0)
        self.transcript: list[tuple] = []
        self._adj: Optional[list[set[int]]] = None
        self._graph: Optional[DependencyGraph] = None

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def delta(self) -> Fraction:
        return self.instance.delta

    def state(self) -> KnowledgeState:
        return KnowledgeState(tuple(self._current), tuple(self._queried), self._spent)

    def current(self, i: int) -> UncertainInterval:
        """Item ``i``'s current interval (no `KnowledgeState` is built)."""
        return self._current[i]

    def graph(self) -> DependencyGraph:
        """Dependency graph of the current intervals at the instance threshold."""
        if self._adj is None:
            self._adj = [set() for _ in range(self.n)]
            for i, j in dependent_pairs(self._current, self.delta):
                self._adj[i].add(j)
                self._adj[j].add(i)
        if self._graph is None:
            cur = tuple(self._current)
            edges = frozenset((i, j) for i, nbrs in enumerate(self._adj) for j in nbrs if i < j)
            self._graph = DependencyGraph(self.n, edges, tuple(itv.cost for itv in cur), cur)
        return self._graph

    def _record(self, i: int, now: UncertainInterval, charge: Fraction, answer):
        """Narrow item ``i`` to ``now``, charge the query, and return ``answer``."""
        self._queried[i] += 1
        self._current[i] = now
        self._spent += charge
        self.transcript.append((i, answer, charge))
        self._graph = None
        if self._adj is not None:
            for j in [j for j in self._adj[i] if not dependent(now, self._current[j], self.delta)]:
                self._adj[i].remove(j)
                self._adj[j].remove(i)
        return answer


class Environment(QueryEnvironment):
    """Exact-model query oracle: one query per item reveals its value."""

    def __init__(self, instance: Instance):
        if instance.values is None:
            raise MissingRealization("an environment needs the hidden values")
        super().__init__(instance)

    def queried(self, i: int) -> bool:
        return self._queried[i] > 0

    def query(self, i: int) -> Fraction:
        if self._queried[i]:
            raise RepeatQuery(f"item {i} was already queried")
        v = self.instance.values[i]
        charge = self.instance.intervals[i].cost
        return self._record(i, UncertainInterval(v, v, charge), charge, v)


class CpcpEnvironment(QueryEnvironment):
    """Refinement-model query oracle: each query advances an item's script.

    Items without a script behave as in the exact model (a one-step script
    to the value point).  The t-th query on item ``i`` charges the t-th
    time cost when given, the item's flat cost otherwise.
    """

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self._scripts = list(instance.refinements or (None,) * instance.n)
        for i, script in enumerate(self._scripts):
            if script is None:
                if instance.values is None:
                    raise MissingRealization(
                        f"item {i} has neither a refinement script nor a value"
                    )
                v = instance.values[i]
                self._scripts[i] = (UncertainInterval(v, v, instance.intervals[i].cost),)

    def times(self, i: int) -> int:
        """How many queries item ``i`` has received."""
        return self._queried[i]

    def script_length(self, i: int) -> int:
        return len(self._scripts[i])

    def exhausted(self, i: int) -> bool:
        return self._queried[i] >= len(self._scripts[i])

    def step_cost(self, i: int, t: int) -> Fraction:
        """Price of the (t+1)-th query on item ``i`` (t counts from 0)."""
        if t >= len(self._scripts[i]):
            raise ScriptExhausted(
                f"item {i} has only {len(self._scripts[i])} script steps"
            )
        tc = self.instance.time_costs
        if tc is not None and tc[i] is not None:
            return tc[i][t]
        return self.instance.intervals[i].cost

    def query(self, i: int) -> UncertainInterval:
        t = self._queried[i]
        if t >= len(self._scripts[i]):
            raise ScriptExhausted(
                f"item {i}: script ended before the pair resolved"
            )
        entry = self._scripts[i][t]
        # Keep the original cost on the current interval so graph weights
        # stay meaningful.
        result = UncertainInterval(entry.lo, entry.hi, self.instance.intervals[i].cost)
        return self._record(i, result, self.step_cost(i, t), result)


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
    """

    queried: tuple[int, ...]
    total_cost: Fraction
    permutation: Permutation
    transcript: tuple
    advice_bits: Optional[int] = None
    advice_question_sizes: Optional[tuple[int, ...]] = None
    witness_sets: Optional[tuple[frozenset[int], ...]] = None
    comparisons: Optional[int] = None
    rng_seed: Optional[int] = None

    def __post_init__(self):
        charged = sum((entry[2] for entry in self.transcript), start=Fraction(0))
        if charged != self.total_cost:
            raise InvariantViolation(
                f"total cost {self.total_cost} does not match transcript sum {charged}"
            )

    @property
    def queried_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.queried) if c > 0)


def _finish(env: QueryEnvironment, rng=None, **extra) -> RunReport:
    state = env.state()
    permutation = build_permutation(state, env.delta)
    return RunReport(
        queried=state.queried,
        total_cost=state.spent,
        permutation=permutation,
        transcript=tuple(env.transcript),
        rng_seed=getattr(rng, "seed", None),
        **extra,
    )


# ---------------------------------------------------------------------------
# Witness flushing
# ---------------------------------------------------------------------------


def _flush(env: QueryEnvironment, witness: Callable[[UncertainInterval, UncertainInterval], bool]) -> list[int]:
    """Query the smallest witness, round after round, until none is left.

    Vertex ``i`` is a witness when ``witness(current i, current j)`` holds for
    a neighbour ``j``.  Narrowing an interval keeps every containment and
    every point neighbour, so a vertex stops being a witness only when it is
    queried, and becomes one only at or next to a queried vertex: after one
    full scan, each round re-tests just those.
    """
    def witnessed(i: int) -> bool:
        g = env.graph()
        return any(witness(g.intervals[i], g.intervals[j]) for j in g.adj[i])

    pending = [i for i in env.graph().active_vertices() if witnessed(i)]
    done: list[int] = []
    while pending:
        i = heappop(pending)
        env.query(i)
        done.append(i)
        for k in {i} | env.graph().adj[i]:
            if k not in pending and witnessed(k):
                heappush(pending, k)
    return done


def _flush_value_witnesses(env: QueryEnvironment) -> list[int]:
    """Query every interval that strictly straddles a known value (cascading).

    Such an interval belongs to every feasible query set, so querying it
    immediately is always safe.  Known values are the current points, and
    ``singleton_witness_value(a, v, delta)`` is ``dependent(a, [v, v], delta)``,
    so a value witness is exactly a non-point vertex of the environment's
    graph with a point neighbour.  Each round picks the smallest one, and
    newly revealed values may force further queries.  After this returns,
    every point is isolated in the dependency graph.
    """
    return _flush(env, lambda a, b: b.is_point and not a.is_point)


def _preprocess_witnesses(env: QueryEnvironment) -> list[int]:
    """Query every static or value witness, cascading.

    A current interval that strictly contains another current interval
    padded by the threshold must be queried no matter what; since queried
    items are point intervals, the value form is subsumed by the static
    form evaluated on the current state.  Such a containment is always a
    dependency, so only graph neighbours need testing.  In the refinement
    model an item may be queried several times in a row while its
    refinements keep straddling.
    """
    delta = env.delta
    return _flush(env, lambda a, b: singleton_witness_static(a, b, delta))


# ---------------------------------------------------------------------------
# Simple strategies
# ---------------------------------------------------------------------------


def run_oblivious(env: Environment) -> RunReport:
    """Query everything that could possibly matter, then order.

    The best answer-blind strategy: every non-trivial interval with at
    least one dependency.
    """
    for i in sorted(oblivious_query_set(env.state(), env.delta)):
        env.query(i)
    return _finish(env)


def simple_adaptive(env: Environment) -> RunReport:
    """Repeatedly query both sides of the first dependent pair.

    Pairs are scanned in index order.  Each step's batch (the pair members
    not yet queried) is recorded as a witness set: at least one member of
    each batch appears in every feasible query set, and the batches are
    disjoint -- which is exactly why this strategy never pays more than
    twice the optimum under uniform costs.
    """
    witness_sets: list[frozenset[int]] = []
    while True:
        g = env.graph()
        if not g.edges:
            break
        i, j = min(g.edges)
        batch = [k for k in (i, j) if not env.queried(k)]
        for k in batch:
            env.query(k)
        witness_sets.append(frozenset(batch))
    return _finish(env, witness_sets=tuple(witness_sets))


def simple_adaptive_stable_sort(env: Environment) -> RunReport:
    """Merge sort whose comparator queries a dependent pair before comparing.

    Zero-threshold only.  After resolving (at most one query per side), the
    pair admits at least one safe order; when both orders are safe the
    earlier input position goes first, so equal values keep their original
    order -- a stable sort.  Comparison count is the usual merge-sort
    O(n log n).
    """
    if env.delta != 0:
        raise DeltaNotZero("the sorting comparator needs threshold zero")
    comparisons = 0

    def goes_first(x: int, y: int) -> bool:
        nonlocal comparisons
        comparisons += 1
        if dependent(env.current(x), env.current(y), Fraction(0)):
            for k in (x, y):
                if not env.queried(k):
                    env.query(k)
        return env.current(x).hi <= env.current(y).lo

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
    state = env.state()
    require_independent(state.current, env.delta)
    return RunReport(
        queried=state.queried,
        total_cost=state.spent,
        permutation=Permutation(tuple(order)),
        transcript=tuple(env.transcript),
        comparisons=comparisons,
    )


def vc_adaptive(env: Environment) -> RunReport:
    """Query a minimum-cost vertex cover, then whatever is still dependent.

    Two passes always suffice: querying can only remove dependencies, and
    after the cover is revealed every remaining dependency pins a
    still-unqueried interval that must be queried in every solution.
    """
    for v in min_cost_vertex_cover(env.graph()):
        env.query(v)
    for v in env.graph().active_vertices():
        if not env.queried(v):
            env.query(v)
    return _finish(env)


# ---------------------------------------------------------------------------
# The uniform-cost randomized strategy
# ---------------------------------------------------------------------------


def algorithm1(
    env: Environment,
    rule: ProbabilityRule = None,
    preprocess: bool = True,
    rng=None,
) -> RunReport:
    """Adaptive strategy tuned for uniform costs, with a biased coin.

    Optional warm-up: query all static/value witnesses (cascading).  Main
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
    smaller index.
    """
    if rule is None:
        rule = FIXED(Fraction(1, 2))
    if rule.kind != "fixed":
        raise InvariantViolation("this strategy takes a fixed coin bias")
    costs = env.instance.costs
    if any(c != costs[0] for c in costs):
        raise InvariantViolation("this strategy requires uniform query costs")
    p = rule.p
    if preprocess:
        _preprocess_witnesses(env)
    delta = env.delta
    while True:
        g = env.graph()
        if not g.edges:
            break
        comps = [c for c in components(g) if len(c) >= 2]
        pairs = [c for c in comps if len(c) == 2]
        if pairs:
            u, v = pairs[0]  # components arrive ordered by smallest member
            first, second = (u, v) if _flip(rng, p) else (v, u)
            revealed = env.query(first)
            if singleton_witness_value(env.current(second), revealed, delta):
                env.query(second)
        else:
            iv = g.intervals
            active = g.active_vertices()
            x = min(active, key=lambda w: (iv[w].hi, w))
            neighbors_x = sorted(g.adj[x])
            y = min(neighbors_x, key=lambda w: (iv[w].hi, w))
            if len(neighbors_x) >= 2:
                z = min(
                    (w for w in neighbors_x if w != y),
                    key=lambda w: (iv[w].hi, w),
                )
            else:
                z = min(
                    (w for w in g.adj[y] if w != x),
                    key=lambda w: (iv[w].hi, w),
                )
            revealed = env.query(y)
            if singleton_witness_value(env.current(x), revealed, delta) or dependent(
                env.current(x), env.current(z), delta
            ):
                env.query(x)
                env.query(z)
        _flush_value_witnesses(env)
    return _finish(env, rng=rng)


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


def algorithm2(env: Environment, rule: ProbabilityRule, rng=None) -> RunReport:
    """Adaptive strategy for arbitrary costs: local-ratio plus path trials.

    Keeps a residual copy of the weights for analysis-style bookkeeping
    (the environment always charges original costs):

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
      those neighbors.  If ``b``'s only neighbor is ``c``, the window
      slides forward until the trial is meaningful.

    Value witnesses are flushed after every query step.
    """
    if rule.kind not in ("half", "sqrt3"):
        raise InvariantViolation("this strategy takes the half or sqrt3 rule")
    residual = list(env.instance.costs)
    frozen_paths: dict[int, tuple[int, ...]] = {}
    while True:
        g = env.graph()
        if not g.edges:
            break
        active = g.active_vertices()
        zeros = [v for v in active if residual[v] == 0]
        if zeros:
            env.query(zeros[0])
            _flush_value_witnesses(env)
            continue
        triangle = find_triangle(g)
        if triangle is not None:
            take = min(residual[v] for v in triangle)
            for v in triangle:
                residual[v] -= take
            continue
        # Forest phase: trial on the component of the smallest active vertex.
        comp = component_of(g, active[0])
        path = None
        for v in comp:
            if v in frozen_paths:
                path = frozen_paths[v]
                break
        if path is None:
            path = longest_path_caterpillar(g, comp)
            for v in comp:
                frozen_paths[v] = path
        comp_set = set(comp)
        spine = [v for v in path if v in comp_set]
        start = 0
        while True:
            window = spine[start:]
            b = window[1] if len(window) >= 2 else window[0]
            c = window[2] if len(window) >= 3 else None
            targets = sorted(g.adj[b] - ({c} if c is not None else set()))
            if targets:
                break
            start += 1
        neighbor_weight = sum((residual[u] for u in targets), start=Fraction(0))
        p = rule.trial_probability(neighbor_weight, residual[b])
        if _flip(rng, p):
            env.query(b)
        else:
            for u in targets:
                env.query(u)
        _flush_value_witnesses(env)
    return _finish(env, rng=rng)


# ---------------------------------------------------------------------------
# The refinement-model strategy
# ---------------------------------------------------------------------------


def algorithm3_cpcp(env: CpcpEnvironment) -> RunReport:
    """Local-ratio strategy for queries that return refined intervals.

    Works on the time-expanded cost vector: each potential query step of
    each item is its own coordinate.  While dependencies remain: query any
    active item whose *current step* has zero residual price (smallest
    index first); otherwise subtract the smaller current-step residual from
    both sides of the first dependent pair.  After every query, re-query
    any item whose current interval strictly contains another current
    interval padded by the threshold -- in this model that containment rule
    covers revealed values too, since values are just point intervals.
    """
    if not isinstance(env, CpcpEnvironment):
        raise InvariantViolation(
            "this strategy runs on a CpcpEnvironment (scripts or embedded values)"
        )
    residual: dict[tuple[int, int], Fraction] = {}

    def current_cost(i: int) -> Fraction:
        t = env.times(i)
        key = (i, t)
        if key not in residual:
            residual[key] = env.step_cost(i, t)
        return residual[key]

    while True:
        g = env.graph()
        if not g.edges:
            break
        active = g.active_vertices()
        # Post-flush, every active vertex is a genuine interval with script
        # steps remaining (a point cannot be straddling-dependent here).
        zeros = [i for i in active if current_cost(i) == 0]
        if zeros:
            env.query(zeros[0])
            _preprocess_witnesses(env)
            continue
        i, j = min(g.edges)
        take = min(current_cost(i), current_cost(j))
        residual[(i, env.times(i))] -= take
        residual[(j, env.times(j))] -= take
        _preprocess_witnesses(env)
    return _finish(env)


# ---------------------------------------------------------------------------
# Advice strategies
# ---------------------------------------------------------------------------


def _ceil_log2(m: int) -> int:
    if m < 1:
        raise InvariantViolation("ceil_log2 of a non-positive number")
    return (m - 1).bit_length()


class AdviceOracle:
    """Answers questions about one fixed optimum query set.

    The reference set is the canonical (lexicographically smallest)
    minimizer from exhaustive enumeration, fixed for the oracle's lifetime,
    so all answers are mutually consistent.  Question cost is information:
    a question with k possible answers adds log2(k); `bits_used` reports
    the exact ceiling of the running total via the product of sizes.
    """

    def __init__(self, instance: Instance):
        cost, minimizers = brute_force_optimum(instance)
        self.optimum_cost = cost
        self.optimum_set = minimizers[0]
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
        product = 1
        for size in self.question_sizes:
            product *= size
        return _ceil_log2(product) if product > 1 else 0


def advice_half(env: Environment, oracle: AdviceOracle) -> RunReport:
    """Optimal-cost strategy using at most one bit per two items (threshold 0).

    In a triangle, the asked-about interval is the 'middle' one (neither
    the leftmost start nor, among the rest, the rightmost end); in a
    forest, it is the neighbor of the smallest-index leaf.  A 'yes' means
    the interval is in the reference optimum: query it.  A 'no' means every
    one of its current neighbors is (an unqueried dependency must be
    resolved from the other side): query them all.  'No' answers are
    remembered, and any group known to contain an excluded member is
    handled without spending another bit.
    """
    if env.delta != 0:
        raise DeltaNotZero("the one-bit strategy is defined at threshold zero")
    known_out: set[int] = set()
    while True:
        g = env.graph()
        if not g.edges:
            break
        triangle = find_triangle(g)
        if triangle is not None:
            group = set(triangle)
            remembered = sorted(group & known_out)
            if remembered:
                # Everything else in a clique must be in the optimum.
                for u in sorted(group - {remembered[0]}):
                    env.query(u)
                _flush_value_witnesses(env)
                continue
            iv = g.intervals
            i = min(group, key=lambda w: (iv[w].lo, w))
            k = min(group - {i}, key=lambda w: (-iv[w].hi, w))
            (j,) = group - {i, k}
        else:
            leaves = [v for v in g.active_vertices() if g.degree(v) == 1]
            i = min(leaves)
            (j,) = g.adj[i]
            if j in known_out:
                for u in sorted(g.adj[j]):
                    env.query(u)
                _flush_value_witnesses(env)
                continue
            if i in known_out:
                # The edge {i, j} must be covered by the optimum.
                env.query(j)
                _flush_value_witnesses(env)
                continue
        if oracle.ask_membership(j):
            env.query(j)
        else:
            known_out.add(j)
            for u in sorted(g.adj[j]):
                env.query(u)
        _flush_value_witnesses(env)
    return _finish(
        env,
        advice_bits=oracle.bits_used,
        advice_question_sizes=tuple(oracle.question_sizes),
    )


def advice_lg3(env: Environment, oracle: AdviceOracle) -> RunReport:
    """Optimal-cost strategy spending about 0.53 bits per item (any threshold).

    The first-ending active interval and its neighbors always form a
    clique, and a clique holds at most one interval outside any feasible
    set.  Each round asks the oracle to name that member (or confirm there
    is none) and queries the rest of the clique.  Named members are
    remembered; a clique containing one costs no further advice.
    """
    known_out: set[int] = set()
    while True:
        g = env.graph()
        if not g.edges:
            break
        iv = g.intervals
        active = g.active_vertices()
        x = min(active, key=lambda w: (iv[w].hi, w))
        group = frozenset({x} | g.adj[x])
        for u in group:
            for w in group:
                if u < w and not g.has_edge(u, w):
                    raise InvariantViolation(
                        f"neighborhood of first-ending vertex {x} is not a clique"
                    )
        remembered = sorted(group & known_out)
        if remembered:
            y = remembered[0]
        else:
            y = oracle.ask_excluded(group, x)
            if y != x:
                known_out.add(y)
        for u in sorted(group - {y}):
            env.query(u)
        _flush_value_witnesses(env)
    return _finish(
        env,
        advice_bits=oracle.bits_used,
        advice_question_sizes=tuple(oracle.question_sizes),
    )


# ---------------------------------------------------------------------------
# Exact expectation by branch replay
# ---------------------------------------------------------------------------

#: Width of the rational enclosures used for symbolic probabilities.
_ENCLOSURE_PRECISION = Fraction(1, 10 ** 24)

#: Branch guard: a replayed strategy may not flip more coins than this.
_MAX_COIN_DEPTH = 20


def _branch_probability(
    flips: list[tuple[bool, Probability]],
) -> tuple[Fraction, Fraction]:
    lo = hi = Fraction(1)
    for outcome, p in flips:
        if isinstance(p, Sqrt3Prob):
            p_lo, p_hi = p.enclosure(_ENCLOSURE_PRECISION)
        else:
            p_lo = p_hi = p
        if outcome:
            lo *= p_lo
            hi *= p_hi
        else:
            lo *= 1 - p_hi
            hi *= 1 - p_lo
    return lo, hi


def expected_cost_exact(
    algorithm: Callable[..., RunReport],
    inst: Instance,
    rule: ProbabilityRule,
    *,
    env_factory: Callable[[Instance], QueryEnvironment] = Environment,
    max_branches: int = 2 ** 20,
    **kwargs,
) -> Union[Fraction, tuple[Fraction, Fraction]]:
    """Exact expected total cost over every branch of the strategy's coin.

    Re-runs the strategy with a scripted coin, forking at the first
    unscripted flip, and sums probability-weighted costs over all leaves.
    Returns an exact rational when every probability is rational, and a
    rational enclosure ``(lo, hi)`` (width far below 1e-9) when the
    square-root rule is involved.
    """
    stack: list[tuple[bool, ...]] = [()]
    leaves = 0
    e_lo = e_hi = Fraction(0)
    while stack:
        script = stack.pop()
        coin = ReplayCoin(script)
        env = env_factory(inst)
        try:
            report = algorithm(env, rule=rule, rng=coin, **kwargs)
        except _NeedBranch:
            if len(script) >= _MAX_COIN_DEPTH:
                raise TooManyBranches(
                    f"more than 2^{_MAX_COIN_DEPTH} coin branches"
                )
            stack.append(script + (True,))
            stack.append(script + (False,))
            continue
        leaves += 1
        if leaves > max_branches:
            raise TooManyBranches(f"more than {max_branches} branches")
        p_lo, p_hi = _branch_probability(coin.flips)
        e_lo += p_lo * report.total_cost
        e_hi += p_hi * report.total_cost
    if e_lo == e_hi:
        return e_lo
    return e_lo, e_hi
