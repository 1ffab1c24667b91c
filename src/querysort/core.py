"""Intervals, instances, knowledge states, and the predicates that drive everything.

The object of study: ``n`` hidden values, each known only to lie in a closed
interval.  Querying an interval reveals its value (at a cost) and collapses
the interval to a point.  The goal is an ordering of the items in which every
earlier value exceeds every later value by at most a threshold ``delta``;
queries should cost as little as possible.

All numbers are exact rationals (`fractions.Fraction`); floats are refused
at the boundary, and only `read_rational` reads them from text and only
`rational_text` writes them.  Decisions compare ints on an instance's grids
(`Instance.grid`, `Instance.cost_grid`), by the rules README's design notes
give ("Exactness first", "One integer grid per instance").

The vocabulary used throughout the package is the predicates below:
*dependent* (`dependent`), *trivial* (`is_trivial`) and *witness*
(`singleton_witness_static`, `singleton_witness_value`).
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence, Union

from .errors import (
    InvariantViolation,
    MissingRealization,
    UnresolvedDependency,
)

#: The one numeric type used for endpoints, values, costs and probabilities.
Scalar = Fraction

ScalarLike = Union[int, str, Fraction]


#: Python's default cap on the digits of an int turned into text: `read_rational` refuses a number
#: whose numerator or denominator has more, so whatever it reads prints under the cap.
_DIGIT_LIMIT = 4300
_PAST_LIMIT = 10 ** _DIGIT_LIMIT


def read_rational(text: str, refusal: str) -> Fraction:
    """``text`` (``"7"``, ``"-3/4"``, ``"2.5"``, ``"1e-3"``; decimal forms are exact) as a
    `Fraction`, or `InvariantViolation(refusal)` when it is none or its numerator or denominator
    has more than 4 300 digits.  An exponent of at least the text's length plus the limit is
    refused before its power is computed: only a zero mantissa could bring it back under."""
    _, e, exp = text.upper().partition("E")
    try:
        if e and abs(int(exp)) >= len(text) + _DIGIT_LIMIT:
            raise ValueError(exp)
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvariantViolation(refusal) from None
    if not (-_PAST_LIMIT < x.numerator < _PAST_LIMIT and x.denominator < _PAST_LIMIT):
        raise InvariantViolation(refusal)
    return x


def rational_text(x, form: Callable[[object], str] = str) -> str:
    """``form(x)`` past Python's cap on int-to-text digits, which an exact SQRT3 enclosure or a
    number grown from a long input can pass: the cap is lifted for this call only, so no text is
    read while it is off.  Every number a message or a printed result names goes through here."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap, or this Python has none
    if not cap:
        return form(x)
    sys.set_int_max_str_digits(0)
    try:
        return form(x)
    finally:
        sys.set_int_max_str_digits(cap)


def scalar(x: ScalarLike) -> Fraction:
    """Coerce ``x`` to an exact rational.

    Accepts ints, `Fraction`s, and strings that `read_rational` reads.  Floats and bools are
    rejected.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise InvariantViolation(
            f"floats are not allowed as scalars (got {rational_text(x, repr)}); "
            "pass an int, Fraction, or string like '5/2'"
        )
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return read_rational(x, f"not a rational number: {rational_text(x, repr)}")
    raise InvariantViolation(f"cannot interpret {type(x).__name__} as a scalar")


def threshold(delta: ScalarLike) -> Fraction:
    """``delta`` as a `scalar`, refused when negative: every threshold is read through here."""
    if (delta := scalar(delta)).numerator < 0:
        raise InvariantViolation(f"negative threshold {rational_text(delta)}")
    return delta


def _require_ints(what: str, *xs) -> None:
    """Refuse the first of ``xs`` whose `type` is not `int`: also a bool, and a float equal to an int."""
    for x in xs:
        if type(x) is not int:
            raise InvariantViolation(f"{what} {rational_text(x, repr)} is not an int")


def _check_item(i: int, n: int) -> None:
    """Refuse an ``i`` that is not an int in ``[0, n)``; `type` also refuses a bool."""
    if type(i) is not int or not 0 <= i < n:
        raise InvariantViolation(f"query index {rational_text(i, repr)} names no item (n = {n})")


def _as_tuple(field: str, xs) -> tuple:
    """``xs`` as a tuple, refused with a message naming ``field`` when it is not iterable."""
    if not hasattr(xs, "__iter__"):
        raise InvariantViolation(f"{field} must be a sequence, got {type(xs).__name__}")
    return tuple(xs)


def _intervals(field: str, xs, noun: str = "") -> tuple:
    """``xs`` as a tuple of `UncertainInterval`s; otherwise refused, naming ``noun or field``."""
    for item in (xs := _as_tuple(field, xs)):
        if not isinstance(item, UncertainInterval):
            raise InvariantViolation(f"{noun or field} must be UncertainInterval, got {type(item).__name__}")
    return xs


def _le(a: Fraction, b: Fraction) -> bool:
    """``a <= b`` by cross-multiplying, which a `Fraction`'s positive denominator
    allows, without `Fraction`'s own comparison and type checks."""
    return a.numerator * b.denominator <= b.numerator * a.denominator


@lru_cache(maxsize=64, typed=True)  # typed: a float precision equal to a cached one is still refused
def isqrt_bounds(m: int, precision: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure ``lo <= sqrt(m) <= hi`` with ``hi - lo <= precision``.

    Newton iteration from an integer seed; every iterate stays an upper
    bound, and ``m / upper`` is a matching lower bound.  Used where an
    irrational constant (``sqrt(3)``) must enter an otherwise exact
    computation as a certified interval.  Pure, so memoized.  The precision
    must be a positive scalar: at zero or below the iteration never ends.
    """
    if (precision := scalar(precision)) <= 0:
        raise InvariantViolation(f"square root precision must be positive, got {rational_text(precision)}")
    if m < 0:
        raise InvariantViolation("square root of a negative number requested")
    m = Fraction(m)
    if m == 0:
        return Fraction(0), Fraction(0)
    upper = Fraction(max(1, int(m) + 1))
    while True:
        lower = m / upper
        if upper - lower <= precision:
            return lower, upper
        upper = (upper + lower) / 2


@dataclass(frozen=True, slots=True)
class UncertainInterval:
    """A closed interval ``[lo, hi]`` with a non-negative query cost.

    ``lo == hi`` is allowed and models an already-known value ("point").
    Instances are immutable; refining an interval produces a new one.
    `_checked_already` skips the checks, for the few internal rebuilds from
    numbers that passed them before; every constructor from outside checks.
    """

    lo: Fraction
    hi: Fraction
    cost: Fraction = Fraction(1)

    def __post_init__(self):
        lo, hi, cost = self.lo, self.hi, self.cost
        if not type(lo) is type(hi) is type(cost) is Fraction:
            lo, hi, cost = scalar(lo), scalar(hi), scalar(cost)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
            object.__setattr__(self, "cost", cost)
        if not _le(lo, hi):
            raise InvariantViolation(f"empty interval: lo={rational_text(lo)} > hi={rational_text(hi)}")
        if cost.numerator < 0:
            raise InvariantViolation(f"negative query cost {rational_text(cost)}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def collapse(self, v: Fraction) -> "UncertainInterval":
        """The point interval left behind once the value ``v`` is revealed."""
        if not self.contains(v):
            raise InvariantViolation(f"value {rational_text(v)} lies outside {self}")
        v = scalar(v)  # inside [lo, hi] and now a Fraction; the cost is this interval's checked one
        return _checked_already(v, v, self.cost)

    def __str__(self) -> str:
        return f"[{rational_text(self.lo)}, {rational_text(self.hi)}]"


# each slot's own setter: a frozen dataclass guards only `__setattr__`
_set_lo, _set_hi, _set_cost = (UncertainInterval.__dict__[name].__set__ for name in ("lo", "hi", "cost"))


def _checked_already(lo: Fraction, hi: Fraction, cost: Fraction) -> UncertainInterval:
    """``UncertainInterval(lo, hi, cost)`` without `__post_init__`, for a caller that knows the
    three are `Fraction`s with ``lo <= hi`` and ``cost >= 0``: each call says how it knows."""
    itv = object.__new__(UncertainInterval)
    _set_lo(itv, lo), _set_hi(itv, hi), _set_cost(itv, cost)
    return itv


def interval(lo: ScalarLike, hi: ScalarLike, cost: ScalarLike = 1) -> UncertainInterval:
    """Shorthand constructor accepting ints / strings / Fractions."""
    return UncertainInterval(scalar(lo), scalar(hi), scalar(cost))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def dependent(a: UncertainInterval, b: UncertainInterval, delta: Fraction) -> bool:
    """True when neither order of ``a`` and ``b`` is certain yet.

    Each side must be able to beat the other by strictly more than ``delta``;
    with either inequality non-strict one order is already safe.  Symmetric,
    and false when both intervals are trivial (width <= delta), but one
    trivial side is not enough: a point can be dependent on a wider interval.
    """
    delta = threshold(delta)
    return a.hi - b.lo > delta and b.hi - a.lo > delta


def on_grid(x: Fraction, scale: int) -> int:
    """``x * scale`` as an int.  Raises `InvariantViolation` unless ``scale`` is a
    multiple of ``x``'s denominator: rounding could flip a comparison."""
    steps, rest = divmod(scale, x.denominator)
    if rest:
        raise InvariantViolation(f"{rational_text(x)} is not on the integer grid of step 1/{rational_text(scale)}")
    return x.numerator * steps


class Grid(NamedTuple):
    """Numbers as ints: each one is the rational times ``scale``, the lcm of
    their denominators, so every comparison between them is exact."""

    scale: int
    delta: int
    los: tuple[int, ...]
    his: tuple[int, ...]
    values: Optional[tuple[int, ...]]


def to_grid(delta: Fraction, intervals: Sequence[UncertainInterval],
            values: Optional[Sequence[Fraction]] = None, extra: Iterable[UncertainInterval] = ()) -> Grid:
    """``delta``, the endpoints and the values on one grid, whose scale also
    covers the endpoints of the ``extra`` intervals."""
    rows = [[x.lo.as_integer_ratio() for x in intervals], [x.hi.as_integer_ratio() for x in intervals],
            None if values is None else [v.as_integer_ratio() for v in values]]  # each Fraction read once
    d, den = delta.as_integer_ratio()
    scale = lcm(den, *{q for row in rows for _, q in row or ()},
                *{x.denominator for itv in extra for x in (itv.lo, itv.hi)})
    # scale is a multiple of every denominator here, so `on_grid`'s check cannot fire
    return Grid(scale, d * (scale // den), *(None if row is None else tuple([p * (scale // q) for p, q in row])
                                             for row in rows))


def grid_ints(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm ``scale`` of the denominators of ``xs``, and each ``x * scale`` as an int."""
    scale = lcm(*{x.denominator for x in xs})
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def sweep_pairs(los: Sequence[int], his: Sequence[int], d: int) -> Iterator[tuple[int, int]]:
    """Every dependent pair ``(i, j)``, ``i < j``, in no particular order, from
    endpoints and threshold on one integer grid.

    A sort-and-sweep by ``(lo, index)``: a later ``b`` can only be dependent on
    ``a`` when ``b.lo < a.hi - d``, which makes ``a.hi - b.lo > d``; so each
    vertex meets only the later ones that start before that bound, and only
    ``b.hi - a.lo > d`` is left to test.
    """
    order = sorted(range(len(los)), key=los.__getitem__)
    starts = [los[k] for k in order]
    for p, i in enumerate(order):
        reach = los[i] + d
        for j in order[p + 1:bisect_left(starts, his[i] - d, p + 1)]:
            if his[j] > reach:
                yield (i, j) if i < j else (j, i)


def require_independent(items: Sequence[UncertainInterval], delta: Fraction) -> None:
    """Raise `UnresolvedDependency` naming the smallest dependent pair, if any,
    swept on the integer grid of ``items`` and ``delta``."""
    grid = to_grid(threshold(delta), items)
    if (pair := min(sweep_pairs(grid.los, grid.his, grid.delta), default=None)) is not None:
        _still_dependent(items, *pair)


def _still_dependent(items: Sequence[UncertainInterval], i: int, j: int) -> NoReturn:
    """Refuse intervals ``items`` whose items ``i`` and ``j`` are still dependent."""
    raise UnresolvedDependency(f"items {i} and {j} are still dependent: {items[i]} vs {items[j]}")


def is_trivial(a: UncertainInterval, delta: Fraction) -> bool:
    """Width at most ``delta``: the interval can be placed without querying."""
    return a.width <= threshold(delta)


def singleton_witness_static(
    a: UncertainInterval, b: UncertainInterval, delta: Fraction
) -> bool:
    """``a`` strictly contains ``b`` padded by ``delta`` on both sides.

    Whatever value ``b`` turns out to have, ``a`` still straddles it by more
    than the threshold, so querying ``b`` alone cannot separate the pair:
    ``a`` is in every feasible query set.  Decidable from endpoints only.
    """
    delta = threshold(delta)
    return a.lo < b.lo - delta and a.hi > b.hi + delta


def singleton_witness_value(
    a: UncertainInterval, v: Fraction, delta: Fraction
) -> bool:
    """``a`` strictly contains the known value ``v`` padded by ``delta``.

    The value-level analogue of `singleton_witness_static`: any interval that
    straddles a revealed value by more than the threshold must itself be
    queried.  Equivalent to ``dependent(a, [v, v], delta)``.
    """
    v, delta = scalar(v), threshold(delta)
    return a.lo < v - delta and a.hi > v + delta


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

RefinementScript = tuple[UncertainInterval, ...]


@dataclass(frozen=True)
class Instance:
    """A problem instance: threshold, intervals, and optional hidden data.

    ``values`` is the hidden realization -- present on generated instances so
    an environment can answer queries, absent on instances meant purely for
    structural analysis.

    ``refinements`` (optional, per interval) are scripts for the model where
    a query returns a narrower interval instead of the value: each entry is
    nested in its predecessor and the final entry is the point holding the
    value.  ``time_costs`` (optional, same shape) price each script step;
    without them every step of an interval costs its flat ``cost``.
    """

    delta: Fraction
    intervals: tuple[UncertainInterval, ...]
    values: Optional[tuple[Fraction, ...]] = None
    refinements: Optional[tuple[Optional[RefinementScript], ...]] = None
    time_costs: Optional[tuple[Optional[tuple[Fraction, ...]], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "delta", threshold(self.delta))
        object.__setattr__(self, "intervals", _intervals("intervals", self.intervals))
        self._row("values", "values", scalar)
        scripts = self._row("refinements", "refinement scripts", lambda s: None if s is None else tuple(s))
        for i, script in enumerate(scripts or ()):
            if script is not None:
                self._check_script(i, script)
        if self.values is not None:  # on the grid every row reads
            for i, (lo, v, hi) in enumerate(zip(self.grid.los, self.grid.values, self.grid.his)):
                if not lo <= v <= hi:
                    raise InvariantViolation(
                        f"value {rational_text(self.values[i])} of item {i} lies outside {self.intervals[i]}")
        costs = self._row("time_costs", "time-cost rows", lambda r: None if r is None else tuple(map(scalar, r)))
        for i, row in enumerate(costs or ()):
            if row is None:
                continue
            if self.refinements is None or self.refinements[i] is None:
                raise InvariantViolation(
                    f"item {i} has time costs but no refinement script"
                )
            if len(row) != len(self.refinements[i]):
                raise InvariantViolation(
                    f"item {i}: {len(row)} time costs for a "
                    f"{len(self.refinements[i])}-step script"
                )
            for c in row:
                if c.numerator < 0:
                    raise InvariantViolation(f"negative time cost {rational_text(c)}")

    def _row(self, field: str, noun: str, entry: Callable) -> Optional[tuple]:
        """Field ``field`` with each entry normalised by ``entry``, set on this instance; None
        when it is absent, and refused unless it has one entry per interval."""
        if (row := getattr(self, field)) is None:
            return None
        object.__setattr__(self, field, row := tuple(map(entry, _as_tuple(field, row))))
        if len(row) != self.n:
            raise InvariantViolation(f"{len(row)} {noun} for {self.n} intervals")
        return row

    def _check_script(self, i: int, script: RefinementScript) -> None:
        if not script:
            raise InvariantViolation(f"item {i} has an empty refinement script")
        prev = self.intervals[i]
        for step, nxt in enumerate(script):
            if not isinstance(nxt, UncertainInterval):
                raise InvariantViolation(
                    f"item {i} step {step}: script entries must be intervals"
                )
            if not (_le(prev.lo, nxt.lo) and _le(nxt.hi, prev.hi)):
                raise InvariantViolation(
                    f"item {i} step {step}: {nxt} is not nested in {prev}"
                )
            prev = nxt
        last = script[-1]
        if not last.is_point:
            raise InvariantViolation(
                f"item {i}: refinement script must end in a point, got {last}"
            )
        if self.values is None:
            raise InvariantViolation(
                f"item {i} has a refinement script but the instance has no values"
            )
        if last.lo != self.values[i]:
            raise InvariantViolation(
                f"item {i}: script ends at {rational_text(last.lo)} but the value is {rational_text(self.values[i])}")

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def grid(self) -> Grid:
        """This instance on its integer grid, computed on first read and kept.

        The scale covers the threshold, every endpoint, every value and every
        refinement-script entry; costs have their own grid (`cost_grid`).
        """
        scripted = [entry for script in self.refinements or () if script for entry in script]
        return to_grid(self.delta, self.intervals, self.values, scripted)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every dependent pair ``(i, j)``, ``i < j``, from one `sweep_pairs` over `grid`."""
        return tuple(sweep_pairs(self.grid.los, self.grid.his, self.grid.delta))

    @cached_property
    def costs(self) -> tuple[Fraction, ...]:
        return tuple(itv.cost for itv in self.intervals)

    @cached_property
    def cost_grid(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, units)``: the lcm of the denominators of every item and time cost, and
        each item's cost times it, so spends and residual weights add as ints."""
        times = [c for row in self.time_costs or () if row for c in row]
        scale, units = grid_ints([*self.costs, *times])
        return scale, tuple(units[:self.n])

    @cached_property
    def steps(self) -> tuple[tuple[tuple[UncertainInterval, int, int, Fraction, int], ...], ...]:
        """Per item, each refinement step's ``(reply, lo, hi, price, units)``: the reply at the
        item's flat cost, its ends on `grid`, its price as a `Fraction` and on `cost_grid`.
        No script means one step to the value; no time costs mean the flat cost."""
        grid, (cost_scale, units) = self.grid, self.cost_grid
        scripts, times = self.refinements or (None,) * self.n, self.time_costs or (None,) * self.n
        table = []
        for i, itv in enumerate(self.intervals):
            if scripts[i] is not None:
                table.append(tuple((e if e.cost == itv.cost else UncertainInterval(e.lo, e.hi, itv.cost),
                                    on_grid(e.lo, grid.scale), on_grid(e.hi, grid.scale), p, on_grid(p, cost_scale))
                                   for e, p in zip(scripts[i], times[i] or (itv.cost,) * len(scripts[i]))))
            elif self.values is None:
                raise MissingRealization(f"item {i} has neither a refinement script nor a value")
            else:  # the value this instance checked against its interval, at that interval's checked cost
                v, at = self.values[i], grid.values[i]
                table.append(((_checked_already(v, v, itv.cost), at, at, itv.cost, units[i]),))
        return tuple(table)


# ---------------------------------------------------------------------------
# Knowledge states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnowledgeState:
    """What an algorithm knows mid-run: current intervals, queries, spend.

    ``queried`` counts queries per item (the refinement model may query the
    same item several times).  Each current entry must be an
    `UncertainInterval`, each count an int (not a bool) at or above 0, and
    ``spent`` a scalar at or above 0.
    """

    current: tuple[UncertainInterval, ...]
    queried: tuple[int, ...]
    spent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "current", _intervals("current", self.current, "current intervals"))
        object.__setattr__(self, "queried", _as_tuple("queried", self.queried))
        object.__setattr__(self, "spent", scalar(self.spent))
        if len(self.current) != len(self.queried):
            raise InvariantViolation("queried counts do not match intervals")
        _require_ints("query count", *self.queried)
        if any(q < 0 for q in self.queried):
            raise InvariantViolation("negative query count")
        if self.spent.numerator < 0:
            raise InvariantViolation(f"negative spend {rational_text(self.spent)}")

    @property
    def n(self) -> int:
        return len(self.current)


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """An ordering of item indices, first-to-last."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", _as_tuple("order", self.order))
        _require_ints("order entry", *self.order)
        if sorted(self.order) != list(range(len(self.order))):
            raise InvariantViolation(f"not a permutation of 0..{len(self.order) - 1}: {rational_text(self.order)}")

    def __iter__(self):
        return iter(self.order)

    def __len__(self):
        return len(self.order)


def valid_permutation(
    inst: Instance,
    values: Optional[Sequence[ScalarLike]],
    pi: Union[Permutation, Sequence[int]],
) -> bool:
    """Does the ordering respect the given values up to the threshold?

    True iff for every pair placed ``i`` before ``j``,
    ``values[i] <= values[j] + delta``: a running maximum suffices.  Pass
    ``values=None`` to check against the instance's own hidden realization.
    ``pi`` must be a `Permutation` of the items, or ints that make one.
    """
    if values is None:
        values = inst.values
    if values is None:
        raise MissingRealization(
            "cannot validate an ordering without values to compare"
        )
    vals = tuple(scalar(v) for v in _as_tuple("values", values))
    if len(vals) != inst.n:
        raise InvariantViolation(f"{len(vals)} values for {inst.n} items")
    order = Permutation(pi).order
    if len(order) != inst.n:
        raise InvariantViolation(f"not a permutation of 0..{inst.n - 1}: {rational_text(order)}")
    ordered = [vals[k] for k in order]
    return all(
        peak <= v + inst.delta
        for peak, v in zip(accumulate(ordered, max), ordered[1:])
    )


def build_permutation(items: Sequence[UncertainInterval], delta: Fraction) -> Permutation:
    """Order pairwise-independent intervals into a guaranteed-valid sequence.

    ``items`` is a sequence of intervals, such as a run's final current
    intervals.  Precondition: no two of them are dependent (raises
    `UnresolvedDependency` otherwise).  Item ``a`` is forced before ``b``
    when ``a`` certainly cannot exceed ``b`` by more than the threshold while
    the reverse is not certain; ties -- neither direction forced -- are
    broken by scheduling greedily among available items, smallest
    ``(lo, index)`` first, which keeps the output deterministic.

    Each unordered pair is decided once, by two tests: ``a.hi - b.lo <= delta``
    says ``a`` may come first, ``b.hi - a.lo <= delta`` that ``b`` may.
    Independence makes at least one hold, and exactly one forces its order.  The
    forced relation is acyclic, since ``a`` forced before ``b`` implies
    ``a.lo + a.hi < b.lo + b.hi``, so the schedule always takes every item.
    """
    items = _intervals("items", items)
    n, delta = len(items), threshold(delta)
    require_independent(items, delta)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for j, b in enumerate(items):
        for i, a in enumerate(items[:j]):
            a_may_lead, b_may_lead = a.hi - b.lo <= delta, b.hi - a.lo <= delta
            if not b_may_lead:
                succ[i].append(j)
                indeg[j] += 1
            elif not a_may_lead:
                succ[j].append(i)
                indeg[i] += 1

    ready = [(a.lo, i) for i, a in enumerate(items) if not indeg[i]]
    heapify(ready)
    out: list[int] = []
    while ready:
        _, i = heappop(ready)
        out.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heappush(ready, (items[j].lo, j))
    return Permutation(tuple(out))
