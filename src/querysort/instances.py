"""Instance generators, worst-case families, and canonical serialization.

Seeded random generators produce fuzzing corpora (deterministic in the
seed); the named families reproduce the hard instances that pin each
strategy's worst-case ratio, each shipped with the value assignment that
actually achieves it.  Adversarial families that punish a coin-driven
choice accept a ``punish`` argument selecting which deterministic variant
the values are stacked against.  `serialize` gives the document format.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (Instance, UncertainInterval, _require_ints, interval, rational_text, read_rational,
                   scalar, threshold)
from .errors import InvariantViolation, ParseError

# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------

_COST_MODELS = ("uniform", "rational-range")
_VALUE_MODELS = ("uniform-in-interval", "endpoint-biased", "generic")

#: The unit cost, and `gen_random`'s endpoints ``k/2`` and values ``m/32`` on its first grid, built once.
_ONE = Fraction(1)
_HALVES = tuple(Fraction(k, 2) for k in range(106))
_THIRTY_SECONDS = tuple(Fraction(m, 32) for m in range(16 * 105 + 1))


def _at_least(name: str, k: int, least: int, refusal: str) -> None:
    """Refuse a size ``k``, the parameter ``name``, that is not an int, or, in the words
    ``refusal``, one below ``least``: every generator checks its sizes here first."""
    _require_ints(name, k)
    if k < least:
        raise InvariantViolation(refusal)


def _draw_intervals(rng: random.Random, n: int, cost_model: str) -> list[tuple[int, int, Fraction]]:
    """``(2 lo, 2 hi, cost)`` of each drawn interval: the endpoints in half-units."""
    out = []
    for _ in range(n):
        lo = rng.randrange(81)  # `randrange(k)` draws what `randint(0, k - 1)` does, faster
        hi = lo + rng.randrange(25)
        cost = _ONE if cost_model == "uniform" else Fraction(1 + rng.randrange(12), rng.choice((1, 2, 3, 4)))
        out.append((lo, hi, cost))
    return out


def _generic_position_ok(values: Sequence[Fraction], ivs: Sequence[UncertainInterval], delta: Fraction) -> bool:
    """No value sits on another interval's endpoint plus or minus ``delta``, and no
    two values lie exactly ``delta`` apart; counted, not compared pair by pair."""
    marks = [{itv.lo - delta, itv.lo + delta, itv.hi - delta, itv.hi + delta} for itv in ivs]
    hits = Counter(x for own in marks for x in own)
    if any(hits[v] > (v in own) for v, own in zip(values, marks)):
        return False
    present = set(values)
    if delta == 0:
        return len(present) == len(values)
    return not any(v + delta in present for v in values)


def gen_random(
    seed: int,
    n: int,
    delta,
    cost_model: str = "uniform",
    value_model: str = "uniform-in-interval",
) -> Instance:
    """Seeded random instance on a half-integer grid.

    ``cost_model``: "uniform" (all 1) or "rational-range".  ``value_model``:
    "uniform-in-interval" (grid draw, endpoint ties possible),
    "endpoint-biased" (value equals an endpoint with probability >= 1/4
    per side), or "generic" (resampled until no value sits exactly on
    another interval's decision boundary).  The grid makes boundary ties
    genuinely likely under the first two models, which is the point.
    """
    _at_least("n", n, 1, "need at least one interval")
    for model, known in ((cost_model, _COST_MODELS), (value_model, _VALUE_MODELS)):
        if model not in known:
            raise InvariantViolation(f"unknown model {model!r}")
    delta = threshold(delta)
    _require_ints("seed", seed)
    rng = random.Random(seed)
    drawn = _draw_intervals(rng, n, cost_model)
    if value_model == "generic":
        # A zero-width interval pins its value, which can make generic
        # position unreachable; give every member room to move.
        drawn = [(lo, hi + (lo == hi), cost) for lo, hi, cost in drawn]
    ivs = [UncertainInterval(_HALVES[lo], _HALVES[hi], cost) for lo, hi, cost in drawn]

    def draw_values(denominator: int) -> list[Fraction]:
        """Each value ``lo + (hi - lo) k / denominator`` for a drawn grid step ``k``."""
        out = []
        for (lo, hi, _), itv in zip(drawn, ivs):
            if value_model == "endpoint-biased" and (side := rng.randrange(4)) < 2:  # an endpoint, at odds 1/2
                out.append(itv.hi if side else itv.lo)
                continue
            # a generic value is strictly interior, so it never sits on its own edge
            inset = 1 if value_model == "generic" else 0
            m = lo * denominator + (hi - lo) * (inset + rng.randrange(denominator + 1 - 2 * inset))
            out.append(_THIRTY_SECONDS[m] if denominator == 16 else Fraction(m, 2 * denominator))
        return out

    if value_model == "generic":
        denominator = 16
        while True:
            values = draw_values(denominator)
            if _generic_position_ok(values, ivs, delta):
                break
            denominator *= 2
    else:
        values = draw_values(16)
    return Instance(delta, tuple(ivs), tuple(values))


def gen_random_scripted(seed: int, n: int, delta, max_steps: int = 4) -> Instance:
    """Random instance where queries may return refined intervals.

    Each item gets either no script (a direct reveal) or a nested script of
    up to ``max_steps`` entries ending in its value point; refinement steps
    may stall (repeat the previous interval).  Some items carry per-step
    prices, the rest charge their flat cost every step.
    """
    _at_least("n", n, 1, "need at least one interval")
    _at_least("max_steps", max_steps, 1, "scripts need at least one step")
    delta = threshold(delta)
    _require_ints("seed", seed)
    rng = random.Random(seed)
    ivs = []
    for _ in range(n):
        lo = Fraction(rng.randint(0, 60), 2)
        width = Fraction(rng.randint(2, 20), 2)
        ivs.append(UncertainInterval(lo, lo + width, Fraction(rng.randint(1, 6))))
    values = [
        itv.lo + itv.width * Fraction(rng.randint(0, 16), 16) for itv in ivs
    ]
    refinements: list[Optional[tuple[UncertainInterval, ...]]] = []
    time_costs: list[Optional[tuple[Fraction, ...]]] = []
    any_script = False
    for i, itv in enumerate(ivs):
        if rng.random() < Fraction(3, 10):
            refinements.append(None)
            time_costs.append(None)
            continue
        any_script = True
        steps = rng.randint(1, max_steps)
        entries = []
        lo, hi = itv.lo, itv.hi
        for _ in range(steps - 1):
            lo = lo + (values[i] - lo) * Fraction(rng.randint(0, 4), 4)
            hi = hi - (hi - values[i]) * Fraction(rng.randint(0, 4), 4)
            entries.append(UncertainInterval(lo, hi, itv.cost))
        entries.append(UncertainInterval(values[i], values[i], itv.cost))
        refinements.append(tuple(entries))
        if rng.random() < Fraction(1, 2):
            time_costs.append(tuple(Fraction(rng.randint(0, 8), 2) for _ in entries))
        else:
            time_costs.append(None)
    if not any_script:
        refinements[0] = (UncertainInterval(values[0], values[0], ivs[0].cost),)
    return Instance(
        delta,
        tuple(ivs),
        tuple(values),
        refinements=tuple(refinements),
        time_costs=tuple(time_costs),
    )


# ---------------------------------------------------------------------------
# Two-interval and triangle families
# ---------------------------------------------------------------------------


def _tiled(copies: int, step, block, *value_rows) -> tuple[list, ...]:
    """``copies`` copies of ``block``, ``(lo, hi)`` pairs of unit-cost intervals, and of each
    row of values: the intervals, then one value list per row, copy ``t`` shifted by ``t * step``."""
    shifts = [t * step for t in range(copies)]
    return ([interval(lo + s, hi + s) for s in shifts for lo, hi in block],
            *([v + s for s in shifts for v in row] for row in value_rows))


def gen_lemma4_pair(delta) -> tuple[Instance, Instance]:
    """One overlapping pair with both one-sided punishing realizations.

    Either realization has optimum cost 1, but realization A forces a
    second query on whoever queries the first interval first, and
    realization B punishes the opposite order -- the structure that pins
    the deterministic ratio 2 and the fair-coin expectation 3/2.
    """
    delta = threshold(delta)
    s = Fraction(1) if delta < 3 else delta
    ivs = (interval(0, 10 * s), interval(4 * s, 14 * s))
    a = Instance(delta, ivs, (7 * s, 12 * s))
    b = Instance(delta, ivs, (2 * s, 7 * s))
    return a, b


_TRIANGLE_GADGET = ((0, 10), (2, 12), (4, 21), (13, 23), (15, 25))
#: The gadget's values that steer the "lower" coin variant into all five queries.
_PUNISH_LOWER = (1, 7, Fraction(25, 2), 19, 24)


def gen_lemma7_two_triangles(punish: str = "lower") -> Instance:
    """Two overlapping triangles whose realization defeats a fixed coin bias.

    Five proper intervals forming triangles on vertices {0,1,2} and
    {2,3,4}.  The optimum queries three intervals; the deterministic
    strategy variant selected by ``punish`` ("lower": always query the
    lower-indexed member of an isolated pair; "upper": the opposite) is
    steered into querying all five, meeting its 5/3 bound exactly.
    """
    ivs = tuple(interval(lo, hi) for lo, hi in _TRIANGLE_GADGET)
    if punish == "lower":
        values = _PUNISH_LOWER
    elif punish == "upper":
        values = (1, 7, Fraction(25, 2), 14, 16)
    else:
        raise InvariantViolation("punish must be 'lower' or 'upper'")
    return Instance(Fraction(0), ivs, tuple(scalar(v) for v in values))


def gen_triangle_chain(k: int, punish: str = "lower") -> Instance:
    """``k`` triangles plus one closing pair, laid out block by block.

    Each triangle costs the adaptive strategy three queries against an
    optimum of two; the final pair costs two against one for the coin
    variant selected by ``punish``.  Total: 3k+2 queries against an
    optimum of 2k+1.
    """
    _at_least("k", k, 1, "need at least one triangle")
    if punish not in ("lower", "upper"):
        raise InvariantViolation("punish must be 'lower' or 'upper'")
    # The middle value straddles the first interval, forcing it; the
    # outer two values land outside every other interior.
    ivs, values = _tiled(k, 30, ((0, 10), (2, 12), (4, 21)), (1, 3, 13))
    base = 30 * k
    ivs += [interval(base, base + 10), interval(base + 2, base + 12)]
    if punish == "lower":
        values += [base + 5, base + 11]
    else:
        values += [base + 1, base + 5]
    return Instance(Fraction(0), tuple(ivs), tuple(values))


def gen_advice_triangles(m: int, delta) -> tuple[Instance, Instance, Instance]:
    """Disjoint triangles with three realizations, one per excluded corner.

    Every triangle uses the same three-interval block (scaled by the
    threshold); the three returned instances realize values so that the
    unique optimum omits exactly the first, second, or third member of
    each triangle, respectively -- the family on which naming the excluded
    member is worth a full log2(3) bits per triangle.  The block's layout
    scales with the threshold, so it holds at every positive one.
    """
    _at_least("m", m, 1, "need at least one triangle")
    if not (d := threshold(delta)):
        raise InvariantViolation("this family needs a positive threshold")
    base = (
        (Fraction(0), 6 * d),
        (Fraction(4, 5) * d, Fraction(36, 5) * d),
        (2 * d, 8 * d),
    )
    l1, r1 = base[0]
    l2, r2 = base[1]
    l3, r3 = base[2]
    patterns = (
        (r1, r2, r3),
        (l1, 4 * d, r3),
        (l1, l2, l3),
    )
    ivs, *rows = _tiled(m, 10 * d, base, *patterns)
    return tuple(Instance(d, tuple(ivs), tuple(values)) for values in rows)


def gen_independent_pairs(m: int, delta=0) -> Instance:
    """Disjoint copies of the punishing pair; optimum is one query per pair.

    The family on which one advice bit per pair is both sufficient and
    necessary.
    """
    _at_least("m", m, 1, "need at least one pair")
    d = threshold(delta)
    a, _ = gen_lemma4_pair(d)
    span = a.intervals[1].hi + max(d, 1) + 6
    ivs, values = _tiled(m, span, [(itv.lo, itv.hi) for itv in a.intervals], a.values)
    return Instance(d, tuple(ivs), tuple(values))


# ---------------------------------------------------------------------------
# Structured families
# ---------------------------------------------------------------------------


def gen_figure3_chain(k: int) -> Instance:
    """Connected chain of ``k`` five-interval gadgets joined by forced pairs.

    Layout per block ``i`` (7 intervals each plus a closing pair): a
    connector pair whose values sit in the pair's common overlap, so both
    connectors are in every solution, then the two-triangle gadget.  The
    optimum takes the 2(k+1) connectors plus 3 per gadget.
    """
    _at_least("k", k, 1, "need at least one block")
    # k + 1 tiles of a connector pair and the gadget; the last tile keeps only its connectors
    ivs, values = _tiled(k + 1, 40, ((-16, -1), (-14, 1), *_TRIANGLE_GADGET), (-8, -7, *_PUNISH_LOWER))
    return Instance(Fraction(0), tuple(ivs[:-5]), tuple(values[:-5]))


def gen_laminar(seed: int, n: int, depth: int = 3) -> Instance:
    """Random family where every intersecting pair is strictly nested.

    Containers strictly enclose their children with positive gaps between
    siblings, so the witness cascade alone resolves everything an optimal
    solution must resolve.
    """
    _at_least("n", n, 1, "need at least one interval")
    _at_least("depth", depth, 0, "depth must be non-negative")
    _require_ints("seed", seed)
    rng = random.Random(seed)
    # Intervals as (lo, hi, denominator, depth left): integer numerators over a
    # denominator, which a child takes from its parent times the slot count.
    spans: list[tuple[int, int, int, int]] = []
    frontier: list[tuple[int, int, int, int]] = []  # regions still allowed to receive children
    root_cursor = 0
    while len(spans) < n:
        if frontier:
            lo, hi, den, level = frontier.pop(rng.randrange(len(frontier)))
            children = min(rng.randint(1, 3), n - len(spans))
            # Carve strictly interior, mutually gapped child slots.
            slots = 2 * children + 1
            new = [(lo * slots + (hi - lo) * (2 * c + 1), lo * slots + (hi - lo) * (2 * c + 2), den * slots, level - 1)
                   for c in range(children)]
        else:
            width = rng.randint(8, 24)
            new = [(root_cursor, root_cursor + width, 1, depth)]
            root_cursor += width + rng.randint(1, 5)
        spans += new
        frontier += [span for span in new if span[3] > 0]
    ivs = [UncertainInterval(Fraction(lo, den), Fraction(hi, den), _ONE) for lo, hi, den, _ in spans]
    values = tuple(Fraction(16 * lo + (hi - lo) * rng.randint(0, 16), 16 * den) for lo, hi, den, _ in spans)
    return Instance(Fraction(0), tuple(ivs), values)


def gen_nested_star(n: int) -> Instance:
    """One big interval overlapping n-1 mutually disjoint small ones.

    The realization puts the big interval's value outside every small one,
    so the optimum is the single big query -- while any strategy that must
    commit its query set in advance pays for all n.
    """
    _at_least("n", n, 2, "need at least two intervals")
    ivs = [UncertainInterval(Fraction(2 * i), Fraction(2 * i + 1), _ONE) for i in range(n - 1)]
    values = [Fraction(4 * i + 1, 2) for i in range(n - 1)]
    ivs.append(interval(-1, 2 * (n - 1)))
    values.append(scalar(-1))
    return Instance(Fraction(0), tuple(ivs), tuple(values))


def gen_cost_path(n: int, eps) -> Instance:
    """Path of ``n`` intervals where cheap forced queries mask a costly trap.

    The first two intervals (cost 1 each) form the punishing pair; the
    remaining n-2 (cost ``eps``) carry mutually straddling values, so all
    of them are in every solution.  A cover-then-patch strategy pays both
    unit-cost intervals; the optimum pays one.
    """
    _at_least("n", n, 2, refusal := "the path needs an even number of intervals, at least two")
    if n % 2:
        raise InvariantViolation(refusal)
    e = scalar(eps)
    if not (0 < e and e < Fraction(1, 2 * n)):
        raise InvariantViolation("eps must sit strictly between 0 and 1/(2n)")
    ivs = [interval(0, 10)]
    values = [scalar(2)]
    for j in range(1, n):
        cost = Fraction(1) if j == 1 else e
        ivs.append(interval(8 * j - 4, 8 * j + 6, cost))
    values.append(scalar(7))
    for j in range(2, n, 2):
        values.append(scalar(8 * j + 5))
        values.append(scalar(8 * j) + Fraction(11, 2))
    return Instance(Fraction(0), tuple(ivs), tuple(values))


def gen_cpcp_adversary(n: int, M: int) -> Instance:
    """Refinement-model path whose last pair stalls for ``M`` queries each.

    The first 2n-2 intervals reveal in one step and force each other in
    pairs.  The final two keep returning their original interval until the
    M-th step; their values are placed so that fully querying the
    higher-index one resolves the pair, but the lower one never does --
    an alternating strategy pays 2M on the pair, the optimum M.
    """
    _at_least("n", n, 1, "need at least one pair")
    _at_least("M", M, 1, "scripts need at least one step")
    ivs, values = _tiled(n, 6, ((0, 4), (3, 7)), (Fraction(13, 4), Fraction(15, 4)))
    values[-2:] = 6 * n - Fraction(5, 2), Fraction(6 * n - 2)
    stalled = tuple((itv,) * (M - 1) + (interval(v, v),) for itv, v in zip(ivs[-2:], values[-2:]))
    return Instance(Fraction(0), tuple(ivs), tuple(values), refinements=(None,) * (2 * n - 2) + stalled)


# ---------------------------------------------------------------------------
# Named small fixtures
# ---------------------------------------------------------------------------


def fig1_instance(which: str) -> Instance:
    """The canonical three-interval example in its two realizations.

    Variant "a" forces the outer two intervals (optimum cost 2); variant
    "b" is solved by querying the middle-positioned first interval alone.
    """
    ivs = (interval(2, 7), interval(0, 4), interval(5, 9))
    if which == "a":
        values = (Fraction(11, 2), Fraction(3), Fraction(33, 5))
    elif which == "b":
        values = (Fraction(9, 2), Fraction(3, 2), Fraction(8))
    else:
        raise InvariantViolation("variant must be 'a' or 'b'")
    return Instance(Fraction(0), ivs, values)


# ---------------------------------------------------------------------------
# Interval realizations of the asteroidal graph families
# ---------------------------------------------------------------------------


def _check_asteroid(kind: str, k: int) -> None:
    """Refuse an asteroid ``kind`` other than fig5a and fig5b, or a spine shorter than two."""
    if kind not in ("fig5a", "fig5b"):
        raise InvariantViolation("kind must be 'fig5a' or 'fig5b'")
    _at_least("k", k, 2, "need a spine of at least two")


def asteroid_realization(kind: str, k: int, delta, eps) -> Instance:
    """Interval layout realizing the path-with-satellites graph families.

    ``kind`` "fig5a": vertices [hub, spine 1..k, left tip, right tip, top
    tip]; "fig5b": a second hub after the first.  The near-touching trick:
    the top tip sits between the first two spine intervals, exactly the
    threshold away from both, so it depends on the hub(s) only.  No hidden
    values: this family is about which graphs are realizable at all.
    """
    _check_asteroid(kind, k)
    d = threshold(delta)
    e = scalar(eps)
    if not (0 < e < d):
        raise InvariantViolation("need 0 < eps < delta")
    spine = [interval(3 * d, 7 * d + e)]
    for i in range(2, k + 1):
        spine.append(interval(3 * i * d, (3 * i + 5) * d))
    c = interval(0, Fraction(9, 2) * d)
    dd = interval(Fraction(6 * k + 7, 2) * d, (3 * k + 7) * d)
    ee = interval(6 * d + e, 7 * d)
    if kind == "fig5a":
        hub = interval(4 * d, (3 * k + 2) * d)
        ivs = [hub] + spine + [c, dd, ee]
    else:
        hub = interval(3 * d, (3 * k + 2) * d)
        hub2 = interval(4 * d, Fraction(6 * k + 11, 2) * d)
        ivs = [hub, hub2] + spine + [c, dd, ee]
    return Instance(d, tuple(ivs))


def asteroid_expected_edges(kind: str, k: int) -> frozenset[tuple[int, int]]:
    """Adjacency the realization must reproduce, by vertex index.

    fig5a: hub=0, spine=1..k, c=k+1, d=k+2, e=k+3.  fig5b: hubs 0 and 1,
    spine=2..k+1, c=k+2, d=k+3, e=k+4.
    """
    _check_asteroid(kind, k)
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))

    if kind == "fig5a":
        hubs, spine0, c, dv, ev = (0,), 1, k + 1, k + 2, k + 3
    else:
        hubs, spine0, c, dv, ev = (0, 1), 2, k + 2, k + 3, k + 4
        add(0, 1)
    for i in range(k):
        for h in hubs:
            add(h, spine0 + i)
        if i + 1 < k:
            add(spine0 + i, spine0 + i + 1)
    add(c, spine0)
    add(dv, spine0 + k - 1)
    for h in hubs:
        add(h, ev)
    if kind == "fig5b":
        add(0, c)
        add(1, dv)
    return frozenset(edges)


# ---------------------------------------------------------------------------
# Canonical document format
# ---------------------------------------------------------------------------

_SCHEMA = "1"


def _number_guard(text: str):
    raise InvariantViolation(
        f"bare JSON number {text!r}: all numbers must be exact-rational strings"
    )


def _unique_keys(pairs: list) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise InvariantViolation(f"repeated field {key!r}")
        obj[key] = value
    return obj


def _parse_scalar(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise InvariantViolation(f"{where} must be a rational string, got {raw!r}")
    return read_rational(raw, f"{where} is not a valid rational: {raw!r}")


def _expect_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise InvariantViolation(f"unknown field(s) in {where}: {sorted(unknown)}")


def _endpoints(row, where: str, allowed: set[str]) -> tuple[Fraction, Fraction]:
    """The ``lo`` and ``hi`` of the object ``row``, whose fields must be among ``allowed``."""
    if not isinstance(row, dict):
        raise InvariantViolation(f"{where} must be an object")
    _expect_keys(row, allowed, where)
    if "lo" not in row or "hi" not in row:
        raise InvariantViolation(f"{where} needs 'lo' and 'hi'")
    return _parse_scalar(row["lo"], f"{where} lo"), _parse_scalar(row["hi"], f"{where} hi")


def _per_item(doc: dict, key: str, what: str, n: int, parse: Callable[[int, object], object]) -> Optional[tuple]:
    """``doc[key]`` parsed entry by entry (``parse(i, raw)``), or None when the key is absent;
    refused unless it is a list of one ``what`` per interval."""
    if key not in doc:
        return None
    raw = doc[key]
    if not isinstance(raw, list) or len(raw) != n:
        raise InvariantViolation(f"{key!r} must list one {what} per interval")
    return tuple(parse(i, entry) for i, entry in enumerate(raw))


def serialize(inst: Instance) -> str:
    """Canonical UTF-8 JSON document for an instance, every number an exact-rational string;
    byte-stable per content, so equal instances give identical documents."""
    doc: dict = {
        "schema": _SCHEMA,
        "delta": rational_text(inst.delta),
        "intervals": [{"lo": rational_text(i.lo), "hi": rational_text(i.hi), "cost": rational_text(i.cost)}
                      for i in inst.intervals],
    }
    if inst.values is not None:
        doc["values"] = [rational_text(v) for v in inst.values]
    if inst.refinements is not None:
        doc["refinements"] = [
            None if script is None else [{"lo": rational_text(e.lo), "hi": rational_text(e.hi)} for e in script]
            for script in inst.refinements]
    if inst.time_costs is not None:
        doc["time_costs"] = [None if row is None else [rational_text(c) for c in row] for row in inst.time_costs]
    return json.dumps(doc, indent=2) + "\n"


def deserialize(text: str) -> Instance:
    """Parse a canonical document, rejecting anything nonconforming.

    Malformed JSON raises `ParseError`, with line/column unless it nests too
    deeply to read; structurally valid JSON with bad content (bare numbers,
    unknown or repeated fields, violated interval rules) raises
    `InvariantViolation`.
    """
    try:
        doc = json.loads(text, parse_int=_number_guard, parse_float=_number_guard,
                         object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise InvariantViolation("document root must be an object")
    _expect_keys(
        doc,
        {"schema", "delta", "intervals", "values", "refinements", "time_costs"},
        "document",
    )
    if doc.get("schema") != _SCHEMA:
        raise InvariantViolation(f"unsupported schema {doc.get('schema')!r}")
    if "delta" not in doc or "intervals" not in doc:
        raise InvariantViolation("document needs 'delta' and 'intervals'")
    delta = _parse_scalar(doc["delta"], "delta")
    raw_intervals = doc["intervals"]
    if not isinstance(raw_intervals, list) or not raw_intervals:
        raise InvariantViolation("'intervals' must be a non-empty array")
    ivs = []
    for idx, row in enumerate(raw_intervals):
        lo, hi = _endpoints(row, f"interval {idx}", {"lo", "hi", "cost"})
        cost = _parse_scalar(row.get("cost", "1"), f"interval {idx} cost")
        ivs.append(UncertainInterval(lo, hi, cost))
    n = len(ivs)

    def script(i: int, raw) -> Optional[tuple[UncertainInterval, ...]]:
        if raw is None:
            return None
        if not isinstance(raw, list) or not raw:
            raise InvariantViolation(f"refinement script {i} must be a non-empty array")
        return tuple(UncertainInterval(*_endpoints(entry, f"refinement {i}[{t}]", {"lo", "hi"}), ivs[i].cost)
                     for t, entry in enumerate(raw))

    def time_cost_row(i: int, row) -> Optional[tuple[Fraction, ...]]:
        if row is None:
            return None
        if not isinstance(row, list):
            raise InvariantViolation(f"time_costs {i} must be an array or null")
        return tuple(_parse_scalar(c, f"time_costs {i}[{t}]") for t, c in enumerate(row))

    values = _per_item(doc, "values", "value", n, lambda i, v: _parse_scalar(v, f"value {i}"))
    refinements = _per_item(doc, "refinements", "entry", n, script)
    time_costs = _per_item(doc, "time_costs", "entry", n, time_cost_row)
    return Instance(delta, tuple(ivs), values, refinements=refinements, time_costs=time_costs)
