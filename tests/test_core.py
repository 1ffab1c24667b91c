"""Interval arithmetic, predicates, instance validation, permutations."""

import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    Instance,
    InvariantViolation,
    MissingRealization,
    Permutation,
    UncertainInterval,
    UnresolvedDependency,
    build_permutation,
    dependent,
    interval,
    is_trivial,
    isqrt_bounds,
    scalar,
    singleton_witness_static,
    singleton_witness_value,
    valid_permutation,
)
from querysort.core import on_grid

# Small exact rationals for property tests.
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
thresholds = st.fractions(min_value=0, max_value=5, max_denominator=4)


def ivs(lo, width):
    return UncertainInterval(lo, lo + width)


intervals_st = st.builds(
    ivs, rationals, st.fractions(min_value=0, max_value=10, max_denominator=8)
)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def test_scalar_accepts_exact_inputs():
    assert scalar(3) == F(3)
    assert scalar("7/2") == F(7, 2)
    assert scalar(F(1, 3)) == F(1, 3)


def test_scalar_rejects_floats_and_bools():
    with pytest.raises(InvariantViolation):
        scalar(0.5)
    with pytest.raises(InvariantViolation):
        scalar(True)


def test_isqrt_bounds_encloses_sqrt3():
    lo, hi = isqrt_bounds(3, F(1, 10**12))
    assert lo <= hi
    assert hi - lo <= F(1, 10**12)
    assert lo * lo <= 3 <= hi * hi


def test_isqrt_bounds_exact_square():
    lo, hi = isqrt_bounds(4, F(1, 1000))
    assert lo <= 2 <= hi
    assert hi - lo <= F(1, 1000)


def test_isqrt_bounds_of_zero_is_exact():
    assert isqrt_bounds(0, F(1, 10)) == (F(0), F(0))


#: Each refused precision, run in a child process so that a regression to the endless
#: iteration fails on the timeout instead of hanging the suite.  ``0.5`` follows a call at
#: ``F(1, 2)``, whose cached answer it must not get; the last two go through `Sqrt3Prob`.
PRECISION_SCRIPT = """
from fractions import Fraction as F
from querysort import InvariantViolation, Sqrt3Prob, isqrt_bounds
isqrt_bounds(3, F(1, 2))
for call in (lambda: isqrt_bounds(4, F(0)), lambda: isqrt_bounds(3, F(-1)), lambda: isqrt_bounds(0, F(0)),
             lambda: isqrt_bounds(3, "x"), lambda: isqrt_bounds(3, 0.5), lambda: isqrt_bounds(3, True),
             lambda: Sqrt3Prob(1, 1).enclosure(F(0)), lambda: Sqrt3Prob(1, 1).enclosure(0.25)):
    try:
        print("returned", call())
    except InvariantViolation as exc:
        print(exc)
"""


def test_isqrt_bounds_refuses_a_precision_that_is_not_positive():
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", PRECISION_SCRIPT], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
    floats = "floats are not allowed as scalars (got {}); pass an int, Fraction, or string like '5/2'"
    assert done.stdout.splitlines() == [
        "square root precision must be positive, got 0",
        "square root precision must be positive, got -1",
        "square root precision must be positive, got 0",
        "not a rational number: 'x'",
        floats.format("0.5"),
        floats.format("True"),
        "square root precision must be positive, got 0",
        floats.format("0.25"),
    ]


def test_isqrt_bounds_reads_its_precision_as_a_scalar():
    assert isqrt_bounds(3, "1/1000") == isqrt_bounds(3, F(1, 1000))
    assert isqrt_bounds(4, 1) == isqrt_bounds(4, F(1))


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_interval_validation():
    with pytest.raises(InvariantViolation):
        interval(3, 2)
    with pytest.raises(InvariantViolation):
        interval(0, 1, -1)


def test_interval_accessors():
    a = interval(1, 4, 2)
    assert a.width == 3
    assert not a.is_point
    assert a.contains(F(1)) and a.contains(F(4)) and not a.contains(F(5))
    pt = a.collapse(F(2))
    assert pt.is_point and pt.lo == 2 and pt.cost == a.cost
    with pytest.raises(InvariantViolation):
        a.collapse(F(9))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_dependent_hand_cases():
    a, b = interval(0, 10), interval(4, 14)
    assert dependent(a, b, F(0))
    assert dependent(a, b, F(5))
    assert not dependent(a, b, F(6))  # overlap exactly 6: not strict
    assert not dependent(interval(0, 3), interval(5, 8), F(0))
    # One trivial side is not enough; only two trivial intervals never depend.
    assert dependent(interval(5, 5), interval(0, 10), F(1))
    assert not dependent(interval(5, 5), interval(5, 6), F(1))


@given(intervals_st, intervals_st, thresholds)
def test_dependent_symmetric(a, b, d):
    assert dependent(a, b, d) == dependent(b, a, d)


@given(intervals_st, intervals_st, thresholds)
def test_trivial_pair_never_dependent(a, b, d):
    if is_trivial(a, d) and is_trivial(b, d):
        assert not dependent(a, b, d)


def test_is_trivial_boundary():
    assert is_trivial(interval(0, 2), F(2))
    assert not is_trivial(interval(0, 2), F(1))


def test_static_witness_hand_cases():
    big, small = interval(0, 10), interval(3, 6)
    assert singleton_witness_static(big, small, F(0))
    assert singleton_witness_static(big, small, F(2))
    assert not singleton_witness_static(big, small, F(3))  # padding reaches lo
    assert not singleton_witness_static(small, big, F(0))


@given(intervals_st, intervals_st, thresholds, st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_static_witness_implies_value_witness_everywhere(a, b, d, t):
    # If a strictly straddles b's padded interval, it straddles every value b
    # could reveal.
    if singleton_witness_static(a, b, d):
        v = b.lo + (b.hi - b.lo) * t
        assert singleton_witness_value(a, v, d)


@given(intervals_st, intervals_st, thresholds, st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_value_witness_implies_dependent(a, b, d, t):
    # Flushing on a value witness is always safe: the witnessing interval was
    # dependent on the revealed item to begin with.
    v = b.lo + (b.hi - b.lo) * t
    if singleton_witness_value(a, v, d):
        assert dependent(a, b, d)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def test_instance_validation_rejects_bad_values():
    with pytest.raises(InvariantViolation):
        Instance(F(0), (interval(0, 2),), (F(5),))
    with pytest.raises(InvariantViolation):
        Instance(F(-1), (interval(0, 2),), (F(1),))
    with pytest.raises(InvariantViolation):
        Instance(F(0), (interval(0, 2), interval(3, 4)), (F(1),))


BIG = 10 ** 9 + 7  # a large prime denominator


@pytest.mark.parametrize(
    "args, expect",
    [
        ((1, "5/2", 3), (F(1), F(5, 2), F(3))),
        (("-7/3", -2, "0"), (F(-7, 3), F(-2), F(0))),
        ((F(-1, BIG), " 1/1000000009 ", F(1, 3)), (F(-1, BIG), F(1, BIG + 2), F(1, 3))),
        ((F(2, BIG), F(2, BIG), 0), (F(2, BIG), F(2, BIG), F(0))),
    ],
)
def test_interval_coerces_exact_inputs(args, expect):
    itv = UncertainInterval(*args)
    assert (itv.lo, itv.hi, itv.cost) == expect
    assert all(type(x) is F for x in (itv.lo, itv.hi, itv.cost))


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.5, 1), "floats are not allowed as scalars (got 0.5); pass an int, Fraction, or string like '5/2'"),
        ((0, 1.0), "floats are not allowed as scalars (got 1.0); pass an int, Fraction, or string like '5/2'"),
        ((0, 1, True), "floats are not allowed as scalars (got True); pass an int, Fraction, or string like '5/2'"),
        ((False, 1), "floats are not allowed as scalars (got False); pass an int, Fraction, or string like '5/2'"),
        ((0, "x"), "not a rational number: 'x'"),
        ((2, 1), "empty interval: lo=2 > hi=1"),
        (("-1/3", "-1/2"), "empty interval: lo=-1/3 > hi=-1/2"),
        ((F(1, BIG), F(1, BIG + 2)), "empty interval: lo=1/1000000007 > hi=1/1000000009"),
        ((0, 1, -1), "negative query cost -1"),
        ((-5, -5, F(-1, BIG)), "negative query cost -1/1000000007"),
    ],
)
def test_interval_refuses_bad_inputs(args, message):
    with pytest.raises(InvariantViolation) as exc:
        UncertainInterval(*args)
    assert str(exc.value) == message


def test_instance_coerces_exact_inputs():
    inst = Instance("1/2", (interval(-3, -1), interval(F(1, BIG), F(3, BIG))), (-1, "2/1000000007"))
    assert inst.delta == F(1, 2) and inst.values == (F(-1), F(2, BIG))
    assert all(type(x) is F for x in (inst.delta, *inst.values))
    assert Instance(0, (interval(0, 2),), (0,)).values == (F(0),)  # a value may sit on an endpoint


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.5, (interval(0, 2),), (1,)),
         "floats are not allowed as scalars (got 0.5); pass an int, Fraction, or string like '5/2'"),
        ((0, (interval(0, 2),), (True,)),
         "floats are not allowed as scalars (got True); pass an int, Fraction, or string like '5/2'"),
        ((0, (interval(0, 2),), (1.5,)),
         "floats are not allowed as scalars (got 1.5); pass an int, Fraction, or string like '5/2'"),
        ((-1, (interval(0, 2),), (1,)), "negative threshold -1"),
        ((F(-1, BIG), (interval(0, 2),)), "negative threshold -1/1000000007"),
        ((0, (interval(0, 2),), (5,)), "value 5 of item 0 lies outside [0, 2]"),
        ((0, (interval(0, 2), interval(-3, -1)), (1, -4)), "value -4 of item 1 lies outside [-3, -1]"),
        ((0, (interval(F(1, BIG), F(1, BIG - 1)),), (F(1, BIG + 1),)),
         "value 1/1000000008 of item 0 lies outside [1/1000000007, 1/1000000006]"),
        ((0, (interval(-4, -2),), (-2,), ((interval("-7/2", "-3/2"), interval(-2, -2)),)),
         "item 0 step 0: [-7/2, -3/2] is not nested in [-4, -2]"),
        ((0, (interval(F(1, BIG), 1),), (F(1, BIG),), ((interval(F(1, BIG + 2), 1), interval(F(1, BIG), F(1, BIG))),)),
         "item 0 step 0: [1/1000000009, 1] is not nested in [1/1000000007, 1]"),
        ((0, (interval(0, 1),), (F(1, BIG),), ((interval(F(1, BIG + 2), 1), interval(0, 0)),)),
         "item 0 step 1: [0, 0] is not nested in [1/1000000009, 1]"),
        ((0, (interval(0, 2),), (1,), ((interval(1, 1),),), ((-1,),)), "negative time cost -1"),
    ],
)
def test_instance_refuses_bad_inputs(args, message):
    with pytest.raises(InvariantViolation) as exc:
        Instance(*args)
    assert str(exc.value) == message


def test_instance_script_validation():
    itv = interval(0, 10)
    good = Instance(
        F(0),
        (itv,),
        (F(4),),
        refinements=((UncertainInterval(F(2), F(6)), UncertainInterval(F(4), F(4))),),
    )
    assert good.refinements[0][-1].is_point
    # script not nested
    with pytest.raises(InvariantViolation):
        Instance(
            F(0),
            (itv,),
            (F(4),),
            refinements=((UncertainInterval(F(2), F(12)), UncertainInterval(F(4), F(4))),),
        )
    # script must end in the value point
    with pytest.raises(InvariantViolation):
        Instance(
            F(0),
            (itv,),
            (F(4),),
            refinements=((UncertainInterval(F(3), F(5)),),),
        )
    # time costs must match script length
    with pytest.raises(InvariantViolation):
        Instance(
            F(0),
            (itv,),
            (F(4),),
            refinements=((UncertainInterval(F(4), F(4)),),),
            time_costs=((F(1), F(1)),),
        )


def test_instance_grid():
    """One scale for the threshold, the endpoints, the values and the script
    entries; costs take no part in it."""
    inst = Instance(
        F(1, 3),
        (interval(0, "5/2", "1/11"), interval("1/7", 4)),
        (F(1), F(2)),
        refinements=(None, (interval("1/5", 3), interval(2, 2))),
    )
    grid = inst.grid
    assert grid.scale == 3 * 2 * 7 * 5
    assert grid.delta == 70
    assert grid.los == (0, 30) and grid.his == (525, 840) and grid.values == (210, 420)
    assert inst.grid is grid
    assert Instance(inst.delta, inst.intervals).grid.values is None


def test_on_grid_never_rounds():
    assert on_grid(F(5, 6), 12) == 10
    assert on_grid(F(-3), 7) == -21
    with pytest.raises(InvariantViolation, match="not on the integer grid"):
        on_grid(F(1, 7), 12)


def test_instance_helpers():
    inst = Instance(F(1), (interval(0, 4), interval(2, 6)), (F(1), F(5)))
    assert inst.n == 2
    assert inst.costs == (F(1), F(1))
    assert Instance(inst.delta, inst.intervals).values is None


def shrink_delta(inst):
    """Rewrite a positive-threshold instance as an equivalent zero-threshold one.

    Pulling both endpoints of every interval inward by ``delta/2`` maps each
    dependency at threshold ``delta`` to a dependency at threshold zero and
    vice versa, so the query-set structure carries over unchanged.  Requires
    every interval to be non-trivial (a trivial interval would turn inside
    out).  Values are dropped: a shrunken interval need not contain them.
    """
    if inst.delta == 0:
        return Instance(inst.delta, inst.intervals) if inst.values is not None else inst
    half = inst.delta / 2
    shrunk = []
    for i, itv in enumerate(inst.intervals):
        if is_trivial(itv, inst.delta):
            raise InvariantViolation(
                f"cannot shrink: item {i} ({itv}) has width <= threshold"
            )
        shrunk.append(UncertainInterval(itv.lo + half, itv.hi - half, itv.cost))
    return Instance(F(0), tuple(shrunk))


def test_shrink_delta_preserves_dependencies():
    inst = Instance(F(2), (interval(0, 10), interval(4, 14), interval(13, 20)))
    flat = shrink_delta(inst)
    assert flat.delta == 0
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            assert dependent(inst.intervals[i], inst.intervals[j], inst.delta) == dependent(
                flat.intervals[i], flat.intervals[j], F(0)
            )


@given(
    st.lists(
        st.tuples(rationals, st.fractions(min_value=3, max_value=10, max_denominator=4)),
        min_size=1,
        max_size=6,
    ),
    st.fractions(min_value=0, max_value=2, max_denominator=2),
)
def test_shrink_delta_equivalence_property(raw, d):
    ivs_ = tuple(UncertainInterval(lo, lo + w) for lo, w in raw)
    inst = Instance(d, ivs_)
    flat = shrink_delta(inst)
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            assert dependent(ivs_[i], ivs_[j], d) == dependent(
                flat.intervals[i], flat.intervals[j], F(0)
            )


def test_shrink_delta_rejects_trivial_members():
    inst = Instance(F(2), (interval(0, 1), interval(0, 10)))
    with pytest.raises(InvariantViolation):
        shrink_delta(inst)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(InvariantViolation):
        Permutation((0, 0, 1))
    p = Permutation((2, 0, 1))
    assert p.order.index(0) == 1
    assert list(p) == [2, 0, 1]


def test_valid_permutation_hand_cases():
    inst = Instance(F(0), (interval(0, 4), interval(0, 6)), (F(3), F(1)))
    assert valid_permutation(inst, None, (1, 0))
    assert not valid_permutation(inst, None, (0, 1))
    # threshold tolerance: out-of-order by exactly delta is fine
    inst2 = Instance(F(2), (interval(0, 4), interval(0, 6)), (F(3), F(1)))
    assert valid_permutation(inst2, None, (0, 1))
    assert valid_permutation(inst2, (F(3), F(1)), (0, 1))
    with pytest.raises(MissingRealization):
        valid_permutation(Instance(inst.delta, inst.intervals), None, (0, 1))
    with pytest.raises(InvariantViolation):
        valid_permutation(inst, None, (0, 0))


def test_orders_take_only_ints():
    """A float, a bool or a `Fraction` equal to an index names no item, in
    `Permutation` and in `valid_permutation` alike; the first such entry is named."""
    inst = Instance(F(0), (interval(0, 1), interval(1, 2), interval(2, 3)), (F(0), F(1), F(2)))
    for order, bad in (([0.0, 1.0, 2.0], "0.0"), ([True, False, 2], "True"), ([0, 1, F(2)], "Fraction(2, 1)")):
        for check in (Permutation, lambda pi: valid_permutation(inst, None, pi)):
            with pytest.raises(InvariantViolation, match=re.escape(f"order entry {bad} is not an int")):
                check(order)
    assert valid_permutation(inst, None, [0, 1, 2]) and Permutation([2, 1, 0]).order == (2, 1, 0)


def test_build_permutation_orders_points():
    order = build_permutation(
        [UncertainInterval(F(5), F(5)), UncertainInterval(F(1), F(1)), UncertainInterval(F(3), F(3))],
        F(0),
    )
    assert list(order) == [1, 2, 0]


def test_build_permutation_rejects_dependent_pairs():
    with pytest.raises(UnresolvedDependency):
        build_permutation([interval(0, 4), interval(2, 6)], F(0))


@given(
    st.lists(rationals, min_size=1, max_size=7),
    thresholds,
)
def test_build_permutation_on_points_is_valid(points, d):
    state = [UncertainInterval(v, v) for v in points]
    order = build_permutation(state, d)
    inst = Instance(d, tuple(interval(v - 1, v + 1) for v in points), tuple(points))
    assert valid_permutation(inst, tuple(points), order)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(rationals, st.fractions(min_value=0, max_value=6, max_denominator=4)),
        min_size=1,
        max_size=6,
    ),
    thresholds,
)
def test_build_permutation_fuzz_independent_states(raw, d):
    # mix of points and intervals; only keep states with no dependent pair
    state = [UncertainInterval(lo, lo + w) for lo, w in raw]
    for i in range(len(state)):
        for j in range(i + 1, len(state)):
            if dependent(state[i], state[j], d):
                return
    order = build_permutation(state, d)
    # The guarantee: whatever true values the intervals hide, the order is
    # threshold-consistent.  For independent intervals that means every
    # earlier item's high end is within the threshold of every later item's
    # low end.
    placed = list(order)
    for a in range(len(placed)):
        for b in range(a + 1, len(placed)):
            i, j = placed[a], placed[b]
            assert state[i].hi <= state[j].lo + d
