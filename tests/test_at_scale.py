"""The randomized guarantees, checked exactly on sparse draws far past the
acceptance criteria's n ≤ 10.

`expected_cost_exact` walks each dependent component once, on that
component's own vertices, under a node budget (real flips walked, memo hits
excluded), so a sparse draw at n = 10 000 takes a few thousand flips, not a
coin path per leaf.  Each expectation is compared with `optimum_query_set`,
the exact polynomial optimum.  The draws are `test_local_picks.sparse`:
starts on the half-integer grid over [0, 4n], widths up to 12, so the mean
degree stays near 1.5 at every n; `gen_laminar` at n = 2 000, where the fair
and the deterministic coins are both optimal; and 400 copies of Lemma 7's
two triangles, where the deterministic coins meet their bound.
"""

import inspect
import sys
from fractions import Fraction as F

import pytest

from querysort import (
    FIXED,
    HALF,
    SQRT3,
    algorithm1,
    algorithm2,
    expected_cost_exact,
    gen_cost_path,
    gen_laminar,
    gen_lemma7_two_triangles,
    no_2component_after_preprocess,
    optimum_query_set,
)
from querysort import online
from test_grid_keys import at_zero, uniform
from test_local_picks import side_by_side, sparse


def below_sqrt3_bound(cost, opt):
    """Exactly ``cost ≤ (1 + 4/(3√3)) · opt``: with ``r = cost/opt − 1``, ``r ≤ 0`` or ``27 r² ≤ 16``."""
    r = cost / opt - 1
    return r <= 0 or 27 * r * r <= 16


@pytest.mark.parametrize("n", [400, 2000, 10_000])
def test_fair_coin_is_within_three_halves(n):
    """`algorithm1` with a fair coin, at threshold 0 and unit costs."""
    inst = uniform(at_zero(sparse(n, F(0))))
    _, opt = optimum_query_set(inst)
    assert expected_cost_exact(algorithm1, inst, FIXED(F(1, 2))) <= F(3, 2) * opt


@pytest.mark.parametrize("p", [F(0), F(1, 2), F(1)])
def test_laminar_runs_are_optimal(p):
    """Criterion 9's exactness at n = 2 000: on a laminar family the witness
    cascade resolves what every optimum must, so every coin path is optimal."""
    for s in range(5):
        inst = gen_laminar(s, 2000)
        assert expected_cost_exact(algorithm1, inst, FIXED(p)) == optimum_query_set(inst)[1], s


@pytest.mark.parametrize("p", [F(0), F(1)])
def test_deterministic_coins_are_within_five_thirds(p):
    """`algorithm1` as a deterministic rule at n = 2 000, on a zero-threshold family
    whose warmed-up graph has no single-edge component: p = 1 meets 5/3 exactly."""
    inst = side_by_side(gen_lemma7_two_triangles("lower"), 400)
    assert inst.n == 2000 and no_2component_after_preprocess(inst)
    _, opt = optimum_query_set(inst)
    ratio = expected_cost_exact(algorithm1, inst, FIXED(p)) / opt
    assert ratio <= F(5, 3) and (ratio == F(5, 3) or p == 0)


def test_algorithm2_under_half_is_within_its_bound_at_2000():
    inst = sparse(2000, F(1, 2))
    _, opt = optimum_query_set(inst)
    assert expected_cost_exact(algorithm2, inst, HALF) <= F(57, 32) * opt


def test_algorithm2_under_half_is_within_its_bound_at_10000():
    inst = sparse(10_000, F(1, 2))
    _, opt = optimum_query_set(inst)
    assert expected_cost_exact(algorithm2, inst, HALF) <= F(57, 32) * opt


def test_algorithm2_under_sqrt3_is_within_its_bound_at_2000():
    """The upper end of the `SQRT3` enclosure within 1 + 4/(3√3) of the optimum."""
    inst = sparse(2000, F(1, 2))
    _, opt = optimum_query_set(inst)
    lo, hi = expected_cost_exact(algorithm2, inst, SQRT3)
    assert lo <= hi and below_sqrt3_bound(hi, opt)


def test_algorithm2_is_within_its_bounds():
    """`algorithm2` at n = 400, threshold 1/2, rational costs: within 57/32 under
    `HALF`, and the upper end of the `SQRT3` enclosure within 1 + 4/(3√3)."""
    inst = sparse(400, F(1, 2))
    _, opt = optimum_query_set(inst)
    assert expected_cost_exact(algorithm2, inst, HALF) <= F(57, 32) * opt
    lo, hi = expected_cost_exact(algorithm2, inst, SQRT3)
    assert lo <= hi and below_sqrt3_bound(hi, opt)


def test_the_bounds_check_is_exact():
    s_lo, s_hi = online.Sqrt3Prob(1, 1).enclosure(F(1, 10 ** 30))  # around 1/√3
    assert below_sqrt3_bound(1 + 4 * s_lo / 3, F(1)) and not below_sqrt3_bound(1 + 4 * s_hi / 3, F(1))
    assert below_sqrt3_bound(F(1, 2), F(1))


def test_a_path_past_the_recursion_limit_is_walked():
    """A cost path does not split: its spine puts about n/2 real flips on one coin
    path.  The walk keeps the open flips on a list, not on the interpreter's stack,
    so a path of about 500 real flips is walked with the recursion limit 120 frames above the
    caller."""
    inst = gen_cost_path(1000, F(1, 10 ** 9))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 120)
    try:
        expected = expected_cost_exact(algorithm2, inst, HALF)
    finally:
        sys.setrecursionlimit(limit)
    _, opt = optimum_query_set(inst)
    assert expected <= F(57, 32) * opt
