"""Seeded inputs for the benchmark: the sparse instance generator and the
ratio-sweep command list.

Every input is a pure function of the workload seed, so the same seed gives
the same instances on every commit.  Only the package's public constructors
are used; the library under test receives finished instances or documents.
"""

from __future__ import annotations

import random
from fractions import Fraction

from querysort import Instance, UncertainInterval

#: Widths are drawn from ``{0, 1/2, ..., MAX_WIDTH}``.
MAX_WIDTH = 12


def sparse_draw(rng: random.Random, n: int) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """``(lo, hi, value, rational cost)`` for ``n`` items at fixed mean degree.

    ``lo`` lies on the half-integer grid over ``[0, 4n]`` and widths are at
    most ``MAX_WIDTH``, so the chance that two intervals overlap falls as
    ``1/n`` and the expected number of edges per vertex stays near 1.5 at
    every ``n``.  Values sit on a 1/16 grid inside their interval, which
    includes both endpoints, so boundary ties occur.
    """
    rows = []
    for _ in range(n):
        lo = Fraction(rng.randint(0, 8 * n), 2)
        halves = rng.randint(0, 2 * MAX_WIDTH)
        value = lo + Fraction(rng.randint(0, 8 * halves), 16)
        cost = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        rows.append((lo, lo + Fraction(halves, 2), value, cost))
    return rows


def sparse_instance(rows, delta: Fraction, rational_costs: bool) -> Instance:
    """The instance of a `sparse_draw` at threshold ``delta``.

    With ``rational_costs`` false every query costs 1, as the uniform-cost
    strategies require.
    """
    return Instance(
        delta,
        tuple(
            UncertainInterval(lo, hi, cost if rational_costs else Fraction(1))
            for lo, hi, _, cost in rows
        ),
        tuple(value for _, _, value, _ in rows),
    )


def ratio_commands(seed: int) -> list[list[str]]:
    """The ratio-sweep list: every strategy and every adversarial family.

    Randomized families start at ``1000 * seed`` so that neighbouring
    seeds share no instance.
    """
    s = ["--seed", str(1000 * seed)]
    random10 = ["random", "--n", "10", "--trials", "40"] + s
    return [
        ["ratio", "alg1"] + random10 + ["--p", "1/2"],
        ["ratio", "alg1"] + random10 + ["--p", "1"],
        ["ratio", "alg2"] + random10 + ["--delta", "1/2", "--rule", "half"],
        ["ratio", "alg2"] + random10 + ["--delta", "1/2", "--rule", "sqrt3"],
        ["ratio", "alg2", "cost_path", "--n", "16"] + s,
        ["ratio", "alg1", "triangle_chain", "--k", "4"] + s,
        ["ratio", "alg3", "cpcp", "--n", "6", "--M", "4"] + s,
        ["ratio", "alg3"] + random10 + ["--delta", "1/2"],
        ["ratio", "advice_half", "random", "--n", "12", "--trials", "10"] + s,
        ["ratio", "advice_lg3", "random", "--n", "10", "--trials", "10", "--delta", "1"] + s,
        ["ratio", "advice_lg3", "advice_triangles", "--n", "3", "--delta", "1"] + s,
        ["ratio", "simple"] + random10,
        ["ratio", "stable_sort"] + random10,
        ["ratio", "vc", "laminar", "--n", "40", "--trials", "10"] + s,
        ["ratio", "oblivious", "nested_star", "--n", "40"] + s,
    ]
