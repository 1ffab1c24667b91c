"""How a run ends: `online._finish` and the ledger check of `RunReport`.

`_finish` reads a run's counts and spend from the environment's ints and
builds `state()` only to order the final intervals; `RunReport` checks its
total against the transcript's charges summed on one common denominator.
The references are the versions they replaced, kept here: `ref_finish`,
which read counts and spend off `state()` on every run, and `ref_spend`, the
`Fraction` sum of the charges.
"""

from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysort import (
    CpcpEnvironment,
    Environment,
    InvariantViolation,
    Permutation,
    RunReport,
    algorithm3_cpcp,
    gen_random,
    gen_random_scripted,
    online,
)
from querysort.core import build_permutation
from querysort.online import QueryEnvironment
from test_int_paths import STRATEGIES, ref_spend, with_costs

EXTRAS = ("advice_bits", "advice_question_sizes", "witness_sets", "comparisons")


def ref_finish(env, permutation=None, **extra) -> dict:
    """The report's fields as `_finish` made them when every run read `state()`."""
    state = env.state()
    if permutation is None:
        permutation = build_permutation(state.current, env.delta)
    else:
        online._edgeless_paid(env, range(env.n))
    return dict(dict.fromkeys(EXTRAS), queried=state.queried, total_cost=state.spent, permutation=permutation,
                transcript=tuple(env.transcript), **extra)


def finished_beside_the_reference(monkeypatch, run, env, inst):
    """The report of ``run`` on ``env``, and the reference's fields on the same final environment."""
    finish, seen = online._finish, []

    def both(env, permutation=None, **extra):
        seen.append(ref_finish(env, permutation, **extra))
        return finish(env, permutation, **extra)

    with monkeypatch.context() as patch:
        patch.setattr(online, "_finish", both)
        report = run(env, inst)
    (want,) = seen
    return report, want


def assert_as_the_reference(report, want, name):
    got = {f.name: getattr(report, f.name) for f in fields(report)}
    assert got == want, name
    assert type(report.queried) is tuple and all(type(q) is int for q in report.queried), name
    assert type(report.total_cost) is F and report.total_cost == ref_spend(report.transcript), name


@pytest.mark.parametrize("n, delta, cost_model", [
    *((n, delta, cost_model) for n in (6, 50) for delta in (F(0), F(1, 2)) for cost_model in ("uniform", "rational-range")),
    (300, F(0), "uniform"), (150, F(1, 2), "rational-range"),
], ids=str)
def test_every_report_is_the_reference_finish(monkeypatch, n, delta, cost_model):
    """All nine strategies on one `gen_random` draw: every field the reference made."""
    inst = gen_random(n + 7, n, delta, cost_model)
    for name, (run, needs_zero) in STRATEGIES.items():
        if needs_zero and delta != 0:
            continue
        case = with_costs(inst, [F(5, 3)] * n) if name == "algorithm1" and cost_model != "uniform" else inst
        env = (CpcpEnvironment if name == "algorithm3_cpcp" else Environment)(case)
        assert_as_the_reference(*finished_beside_the_reference(monkeypatch, run, env, case), name)


@pytest.mark.parametrize("n, delta", [(8, F(0)), (60, F(1, 2)), (200, F(0))], ids=str)
def test_a_refinement_report_is_the_reference_finish(monkeypatch, n, delta):
    """`algorithm3_cpcp` on scripts, where an item is charged once per step and counts pass 1."""
    inst = gen_random_scripted(n, n, delta)
    report, want = finished_beside_the_reference(monkeypatch, lambda env, _: algorithm3_cpcp(env),
                                                 CpcpEnvironment(inst), inst)
    assert_as_the_reference(report, want, "algorithm3_cpcp")
    assert max(report.queried) >= 2


CHARGES = st.lists(st.one_of(
    st.just(0), st.just(F(0)), st.integers(0, 10 ** 6),
    st.fractions(min_value=0, max_value=10 ** 4, max_denominator=10 ** 4),
    st.integers(1, 10 ** 6).map(lambda k: F(1, k)),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(CHARGES)
def test_the_one_denominator_ledger_is_the_fraction_sum(charges):
    """A total is accepted exactly when it is `ref_spend` of the charges, including the empty list."""
    transcript = tuple((0, None, c) for c in charges)
    want = ref_spend(transcript)
    report = RunReport((len(charges),), want, Permutation((0,)), transcript)
    assert report.total_cost == want and type(report.total_cost) is F
    for off in (want + F(1, 10 ** 9 + 7), want + 1):
        with pytest.raises(InvariantViolation, match="does not match transcript sum"):
            RunReport((len(charges),), off, Permutation((0,)), transcript)


@pytest.mark.parametrize("n", [1, 12, 64])
def test_only_an_ordering_made_at_the_finish_reads_state(monkeypatch, n):
    """`state()` runs once per run that `_finish` orders, and never for a run with its own order."""
    inst = gen_random(n, n, F(0))
    calls = []
    state = QueryEnvironment.state
    monkeypatch.setattr(QueryEnvironment, "state", lambda env: calls.append(1) or state(env))
    for name, (run, _) in STRATEGIES.items():
        calls.clear()
        run((CpcpEnvironment if name == "algorithm3_cpcp" else Environment)(inst), inst)
        assert len(calls) == (0 if name == "simple_adaptive_stable_sort" else 1), name
