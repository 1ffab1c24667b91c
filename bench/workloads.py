"""The three closed-loop workloads: their corpora, operations and output checks.

A workload turns a seed into a corpus: a list of *passes*, each a short list
of operations.  One operation is one call a user would make (a strategy run,
an optimum request, a CLI command).  Operations look their library functions
up on the module at call time, so the traced run sees every call.

Every check runs after the timed region, on the outputs the timed loop kept.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

from querysort import cli, core, instances, offline, online

from corpus import ratio_commands, sparse_draw, sparse_instance

HALF_DELTA = Fraction(1, 2)


@dataclass
class Op:
    """One operation: ``key`` names its corpus item, ``kind`` its request type."""

    key: str
    kind: str
    run: Callable[[], Any]
    context: Any = None


@dataclass
class Corpus:
    """A seed's inputs: passes of operations plus what the checks need."""

    passes: list[list[Op]]
    items: dict[int, Any] = field(default_factory=dict)
    instances: list = field(default_factory=list)
    optima: dict = field(default_factory=dict)
    valid_orders: set = field(default_factory=set)


def _digest(indices) -> str:
    """Count and short hash of an index set, to keep recorded files small."""
    text = ",".join(str(i) for i in sorted(indices))
    return f"{len(indices)}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def _strategy_fingerprint(report) -> str:
    return f"spend={report.total_cost};queried={_digest(report.queried_indices)}"


def _ratio(spend: Fraction, opt: Fraction) -> Fraction:
    """Spend over optimum; an instance that needs no query counts as ratio 1."""
    return spend / opt if opt else Fraction(1)


def _permutation_failures(corpus: Corpus, op: Op, inst, permutation) -> list[str]:
    """Validity of the order; an order already found valid for ``op`` is not re-checked."""
    seen = (op.key, tuple(permutation))
    if seen in corpus.valid_orders or core.valid_permutation(inst, None, permutation):
        corpus.valid_orders.add(seen)
        return []
    return ["permutation is not valid for the hidden values"]


class Workload:
    """Shared check logic; subclasses build the corpus and operations."""

    name = ""

    def setup(self, seed: int) -> Corpus:
        raise NotImplementedError

    def check(self, corpus: Corpus, op: Op, out, recorded: Optional[dict]) -> list[str]:
        """Failure messages for one operation's output (empty when correct)."""
        failures = self.invariant_failures(corpus, op, out)
        if recorded is not None:
            for key, value in self.fingerprints(corpus, op, out).items():
                if key in recorded and recorded[key] != value:
                    failures.append(f"{key}: {value} differs from recorded {recorded[key]}")
        return failures

    def invariant_failures(self, corpus: Corpus, op: Op, out) -> list[str]:
        raise NotImplementedError

    def fingerprints(self, corpus: Corpus, op: Op, out) -> dict[str, str]:
        """Canonical strings compared against the outputs recorded for the seed."""
        raise NotImplementedError

    def ratios(self, corpus: Corpus, op: Op, out) -> list[Fraction]:
        """Spend over optimum for each strategy result in ``out``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# adaptive-loop
# ---------------------------------------------------------------------------


def run_strategy(strategy: str, inst, seed: int):
    """One run of ``strategy`` on a fresh environment; ``seed`` seeds its coin.

    The randomized strategies take the fair coin (`algorithm1`) and the HALF
    rule (`algorithm2`); `algorithm3_cpcp` runs in the refinement model.
    """
    if strategy == "algorithm1":
        return online.algorithm1(
            online.Environment(inst), online.FIXED(Fraction(1, 2)), rng=online.RandomCoin(seed)
        )
    if strategy == "algorithm2":
        return online.algorithm2(online.Environment(inst), online.HALF, rng=online.RandomCoin(seed))
    if strategy == "algorithm3_cpcp":
        return online.algorithm3_cpcp(online.CpcpEnvironment(inst))
    return getattr(online, strategy)(online.Environment(inst))


#: (strategy, runs on the rational-cost half-threshold instance, proven to spend at most 2 x optimum)
ADAPTIVE_STRATEGIES = (
    ("simple_adaptive", False, True),
    ("algorithm1", False, False),
    ("simple_adaptive_stable_sort", False, False),
    ("algorithm2", True, False),
    ("algorithm3_cpcp", True, True),
)


class AdaptiveLoop(Workload):
    """Online strategy runs on sparse n = 64 instances, five per corpus slot."""

    name = "adaptive-loop"

    def __init__(self, n: int = 64, slots: int = 12):
        self.n = n
        self.slots = slots

    def setup(self, seed: int) -> Corpus:
        corpus = Corpus(passes=[])
        for k in range(self.slots):
            rows = sparse_draw(random.Random(f"{self.name}:{seed}:{k}"), self.n)
            pair = {
                False: sparse_instance(rows, Fraction(0), rational_costs=False),
                True: sparse_instance(rows, HALF_DELTA, rational_costs=True),
            }
            corpus.items[k] = pair
            corpus.instances += pair.values()
            coin_seed = 1000 * seed + k
            corpus.passes.append([
                Op(f"{k}/{name}", name, partial(run_strategy, name, pair[rational], coin_seed), (k, rational, bounded))
                for name, rational, bounded in ADAPTIVE_STRATEGIES
            ])
        return corpus

    def optimum(self, corpus: Corpus, k: int, rational: bool):
        """Optimum of a slot's instance, computed once per run, outside timing."""
        if (k, rational) not in corpus.optima:
            corpus.optima[(k, rational)] = offline.optimum_query_set(corpus.items[k][rational])
        return corpus.optima[(k, rational)]

    def invariant_failures(self, corpus, op, out):
        k, rational, bounded = op.context
        inst = corpus.items[k][rational]
        failures = _permutation_failures(corpus, op, inst, out.permutation)
        chosen, opt = self.optimum(corpus, k, rational)
        if not offline.feasible_query_set(inst, chosen):
            failures.append("optimum query set is not feasible")
        if bounded and out.total_cost > 2 * opt:
            failures.append(f"spend {out.total_cost} exceeds twice the optimum {opt}")
        return failures

    def fingerprints(self, corpus, op, out):
        k, rational, _ = op.context
        _, opt = self.optimum(corpus, k, rational)
        return {
            op.key: _strategy_fingerprint(out),
            f"{k}/optimum-{'rational' if rational else 'uniform'}": str(opt),
        }

    def ratios(self, corpus, op, out):
        k, rational, _ = op.context
        _, opt = self.optimum(corpus, k, rational)
        return [_ratio(out.total_cost, opt)]


# ---------------------------------------------------------------------------
# one-shot-large
# ---------------------------------------------------------------------------


@dataclass
class OptimumResult:
    instance: Any
    chosen: frozenset
    cost: Fraction
    permutation: Any


def _request_opt(doc: str) -> OptimumResult:
    inst = instances.deserialize(doc)
    chosen, cost = offline.optimum_query_set(inst)
    revealed = [
        itv.collapse(v) if i in chosen else itv
        for i, (itv, v) in enumerate(zip(inst.intervals, inst.values))
    ]
    return OptimumResult(inst, chosen, cost, core.build_permutation(revealed, inst.delta))


def _request_solve(strategy: str, doc: str):
    inst = instances.deserialize(doc)
    return inst, run_strategy(strategy, inst, 0)


ONE_SHOT_REQUESTS = (
    ("opt", _request_opt),
    ("solve-oblivious", partial(_request_solve, "run_oblivious")),
    ("solve-vc", partial(_request_solve, "vc_adaptive")),
)


class OneShotLarge(Workload):
    """Single requests on sparse n = 400 documents, three per document."""

    name = "one-shot-large"

    def __init__(self, n: int = 400, docs: int = 4):
        self.n = n
        self.docs = docs

    def setup(self, seed: int) -> Corpus:
        corpus = Corpus(passes=[])
        for k in range(self.docs):
            rows = sparse_draw(random.Random(f"{self.name}:{seed}:{k}"), self.n)
            inst = sparse_instance(rows, HALF_DELTA, rational_costs=True)
            doc = instances.serialize(inst)
            corpus.items[k] = doc
            corpus.instances.append(inst)
            corpus.passes.append([
                Op(f"{k}/{kind}", kind, partial(request, doc), k)
                for kind, request in ONE_SHOT_REQUESTS
            ])
        return corpus

    def optimum(self, corpus: Corpus, k: int, out=None) -> OptimumResult:
        """The document's optimum: the ``opt`` request's own output when there is one."""
        if out is not None:
            corpus.optima.setdefault(k, out)
        if k not in corpus.optima:
            corpus.optima[k] = _request_opt(corpus.items[k])
        return corpus.optima[k]

    def invariant_failures(self, corpus, op, out):
        if op.kind == "opt":
            self.optimum(corpus, op.context, out)
            failures = _permutation_failures(corpus, op, out.instance, out.permutation)
            if not offline.feasible_query_set(out.instance, out.chosen):
                failures.append("optimum query set is not feasible")
            return failures
        inst, report = out
        failures = _permutation_failures(corpus, op, inst, report.permutation)
        opt = self.optimum(corpus, op.context).cost
        if op.kind == "solve-vc" and report.total_cost > 2 * opt:
            failures.append(f"spend {report.total_cost} exceeds twice the optimum {opt}")
        return failures

    def fingerprints(self, corpus, op, out):
        if op.kind == "opt":
            return {op.key: f"cost={out.cost}"}  # optimum sets are not unique; feasibility is checked
        return {op.key: _strategy_fingerprint(out[1])}

    def ratios(self, corpus, op, out):
        if op.kind == "opt":
            return []
        return [_ratio(out[1].total_cost, self.optimum(corpus, op.context).cost)]


# ---------------------------------------------------------------------------
# ratio-sweep
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``querysort`` command with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


#: Command lists per sweep, each from its own derived seed.  One list takes
#: about 7 s at the commit that added the benchmark; three give a 10-second run
#: one sweep of about 20 s, as on the other workloads, and three samples for
#: each command's median.
RATIO_LISTS = 3


class RatioSweep(Workload):
    """In-process ``querysort ratio`` commands covering every strategy."""

    name = "ratio-sweep"

    def __init__(self, commands: Optional[Callable[[int], list[list[str]]]] = None):
        self.commands = commands or ratio_commands

    def setup(self, seed: int) -> Corpus:
        passes = []
        for j in range(RATIO_LISTS):
            ops = []
            for k, argv in enumerate(self.commands(RATIO_LISTS * seed + j)):
                kind = f"{k:02d}/{argv[1]} {argv[2]}"  # each command is its own kind
                ops.append(Op(f"{j}/{kind}", kind, partial(run_cli, argv), argv))
            passes.append(ops)
        return Corpus(passes=passes)

    def invariant_failures(self, corpus, op, out):
        failures = []
        if out.code != 0:
            failures.append(f"exit code {out.code}: {out.stderr.strip()}")
        lines = out.stdout.splitlines()
        if not lines or "status=OK" not in lines[-1]:
            failures.append("summary line does not report status=OK")
        return failures

    def fingerprints(self, corpus, op, out):
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()[:16]
        return {op.key: f"code={out.code};stdout-sha256={digest}"}

    def ratios(self, corpus, op, out):
        rows = csv.DictReader(line for line in out.stdout.splitlines() if not line.startswith("#"))
        return [Fraction(row["ratio"]) for row in rows]


WORKLOADS = {w.name: w for w in (AdaptiveLoop, OneShotLarge, RatioSweep)}
