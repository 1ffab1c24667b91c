"""Command-line front end: generate instances, run strategies, check
solutions, and reproduce the worst-case ratio table.

Exit codes are stable: 0 success, 2 usage error (including bad family
parameters and alg1's ``--p``), 3 verification failure or bound exceedance,
4 model error (bad document, missing realization, infeasible
strategy/instance pairing).
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional

from .core import Instance, isqrt_bounds, rational_text, read_rational, threshold, valid_permutation
from .errors import InvariantViolation, ParseError, QuerysortError
from .offline import (
    BRUTE_FORCE_LIMIT,
    brute_force_optimum,
    cpcp_brute_force_optimum,
    feasible_query_set,
    optimum_query_set,
)
from .online import (
    FIXED,
    HALF,
    SQRT3,
    AdviceOracle,
    CpcpEnvironment,
    Environment,
    RandomCoin,
    advice_half,
    advice_lg3,
    algorithm1,
    algorithm2,
    algorithm3_cpcp,
    expected_cost_exact,
    run_oblivious,
    simple_adaptive,
    simple_adaptive_stable_sort,
    vc_adaptive,
)
from .instances import (
    asteroid_realization,
    deserialize,
    gen_advice_triangles,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_figure3_chain,
    gen_laminar,
    gen_lemma4_pair,
    gen_lemma7_two_triangles,
    gen_nested_star,
    gen_random,
    gen_triangle_chain,
    serialize,
)

_CSV_HEADER = ("instance", "algorithm", "seed", "cost", "opt", "ratio", "bits")


def _approx(x: Fraction) -> str:
    """``x`` as a float in ``.10g`` text, or ``inf`` or ``-inf`` past a float's range."""
    try:
        return f"{float(x):.10g}"
    except OverflowError:
        return "inf" if x > 0 else "-inf"


def _fmt(x: Fraction) -> str:
    return f"{rational_text(x)} (~{_approx(x)})"


def _fmt_range(lo: Fraction, hi: Fraction) -> str:
    """An exact value as `_fmt` prints it, or an enclosure ``in [lo, hi]`` with both approximations."""
    return _fmt(lo) if lo == hi else f"in [{rational_text(lo)}, {rational_text(hi)}] (~{_approx(lo)}..{_approx(hi)})"


def _parse_rational(text: str, what: str) -> Fraction:
    return read_rational(text, f"{what} must be a rational like 3/2, got {text!r}")


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})") from None
    return deserialize(text)


def _optimum_cost(inst: Instance, environment: type) -> Fraction:
    """The optimum in the model the strategy runs in: the script optimum only for a
    refinement-model strategy on a scripted instance, the exact-model one otherwise."""
    if environment is CpcpEnvironment and inst.refinements is not None:
        cost, _ = cpcp_brute_force_optimum(inst)
        return cost
    _, cost = optimum_query_set(inst)
    return cost


# ---------------------------------------------------------------------------
# strategy and family tables
#
# Entries call the strategies and generators through this module's globals
# when they run, never through stored function objects, so that a tracer
# which swaps those globals sees every call.
# ---------------------------------------------------------------------------


#: proven ratio bounds with their printed labels
_ONE = (Fraction(1), "1")
_TWO = (Fraction(2), "2")
_ALG1_BOUNDS = {
    Fraction(1, 2): (Fraction(3, 2), "3/2"),
    Fraction(0): (Fraction(5, 3), "5/3"),
    Fraction(1): (Fraction(5, 3), "5/3"),
}
_ALG2_BOUND = (Fraction(57, 32), "57/32")
_SQRT3_BOUND = (
    1 + Fraction(4) * isqrt_bounds(3, Fraction(1, 10**12))[1] / 9 + Fraction(1, 10**6),
    "1+4/(3*sqrt3)+1e-6",
)


class _Strategy(NamedTuple):
    """One strategy: ``call(inst, args)`` gives the strategy function, the class of its
    environment, and what a run of it on ``inst`` takes beyond that environment, which is
    `expected_cost_exact`'s ``rule`` (a bias or weight rule, an `AdviceOracle`, or None);
    ``bound(args, n)`` the proven ratio limit on an n-interval instance with its printed
    label, either of which may be None; and ``coin``, whether a run also flips a `RandomCoin`."""

    call: Callable[[Instance, argparse.Namespace], tuple]
    bound: Callable[[argparse.Namespace, int], tuple[Optional[Fraction], Optional[str]]]
    coin: bool = False


_STRATEGIES = {
    "oblivious": _Strategy(
        lambda inst, args: (run_oblivious, Environment, None),
        lambda args, n: (Fraction(n), None),
    ),
    "simple": _Strategy(
        lambda inst, args: (simple_adaptive, Environment, None),
        lambda args, n: _TWO,
    ),
    "stable_sort": _Strategy(
        lambda inst, args: (simple_adaptive_stable_sort, Environment, None),
        lambda args, n: (None, None),
    ),
    "vc": _Strategy(
        lambda inst, args: (vc_adaptive, Environment, None),
        lambda args, n: _TWO,
    ),
    "alg1": _Strategy(
        lambda inst, args: (algorithm1, Environment, {"half": HALF, "sqrt3": SQRT3}.get(args.rule) or args.bias),
        lambda args, n: _ALG1_BOUNDS.get(args.bias, (None, None)),
        coin=True,
    ),
    "alg2": _Strategy(
        lambda inst, args: (algorithm2, Environment, SQRT3 if args.rule == "sqrt3" else HALF),
        lambda args, n: _SQRT3_BOUND if args.rule == "sqrt3" else _ALG2_BOUND,
        coin=True,
    ),
    "alg3": _Strategy(
        lambda inst, args: (algorithm3_cpcp, CpcpEnvironment, None),
        lambda args, n: _TWO,
    ),
    "advice_half": _Strategy(
        lambda inst, args: (advice_half, Environment, AdviceOracle(inst)),
        lambda args, n: _ONE,
    ),
    "advice_lg3": _Strategy(
        lambda inst, args: (advice_lg3, Environment, AdviceOracle(inst)),
        lambda args, n: _ONE,
    ),
}


def _expected_cost(run: Callable, inst: Instance, rule) -> tuple[Fraction, Fraction]:
    """``run``'s exact expected cost on ``inst`` as (low, high): equal for everything
    except the irrational-bias rule, whose expectation is enclosed."""
    out = expected_cost_exact(run, inst, rule)
    return out if isinstance(out, tuple) else (out, out)


def _seeds(args) -> range:
    return range(args.seed, args.seed + args.trials)


def _asteroid_rows(args, delta):
    delta = delta or Fraction(1)  # drawn at a positive threshold: δ = 0 reads as 1
    eps = _parse_rational(args.eps, "--eps") if args.eps else delta / 3
    return [
        (f"asteroid-{v}", v, args.seed, asteroid_realization(v, args.k, delta, eps))
        for v in ("fig5a", "fig5b")
    ]


#: family -> rows(args, delta): one (row id, variant, seed, Instance) per row, at the δ `_family_rows` reads.
#: `ratio` runs every row; `gen` writes the row named by --variant, or the first.
_FAMILIES = {
    "random": lambda args, delta: [
        (f"random-n{args.n}-s{s}", None, s, gen_random(s, args.n, delta)) for s in _seeds(args)
    ],
    "lemma4": lambda args, delta: [
        (f"lemma4-{v}", v, args.seed, inst) for v, inst in zip("ab", gen_lemma4_pair(delta))
    ],
    "lemma7": lambda args, delta: [
        (f"lemma7-{v}", v, args.seed, gen_lemma7_two_triangles(v)) for v in ("lower", "upper")
    ],
    "figure3": lambda args, delta: [
        (f"figure3-k{args.k}", None, args.seed, gen_figure3_chain(args.k))
    ],
    "triangle_chain": lambda args, delta: [
        (f"triangle_chain-k{args.k}-{v}", v, args.seed, gen_triangle_chain(args.k, v))
        for v in ("lower", "upper")
    ],
    "laminar": lambda args, delta: [
        (f"laminar-n{args.n}-s{s}", None, s, gen_laminar(s, args.n)) for s in _seeds(args)
    ],
    "nested_star": lambda args, delta: [
        (f"nested_star-n{args.n}", None, args.seed, gen_nested_star(args.n))
    ],
    "cost_path": lambda args, delta: [
        (f"cost_path-n{args.n}", None, args.seed,
         gen_cost_path(args.n, _parse_rational(args.eps or "1/1000", "--eps")))
    ],
    "cpcp": lambda args, delta: [
        (f"cpcp-n{args.n}-M{args.M}", None, args.seed, gen_cpcp_adversary(args.n, args.M))
    ],
    "advice_triangles": lambda args, delta: [
        (f"advice_triangles-m{args.n}-p{v}", v, args.seed, inst)
        for v, inst in zip("123", gen_advice_triangles(args.n, delta or Fraction(1)))
    ],
    "asteroid": _asteroid_rows,  # interval layouts without values: `gen` only
}


def _family_rows(args) -> list[tuple[str, Optional[str], int, Instance]]:
    if args.trials < 1:
        raise InvariantViolation(f"--trials must be at least 1, got {args.trials}")
    if args.k is None:  # no --k: asteroid's shortest spine, two, or one block for the other families
        args.k = 2 if args.family == "asteroid" else 1
    return _FAMILIES[args.family](args, threshold(_parse_rational(args.delta, "--delta")))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        rows = _family_rows(args)
        picked = [row for row in rows if args.variant is None or row[1] == args.variant]
        if not picked:
            variants = tuple(row[1] for row in rows if row[1] is not None)
            raise InvariantViolation(
                f"--variant must be one of {variants}, got {args.variant!r}" if variants
                else f"{args.family} has no variants, got --variant {args.variant!r}"
            )
        inst = picked[0][3]
    except QuerysortError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    doc = serialize(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc)
        print(f"wrote {args.family} instance (n={inst.n}) to {args.out}")
    else:
        sys.stdout.write(doc)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    strategy = _STRATEGIES[args.algorithm]
    run, environment, rule = strategy.call(inst, args)
    given = (rule, RandomCoin(args.seed)) if strategy.coin else () if rule is None else (rule,)
    report = run(environment(inst), *given)
    print(f"instance   : {args.instance} (n={inst.n}, delta={rational_text(inst.delta)})")
    print(f"algorithm  : {args.algorithm} (seed={args.seed})")
    queried = ", ".join(str(i) for i in report.queried_indices) or "(none)"
    print(f"queried    : {queried}")
    print(f"cost       : {_fmt(report.total_cost)}")
    print(f"permutation: {','.join(str(i) for i in report.permutation)}")
    if report.advice_bits is not None:
        print(f"advice bits: {report.advice_bits}")
    if args.expected:
        # a run with no coin is its own expectation, so it is not run again
        lo, hi = _expected_cost(run, inst, rule) if strategy.coin else (report.total_cost, report.total_cost)
        print(f"expected cost : {_fmt_range(lo, hi)}")
        opt = _optimum_cost(inst, environment)
        print(f"optimum cost  : {_fmt(opt)}")
        if opt > 0:
            print(f"expected ratio: {_fmt_range(lo / opt, hi / opt)}")
    return 0


# ---------------------------------------------------------------------------
# opt
# ---------------------------------------------------------------------------


def cmd_opt(args) -> int:
    inst = _load_instance(args.instance)
    if inst.refinements is not None:
        cost, prefix = cpcp_brute_force_optimum(inst)
        print(f"optimum step counts: {','.join(str(t) for t in prefix)}")
        print(f"optimum cost       : {_fmt(cost)}")
        return 0
    qs, cost = optimum_query_set(inst)
    print(f"optimum query set: {{{', '.join(str(i) for i in sorted(qs))}}}")
    print(f"optimum cost     : {_fmt(cost)}")
    if args.brute:
        if inst.n > BRUTE_FORCE_LIMIT:
            print(f"brute check      : skipped (n={inst.n} too large)", file=sys.stderr)
            return 4
        bcost, _ = brute_force_optimum(inst)
        if bcost == cost:
            print("brute check      : MATCH")
        else:
            print(f"brute check      : MISMATCH (brute={rational_text(bcost)})")
            return 3
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_index_list(text: str, what: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InvariantViolation(f"{what} must be comma-separated indices, got {text!r}") from None


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    try:
        queries = _parse_index_list(args.queries, "--queries")
        order = _parse_index_list(args.permutation, "--permutation")
        feasible = feasible_query_set(inst, queries)
    except InvariantViolation as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    ok = True
    if feasible:
        print("query set  : FEASIBLE")
    else:
        print("query set  : INFEASIBLE")
        ok = False
    try:
        if valid_permutation(inst, None, order):
            print("permutation: VALID")
        else:
            print("permutation: INVALID")
            ok = False
    except InvariantViolation as exc:
        print(f"permutation: INVALID ({exc})")
        ok = False
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------


def cmd_ratio(args) -> int:
    try:
        rows = _family_rows(args)
    except QuerysortError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    strategy = _STRATEGIES[args.algorithm]
    bound = strategy.bound
    _, label = bound(args, 0)  # the label does not depend on the instance size
    out_rows, ratios, exceeded = [], [], []
    for instance_id, _, seed, inst in rows:
        run, environment, rule = strategy.call(inst, args)
        _, hi = _expected_cost(run, inst, rule)
        oracle = rule if isinstance(rule, AdviceOracle) else None  # its optimum is computed once per row
        opt = _optimum_cost(inst, environment) if oracle is None else oracle.optimum_cost
        if hi < opt:
            raise InvariantViolation(
                f"{instance_id}: cost {rational_text(hi)} is below the optimum {rational_text(opt)}")
        bits = "" if oracle is None else str(oracle.bits_used)
        # every family prices every item above 0: a zero optimum leaves no dependent pair, so nothing is spent
        ratios.append(ratio := hi / opt if opt else Fraction(1))
        per_instance_bound, _ = bound(args, inst.n)
        if per_instance_bound is not None and ratio > per_instance_bound:
            exceeded.append((instance_id, rational_text(ratio)))
        out_rows.append((instance_id, args.algorithm, str(seed), *map(rational_text, (hi, opt, ratio)), bits))
    out_rows.sort(key=lambda r: (r[0], int(r[2])))

    with open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        writer.writerows(out_rows)

    bound_note = f" bound={label}" if label else ""
    status = "OK" if not exceeded else "EXCEEDED"
    mean = sum(ratios) / len(ratios)  # `_family_rows` gives a row or more: `--trials` is at least 1
    summary = f"# rows={len(ratios)} max_ratio={_fmt(max(ratios))} mean_ratio={_fmt(mean)}{bound_note} status={status}"
    print(summary if not args.out else summary.lstrip("# "))
    if exceeded:
        for instance_id, ratio_str in exceeded:
            print(f"# EXCEEDED {instance_id}: ratio {ratio_str}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", default="0", help="comparison threshold (rational)")
    sub.add_argument("--n", type=int, default=6, help="size parameter")
    sub.add_argument("--k", type=int, default=None, help="block/spine count (default 1; asteroid: 2)")
    sub.add_argument("--M", type=int, default=4, help="script length for the stalling family")
    sub.add_argument("--eps", default=None, help="gap parameter (rational)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querysort",
        description="Query-minimal sorting of uncertain data: generators, strategies, checkers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate an instance document")
    p_gen.add_argument("family", choices=tuple(_FAMILIES))
    _add_common_params(p_gen)
    p_gen.add_argument("--variant", default=None, help="family variant (a/b, lower/upper, 1/2/3, fig5a/fig5b)")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen, trials=1)

    p_solve = subs.add_parser("solve", help="run a strategy on an instance document")
    p_solve.add_argument("algorithm", choices=tuple(_STRATEGIES))
    p_solve.add_argument("instance", help="instance document path")
    p_solve.add_argument("--p", default=None, help="coin bias for alg1 (rational)")
    p_solve.add_argument("--rule", choices=("fixed", "half", "sqrt3"), default=None)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--expected", action="store_true", help="also print the exact expected cost")
    p_solve.set_defaults(func=cmd_solve)

    p_opt = subs.add_parser("opt", help="print the offline optimum")
    p_opt.add_argument("instance")
    p_opt.add_argument("--brute", action="store_true", help="cross-check against exhaustive search")
    p_opt.set_defaults(func=cmd_opt)

    p_verify = subs.add_parser("verify", help="check a proposed solution")
    p_verify.add_argument("instance")
    p_verify.add_argument("--queries", required=True, help="comma-separated queried indices ('' for none)")
    p_verify.add_argument("--permutation", required=True, help="comma-separated order, first to last")
    p_verify.set_defaults(func=cmd_verify)

    p_ratio = subs.add_parser("ratio", help="ratio experiment over a family; CSV out")
    p_ratio.add_argument("algorithm", choices=tuple(_STRATEGIES))
    p_ratio.add_argument("family", choices=tuple(f for f in _FAMILIES if f != "asteroid"))
    p_ratio.add_argument("--trials", type=int, default=10)
    _add_common_params(p_ratio)
    p_ratio.add_argument("--p", default=None)
    p_ratio.add_argument("--rule", choices=("fixed", "half", "sqrt3"), default=None)
    p_ratio.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_ratio.set_defaults(func=cmd_ratio)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:  # alg1's coin bias, read once per command; the other strategies ignore --p
        alg1 = getattr(args, "algorithm", None) == "alg1"
        args.bias = FIXED(_parse_rational(args.p or "1/2", "--p")) if alg1 else None
    except InvariantViolation as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 4
    except QuerysortError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
