"""Command-line front end: generate instances, run strategies, check
solutions, and reproduce the worst-case ratio table.

Exit codes are stable: 0 success, 2 usage error, 3 verification failure or
bound exceedance, 4 model error (bad document, missing realization,
infeasible strategy/instance pairing).
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from typing import Optional

from .core import Instance, isqrt_bounds, scalar, valid_permutation
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
    RunReport,
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

_FAMILIES = (
    "random",
    "lemma4",
    "lemma7",
    "figure3",
    "triangle_chain",
    "laminar",
    "nested_star",
    "cost_path",
    "cpcp",
    "advice_triangles",
    "asteroid",
)
_ALGORITHMS = (
    "oblivious",
    "simple",
    "stable_sort",
    "vc",
    "alg1",
    "alg2",
    "alg3",
    "advice_half",
    "advice_lg3",
)
_CSV_HEADER = ("instance", "algorithm", "seed", "cost", "opt", "ratio", "bits")
_SQRT3_SLACK = Fraction(1, 10**6)


def _fmt(x: Fraction) -> str:
    return f"{x} (~{float(x):.10g})"


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvariantViolation(f"{what} must be a rational like 3/2, got {text!r}") from None


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return deserialize(handle.read())


def _pick_rule(args):
    name = getattr(args, "rule", None) or "fixed"
    if name == "half":
        return HALF
    if name == "sqrt3":
        return SQRT3
    p = _parse_rational(getattr(args, "p", None) or "1/2", "--p")
    return FIXED(p)


def _run_algorithm(name: str, inst: Instance, args) -> RunReport:
    seed = getattr(args, "seed", 0)
    if name == "oblivious":
        return run_oblivious(Environment(inst))
    if name == "simple":
        return simple_adaptive(Environment(inst))
    if name == "stable_sort":
        return simple_adaptive_stable_sort(Environment(inst))
    if name == "vc":
        return vc_adaptive(Environment(inst))
    if name == "alg1":
        return algorithm1(Environment(inst), _pick_rule(args), rng=RandomCoin(seed))
    if name == "alg2":
        rule = _pick_rule(args)
        if rule.kind == "fixed":
            rule = HALF
        return algorithm2(Environment(inst), rule, rng=RandomCoin(seed))
    if name == "alg3":
        return algorithm3_cpcp(CpcpEnvironment(inst))
    if name == "advice_half":
        return advice_half(Environment(inst), AdviceOracle(inst))
    if name == "advice_lg3":
        return advice_lg3(Environment(inst), AdviceOracle(inst))
    raise InvariantViolation(f"unknown algorithm {name!r}")


def _optimum_cost(inst: Instance) -> Fraction:
    if inst.refinements is not None:
        cost, _ = cpcp_brute_force_optimum(inst)
        return cost
    _, cost = optimum_query_set(inst)
    return cost


def _expected_or_run(name: str, inst: Instance, args):
    """Exact expectation for coin-driven strategies, a plain run otherwise.

    Returns (low, high, report): cost bounds, equal for everything except
    the irrational-bias rule, whose expectation is enclosed; and the plain
    run's report, None for the coin-driven strategies.
    """
    report = None
    if name == "alg1":
        out = expected_cost_exact(algorithm1, inst, _pick_rule(args))
    elif name == "alg2":
        rule = _pick_rule(args)
        if rule.kind == "fixed":
            rule = HALF
        out = expected_cost_exact(algorithm2, inst, rule)
    else:
        report = _run_algorithm(name, inst, args)
        out = report.total_cost
    if isinstance(out, tuple):
        return out + (report,)
    return out, out, report


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _generate(args) -> Instance:
    family = args.family
    delta = _parse_rational(args.delta, "--delta")
    variant = args.variant
    if family == "random":
        return gen_random(args.seed, args.n, delta)
    if family == "laminar":
        return gen_laminar(args.seed, args.n)
    if family == "lemma4":
        a, b = gen_lemma4_pair(delta)
        return {None: a, "a": a, "b": b}[_check_variant(variant, ("a", "b"))]
    if family == "lemma7":
        return gen_lemma7_two_triangles(
            _check_variant(variant, ("lower", "upper")) or "lower"
        )
    if family == "figure3":
        return gen_figure3_chain(args.k)
    if family == "triangle_chain":
        return gen_triangle_chain(
            args.k, _check_variant(variant, ("lower", "upper")) or "lower"
        )
    if family == "nested_star":
        return gen_nested_star(args.n)
    if family == "cost_path":
        eps = _parse_rational(args.eps or "1/1000", "--eps")
        return gen_cost_path(args.n, eps)
    if family == "cpcp":
        return gen_cpcp_adversary(args.n, args.M)
    if family == "advice_triangles":
        if delta <= 0:
            delta = Fraction(1)
        triple = gen_advice_triangles(args.n, delta)
        which = _check_variant(variant, ("1", "2", "3")) or "1"
        return triple[int(which) - 1]
    if family == "asteroid":
        kind = _check_variant(variant, ("fig5a", "fig5b")) or "fig5a"
        if delta <= 0:
            delta = Fraction(1)
        eps = _parse_rational(args.eps, "--eps") if args.eps else delta / 3
        return asteroid_realization(kind, max(args.k, 2), delta, eps)
    raise InvariantViolation(f"unknown family {family!r}")


def _check_variant(variant: Optional[str], allowed: tuple[str, ...]) -> Optional[str]:
    if variant is not None and variant not in allowed:
        raise InvariantViolation(f"--variant must be one of {allowed}, got {variant!r}")
    return variant


def cmd_gen(args) -> int:
    try:
        inst = _generate(args)
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
    report = _run_algorithm(args.algorithm, inst, args)
    print(f"instance   : {args.instance} (n={inst.n}, delta={inst.delta})")
    print(f"algorithm  : {args.algorithm} (seed={args.seed})")
    queried = ", ".join(str(i) for i in report.queried_indices) or "(none)"
    print(f"queried    : {queried}")
    print(f"cost       : {_fmt(report.total_cost)}")
    print(f"permutation: {','.join(str(i) for i in report.permutation)}")
    if report.advice_bits is not None:
        print(f"advice bits: {report.advice_bits}")
    if args.expected:
        lo, hi, _ = _expected_or_run(args.algorithm, inst, args)
        if lo == hi:
            print(f"expected cost : {_fmt(lo)}")
        else:
            print(f"expected cost : in [{lo}, {hi}] (~{float(lo):.10g}..{float(hi):.10g})")
        opt = _optimum_cost(inst)
        print(f"optimum cost  : {_fmt(opt)}")
        if opt > 0:
            if lo == hi:
                print(f"expected ratio: {_fmt(lo / opt)}")
            else:
                print(
                    f"expected ratio: in [{lo / opt}, {hi / opt}]"
                    f" (~{float(lo / opt):.10g}..{float(hi / opt):.10g})"
                )
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
            print(f"brute check      : MISMATCH (brute={bcost})")
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
    except InvariantViolation as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    ok = True
    if feasible_query_set(inst, frozenset(queries)):
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


def _ratio_instances(args) -> list[tuple[str, int, Instance]]:
    family = args.family
    delta = _parse_rational(args.delta, "--delta")
    seed = args.seed
    rows: list[tuple[str, int, Instance]] = []
    if family == "random":
        for i in range(args.trials):
            rows.append((f"random-n{args.n}-s{seed + i}", seed + i, gen_random(seed + i, args.n, delta)))
    elif family == "laminar":
        for i in range(args.trials):
            rows.append((f"laminar-n{args.n}-s{seed + i}", seed + i, gen_laminar(seed + i, args.n)))
    elif family == "lemma4":
        a, b = gen_lemma4_pair(delta)
        rows += [("lemma4-a", seed, a), ("lemma4-b", seed, b)]
    elif family == "lemma7":
        rows += [
            ("lemma7-lower", seed, gen_lemma7_two_triangles("lower")),
            ("lemma7-upper", seed, gen_lemma7_two_triangles("upper")),
        ]
    elif family == "figure3":
        rows.append((f"figure3-k{args.k}", seed, gen_figure3_chain(args.k)))
    elif family == "triangle_chain":
        rows += [
            (f"triangle_chain-k{args.k}-lower", seed, gen_triangle_chain(args.k, "lower")),
            (f"triangle_chain-k{args.k}-upper", seed, gen_triangle_chain(args.k, "upper")),
        ]
    elif family == "nested_star":
        rows.append((f"nested_star-n{args.n}", seed, gen_nested_star(args.n)))
    elif family == "cost_path":
        eps = _parse_rational(args.eps or "1/1000", "--eps")
        rows.append((f"cost_path-n{args.n}", seed, gen_cost_path(args.n, eps)))
    elif family == "cpcp":
        rows.append((f"cpcp-n{args.n}-M{args.M}", seed, gen_cpcp_adversary(args.n, args.M)))
    elif family == "advice_triangles":
        if delta <= 0:
            delta = Fraction(1)
        triple = gen_advice_triangles(max(args.n, 1), delta)
        for which, inst in zip(("1", "2", "3"), triple):
            rows.append((f"advice_triangles-m{max(args.n, 1)}-p{which}", seed, inst))
    else:
        raise InvariantViolation(f"family {family!r} has no realization to run strategies on")
    return rows


def _bound_for(args) -> Optional[tuple[Fraction, str]]:
    """Proven ratio bound for the algorithm/rule pairing, if pinned."""
    name = args.algorithm
    if name in ("simple", "vc", "alg3"):
        return Fraction(2), "2"
    if name in ("advice_half", "advice_lg3"):
        return Fraction(1), "1"
    if name == "alg1":
        p = _parse_rational(getattr(args, "p", None) or "1/2", "--p")
        if p == Fraction(1, 2):
            return Fraction(3, 2), "3/2"
        if p in (Fraction(0), Fraction(1)):
            return Fraction(5, 3), "5/3"
        return None
    if name == "alg2":
        rule = getattr(args, "rule", None) or "half"
        if rule == "sqrt3":
            _, hi = isqrt_bounds(3, Fraction(1, 10**12))
            return 1 + Fraction(4) * hi / 9 + _SQRT3_SLACK, "1+4/(3*sqrt3)+1e-6"
        return Fraction(57, 32), "57/32"
    return None


def cmd_ratio(args) -> int:
    rows = _ratio_instances(args)
    bound = _bound_for(args)
    out_rows = []
    worst: Optional[Fraction] = None
    total = Fraction(0)
    exceeded = []
    for instance_id, seed, inst in rows:
        lo, hi, report = _expected_or_run(args.algorithm, inst, args)
        opt = _optimum_cost(inst)
        bits = ""
        if report is not None and report.advice_bits is not None:
            bits = str(report.advice_bits)
        if opt > 0:
            ratio = hi / opt
            ratio_str = str(ratio)
        elif hi == 0:
            ratio = Fraction(1)
            ratio_str = "1"
        else:
            ratio = None
            ratio_str = "inf"
        per_instance_bound = bound[0] if bound else None
        if args.algorithm == "oblivious":
            per_instance_bound = Fraction(inst.n)
        if ratio is None or (per_instance_bound is not None and ratio > per_instance_bound):
            exceeded.append((instance_id, ratio_str))
        if ratio is not None:
            worst = ratio if worst is None else max(worst, ratio)
            total += ratio
        out_rows.append((instance_id, args.algorithm, str(seed), str(hi), str(opt), ratio_str, bits))
    out_rows.sort(key=lambda r: (r[0], int(r[2])))

    if args.out:
        handle = open(args.out, "w", encoding="utf-8", newline="")
    else:
        handle = sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        writer.writerows(out_rows)
    finally:
        if args.out:
            handle.close()

    mean = total / len(out_rows) if out_rows else Fraction(0)
    bound_note = f" bound={bound[1]}" if bound else ""
    status = "OK" if not exceeded else "EXCEEDED"
    summary = (
        f"# rows={len(out_rows)} max_ratio={worst if worst is not None else 'n/a'}"
        f" (~{float(worst):.10g})" if worst is not None else
        f"# rows={len(out_rows)} max_ratio=n/a"
    )
    summary += f" mean_ratio={mean} (~{float(mean):.10g}){bound_note} status={status}"
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
    sub.add_argument("--k", type=int, default=1, help="block/spine count")
    sub.add_argument("--M", type=int, default=4, help="script length for the stalling family")
    sub.add_argument("--eps", default=None, help="gap parameter (rational)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querysort",
        description="Query-minimal sorting of uncertain data: generators, strategies, checkers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="generate an instance document")
    p_gen.add_argument("family", choices=_FAMILIES)
    _add_common_params(p_gen)
    p_gen.add_argument("--variant", default=None, help="family variant (a/b, lower/upper, 1/2/3, fig5a/fig5b)")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = subs.add_parser("solve", help="run a strategy on an instance document")
    p_solve.add_argument("algorithm", choices=_ALGORITHMS)
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
    p_ratio.add_argument("algorithm", choices=_ALGORITHMS)
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
