"""Command-line interface: subcommands, documents, exit codes."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction as F

from querysort import (
    AdviceOracle,
    Environment,
    Instance,
    QuerysortError,
    advice_half,
    advice_lg3,
    asteroid_realization,
    deserialize,
    fig1_instance,
    gen_advice_triangles,
    gen_cost_path,
    gen_cpcp_adversary,
    gen_figure3_chain,
    gen_independent_pairs,
    gen_laminar,
    gen_lemma4_pair,
    gen_lemma7_two_triangles,
    gen_nested_star,
    gen_random,
    gen_random_scripted,
    gen_triangle_chain,
    optimum_query_set,
    serialize,
)
import querysort
from querysort import cli, online
from querysort.cli import main

STRATEGIES = ("oblivious", "simple", "stable_sort", "vc", "alg1", "alg2", "alg3", "advice_half", "advice_lg3")
RATIO_FAMILIES = (
    "random", "lemma4", "lemma7", "figure3", "triangle_chain", "laminar",
    "nested_star", "cost_path", "cpcp", "advice_triangles",
)


def write_doc(tmp_path, name, inst):
    path = tmp_path / name
    path.write_text(serialize(inst), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_to_stdout(capsys):
    assert main(["gen", "random", "--n", "6", "--delta", "0", "--seed", "7"]) == 0
    inst = deserialize(capsys.readouterr().out)
    assert inst.n == 6 and inst.delta == 0


def test_gen_to_file(tmp_path, capsys):
    out = tmp_path / "doc.json"
    assert main(["gen", "lemma4", "--delta", "2", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    inst = deserialize(out.read_text(encoding="utf-8"))
    assert inst.n == 2 and inst.delta == 2


def test_gen_variants(capsys):
    assert main(["gen", "lemma4", "--variant", "b"]) == 0
    b = deserialize(capsys.readouterr().out)
    assert b == gen_lemma4_pair(0)[1]
    assert main(["gen", "asteroid", "--variant", "fig5b", "--k", "3"]) == 0
    ast = deserialize(capsys.readouterr().out)
    assert ast.values is None


def test_gen_scripted_family(capsys):
    assert main(["gen", "cpcp", "--n", "3", "--M", "4"]) == 0
    inst = deserialize(capsys.readouterr().out)
    assert inst.n == 6 and inst.refinements is not None


def test_gen_usage_errors(capsys):
    assert main(["gen", "lemma4", "--variant", "c"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["gen", "triangle_chain", "--k", "0"]) == 2
    assert main(["gen", "unknown-family"]) == 2  # argparse rejects the choice
    assert main(["gen", "advice_triangles", "--n", "1", "--variant", "4"]) == 2
    capsys.readouterr()
    assert main(["gen", "random", "--variant", "b"]) == 2  # a family without variants refuses one
    assert capsys.readouterr().err == "usage error: random has no variants, got --variant 'b'\n"
    for family in ("advice_triangles", "asteroid"):  # δ = 0 reads as 1, a negative δ is refused
        assert main(["gen", family, "--delta", "-1"]) == 2
        assert capsys.readouterr().err == "usage error: negative threshold -1\n"
    assert main(["ratio", "simple", "advice_triangles", "--delta", "-1"]) == 2
    assert capsys.readouterr().err == "usage error: negative threshold -1\n"
    for k in ("1", "0", "-5"):  # an explicit spine below two is refused, not drawn at two
        assert main(["gen", "asteroid", "--k", k]) == 2
        assert capsys.readouterr() == ("", "usage error: need a spine of at least two\n")


@pytest.mark.parametrize("family", tuple(cli._FAMILIES))
def test_every_family_refuses_a_negative_threshold(capsys, family):
    """`--delta` is read through one rule, also by the families that draw no threshold."""
    commands = [["gen", family]] + [["ratio", "simple", family]] * (family != "asteroid")
    for command in commands:
        assert main(command + ["--delta", "-1"]) == 2, command
        assert capsys.readouterr() == ("", "usage error: negative threshold -1\n"), command


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["random", "--n", "5", "--seed", "3", "--delta", "1/2"], gen_random(3, 5, F(1, 2))),
        (["lemma4", "--delta", "2"], gen_lemma4_pair(2)[0]),
        (["lemma4", "--delta", "2", "--variant", "a"], gen_lemma4_pair(2)[0]),
        (["lemma4", "--delta", "2", "--variant", "b"], gen_lemma4_pair(2)[1]),
        (["lemma7"], gen_lemma7_two_triangles("lower")),
        (["lemma7", "--variant", "lower"], gen_lemma7_two_triangles("lower")),
        (["lemma7", "--variant", "upper"], gen_lemma7_two_triangles("upper")),
        (["figure3", "--k", "2"], gen_figure3_chain(2)),
        (["triangle_chain", "--k", "2"], gen_triangle_chain(2, "lower")),
        (["triangle_chain", "--k", "2", "--variant", "lower"], gen_triangle_chain(2, "lower")),
        (["triangle_chain", "--k", "2", "--variant", "upper"], gen_triangle_chain(2, "upper")),
        (["laminar", "--n", "7", "--seed", "4"], gen_laminar(4, 7)),
        (["nested_star", "--n", "5"], gen_nested_star(5)),
        (["cost_path", "--n", "6"], gen_cost_path(6, F(1, 1000))),
        (["cost_path", "--n", "6", "--eps", "1/100"], gen_cost_path(6, F(1, 100))),
        (["cpcp", "--n", "2", "--M", "3"], gen_cpcp_adversary(2, 3)),
        (["advice_triangles", "--n", "2"], gen_advice_triangles(2, 1)[0]),
        (["advice_triangles", "--n", "2", "--delta", "2", "--variant", "1"], gen_advice_triangles(2, 2)[0]),
        (["advice_triangles", "--n", "2", "--delta", "2", "--variant", "2"], gen_advice_triangles(2, 2)[1]),
        (["advice_triangles", "--n", "2", "--delta", "2", "--variant", "3"], gen_advice_triangles(2, 2)[2]),
        (["asteroid", "--k", "3"], asteroid_realization("fig5a", 3, 1, F(1, 3))),
        (["asteroid", "--k", "3", "--variant", "fig5a"], asteroid_realization("fig5a", 3, 1, F(1, 3))),
        (["asteroid", "--k", "3", "--variant", "fig5b"], asteroid_realization("fig5b", 3, 1, F(1, 3))),
        (["asteroid", "--delta", "3", "--eps", "1/2"], asteroid_realization("fig5a", 2, 3, F(1, 2))),
        (["asteroid"], asteroid_realization("fig5a", 2, 1, F(1, 3))),  # without --k: asteroid's k = 2
        (["figure3"], gen_figure3_chain(1)),  # and one block for the other families
        (["triangle_chain"], gen_triangle_chain(1, "lower")),
    ],
)
def test_gen_matches_generator(capsys, argv, expected):
    # every family and variant writes the instance its generator builds;
    # without --variant, the family's first variant
    assert main(["gen"] + argv) == 0
    assert deserialize(capsys.readouterr().out) == expected


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_simple(tmp_path, capsys):
    doc = write_doc(tmp_path, "fig1a.json", fig1_instance("a"))
    assert main(["solve", "simple", doc]) == 0
    out = capsys.readouterr().out
    assert "cost       : 3" in out
    assert "permutation: 1,0,2" in out


def test_solve_expected_ratio(tmp_path, capsys):
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    assert main(["solve", "alg1", doc, "--p", "1/2", "--expected"]) == 0
    out = capsys.readouterr().out
    assert "expected cost : 3/2" in out
    assert "optimum cost  : 1" in out
    assert "expected ratio: 3/2" in out


@pytest.mark.parametrize(
    "extra, expected",
    [
        ([], "expected cost : 3/2 (~1.5)"),
        (["--rule", "fixed"], "expected cost : 3/2 (~1.5)"),
        (["--rule", "half"], "expected cost : 3/2 (~1.5)"),
        (["--p", "2"], "expected cost : 3/2 (~1.5)"),  # the coin bias is alg1's alone
        (["--rule", "sqrt3"], "(~1.422649731..1.422649731)"),
    ],
)
def test_solve_alg2_rule(tmp_path, capsys, extra, expected):
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    assert main(["solve", "alg2", doc, "--expected"] + extra) == 0
    assert expected in capsys.readouterr().out


def ref_expected_lines(lo, hi, opt):
    """The lines `solve --expected` printed when each line wrote its own enclosure text."""
    lines = [f"expected cost : {cli._fmt(lo)}" if lo == hi else
             f"expected cost : in [{lo}, {hi}] (~{float(lo):.10g}..{float(hi):.10g})",
             f"optimum cost  : {cli._fmt(opt)}"]
    if opt > 0:
        lines.append(f"expected ratio: {cli._fmt(lo / opt)}" if lo == hi else
                     f"expected ratio: in [{lo / opt}, {hi / opt}]"
                     f" (~{float(lo / opt):.10g}..{float(hi / opt):.10g})")
    return lines


#: SHA-256 of the lines from "expected cost" on, as printed before the enclosure text was shared.
EXPECTED_LINES_SHA256 = {
    ("half", "lemma4"): "feb8700b7f2fe263f8c18ae154f316324c6810f1182c9565b3af77976fb872d2",
    ("half", "cost_path"): "1b9041fe95ebc02825b97659345a98f4371299d2253967c91226902c318b1ae1",
    ("sqrt3", "lemma4"): "b3f959b11f1645dc3613f0d0f5fb06aec5bc8df4bf9c41ca1e6804920573dbef",
    ("sqrt3", "cost_path"): "932003c2e330c0474eb5f35b7cac79bd4f5fb377565da035657bdb4e91aecd8c",
}


@pytest.mark.parametrize("rule, family", sorted(EXPECTED_LINES_SHA256))
def test_solve_alg2_expected_lines_are_unchanged(tmp_path, capsys, rule, family):
    inst = {"lemma4": gen_lemma4_pair(0)[0], "cost_path": gen_cost_path(4, F(1, 1000))}[family]
    assert main(["solve", "alg2", write_doc(tmp_path, "doc.json", inst), "--expected", "--rule", rule]) == 0
    out = capsys.readouterr().out
    tail = out[out.index("expected cost : "):]
    assert hashlib.sha256(tail.encode()).hexdigest() == EXPECTED_LINES_SHA256[rule, family]
    exact = online.expected_cost_exact(online.algorithm2, inst, {"half": online.HALF, "sqrt3": online.SQRT3}[rule])
    lo, hi = exact if isinstance(exact, tuple) else (exact, exact)
    assert tail.splitlines() == ref_expected_lines(lo, hi, optimum_query_set(inst)[1])


@pytest.mark.parametrize("p, message", [
    ("0/0", "--p must be a rational like 3/2, got '0/0'"),
    ("1/0", "--p must be a rational like 3/2, got '1/0'"),
    ("x", "--p must be a rational like 3/2, got 'x'"),
    ("3/2", "probability 3/2 outside [0, 1]"),
    ("-1", "probability -1 outside [0, 1]"),
])
def test_bad_coin_bias_is_a_usage_error(tmp_path, capsys, p, message):
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    for argv in (["ratio", "alg1", "random", "--p", p], ["solve", "alg1", doc, "--p", p],
                 ["solve", "alg1", doc, "--p", p, "--expected"], ["ratio", "alg1", "lemma4", "--p", p, "--rule", "half"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"usage error: {message}\n"), argv
    # every other strategy ignores --p
    assert main(["ratio", "vc", "random", "--p", p, "--trials", "2"]) == 0
    assert main(["solve", "alg2", doc, "--p", p]) == 0


def test_coin_bias_is_read_once_per_command(tmp_path, monkeypatch, capsys):
    read = []
    real = cli._parse_rational
    monkeypatch.setattr(cli, "_parse_rational", lambda text, what: read.append(what) or real(text, what))
    assert main(["ratio", "alg1", "random", "--trials", "6", "--p", "1/3"]) == 0
    assert main(["solve", "alg1", write_doc(tmp_path, "a.json", gen_lemma4_pair(0)[0]), "--expected"]) == 0
    assert read.count("--p") == 2


def test_solve_expected_walks_each_independent_pair_once(tmp_path, capsys, monkeypatch):
    """21 independent pairs put 21 real flips on every coin path, but the walk takes
    each pair's flip once; only a walk past the node budget is a model error."""
    doc = write_doc(tmp_path, "pairs.json", gen_independent_pairs(21))
    assert main(["solve", "alg1", doc, "--expected"]) == 0
    assert "expected cost : 63/2 (~31.5)" in capsys.readouterr().out
    monkeypatch.setattr(online, "_MAX_FLIPS_WALKED", 20)
    assert main(["solve", "alg1", doc, "--expected"]) == 4
    assert capsys.readouterr().err == "model error: the coin tree has more than 20 real flips to walk\n"


def test_solve_advice_prints_bits(tmp_path, capsys):
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    assert main(["solve", "advice_lg3", doc]) == 0
    assert "advice bits: 1" in capsys.readouterr().out


def test_solve_expected_runs_deterministic_strategy_once(tmp_path, capsys, monkeypatch):
    # the expectation of a deterministic strategy is the cost of the run printed above it
    doc = write_doc(tmp_path, "pairs.json", gen_random(1, 8, F(0)))
    built = []
    init = AdviceOracle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdviceOracle, "__init__", counting_init)
    assert main(["solve", "advice_half", doc, "--expected"]) == 0
    out = capsys.readouterr().out
    assert len(built) == 1
    cost = out.split("cost       : ")[1].split("\n")[0]
    assert f"expected cost : {cost}" in out


#: SHA-256 of ``ratio alg2 cost_path --n 80 --rule sqrt3``'s output, whose ints stay under Python's
#: 4 300-digit cap on int-to-text conversion, as printed before the cap was lifted for formatting.
COST_PATH_80_SHA256 = "0dd78dfcd1c7de78627e2d9e249f20a3afcc7e8bdb6f43ab6fbabee32ca1b392"


def digit_cap() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("argv", [
    ["ratio", "alg2", "cost_path", "--n", "90", "--rule", "sqrt3"],
    ["solve", "alg2", "DOC", "--rule", "sqrt3", "--expected"],
])
def test_sqrt3_enclosures_past_the_digit_cap_print(tmp_path, capsys, argv):
    doc = write_doc(tmp_path, "path.json", gen_cost_path(100, F(1, 1000)))
    cap = digit_cap()
    assert main([doc if arg == "DOC" else arg for arg in argv]) == 0
    out, err = capsys.readouterr()
    assert err == "" and digit_cap() == cap
    assert max(map(len, re.findall(r"\d+", out))) > 4300


def test_sqrt3_enclosures_under_the_digit_cap_print_as_before(capsys):
    assert main(["ratio", "alg2", "cost_path", "--n", "80", "--rule", "sqrt3"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == COST_PATH_80_SHA256


def test_a_coin_path_of_500_flips_prints_its_row(capsys):
    """The spine of a cost path at n = 1 000 puts about 500 real flips on one coin path;
    the walk takes it in a loop, so the row prints, at the 3/2 the tight path reaches."""
    assert main(["ratio", "alg2", "cost_path", "--n", "1000", "--eps", "1/1000000000"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "cost_path-n1000,alg2,0,750000499/500000000,500000499/500000000,750000499/500000499," in out
    assert out.rstrip().endswith("bound=57/32 status=OK")


#: User text whose numerator or denominator would pass 4 300 digits: a literal and exponent forms.
PAST_THE_DIGIT_CAP = ["1" * 5000, "1e5000", "1e-5000", "9e4300"]


def write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def lemma4_with(field, text) -> dict:
    """Lemma 4's pair at δ = 2 as a document, with ``text`` as item 0's cost, as its
    threshold or as its last value."""
    doc = json.loads(serialize(gen_lemma4_pair(2)[0]))
    if field == "cost":
        doc["intervals"][0]["cost"] = text
    elif field == "values":
        doc["values"][-1] = text
    else:
        doc["delta"] = text
    return doc


def test_numbers_past_the_digit_cap_in_user_text_are_still_refused(tmp_path, capsys):
    """Exponent forms past the cap are refused in the words of a 5 000-digit literal, in
    flags and in documents; under it they are read.  A document grown past the cap from a
    4 300-digit threshold is written in full, and reading it back refuses it."""
    doc = write_doc(tmp_path, "a.json", gen_lemma4_pair(0)[0])
    for digits in PAST_THE_DIGIT_CAP:
        for argv, flag in ((["ratio", "alg2", "random", "--delta", digits], "--delta"),
                           (["gen", "random", "--delta", digits], "--delta"),
                           (["gen", "cost_path", "--eps", digits], "--eps"),
                           (["solve", "alg1", doc, "--p", digits], "--p")):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"usage error: {flag} must be a rational like 3/2, got {digits!r}\n")
        for field, where in (("cost", "interval 0 cost"), ("delta", "delta"), ("values", "value 1")):
            assert main(["solve", "simple", write_json(tmp_path, "long.json", lemma4_with(field, digits))]) == 4
            assert capsys.readouterr() == ("", f"model error: {where} is not a valid rational: {digits!r}\n")
    for text, written in (("1e3", "1000"), ("2.5e-1", "1/4")):
        assert main(["gen", "random", "--delta", text]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == written
        assert main(["solve", "simple", write_json(tmp_path, "e.json", lemma4_with("cost", text))]) == 0
        assert capsys.readouterr().err == ""
    nines, path = "9" * 4300, str(tmp_path / "nines.json")
    assert main(["gen", "lemma4", "--delta", nines, "--out", path]) == 0
    assert capsys.readouterr().err == ""
    hi = json.loads(Path(path).read_text(encoding="utf-8"))["intervals"][0]["hi"]
    assert hi == nines + "0"
    assert main(["solve", "simple", path]) == 4
    assert capsys.readouterr() == ("", f"model error: interval 0 hi is not a valid rational: {hi!r}\n")


def test_an_approximation_past_a_float_prints_as_infinity(tmp_path, capsys):
    """Only the ``(~...)`` text changes past a float's range; the exact value prints in full."""
    path = write_json(tmp_path, "huge.json", lemma4_with("cost", "1e400"))
    for extra in ([], ["--expected"]):
        assert main(["solve", "simple", path, *extra]) == 0
        out, err = capsys.readouterr()
        assert err == "" and f"cost       : {10**400 + 1} (~inf)\n" in out
    assert "expected cost : " in out and "expected ratio: " in out
    assert [cli._approx(x) for x in (F(-(10**400)), F(10**400), F(1, 3), F(10**300))] == [
        "-inf", "inf", f"{1 / 3:.10g}", f"{1e300:.10g}"]


@pytest.mark.parametrize("text", ["[" * 100000, '{"schema": "1", "delta": "0", "intervals": ' + "[" * 100000],
                         ids=["root", "intervals"])
def test_a_document_nested_too_deeply_is_a_document_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert main(["opt", str(path)]) == 4
    assert capsys.readouterr() == ("", "document error: arrays or objects nested too deeply to read\n")


def test_solve_missing_file(capsys):
    assert main(["solve", "simple", "/nonexistent/path.json"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_solve_model_errors(tmp_path, capsys):
    doc = write_doc(tmp_path, "wide.json", gen_lemma4_pair(2)[0])
    assert main(["solve", "stable_sort", doc]) == 4
    assert "model error" in capsys.readouterr().err
    novals = write_doc(tmp_path, "novals.json", Instance(F(0), fig1_instance("a").intervals))
    assert main(["solve", "simple", novals]) == 4


def test_solve_bad_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["solve", "simple", str(path)]) == 4
    assert "document error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# opt / verify
# ---------------------------------------------------------------------------


def test_opt_brute_match(tmp_path, capsys):
    doc = write_doc(tmp_path, "fig1a.json", fig1_instance("a"))
    assert main(["opt", doc, "--brute"]) == 0
    out = capsys.readouterr().out
    assert "optimum query set: {0, 2}" in out
    assert "optimum cost     : 2" in out
    assert "brute check      : MATCH" in out


def test_opt_brute_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    """A brute-force optimum that disagrees is printed, with exit 3.  The two agree on every
    instance, so the oracle is stubbed."""
    monkeypatch.setattr(cli, "brute_force_optimum", lambda inst: (F(7, 2), frozenset({0})))
    doc = write_doc(tmp_path, "fig1a.json", fig1_instance("a"))
    assert main(["opt", doc, "--brute"]) == 3
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["optimum cost     : 2 (~2)", "brute check      : MISMATCH (brute=7/2)"]


def test_opt_brute_past_the_guard_is_skipped(tmp_path, capsys):
    doc = write_doc(tmp_path, "pairs.json", gen_independent_pairs(11))
    assert main(["opt", doc, "--brute"]) == 4
    captured = capsys.readouterr()
    assert "optimum cost     : 11" in captured.out and "brute check" not in captured.out
    assert captured.err == "brute check      : skipped (n=22 too large)\n"


def test_opt_scripted_document(tmp_path, capsys):
    assert main(["gen", "cpcp", "--n", "1", "--M", "2", "--out", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    assert main(["opt", str(tmp_path / "c.json")]) == 0
    out = capsys.readouterr().out
    assert "optimum step counts: 0,2" in out
    assert "optimum cost       : 2" in out


def test_verify_accepts_and_rejects(tmp_path, capsys):
    doc = write_doc(tmp_path, "fig1a.json", fig1_instance("a"))
    assert main(["verify", doc, "--queries", "0,2", "--permutation", "1,0,2"]) == 0
    out = capsys.readouterr().out
    assert "FEASIBLE" in out and "VALID" in out
    assert main(["verify", doc, "--queries", "", "--permutation", "2,0,1"]) == 3
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out and "INVALID" in out
    assert main(["verify", doc, "--queries", "a,b", "--permutation", "0"]) == 2


def test_verify_refuses_an_index_that_names_no_item(tmp_path, capsys):
    assert main(["gen", "nested_star", "--n", "4", "--out", str(tmp_path / "star.json")]) == 0
    capsys.readouterr()
    argv = ["verify", str(tmp_path / "star.json"), "--queries", "3,99,-7", "--permutation", "3,0,1,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: query index 99 names no item")


def test_non_utf8_document_is_a_document_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + serialize(fig1_instance("a")).encode("utf-16-le"))
    for argv in (["opt", str(path)], ["solve", "simple", str(path)],
                 ["verify", str(path), "--queries", "", "--permutation", "0"]):
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("document error: not UTF-8 text")


def test_repeated_field_is_a_model_error(tmp_path, capsys):
    # read "last one wins", delta = 3 would make the optimum cost 0, not 1
    path = tmp_path / "twice.json"
    path.write_text(
        '{"schema": "1", "delta": "0", "intervals": [{"lo": "0", "hi": "4", "cost": "1"}, '
        '{"lo": "2", "hi": "6", "cost": "1"}], "values": ["1", "5"], "delta": "3"}',
        encoding="utf-8",
    )
    assert main(["opt", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "model error: repeated field 'delta'\n"


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------


def test_ratio_alg1_lemma4(capsys):
    assert main(["ratio", "alg1", "lemma4", "--p", "1/2"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out.split("#")[0])))
    assert rows[0] == ["instance", "algorithm", "seed", "cost", "opt", "ratio", "bits"]
    assert [r[0] for r in rows[1:]] == ["lemma4-a", "lemma4-b"]
    assert all(r[5] == "3/2" for r in rows[1:])
    assert "max_ratio=3/2" in out and "bound=3/2" in out and "status=OK" in out


def test_ratio_oblivious_nested_star(capsys):
    assert main(["ratio", "oblivious", "nested_star", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "max_ratio=6" in out and "status=OK" in out


def test_ratio_with_a_zero_optimum_reads_one(capsys):
    # one interval has no dependency: nothing is queried, and 0/0 is reported as ratio 1
    assert main(["ratio", "simple", "random", "--n", "1", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out.split("#")[0])))
    assert [(r[0], r[3], r[4], r[5]) for r in rows[1:]] == [("random-n1-s0", "0", "0", "1"),
                                                              ("random-n1-s1", "0", "0", "1")]
    assert "max_ratio=1 (~1)" in out and "status=OK" in out


def test_ratio_exceeded_reports_and_exits_3(capsys):
    # lemma4 is a two-interval component, violating the precondition the
    # deterministic-coin bound needs, so the punished side lands at 2 > 5/3
    assert main(["ratio", "alg1", "lemma4", "--p", "0"]) == 3
    captured = capsys.readouterr()
    assert "status=EXCEEDED" in captured.out
    assert "EXCEEDED lemma4-b: ratio 2" in captured.err


def test_ratio_csv_file(tmp_path, capsys):
    """``--out FILE`` writes exactly the CSV that stdout gets, and stdout keeps the
    summary line without its ``# ``."""
    argv = ["ratio", "simple", "random", "--trials", "5", "--n", "5"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed[:printed.index("# rows=")].encode("utf-8")
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert rows[0] == ["instance", "algorithm", "seed", "cost", "opt", "ratio", "bits"]
    assert len(rows) == 6
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    assert capsys.readouterr().out == printed[printed.index("# rows=") + 2:]
    assert "status=OK" in printed


@pytest.mark.parametrize(
    "argv, strategy, instances",
    [
        (
            ["ratio", "advice_half", "random", "--trials", "4", "--n", "6"],
            advice_half,
            [gen_random(s, 6, F(0)) for s in range(4)],
        ),
        (
            ["ratio", "advice_lg3", "advice_triangles", "--n", "3"],
            advice_lg3,
            list(gen_advice_triangles(3, F(1))),
        ),
    ],
)
def test_ratio_advice_bits_column(capsys, argv, strategy, instances):
    # one run per row gives both the cost and the bits column
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out.split("#")[0])))[1:]
    assert len(rows) == len(instances)
    for row, inst in zip(rows, instances):
        report = strategy(Environment(inst), AdviceOracle(inst))
        assert row[6] == str(report.advice_bits)
        assert row[3] == row[4] == str(report.total_cost)
    assert "bound=1" in out and "status=OK" in out


@pytest.mark.parametrize("strategy", ["advice_half", "advice_lg3"])
def test_ratio_advice_past_the_brute_force_guard(capsys, strategy):
    # n = 22 is past brute force's 2^20 guard; the advice oracle needs no enumeration
    assert main(["ratio", strategy, "random", "--n", "22", "--trials", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "status=OK" in out


def test_ratio_rejects_valueless_family(capsys):
    assert main(["ratio", "simple", "asteroid"]) == 2  # not offered as a choice


@pytest.mark.parametrize(
    "argv, ids",
    [
        (["random", "--n", "5", "--trials", "2"], ["random-n5-s0", "random-n5-s1"]),
        (["random", "--n", "5", "--trials", "2", "--seed", "7"], ["random-n5-s7", "random-n5-s8"]),
        (["lemma4"], ["lemma4-a", "lemma4-b"]),
        (["lemma7"], ["lemma7-lower", "lemma7-upper"]),
        (["figure3", "--k", "1"], ["figure3-k1"]),
        (["triangle_chain", "--k", "2"], ["triangle_chain-k2-lower", "triangle_chain-k2-upper"]),
        (["laminar", "--n", "5", "--trials", "2"], ["laminar-n5-s0", "laminar-n5-s1"]),
        (["nested_star", "--n", "4"], ["nested_star-n4"]),
        (["cost_path", "--n", "4"], ["cost_path-n4"]),
        (["cpcp", "--n", "3", "--M", "3"], ["cpcp-n3-M3"]),
        (
            ["advice_triangles", "--n", "3"],
            ["advice_triangles-m3-p1", "advice_triangles-m3-p2", "advice_triangles-m3-p3"],
        ),
    ],
)
def test_ratio_row_ids(capsys, argv, ids):
    assert main(["ratio", "simple"] + argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out.split("#")[0])))[1:]
    assert [r[0] for r in rows] == ids


@pytest.mark.parametrize(
    "argv, label",
    [
        (["simple", "random"], "2"),
        (["vc", "random"], "2"),
        (["alg3", "random"], "2"),
        (["advice_half", "random"], "1"),
        (["advice_lg3", "random"], "1"),
        (["alg1", "random", "--p", "1/2"], "3/2"),
        (["alg1", "random"], "3/2"),
        (["alg1", "random", "--p", "0"], "5/3"),
        (["alg1", "random", "--p", "1"], "5/3"),
        (["alg1", "random", "--p", "1/3"], None),
        (["alg2", "random"], "57/32"),
        (["alg2", "random", "--rule", "fixed"], "57/32"),
        (["alg2", "random", "--rule", "half"], "57/32"),
        (["alg2", "random", "--rule", "sqrt3"], "1+4/(3*sqrt3)+1e-6"),
        (["oblivious", "random"], None),
        (["stable_sort", "random"], None),
    ],
)
def test_ratio_bound_label(capsys, argv, label):
    assert main(["ratio"] + argv + ["--n", "4", "--trials", "2"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    if label is None:
        assert " bound=" not in summary
    else:
        assert f" bound={label} status=OK" in summary


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--delta", "abc"],
        ["random", "--n", "-1"],
        ["cost_path", "--eps", "x"],
        ["cost_path", "--n", "5"],  # the path needs an even length
        ["triangle_chain", "--k", "0"],
        ["figure3", "--k", "0"],
        ["advice_triangles", "--n", "0"],  # no longer clamped to one triangle
    ],
)
def test_ratio_bad_family_parameters_are_usage_errors(capsys, argv):
    # the same exit code and prefix as `gen` with these parameters
    assert main(["ratio", "simple"] + argv) == 2
    assert capsys.readouterr().err.startswith("usage error")
    assert main(["gen"] + argv) == 2
    assert capsys.readouterr().err.startswith("usage error")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_ratio_needs_at_least_one_trial(capsys, trials):
    assert main(["ratio", "simple", "random", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --trials must be at least 1, got {trials}\n"


def test_ratio_pairing_errors_stay_model_errors(capsys):
    assert main(["ratio", "stable_sort", "lemma4", "--delta", "2"]) == 4
    assert capsys.readouterr().err.startswith("model error")
    assert main(["ratio", "alg1", "lemma4", "--rule", "half"]) == 4
    assert capsys.readouterr().err.startswith("model error")


def test_ratio_sweep_never_raises(capsys):
    # every strategy on every family at tiny sizes ends in a known exit code
    # and a prefixed message, never a traceback, and no row costs less than
    # its optimum
    for strategy in STRATEGIES:
        for family in RATIO_FAMILIES:
            for delta in ("0", "1/2"):
                argv = ["ratio", strategy, family, "--n", "2", "--trials", "1", "--M", "2", "--delta", delta]
                code = main(argv)
                out, err = capsys.readouterr()
                assert code in (0, 3, 4), argv
                prefixes = ("# EXCEEDED",) if code == 3 else ("usage error", "model error", "document error")
                assert err == "" or err.startswith(prefixes), argv
                assert "below the optimum" not in err, argv
                for row in csv.DictReader(line for line in out.splitlines() if not line.startswith("#")):
                    assert F(row["cost"]) >= F(row["opt"]), (argv, row)


@pytest.mark.parametrize(
    "strategy, cost, opt", [("vc", "7", "7"), ("advice_half", "7", "7"), ("alg3", "10", "8")]
)
def test_ratio_compares_with_the_optimum_of_the_strategy_model(capsys, strategy, cost, opt):
    # exact-model strategies ignore the scripts, so their optimum is the exact one
    assert main(["ratio", strategy, "cpcp", "--n", "4", "--M", "2"]) == 0
    (row,) = csv.DictReader(line for line in capsys.readouterr().out.splitlines() if not line.startswith("#"))
    assert (row["cost"], row["opt"]) == (cost, opt)


def test_ratio_refuses_a_cost_below_the_optimum(capsys, monkeypatch):
    from querysort import cli

    monkeypatch.setattr(cli, "optimum_query_set", lambda inst: (frozenset(), F(100)))
    assert main(["ratio", "simple", "lemma4"]) == 4
    assert capsys.readouterr().err == "model error: lemma4-a: cost 2 is below the optimum 100\n"


#: How a run left with lemma4's first pair unqueried is refused, wherever it is refused.
LEFTOVER = "items 0 and 1 are still dependent: [0, 10] vs [4, 14]"


def test_ratio_refuses_a_run_that_stops_with_a_dependent_pair(capsys, monkeypatch):
    from querysort import cli, online

    monkeypatch.setattr(cli, "simple_adaptive", online._played(lambda env: {}))
    assert main(["ratio", "simple", "lemma4"]) == 4
    assert capsys.readouterr() == ("", f"model error: {LEFTOVER}\n")


def test_a_leftover_pair_is_refused_in_one_text_everywhere(tmp_path, capsys, monkeypatch):
    """The final ordering (`solve`), a spend left unordered (`ratio`), a strategy's own
    ordering and a coin-tree leaf refuse a dependent pair left at a run's end alike."""
    from querysort import Permutation, UnresolvedDependency, algorithm1, expected_cost_exact

    inst = gen_lemma4_pair(0)[0]
    monkeypatch.setattr(cli, "simple_adaptive", online._played(lambda env: {}))
    assert main(["solve", "simple", write_doc(tmp_path, "pair.json", inst)]) == 4
    assert capsys.readouterr() == ("", f"model error: {LEFTOVER}\n")
    assert main(["ratio", "simple", "lemma4"]) == 4
    assert capsys.readouterr() == ("", f"model error: {LEFTOVER}\n")
    with pytest.raises(UnresolvedDependency, match=f"^{re.escape(LEFTOVER)}$"):
        online._finish(Environment(inst), Permutation((0, 1)))
    start, _, key = online._TRIALS[algorithm1]
    monkeypatch.setitem(online._TRIALS, algorithm1, (start, lambda env, rule, state: None, key))
    with pytest.raises(UnresolvedDependency, match=f"^{re.escape(LEFTOVER)}$"):
        expected_cost_exact(algorithm1, inst, F(1, 2))


@pytest.mark.parametrize(
    "algorithm, family",
    [
        ("oblivious", "nested_star"),
        ("simple", "random"),
        ("stable_sort", "random"),
        ("vc", "laminar"),
        ("alg3", "cpcp"),
        ("advice_half", "random"),
        ("advice_lg3", "advice_triangles"),
    ],
)
def test_ratio_orders_no_run_and_solve_orders_one(tmp_path, capsys, monkeypatch, algorithm, family):
    # `ratio` prints costs only, so its deterministic rows stop before `_finish`
    # and the final ordering; `solve` prints the ordering, and --expected does not
    # run again.  The stable sort orders inside its play, so `_finish` only checks it.
    orderings = []
    for name in ("build_permutation", "_finish"):
        original = getattr(online, name)
        monkeypatch.setattr(online, name, lambda *a, _f=original, _n=name, **k: orderings.append(_n) or _f(*a, **k))
    assert main(["ratio", algorithm, family, "--trials", "3"]) == 0
    assert "status=OK" in capsys.readouterr().out
    assert orderings == []
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    assert main(["solve", algorithm, doc, "--expected"]) == 0
    capsys.readouterr()
    assert orderings == ["_finish"] + (["build_permutation"] if algorithm != "stable_sort" else [])


@pytest.mark.parametrize(
    "argv, name",
    [
        (["solve", "oblivious"], "run_oblivious"),
        (["solve", "simple"], "simple_adaptive"),
        (["solve", "stable_sort"], "simple_adaptive_stable_sort"),
        (["solve", "vc"], "vc_adaptive"),
        (["solve", "alg1"], "algorithm1"),
        (["solve", "alg1", "--expected"], "expected_cost_exact"),
        (["solve", "alg2"], "algorithm2"),
        (["solve", "alg2", "--expected"], "expected_cost_exact"),
        (["solve", "alg3"], "algorithm3_cpcp"),
        (["solve", "advice_half"], "advice_half"),
        (["solve", "advice_lg3"], "advice_lg3"),
        (["gen", "random"], "gen_random"),
        (["gen", "lemma4"], "gen_lemma4_pair"),
        (["gen", "lemma7"], "gen_lemma7_two_triangles"),
        (["gen", "figure3"], "gen_figure3_chain"),
        (["gen", "triangle_chain"], "gen_triangle_chain"),
        (["gen", "laminar"], "gen_laminar"),
        (["gen", "nested_star"], "gen_nested_star"),
        (["gen", "cost_path"], "gen_cost_path"),
        (["gen", "cpcp"], "gen_cpcp_adversary"),
        (["gen", "advice_triangles"], "gen_advice_triangles"),
        (["gen", "asteroid"], "asteroid_realization"),
    ],
)
def test_tables_call_through_module_globals(tmp_path, capsys, monkeypatch, argv, name):
    # a tracer swaps the module's globals for timing wrappers; the tables
    # must look their functions up when they run to be seen by it
    from querysort import cli

    calls = []
    original = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    if argv[0] == "solve":
        argv = argv[:2] + [write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])] + argv[2:]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls


# ---------------------------------------------------------------------------
# mutated documents
# ---------------------------------------------------------------------------

BASE_DOCS = tuple(serialize(inst) for inst in (
    fig1_instance("a"),
    *(gen_random(s, 4, d) for s, d in ((0, F(0)), (1, F(1, 2)), (2, F(1)))),
    *(gen_random_scripted(s, 3, F(0)) for s in range(3)),
))
REPEAT = "\x01"
JUNK = (None, True, 3, 1.5, "x", "", "1/0", "1/", " 1/2 ", "3/-4", "0x10", "1e3", [], {}, ["1"], {"lo": "1"})


def slots(node, out):
    """Every ``(container, key)`` slot inside a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        slots(child, out)
    return out


@st.composite
def structurally_mutated(draw):
    """A valid document with keys dropped, values swapped for other types or
    broken rationals, unknown or repeated fields added, or the root replaced."""
    doc = json.loads(draw(st.sampled_from(BASE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        places = slots(doc, [])
        kind = draw(st.sampled_from(("drop", "swap", "rational", "add", "repeat", "root")))
        if kind == "root" or not places:
            doc = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif kind == "add":
            dicts = [d for d in [doc] + [c[k] for c, k in places] if isinstance(d, dict)]
            if dicts:
                draw(st.sampled_from(dicts))[draw(st.sampled_from(("extra", "Lo", "schema2")))] = "1"
        elif kind == "repeat":
            dicts = [c for c, k in places if isinstance(c, dict)]
            if dicts:  # REPEAT + key dumps to a second copy of that key
                target = draw(st.sampled_from(dicts))
                target[REPEAT + draw(st.sampled_from(sorted(target)))] = "1"
        else:
            strings = [(c, k) for c, k in places if isinstance(c[k], str)]
            if kind == "rational" and not strings:  # a broken rational needs a string to break
                kind = "swap"
            container, key = draw(st.sampled_from(strings if kind == "rational" else places))
            if kind == "drop":
                del container[key]
            elif kind == "swap":
                container[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))
            else:
                container[key] = draw(st.sampled_from(("1/0", "1//2", "2/", "/3", "1.5.", "--1", "")
                                                      + (container[key] + "x", container[key][:-1])))
    return json.dumps(doc).replace(json.dumps(REPEAT)[:-1], '"').encode()


@st.composite
def byte_corrupted(draw):
    """A valid document with bytes overwritten, inserted or deleted, or a
    byte-order mark put in front."""
    data = bytearray(draw(st.sampled_from(BASE_DOCS)).encode())
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        kind = draw(st.sampled_from(("set", "insert", "delete", "prefix")))
        if kind == "set":
            data[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[pos:pos] = bytes([draw(st.integers(0, 255))])
        elif kind == "delete" and len(data) > 1:
            del data[pos]
        elif kind == "prefix":
            data[:0] = draw(st.sampled_from((b"\xff\xfe", b"\xfe\xff", b"\xef\xbb\xbf", b"\x00")))
    return bytes(data)


def canonical(node, key=None):
    """A parsed document with every rational string in its canonical form."""
    if isinstance(node, dict):
        return {k: canonical(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [canonical(v) for v in node]
    return str(F(node)) if isinstance(node, str) and key != "schema" else node


def check_read_as_written(text: str, inst):
    """A document that loads repeats no key in any object, and says what
    `serialize` writes back for the instance it loads as."""
    objects = []
    parsed = json.loads(text, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    for pairs in objects:
        keys = [key for key, _ in pairs]
        assert len(keys) == len(set(keys)), keys
    for row in parsed["intervals"]:
        row.setdefault("cost", "1")
    assert canonical(json.loads(serialize(inst))) == canonical(parsed)


def check_mutated_document(data: bytes):
    """``deserialize`` fails only with a `QuerysortError`, and a document it
    loads is read as written; ``solve``, ``opt`` and ``verify`` return an
    exit code, 4 when the document does not load."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError:
            loads = False
        else:
            try:
                inst = deserialize(text)
            except QuerysortError:
                loads = False
            else:
                loads = True
                check_read_as_written(text, inst)
        for argv in (["solve", "simple", path], ["opt", path],
                     ["verify", path, "--queries", "0", "--permutation", "0"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if loads:
                assert code in (0, 2, 3, 4), (argv, code)
            else:
                assert code == 4, (argv, code, err.getvalue())
                assert err.getvalue().startswith(("document error", "model error")), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(structurally_mutated())
def test_structurally_mutated_documents_fail_cleanly(data):
    check_mutated_document(data)


@settings(max_examples=120, deadline=None)
@given(byte_corrupted())
def test_byte_corrupted_documents_fail_cleanly(data):
    check_mutated_document(data)


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(querysort.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "querysort", "ratio", "simple", "lemma4"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("instance,algorithm,") and "status=OK" in done.stdout


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "querysort" in capsys.readouterr().out
    assert main([]) == 2  # a subcommand is required
