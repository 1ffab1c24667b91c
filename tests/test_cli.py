"""Command-line interface: subcommands, documents, exit codes."""

import csv
import io

import pytest

from fractions import Fraction as F

from querysort import (
    AdviceOracle,
    Environment,
    advice_half,
    advice_lg3,
    deserialize,
    fig1_instance,
    gen_advice_triangles,
    gen_lemma4_pair,
    gen_random,
    serialize,
)
from querysort.cli import main


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


def test_solve_advice_prints_bits(tmp_path, capsys):
    doc = write_doc(tmp_path, "lemma4a.json", gen_lemma4_pair(0)[0])
    assert main(["solve", "advice_lg3", doc]) == 0
    assert "advice bits: 1" in capsys.readouterr().out


def test_solve_missing_file(capsys):
    assert main(["solve", "simple", "/nonexistent/path.json"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_solve_model_errors(tmp_path, capsys):
    doc = write_doc(tmp_path, "wide.json", gen_lemma4_pair(2)[0])
    assert main(["solve", "stable_sort", doc]) == 4
    assert "model error" in capsys.readouterr().err
    bare = write_doc(tmp_path, "novals.json", fig1_instance("a").without_values())
    assert main(["solve", "simple", bare]) == 4


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


def test_ratio_exceeded_reports_and_exits_3(capsys):
    # lemma4 is a two-interval component, violating the precondition the
    # deterministic-coin bound needs, so the punished side lands at 2 > 5/3
    assert main(["ratio", "alg1", "lemma4", "--p", "0"]) == 3
    captured = capsys.readouterr()
    assert "status=EXCEEDED" in captured.out
    assert "EXCEEDED lemma4-b: ratio 2" in captured.err


def test_ratio_csv_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(
        ["ratio", "simple", "random", "--trials", "5", "--n", "5", "--out", str(out)]
    ) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert rows[0] == ["instance", "algorithm", "seed", "cost", "opt", "ratio", "bits"]
    assert len(rows) == 6
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    assert "status=OK" in capsys.readouterr().out


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


def test_ratio_rejects_valueless_family(capsys):
    assert main(["ratio", "simple", "asteroid"]) == 2  # not offered as a choice


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "querysort" in capsys.readouterr().out
    assert main([]) == 2  # a subcommand is required
