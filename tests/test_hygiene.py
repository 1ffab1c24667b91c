"""Source hygiene checks that need no linter.

Every import in a module is used: ``__init__.py`` is left out (its imports
are the package's re-exports), and so is ``from __future__``.  A name counts
as used when it appears as a name anywhere in the module.

No float enters the library: no module but ``cli.py``, which prints ``~``
approximations next to exact results, holds a ``float(...)`` call or a
float literal.

No Fraction pair predicate inside a run: ``online.py`` names none of them, so
every pair question a strategy asks goes to the environment's live graph.

No Fraction endpoint in a decision: ``online.py`` reads ``.lo``/``.hi`` only
in ``CpcpEnvironment.__init__``, which builds the intervals its queries
return and puts them on the grid, and `peo_min_right` and
`longest_path_caterpillar` read no ``intervals``; every ordering key and
pick compares grid ints.

The package re-exports exactly what it imports: the names ``__init__.py``
imports equal its ``__all__``, and each one resolves on the package, so a
half-removed export fails here.
"""

import ast
from pathlib import Path

import pytest

import querysort

SRC = Path(__file__).resolve().parent.parent / "src" / "querysort"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """``(bound name, line)`` for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree) if name not in used)


def test_the_check_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Sequence[int]) -> Optional[int]:\n"
        "    return None\n"
    )
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def float_sites(source):
    """``(line, what)`` for every ``float(...)`` call and float literal."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            sites.append((node.lineno, "float()"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, repr(node.value)))
    return sorted(sites)


def test_the_check_flags_floats():
    source = (
        "def f(x):\n"
        "    return float(x) < 0.3 or x < 1e3 or isinstance(x, float) or x < 3\n"
    )
    assert float_sites(source) == [(2, "0.3"), (2, "1000.0"), (2, "float()")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_no_floats(path):
    assert float_sites(path.read_text()) == []


PAIR_PREDICATES = {"dependent", "dependent_pairs", "singleton_witness_static", "singleton_witness_value"}


def pair_predicate_sites(source):
    """``(line, name)`` for every name, attribute or import of a pair predicate."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in PAIR_PREDICATES:
            sites.append((node.lineno, name))
    return sorted(sites)


def test_the_check_flags_pair_predicates():
    source = (
        "from .core import dependent as dep, scalar\n"
        "from . import core\n"
        "def f(a, b):\n"
        "    return dep(a, b, 0) or core.singleton_witness_value(a, 1, 0) or dependent_pairs\n"
    )
    assert pair_predicate_sites(source) == [(1, "dependent"), (4, "dependent_pairs"),
                                            (4, "singleton_witness_value")]


def test_online_asks_the_live_graph():
    assert pair_predicate_sites((SRC / "online.py").read_text()) == []


def attribute_reads(source, attrs):
    """``(enclosing function, line, attribute)`` for every read of one of ``attrs``;
    the function is named with its class, as ``Class.method``."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in attrs:
                sites.append((where, child.lineno, child.attr))
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(sites)


def test_the_check_flags_endpoint_reads():
    source = (
        "class Env:\n"
        "    def query(self, i):\n"
        "        return self.script[i].lo\n"
        "def pick(g):\n"
        "    key = lambda w: (g.intervals[w].hi, w)\n"
        "    return g.his, g.intervals\n"
    )
    assert attribute_reads(source, {"lo", "hi", "intervals"}) == [
        ("Env.query", 3, "lo"), ("pick", 5, "hi"), ("pick", 5, "intervals"), ("pick", 6, "intervals"),
    ]


def test_online_decides_on_grid_endpoints():
    reads = attribute_reads((SRC / "online.py").read_text(), {"lo", "hi"})
    assert {where for where, _, _ in reads} == {"CpcpEnvironment.__init__"}


def test_orderings_read_no_intervals():
    reads = attribute_reads((SRC / "graph.py").read_text(), {"intervals"})
    assert [site for site in reads if site[0] in ("peo_min_right", "longest_path_caterpillar")] == []


def reexport_mismatch(source):
    """``(imported but not in __all__, in __all__ but not imported)``, each sorted."""
    tree = ast.parse(source)
    imported = {name for name, _ in imported_names(tree)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - exported), sorted(exported - imported)


def test_the_check_flags_a_half_removed_export():
    source = (
        "from .online import HALF, ProbabilityRule\n"
        "__all__ = ['HALF', 'SQRT3']\n"
    )
    assert reexport_mismatch(source) == (["ProbabilityRule"], ["SQRT3"])


def test_init_reexports_what_it_imports():
    assert reexport_mismatch((SRC / "__init__.py").read_text()) == ([], [])
    assert [name for name in querysort.__all__ if not hasattr(querysort, name)] == []
