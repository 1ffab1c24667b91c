"""Source hygiene checks that need no linter.

Every import in a module is used: ``__init__.py`` is left out (its imports
are the package's re-exports), and so is ``from __future__``.  A name counts
as used when it appears as a name anywhere in the module.

No float enters the library: no module but ``cli.py``, which prints ``~``
approximations next to exact results, holds a ``float(...)`` call or a
float literal.

No Fraction predicate inside a run: ``online.py`` names none of the pair
predicates nor `is_trivial`, so every pair question a strategy asks goes to
the environment's live graph.  Offline, only the 2^n oracle
`brute_force_optimum` names one: every other exact optimum, and the
answer-blind set, decides on the instance's grid ints.

No Fraction endpoint in a decision: ``online.py`` reads no ``.lo``/``.hi``
(the refinement steps come on the grid from `Instance.steps`), and
`peo_min_right` and `longest_path_caterpillar` read no ``intervals``; every
ordering key and pick compares grid ints.

No `Fraction` money in the per-query path: the ledger, the queries, the
flushes and each play's step loop build no ``Fraction(...)`` and read no
``.cost`` or ``.step_cost``; they add cost units, and only a probability
rule's arguments are made exact there.

Each number is checked once, and only once: `core._checked_already`, which
builds an interval without its checks, is named only inside an allow-list of
functions whose inputs already passed them (`UNCHECKED_CALLERS`).

Every number a refusal names is written by `core.rational_text`: no f-string in
``core.py``, ``graph.py``, ``online.py`` or ``offline.py`` has a ``!r`` field.  Such a
field turns a number past Python's int-to-text cap into a `ValueError`; a field that
wants ``repr`` takes ``rational_text(x, repr)``.

Every seed is an int: each ``random.Random(seed)`` call in the package takes a
name that its own function passed to `core._require_ints` on an earlier line,
so no seed draws differently from run to run or stands for another int.

Each refinement table is built once: `core.on_grid` is called only in
`Instance.steps` (`ON_GRID_CALLERS`), which the environments and the
refinement optimum read.

Each instance is swept once: `core.sweep_pairs` is called only from the
functions in `SWEEP_CALLERS`, once in each.  The environment, the offline
optimum and `build_graph` read `Instance.pairs` instead.

The package re-exports exactly what it imports: ``__init__.py``'s imports
are its one export list, each imported name resolves on the package, and
``from querysort import *`` binds exactly those names, with no submodule.

Every error is raised: each `QuerysortError` subclass in ``errors.py`` has a
``raise`` site in the package, so no public error outlives its last use.

The package ships only what is used: every name it exports is read by
the code of another module (a docstring does not count), imported by the
acceptance tests, or named in a code span of ``README.md``.  So is every
public method and property of a package class: its name is read as an
attribute by the package's code outside its own body, by the acceptance
tests, or named in a code span of ``README.md``.  Test-only helpers live in
the tests that use them.

The source stays small: ``src/querysort/*.py`` totals at most
`SRC_LINE_BUDGET` lines, as ``wc -l`` counts them, so growth past it fails
here and raising it is a visible change.
"""

import ast
import re
import types
from pathlib import Path

import pytest

import querysort

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "querysort"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SRC_LINE_BUDGET = 3809


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


PAIR_PREDICATES = {"dependent", "dependent_pairs", "is_trivial", "singleton_witness_static", "singleton_witness_value"}


def pair_predicate(node):
    """The pair predicate a name, attribute or import names, or None."""
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)
    return name if name in PAIR_PREDICATES else None


def pair_predicate_sites(source):
    """``(line, name)`` for every name, attribute or import of a pair predicate."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source)) if (name := pair_predicate(node)))


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


def snapshot_sites(source):
    """``(line, what)`` for every import of `copy`, named or from, and every call of a
    ``copy`` or ``deepcopy``, by name or as an attribute."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            sites += [(node.lineno, "import copy") for alias in node.names if alias.name == "copy"]
        elif isinstance(node, ast.ImportFrom) and node.module == "copy":
            sites.append((node.lineno, "from copy"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("copy", "deepcopy"):
                sites.append((node.lineno, f"{name}()"))
    return sorted(sites)


def test_the_check_flags_a_state_snapshot():
    source = (
        "import copy, heapq\n"
        "from copy import deepcopy as dc\n"
        "def f(state, g):\n"
        "    twin = tuple(map(copy.copy, state)) + (copy.deepcopy(g), g.adj[0].copy(), dc(g))\n"
        "    return sorted(twin), heapq.heapify\n"
    )
    assert snapshot_sites(source) == [(1, "import copy"), (2, "from copy"), (4, "copy()"), (4, "deepcopy()")]


def test_online_snapshots_no_strategy_state():
    """The coin walk restores the environment by `Environment._rollback` alone, and each
    component walk builds its own state, so nothing in ``online.py`` copies a state."""
    assert snapshot_sites((SRC / "online.py").read_text()) == []


def repr_fields(source):
    """The line of every f-string field with a ``!r`` conversion."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"))


def test_the_check_flags_a_repr_field():
    source = (
        "def f(x, t):\n"
        "    if t:\n"
        "        raise ValueError(f'step {t!r} of {x!s}: {rational_text(t, repr)} {x!a}')\n"
        "    return '{x!r}', f'{x}', f'{x!r:>9}'\n"
    )
    assert repr_fields(source) == [3, 4]


@pytest.mark.parametrize("name", ["core.py", "graph.py", "online.py", "offline.py"])
def test_refusals_write_numbers_through_rational_text(name):
    assert repr_fields((SRC / name).read_text()) == []


def seed_sites(node):
    """``("Random", its first argument)`` for a ``Random(...)`` call, ``("checked", the names
    after the first)`` for a `_require_ints` call, or None."""
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        if name == "Random":
            return "Random", ast.unparse(node.args[0]) if node.args else ""
        if name == "_require_ints":
            return "checked", tuple(ast.unparse(arg) for arg in node.args[1:])
    return None


def unchecked_seeds(source):
    """``(function, line, seed)`` for every ``Random(seed)`` call whose function has not passed
    ``seed`` to `_require_ints` on an earlier line, and the number of ``Random`` calls."""
    sites = sites_by_function(ast.parse(source), seed_sites)
    draws = [(where, line, seed) for where, line, (kind, seed) in sites if kind == "Random"]
    return [(where, line, seed) for where, line, seed in draws
            if not any(w == where and at < line and kind == "checked" and seed in names
                       for w, at, (kind, names) in sites)], len(draws)


def test_the_check_flags_an_unchecked_seed():
    source = (
        "import random\n"
        "from random import Random\n"
        "def drawn(seed, n):\n"
        "    _require_ints('seed', seed)\n"
        "    return random.Random(seed)\n"
        "def late(seed):\n"
        "    rng = random.Random(seed)\n"
        "    _require_ints('seed', seed)\n"
        "def other(seed, n):\n"
        "    core._require_ints('n', n)\n"
        "    return Random(seed)\n"
        "def fresh():\n"
        "    return random.Random()\n"
        "class Coin:\n"
        "    def __init__(self, seed):\n"
        "        self.rng = random.Random(seed)\n"
    )
    assert unchecked_seeds(source) == (
        [("Coin.__init__", 16, "seed"), ("fresh", 13, ""), ("late", 7, "seed"), ("other", 11, "seed")], 5)


def test_every_seed_is_checked_before_it_is_drawn():
    found = [unchecked_seeds(path.read_text()) for path in MODULES]
    assert [site for sites, _ in found for site in sites] == []
    assert sum(draws for _, draws in found) == 4  # gen_random, gen_random_scripted, gen_laminar, RandomCoin


def pair_predicate_uses(source):
    """``(enclosing function, line, name)`` for every use of a pair predicate: a name or
    attribute anywhere, or an import that renames one (its uses then go by another name)."""
    return sites_by_function(ast.parse(source), lambda node: pair_predicate(node) if (
        not isinstance(node, ast.alias) or node.asname) else None)


def test_the_check_flags_a_new_offline_pair_predicate():
    source = (
        "from .core import dependent, singleton_witness_value as witness\n"
        "from . import core\n"
        "def brute_force_optimum(inst):\n"
        "    return dependent(1, 2, 0) and witness(1, 2, 0)\n"
        "def canonical_optimum(inst):\n"
        "    return core.dependent_pairs(inst.intervals, inst.delta)\n"
        "def oblivious_query_set(g, delta):\n"
        "    return {v for v in g.active_vertices() if not core.is_trivial(g.intervals[v], delta)}\n"
    )
    assert pair_predicate_uses(source) == [
        ("", 1, "singleton_witness_value"), ("brute_force_optimum", 4, "dependent"),
        ("canonical_optimum", 6, "dependent_pairs"), ("oblivious_query_set", 8, "is_trivial"),
    ]


def test_offline_leaves_pair_predicates_to_the_brute_force_oracle():
    uses = pair_predicate_uses((SRC / "offline.py").read_text())
    assert {where for where, _, _ in uses} == {"brute_force_optimum"}


def sites_by_function(tree, label):
    """``(enclosing function, line, label(node))`` for every node of ``tree`` that ``label``
    names (not None); the function is named with its class or enclosing function, as
    ``Class.method``."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if (what := label(child)) is not None:
                sites.append((where, child.lineno, what))
            visit(child, where)

    visit(tree, "")
    return sorted(sites)


def attribute_reads(source, attrs):
    """``(enclosing function, line, attribute)`` for every read of one of ``attrs``."""
    return sites_by_function(ast.parse(source), lambda node: node.attr if isinstance(node, ast.Attribute)
                             and node.attr in attrs else None)


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
    assert attribute_reads((SRC / "online.py").read_text(), {"lo", "hi"}) == []


def test_orderings_read_no_intervals():
    reads = attribute_reads((SRC / "graph.py").read_text(), {"intervals"})
    assert [site for site in reads if site[0] in ("peo_min_right", "longest_path_caterpillar")] == []


#: The per-query path: the ledger, the queries, the flushes and their witness loops,
#: and each play's step loop.  Money there is cost units (`Instance.cost_grid`).
PER_QUERY = {
    "QueryEnvironment._record", "Environment.query", "Environment._rollback", "CpcpEnvironment.query", "_flush",
    "_flush_value_witnesses.witnessed", "_preprocess_witnesses.witnessed",
    "_algorithm1_trial", "_algorithm2_trial", "algorithm3_cpcp", "algorithm3_cpcp.current_cost",
}


def money_sites(source):
    """``(enclosing function, line, what)`` for every ``Fraction(...)`` call and every
    ``.cost`` or ``.step_cost`` read, except a ``Fraction(...)`` passed straight to
    ``rule(...)``: a probability rule takes exact weights, and the per-query path may
    build them for it."""
    tree = ast.parse(source)
    rule_args = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "rule" for arg in node.args}

    def label(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                and id(node) not in rule_args):
            return "Fraction()"
        return f".{node.attr}" if isinstance(node, ast.Attribute) and node.attr in ("cost", "step_cost") else None

    return sites_by_function(tree, label)


def defined_functions(source):
    """Every function in ``source`` that holds a statement besides nested definitions,
    named as `sites_by_function` names them, and each class or module body that does."""
    statements = sites_by_function(ast.parse(source), lambda node: isinstance(node, ast.stmt) or None)
    return {where for where, _, _ in statements}


def test_the_check_flags_money_in_the_per_query_path():
    source = (
        "class Env:\n"
        "    def _record(self, i, charge):\n"
        "        self._spent += Fraction(charge)\n"
        "def _algorithm2_trial(env, rule, state):\n"
        "    w = env.instance.intervals[0].cost\n"
        "    return rule(Fraction(w), Fraction(1)), Fraction(w)\n"
        "def state(env):\n"
        "    return Fraction(env._paid, env._scale)\n"
        "def algorithm3_cpcp(env):\n"
        "    def current_cost(i):\n"
        "        return env.step_cost(i, 0)\n"
        "    return current_cost(0)\n"
    )
    assert money_sites(source) == [
        ("Env._record", 3, "Fraction()"), ("_algorithm2_trial", 5, ".cost"), ("_algorithm2_trial", 6, "Fraction()"),
        ("algorithm3_cpcp.current_cost", 11, ".step_cost"), ("state", 8, "Fraction()"),
    ]
    assert defined_functions(source) == {"Env._record", "_algorithm2_trial", "state", "algorithm3_cpcp",
                                         "algorithm3_cpcp.current_cost"}


def test_queries_and_plays_spend_cost_units():
    source = (SRC / "online.py").read_text()
    assert PER_QUERY <= defined_functions(source)
    assert [site for site in money_sites(source) if site[0] in PER_QUERY] == []


#: Each function that may build an interval without its checks, and why its fields passed them.
UNCHECKED_CALLERS = {
    ("core.py", "UncertainInterval.collapse"),  # after its own `contains` check
    ("core.py", "Instance.steps"),  # the instance's checked value, at its interval's cost
    ("online.py", "QueryEnvironment.state"),  # grid ends of checked numbers, at the item's checked cost
    ("instances.py", "gen_random"),  # lo <= hi half-grid indices, at a positive cost
}


def name_uses(source, name):
    """``(enclosing function, line, name)`` for every use of ``name`` but its
    definition and plain imports: a call, a name that could alias it, or an
    import that renames it (its uses then go by another name)."""
    return sites_by_function(ast.parse(source), lambda node: name if (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name and node.asname) else None)


def test_the_check_flags_a_new_unchecked_caller():
    source = (
        "from .core import _checked_already\n"
        "from . import core\n"
        "class Env:\n"
        "    def query(self, v):\n"
        "        return _checked_already(v, v, 1)\n"
        "def gen(x):\n"
        "    make = core._checked_already\n"
        "    return make(x, x, 1)\n"
        "def _checked_already(lo, hi, cost):\n"
        "    return lo\n"
        "def point(v):\n"
        "    from .core import _checked_already as unchecked\n"
        "    return unchecked(v, v, 1)\n"
    )
    assert name_uses(source, "_checked_already") == [("Env.query", 5, "_checked_already"),
                                                     ("gen", 7, "_checked_already"),
                                                     ("point", 12, "_checked_already")]


def test_unchecked_intervals_come_from_the_allow_list():
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where, _, _ in name_uses(path.read_text(), "_checked_already")}
    assert found == UNCHECKED_CALLERS


#: Each sweep for dependent pairs, one line per call, and what it sweeps.  An instance's own
#: intervals are swept once, in `Instance.pairs`, and every graph of them reads that.
SWEEP_CALLERS = [
    ("core.py", "Instance.pairs"),  # the instance's own intervals, kept
    ("core.py", "require_independent"),  # any items, on their own grid
    ("graph.py", "build_graph"),  # a knowledge state's current intervals
    ("offline.py", "feasible_query_set"),  # the intervals left once a set is revealed
]


def test_the_check_flags_a_new_sweep():
    source = (
        "from .core import sweep_pairs\n"
        "from . import core\n"
        "class QueryEnvironment:\n"
        "    def __init__(self, inst):\n"
        "        self.pairs = sweep_pairs(inst.grid.los, inst.grid.his, inst.grid.delta)\n"
        "def _unforced_graph(inst, forced):\n"
        "    return core.sweep_pairs(inst.grid.los, inst.grid.his, inst.grid.delta)\n"
        "def sweep_pairs(los, his, d):\n"
        "    return iter(())\n"
    )
    assert name_uses(source, "sweep_pairs") == [("QueryEnvironment.__init__", 5, "sweep_pairs"),
                                                ("_unforced_graph", 7, "sweep_pairs")]


def test_an_instance_is_swept_once():
    found = sorted((path.name, where) for path in sorted(SRC.glob("*.py"))
                   for where, _, _ in name_uses(path.read_text(), "sweep_pairs"))
    assert found == SWEEP_CALLERS


#: Each function that puts a number on a grid with `core.on_grid`, which checks that it fits.
#: The refinement steps go on the grids once per instance, and every reader takes that table.
ON_GRID_CALLERS = {("core.py", "Instance.steps")}


def test_the_check_flags_a_new_grid_conversion():
    source = (
        "from .core import on_grid\n"
        "from . import core\n"
        "class CpcpEnvironment:\n"
        "    def __init__(self, inst):\n"
        "        self.lo = on_grid(inst.refinements[0][0].lo, inst.grid.scale)\n"
        "def cpcp_brute_force_optimum(inst):\n"
        "    return core.on_grid(inst.time_costs[0][0], inst.cost_grid[0])\n"
    )
    assert name_uses(source, "on_grid") == [("CpcpEnvironment.__init__", 5, "on_grid"),
                                            ("cpcp_brute_force_optimum", 7, "on_grid")]


def test_refinement_steps_go_on_the_grid_once():
    found = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where, _, _ in name_uses(path.read_text(), "on_grid")}
    assert found == ON_GRID_CALLERS


def test_init_reexports_what_it_imports():
    imported = {name for name, _ in imported_names(ast.parse((SRC / "__init__.py").read_text())) if name[0] != "_"}
    assert sorted(name for name in imported if not hasattr(querysort, name)) == []
    star: dict = {}
    exec("from querysort import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(imported) == querysort.__all__
    assert [name for name, value in star.items() if isinstance(value, types.ModuleType)] == []


def names_in_code(source):
    """Every name the code of ``source`` reads, as a name or an attribute, outside the
    top-level function or class that defines that same name."""
    names = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name != owner and isinstance(node.ctx, ast.Load):
                names.add(name)
    return names


def package_imports(source):
    """The names ``source`` imports from the package."""
    return {alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "querysort" for alias in node.names}


def code_span_names(markdown):
    """Every identifier inside a code span or fenced block of ``markdown``."""
    return {word for span in re.findall(r"```.*?```|`[^`]+`", markdown, re.S) for word in re.findall(r"\w+", span)}


def unused_exports(exports, sources, acceptance, readme):
    """The names of ``exports`` that no module of ``sources`` reads in its code, that
    ``acceptance`` does not import, and that ``readme`` does not name in code."""
    used = set().union(*map(names_in_code, sources)) | package_imports(acceptance) | code_span_names(readme)
    return sorted(set(exports) - used)


def test_the_check_flags_an_unused_export():
    sources = [
        "from .core import dependent\n"
        "def shrink(inst):\n"
        "    'Like dependent_pairs, but smaller.'\n"
        "    return shrink(inst)\n"
        "Scalar = Fraction\n"
        "def pairs(items):\n"
        "    return [dependent(a, b) for a, b in items], core.sweep\n",
    ]
    acceptance = "from querysort import search\nfrom querysort.graph import walk\n"
    readme = "The `build` step, then `cover(g)`; shrink and order\n```python\nfrom querysort import order\n```\n"
    exports = ["Scalar", "build", "cover", "dependent", "dependent_pairs", "order", "pairs", "search", "shrink",
               "sweep", "walk"]
    assert unused_exports(exports, sources, acceptance, readme) == ["Scalar", "dependent_pairs", "pairs", "shrink"]


def test_every_export_is_used_or_documented():
    sources = [path.read_text() for path in MODULES]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    readme = (ROOT / "README.md").read_text()
    assert unused_exports(querysort.__all__, sources, acceptance, readme) == []


def error_classes(source):
    """The classes ``source`` defines that derive from `QuerysortError`, directly or
    through another class it defines; the base itself is left out."""
    errors = {"QuerysortError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(getattr(base, "id", None) in errors for base in node.bases):
            errors.add(node.name)
    return errors - {"QuerysortError"}


def raised_names(source):
    """The name of every exception a ``raise`` statement names, called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def never_raised(errors, sources):
    """The error classes of ``errors`` that no module of ``sources`` raises, sorted."""
    return sorted(error_classes(errors) - set().union(*map(raised_names, sources)))


def test_the_check_flags_an_error_never_raised():
    errors = (
        "class QuerysortError(Exception):\n    pass\n"
        "class Bad(QuerysortError):\n    pass\n"
        "class Worse(Bad):\n    pass\n"
        "class Unused(QuerysortError):\n    pass\n"
        "class Other(Exception):\n    pass\n"
    )
    sources = [
        "from .errors import Bad, Unused\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise Bad(f'bad {x}')\n"
        "    raise errors.Worse from None\n"
        "def g():\n"
        "    return Unused('made, never raised')\n",
    ]
    assert never_raised(errors, sources) == ["Unused"]


def test_every_error_is_raised():
    assert never_raised((SRC / "errors.py").read_text(), [path.read_text() for path in MODULES]) == []


def public_members(source):
    """``Class.name`` for every public method and property of the top-level classes of ``source``."""
    return {f"{top.name}.{node.name}" for top in ast.parse(source).body if isinstance(top, ast.ClassDef)
            for node in top.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def attributes_read(source):
    """Every attribute the code of ``source`` reads, outside a function of that same name."""
    sites = sites_by_function(ast.parse(source), lambda node: node.attr if isinstance(node, ast.Attribute)
                              and isinstance(node.ctx, ast.Load) else None)
    return {attr for where, _, attr in sites if attr not in where.split(".")}


def unused_members(sources, acceptance, readme):
    """The public members of the classes of ``sources`` whose name no module of ``sources``
    reads as an attribute, ``acceptance`` does not read, and ``readme`` does not name in code."""
    used = set().union(*map(attributes_read, sources + [acceptance])) | code_span_names(readme)
    return sorted(m for m in set().union(*map(public_members, sources)) if m.split(".")[1] not in used)


def test_the_check_flags_an_unused_member():
    sources = [
        "class Env:\n"
        "    def query(self, i):\n"
        "        return self.query(i - 1) if i else 0\n"
        "    @property\n"
        "    def n(self):\n"
        "        return 1\n"
        "    def _fork(self):\n"
        "        return self\n"
        "    def times(self, i):\n"
        "        return i\n"
        "def run(env):\n"
        "    env.seed = 3\n"
        "    return env.n\n",
        "class Graph:\n"
        "    def degree(self, v):\n"
        "        'Like has_edge.'\n"
        "        return v\n"
        "    def has_edge(self, u, v):\n"
        "        return u\n"
        "    def seed(self):\n"
        "        return 0\n",
    ]
    acceptance = "def test(env):\n    assert env.times(0) == 0\n"
    readme = "Each `g.has_edge(u, v)` is a pair; degree and query are words.\n"
    assert unused_members(sources, acceptance, readme) == ["Env.query", "Graph.degree", "Graph.seed"]


def test_every_public_member_is_used_or_documented():
    sources = [path.read_text() for path in MODULES]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    readme = (ROOT / "README.md").read_text()
    assert unused_members(sources, acceptance, readme) == []


def test_the_source_stays_within_its_line_budget():
    lines = {path.name: path.read_bytes().count(b"\n") for path in SRC.glob("*.py")}
    assert sum(lines.values()) <= SRC_LINE_BUDGET, lines
