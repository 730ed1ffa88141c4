"""Every imported name is used, and every module-level function and class of
the package is used somewhere else: no dead import, no dead definition.  A
definition that only the tests reach is listed in TEST_ONLY.  The solver's
modules load neither numpy, mpmath nor the analytic toolkit of the CLI
chain.  Every function the benchmark's spans wrap still resolves."""

import ast
import importlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fracparts").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# package definitions that no code under src/ or perfbench/ refers to: each
# is reached only from the tests, and is a candidate to move into them
TEST_ONLY = {"phi", "smoothed_count", "emit_system"}


def unused_imports(source: str):
    """(line, name) of each imported name that no ast.Name refers to."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import math\nfrom fractions import Fraction\nx = Fraction(1)\n"
    assert unused_imports(source) == [(1, "math")]


def orphaned_definitions(sources: dict, defining) -> list:
    """(file, name) of each module-level function or class in the files named
    by `defining` that no code in `sources` refers to outside its own body."""
    refs, defs = set(), []
    for file, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if file in defining:
                    defs.append((file, own))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None and name != own:
                    refs.add(name)
    return [d for d in defs if d[1] not in refs]


def test_no_orphaned_definitions():
    sources = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in FILES}
    package = {f"{p.parent.name}/{p.name}" for p in PACKAGE}
    assert orphaned_definitions(sources, package) == []


def test_scan_finds_an_orphaned_definition():
    sources = {"a.py": "def used():\n    pass\n\n\ndef orphan(n):\n    return orphan(n)\n",
               "b.py": "from a import used\nused()\n"}
    assert orphaned_definitions(sources, {"a.py"}) == [("a.py", "orphan")]


def test_only_tests_reach_test_only():
    """Without the tests' files, the orphaned package definitions are TEST_ONLY."""
    sources = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
               for p in PACKAGE + PERFBENCH}
    package = {f"{p.parent.name}/{p.name}" for p in PACKAGE}
    assert {name for _file, name in orphaned_definitions(sources, package)} == TEST_ONLY


def test_scan_finds_a_test_only_definition():
    sources = {"src/a.py": "def solve():\n    pass\n\n\ndef helper():\n    pass\n",
               "perfbench/run.py": "from a import solve\nsolve()\n",
               "tests/t.py": "from a import helper\nhelper()\n"}
    package = {"src/a.py"}
    assert orphaned_definitions(sources, package) == []
    without_tests = {f: src for f, src in sources.items() if not f.startswith("tests/")}
    assert orphaned_definitions(without_tests, package) == [("src/a.py", "helper")]


# what solve, replay, serialization and the exponent harness import
SOLVER = ["fracparts." + m for m in
          ("core", "intlinalg", "latgeom", "reduction", "expsum", "driver", "serialize")]
OFF_LIMITS = ["numpy", "mpmath", "fracparts.diophantine", "fracparts.denomstruct", "fracparts.cli"]


def loaded_off_limits(modules, off_limits=OFF_LIMITS) -> list:
    """The off_limits modules loaded by importing `modules` in a fresh interpreter."""
    code = ("import importlib, sys\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            f"print(*[m for m in {off_limits!r} if m in sys.modules])")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_solver_loads_no_toolkit():
    assert loaded_off_limits(SOLVER) == []


def test_guard_flags_the_cli():
    # the CLI loads the whole package; mpmath is a test dependency only
    assert loaded_off_limits(["fracparts.cli"]) == [m for m in OFF_LIMITS if m != "mpmath"]


def test_readers_sit_below_serialize():
    # serialize calls the record readers of core and reduction, so neither
    # may import it back
    assert loaded_off_limits(["fracparts.core", "fracparts.reduction"],
                             ["fracparts.serialize"]) == []


# the (module, attr) targets of perfbench/spans.py's WRAPS that resolve.
# spans.py skips a target that does not resolve without a word, so its span
# and counts would drop out of the per-layer metrics; a change that retires
# or adds one edits this list.
WRAPPED = {
    ("fracparts.expsum", "hit_count"),
    ("fracparts.driver", "first_hit"),
    ("fracparts.driver", "_checkpointed_min"),
    ("fracparts.driver", "quasi_orthogonal_generators"),
    ("fracparts.driver", "reduce_dimension"),
    ("fracparts.driver", "lift_solution"),
    ("fracparts.driver", "density_invariant"),
    ("fracparts.diophantine", "best_rational"),
    ("fracparts.latgeom", "reduce_basis"),
    ("fracparts.latgeom", "det_bareiss"),
    ("fracparts.latgeom", "kernel_columns"),
    ("fracparts.latgeom", "lattice_det_from_columns"),
    ("fracparts.reduction", "verify_certificate"),
    ("fracparts.reduction", "solve_integer"),
    ("fracparts.serialize", "certificate_bytes"),
}


def wrap_targets(source: str) -> list:
    """(module, attr) of each WRAPS entry in a spans.py source, read with ast:
    the listed tuples, and the comprehensions over literal tuples."""
    assigned = {stmt.targets[0].id: stmt.value for stmt in ast.parse(source).body
                if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name)}

    def literal(node):
        return ast.literal_eval(assigned[node.id] if isinstance(node, ast.Name) else node)

    targets = []
    for node in ast.walk(assigned["WRAPS"]):
        if isinstance(node, ast.List):
            targets += [(literal(e.elts[0]), literal(e.elts[1])) for e in node.elts]
        elif isinstance(node, ast.ListComp):
            names = [gen.target.id for gen in node.generators]
            for values in product(*(literal(gen.iter) for gen in node.generators)):
                bound = dict(zip(names, values))
                targets.append(tuple(bound[e.id] for e in node.elt.elts[:2]))
    return targets


def test_benchmark_spans_resolve():
    targets = wrap_targets((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    assert {(module, attr) for module, attr in targets
            if hasattr(importlib.import_module(module), attr)} == WRAPPED


def test_scan_reads_wrap_targets():
    source = ('NAMES = ("f", "g")\n'
              'WRAPS = [("m", "a", "m.a", None), ("m", "b", "m.b", note)] + [\n'
              '    (mod, fn, "x", None) for mod in ("p", "q") for fn in NAMES]\n')
    assert wrap_targets(source) == [("m", "a"), ("m", "b"), ("p", "f"), ("p", "g"),
                                    ("q", "f"), ("q", "g")]
