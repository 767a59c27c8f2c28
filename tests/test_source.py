"""Source checks: no module in meyniel imports a name that it never reads,
every name the bench wraps exists, the verifiers in `certify` import
nothing of the solver, only `graph` calls the `Graph` constructor, and the
package needs no Python newer than the one pyproject.toml declares."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import meyniel
from meyniel.graph import Graph, _canonical, _kept_lines

PACKAGE = pathlib.Path(meyniel.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Imported and never read, on purpose: bench/tracing.py wraps these
# bindings by name, so they stay until the bench can do without them.
KEPT_FOR_BENCH = {("app", "parse"), ("obstruction", "verify_obstruction")}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names a module binds by import (`__future__` aside) and never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def test_no_unused_imports():
    found = {(name, imp) for name in MODULES for imp in unused_imports(module_tree(name))}
    assert found == KEPT_FOR_BENCH


def bench_bindings() -> set[tuple[str, str]]:
    """The (module, attribute) pairs in bench/tracing.py's `_SOLVER_BINDINGS`, read from its source."""
    path = PACKAGE.parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_SOLVER_BINDINGS"])
    return {(mod, attr) for mod, attr, _ in ast.literal_eval(value)}


def test_every_name_the_bench_wraps_exists():
    bindings = bench_bindings()
    for mod, attr in bindings:
        assert hasattr(importlib.import_module(f"meyniel.{mod}"), attr), (mod, attr)
    assert hasattr(Graph, "subgraph")
    assert KEPT_FOR_BENCH <= bindings


@pytest.mark.parametrize("name, module", [
    ("GraphInputError", "graph"),
    ("CertificateFormatError", "certify"),
])
def test_catches_a_leftover_import_in_app(name, module):
    """`app` importing `name` with every read of it gone is caught."""
    tree = module_tree("app")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1:
            if name not in {a.name for a in node.names}:
                node.names.append(ast.alias(name=name))
        elif isinstance(node, ast.Name) and node.id == name:
            node.id = "ValueError"
    assert unused_imports(tree) == {"parse", name}


# The one deliberate duplication: the verifiers share no code with the
# procedures that build the certificates (nor with the CLI around them).
SOLVER_MODULES = {"obstruction", "lexcolor", "clique", "app"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The `meyniel` modules a module imports, by any form of import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("meyniel"):
                continue
            base = (node.module or "").removeprefix("meyniel").lstrip(".")
            names = [base] if base else [a.name for a in node.names]
        else:
            continue
        found.update(name.removeprefix("meyniel.").split(".")[0] for name in names)
    return found & set(MODULES)


def test_certify_imports_nothing_of_the_solver():
    assert not imported_modules(module_tree("certify")) & SOLVER_MODULES


@pytest.mark.parametrize("planted", [
    "from .obstruction import extract_obstruction",
    "from . import lexcolor",
    "from meyniel.clique import greedy_clique",
    "import meyniel.app",
])
def test_catches_a_solver_import_in_certify(planted):
    tree = module_tree("certify")
    tree.body[:0] = ast.parse(planted).body
    assert imported_modules(tree) & SOLVER_MODULES


def graph_constructions(tree: ast.Module) -> int:
    """How many calls of `Graph(...)` or `<module>.Graph(...)` a module makes."""
    return sum(isinstance(node, ast.Call)
               and "Graph" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(tree))


def test_only_graph_calls_the_graph_constructor():
    """Every Graph is built in `graph`, the one place that keeps it a whole graph."""
    assert {name for name in MODULES if graph_constructions(module_tree(name))} == {"graph"}


@pytest.mark.parametrize("planted", ["Graph(((),))", "graph.Graph(nbrs)"])
def test_catches_a_graph_built_outside_graph(planted):
    tree = module_tree("certify")
    tree.body.extend(ast.parse(planted).body)
    assert graph_constructions(tree)


def test_graph_and_gen_import_only_what_they_build_on():
    """`graph` builds on `record` at most, and `gen` on `graph` and `record` only."""
    assert imported_modules(module_tree("graph")) <= {"record"}
    assert imported_modules(module_tree("gen")) == {"graph", "record"}


def lowest_python() -> tuple[int, int]:
    """The lowest Python that pyproject.toml declares, as (major, minor)."""
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_sources_parse_on_the_lowest_declared_python():
    for name in MODULES:
        ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"), feature_version=lowest_python())


def test_plain_patterns_compile_on_the_lowest_declared_python():
    """Possessive quantifiers and atomic groups came to `re` in 3.11; before, they fail to compile."""
    if lowest_python() >= (3, 11):
        pytest.skip("the declared Python has the 3.11 regex syntax")
    patterns = [_canonical(n).pattern for n in (0, 1, 9, 10, 998, 2000, 99_999, sys.maxsize)]
    patterns += [_kept_lines({t: 0 for t in tokens}).pattern for tokens in ([], ["5"], ["5", "57", "571"])]
    for pattern in patterns:
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern
