"""Source checks: no module in meyniel imports a name that it never reads,
and the verifiers in `certify` import nothing of the solver."""

import ast
import pathlib

import pytest

import meyniel

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
