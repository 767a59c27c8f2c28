"""Mutation testing of `meyniel.certify`'s verifiers, `load` and `decode`.

    python3 scripts/mutants.py --list
    python3 scripts/mutants.py -- tests/test_certify.py tests/test_acceptance.py \\
        tests/test_app.py --deselect tests/test_acceptance.py::test_near_linear_scaling
    python3 scripts/mutants.py --only 12,40 -- tests/test_certify.py

Makes one mutant per site of five operators in the functions `FUNCTIONS`
of `src/meyniel/certify.py`: a comparison swapped for its partner (`<`
and `<=`, `>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and
`is not`), `and` and `or` swapped, an integer constant plus one, an `if`
test negated, and `return _bad(...)` made `return _ok()`.

Copies the source tree above this script to a temporary directory, and
first checks that the pytest arguments given after "--" pass there with
`certify.py` rewritten by `ast.unparse` but not mutated.  Then it writes
each mutant over the copy's `certify.py` in turn and runs
`python3 -m pytest -x -q -p no:cacheprovider ARGS` in the copy, with
the copy's `src` on PYTHONPATH, no bytecode written, and no Hypothesis
database kept from one mutant to the next.  A mutant is killed when pytest fails or runs past
TIMEOUT seconds.  Prints one line per mutant, then the score and
each survivor's line.  A full run takes minutes: the tier-1 suite runs
only a smoke test of this script.
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("src", "meyniel", "certify.py")
FUNCTIONS = {"verify_coloring", "verify_clique", "verify_optimal_pair", "verify_obstruction",
             "verify_nice_order", "load", "decode"}
TIMEOUT = 600  # seconds; a mutant that loops forever counts as killed
PARTNER = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def sites(tree: ast.Module):
    """(function, node, operator, op index) for every mutation site, in an order fixed by the source."""
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name in FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                for i in range(len(node.ops)):
                    yield func.name, node, "compare", i
            elif isinstance(node, ast.BoolOp):
                yield func.name, node, "andor", None
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield func.name, node, "int", None
            elif isinstance(node, ast.If):
                yield func.name, node, "if", None
            elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "_bad"):
                yield func.name, node, "ok", None


def mutate(node: ast.AST, operator: str, i) -> str:
    """Apply one operator to `node` in place; return what it changed."""
    if operator == "compare":
        old = node.ops[i]
        node.ops[i] = PARTNER[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[i]).__name__}"
    if operator == "andor":
        old = node.op
        node.op = ast.Or() if isinstance(old, ast.And) else ast.And()
        return f"{type(old).__name__} -> {type(node.op).__name__}"
    if operator == "int":
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if operator == "if":
        node.test = ast.UnaryOp(ast.Not(), node.test)
        return "if -> if not"
    node.value = ast.Call(ast.Name("_ok", ast.Load()), [], [])
    return "_bad -> _ok"


def mutants(source: str) -> list[tuple[str, str]]:
    """(description, mutated source) of every mutant, numbered from 1 by position in the list."""
    lines = source.splitlines()
    made = []
    for k in range(len(list(sites(ast.parse(source))))):
        tree = ast.parse(source)
        func, node, operator, i = list(sites(tree))[k]
        change = mutate(node, operator, i)
        where = f"certify.py:{node.lineno}:{node.col_offset}"
        made.append((f"{where} {func} {change}: {lines[node.lineno - 1].strip()}",
                     ast.unparse(ast.fix_missing_locations(tree))))
    return made


def passes(tree: str, source: str, pytest_args: list[str]) -> bool:
    """Whether the pytest run passes in `tree` with `source` as its certify.py."""
    with open(os.path.join(tree, TARGET), "w", encoding="utf-8") as fh:
        fh.write(source)
    shutil.rmtree(os.path.join(tree, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args],
                            cwd=tree, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:  # kill the run with every child it made
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(
        usage="%(prog)s [--list] [--only K[,K...]] [-- PYTEST_ARGS]",
        description="Mutate meyniel.certify's verifiers, load and decode, and run pytest on each mutant.")
    ap.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    ap.add_argument("--only", type=lambda text: {int(k) for k in text.split(",")}, metavar="K[,K...]",
                    help="run only these mutants, numbered as --list prints them")
    opts, pytest_args = ap.parse_args(argv[:cut]), argv[cut + 1:]
    with open(os.path.join(ROOT, TARGET), encoding="utf-8") as fh:
        source = fh.read()
    made = mutants(source)
    chosen = [k for k in range(1, len(made) + 1) if opts.only is None or k in opts.only]
    if opts.list:
        for k in chosen:
            print(f"#{k} {made[k - 1][0]}")
        return 0
    if not pytest_args:
        ap.error("give the pytest arguments after --")
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".bench_work")
        shutil.copytree(ROOT, tree, ignore=skip)
        if not passes(tree, ast.unparse(ast.parse(source)), pytest_args):
            print("the tests fail on the unmutated source: no score", file=sys.stderr)
            return 2
        survivors = []
        for k in chosen:
            what, mutant = made[k - 1]
            survived = passes(tree, mutant, pytest_args)
            print(f"#{k} {'survived' if survived else 'killed'} {what}", flush=True)
            if survived:
                survivors.append(f"#{k} {what}")
    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)} mutants")
    for line in survivors:
        print(f"survivor {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
