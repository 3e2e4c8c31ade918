"""Mutation sample: flip one operator or constant inside named functions and
run the tier-1 tests against each mutant.

    python tests/mutation_sample.py src/swedge/designs.py:parse_design,_read_rows \\
        src/swedge/variance.py:_evaluate [--first tests/test_designs.py] [--workdir DIR]

Each mutant changes one thing inside one of the named functions, nested
functions included: a comparison operator, an arithmetic or bitwise
operator (augmented assignments too), ``and`` into ``or`` or back, a
dropped ``not`` (``not x`` becomes ``not not x``, the truth of ``x``), or
an int constant of at most 16 in magnitude.  Each named function that
gives no mutant is printed first.  The repository is copied into a new
directory under ``--workdir`` (the system's temporary directory by
default) and every mutant is written to that copy, never to the
repository.  The copy's module is rewritten with ``ast.unparse``, so the
tests first run once on the unparsed, unmutated module; then they run
under ``-x`` for each mutant, the ``--first`` files ahead of the rest,
and a mutant they pass is printed as a survivor.  A run that outlives
three times the unmutated run is stopped and counted as killed.  The
file is not named ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each operator and the one it becomes
COMPARISONS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
               ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
               ast.In: ast.NotIn, ast.NotIn: ast.In}
OPERATORS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.Div: ast.Mult,
             ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
             ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr,
             ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And}


def _functions(tree: ast.Module, names: set[str]) -> list[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names]


def _sites(tree: ast.Module, names: set[str]) -> list[tuple]:
    """``(node, slot, description)`` for every mutation inside the named
    functions, in a fixed order: the same for every parse of one source."""
    sites, seen = [], set()
    for function in _functions(tree, names):  # its body: not its annotations or defaults
        for node in (node for statement in function.body for node in ast.walk(statement)):
            if id(node) in seen:  # in a nested function named with its outer one
                continue
            seen.add(id(node))
            where = f"{function.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Compare):
                for k, op in enumerate(node.ops):
                    new = COMPARISONS[type(op)]
                    sites.append((node, k, f"{where} {type(op).__name__} -> {new.__name__}"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                    and type(node.op) in OPERATORS:
                new = OPERATORS[type(node.op)]
                sites.append((node, None, f"{where} {type(node.op).__name__} -> {new.__name__}"))
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                sites.append((node, None, f"{where} Not -> drop"))
            elif isinstance(node, ast.Constant) and type(node.value) is int \
                    and abs(node.value) <= 16:
                new = node.value - 1 if node.value > 0 else node.value + 1
                sites.append((node, None, f"{where} {node.value} -> {new}"))
    return sites


def _mutate(node: ast.AST, slot) -> None:
    if isinstance(node, ast.Compare):
        node.ops[slot] = COMPARISONS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value = node.value - 1 if node.value > 0 else node.value + 1
    elif isinstance(node, ast.UnaryOp):
        node.operand = ast.UnaryOp(ast.Not(), node.operand)
    else:
        node.op = OPERATORS[type(node.op)]()


def _run_tests(copy: Path, first: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether tier-1 passes in ``copy``, and the seconds it took; a run
    stopped at ``timeout`` fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", *first, "tests", "perfbench"]
    start = time.monotonic()
    # a session of its own, so a stopped run takes the processes it started with it
    with subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as run:
        try:
            status = run.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            status = None
    return status == 0, time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", metavar="FILE:FUNCTION[,FUNCTION...]",
                        help="a module under the repository and the functions to mutate in it")
    parser.add_argument("--first", action="append", default=[], metavar="TEST_FILE",
                        help="a test file to run ahead of the rest (repeatable)")
    parser.add_argument("--workdir", help="where to make the copy of the repository")
    args = parser.parse_args(argv)

    copy = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir)) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", ".hypothesis", "__pycache__", ".pytest_cache", ".perfbench_out"))
    targets = []
    for target in args.targets:
        path, _, names = target.partition(":")
        source = (ROOT / path).read_text()
        names = set(names.split(","))
        found = {f.name for f in _functions(ast.parse(source), names)}
        if found != names:
            parser.error(f"{path} has no function {', '.join(sorted(names - found))}")
        targets.append((copy / path, source, names))
        for name in sorted(names):
            if not _sites(ast.parse(source), {name}):
                print(f"no mutant in {path}:{name}", flush=True)
        (copy / path).write_text(ast.unparse(ast.parse(source)) + "\n")

    passed, seconds = _run_tests(copy, args.first, None)
    if not passed:
        print(f"the tests fail on the unmutated, unparsed copy in {copy}", file=sys.stderr)
        return 1
    print(f"unmutated: passed in {seconds:.1f} s", flush=True)
    mutants, survivors = 0, []
    for path, source, names in targets:
        for k in range(len(_sites(ast.parse(source), names))):
            tree = ast.parse(source)
            node, slot, description = _sites(tree, names)[k]
            _mutate(node, slot)
            path.write_text(ast.unparse(tree) + "\n")
            killed = not _run_tests(copy, args.first, 3 * seconds)[0]
            mutants += 1
            print(f"{'killed ' if killed else 'SURVIVED'} {path.name} {description}", flush=True)
            if not killed:
                survivors.append(f"{path.name} {description}")
        path.write_text(ast.unparse(ast.parse(source)) + "\n")
    print(f"{mutants} mutants, {len(survivors)} survived")
    for survivor in survivors:
        print(f"  {survivor}")
    shutil.rmtree(copy.parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
