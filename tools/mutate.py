"""Mutation testing: swap one operator per mutant and see whether the tests notice.

    python tools/mutate.py --module extension [--sample N] [--seed S]

The operator sites of ``src/ilkit/<module>.py`` are its comparisons,
arithmetic and bit operators (augmented assignments too), ``and``/``or``,
and each ``not`` and ``~``.  A mutant swaps one site (``<`` for ``<=``,
``&`` for ``|``, drops a ``not``, ...; see ``SWAPS``); ``--sample N`` takes
N sites chosen by ``random.Random(seed)``, else every site is a mutant.
Each mutant is written over the module in a temporary copy of ``src`` and
``tests`` and the module's test files (``TESTS``, by default
``tests/test_<module>.py``) run there with ``pytest -x``, one process at a
time.  A mutant is killed when the tests fail or outrun the per-mutant
timeout, ten times the unmutated run (at least 30 s).  The tree itself is
never written.

Each survivor is printed with its line and swap.  Survivors listed in
``EQUIVALENT`` behave exactly like the original, for the reason given there;
the exit code is 1 when any other mutant survives, else 0.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}
DROPPED = (ast.Not, ast.Invert)   # ``not x`` and ``~x`` become ``x``

# module -> the test files its mutants run
TESTS = {"frameio": ["tests/test_frameio.py", "tests/test_cli.py"]}

# (module, stripped source line, swap) -> why the mutant behaves like the original
EQUIVALENT = {
    ("frames", "return 0 <= w < self.n and bool(self.mask >> w & 1)", "Lt -> LtE"):
        "bit n of a mask over n worlds is always 0",
}


def sites(tree):
    """Every swappable operator node of ``tree``, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                found.append((node, None))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, DROPPED):
            found.append((node, None))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


class _Drop(ast.NodeTransformer):
    """Replaces one ``not x`` or ``~x`` node by its operand."""

    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        return node.operand if node is self.target else self.generic_visit(node)


def mutant(source, index):
    """The source with site ``index`` swapped, its line and the swap's name."""
    tree = ast.parse(source)
    node, k = sites(tree)[index]
    if isinstance(node, ast.UnaryOp):
        swap = f"drop {type(node.op).__name__}"
        tree = _Drop(node).visit(tree)
    else:
        old = node.ops[k] if k is not None else node.op
        new = SWAPS[type(old)]()
        if k is not None:
            node.ops[k] = new
        else:
            node.op = new
        swap = f"{type(old).__name__} -> {type(new).__name__}"
    return ast.unparse(tree), node.lineno, swap


def _pytest(work, tests, timeout):
    """True when the tests pass in ``work`` within ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run(tree, module, tests, sample=None, seed=0):
    """Mutants of the file ``module`` (relative to ``tree``), each against the
    test files ``tests``, in a temporary copy; returns the survivors as
    ``(line, source line, swap)``, the known equivalent ones left out."""
    tree = Path(tree)
    source = (tree / module).read_text()
    lines = source.splitlines()
    count = len(sites(ast.parse(source)))
    picked = range(count) if sample is None else sorted(
        random.Random(seed).sample(range(count), min(sample, count)))
    name = Path(module).stem
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(tree / part, work / part, ignore=ignore)
        # the unmutated module goes through ``ast.unparse`` too, as every mutant does
        (work / module).write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        if not _pytest(work, tests, None):
            raise SystemExit(f"the tests fail on the unmutated {module}")
        timeout = max(30.0, 10 * (time.perf_counter() - start))
        print(f"{name}: {len(picked)} of {count} sites, timeout {timeout:.0f} s")
        for index in picked:
            text, lineno, swap = mutant(source, index)
            (work / module).write_text(text)
            killed = not _pytest(work, tests, timeout)
            line = lines[lineno - 1].strip()
            why = EQUIVALENT.get((name, line, swap))
            verdict = "killed" if killed else "equivalent" if why else "SURVIVED"
            print(f"  {verdict:10} {module}:{lineno} {swap}: {line}")
            if not killed and not why:
                survivors.append((lineno, line, swap))
    print(f"{name}: {len(survivors)} unexplained survivors")
    return survivors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", required=True, help="a module of src/ilkit, e.g. frames")
    parser.add_argument("--sample", type=int, help="mutate this many sites, not all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample")
    args = parser.parse_args(argv)
    tests = TESTS.get(args.module, [f"tests/test_{args.module}.py"])
    survivors = run(ROOT, f"src/ilkit/{args.module}.py", tests, args.sample, args.seed)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
