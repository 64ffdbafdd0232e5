#!/usr/bin/env python3
"""Mutation sweep over one module, against the tests that should catch it.

    python3 tools/mutate.py src/resistwalk/graphs.py tests/test_graphs.py
    python3 tools/mutate.py src/resistwalk/resistance.py tests/test_resistance.py \\
        --workdir /var/tmp

The source tree is copied into a fresh directory under --workdir (the
system temp directory by default), and the named pytest arguments run there
once on the unchanged copy, where they must pass, then once per mutant.
Each mutant changes one place of the module in the copy:

- flip: one comparison operator replaced by its negation (< by >=, == by !=,
  in by not in, is by is not);
- removed: the condition of an `if` whose body raises replaced by False;
- inverted: that condition replaced by its negation.

A mutant survives when the tests still pass; one that makes them run past
TIMEOUT_S seconds (a flipped loop bound can hang them) counts as killed.  Survivors are printed with their line, the
original source and the mutated one, and the exit status is 1 if any
survived.  The checkout itself is never written.  Only the standard
library is used; pytest must be importable by the interpreter that runs it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600.0  # per test run

NEGATED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def _raising_ifs(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)]


def _comparisons(tree):
    return [(node, k) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for k in range(len(node.ops))]


def mutants(source: str):
    """(line, kind, original text, mutated module source) for every mutant.
    Each is made on a fresh parse, so exactly one place differs."""
    out = []
    for i, (node, k) in enumerate(_comparisons(ast.parse(source))):
        tree = ast.parse(source)
        node, k = _comparisons(tree)[i]
        before = ast.get_source_segment(source, node)
        node.ops[k] = NEGATED[type(node.ops[k])]()
        out.append((node.lineno, "flip", before, ast.unparse(node), ast.unparse(tree)))
    for i, node in enumerate(_raising_ifs(ast.parse(source))):
        for kind in ("removed", "inverted"):
            tree = ast.parse(source)
            node = _raising_ifs(tree)[i]
            before = ast.get_source_segment(source, node.test)
            node.test = (ast.Constant(False) if kind == "removed"
                         else ast.UnaryOp(op=ast.Not(), operand=node.test))
            out.append((node.lineno, kind, before, ast.unparse(node.test), ast.unparse(tree)))
    return sorted(out, key=lambda m: (m[0], m[1]))


def run_tests(copy: Path, tests):
    """True if the tests pass in the copy, False if they fail or time out."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="module to mutate, relative to the repository root")
    ap.add_argument("tests", nargs="+", help="pytest arguments (test files or node ids)")
    ap.add_argument("--workdir", default=None, help="where the copy is made")
    args = ap.parse_args(argv)

    source = (ROOT / args.module).read_text()
    found = mutants(source)
    with tempfile.TemporaryDirectory(prefix="mutate-", dir=args.workdir) as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work"))
        target = copy / args.module
        if not run_tests(copy, args.tests):
            print("the tests fail on the unchanged copy; no mutant was run")
            return 2
        survivors = []
        for n, (line, kind, before, after, mutated) in enumerate(found, 1):
            target.write_text(mutated)
            killed = not run_tests(copy, args.tests)
            print(f"[{n}/{len(found)}] {args.module}:{line} {kind}: "
                  f"{before!s} -> {after!s}: {'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append((line, kind, before, after))
        target.write_text(source)
    print(f"\n{len(found)} mutants, {len(found) - len(survivors)} killed, {len(survivors)} survived")
    for line, kind, before, after in survivors:
        print(f"  {args.module}:{line} {kind}: {before} -> {after}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
