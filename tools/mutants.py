"""Mutation probe: do the tests notice a one-token change to a module?

Every mutation site of ``src/octoplane/<module>.py`` is listed in source
order: each binary, augmented-assignment, boolean or comparison operator,
and each integer constant.  A seeded choice of ``--count`` sites becomes
that many mutants, each with one change: the operator swapped for its
partner (``+`` and ``-``, ``<`` and ``<=``, ``==`` and ``!=``, ...) or the
constant n made n + 1.

Each mutant runs in a temporary copy of the tree against
``tests/test_<module>.py`` with ``-x``.  A mutant those tests miss is run
against the whole suite.  A mutant the whole suite misses is a survivor,
unless ``tools/equivalent_mutants.json`` lists it as equivalent (it
cannot change behaviour), with the reason.  An entry names one site: its
line text, its change, and its ordinal among the module's sites with that
line text and change, counting from 0 in source order.

    python tools/mutants.py --module projective --count 30 --seed 0

Standard library only.  A run takes minutes, so it is no part of the test
suite.  Exit status 1 means a survivor that is not listed as equivalent.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = Path(__file__).resolve().parent / "equivalent_mutants.json"
#: What a mutant run needs of the tree.
COPIED = ("src", "tests", "demos", "pyproject.toml")

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.And: "and", ast.Or: "or",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


class Site(NamedTuple):
    """One mutation: where it is (source line and its text) and what it does;
    ``ordinal`` tells it from the earlier sites with the same text and change."""

    index: int
    lineno: int
    line: str
    change: str
    ordinal: int


def _current(node, field, k):
    value = getattr(node, field)
    return value[k] if k is not None else value


def _annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of the nodes inside annotations, which postponed evaluation
    (``from __future__ import annotations``) never runs."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(n) for root in roots if root is not None for n in ast.walk(root)}


def _slots(tree: ast.AST) -> list[tuple]:
    """Every mutation slot outside annotations, (node, field, position in
    ``ops`` or None), in source order; ties keep ``ast.walk`` order, so the
    list is reproducible."""
    skipped = _annotation_nodes(tree)
    slots = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            slots.append((node, "op", None))
        elif isinstance(node, ast.Compare):
            slots.extend((node, "ops", k) for k in range(len(node.ops)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            slots.append((node, "value", None))
    slots = [s for s in slots if s[1] == "value" or type(_current(*s)) in SWAPS]
    return sorted(slots, key=lambda s: (s[0].lineno, s[0].col_offset, s[2] or 0))


def _describe(node, field, k) -> str:
    old = _current(node, field, k)
    if field == "value":
        return f"{old} -> {old + 1}"
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[SWAPS[type(old)]]}"


def sites(source: str) -> list[Site]:
    lines, seen, out = source.splitlines(), Counter(), []
    for i, (node, field, k) in enumerate(_slots(ast.parse(source))):
        key = lines[node.lineno - 1].strip(), _describe(node, field, k)
        out.append(Site(i, node.lineno, *key, seen[key]))
        seen[key] += 1
    return out


def mutate(source: str, index) -> str:
    """The module with site ``index`` changed (none for None), written back
    by ``ast.unparse``."""
    tree = ast.parse(source)
    if index is not None:
        node, field, k = _slots(tree)[index]
        old = _current(node, field, k)
        if field == "value":
            node.value = old + 1
        elif k is None:
            node.op = SWAPS[type(old)]()
        else:
            node.ops[k] = SWAPS[type(old)]()
    return ast.unparse(tree) + "\n"


def _pytest(tree: Path, targets: list[str], timeout: float) -> tuple[bool, float]:
    """Run pytest -x in ``tree``; (passed, seconds).  A timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def _known_equivalents(module: str) -> dict[tuple[str, str, int], str]:
    entries = json.loads(EQUIVALENTS.read_text()) if EQUIVALENTS.exists() else []
    keys = ("line", "change", "ordinal")
    return {tuple(e[k] for k in keys): e["reason"] for e in entries if e["module"] == module}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="module name under src/octoplane")
    parser.add_argument("--count", type=int, default=30, help="mutants to draw")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutant choice")
    args = parser.parse_args(argv)

    module_path = Path("src", "octoplane", f"{args.module}.py")
    test_file = f"tests/test_{args.module}.py"
    for path in (module_path, test_file):
        if not (ROOT / path).is_file():
            parser.error(f"{path} does not exist")
    source = (ROOT / module_path).read_text()
    every = sites(source)
    chosen = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))))
    equivalents = _known_equivalents(args.module)
    print(f"{args.module}: {len(every)} sites, {len(chosen)} mutants (seed {args.seed})")

    unexplained = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tree / name)
        target = tree / module_path
        # the unmutated module, round-tripped through ast.unparse, must pass
        target.write_text(mutate(source, None))
        ok, base = _pytest(tree, [test_file], timeout=None)
        if not ok:
            print(f"{test_file} fails on the unmutated module; nothing to probe")
            return 2
        timeout = max(60.0, 5 * base)
        for site in chosen:
            target.write_text(mutate(source, site.index))
            label = f"  #{site.index} L{site.lineno} `{site.line}`  {site.change} ({site.ordinal})"
            if not _pytest(tree, [test_file], timeout)[0]:
                print(f"{label}: killed by {test_file}")
            elif not _pytest(tree, [], 10 * timeout)[0]:
                print(f"{label}: killed by the suite")
            elif (key := (site.line, site.change, site.ordinal)) in equivalents:
                print(f"{label}: equivalent ({equivalents[key]})")
            else:
                unexplained += 1
                print(f"{label}: SURVIVED")
    print(f"{unexplained} survivor(s) not known to be equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
