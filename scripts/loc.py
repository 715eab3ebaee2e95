#!/usr/bin/env python3
"""Count the source lines of src/parwhit at a git revision and in the working tree.

For every .py file under src/parwhit, prints its lines and its logic lines
(lines that are not blank, not comment-only and not part of a docstring) at
REV and in the working tree, then the difference, and the same four totals.

    python3 scripts/loc.py HEAD~1

Run it from anywhere inside the checkout; it needs only git and the
standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/parwhit"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_rows(tree: ast.AST) -> set[int]:
    rows: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                rows.update(range(body[0].lineno, body[0].end_lineno + 1))
    return rows


def count(text: str) -> tuple[int, int]:
    """(lines, logic lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_rows(ast.parse(text)))


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout


def at_revision(rev: str) -> dict[str, tuple[int, int]]:
    names = _git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).split()
    return {n: count(_git("show", f"{rev}:{n}")) for n in names if n.endswith(".py")}


def in_tree() -> dict[str, tuple[int, int]]:
    out = {}
    for dirpath, _, files in os.walk(os.path.join(ROOT, PACKAGE)):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, ROOT)] = count(fh.read())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    old, new = at_revision(args.rev), in_tree()
    print(f"{'':36} {'lines':^13} {'logic lines':^13} {'difference':^13}")
    print(f"{'file':36} {'rev':>6} {'tree':>6} {'rev':>6} {'tree':>6} {'lines':>6} {'logic':>6}")
    total = [0, 0, 0, 0]
    for name in sorted(old.keys() | new.keys()):
        (a, b), (c, d) = old.get(name, (0, 0)), new.get(name, (0, 0))
        total = [total[0] + a, total[1] + b, total[2] + c, total[3] + d]
        print(f"{name:36} {a:>6} {c:>6} {b:>6} {d:>6} {c - a:>+6} {d - b:>+6}")
    a, b, c, d = total
    print(f"{'total':36} {a:>6} {c:>6} {b:>6} {d:>6} {c - a:>+6} {d - b:>+6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
