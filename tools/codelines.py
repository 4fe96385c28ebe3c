#!/usr/bin/env python3
"""Count the code lines of the package, per module and in total.

A line counts when it holds a token that is not a comment, a newline, an
indent or dedent, or part of a module, class or function docstring. A
token that spans lines, such as a triple-quoted string that is not a
docstring, counts on every line it spans.

    python3 tools/codelines.py            # src/noisy_align/*.py
    python3 tools/codelines.py a.py b.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "noisy_align"
SKIPPED = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(SRC.glob("*.py"))
    counts = {p: code_lines(p) for p in paths}
    width = max(len(p.name) for p in paths)
    for p, n in counts.items():
        print(f"{p.name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
