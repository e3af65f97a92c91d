"""Count code lines: each file's lines that hold code, then the total.

    python tests/codelines.py src/gatediscrim/*.py

A line counts when it holds a token of code.  Blank lines, comment lines
and the lines of docstrings (the string that opens a module, class or
function body) do not; a string that spans lines counts on each of them.
"""

from __future__ import annotations

import ast
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of lines of the Python file at `path` that hold code."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
        f.seek(0)
        tree = ast.parse(f.read(), path)
    lines = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(tree))


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
