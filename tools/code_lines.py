"""Count a Python package's lines and code lines.

A code line holds a token outside comments and docstrings: ``tokenize``
finds the tokens, and ``ast`` finds the docstrings (the string that opens a
module, class or function body). A token that spans lines, such as a
multi-line string or bracket, makes each of its lines a code line.

Usage: ``python tools/code_lines.py DIR`` prints the lines and the code
lines of the ``*.py`` files under ``DIR``, for example
``python tools/code_lines.py src/rcmkf``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 2
    files = sorted(Path(argv[0]).rglob("*.py"))
    totals = [count(f.read_text(encoding="utf-8")) for f in files]
    print(f"{sum(t[0] for t in totals)} lines, {sum(t[1] for t in totals)} code lines "
          f"in {len(files)} files under {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
