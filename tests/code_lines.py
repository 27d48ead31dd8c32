"""Code lines per module: lines without blank, comment and docstring lines.

A line counts when some token other than a comment starts, ends or runs
through it, so every line of a multi-line string expression counts. The
docstrings of the module, its classes and its functions do not count.
Run as ``PYTHONPATH=src python -m tests.code_lines src/hiersplines``; it
prints the count of every ``*.py`` file of the directory and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that make no line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_directory(directory: Path) -> dict[str, int]:
    """Code lines per ``*.py`` file of the directory, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> None:
    counts = count_directory(Path(argv[0]))
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
