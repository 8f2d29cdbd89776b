"""Count the lines of each Python file under ``src/``.

For each file, and in total, prints the line count and the code lines: the
lines left after dropping blank lines, comment-only lines and the lines of
module, class and function docstrings.

    python tools/code_lines.py [ROOT]

ROOT defaults to the repository this script lives in. A ROOT without a
``src/`` directory exits 2, naming the path.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one file's text."""
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comment_only = {tok.start[0] for tok in tokens if tok.type == tokenize.COMMENT
                    and not lines[tok.start[0] - 1][:tok.start[1]].strip()}
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and number not in skipped | comment_only)
    return len(lines), code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the repository to count (default: this script's)")
    src = parser.parse_args(argv).root / "src"
    if not src.is_dir():
        parser.error(f"{src} is not a directory")
    total_lines = total_code = 0
    for path in sorted(src.rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(src)}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
