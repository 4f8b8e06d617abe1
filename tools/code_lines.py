"""Count the code lines of the ``src/`` tree.

A code line is a source line holding at least one token that is neither
a comment nor part of a docstring (the string literal opening a module,
class or function body); blank lines count nothing.  The count is the
design-size figure changes to the package quote.

Run from the repository root::

    python tools/code_lines.py          # the total over src/
    python tools/code_lines.py -v       # plus one line per file
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize
from typing import Set

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's *source*."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(line for line in range(token.start[0],
                                                token.end[0] + 1)
                         if line not in docstrings)
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src",
                        help="directory to count (default: src)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the count of every file")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(pathlib.Path(args.root).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if args.verbose:
            print(f"{count:>7}  {path}")
    print(f"{total} code lines in {args.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
