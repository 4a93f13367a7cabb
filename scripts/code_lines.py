#!/usr/bin/env python3
"""Count the code lines of each module of the package.

    python3 scripts/code_lines.py [--root DIR]

``--root`` is a checkout (default: the one holding this script).  For each
module under ``src/dirframes/`` the script prints the lines that are code,
and the total at the end.  A line is code when a token other than a
comment starts on it or a multi-line token (such as a string) spans it,
and it is not part of a docstring: the string that opens a module, class
or function.  Blank lines and comment-only lines are not code.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path,
                   help="checkout whose src/dirframes/ is counted")
    args = p.parse_args(argv)
    total = 0
    for path in sorted((args.root / "src" / "dirframes").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
