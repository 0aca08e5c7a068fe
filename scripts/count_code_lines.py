"""Count the code lines of a Python package, per module and in total.

A code line is a line that holds part of a token other than a comment, a
docstring or a newline; blank lines therefore do not count either.  A
docstring is a string literal that is the first statement of a module,
class or function.  Lines spanned by other multi-line tokens, such as a
string passed to a call, all count.

    python scripts/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/certint`` next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = _docstring_lines(ast.parse(source, path))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    root = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "certint")
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    counts = {n: code_lines(os.path.join(root, n)) for n in names}
    width = max(map(len, names + ["total"]))
    for name in names:
        print(f"{name:<{width}}  {counts[name]:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
