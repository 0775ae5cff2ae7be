#!/usr/bin/env python3
"""Line counts of the ``mcperturb`` package, per module and in total.

Usage, from the root of a checkout:

    python3 scripts/src_lines.py [package-dir]

Each ``.py`` file's lines fall in exactly one of three classes:

* docstring: a line of a module, class or function docstring, as the AST
  places it;
* code: any other line holding a token that is not a comment;
* comment-or-blank: the rest.

``physical`` is the file's line count, the sum of the three.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mcperturb"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> dict[str, int]:
    """Physical, code, docstring and comment-or-blank line counts of ``source``."""
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    tokens: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    physical = len(source.splitlines())
    code = len(tokens - docstring)
    return {"physical": physical, "code": code, "docstring": len(docstring),
            "comment_or_blank": physical - code - len(docstring)}


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    columns = ("physical", "code", "docstring", "comment_or_blank")
    rows = [(path.name, count(path.read_text())) for path in sorted(package.glob("*.py"))]
    total = {c: sum(r[c] for _, r in rows) for c in columns}
    width = max(len(name) for name, _ in rows + [("total", total)])
    print(f"{'module':<{width}}  " + "  ".join(f"{c:>16}" for c in columns))
    for name, r in rows + [("total", total)]:
        print(f"{name:<{width}}  " + "  ".join(f"{r[c]:>16,}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
