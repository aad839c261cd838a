"""Print the raw lines and the code lines of the package under src/.

A code line holds a token other than a comment, a line break, an indent
or a dedent, and is not part of a docstring (of a module, class or
function).  Blank lines, comment lines and docstrings are the difference
between the two counts, which is the size measure ROADMAP's Baseline
quotes.

Usage: python scripts/src_lines.py [FILE_OR_DIR ...]   (default: src)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source text."""
    doc_rows = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            head = node.body[0]
            doc_rows.update(range(head.lineno, head.end_lineno + 1))
    code_rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code_rows - doc_rows)


def print_counts(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or [root / "src"]
    raw = code = 0
    for top in paths:
        for path in sorted(top.rglob("*.py")) if top.is_dir() else [top]:
            r, c = count_lines(path.read_text(encoding="utf-8"))
            raw += r
            code += c
    print(f"raw lines: {raw:,}\ncode lines: {code:,}")
    return 0


if __name__ == "__main__":
    sys.exit(print_counts(sys.argv[1:]))
