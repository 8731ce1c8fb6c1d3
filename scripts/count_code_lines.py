#!/usr/bin/env python3
"""Count the lines of src/tanloss that hold code: every line that is not
blank, not only a comment and not part of a docstring.  Prints each module's
code lines and physical lines, then the totals.

Usage: python scripts/count_code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tanloss"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that some token other than a comment or
    a docstring touches."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total_code = total_all = 0
    print(f"{'module':16s} {'code':>6s} {'all':>6s}")
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, everything = code_lines(source), len(source.splitlines())
        total_code, total_all = total_code + code, total_all + everything
        print(f"{path.name:16s} {code:6d} {everything:6d}")
    print(f"{'total':16s} {total_code:6d} {total_all:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
