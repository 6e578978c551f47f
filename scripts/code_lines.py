#!/usr/bin/env python3
"""Count the code lines of each module of ``src/duplexqkd`` and their total.

A code line is a source line that holds at least one token other than a
comment, a line break, an indent or a docstring.  A docstring is a string
token that begins a statement: a module, class or function docstring, or a
string statement anywhere else.  Lines are counted with ``tokenize``, so a
line that only continues a docstring or a comment never counts, and a
multi-line statement counts every line that carries one of its tokens.

Usage: python scripts/code_lines.py
"""

import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "duplexqkd"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    previous = tokenize.NEWLINE
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type in _STATEMENT_START:
                previous = tok.type
            continue
        if not (tok.type == tokenize.STRING and previous in _STATEMENT_START):
            lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(lines)


def main() -> int:
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
