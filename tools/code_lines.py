#!/usr/bin/env python3
"""Count code lines: lines holding a token, minus comments, blanks, docstrings.

A line counts when the tokenizer finds on it at least one token that is not a
comment, a newline or indentation, and that is not part of a docstring (a
string literal standing alone as a statement).  Reformatting one expression
over more or fewer lines changes the count; adding or deleting comments,
blank lines and docstrings does not — which is what a line-budget criterion
wants to measure.

    python tools/code_lines.py src src/repro/groupcomm        # totals
    python tools/code_lines.py --files src/repro/groupcomm    # per file too
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    lines: Set[int] = set()
    at_statement_start = True
    with tokenize.open(path) as handle:
        tokens = list(tokenize.generate_tokens(handle.readline))
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            if token.type == tokenize.NEWLINE:
                at_statement_start = True
            continue
        if (
            at_statement_start
            and token.type == tokenize.STRING
            and tokens[index + 1].type == tokenize.NEWLINE
        ):
            continue  # a docstring: a bare string literal as a whole statement
        at_statement_start = False
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py"))


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="files or directories")
    parser.add_argument(
        "--files", action="store_true", help="also print one line per file"
    )
    args = parser.parse_args(argv)
    for root in args.paths:
        if not root.exists():
            print(f"code_lines: no such path: {root}", file=sys.stderr)
            return 2
        total = 0
        for path in python_files(root):
            count = code_lines(path)
            total += count
            if args.files:
                print(f"{count:7d}  {path}")
        print(f"{total:7d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
