"""Macro rewriting for non-deterministic SQL functions.

Paper §2.4.1: "SQL queries containing macros such as RAND() or NOW() are
rewritten on-the-fly with a value computed by the scheduler so that each
backend stores exactly the same data."

The rewriter works on the SQL text using the engine's lexer so it does not
need a full parse (the statement may target any backend dialect).  Every
occurrence of a non-deterministic function call with an empty argument list
is replaced by a literal computed once by the controller.
"""

from __future__ import annotations

import datetime as _dt
import random
import re
from typing import Callable, Dict, Optional, Tuple

from repro.sql.lexer import Token, TokenType, tokenize

#: macro name -> callable computing the literal SQL text to substitute
_MACRO_GENERATORS: Dict[str, Callable[[], str]] = {
    "NOW": lambda: "'" + _dt.datetime.now().isoformat(sep=" ", timespec="seconds") + "'",
    "CURRENT_TIMESTAMP": lambda: "'" + _dt.datetime.now().isoformat(sep=" ", timespec="seconds") + "'",
    "SYSDATE": lambda: "'" + _dt.datetime.now().isoformat(sep=" ", timespec="seconds") + "'",
    "CURRENT_DATE": lambda: "'" + _dt.date.today().isoformat() + "'",
    "CURDATE": lambda: "'" + _dt.date.today().isoformat() + "'",
    "RAND": lambda: repr(random.random()),
    "RANDOM": lambda: repr(random.random()),
}


#: a macro name followed by ``(``, with any whitespace between the two
_MACRO_CALL = re.compile(
    r"(?:" + "|".join(_MACRO_GENERATORS) + r")\s*\(", re.IGNORECASE
)


def contains_macro(sql: str) -> bool:
    """Cheap check used to skip tokenization on the common macro-free path."""
    return _MACRO_CALL.search(sql) is not None


def rewrite_macros(sql: str, clock: Optional[Callable[[], _dt.datetime]] = None) -> Tuple[str, bool]:
    """Replace non-deterministic macro calls with literals.

    Returns ``(rewritten_sql, changed)``.  ``clock`` can be injected by tests
    to make NOW() deterministic.
    """
    if not contains_macro(sql):
        return sql, False
    tokens = tokenize(sql)
    replacements = []  # (start_position_of_name_token, end_position_after_parens, literal)
    index = 0
    while index < len(tokens) - 1:
        token = tokens[index]
        name = token.value.upper()
        if (
            token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD)
            and name in _MACRO_GENERATORS
            and tokens[index + 1].matches(TokenType.PUNCTUATION, "(")
            and index + 2 < len(tokens)
            and tokens[index + 2].matches(TokenType.PUNCTUATION, ")")
        ):
            if clock is not None and name in (
                "NOW",
                "CURRENT_TIMESTAMP",
                "SYSDATE",
            ):
                literal = "'" + clock().isoformat(sep=" ", timespec="seconds") + "'"
            else:
                literal = _MACRO_GENERATORS[name]()
            start = _token_start(sql, token)
            end = tokens[index + 2].position + 1
            replacements.append((start, end, literal))
            index += 3
            continue
        index += 1
    if not replacements:
        return sql, False
    rewritten = []
    cursor = 0
    for start, end, literal in replacements:
        rewritten.append(sql[cursor:start])
        rewritten.append(literal)
        cursor = end
    rewritten.append(sql[cursor:])
    return "".join(rewritten), True


def _token_start(sql: str, token: Token) -> int:
    """Recover the starting offset of a word token.

    The lexer records the position *after* reading word tokens, so walk back
    over the identifier characters.
    """
    end = token.position
    start = end - len(token.value)
    # Tokens store the position after the word for identifiers/keywords and
    # the starting index for operators; be defensive and search nearby.
    if sql[start:end].upper() == token.value.upper():
        return start
    lowered = sql.upper()
    found = lowered.rfind(token.value.upper(), 0, end + len(token.value))
    return found if found != -1 else max(0, start)
