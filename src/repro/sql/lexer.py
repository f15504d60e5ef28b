"""SQL tokenizer.

Splits SQL text into a stream of :class:`Token` objects consumed by the
recursive-descent parser.  The dialect covers the subset used by the TPC-W
and RUBiS workloads plus the DDL needed by the middleware (schema discovery,
checkpointing): identifiers (optionally quoted with ``"`` or backticks),
string literals with ``''`` escaping, numeric literals, parameter markers
(``?`` and ``%s``), operators and punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List

from repro.errors import SQLSyntaxError


class TokenType(Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    STRING = "STRING"
    NUMBER = "NUMBER"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    PARAMETER = "PARAMETER"
    EOF = "EOF"


#: Words recognized as keywords (case-insensitive).  Anything else is an
#: identifier.  Keeping this list explicit avoids misclassifying column names.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE AND OR NOT IN IS NULL LIKE BETWEEN EXISTS
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE DROP ALTER ADD INDEX UNIQUE PRIMARY KEY FOREIGN REFERENCES
    IF
    BEGIN START TRANSACTION COMMIT ROLLBACK WORK
    JOIN INNER LEFT RIGHT OUTER CROSS ON USING
    GROUP BY ORDER HAVING ASC DESC LIMIT OFFSET
    DISTINCT ALL AS UNION
    CASE WHEN THEN ELSE END
    DEFAULT AUTO_INCREMENT NOT
    TRUE FALSE
    COUNT SUM AVG MIN MAX
    """.split()
)

_MULTI_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "||")
_SINGLE_CHAR_OPERATORS = set("=<>+-*/%")
_PUNCTUATION = set("(),.;")


@dataclass(frozen=True)
class Token:
    """A single lexical token; ``position`` is the offset of its first character."""

    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: str = None) -> bool:
        if self.type is not token_type:
            return False
        if value is None:
            return True
        return self.value.upper() == value.upper()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql`` and return the token list terminated by an EOF token."""
    return list(_iter_tokens(sql))


def _iter_tokens(sql: str) -> Iterator[Token]:
    i = 0
    length = len(sql)
    while i < length:
        char = sql[i]
        if char.isspace():
            i += 1
            continue
        # -- comments and /* */ comments
        if char == "-" and sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = length if newline == -1 else newline + 1
            continue
        if char == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SQLSyntaxError(f"unterminated comment at position {i}")
            i = end + 2
            continue
        start = i
        if char == "'":
            value, i = _read_string(sql, i)
            yield Token(TokenType.STRING, value, start)
            continue
        if char in ('"', "`"):
            value, i = _read_quoted_identifier(sql, i, char)
            yield Token(TokenType.IDENTIFIER, value, start)
            continue
        if char.isdigit() or (
            char == "." and i + 1 < length and sql[i + 1].isdigit()
        ):
            value, i = _read_number(sql, i)
            yield Token(TokenType.NUMBER, value, start)
            continue
        if char == "?":
            yield Token(TokenType.PARAMETER, "?", i)
            i += 1
            continue
        if char == "%" and sql.startswith("%s", i):
            yield Token(TokenType.PARAMETER, "%s", i)
            i += 2
            continue
        if char.isalpha() or char == "_":
            value, i = _read_word(sql, i)
            if value.upper() in KEYWORDS:
                yield Token(TokenType.KEYWORD, value.upper(), start)
            else:
                yield Token(TokenType.IDENTIFIER, value, start)
            continue
        multi = sql[i : i + 2]
        if multi in _MULTI_CHAR_OPERATORS:
            yield Token(TokenType.OPERATOR, multi, i)
            i += 2
            continue
        if char in _SINGLE_CHAR_OPERATORS:
            yield Token(TokenType.OPERATOR, char, i)
            i += 1
            continue
        if char in _PUNCTUATION:
            yield Token(TokenType.PUNCTUATION, char, i)
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {char!r} at position {i}")
    yield Token(TokenType.EOF, "", length)


def _read_string(sql: str, start: int):
    """Read a single-quoted string literal with ``''`` escaping."""
    i = start + 1
    parts: List[str] = []
    while i < len(sql):
        char = sql[i]
        if char == "'":
            if i + 1 < len(sql) and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        if char == "\\" and i + 1 < len(sql) and sql[i + 1] in ("'", "\\"):
            parts.append(sql[i + 1])
            i += 2
            continue
        parts.append(char)
        i += 1
    raise SQLSyntaxError(f"unterminated string literal starting at {start}")


def _read_quoted_identifier(sql: str, start: int, quote: str):
    end = sql.find(quote, start + 1)
    if end == -1:
        raise SQLSyntaxError(f"unterminated quoted identifier starting at {start}")
    return sql[start + 1 : end], end + 1


def _read_number(sql: str, start: int):
    i = start
    seen_dot = False
    seen_exp = False
    while i < len(sql):
        char = sql[i]
        if char.isdigit():
            i += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif char in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < len(sql) and sql[i] in "+-":
                i += 1
        else:
            break
    return sql[start:i], i


def _read_word(sql: str, start: int):
    i = start
    while i < len(sql) and (sql[i].isalnum() or sql[i] in "_$"):
        i += 1
    return sql[start:i], i
