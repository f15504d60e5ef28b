"""Macro rewriting for non-deterministic SQL functions.

Paper §2.4.1: "SQL queries containing macros such as RAND() or NOW() are
rewritten on-the-fly with a value computed by the scheduler so that each
backend stores exactly the same data."

The statement analysis (:mod:`repro.core.requestparser`) finds every call of
one of these functions with an empty argument list, once per statement text,
and records its source span.  :func:`splice_macros` then replaces each span
with a literal computed once by the controller, per request.
"""

from __future__ import annotations

import datetime as _dt
import random
from typing import Callable, Dict, Sequence, Tuple

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


def splice_macros(sql: str, sites: Sequence[Tuple[int, int, str]]) -> str:
    """``sql`` with each ``(start, end, NAME)`` call site replaced by a literal.

    The generator is looked up per call, so replacing an entry of
    ``_MACRO_GENERATORS`` (a pinned clock) takes effect at once.
    """
    parts = []
    cursor = 0
    for start, end, name in sites:
        parts.append(sql[cursor:start])
        parts.append(_MACRO_GENERATORS[name]())
        cursor = end
    parts.append(sql[cursor:])
    return "".join(parts)
