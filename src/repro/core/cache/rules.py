"""Relaxed-consistency caching rules.

Paper §2.4.2: "The results of queries that can accept stale data can be kept
in the cache for a time specified by a staleness limit, even though
subsequent update queries may have rendered the cached entry inconsistent."

A :class:`RelaxationRule` matches SELECT requests (by table or by SQL
pattern) and grants them a staleness window during which invalidation is
skipped.  The RUBiS "relaxed cache" configuration of Table 1 uses a single
rule with a 60 second staleness limit applied to every table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.request import AbstractRequest
from repro.core.schema import Key, key


@dataclass
class RelaxationRule:
    """Grants a staleness window to matching SELECT requests.

    ``tables`` restricts the rule to SELECTs touching only those tables
    (empty means any table).  ``sql_pattern`` is an optional regular
    expression matched against the SQL text.  ``staleness_seconds`` is how
    long a cached entry may be served after an invalidating write;
    ``keep_on_write`` set to False turns the rule into a pure TTL rule that
    still invalidates on writes but expires entries after the window.
    """

    staleness_seconds: float = key(float, minimum=0)
    tables: tuple = key(tuple, (), item=Key(str))
    sql_pattern: Optional[str] = key(str, None)
    keep_on_write: bool = key(bool, True)

    def __post_init__(self):
        self._compiled = re.compile(self.sql_pattern, re.IGNORECASE) if self.sql_pattern else None
        self._tables = {t.lower() for t in self.tables}

    def matches(self, request: AbstractRequest) -> bool:
        """Does this rule apply to the given SELECT request?"""
        if self._compiled is not None and not self._compiled.search(request.sql):
            return False
        if self._tables:
            request_tables = {t.lower() for t in request.tables}
            if not request_tables or not request_tables.issubset(self._tables):
                return False
        return True


def first_matching_rule(
    rules: Iterable[RelaxationRule], request: AbstractRequest
) -> Optional[RelaxationRule]:
    """Return the first rule applying to ``request`` (rules are ordered)."""
    for rule in rules:
        if rule.matches(request):
            return rule
    return None
