"""Cache invalidation granularities.

The paper (§2.4.2) mentions "different cache invalidation granularities
ranging from database-wide invalidation to table-based or column-based
invalidation with various optimizations".  A granularity decides, for a given
write request, which cached SELECT entries must be invalidated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Set

from repro.core.request import AbstractRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache.result_cache import CacheEntry


class CacheGranularity:
    """Strategy deciding whether a write invalidates a cached entry."""

    name = "abstract"
    #: True when a write can only ever invalidate entries that read one of
    #: the written tables (or entries with no parsed tables).  The result
    #: cache then narrows invalidation to its inverted table index instead of
    #: scanning every entry.  Custom granularities keep the conservative
    #: default (full scan).
    uses_table_index = False

    def invalidates(self, write: AbstractRequest, entry: "CacheEntry") -> bool:
        raise NotImplementedError  # pragma: no cover - interface


class DatabaseGranularity(CacheGranularity):
    """Coarsest granularity: any write invalidates the whole cache."""

    name = "database"

    def invalidates(self, write: AbstractRequest, entry: "CacheEntry") -> bool:
        return True


class TableGranularity(CacheGranularity):
    """A write invalidates entries whose SELECT touches any written table."""

    name = "table"
    uses_table_index = True

    def invalidates(self, write: AbstractRequest, entry: "CacheEntry") -> bool:
        if not write.tables:
            # Unknown write target: be conservative.
            return True
        written = {t.lower() for t in write.tables}
        read = {t.lower() for t in entry.tables}
        if not read:
            return True
        return bool(written & read)


class FullScanTableGranularity(TableGranularity):
    """Table granularity with the inverted invalidation index opted out.

    Identical invalidation decisions to :class:`TableGranularity`, but every
    write scans the whole cache — the pre-index code path.  Used as the
    reference implementation by the invalidation rows of the call-count
    table and by the index-equivalence tests; not intended for production
    configurations.
    """

    name = "table-fullscan"
    uses_table_index = False


class ColumnGranularity(CacheGranularity):
    """Table granularity refined with the columns named by the write.

    A cached SELECT is kept when it shares tables with the write but none of
    the columns assigned by an UPDATE appear in the SELECT text.  INSERT and
    DELETE statements fall back to table granularity because they change row
    membership, which any SELECT on the table can observe.
    """

    name = "column"
    # column granularity first requires a table overlap, so the index applies
    uses_table_index = True

    def invalidates(self, write: AbstractRequest, entry: "CacheEntry") -> bool:
        if not TableGranularity().invalidates(write, entry):
            return False
        columns = _updated_columns(write.sql)
        if columns is None:
            return True
        select_text = entry.sql.lower()
        return any(column in select_text for column in columns) or "*" in select_text


def _updated_columns(sql: str) -> Set[str] | None:
    """Columns assigned by an UPDATE statement, or None when not an UPDATE."""
    lowered = sql.lower()
    if not lowered.lstrip().startswith("update"):
        return None
    set_index = lowered.find(" set ")
    if set_index == -1:
        return None
    where_index = lowered.find(" where ", set_index)
    assignments = lowered[set_index + 5 : where_index if where_index != -1 else None]
    columns: Set[str] = set()
    for assignment in assignments.split(","):
        name = assignment.split("=", 1)[0].strip()
        if "." in name:
            name = name.split(".", 1)[1]
        if name:
            columns.add(name)
    return columns


def granularity_from_name(name: str) -> CacheGranularity:
    """Factory used by the configuration layer."""
    lowered = name.strip().lower()
    if lowered == "database":
        return DatabaseGranularity()
    if lowered == "table":
        return TableGranularity()
    if lowered == "column":
        return ColumnGranularity()
    raise ValueError(f"unknown cache granularity {name!r}")
