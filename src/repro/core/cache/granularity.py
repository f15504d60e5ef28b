"""Cache invalidation granularities.

The paper (§2.4.2) mentions "different cache invalidation granularities
ranging from database-wide invalidation to table-based or column-based
invalidation with various optimizations".  A granularity decides, for a given
write request, which cached SELECT entries must be invalidated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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

    A cached SELECT is kept when it shares tables with the write but
    references none of the columns an UPDATE assigns; both sets come from
    the statements' parse trees, and a SELECT with ``*`` references every
    column.  INSERT and DELETE statements fall back to table granularity
    because they change row membership, which any SELECT on the table can
    observe.
    """

    name = "column"
    # column granularity first requires a table overlap, so the index applies
    uses_table_index = True

    def invalidates(self, write: AbstractRequest, entry: "CacheEntry") -> bool:
        if not TableGranularity().invalidates(write, entry):
            return False
        # a request built without the statement analysis names no columns
        assigned = write.template.assigned_columns if write.template is not None else None
        if assigned is None or entry.columns is None:
            return True
        return not assigned.isdisjoint(entry.columns)


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
