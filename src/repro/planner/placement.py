"""Table placement view: which backends can serve which tables.

RAIDb-2 partial replication means placement is *the* routing constraint: a
read naming tables {a, b} can only run on a backend hosting both, and when
no such backend exists the tables still may be individually hosted — the
scatter-gather case.  :class:`PlacementMap` answers those questions over the
currently-enabled backend set, combining the balancer's static replication
map (when it has one) with each backend's dynamically discovered schema
(``DatabaseBackend.has_tables``), exactly the capability test the RAIDb-2
balancer applies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import NotReplicatedError


class PlacementMap:
    """Placement questions over one snapshot of enabled backends."""

    def __init__(self, backends: Sequence):
        self.backends = list(backends)

    def hosts(self, table: str) -> List:
        """Backends hosting ``table`` (dynamic schema view)."""
        return [backend for backend in self.backends if backend.has_tables((table,))]

    def cover(self, tables: Sequence[str]) -> Dict[str, List]:
        """Per-table host lists for a scatter-gather read.

        Raises :class:`NotReplicatedError` when some table is hosted
        nowhere — scattering cannot help if a fragment has no home.
        """
        cover: Dict[str, List] = {}
        missing: List[str] = []
        for table in tables:
            hosting = self.hosts(table)
            if hosting:
                cover[table] = hosting
            else:
                missing.append(table)
        if missing:
            raise NotReplicatedError(
                f"no backend hosts table{'s' if len(missing) > 1 else ''}"
                f" {', '.join(map(repr, missing))}; a scatter-gather read needs"
                f" every table hosted somewhere"
            )
        return cover


__all__ = ["PlacementMap"]
