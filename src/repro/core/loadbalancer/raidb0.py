"""RAIDb-0: partitioning without replication.

Each table lives on exactly one backend.  Reads and writes are routed to the
backend hosting the referenced tables; queries spanning tables placed on
different backends are rejected, exactly like the current C-JDBC limitation
described in §2.1 ("the tables named in a particular query must all be
present on at least one backend").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.backend import DatabaseBackend
from repro.core.loadbalancer.base import AbstractLoadBalancer
from repro.core.request import AbstractRequest, RequestType
from repro.core.requestparser import CREATE_TABLE
from repro.errors import NotReplicatedError


class RAIDb0LoadBalancer(AbstractLoadBalancer):
    """Partitioning: each table on exactly one backend."""

    raidb_level = "RAIDb-0"

    def __init__(self, *args, partition_map: Optional[Dict[str, str]] = None, **kwargs):
        """``partition_map`` maps table name -> backend name (for DDL routing)."""
        super().__init__(*args, **kwargs)
        self.partition_map = {
            table.lower(): backend for table, backend in (partition_map or {}).items()
        }

    def set_table_placement(self, table: str, backend_name: str) -> None:
        self.partition_map[table.lower()] = backend_name
        if self.on_placement_change is not None:
            self.on_placement_change()

    def placement_reason(self, request: AbstractRequest) -> str:
        if not request.tables:
            return "RAIDb-0 partitioning: table-less statement runs anywhere"
        return (
            "RAIDb-0 partitioning: partition hosting"
            f" {', '.join(request.tables)}"
        )

    def read_candidates(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        enabled = self.enabled(backends)
        if not request.tables:
            return enabled
        candidates = [b for b in enabled if b.has_tables(request.tables)]
        if not candidates:
            raise NotReplicatedError(
                f"tables {list(request.tables)!r} are not co-located on any backend "
                "(RAIDb-0 does not support distributed execution of a single query)"
            )
        return candidates

    def write_targets(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        enabled = self.enabled(backends)
        if not request.tables:
            return enabled
        if request.request_type is RequestType.DDL:
            if request.template.ddl_kind == CREATE_TABLE:
                target_name = self.partition_map.get(request.tables[0].lower())
                if target_name is not None:
                    placed = [b for b in enabled if b.name == target_name]
                    if placed:
                        return placed
                # Unmapped table: place it on the least-loaded backend so the
                # partitioning stays balanced by default.
                if enabled:
                    chosen = min(enabled, key=lambda b: len(b.tables))
                    self.partition_map[request.tables[0].lower()] = chosen.name
                    if self.on_placement_change is not None:
                        self.on_placement_change()
                    return [chosen]
                return []
        targets = [b for b in enabled if b.has_any_table(request.tables)]
        if not targets:
            raise NotReplicatedError(
                f"no backend hosts {list(request.tables)!r} in this partitioned database"
            )
        return targets
