"""RAIDb-2: partial replication.

"C-JDBC provides partial replication in which the user can define database
replication on a per-table basis.  Load balancers supporting partial
replication must parse the incoming queries and need to know the database
schema of each backend" (paper §2.4.3).

Reads are routed to a backend that hosts *all* the tables named by the
query (the paper notes the tables named in a query must all be present on
at least one backend).  A write goes to every backend hosting the table it
writes, and each of them must also host every table the write reads
(``INSERT ... SELECT``, a subquery): otherwise the controller refuses the
write with :class:`~repro.errors.NotReplicatedError` before any backend
runs it.  DDL follows the replication map when one is configured,
otherwise it is broadcast everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.backend import DatabaseBackend
from repro.core.loadbalancer.base import AbstractLoadBalancer
from repro.core.request import AbstractRequest, RequestType
from repro.core.requestparser import CREATE_TABLE
from repro.errors import NotReplicatedError


class RAIDb2LoadBalancer(AbstractLoadBalancer):
    """Partial replication: per-table replica placement."""

    raidb_level = "RAIDb-2"

    def __init__(self, *args, replication_map: Optional[Dict[str, Iterable[str]]] = None, **kwargs):
        """``replication_map`` maps table name -> backend names hosting it.

        When omitted, placement is discovered from each backend's schema
        (dynamic schema gathering); the map is only needed for DDL, which
        creates tables that do not exist anywhere yet.
        """
        super().__init__(*args, **kwargs)
        self.replication_map = {
            table.lower(): {name for name in backends}
            for table, backends in (replication_map or {}).items()
        }

    # -- placement ----------------------------------------------------------------

    def set_table_placement(self, table: str, backend_names: Iterable[str]) -> None:
        self.replication_map[table.lower()] = set(backend_names)
        if self.on_placement_change is not None:
            self.on_placement_change()

    def backends_for_table(self, table: str) -> Optional[set]:
        """Placement for ``table``: exact name first, then ``prefix%`` patterns.

        Patterns ending in ``%`` let configurations place dynamically named
        tables — typically the TPC-W best-seller temporary tables — on a
        fixed subset of backends, which is exactly how the paper "limits the
        temporary table creation to 2 backends" under partial replication.

        When several patterns match (``tpcw_%`` and ``tpcw_bestseller_%``),
        the *longest* matching prefix wins — the most specific placement —
        independent of the map's insertion order.
        """
        key = table.lower()
        exact = self.replication_map.get(key)
        if exact is not None:
            return exact
        best: Optional[set] = None
        best_length = -1
        for pattern, backends in self.replication_map.items():
            if not pattern.endswith("%"):
                continue
            prefix = pattern[:-1]
            if key.startswith(prefix) and len(prefix) > best_length:
                best = backends
                best_length = len(prefix)
        return best

    # -- candidate selection ---------------------------------------------------------

    def read_candidates(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        enabled = self.enabled(backends)
        if not request.tables:
            return enabled
        candidates = [b for b in enabled if b.has_tables(request.tables)]
        if not candidates:
            raise NotReplicatedError(
                f"no backend hosts all of {list(request.tables)!r}; "
                "partial replication requires co-located tables for each query"
            )
        return candidates

    def write_targets(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        enabled = self.enabled(backends)
        if not request.tables:
            return enabled
        if request.request_type is RequestType.DDL:
            return self._ddl_targets(request, enabled)
        # a write names the table it writes first; the others it only reads
        written, *read = request.tables
        targets = [b for b in enabled if b.has_tables((written,))]
        lacking = [b.name for b in targets if not b.has_tables(read)]
        if lacking:
            raise NotReplicatedError(
                f"{', '.join(lacking)} host {written!r} but not all of {read!r};"
                " every replica of a written table must host the tables the write reads"
            )
        return targets

    def placement_reason(self, request: AbstractRequest) -> str:
        if not request.tables:
            return "RAIDb-2 partial replication: table-less statement runs anywhere"
        return (
            "RAIDb-2 partial replication: co-located read over"
            f" {', '.join(request.tables)}"
        )

    def _ddl_targets(
        self, request: AbstractRequest, enabled: List[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        if request.template.ddl_kind == CREATE_TABLE:
            placement = self.backends_for_table(request.tables[0])
            if placement is not None:
                return [b for b in enabled if b.name in placement]
        else:
            # DROP/ALTER/CREATE INDEX: only backends already hosting the table
            targets = [b for b in enabled if b.has_any_table(request.tables)]
            if targets:
                return targets
        return enabled
