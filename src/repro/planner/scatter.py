"""Scatter-gather execution of multi-table reads over disjoint partitions.

A RAIDb-2 cluster can end up with no single backend hosting *all* tables a
read names while every table is still hosted *somewhere* — disjoint
partitions.  The classic balancer rejects such reads
(:class:`repro.errors.NotReplicatedError`); the planner instead produces a
``scatter_gather`` :class:`~repro.planner.plan.RoutePlan` and this executor
carries it out:

* **scatter** — one per-table fragment (``SELECT * FROM <table>``) runs on
  the backend the plan bound it to (the cheapest host of that table), one
  after another in the caller's thread: the answer needs every fragment,
  and the in-process engines share one GIL, so threads would overlap
  nothing;
* **gather** — fragment rows are loaded into a scratch in-memory
  :class:`repro.sql.engine.DatabaseEngine` under their original table
  names (column types inferred from the fragment values);
* **merge** — the *original* SQL runs unchanged against the scratch
  engine, so joins, predicates, ``ORDER BY`` (ordered merge), ``GROUP BY``
  and aggregates (aggregate recombination) are recombined with the
  repository's own SQL semantics rather than a hand-rolled merge.

The plan's ``merge`` label (union / ordered_merge / aggregate_recombination)
describes which recombination the final statement performs; the scratch
execution implements all three uniformly.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.request import RequestResult, SelectRequest
from repro.errors import NoMoreBackendError
from repro.planner.plan import Fragment, RoutePlan
from repro.sql.engine import DatabaseEngine
from repro.sql.schema import Column, TableSchema
from repro.sql.types import SQLType


def _infer_column_type(values: Sequence) -> SQLType:
    """Column type from the first non-NULL fragment value (TEXT fallback)."""
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return SQLType.BOOLEAN
        if isinstance(value, int):
            return SQLType.BIGINT
        if isinstance(value, float):
            return SQLType.DOUBLE
        return SQLType.TEXT
    return SQLType.TEXT


def _load_fragment(engine: DatabaseEngine, table: str, result: RequestResult) -> None:
    """Create ``table`` on the scratch engine and load the fragment rows."""
    columns = [
        Column(
            name=name,
            sql_type=_infer_column_type([row[index] for row in result.rows]),
        )
        for index, name in enumerate(result.columns)
    ]
    engine.catalog.create_table(TableSchema(table, columns))
    if not result.rows:
        return
    column_list = ", ".join(column.name for column in columns)
    placeholders = ", ".join("?" for _ in columns)
    insert = f"INSERT INTO {table} ({column_list}) VALUES ({placeholders})"
    for row in result.rows:
        engine.execute(insert, row)


class ScatterGatherExecutor:
    """Run a ``scatter_gather`` plan against the live backend set."""

    def __init__(self, manager):
        self._manager = manager
        self.scatter_reads = 0
        self.fragments_executed = 0

    def _backend_for(self, fragment: Fragment):
        backend = self._manager._backends_by_name.get(fragment.backend_name)
        if backend is None or not backend.is_enabled:
            raise NoMoreBackendError(
                f"backend {fragment.backend_name!r} bound to scatter fragment"
                f" {fragment.table!r} is no longer enabled (plan is stale)"
            )
        return backend

    def execute(self, request: SelectRequest, plan: RoutePlan) -> RequestResult:
        """Scatter the plan's fragments, gather rows, merge with the real SQL."""
        fragments = plan.fragments
        backends = [self._backend_for(fragment) for fragment in fragments]
        results = [
            backend.execute_request(self._manager.request_factory.create_request(fragment.sql))
            for fragment, backend in zip(fragments, backends)
        ]

        scratch = DatabaseEngine(f"scatter-{request.request_id}")
        for fragment, fragment_result in zip(fragments, results):
            _load_fragment(scratch, fragment.table, fragment_result)
        merged = scratch.execute(request.sql, tuple(request.parameters))

        self.scatter_reads += 1
        self.fragments_executed += len(fragments)
        return RequestResult(
            columns=list(merged.columns),
            rows=merged.rows,
            update_count=-1,
            backend_name="scatter:" + "+".join(sorted({f.backend_name for f in fragments})),
            backends_executed=len(fragments),
        )

    def statistics(self) -> dict:
        return {
            "scatter_reads": self.scatter_reads,
            "fragments_executed": self.fragments_executed,
        }


__all__ = ["ScatterGatherExecutor"]
