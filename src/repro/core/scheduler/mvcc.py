"""MVCC-style snapshot scheduler: reads never block, first committer wins.

The middleware cannot version the data itself (rows live in the backends),
but it can keep the *metadata* of snapshot isolation: a committed-version
counter, the version at which each transaction took its snapshot, and the
set of tables each transaction has written.  That is enough to

* stamp every read ticket with the snapshot version it logically reads at
  (``ticket.snapshot_version``) without ever blocking the reader, and
* detect write-write conflicts with first-committer-wins validation: a
  transaction that writes a table committed by someone else *after* this
  transaction's snapshot is aborted with
  :class:`~repro.errors.SerializationConflictError`.

Validation is eager (checked when the conflicting statement is scheduled,
before it reaches any backend) and repeated at commit, mirroring
PostgreSQL's "could not serialize access due to concurrent update".  The
rejected statement performed no work, so the error is retryable: the client
rolls back and re-runs the transaction
(:meth:`repro.core.retry.RetryPolicy.is_retryable`).

Writes keep the optimistic lock plans (:mod:`repro.core.scheduler.base`):
replicas still apply every update in the same order (§2.4.1), but the
scheduler never makes a read wait for a write.  Consequently a read may
observe a half-propagated write on a lagging replica; the isolation
exerciser documents this honestly in the scheduler×anomaly matrix.  Classic
snapshot-isolation write skew (disjoint write sets) is admitted by design.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from repro.core.request import AbstractRequest, CommitRequest, RollbackRequest
from repro.core.scheduler.base import AbstractScheduler, SchedulerTicket
from repro.errors import SerializationConflictError

class MVCCScheduler(AbstractScheduler):
    """Snapshot scheduler: non-blocking reads, versioned first-committer-wins."""

    def __init__(self):
        super().__init__()
        self._state = threading.Lock()
        #: bumped once per committed writing transaction / autocommit write
        self.committed_version = 0
        #: table -> committed version of the last write that touched it
        self._table_versions: Dict[str, int] = {}
        #: transaction id -> committed version at its snapshot
        self._txn_start: Dict[int, int] = {}
        #: transaction id -> tables it has (attempted to) write
        self._txn_writes: Dict[int, Set[str]] = {}
        self.conflicts_detected = 0

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _tables(request: AbstractRequest) -> Set[str]:
        return {table.lower() for table in (request.tables or ())}

    def _snapshot(self, transaction_id: Optional[int]) -> int:
        """The version the request logically reads at; stamps new transactions.

        Caller holds ``self._state``.
        """
        if transaction_id is None:
            return self.committed_version
        return self._txn_start.setdefault(transaction_id, self.committed_version)

    def _check_conflicts(self, transaction_id: int, tables: Set[str]) -> None:
        """First-committer-wins: raise if any table moved past the snapshot.

        Caller holds ``self._state``.
        """
        snapshot = self._snapshot(transaction_id)
        for table in sorted(tables):
            committed_at = self._table_versions.get(table, 0)
            if committed_at > snapshot:
                self.conflicts_detected += 1
                raise SerializationConflictError(
                    f"transaction {transaction_id} (snapshot v{snapshot}) conflicts"
                    f" with a commit to table {table!r} at v{committed_at}:"
                    " first committer wins — roll back and retry"
                )

    # -- validation before the locks, version bookkeeping before their release ---

    def schedule_read(self, request: AbstractRequest) -> SchedulerTicket:
        ticket = super().schedule_read(request)
        with self._state:
            ticket.snapshot_version = self._snapshot(request.transaction_id)
        return ticket

    def schedule_write(self, request: AbstractRequest) -> SchedulerTicket:
        transaction_id = request.transaction_id
        if transaction_id is not None and not isinstance(request, RollbackRequest):
            with self._state:
                if isinstance(request, CommitRequest):
                    # final validation: tables written before a competing
                    # commit happened are caught here
                    self._check_conflicts(
                        transaction_id, self._txn_writes.get(transaction_id, set())
                    )
                else:
                    tables = self._tables(request)
                    self._check_conflicts(transaction_id, tables)
                    if tables:
                        self._txn_writes.setdefault(transaction_id, set()).update(tables)
        return super().schedule_write(request)

    def _release(self, ticket: SchedulerTicket) -> None:
        if ticket.order:
            request = ticket.request
            transaction_id = request.transaction_id
            with self._state:
                if transaction_id is None:
                    tables = self._tables(request)
                    if tables:
                        self._commit_tables(tables)
                elif isinstance(request, CommitRequest):
                    written = self._txn_writes.pop(transaction_id, set())
                    self._txn_start.pop(transaction_id, None)
                    if written:
                        self._commit_tables(written)
                elif isinstance(request, RollbackRequest):
                    self._txn_writes.pop(transaction_id, None)
                    self._txn_start.pop(transaction_id, None)
        super()._release(ticket)

    def _commit_tables(self, tables: Set[str]) -> None:
        """Advance the committed version over ``tables`` (holds ``_state``)."""
        self.committed_version += 1
        for table in tables:
            self._table_versions[table] = self.committed_version

    # -- statistics --------------------------------------------------------------

    def statistics(self) -> dict:
        stats = super().statistics()
        with self._state:
            stats["mvcc"] = {
                "committed_version": self.committed_version,
                "conflicts_detected": self.conflicts_detected,
                "active_transactions": len(self._txn_start),
            }
        return stats
