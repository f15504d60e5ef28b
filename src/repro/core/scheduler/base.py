"""Scheduler implementations.

The contract is small: the request manager calls :meth:`schedule_read` /
:meth:`schedule_write` before handing the request to the cache / load
balancer and calls :meth:`SchedulerTicket.release` when the operation has
completed on every backend involved.  Write tickets carry a monotonically
increasing *write order* identifier; because the ticket is acquired while
holding the scheduler's write mutex, ticket order equals execution order on
every backend — the total order property of §2.4.1.

Every scheduler also records how long callers waited inside the acquire
hooks (count of blocked acquisitions, total and maximum wait) so the
contention ablation can compare variants without instrumenting callers.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.request import AbstractRequest

#: an acquire slower than this is counted as "waited" — an uncontended
#: lock acquisition is microseconds, a parked thread is milliseconds
_WAIT_THRESHOLD_SECONDS = 0.001


class SchedulerTicket:
    """Handle returned by the scheduler; must be released after execution."""

    def __init__(self, scheduler: "AbstractScheduler", request: AbstractRequest, order: int):
        self._scheduler = scheduler
        self.request = request
        #: global ordering number; meaningful for writes/commits/aborts
        self.order = order
        #: committed version observed at scheduling time (MVCC variant only)
        self.snapshot_version: Optional[int] = None
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._scheduler._release(self)

    def __enter__(self) -> "SchedulerTicket":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class _WaitStats:
    """Count / total / max of acquire wait times, updated under a caller lock."""

    __slots__ = ("count", "total_seconds", "max_seconds")

    def __init__(self):
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, waited: float) -> None:
        if waited >= _WAIT_THRESHOLD_SECONDS:
            self.count += 1
        self.total_seconds += waited
        if waited > self.max_seconds:
            self.max_seconds = waited

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "max_seconds": round(self.max_seconds, 6),
        }


class AbstractScheduler:
    """Base scheduler: bookkeeping shared by every implementation."""

    def __init__(self):
        self._order_counter = itertools.count(1)
        self._order_lock = threading.Lock()
        self.reads_scheduled = 0
        self.writes_scheduled = 0
        self.pending_writes = 0
        self.write_barriers = 0
        self._read_wait = _WaitStats()
        self._write_wait = _WaitStats()

    # -- public API -----------------------------------------------------------

    def schedule_read(self, request: AbstractRequest) -> SchedulerTicket:
        started = time.perf_counter()
        self._acquire_read(request)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.reads_scheduled += 1
            self._read_wait.record(waited)
        return SchedulerTicket(self, request, order=0)

    def schedule_write(self, request: AbstractRequest) -> SchedulerTicket:
        """Schedule a write / commit / abort.  Blocks until it may proceed."""
        started = time.perf_counter()
        self._acquire_write(request)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.writes_scheduled += 1
            self.pending_writes += 1
            self._write_wait.record(waited)
            order = next(self._order_counter)
        return SchedulerTicket(self, request, order=order)

    @contextmanager
    def write_barrier(self) -> Iterator[None]:
        """Briefly block new writes/commits/aborts while the context is held.

        Used by backend re-integration
        (:mod:`repro.core.recovery.checkpoint`): ``cut`` holds it to take a
        log marker and a dump that agree exactly, and ``catch_up`` replays
        the recovery-log tail online, then acquires it to replay the last
        entries and re-enable the backend with no write racing the switch.
        Reads are not blocked (except by the pessimistic variants).  The
        barrier takes the same mutual-exclusion path as a write, so it
        waits for the in-flight write (if any) and excludes new ones.
        """
        started = time.perf_counter()
        self._acquire_write(None)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.write_barriers += 1
            self._write_wait.record(waited)
        try:
            yield
        finally:
            self._release_write(None)

    # -- hooks ------------------------------------------------------------------

    def _acquire_read(self, request: AbstractRequest) -> None:  # pragma: no cover
        raise NotImplementedError

    def _acquire_write(self, request: AbstractRequest) -> None:  # pragma: no cover
        raise NotImplementedError

    def _release_read(self, request: AbstractRequest) -> None:  # pragma: no cover
        raise NotImplementedError

    def _release_write(self, request: AbstractRequest) -> None:  # pragma: no cover
        raise NotImplementedError

    def _release(self, ticket: SchedulerTicket) -> None:
        if ticket.order:
            with self._order_lock:
                self.pending_writes = max(0, self.pending_writes - 1)
            self._release_write(ticket.request)
        else:
            self._release_read(ticket.request)

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> dict:
        with self._order_lock:
            return {
                "scheduler": type(self).__name__,
                "reads_scheduled": self.reads_scheduled,
                "writes_scheduled": self.writes_scheduled,
                "pending_writes": self.pending_writes,
                "write_barriers": self.write_barriers,
                "read_wait": self._read_wait.as_dict(),
                "write_wait": self._write_wait.as_dict(),
            }


class PassThroughScheduler(AbstractScheduler):
    """No synchronisation at all: suitable for a single backend.

    With one backend there is nothing to keep consistent across replicas,
    so the backend's own concurrency control is enough.
    """

    def _acquire_read(self, request: AbstractRequest) -> None:
        return None

    def _acquire_write(self, request: AbstractRequest) -> None:
        return None

    def _release_read(self, request: AbstractRequest) -> None:
        return None

    def _release_write(self, request: AbstractRequest) -> None:
        return None


class OptimisticTransactionLevelScheduler(AbstractScheduler):
    """Writes are mutually exclusive; reads proceed concurrently with anything.

    This matches §2.4.1: "At any given time only a single update, commit or
    abort is in progress on a particular virtual database.  Multiple reads
    from different transactions can be going on at the same time."
    """

    def __init__(self):
        super().__init__()
        self._write_mutex = threading.Lock()

    def _acquire_read(self, request: AbstractRequest) -> None:
        return None

    def _acquire_write(self, request: AbstractRequest) -> None:
        self._write_mutex.acquire()

    def _release_read(self, request: AbstractRequest) -> None:
        return None

    def _release_write(self, request: AbstractRequest) -> None:
        self._write_mutex.release()


class PessimisticTransactionLevelScheduler(AbstractScheduler):
    """Writes are exclusive with respect to both reads and other writes.

    Reads use a shared lock; a write drains readers before executing.  This
    provides the strongest scheduling guarantee (no read ever observes a
    half-propagated write on any backend) at the cost of read concurrency.

    Writers take preference: once a writer is waiting, new readers queue
    behind it instead of piling onto the shared lock — otherwise a
    continuous reader stream keeps ``_active_readers > 0`` forever and the
    writer starves.
    """

    def __init__(self):
        super().__init__()
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._waiting_writers = 0

    def _acquire_read(self, request: AbstractRequest) -> None:
        with self._condition:
            while self._writer_active or self._waiting_writers:
                self._condition.wait()
            self._active_readers += 1

    def _acquire_write(self, request: AbstractRequest) -> None:
        with self._condition:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers > 0:
                    self._condition.wait()
                self._writer_active = True
            finally:
                self._waiting_writers -= 1
                if not self._writer_active:
                    # an interrupted wait must not leave readers queued
                    # behind a writer that will never run
                    self._condition.notify_all()

    def _release_read(self, request: AbstractRequest) -> None:
        with self._condition:
            self._active_readers = max(0, self._active_readers - 1)
            self._condition.notify_all()

    def _release_write(self, request: AbstractRequest) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()
