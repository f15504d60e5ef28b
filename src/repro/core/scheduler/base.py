"""Scheduler implementations: one lock table, one pair of lock plans per variant.

The contract is small: the request manager calls :meth:`schedule_read` /
:meth:`schedule_write` before handing the request to the cache / load
balancer and calls :meth:`SchedulerTicket.release` when the operation has
completed on every backend involved.  Write tickets carry a monotonically
increasing *write order* identifier, taken once the write holds its locks:
two writes that conflict cannot hold their locks together, so their ticket
order is their execution order on every backend — the total order property
of §2.4.1.

Every variant is the same mechanism, :class:`AbstractScheduler`'s lock
table, driven by two *lock plans*: the ``(key, exclusive)`` pairs a read and
a write lock, in acquisition order.  A key is a parsed table name or the
global pseudo-key ``"*"``:

============================  =======  ===================  =================
variant                       read     write                commit / rollback
============================  =======  ===================  =================
``passthrough``               —        —                    —
``optimistic`` / ``mvcc``     —        X ``*``              X ``*``
``pessimistic``               S ``*``  X ``*``              X ``*``
``table_lock``                S each   S ``*`` + X each     S ``*``
============================  =======  ===================  =================

and :meth:`~AbstractScheduler.write_barrier` takes X ``*`` under every
variant.  Deadlock freedom comes from ordered acquisition: ``"*"`` first,
then tables in sorted name order, so no cycle of waiters can form.  A
waiting exclusive locker blocks *new* shared lockers on its key (writer
preference, and the mechanism by which a pending barrier stops admitting
writes).

Every scheduler also records how long callers waited for their locks
(count of blocked acquisitions, total and maximum wait) so the contention
ablation can compare variants without instrumenting callers.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.core.request import AbstractRequest
from repro.errors import LockTimeoutError

#: an acquire slower than this is counted as "waited" — an uncontended
#: lock acquisition is microseconds, a parked thread is milliseconds
_WAIT_THRESHOLD_SECONDS = 0.001

#: the pseudo-key of the whole virtual database; sorts before any real
#: (alphanumeric) table name, preserving ordered acquisition
_GLOBAL = "*"

#: (lock key, exclusive?) pairs, in acquisition order
LockPlan = Tuple[Tuple[str, bool], ...]

_SHARED_GLOBAL: LockPlan = ((_GLOBAL, False),)
_EXCLUSIVE_GLOBAL: LockPlan = ((_GLOBAL, True),)


class SchedulerTicket:
    """Handle returned by the scheduler; must be released after execution."""

    def __init__(
        self, scheduler: "AbstractScheduler", request: AbstractRequest, order: int, plan: LockPlan
    ):
        self._scheduler = scheduler
        self.request = request
        #: global ordering number; meaningful for writes/commits/aborts
        self.order = order
        #: the locks this ticket holds until it is released
        self.plan = plan
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


class _LockEntry:
    """Reader/writer state of one lock key."""

    __slots__ = ("readers", "writer", "waiting_exclusive")

    def __init__(self):
        self.readers = 0
        self.writer = False
        self.waiting_exclusive = 0


class AbstractScheduler:
    """The lock table and bookkeeping every variant shares.

    A variant declares only :meth:`_read_plan` and :meth:`_write_plan`; the
    defaults are the §2.4.1 optimistic plans (reads lock nothing, a write /
    commit / abort locks ``"*"`` exclusively).
    """

    #: seconds one request may wait for its whole lock plan (None = forever)
    lock_timeout: Optional[float] = None

    def __init__(self):
        self._order_counter = itertools.count(1)
        self._order_lock = threading.Lock()
        self.reads_scheduled = 0
        self.writes_scheduled = 0
        self.pending_writes = 0
        self.write_barriers = 0
        self._read_wait = _WaitStats()
        self._write_wait = _WaitStats()
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._locks: Dict[str, _LockEntry] = {}
        #: threads parked in :meth:`_wait`; a release with none skips the notify
        self._waiters = 0
        self.lock_waits = 0
        self.lock_timeouts = 0

    # -- lock plans ---------------------------------------------------------------

    def _read_plan(self, request: AbstractRequest) -> LockPlan:
        return ()

    def _write_plan(self, request: AbstractRequest) -> LockPlan:
        return _EXCLUSIVE_GLOBAL

    # -- public API -----------------------------------------------------------

    def schedule_read(self, request: AbstractRequest) -> SchedulerTicket:
        plan = self._read_plan(request)
        started = time.perf_counter()
        if plan:
            self._acquire(plan)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.reads_scheduled += 1
            self._read_wait.record(waited)
        return SchedulerTicket(self, request, 0, plan)

    def schedule_write(self, request: AbstractRequest) -> SchedulerTicket:
        """Schedule a write / commit / abort.  Blocks until it may proceed."""
        plan = self._write_plan(request)
        started = time.perf_counter()
        if plan:
            self._acquire(plan)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.writes_scheduled += 1
            self.pending_writes += 1
            self._write_wait.record(waited)
            order = next(self._order_counter)
        return SchedulerTicket(self, request, order, plan)

    @contextmanager
    def write_barrier(self) -> Iterator[None]:
        """Block new writes/commits/aborts while the context is held.

        Used by backend re-integration
        (:mod:`repro.core.recovery.checkpoint`): ``cut`` holds it to take a
        log marker and a dump that agree exactly, and ``catch_up`` replays
        the recovery-log tail online, then acquires it to replay the last
        entries and re-enable the backend with no write racing the switch.
        The barrier locks ``"*"`` exclusively under every variant: it waits
        for the in-flight writes and excludes new ones wherever the
        variant's write plan touches ``"*"`` (all but ``passthrough``, whose
        writes lock nothing), and blocks reads only where the read plan
        shares ``"*"`` (``pessimistic``).  Two barriers never overlap.
        """
        started = time.perf_counter()
        self._acquire(_EXCLUSIVE_GLOBAL)
        waited = time.perf_counter() - started
        with self._order_lock:
            self.write_barriers += 1
            self._write_wait.record(waited)
        try:
            yield
        finally:
            self._release_plan(_EXCLUSIVE_GLOBAL)

    def _release(self, ticket: SchedulerTicket) -> None:
        if ticket.order:
            with self._order_lock:
                self.pending_writes = max(0, self.pending_writes - 1)
        if ticket.plan:
            self._release_plan(ticket.plan)

    # -- the lock table -------------------------------------------------------------

    def _acquire(self, plan: LockPlan) -> None:
        """Take every lock of a non-empty ``plan``, in order."""
        deadline = None if self.lock_timeout is None else time.monotonic() + self.lock_timeout
        blocked = False
        held = 0
        with self._mutex:
            try:
                for key, exclusive in plan:
                    entry = self._entry(key)
                    if exclusive:
                        # counted as waiting, the entry is never dropped as idle
                        entry.waiting_exclusive += 1
                        try:
                            while entry.writer or entry.readers:
                                blocked = True
                                self._wait(deadline, key)
                        finally:
                            entry.waiting_exclusive -= 1
                        entry.writer = True
                    else:
                        while entry.writer or entry.waiting_exclusive:
                            blocked = True
                            self._wait(deadline, key)
                            # the entry may have gone idle and been dropped
                            # while this shared waiter slept: look it up again
                            entry = self._entry(key)
                        entry.readers += 1
                    held += 1
            except BaseException:
                # partial acquisition: give back what was taken, and wake
                # the shared lockers a withdrawn exclusive waiter held back
                self._release_held(plan[:held])
                self._condition.notify_all()
                raise
            if blocked:
                self.lock_waits += 1

    def _entry(self, key: str) -> _LockEntry:
        """The entry of ``key``, created when absent; caller holds the mutex."""
        entry = self._locks.get(key)
        if entry is None:
            entry = self._locks[key] = _LockEntry()
        return entry

    def _wait(self, deadline: Optional[float], key: str) -> None:
        """One bounded wait on the condition; raises on a passed deadline."""
        remaining = None if deadline is None else deadline - time.monotonic()
        self._waiters += 1
        try:
            woken = (remaining is None or remaining > 0) and self._condition.wait(remaining)
        finally:
            self._waiters -= 1
        if not woken and deadline - time.monotonic() <= 0:
            self.lock_timeouts += 1
            raise LockTimeoutError(f"lock on {key!r} not acquired within {self.lock_timeout}s")

    def _release_plan(self, plan: LockPlan) -> None:
        with self._mutex:
            self._release_held(plan)
            if self._waiters:
                self._condition.notify_all()

    def _release_held(self, held: Sequence[Tuple[str, bool]]) -> None:
        """Release (key, exclusive) pairs; caller holds the mutex."""
        for key, exclusive in held:
            entry = self._locks[key]  # a held key's entry is never idle
            if exclusive:
                entry.writer = False
            else:
                entry.readers -= 1
            if not (entry.readers or entry.writer or entry.waiting_exclusive):
                del self._locks[key]

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

    def _write_plan(self, request: AbstractRequest) -> LockPlan:
        return ()


class OptimisticTransactionLevelScheduler(AbstractScheduler):
    """Writes are mutually exclusive; reads proceed concurrently with anything.

    This matches §2.4.1: "At any given time only a single update, commit or
    abort is in progress on a particular virtual database.  Multiple reads
    from different transactions can be going on at the same time."  These
    are the base class's plans.
    """


class PessimisticTransactionLevelScheduler(AbstractScheduler):
    """Writes are exclusive with respect to both reads and other writes.

    One global S/X key: reads share ``"*"``, a write takes it exclusively and
    so drains readers before executing.  No read ever observes a
    half-propagated write on any backend, at the cost of read concurrency.
    Writers take preference: once a writer is waiting, new readers queue
    behind it, so a continuous reader stream cannot starve it.
    """

    def _read_plan(self, request: AbstractRequest) -> LockPlan:
        return _SHARED_GLOBAL


class TableLockScheduler(AbstractScheduler):
    """Shared/exclusive locks per parsed table (``request.tables``).

    A read shares each of its tables; a write shares ``"*"`` and then locks
    each of its tables exclusively, so writes on disjoint tables proceed
    concurrently and writes on the same table are serialised (every backend
    still applies conflicting writes in the same order).  A commit/abort
    shares only ``"*"``.  A write or DDL whose tables the parser could not
    name (``DROP INDEX i``) locks ``"*"`` exclusively: it may touch any
    table, so it is ordered against every write.
    """

    def __init__(self, lock_timeout: Optional[float] = None):
        super().__init__()
        if lock_timeout is not None and lock_timeout <= 0:
            raise ValueError(f"lock_timeout must be positive, got {lock_timeout!r}")
        self.lock_timeout = lock_timeout

    @staticmethod
    def _tables(request: AbstractRequest) -> Sequence[str]:
        return sorted({table.lower() for table in (request.tables or ())})

    def _read_plan(self, request: AbstractRequest) -> LockPlan:
        return tuple((table, False) for table in self._tables(request))

    def _write_plan(self, request: AbstractRequest) -> LockPlan:
        tables = self._tables(request)
        if tables:
            return _SHARED_GLOBAL + tuple((table, True) for table in tables)
        return _EXCLUSIVE_GLOBAL if request.alters_database else _SHARED_GLOBAL

    def statistics(self) -> dict:
        stats = super().statistics()
        with self._mutex:
            stats["table_lock"] = {
                "lock_timeout": self.lock_timeout,
                "lock_waits": self.lock_waits,
                "lock_timeouts": self.lock_timeouts,
                "locked_tables": len(self._locks),
            }
        return stats
