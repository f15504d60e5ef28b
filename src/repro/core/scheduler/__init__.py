"""Request schedulers (paper §2.4.1).

The scheduler decides when a request may proceed and guarantees that all
backends see updates, commits and aborts in the same order.  There is one
mechanism, the lock table of :class:`AbstractScheduler` (shared/exclusive
locks on parsed tables and the global pseudo-key ``"*"``, ordered
acquisition, writer preference, optional ``lock_timeout``), and five
variants, each of which only declares what a read and a write lock — the
three matching the C-JDBC distribution plus two finer-grained ones:

* :class:`PassThroughScheduler` — locks nothing, for single-backend
  virtual databases;
* :class:`OptimisticTransactionLevelScheduler` — a write / commit / abort
  locks ``"*"`` exclusively, reads lock nothing and never block;
* :class:`PessimisticTransactionLevelScheduler` — one global S/X key: reads
  share ``"*"``, so they wait while a write is in flight, and a waiting
  writer is preferred so a reader stream cannot starve it;
* :class:`TableLockScheduler` — shared/exclusive locks per parsed table:
  writes on disjoint tables run concurrently, reads block only on tables
  being written, a write with no parsed table locks ``"*"`` exclusively;
* :class:`MVCCScheduler` — the optimistic locks plus snapshot metadata:
  reads are stamped with the committed version they logically read at,
  and first-committer-wins validation aborts conflicting transactions with
  :class:`~repro.errors.SerializationConflictError`.

:func:`build_scheduler` turns the ``scheduler:`` configuration knob (a name
or an options mapping, parsed by :func:`parse_scheduler` through
:mod:`repro.core.schema`) into an instance.
"""

from repro.core.scheduler.base import (
    AbstractScheduler,
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
    SchedulerTicket,
    TableLockScheduler,
)
from repro.core.scheduler.factory import (
    SCHEDULER_NAMES,
    build_scheduler,
    canonical_scheduler_name,
    describe_scheduler,
    parse_scheduler,
)
from repro.core.scheduler.mvcc import MVCCScheduler

__all__ = [
    "AbstractScheduler",
    "SchedulerTicket",
    "PassThroughScheduler",
    "OptimisticTransactionLevelScheduler",
    "PessimisticTransactionLevelScheduler",
    "TableLockScheduler",
    "MVCCScheduler",
    "SCHEDULER_NAMES",
    "build_scheduler",
    "canonical_scheduler_name",
    "describe_scheduler",
    "parse_scheduler",
]
