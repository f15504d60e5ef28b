"""Checkpointing service and backend re-integration (paper §3.1).

The paper has one procedure:

1. insert a checkpoint marker in the recovery log;
2. dump the database content with the Octopus-like ETL tool;
3. restore the dump into the backend being integrated;
4. replay from the recovery log the updates recorded since the marker;
5. re-enable the backend.

Here it is two primitives.  :meth:`CheckpointingService.cut` is steps 1-2: a
marker and a dump that agree exactly, taken under the scheduler's write
barrier.  :meth:`CheckpointingService.catch_up` is steps 3-5: restore, replay
the log from the marker while writes keep flowing, then under the barrier
replay what arrived meanwhile, settle transactions and enable.

The same machinery takes an operator's online checkpoint
(:meth:`CheckpointingService.checkpoint_backend`), recovers a failed backend
or integrates a brand new one (:class:`repro.core.failover.BackendResynchronizer`)
and synchronizes a joining controller
(:class:`repro.distrib.DistributedVirtualDatabase`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.backend import DatabaseBackend
from repro.core.recovery.octopus import Octopus, PortableDump
from repro.core.recovery.recovery_log import MemoryRecoveryLog
from repro.errors import CheckpointError
from repro.sql.engine import DatabaseEngine


@dataclass
class Checkpoint:
    """A named dump plus its position in the recovery log."""

    name: str
    dump: PortableDump
    #: backend whose table set the dump holds ("" = the whole database)
    backend_name: str
    #: a log position at or just before its marker: what it keeps the log from
    position: int = 0

    @property
    def row_count(self) -> int:
        return self.dump.row_count()


class CheckpointingService:
    """Manages checkpoints ("database dumps management" box of Figure 1)."""

    def __init__(self, virtual_database, octopus: Optional[Octopus] = None):
        self.virtual_database = virtual_database
        log = virtual_database.request_manager.recovery_log
        self.recovery_log = log if log is not None else MemoryRecoveryLog()
        self.octopus = octopus or Octopus()
        self._checkpoints: Dict[str, Checkpoint] = {}
        #: log positions held by :meth:`reachable_from_here`
        self._held: List[int] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._tell_floor()

    # -- what the log must keep -----------------------------------------------------

    def _tell_floor(self) -> None:
        """Tell the log the oldest position a recovery can still start from.

        This service is the log's only reader: a stored checkpoint is replayed
        from its marker, a cut in progress from the position it holds, and with
        neither nothing recorded before now is reachable (paper §3.2: a
        checkpoint is what bounds the log).
        """
        positions = self._held + [c.position for c in self._checkpoints.values()]
        self.recovery_log.retain_from(min(positions, default=None))

    @contextmanager
    def reachable_from_here(self) -> Iterator[int]:
        """Keep the log from its present position while the context is held.

        Entered before a marker goes in, so that the marker and every write
        after it stay readable until the cut is stored or given up.
        """
        with self._lock:
            position = len(self.recovery_log)
            self._held.append(position)
            self._tell_floor()
        try:
            yield position
        finally:
            with self._lock:
                self._held.remove(position)
                self._tell_floor()

    # -- the checkpoint store -----------------------------------------------------

    def store_checkpoint(self, checkpoint: Checkpoint) -> None:
        with self._lock:
            # the dict is kept in marker order: a re-taken name moves to the end
            self._checkpoints.pop(checkpoint.name, None)
            self._checkpoints[checkpoint.name] = checkpoint
            self._tell_floor()

    def get_checkpoint(self, name: str) -> Checkpoint:
        with self._lock:
            try:
                return self._checkpoints[name]
            except KeyError:
                raise CheckpointError(f"unknown checkpoint {name!r}") from None

    def checkpoint_names(self) -> List[str]:
        with self._lock:
            return sorted(self._checkpoints)

    def last_checkpoint(self, backend_name: Optional[str] = None) -> Optional[Checkpoint]:
        """The most recently taken checkpoint, of one backend when named.

        Re-integration prefers a dump of the backend itself: under partial
        replication (RAIDb-0/2) another backend's dump holds a different
        table subset and must not be restored blindly.
        """
        with self._lock:
            for checkpoint in reversed(self._checkpoints.values()):
                if backend_name is None or checkpoint.backend_name == backend_name:
                    return checkpoint
        return None

    def next_checkpoint_name(self, prefix: str = "checkpoint") -> str:
        with self._lock:
            self._counter += 1
            return f"{prefix}-{self._counter:04d}"

    def _engine(self, backend: DatabaseBackend) -> DatabaseEngine:
        engine = self.virtual_database.backend_engine(backend.name)
        if engine is None:
            raise CheckpointError(
                f"backend {backend.name!r} has no registered engine to dump or restore"
            )
        return engine

    # -- cut: marker + dump ---------------------------------------------------------

    def cut(
        self,
        target: Optional[DatabaseBackend] = None,
        source: Optional[DatabaseBackend] = None,
        name: Optional[str] = None,
    ) -> Checkpoint:
        """Cut a checkpoint (see :meth:`cutting`) and store it for later recoveries."""
        with self.cutting(target, source, name) as checkpoint:
            self.store_checkpoint(checkpoint)
        return checkpoint

    @contextmanager
    def cutting(
        self,
        target: Optional[DatabaseBackend] = None,
        source: Optional[DatabaseBackend] = None,
        name: Optional[str] = None,
    ) -> Iterator[Checkpoint]:
        """Cut a checkpoint: a log marker and a dump that agree exactly.

        The scheduler orders every write before any backend sees it, so its
        write barrier is the one place a consistent cut can be taken: under
        it no write is in flight, and the marker splits the log precisely at
        the dumped content.  Reads keep being served.

        With ``source`` (the paper's online checkpoint) that backend leaves
        the cluster *at the marker* and is dumped after the barrier is
        released, so the other backends take writes during the dump.
        Otherwise every table ``target`` hosts — the whole database under
        full replication, or with no target (a joining controller) — is
        dumped inside the barrier from a live backend hosting it, which
        stays ENABLED.  A table with no live host raises
        :class:`CheckpointError` rather than restoring a stale table.

        The checkpoint can be caught up from while the context is held; a
        cut made to serve one :meth:`catch_up` ends there, and neither its
        dump nor its stretch of the log outlives it.
        """
        name = name or self.next_checkpoint_name()
        engine = self._engine(source) if source is not None else None
        with self.reachable_from_here() as position:
            with self.virtual_database.request_manager.scheduler.write_barrier():
                self.recovery_log.insert_checkpoint_marker(name)
                if source is None:
                    dump = self._dump_live_hosts(name, target)
                else:
                    source.disable()
                    source.set_recovering()
                    source.last_known_checkpoint = name
            if source is not None:
                try:
                    dump = self.octopus.dump_engine(engine, name)
                except Exception as exc:
                    source.disable()
                    raise CheckpointError(f"checkpoint of {source.name!r} failed: {exc}") from exc
            owner = source or target
            yield Checkpoint(name, dump, owner.name if owner is not None else "", position)

    def _dump_live_hosts(self, name: str, target: Optional[DatabaseBackend]) -> PortableDump:
        vdb = self.virtual_database
        manager = vdb.request_manager
        donors = [
            (peer, engine)
            for peer in manager.enabled_backends()
            if peer is not target and (engine := vdb.backend_engine(peer.name)) is not None
        ]
        if target is None or manager.load_balancer.raidb_level == "RAIDb-1":
            if not donors:
                raise CheckpointError("no live backend engine to cut a checkpoint from")
            return self.octopus.dump_engine(donors[0][1], name)
        dump = PortableDump(name)
        missing = target.tables
        for peer, engine in donors:
            hosted = missing & peer.tables
            if hosted:
                part = self.octopus.dump_engine(engine, name, tables=hosted)
                dump.tables.extend(part.tables)
                dump.rows.update(part.rows)
                missing -= hosted
        if missing:
            raise CheckpointError(
                f"no live backend hosts {', '.join(sorted(missing))}"
                f" to cut a checkpoint for backend {target.name!r} from"
            )
        return dump

    # -- catch_up: restore + replay + barrier + enable ----------------------------------

    def catch_up(
        self, backend: DatabaseBackend, checkpoint: Checkpoint, restore: bool = True
    ) -> int:
        """Bring ``backend`` from ``checkpoint`` to the present and enable it.

        Restores the dump (``restore=False``: the backend *is* the dump's
        source and still holds its content), replays the log tail recorded
        since the marker while writes keep flowing and being logged, then
        takes the write barrier, replays what arrived during the online
        replay, settles transactions — one the request manager still tracks
        stays open so the client's own COMMIT/ROLLBACK reaches this backend,
        any other is rolled back — and enables the backend before a single
        new write can pass.  Returns the number of log entries replayed.
        """
        manager = self.virtual_database.request_manager
        backend.set_recovering()
        # drop transactions a previous failed attempt may have left open
        backend.abort_all_transactions()
        if restore:
            self.octopus.restore_engine(checkpoint.dump, self._engine(backend), truncate=True)
        backend.last_known_checkpoint = checkpoint.name
        tail = self.recovery_log.entries_since_checkpoint(checkpoint.name)
        manager.replay_log_entries(backend, tail)
        with manager.scheduler.write_barrier():
            delta = self.recovery_log.entries_since_checkpoint(checkpoint.name)[len(tail):]
            manager.replay_log_entries(backend, delta)
            manager.settle_replayed_transactions(backend)
            backend.enable()
            if manager.failure_detector is not None:
                manager.failure_detector.note_backend_recovered(backend)
        return len(tail) + len(delta)

    # -- the operator's online checkpoint ------------------------------------------------

    def checkpoint_backend(
        self, backend: DatabaseBackend, name: Optional[str] = None, re_enable: bool = True
    ) -> Checkpoint:
        """Checkpoint ``backend`` online: it is disabled only during its own dump.

        The other backends keep serving; what they took meanwhile is caught
        up before the backend is re-enabled (``re_enable=False`` leaves it
        disabled: the dump is what a later recovery restores).
        """
        checkpoint = self.cut(source=backend, name=name)
        if not re_enable:
            backend.disable()
            return checkpoint
        try:
            self.catch_up(backend, checkpoint, restore=False)
        except Exception as exc:
            backend.disable()
            raise CheckpointError(f"checkpoint of {backend.name!r} failed: {exc}") from exc
        return checkpoint
