"""Automatic failure detection and live backend re-integration.

Paper §2.4.1: "C-JDBC does not use 2-phase commit.  Instead, it provides
tools to automatically re-integrate failed backends into a virtual
database."  This module supplies the two halves of that story:

* :class:`FailureDetector` — the policy deciding *when* a backend leaves the
  cluster.  It is wired into
  :attr:`repro.core.loadbalancer.base.AbstractLoadBalancer.on_backend_failure`
  by the request manager: a backend failing a write/commit/abort is disabled
  immediately (the paper's rule), and a backend exceeding an error threshold
  on reads is disabled too.  Every disable inserts a *failover checkpoint
  marker* in the recovery log (recording the moment the backend left the
  cluster), notifies listeners, and optionally hands the backend to the
  resynchronizer.
* :class:`BackendResynchronizer` — the self-healing worker that brings a
  disabled backend back while the cluster keeps serving traffic.  It owns
  the policy — which checkpoint to come back from, retries, the background
  thread — and the mechanism is the one re-integration procedure of
  :mod:`repro.core.recovery.checkpoint`: ``cut`` a checkpoint from the live
  backends when no dump fits, then ``catch_up`` (restore, replay the log
  tail online, replay the rest under a brief scheduler write barrier,
  settle transactions, re-enable).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.core.backend import BackendState, DatabaseBackend
from repro.errors import CheckpointError, CJDBCError


class FailureDetector:
    """Decides when a failing backend is disabled, and records the evidence.

    One detector serves one virtual database.  Write-path failures (write,
    batch, commit, abort) disable the backend unconditionally — without
    2-phase commit a backend that missed a write is diverged and must not
    serve reads.  Read-path failures are transient until
    ``read_error_threshold`` of them accumulate for the same backend (the
    counter resets when the backend comes back).
    """

    def __init__(
        self,
        request_manager,
        read_error_threshold: int = 3,
        checkpoint_prefix: str = "failover",
        clock: Callable[[], float] = time.monotonic,
    ):
        if read_error_threshold < 1:
            raise CJDBCError("read_error_threshold must be >= 1")
        self.request_manager = request_manager
        self.read_error_threshold = read_error_threshold
        self.checkpoint_prefix = checkpoint_prefix
        self._clock = clock
        self._lock = threading.Lock()
        self._read_errors: Dict[str, int] = {}
        #: backends whose disable is in flight (claimed under the lock, so
        #: concurrent failure reports cannot double-disable one backend)
        self._disabling: set = set()
        self._marker_ids = itertools.count(1)
        #: disable records: backend, kind, error, checkpoint marker, timestamp
        self.events: List[dict] = []
        #: extra listeners called with (backend, exc, event) after a disable
        self._listeners: List[Callable[[DatabaseBackend, Exception, dict], None]] = []
        self.backends_disabled = 0
        self.read_errors_recorded = 0

    # -- wiring ------------------------------------------------------------------------

    def add_listener(
        self, listener: Callable[[DatabaseBackend, Exception, dict], None]
    ) -> None:
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- failure reports ----------------------------------------------------------------
    # Called from the request's own thread, or from a load-balancer writer thread
    # when an early response left stragglers running.

    def record_write_failure(self, backend: DatabaseBackend, exc: Exception) -> bool:
        """A write/batch/commit/abort failed on ``backend``: disable it."""
        return self._disable(backend, exc, kind="write")

    def record_read_failure(self, backend: DatabaseBackend, exc: Exception) -> bool:
        """A read failed; disable the backend once the threshold is crossed."""
        with self._lock:
            self.read_errors_recorded += 1
            count = self._read_errors.get(backend.name, 0) + 1
            self._read_errors[backend.name] = count
        if count >= self.read_error_threshold:
            return self._disable(backend, exc, kind="read")
        return False

    def note_backend_recovered(self, backend: DatabaseBackend) -> None:
        """Reset the read-error budget of a re-integrated backend."""
        with self._lock:
            self._read_errors.pop(backend.name, None)

    def read_error_count(self, backend_name: str) -> int:
        with self._lock:
            return self._read_errors.get(backend_name, 0)

    # -- the disable path ----------------------------------------------------------------

    def _disable(self, backend: DatabaseBackend, exc: Exception, kind: str) -> bool:
        with self._lock:
            if (
                backend.state is not BackendState.ENABLED
                or backend.name in self._disabling
            ):
                return False  # already disabled/recovering: one event per failure
            # claim the disable before releasing the lock: backend.disable()
            # runs outside it, and a racing failure report must not repeat
            # the marker/event/listener sequence in that window
            self._disabling.add(backend.name)
            marker: Optional[str] = None
            log = self.request_manager.recovery_log
            if log is not None:
                marker = (
                    f"{self.checkpoint_prefix}-{backend.name}-{next(self._marker_ids)}"
                )
                log.insert_checkpoint_marker(marker)
            event = {
                "backend": backend.name,
                "kind": kind,
                "error": str(exc),
                "checkpoint": marker,
                "at": self._clock(),
            }
            self.events.append(event)
            self.backends_disabled += 1
            self._read_errors.pop(backend.name, None)
            listeners = list(self._listeners)
        try:
            backend.disable()
            for listener in listeners:
                listener(backend, exc, event)
        finally:
            with self._lock:
                self._disabling.discard(backend.name)
        return True

    # -- monitoring ----------------------------------------------------------------------

    def statistics(self) -> dict:
        with self._lock:
            return {
                "read_error_threshold": self.read_error_threshold,
                "backends_disabled": self.backends_disabled,
                "read_errors_recorded": self.read_errors_recorded,
                "pending_read_errors": dict(self._read_errors),
                "events": [dict(event) for event in self.events],
            }


class BackendResynchronizer:
    """Background worker re-integrating disabled backends from the recovery log.

    Owned by a :class:`repro.core.virtualdb.VirtualDatabase`.  A resync
    comes back from the named checkpoint, else the backend's own most recent
    one, else (full replication, where any dump is the whole database) the
    most recent of any backend, else a fresh
    :meth:`~repro.core.recovery.checkpoint.CheckpointingService.cut` of the
    tables it hosts from the live backends; then
    :meth:`~repro.core.recovery.checkpoint.CheckpointingService.catch_up`
    restores, replays and re-enables it.

    Failures (e.g. the backend is still crashed) are retried up to
    ``max_attempts`` with ``retry_delay`` between attempts; each outcome is
    recorded in :attr:`history`.
    """

    def __init__(
        self,
        virtual_database,
        max_attempts: int = 5,
        retry_delay: float = 0.05,
    ):
        self.virtual_database = virtual_database
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self._lock = threading.Lock()
        self._threads: Dict[str, threading.Thread] = {}
        #: one mutex per backend: a manual resynchronize() racing the
        #: background worker must never truncate-restore the same engine
        #: concurrently
        self._backend_locks: Dict[str, threading.Lock] = {}
        #: one record per finished resync attempt series
        self.history: List[dict] = []
        self.resyncs_started = 0
        self.resyncs_succeeded = 0
        self.resyncs_failed = 0

    # -- public API -------------------------------------------------------------------

    def schedule(self, backend_name: str, delay: float = 0.0) -> threading.Thread:
        """Start (or join onto) a background resync of ``backend_name``."""
        with self._lock:
            existing = self._threads.get(backend_name)
            if existing is not None and existing.is_alive():
                return existing
            thread = threading.Thread(
                target=self._run,
                args=(backend_name, delay),
                name=f"cjdbc-resync-{backend_name}",
                daemon=True,
            )
            self._threads[backend_name] = thread
            self.resyncs_started += 1
        thread.start()
        return thread

    def resynchronize(self, backend_name: str, checkpoint: Optional[str] = None) -> int:
        """Synchronous resync; returns the number of log entries replayed."""
        with self._lock:
            self.resyncs_started += 1
        return self._resync_with_retries(backend_name, checkpoint)

    def wait(self, backend_name: Optional[str] = None, timeout: float = 10.0) -> None:
        """Block until the named (or every) background resync finishes."""
        with self._lock:
            threads = (
                [self._threads[backend_name]]
                if backend_name is not None and backend_name in self._threads
                else list(self._threads.values())
            )
        for thread in threads:
            thread.join(timeout)

    # -- worker ------------------------------------------------------------------------

    def _run(self, backend_name: str, delay: float) -> None:
        if delay > 0:
            time.sleep(delay)
        try:
            self._resync_with_retries(backend_name)
        except Exception:  # noqa: BLE001 - recorded in history, thread must not die loudly
            pass

    def _backend_lock(self, backend_name: str) -> threading.Lock:
        with self._lock:
            lock = self._backend_locks.get(backend_name)
            if lock is None:
                lock = self._backend_locks[backend_name] = threading.Lock()
            return lock

    def _resync_with_retries(self, backend_name: str, checkpoint: Optional[str] = None) -> int:
        with self._backend_lock(backend_name):
            return self._locked_resync_with_retries(backend_name, checkpoint)

    def _locked_resync_with_retries(self, backend_name: str, checkpoint: Optional[str]) -> int:
        record = {
            "backend": backend_name,
            "attempts": 0,
            "replayed": 0,
            "ok": False,
            "error": None,
            "started_at": time.monotonic(),
            "finished_at": None,
        }
        error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            record["attempts"] = attempt + 1
            try:
                record["replayed"] = self._attempt(backend_name, checkpoint)
                record["ok"] = True
                error = None
                break
            except Exception as exc:  # noqa: BLE001 - retried below
                error = exc
                record["error"] = str(exc)
                if attempt + 1 < self.max_attempts:
                    time.sleep(self.retry_delay)
        record["finished_at"] = time.monotonic()
        with self._lock:
            self.history.append(record)
            if record["ok"]:
                self.resyncs_succeeded += 1
            else:
                self.resyncs_failed += 1
        if error is not None:
            # not RECOVERING anymore: the backend is plainly out of service
            # until another resync (or an operator) brings it back
            try:
                self.virtual_database.request_manager.get_backend(backend_name).disable()
            except CJDBCError:
                pass
            raise CheckpointError(
                f"resynchronization of backend {backend_name!r} failed after"
                f" {record['attempts']} attempts: {error}"
            ) from error
        return record["replayed"]

    def _attempt(self, backend_name: str, checkpoint_name: Optional[str]) -> int:
        vdb = self.virtual_database
        manager = vdb.request_manager
        service = vdb.checkpointing_service
        backend = manager.get_backend(backend_name)
        if manager.recovery_log is None:
            raise CheckpointError(
                "resynchronization needs a recovery log (recovery_log: none"
                " disables re-integration)"
            )
        if backend.is_enabled:
            # another resync (or an operator) already brought it back; do
            # not truncate-restore an engine that is serving traffic
            return 0
        if checkpoint_name is not None:
            checkpoint = service.get_checkpoint(checkpoint_name)
        else:
            checkpoint = service.last_checkpoint(backend.name)
            if checkpoint is None and manager.load_balancer.raidb_level == "RAIDb-1":
                checkpoint = service.last_checkpoint()
        if checkpoint is not None:
            return service.catch_up(backend, checkpoint)
        # no dump fits: cut one from the live backends, for this catch-up only
        with service.cutting(target=backend) as checkpoint:
            return service.catch_up(backend, checkpoint)

    # -- monitoring --------------------------------------------------------------------

    def statistics(self) -> dict:
        with self._lock:
            return {
                "max_attempts": self.max_attempts,
                "resyncs_started": self.resyncs_started,
                "resyncs_succeeded": self.resyncs_succeeded,
                "resyncs_failed": self.resyncs_failed,
                "history": [dict(record) for record in self.history],
            }


__all__ = ["BackendResynchronizer", "FailureDetector"]
