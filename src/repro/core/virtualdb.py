"""Virtual database: the single database view exposed to clients (paper §2.2).

A virtual database groups an authentication manager, a request manager
(scheduler + load balancer + optional cache and recovery log) and a set of
database backends.  It also owns the checkpointing service used to take
backend snapshots and to re-integrate failed or new backends.

The virtual database points the execution pipeline's authenticate stage at
its authentication manager; the interceptors declared by the cluster
descriptor are installed by the request manager that owns the pipeline.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.core.authentication import AuthenticationManager
from repro.core.backend import DatabaseBackend
from repro.core.failover import BackendResynchronizer
from repro.core.faults import FaultInjector
from repro.core.pipeline import Interceptor, InterceptorSpec, Pipeline
from repro.core.recovery.checkpoint import CheckpointingService
from repro.core.request import RequestResult
from repro.core.request_manager import RequestManager
from repro.sql.engine import DatabaseEngine


class VirtualDatabase:
    """A single virtual database hosted by a controller."""

    def __init__(
        self,
        name: str,
        request_manager: RequestManager,
        authentication_manager: Optional[AuthenticationManager] = None,
        group_name: Optional[str] = None,
        auto_resync: bool = False,
    ):
        self.name = name
        self.request_manager = request_manager
        self.authentication_manager = authentication_manager or AuthenticationManager(
            transparent=True
        )
        request_manager.pipeline.use_authentication_manager(self.authentication_manager)
        self.checkpointing_service = CheckpointingService(self)
        # failure detection & self-healing: the request manager's detector
        # owns the disable decision (write failures disable immediately,
        # read failures count against a threshold); the resynchronizer
        # re-integrates disabled backends from the recovery log while the
        # cluster keeps serving
        self.failure_detector = request_manager.failure_detector
        self.resynchronizer = BackendResynchronizer(self)
        self._auto_resync = False
        if auto_resync:
            self.enable_auto_resync()
        #: group name used for horizontal scalability (JGroups group in the paper)
        self.group_name = group_name
        #: engines backing each backend, registered so the checkpointing
        #: service can dump/restore them (only meaningful for local backends)
        self._backend_engines: Dict[str, DatabaseEngine] = {}
        self._lock = threading.RLock()
        self.total_connections = 0

    # -- backend management -----------------------------------------------------------

    @property
    def backends(self) -> List[DatabaseBackend]:
        return self.request_manager.backends

    def add_backend(
        self,
        backend: DatabaseBackend,
        engine: Optional[DatabaseEngine] = None,
        enable: bool = True,
    ) -> None:
        """Register a backend; ``engine`` enables checkpoint/restore for it."""
        self.request_manager.add_backend(backend)
        if engine is not None:
            with self._lock:
                self._backend_engines[backend.name] = engine
        if enable:
            backend.enable()

    def get_backend(self, backend_name: str) -> DatabaseBackend:
        return self.request_manager.get_backend(backend_name)

    def backend_engine(self, backend_name: str) -> Optional[DatabaseEngine]:
        with self._lock:
            return self._backend_engines.get(backend_name)

    def enable_backend(self, backend_name: str, from_checkpoint: Optional[str] = None) -> None:
        """Enable a backend, optionally recovering it from a checkpoint first."""
        if from_checkpoint is not None:
            self.resynchronize_backend(backend_name, from_checkpoint)
        else:
            self.get_backend(backend_name).enable()

    def disable_backend(self, backend_name: str, with_checkpoint: bool = False) -> Optional[str]:
        """Disable a backend; optionally take a checkpoint of it first.

        Returns the checkpoint name when one was taken.
        """
        backend = self.get_backend(backend_name)
        if with_checkpoint:
            return self.checkpointing_service.checkpoint_backend(backend, re_enable=False).name
        backend.disable()
        return None

    def checkpoint_backend(self, backend_name: str, name: Optional[str] = None) -> str:
        """Take an online checkpoint of one backend (it is re-enabled after)."""
        backend = self.get_backend(backend_name)
        return self.checkpointing_service.checkpoint_backend(backend, name).name

    # -- failure detection / self-healing ---------------------------------------------

    def enable_auto_resync(self) -> None:
        """Resynchronize every backend the failure detector disables.

        Once enabled, a backend that fails a write (or crosses the read
        error threshold) is disabled, then handed to the background
        resynchronizer, which restores it from its last dump checkpoint (or
        cuts one from the live backends), replays the recovery-log tail
        online, catches up under a brief write barrier and re-enables it —
        live re-integration, no operator in the loop.  (A crashed backend
        keeps failing the replay; the worker retries a few times and
        records the outcome.)
        """
        if self._auto_resync:
            return
        self._auto_resync = True
        self.failure_detector.add_listener(self._on_backend_disabled_event)

    def disable_auto_resync(self) -> None:
        if self._auto_resync:
            self._auto_resync = False
            self.failure_detector.remove_listener(self._on_backend_disabled_event)

    @property
    def auto_resync(self) -> bool:
        return self._auto_resync

    def _on_backend_disabled_event(self, backend, exc, event) -> None:
        self.resynchronizer.schedule(backend.name)

    def resynchronize_backend(
        self, backend_name: str, checkpoint_name: Optional[str] = None
    ) -> int:
        """Re-integrate a disabled (failed or new) backend; returns entries replayed.

        It comes back from the named checkpoint, or from the one the
        resynchronizer picks (see :class:`BackendResynchronizer`).
        """
        return self.resynchronizer.resynchronize(backend_name, checkpoint_name)

    recover_backend = resynchronize_backend

    def fault_injector(self, backend_name: str, seed: int = 0) -> FaultInjector:
        """The fault injector of one backend, created idle on first access.

        This is the runtime toggle for chaos testing: arm/disarm
        :class:`repro.core.faults.FaultRule` schedules, crash and recover
        the backend, read injection statistics.
        """
        return self.get_backend(backend_name).ensure_fault_injector(seed=seed)

    # -- client entry points ----------------------------------------------------------------

    def check_credentials(self, login: str, password: str) -> None:
        self.authentication_manager.authenticate(login, password)
        with self._lock:
            self.total_connections += 1

    def execute(
        self,
        sql: str,
        parameters: Sequence[object] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        return self.request_manager.execute(
            sql, parameters, login=login, transaction_id=transaction_id
        )

    def explain_route(self, sql: str, login: str = "") -> RequestResult:
        """Plan ``sql`` without executing it, as a tabular result.

        Backs the driver's ``EXPLAIN ROUTE <sql>`` prefix and the console
        ``explain`` command: two columns (``property``, ``value``) listing
        the plan kind, chosen backend(s), per-candidate cost estimates and
        — for scatter-gather reads — the merge strategy and fragments.
        """
        plan = self.request_manager.explain(sql, login=login)
        return RequestResult(columns=["property", "value"], rows=plan.explain_rows())

    def prepare(self, sql: str):
        """Parse ``sql`` once; the handle's executions skip classification.

        Returns a :class:`repro.core.request_manager.PreparedStatementHandle`
        whose ``execute(parameters, ...)`` and ``execute_batch(parameter_sets,
        ...)`` instantiate requests straight from the parsed template.  This
        is the controller half of the driver's
        :class:`repro.core.driver.PreparedStatement`.
        """
        return self.request_manager.prepare(sql)

    def execute_batch(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[object]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        """Execute a write template with N parameter sets as one batch."""
        return self.request_manager.execute_batch(
            sql, parameter_sets, login=login, transaction_id=transaction_id
        )

    def begin(self, login: str = "", transaction_id: Optional[int] = None) -> int:
        return self.request_manager.begin(login, transaction_id=transaction_id)

    def commit(self, transaction_id: int, login: str = "") -> None:
        self.request_manager.commit(transaction_id, login)

    def rollback(self, transaction_id: int, login: str = "") -> None:
        self.request_manager.rollback(transaction_id, login)

    # -- pipeline composition -------------------------------------------------------------------

    @property
    def pipeline(self) -> Pipeline:
        """The execution pipeline every request to this database flows through."""
        return self.request_manager.pipeline

    def add_interceptor(self, interceptor: InterceptorSpec) -> Interceptor:
        """Install an interceptor (instance, built-in name or spec mapping)."""
        return self.pipeline.add_interceptor(interceptor)

    def remove_interceptor(self, name: str) -> Interceptor:
        return self.pipeline.remove_interceptor(name)

    # -- monitoring -----------------------------------------------------------------------------

    def statistics(self) -> dict:
        stats = self.request_manager.statistics()
        stats["virtual_database"] = self.name
        stats["total_connections"] = self.total_connections
        stats["checkpoints"] = self.checkpointing_service.checkpoint_names()
        stats["auto_resync"] = self._auto_resync
        stats["resynchronizer"] = self.resynchronizer.statistics()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualDatabase({self.name!r}, backends={[b.name for b in self.backends]})"
