"""Load balancer base class: read routing, write broadcast, early response.

Writes, commits and aborts are sent to every backend concerned; the
*wait-for-completion* policy (paper §2.4.4, "early response") decides when
the result is returned to the client: after the first backend completes,
after a majority, or after all of them.

When the answer needs every target (``all``, or a single target) the
broadcast runs each target in the caller's thread, in order: the backends
are in-process engines sharing one GIL, so worker threads would overlap
nothing and add a hand-off per backend.  Only an early response (``first``
/ ``majority`` over several targets) uses the writer pool, because only
there do the remaining executions continue after the client is answered;
the per-transaction connection mapping in
:class:`repro.core.backend.DatabaseBackend` guarantees that a later
statement of the same transaction executes after the earlier ones on each
backend (the ordering guarantee called out in the paper).
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.backend import DatabaseBackend
from repro.core.loadbalancer.policies import LeastPendingRequestsFirst, ReadPolicy
from repro.core.request import AbstractRequest, RequestResult
from repro.errors import BackendError, NoMoreBackendError

#: worker threads for early-response broadcasts, the only ones run off the
#: caller's thread (created on first use)
_WRITER_THREADS = 16


class WaitForCompletion(Enum):
    """When to answer the client for a broadcast operation."""

    FIRST = "first"
    MAJORITY = "majority"
    ALL = "all"


@dataclass
class WriteOutcome:
    """Aggregate outcome of broadcasting a write to several backends."""

    result: RequestResult
    successes: List[str] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def backends_executed(self) -> int:
        return len(self.successes)


class AbstractLoadBalancer:
    """Common machinery shared by the RAIDb levels."""

    #: human-readable replication level, overridden by subclasses
    raidb_level = "abstract"

    def __init__(
        self,
        read_policy: Optional[ReadPolicy] = None,
        wait_for_completion: WaitForCompletion = WaitForCompletion.ALL,
    ):
        self.read_policy = read_policy or LeastPendingRequestsFirst()
        self.wait_for_completion = wait_for_completion
        self._executor = ThreadPoolExecutor(
            max_workers=_WRITER_THREADS, thread_name_prefix="cjdbc-writer"
        )
        #: installed by the request manager; when a ``cost``-policy plan is
        #: executed, reads are chosen by live cost instead of the read policy
        self.cost_estimator = None
        #: called (no arguments) whenever table placement changes
        #: (``set_table_placement``, auto-placement of a created table); the
        #: request manager plugs plan-cache invalidation in here
        self.on_placement_change: Optional[Callable[[], None]] = None
        #: called with (backend, exception) whenever a backend fails a write;
        #: the request manager plugs backend disabling in here (paper §2.4.1)
        self.on_backend_failure: Optional[Callable[[DatabaseBackend, Exception], None]] = None
        #: called with (backend, exception) whenever a backend fails a read;
        #: the failure detector counts these against its error threshold
        self.on_backend_read_failure: Optional[
            Callable[[DatabaseBackend, Exception], None]
        ] = None
        self.reads_executed = 0
        self.writes_executed = 0
        self.batches_executed = 0
        #: reads transparently retried on another backend after a failure
        self.read_failovers = 0
        #: reads whose backend was chosen by the cost estimator (plan policy
        #: "cost") rather than the configured read policy
        self.cost_routed_reads = 0
        #: write/batch/demarcation failures observed after the early-response
        #: threshold had already answered the client (still routed through
        #: on_backend_failure so the failure detector sees them)
        self.late_failures = 0
        self._stats_lock = threading.Lock()

    # -- candidate selection (overridden per RAIDb level) -------------------------

    def read_candidates(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        raise NotImplementedError  # pragma: no cover - interface

    def write_targets(
        self, request: AbstractRequest, backends: Sequence[DatabaseBackend]
    ) -> List[DatabaseBackend]:
        raise NotImplementedError  # pragma: no cover - interface

    # -- reads ---------------------------------------------------------------------

    def execute_read_request(
        self,
        request: AbstractRequest,
        backends: Sequence[DatabaseBackend],
        plan=None,
    ) -> RequestResult:
        """Route a read to one backend chosen by the policy (or the plan).

        When the planner handed down a :class:`~repro.planner.plan.RoutePlan`,
        its candidate set replaces placement re-derivation, and a ``cost``
        policy plan selects by live cost estimate instead of the configured
        read policy.  A stale plan (its backends all gone) falls back to
        deriving candidates from scratch.

        Inside a transaction, reads stick to a backend that already hosts the
        transaction when possible so they observe the transaction's own
        uncommitted writes.
        """
        candidates = None
        if plan is not None:
            names = plan.backend_name_set
            candidates = [b for b in backends if b.is_enabled and b.name in names]
        if not candidates:
            candidates = self.read_candidates(request, backends)
        if not candidates:
            raise NoMoreBackendError(
                f"no enabled backend hosts tables {list(request.tables)!r}"
            )
        sticky = False
        if request.transaction_id is not None:
            bound = [b for b in candidates if b.has_transaction(request.transaction_id)]
            if bound:
                candidates = bound
                sticky = True
        while True:
            backend = self._choose_read_backend(candidates, plan)
            try:
                result = backend.execute_request(request)
            except Exception as exc:  # noqa: BLE001 - reported, then failed over
                if self.on_backend_read_failure is not None:
                    self.on_backend_read_failure(backend, exc)
                if sticky:
                    # transaction-bound reads must observe the transaction's
                    # own uncommitted writes: no transparent failover
                    raise
                candidates = [
                    b for b in candidates if b is not backend and b.is_enabled
                ]
                if not candidates:
                    raise
                with self._stats_lock:
                    self.read_failovers += 1
                continue
            with self._stats_lock:
                self.reads_executed += 1
            return result

    def _choose_read_backend(
        self, candidates: Sequence[DatabaseBackend], plan
    ) -> DatabaseBackend:
        if (
            plan is not None
            and plan.policy == "cost"
            and self.cost_estimator is not None
        ):
            with self._stats_lock:
                self.cost_routed_reads += 1
            return self.cost_estimator.choose(plan.statement_class, candidates)
        return self.read_policy.choose(candidates)

    # -- writes -----------------------------------------------------------------------

    def _planned_targets(
        self, plan, backends: Sequence[DatabaseBackend]
    ) -> Optional[List[DatabaseBackend]]:
        """The plan's broadcast set, restricted to still-enabled backends.

        Returns None for plan-less calls and for stale plans (every planned
        backend disabled or removed), letting the caller re-derive targets.
        """
        if plan is None:
            return None
        names = plan.backend_name_set
        targets = [b for b in backends if b.is_enabled and b.name in names]
        return targets or None

    def execute_write_request(
        self,
        request: AbstractRequest,
        backends: Sequence[DatabaseBackend],
        plan=None,
    ) -> WriteOutcome:
        """Broadcast a write to every backend hosting the written tables."""
        targets = self._planned_targets(plan, backends)
        if targets is None:
            targets = self.write_targets(request, backends)
        if not targets:
            raise NoMoreBackendError(
                f"no enabled backend hosts tables {list(request.tables)!r}"
            )
        outcome = self._broadcast(targets, lambda backend: backend.execute_request(request))
        with self._stats_lock:
            self.writes_executed += 1
        return outcome

    def execute_batch_request(
        self,
        request: AbstractRequest,
        backends: Sequence[DatabaseBackend],
        plan=None,
    ) -> WriteOutcome:
        """Broadcast a whole batch to every backend hosting the written tables.

        Each backend receives *one* task that checks out a single connection
        and executes every parameter set on it — the per-statement broadcast
        overhead (connection checkout, counters) is paid once per
        backend per batch instead of once per row.
        """
        targets = self._planned_targets(plan, backends)
        if targets is None:
            targets = self.write_targets(request, backends)
        if not targets:
            raise NoMoreBackendError(
                f"no enabled backend hosts tables {list(request.tables)!r}"
            )
        outcome = self._broadcast(targets, lambda backend: backend.execute_batch(request))
        with self._stats_lock:
            self.batches_executed += 1
        return outcome

    def broadcast_transaction_operation(
        self,
        backends: Sequence[DatabaseBackend],
        operation: Callable[[DatabaseBackend], object],
    ) -> WriteOutcome:
        """Broadcast a commit/rollback/begin to the given backends."""
        targets = [backend for backend in backends if backend.is_enabled]
        if not targets:
            raise NoMoreBackendError("no enabled backend left")
        return self._broadcast(targets, operation)

    # -- broadcast machinery --------------------------------------------------------------

    def _broadcast(
        self,
        targets: Sequence[DatabaseBackend],
        operation: Callable[[DatabaseBackend], object],
    ) -> WriteOutcome:
        successes: List[str] = []
        failures: Dict[str, str] = {}
        first_result: List[RequestResult] = []
        state_lock = threading.Lock()
        #: set once the caller has been answered (early response); failures
        #: observed after that are "late" — invisible to the caller's
        #: WriteOutcome but still routed through on_backend_failure so the
        #: failure detector disables the diverged backend
        answered = [False]

        def run(backend: DatabaseBackend):
            try:
                result = operation(backend)
            except Exception as exc:  # noqa: BLE001 - failure handling below
                with state_lock:
                    failures[backend.name] = str(exc)
                    late = answered[0]
                if late:
                    with self._stats_lock:
                        self.late_failures += 1
                if self.on_backend_failure is not None:
                    self.on_backend_failure(backend, exc)
                raise
            with state_lock:
                successes.append(backend.name)
                if isinstance(result, RequestResult) and not first_result:
                    first_result.append(result)
            return result

        required = self._required_successes(len(targets))
        if required == len(targets):
            # The answer needs every target: run them in this thread, in
            # order.  run() routes each failure through on_backend_failure;
            # a failed target does not stop the later ones, and only a
            # broadcast with no success at all raises.
            error = None
            for backend in targets:
                try:
                    run(backend)
                except Exception as exc:  # noqa: BLE001 - reported by run()
                    error = exc
            if not successes:
                raise BackendError(f"write failed on every backend: {failures}") from error
            return self._snapshot_outcome(successes, failures, first_result)

        # Early response: stragglers keep running on the pool after the
        # caller is answered.
        pending = {self._executor.submit(run, backend) for backend in targets}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            with state_lock:
                succeeded = len(successes)
            if succeeded >= required:
                break
            # Below the threshold we keep waiting for the stragglers — even
            # when the threshold is no longer reachable: a still-pending
            # success decides between "partial success" (failed backends are
            # disabled, there is no 2-phase commit) and "failed everywhere".
        with state_lock:
            if not successes and failures:
                answered[0] = True
                raise BackendError(f"write failed on every backend: {failures}")
            outcome = self._snapshot_outcome(successes, failures, first_result)
            answered[0] = True
        return outcome

    @staticmethod
    def _snapshot_outcome(
        successes: List[str],
        failures: Dict[str, str],
        first_result: List[RequestResult],
    ) -> WriteOutcome:
        """Freeze the broadcast state into the outcome handed to the caller.

        The returned object is a snapshot: backends still executing after an
        early response never mutate it under the caller's feet.
        """
        outcome = WriteOutcome(
            result=first_result[0] if first_result else RequestResult(update_count=0),
            successes=list(successes),
            failures=dict(failures),
        )
        outcome.result.backends_executed = len(outcome.successes)
        return outcome

    def _required_successes(self, target_count: int) -> int:
        if self.wait_for_completion is WaitForCompletion.FIRST:
            return 1
        if self.wait_for_completion is WaitForCompletion.MAJORITY:
            return target_count // 2 + 1
        return target_count

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def enabled(backends: Sequence[DatabaseBackend]) -> List[DatabaseBackend]:
        return [backend for backend in backends if backend.is_enabled]

    def placement_reason(self, request: AbstractRequest) -> str:
        """One line for EXPLAIN describing why placement allows a candidate set."""
        return f"{self.raidb_level} placement"

    def statistics(self) -> dict:
        return {
            "load_balancer": type(self).__name__,
            "raidb_level": self.raidb_level,
            "read_policy": self.read_policy.name,
            "wait_for_completion": self.wait_for_completion.value,
            "reads_executed": self.reads_executed,
            "writes_executed": self.writes_executed,
            "batches_executed": self.batches_executed,
            "read_failovers": self.read_failovers,
            "cost_routed_reads": self.cost_routed_reads,
            "late_failures": self.late_failures,
        }

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False)
