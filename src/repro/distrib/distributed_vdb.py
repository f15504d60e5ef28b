"""Horizontal scalability: replicated controllers sharing a virtual database.

Paper §4.1: "We use the JGroups group communication library to synchronize
the schedulers of the virtual databases that are distributed over several
controllers. [...] C-JDBC relies on JGroups' reliable and ordered message
delivery to synchronize write requests and demarcate transactions.  Only the
request managers contain the distribution logic and use group communication.
All other C-JDBC components (scheduler, cache, and load balancer) remain the
same."

A :class:`DistributedVirtualDatabase` wraps the local
:class:`repro.core.virtualdb.VirtualDatabase` of one controller.  Reads run
locally; writes, begins, commits and aborts are multicast through a
:class:`repro.groupcomm.GroupChannel` and applied by every member in total
order.  At join time members exchange their backend configurations so that a
surviving controller knows what the failed one was hosting (used by the
recovery procedure of §4.1).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.recovery.checkpoint import Checkpoint
from repro.core.recovery.octopus import PortableDump
from repro.core.request import RequestResult, freeze_parameter_sets
from repro.core.virtualdb import VirtualDatabase
from repro.errors import CJDBCError, GroupCommunicationError
from repro.groupcomm.channel import GroupChannel
from repro.groupcomm.message import GroupMessage, ViewChange, register_payload
from repro.groupcomm.transport import GroupTransport


@register_payload
@dataclass
class _WriteCommand:
    """Payload multicast for a write statement."""

    kind: str  # "execute" | "batch" | "begin" | "commit" | "rollback"
    sql: str = ""
    parameters: tuple = ()
    #: parameter sets of a "batch" command (one template, N sets)
    parameter_sets: tuple = ()
    login: str = ""
    transaction_id: Optional[int] = None
    origin: str = ""

    @classmethod
    def from_wire(cls, fields: dict) -> "_WriteCommand":
        # JSON turned the tuples into lists; freeze them back
        fields["parameters"] = tuple(fields.get("parameters") or ())
        fields["parameter_sets"] = freeze_parameter_sets(
            fields.get("parameter_sets") or ()
        )
        return cls(**fields)


@register_payload
@dataclass
class _BackendAdvertisement:
    """Backend configuration exchanged between controllers at join time."""

    controller: str
    backends: List[dict] = field(default_factory=list)


@register_payload
@dataclass
class _StateTransferRequest:
    """Point-to-point request: a joining controller asks a peer for state."""

    requester: str


@register_payload
@dataclass
class _StateTransferSnapshot:
    """A peer's reply to :class:`_StateTransferRequest`.

    ``dump`` is a :class:`repro.core.recovery.octopus.PortableDump` JSON
    document cut under the peer's write barrier at checkpoint ``marker``;
    ``last_sequence`` is the group sequence number of the last write applied
    before the cut, so the joiner can discard buffered deliveries the
    snapshot already contains.
    """

    peer: str
    requester: str
    dump: str = ""
    last_sequence: int = 0
    marker: str = ""


@register_payload
@dataclass
class _BackendFailureEvent:
    """Multicast when a controller's failure detector disables a backend.

    Peers record the event (visible in statistics and to operators) so a
    surviving controller knows which backends of the failed/degraded
    controller are out of service — the §4.1 "controllers exchange their
    respective configurations" story extended to runtime failures.
    """

    controller: str
    backend: str
    kind: str = "write"
    error: str = ""
    checkpoint: Optional[str] = None


class DistributedVirtualDatabase:
    """One controller's replica of a distributed virtual database."""

    def __init__(
        self,
        virtual_database: VirtualDatabase,
        transport: GroupTransport,
        controller_name: str,
        group_name: Optional[str] = None,
    ):
        self.local = virtual_database
        self.controller_name = controller_name
        self.group_name = group_name or virtual_database.group_name or virtual_database.name
        self.channel = GroupChannel(transport, controller_name)
        self.channel.set_message_handler(self._on_message)
        self.channel.set_view_handler(self._on_view_change)
        self._lock = threading.RLock()
        #: results of locally applied commands, keyed by message id, so the
        #: originating controller can return its own execution result
        self._local_results: Dict[int, RequestResult] = {}
        #: backend configurations advertised by the other controllers
        self.peer_backends: Dict[str, List[dict]] = {}
        #: counter namespace for globally unique transaction ids
        self._transaction_base = (zlib.crc32(controller_name.encode()) % 90000 + 1) * 100000
        self._transaction_counter = 0
        self.view_changes: List[ViewChange] = []
        #: backend failures reported by other controllers of the group
        self.peer_failures: List[dict] = []
        #: serializes group write application against state transfer
        self._apply_lock = threading.RLock()
        #: guards the bootstrap buffer of deliveries received while syncing
        self._sync_lock = threading.Lock()
        self._syncing = False
        self._sync_buffer: List[GroupMessage] = []
        self._snapshot: Optional[_StateTransferSnapshot] = None
        self._snapshot_event = threading.Event()
        #: group sequence of the last write applied locally
        self._last_applied_sequence = 0
        #: snapshots served to joining controllers
        self.state_transfers_served = 0
        #: peer we bootstrapped our state from (None = started fresh)
        self.state_synced_from: Optional[str] = None
        # multicast our own failure detector's disable events to the group
        virtual_database.failure_detector.add_listener(self._on_local_backend_disabled)

    # -- membership -----------------------------------------------------------------

    def join_group(
        self, state_transfer: bool = False, backends: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Join the controller group and advertise our backend configuration.

        With ``state_transfer=True`` (a controller joining a group that has
        been running without it) the replica first synchronizes its backends
        (all of them, or those named) from a peer: writes delivered while the
        snapshot is in flight are buffered and replayed afterwards, so the
        replica converges to the exact group state before serving clients
        (§4.1 recovery).
        """
        with self._sync_lock:
            self._syncing, self._sync_buffer = state_transfer, []
        try:
            view = self.channel.connect(self.group_name)
            peers = [name for name in view if name != self.controller_name]
            if state_transfer and peers:
                self._bootstrap_from_peers(peers, backends)
        finally:
            # a completed transfer has drained the buffer and stopped buffering
            # already; alone in the group, or failed, there is nothing to drain
            with self._sync_lock:
                self._syncing, self._sync_buffer = False, []
        advertisement = _BackendAdvertisement(
            controller=self.controller_name,
            backends=[backend.statistics() for backend in self.local.backends],
        )
        self.channel.multicast(advertisement)
        return view

    def leave_group(self) -> None:
        self.channel.disconnect()

    def close(self) -> None:
        """Detach from the group and the local failure detector."""
        self.local.failure_detector.remove_listener(self._on_local_backend_disabled)
        if self.channel.connected:
            try:
                self.leave_group()
            except GroupCommunicationError:
                pass

    @property
    def group_members(self) -> List[str]:
        return self.channel.members()

    def group_status(self) -> dict:
        """Group communication status (console ``group`` command)."""
        transport = self.channel.transport
        describe = getattr(transport, "describe", None)
        status = {
            "controller": self.controller_name,
            "group": self.group_name,
            "connected": self.channel.connected,
            "members": self.group_members,
            "view_changes": len(self.view_changes),
            "last_applied_sequence": self._last_applied_sequence,
            "state_transfers_served": self.state_transfers_served,
            "state_synced_from": self.state_synced_from,
        }
        if describe is not None:
            status["transport"] = describe()
        return status

    # -- client entry points (same surface the driver uses on VirtualDatabase) -----------

    @property
    def name(self) -> str:
        return self.local.name

    @property
    def backends(self):
        """Backends of the local replica (used by nested-controller metadata)."""
        return self.local.backends

    @property
    def pipeline(self):
        """The local replica's request pipeline (console/check-config surface)."""
        return self.local.pipeline

    def get_backend(self, backend_name: str):
        return self.local.get_backend(backend_name)

    def fault_injector(self, backend_name: str, seed: int = 0):
        """Fault injector of one *local* backend (chaos testing surface)."""
        return self.local.fault_injector(backend_name, seed=seed)

    @property
    def failure_detector(self):
        return self.local.failure_detector

    def resynchronize_backend(
        self, backend_name: str, checkpoint_name: Optional[str] = None
    ) -> int:
        """Re-integrate one of this controller's own backends.

        With no checkpoint stored and no local backend live to cut one from,
        the content can only come from a peer controller: the replica rejoins
        the group through a state transfer that restores this one backend.
        The view change orders the transfer against the group's writes, and a
        replica with no live backend was failing every one of them anyway.
        """
        stored = self.local.checkpointing_service.checkpoint_names()
        if not (checkpoint_name or stored or self.local.request_manager.enabled_backends()):
            self.leave_group()
            self.join_group(state_transfer=True, backends=[backend_name])
        # a backend the transfer enabled is left alone; alone in the group, the
        # local attempt reports that there is nothing to cut from
        return self.local.resynchronize_backend(backend_name, checkpoint_name)

    def check_credentials(self, login: str, password: str) -> None:
        self.local.check_credentials(login, password)

    def execute(
        self,
        sql: str,
        parameters: Sequence[Any] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        manager = self.local.request_manager
        request = manager.request_factory.create_request(
            sql, parameters, login=login, transaction_id=transaction_id
        )
        if request.is_read_only:
            # Reads stay local: each controller load-balances over its own backends.
            return manager.execute_request(request)
        # the macro-rewritten text, so every replica applies the same NOW()/RAND()
        command = _WriteCommand(
            kind="execute",
            sql=request.sql,
            parameters=tuple(parameters),
            login=login,
            transaction_id=transaction_id,
            origin=self.controller_name,
        )
        return self._multicast_command(command)

    def prepare(self, sql: str) -> "_DistributedPreparedStatement":
        """Prepared-statement surface of the distributed replica.

        Classification happens on the local replica's parsing cache; the
        handle routes executions like :meth:`execute` does — reads stay
        local, writes and batches are multicast in total order.
        """
        return _DistributedPreparedStatement(self, sql)

    def execute_batch(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[Any]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        """Multicast one batch so every controller applies it as one group."""
        # validate up front (non-writes and empty batches must fail on the
        # caller, not asynchronously on every group member) without building
        # a throwaway request — the template check is enough
        self.local.request_manager.request_factory.get_template(sql).require_batchable()
        parameter_sets = freeze_parameter_sets(parameter_sets)
        if not parameter_sets:
            raise CJDBCError("a batch needs at least one parameter set")
        command = _WriteCommand(
            kind="batch",
            sql=sql,
            parameter_sets=parameter_sets,
            login=login,
            transaction_id=transaction_id,
            origin=self.controller_name,
        )
        return self._multicast_command(command)

    def begin(self, login: str = "", transaction_id: Optional[int] = None) -> int:
        with self._lock:
            self._transaction_counter += 1
            allocated = transaction_id or (self._transaction_base + self._transaction_counter)
        command = _WriteCommand(
            kind="begin", login=login, transaction_id=allocated, origin=self.controller_name
        )
        self._multicast_command(command)
        return allocated

    def commit(self, transaction_id: int, login: str = "") -> None:
        command = _WriteCommand(
            kind="commit", login=login, transaction_id=transaction_id, origin=self.controller_name
        )
        self._multicast_command(command)

    def rollback(self, transaction_id: int, login: str = "") -> None:
        command = _WriteCommand(
            kind="rollback", login=login, transaction_id=transaction_id, origin=self.controller_name
        )
        self._multicast_command(command)

    # -- statistics -------------------------------------------------------------------

    def statistics(self) -> dict:
        stats = self.local.statistics()
        stats["distributed"] = {
            "controller": self.controller_name,
            "group": self.group_name,
            "members": self.group_members,
            "peer_backends": {peer: len(b) for peer, b in self.peer_backends.items()},
            "peer_failures": [dict(event) for event in self.peer_failures],
            "view_changes": len(self.view_changes),
            "last_applied_sequence": self._last_applied_sequence,
            "state_transfers_served": self.state_transfers_served,
            "state_synced_from": self.state_synced_from,
        }
        return stats

    # -- state transfer (joining-controller synchronization, §4.1) ----------------------

    def _bootstrap_from_peers(self, peers: List[str], backends=None) -> None:
        """Pull a snapshot from the first peer able to serve one."""
        request = _StateTransferRequest(requester=self.controller_name)
        last_error: Optional[Exception] = None
        for peer in peers:
            self._snapshot_event.clear()
            self._snapshot = None
            try:
                self.channel.send_to(peer, request)
            except GroupCommunicationError as exc:
                last_error = exc
                continue
            if not self._snapshot_event.wait(timeout=30.0):
                last_error = GroupCommunicationError(
                    f"state transfer from {peer!r} timed out"
                )
                continue
            snapshot = self._snapshot
            self._snapshot = None
            if snapshot is None or not snapshot.dump:
                last_error = GroupCommunicationError(
                    f"peer {peer!r} sent an empty state snapshot"
                )
                continue
            self._restore_snapshot(snapshot, backends)
            return
        self.channel.disconnect()
        raise GroupCommunicationError(
            f"controller {self.controller_name!r} could not synchronize state"
            f" from any peer of group {self.group_name!r}: {last_error}"
        )

    def _serve_state_transfer(self, requester: str) -> None:
        """Serve a consistent snapshot to a joining controller.

        The checkpoint is cut while holding ``_apply_lock``, so no group
        write is applied between the marker, the dump and the recorded group
        sequence: the snapshot is an exact cut at ``last_sequence``.  The
        reply is sent *after* every lock is released — sending while holding
        ``_apply_lock`` can deadlock against an in-flight group delivery.
        """
        service = self.local.checkpointing_service
        # not stored: the requester replays from its own log, nothing here reads ours again
        name = service.next_checkpoint_name(f"state-transfer-{self.controller_name}")
        with self._apply_lock, service.cutting(name=name) as checkpoint:
            last_sequence = self._last_applied_sequence
        snapshot = _StateTransferSnapshot(
            peer=self.controller_name,
            requester=requester,
            dump=checkpoint.dump.to_json(),
            last_sequence=last_sequence,
            marker=checkpoint.name,
        )
        self.channel.send_to(requester, snapshot)
        self.state_transfers_served += 1

    def _restore_snapshot(self, snapshot: _StateTransferSnapshot, backends=None) -> None:
        """Catch the local backends (all, or those named) up from a peer's cut, then drain."""
        with self._apply_lock:
            service = self.local.checkpointing_service
            checkpoint = Checkpoint(snapshot.marker, PortableDump.from_json(snapshot.dump), "")
            # the transfer point goes in our own log: it is where the catch-ups
            # replay from.  It is not stored: a local backend that fails later
            # comes back from a cut of its live local peers or, with none,
            # from another transfer (:meth:`resynchronize_backend`), and a
            # dump of the whole database is not held for a recovery that
            # would replay every write since the join
            with service.reachable_from_here():
                service.recovery_log.insert_checkpoint_marker(checkpoint.name)
                for backend in self.local.backends:
                    if backends is not None and backend.name not in backends:
                        continue
                    if self.local.backend_engine(backend.name) is not None:
                        service.catch_up(backend, checkpoint)
            self._last_applied_sequence = snapshot.last_sequence
            self._finish_sync(snapshot)

    def _finish_sync(self, snapshot: _StateTransferSnapshot) -> None:
        """Drain writes buffered during the bootstrap; called under _apply_lock."""
        while True:
            with self._sync_lock:
                if not self._sync_buffer:
                    self._syncing = False
                    break
                buffered = self._sync_buffer
                self._sync_buffer = []
            for message in buffered:
                sequence = message.sequence or 0
                if sequence and sequence <= snapshot.last_sequence:
                    continue  # the snapshot already contains this write
                self._apply_command(message.payload)
                if sequence:
                    self._last_applied_sequence = sequence
        self.state_synced_from = snapshot.peer

    # -- group delivery -----------------------------------------------------------------

    def _multicast_command(self, command: _WriteCommand) -> RequestResult:
        if not self.channel.connected:
            raise GroupCommunicationError(
                f"controller {self.controller_name!r} has not joined group {self.group_name!r}"
            )
        message = self.channel.multicast(command)
        with self._lock:
            result = self._local_results.pop(message.message_id, None)
        return result if result is not None else RequestResult(update_count=0)

    def _on_local_backend_disabled(self, backend, exc, event) -> None:
        """Failure-detector listener: tell the group one of our backends fell.

        The multicast happens on a separate thread: the listener fires from
        inside a write broadcast (possibly itself a group delivery holding
        the transport), so multicasting inline would deadlock the sequencer
        against the in-flight write.
        """
        if not self.channel.connected:
            return
        notice = _BackendFailureEvent(
            controller=self.controller_name,
            backend=backend.name,
            kind=event.get("kind", "write"),
            error=event.get("error", str(exc)),
            checkpoint=event.get("checkpoint"),
        )

        def announce() -> None:
            try:
                self.channel.multicast(notice)
            except GroupCommunicationError:
                pass  # a partitioned controller still handles its local failure

        threading.Thread(
            target=announce,
            name=f"cjdbc-failure-event-{backend.name}",
            daemon=True,
        ).start()

    def _on_message(self, message: GroupMessage) -> None:
        payload = message.payload
        if isinstance(payload, _StateTransferRequest):
            if payload.requester != self.controller_name:
                self._serve_state_transfer(payload.requester)
            return
        if isinstance(payload, _StateTransferSnapshot):
            if payload.requester == self.controller_name:
                self._snapshot = payload
                self._snapshot_event.set()
            return
        if isinstance(payload, _BackendFailureEvent):
            if payload.controller != self.controller_name:
                self.peer_failures.append(asdict(payload))
            return
        if isinstance(payload, _BackendAdvertisement):
            if payload.controller != self.controller_name:
                is_new_peer = payload.controller not in self.peer_backends
                self.peer_backends[payload.controller] = payload.backends
                if is_new_peer and self.channel.connected:
                    # Reply with our own configuration so that controllers that
                    # joined earlier also learn about late joiners (the paper's
                    # "controllers exchange their respective backend
                    # configurations" at initialization time).
                    reply = _BackendAdvertisement(
                        controller=self.controller_name,
                        backends=[backend.statistics() for backend in self.local.backends],
                    )
                    try:
                        self.channel.send_to(payload.controller, reply)
                    except GroupCommunicationError:
                        pass
            return
        if not isinstance(payload, _WriteCommand):
            return
        with self._sync_lock:
            if self._syncing:
                # our snapshot bootstrap is in flight: buffer the write, the
                # drain in _finish_sync decides (by sequence) whether the
                # snapshot already contains it
                self._sync_buffer.append(message)
                return
        with self._apply_lock:
            result = self._apply_command(payload)
            if message.sequence:
                self._last_applied_sequence = message.sequence
        if payload.origin == self.controller_name and result is not None:
            with self._lock:
                self._local_results[message.message_id] = result

    def _apply_command(self, command: _WriteCommand) -> Optional[RequestResult]:
        if command.kind == "begin":
            self.local.begin(command.login, transaction_id=command.transaction_id)
            return RequestResult(update_count=0, transaction_id=command.transaction_id)
        if command.kind == "commit":
            self.local.commit(command.transaction_id, command.login)
            return RequestResult(update_count=0)
        if command.kind == "rollback":
            self.local.rollback(command.transaction_id, command.login)
            return RequestResult(update_count=0)
        if command.kind == "batch":
            return self.local.execute_batch(
                command.sql,
                command.parameter_sets,
                login=command.login,
                transaction_id=command.transaction_id,
            )
        return self.local.execute(
            command.sql,
            command.parameters,
            login=command.login,
            transaction_id=command.transaction_id,
        )

    def _on_view_change(self, view: ViewChange) -> None:
        self.view_changes.append(view)


class _DistributedPreparedStatement:
    """Prepared handle over a distributed replica (driver-facing surface).

    Mirrors :class:`repro.core.request_manager.PreparedStatementHandle`:
    ``execute``/``execute_batch`` plus the classification properties the
    driver consults, with routing delegated to the replica wrapper.
    """

    __slots__ = ("_replica", "sql", "_local_handle")

    def __init__(self, replica: DistributedVirtualDatabase, sql: str):
        self._replica = replica
        self.sql = sql
        self._local_handle = replica.local.prepare(sql)

    @property
    def template(self):
        return self._local_handle.template

    @property
    def is_write(self) -> bool:
        return self._local_handle.is_write

    @property
    def is_read_only(self) -> bool:
        return self._local_handle.is_read_only

    @property
    def tables(self):
        return self._local_handle.tables

    def execute(
        self,
        parameters: Sequence[Any] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        if self._local_handle.is_read_only:
            # reads stay local, straight through the pre-parsed template
            return self._local_handle.execute(
                parameters, login=login, transaction_id=transaction_id
            )
        return self._replica.execute(
            self.sql, parameters, login=login, transaction_id=transaction_id
        )

    def execute_batch(
        self,
        parameter_sets: Sequence[Sequence[Any]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        return self._replica.execute_batch(
            self.sql, parameter_sets, login=login, transaction_id=transaction_id
        )

