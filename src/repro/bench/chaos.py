"""Chaos scenario harness: seeded failure scenarios with cluster invariants.

The paper's headline claim is availability: a backend can fail mid-write,
be disabled, and later be re-integrated from the recovery log while the
cluster keeps serving traffic.  Each scenario here injects a deterministic
fault schedule (:mod:`repro.core.faults`) into a running RAIDb cluster
under a workload, lets the failure detector and resynchronizer
(:mod:`repro.core.failover`) react, and then asserts the cluster
invariants:

* **no committed write lost** — every write acknowledged to a client is
  present on every enabled backend at the end;
* **replica convergence** — all enabled backends are table-by-table
  digest-identical after re-integration;
* **no read from a disabled backend** — a read that started while a backend
  was disabled is never served by it;
* **failover latency** — the time from fault activation to the detector
  disabling the backend is measured and reported.

Every scenario stands its cluster up the way a deployment does: it writes a
descriptor and boots it through :class:`repro.cluster.Cluster`
(:mod:`repro.cluster.fixture` builds the document and holds the invariant
checks, re-exported here).

Scenarios are seeded: the fault schedules and workloads replay identically
for a given seed.  ``scale`` shrinks operation counts for smoke runs (the
``bench_smoke`` tier-1 marker runs :data:`CHAOS_SMOKE_SCENARIOS` on every PR).

Run from the command line::

    python -m repro chaos                 # the full suite
    python -m repro chaos --list
    python -m repro chaos --scenario crash_mid_transaction --seed 11
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.facade import Cluster, connect
from repro.cluster.fixture import (
    boot,
    check_acked,
    descriptor,
    digest_mismatches,
    seed_kv,
    table_digests,
    wait_until,
)
from repro.core.retry import RetryPolicy
from repro.core.virtualdb import VirtualDatabase
from repro.errors import CJDBCError
from repro.isolation import run_random_mix
from repro.net.client import connect_remote
from repro.sql import DatabaseEngine

# ---------------------------------------------------------------------------
# invariant helpers
# ---------------------------------------------------------------------------


class BackendStateLog:
    """Records backend state transitions so reads can be checked afterwards.

    A read is a violation when the backend that served it was continuously
    not-ENABLED from before the read started until after it finished — an
    in-flight read racing the disable moment is inherent and allowed.
    """

    def __init__(self, backends):
        self._lock = threading.Lock()
        #: backend name -> list of (monotonic time, enabled?) transitions
        self._transitions: Dict[str, List[Tuple[float, bool]]] = {}
        for backend in backends:
            self._transitions[backend.name] = [(0.0, backend.is_enabled)]
            backend.add_state_listener(self._on_state_change)

    def _on_state_change(self, backend) -> None:
        with self._lock:
            self._transitions.setdefault(backend.name, []).append(
                (time.monotonic(), backend.is_enabled)
            )

    def served_while_disabled(self, backend_name: str, started: float, finished: float) -> bool:
        with self._lock:
            transitions = list(self._transitions.get(backend_name, ()))
        enabled_at_start = True
        for at, enabled in transitions:
            if at <= started:
                enabled_at_start = enabled
            elif at < finished and enabled:
                return False  # re-enabled mid-read: not provably wrong
        return not enabled_at_start


@dataclass
class ChaosResult:
    """Outcome of one scenario: violations (empty = pass) plus telemetry."""

    name: str
    seed: int
    violations: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "details": dict(self.details),
        }


# ---------------------------------------------------------------------------
# cluster scaffolding: every scenario boots a descriptor (repro.cluster.fixture)
# ---------------------------------------------------------------------------


def _boot_kv_cluster(
    backends: int, genesis_dumps: bool = True, **descriptor_keys
) -> Tuple[Cluster, VirtualDatabase]:
    """One shared RAIDb vdb with the ``kv`` seed and a genesis dump per backend.

    Without ``genesis_dumps`` re-integration has no restore point and must
    cut a checkpoint from the live backends.
    """
    cluster = boot(descriptor("chaos", backends, **descriptor_keys))
    vdb = cluster.virtual_database(cluster.name)
    seed_kv(vdb.request_manager.execute, 10)
    if genesis_dumps:
        for name in cluster.engines:
            vdb.checkpoint_backend(name, name=f"genesis-{cluster.name}-{name}")
    return cluster, vdb


def _enabled_engines(cluster: Cluster, vdb: VirtualDatabase) -> Dict[str, DatabaseEngine]:
    return {
        backend.name: cluster.engines[backend.name]
        for backend in vdb.backends
        if backend.is_enabled
    }


def _check_enabled_replicas(
    cluster: Cluster, vdb: VirtualDatabase, acked: Dict[int, str], violations: List[str]
) -> None:
    """No committed write lost, and convergence, over the enabled backends."""
    engines = _enabled_engines(cluster, vdb)
    check_acked(engines, acked, violations)
    violations.extend(digest_mismatches(engines))


def _failover_latency(vdb: VirtualDatabase, fault_armed_at: float) -> Optional[float]:
    events = vdb.failure_detector.events
    if not events:
        return None
    return max(0.0, events[0]["at"] - fault_armed_at)


#: group name of every grouped chaos vdb (each cluster runs its own group
#: nodes, so the name never crosses clusters)
_GROUP = "chaos-group"


def _tcp_group_descriptor() -> dict:
    """Three controllers replicating one vdb over TCP group nodes, a front-end each.

    The multi-process §4.1 topology in one process: every controller has its
    own backend engine, its own socket group node (fast heartbeats so failure
    detection fits a smoke run) and its own TCP front-end, so killing one
    controller severs its clients *and* its group membership at once.
    """
    return descriptor(
        "chaosgrp",
        1,
        controllers=3,
        listen=True,
        group_name=_GROUP,
        group={
            "transport": "tcp",
            "heartbeat_interval": 0.05,
            "heartbeat_threshold": 3,
            "rpc_timeout": 5.0,
        },
    )


def _sequencer(cluster: Cluster) -> str:
    """The controller whose live group node holds the sequencer role."""
    return next(
        name
        for name, node in cluster.group_nodes.items()
        if node.is_running and node.describe()["groups"][_GROUP]["is_sequencer"]
    )


def _kill_controller(cluster: Cluster, name: str) -> None:
    """Hard-crash one controller: front-end and group node, no goodbye."""
    cluster.servers[name].kill()
    cluster.group_nodes[name].kill()


def _live_replicas(*clusters: Cluster) -> Dict[str, object]:
    """Controller name -> replica, for every controller whose group node runs."""
    return {
        controller: replica
        for cluster in clusters
        for (controller, _), replica in cluster.replicas.items()
        if cluster.group_nodes[controller].is_running
    }


def _live_engines(*clusters: Cluster) -> Dict[str, DatabaseEngine]:
    return {
        controller: cluster.engines[f"{controller}/b0"]
        for cluster in clusters
        for controller in _live_replicas(cluster)
    }


def _views_converged(replicas: Dict[str, object]) -> bool:
    """Wait until every given replica's view holds exactly the given controllers."""
    return wait_until(
        lambda: all(set(replica.group_members) == set(replicas) for replica in replicas.values()),
        timeout=10.0,
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_crash_mid_transaction(seed: int, scale: float = 1.0) -> ChaosResult:
    """A backend hard-crashes between two statements of a client transaction.

    The failed write disables the backend, the transaction commits on the
    survivors, and the operator's ``recover <backend> <checkpoint>`` replays
    the whole transaction from the recovery log.
    """
    result = ChaosResult("crash_mid_transaction", seed)
    cluster, vdb = _boot_kv_cluster(3)
    try:
        manager = vdb.request_manager
        state_log = BackendStateLog(vdb.backends)
        acked: Dict[int, str] = {}
        tid = manager.begin("chaos")
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)", (1000, "txn-a"), transaction_id=tid
        )
        injector = vdb.fault_injector("b2", seed=seed)
        armed_at = time.monotonic()
        injector.crash()
        # this write fails on b2 -> detector disables it mid-transaction
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)", (1001, "txn-b"), transaction_id=tid
        )
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)", (1002, "txn-c"), transaction_id=tid
        )
        manager.commit(tid, "chaos")
        acked.update({1000: "txn-a", 1001: "txn-b", 1002: "txn-c"})
        if manager.get_backend("b2").is_enabled:
            result.violations.append("b2 still enabled after failing a write")
        # a post-failure read must not come from the disabled backend
        read_started = time.monotonic()
        read = manager.execute("SELECT v FROM kv WHERE k = ?", (1000,))
        if state_log.served_while_disabled(
            read.backend_name, read_started, time.monotonic()
        ):
            result.violations.append(
                f"read served by disabled backend {read.backend_name!r}"
            )
        injector.recover()
        replayed = vdb.recover_backend("b2", f"genesis-{cluster.name}-b2")
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        result.details.update(
            {
                "replayed": replayed,
                "failover_latency_s": _failover_latency(vdb, armed_at),
                "detector_events": len(vdb.failure_detector.events),
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_crash_mid_batch(seed: int, scale: float = 1.0) -> ChaosResult:
    """A backend crashes while executing a server-side batch.

    The batch succeeds on the survivors (one log group entry), the crashed
    backend is disabled, and — no dump was ever taken — re-integration cuts
    a checkpoint from a live peer.
    """
    result = ChaosResult("crash_mid_batch", seed)
    cluster, vdb = _boot_kv_cluster(3, genesis_dumps=False)
    try:
        manager = vdb.request_manager
        injector = vdb.fault_injector("b1", seed=seed)
        # crash on b1's second batch execution, deterministically
        injector.inject("crash", after_n_ops=2, operations=("executemany",))
        armed_at = time.monotonic()
        acked: Dict[int, str] = {}
        batch = max(int(4 * scale), 3)
        rows_per_batch = max(int(5 * scale), 3)
        sql = "INSERT INTO kv (k, v) VALUES (?, ?)"
        for group in range(batch):
            base = 2000 + group * rows_per_batch
            sets = [
                (base + offset, f"batch-{base + offset}")
                for offset in range(rows_per_batch)
            ]
            manager.execute_batch(sql, sets)
            acked.update({key: value for key, value in sets})
        if manager.get_backend("b1").is_enabled:
            result.violations.append("b1 still enabled after failing a batch")
        injector.recover()
        replayed = vdb.resynchronize_backend("b1")
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        result.details.update(
            {
                "batches": batch,
                "replayed": replayed,
                "failover_latency_s": _failover_latency(vdb, armed_at),
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_transient_error_storm(seed: int, scale: float = 1.0) -> ChaosResult:
    """One backend's reads fail probabilistically until the threshold trips.

    Reads transparently fail over to healthy backends (the client sees no
    errors); once the read-error budget is exhausted the backend is
    disabled, and after the storm clears it is re-integrated.
    """
    result = ChaosResult("transient_error_storm", seed)
    cluster, vdb = _boot_kv_cluster(3, failure_detector={"read_error_threshold": 3})
    try:
        manager = vdb.request_manager
        state_log = BackendStateLog(vdb.backends)
        injector = vdb.fault_injector("b0", seed=seed)
        injector.inject(
            "error", probability=0.6, match_sql="SELECT", operations=("execute",)
        )
        armed_at = time.monotonic()
        rng = Random(seed)
        reads = max(int(40 * scale), 12)
        client_errors = 0
        acked: Dict[int, str] = {}
        index = 0
        # run the planned mix, then keep reading (bounded) until the error
        # budget actually trips — the storm must always reach the threshold,
        # whatever the scale and seed
        while index < reads or (
            manager.get_backend("b0").is_enabled and index < reads + 100
        ):
            index += 1
            try:
                if rng.random() < 0.3 and index <= reads:
                    key = 3000 + index
                    manager.execute(
                        "INSERT INTO kv (k, v) VALUES (?, ?)", (key, f"storm-{key}")
                    )
                    acked[key] = f"storm-{key}"
                else:
                    started = time.monotonic()
                    read = manager.execute(
                        "SELECT v FROM kv WHERE k = ?", (rng.randrange(10),)
                    )
                    if state_log.served_while_disabled(
                        read.backend_name, started, time.monotonic()
                    ):
                        result.violations.append(
                            f"read served by disabled backend {read.backend_name!r}"
                        )
            except CJDBCError:
                client_errors += 1
        if client_errors:
            result.violations.append(
                f"{client_errors} read/write errors leaked to the client despite"
                " transparent failover"
            )
        if manager.get_backend("b0").is_enabled:
            result.violations.append(
                "b0 still enabled after exceeding the read-error threshold"
            )
        events = vdb.failure_detector.events
        if events and events[0]["kind"] != "read":
            result.violations.append(
                f"expected a read-threshold disable, got {events[0]['kind']!r}"
            )
        injector.clear()
        injector.recover()
        replayed = vdb.resynchronize_backend("b0")
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        balancer = manager.load_balancer
        result.details.update(
            {
                "operations": index,
                "read_failovers": balancer.read_failovers,
                "faults_injected": injector.statistics()["faults_injected"],
                "replayed": replayed,
                "failover_latency_s": _failover_latency(vdb, armed_at),
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_slow_backend_first_policy(seed: int, scale: float = 1.0) -> ChaosResult:
    """A slow backend must not slow clients down under the FIRST policy.

    Early response (paper §2.4.4) answers after the first backend commits;
    the slow replica finishes in the background and still converges.  No
    backend is disabled: slow is degraded, not failed.
    """
    result = ChaosResult("slow_backend_first_policy", seed)
    cluster, vdb = _boot_kv_cluster(3, wait_for_completion="first")
    try:
        manager = vdb.request_manager
        injector = vdb.fault_injector("b2", seed=seed)
        delay_ms = 25.0
        injector.inject("latency", latency_ms=delay_ms, operations=("execute",))
        writes = max(int(8 * scale), 4)
        started = time.monotonic()
        acked: Dict[int, str] = {}
        for index in range(writes):
            key = 4000 + index
            manager.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (key, f"slow-{key}"))
            acked[key] = f"slow-{key}"
        elapsed = time.monotonic() - started
        worst_case = writes * delay_ms / 1000.0
        if elapsed >= 0.8 * worst_case:
            result.violations.append(
                f"early response did not hide the slow backend: {writes} writes"
                f" took {elapsed:.3f}s (slow path would be {worst_case:.3f}s)"
            )
        if vdb.failure_detector.events:
            result.violations.append("a merely-slow backend was disabled")
        injector.clear()
        # wait for the stragglers to drain, then the replicas must converge
        wait_until(lambda: not digest_mismatches(_enabled_engines(cluster, vdb)))
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        result.details.update(
            {
                "writes": writes,
                "client_seconds": round(elapsed, 4),
                "slow_path_seconds": round(worst_case, 4),
                "hidden_latency_factor": round(worst_case / elapsed, 2)
                if elapsed > 0
                else None,
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_crash_reintegration_under_writes(seed: int, scale: float = 1.0) -> ChaosResult:
    """Crash + live re-integration while writer threads keep the cluster busy.

    Auto-resync is on: the detector hands the crashed backend to the
    resynchronizer, which (once the fault is lifted) restores the genesis
    dump, replays the log tail online under sustained writes, and catches
    up the final entries under a brief scheduler write barrier.
    """
    result = ChaosResult("crash_reintegration_under_writes", seed)
    cluster, vdb = _boot_kv_cluster(3, failure_detector={"auto_resync": True})
    try:
        manager = vdb.request_manager
        injector = vdb.fault_injector("b1", seed=seed)
        per_writer = max(int(40 * scale), 15)
        acked: Dict[int, str] = {}
        acked_lock = threading.Lock()
        crash_after = per_writer // 3

        def writer(writer_id: int) -> None:
            base = 5000 + writer_id * 10000
            for index in range(per_writer):
                key = base + index
                try:
                    manager.execute(
                        "INSERT INTO kv (k, v) VALUES (?, ?)", (key, f"w{writer_id}-{index}")
                    )
                except CJDBCError:
                    continue
                with acked_lock:
                    acked[key] = f"w{writer_id}-{index}"
                if writer_id == 0 and index == crash_after:
                    injector.crash()
                if writer_id == 0 and index == 2 * crash_after:
                    injector.recover()

        threads = [
            threading.Thread(target=writer, args=(writer_id,)) for writer_id in range(2)
        ]
        armed_at = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # the auto-resync worker may still be catching up (or may have burned
        # its retries while the backend was crashed): wait, then force one
        vdb.resynchronizer.wait(timeout=5.0)
        if not manager.get_backend("b1").is_enabled:
            vdb.resynchronize_backend("b1")
        if not manager.get_backend("b1").is_enabled:
            result.violations.append("b1 was not re-integrated")
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        resync_stats = vdb.resynchronizer.statistics()
        result.details.update(
            {
                "writes_acknowledged": len(acked),
                "failover_latency_s": _failover_latency(vdb, armed_at),
                "resyncs_started": resync_stats["resyncs_started"],
                "resyncs_succeeded": resync_stats["resyncs_succeeded"],
                "write_barriers": manager.scheduler.statistics()["write_barriers"],
            }
        )
        if resync_stats["resyncs_succeeded"] < 1:
            result.violations.append("no resynchronization succeeded")
    finally:
        cluster.shutdown()
    return result


def scenario_distributed_controller_backend_failure(
    seed: int, scale: float = 1.0
) -> ChaosResult:
    """A backend fails under a horizontally replicated (two-controller) vdb.

    The owning controller disables it and multicasts the failure event to
    its peers; writes keep replicating through the group, and the backend is
    re-integrated from the local recovery log.
    """
    result = ChaosResult("distributed_controller_backend_failure", seed)
    cluster = boot(descriptor("chaosdist", 2, controllers=2, group_name=_GROUP))
    try:
        label = cluster.name
        cursor = cluster.connect(label, "chaos", "chaos").cursor()
        seed_kv(cursor.execute, 0)
        writes = max(int(20 * scale), 8)
        acked: Dict[int, str] = {}
        for index in range(writes // 2):
            cursor.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (index, f"pre-{index}"))
            acked[index] = f"pre-{index}"
        vdb_a = cluster.virtual_database(label, controller=f"{label}-a")
        # genesis dumps so re-integration restores instead of bootstrapping
        vdb_a.checkpoint_backend("b0", name=f"genesis-{label}-b0")
        injector = cluster.fault_injector(label, "b0", controller=f"{label}-a")
        armed_at = time.monotonic()
        injector.crash()
        for index in range(writes // 2, writes):
            cursor.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (index, f"post-{index}"))
            acked[index] = f"post-{index}"
        if vdb_a.get_backend("b0").is_enabled:
            result.violations.append("controller A's b0 still enabled after the crash")
        replica_b = cluster.replicas[(f"{label}-b", label)]
        # the failure event is announced asynchronously: give it a moment
        event_seen = wait_until(
            lambda: any(
                event["backend"] == "b0" and event["controller"] == f"{label}-a"
                for event in replica_b.peer_failures
            )
        )
        if not event_seen:
            result.violations.append(
                "controller B never learned about controller A's backend failure"
            )
        injector.recover()
        replayed = cluster.resynchronize(label, "b0", controller=f"{label}-a")
        result.violations.extend(digest_mismatches(cluster.engines))
        check_acked(cluster.engines, acked, result.violations)
        result.details.update(
            {
                "writes_acknowledged": len(acked),
                "replayed": replayed,
                "peer_failures_seen": len(replica_b.peer_failures),
                "failover_latency_s": _failover_latency(vdb_a, armed_at),
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_remote_disconnect_failover(seed: int, scale: float = 1.0) -> ChaosResult:
    """The wire to the primary controller is cut mid-session (remote driver).

    Two TCP front-ends serve the same virtual database; the client talks to
    them through the remote driver (``cjdbc://host:port,host2:port2/db``).
    A seeded ``disconnect`` fault on the primary's server severs the client
    socket before a write is dispatched; the driver must fail over to the
    second controller transparently — no error leaks to the client, no
    acknowledged write is lost or duplicated, and the prepared statement in
    use is re-prepared on the survivor.
    """
    result = ChaosResult("remote_disconnect_failover", seed)
    cluster, vdb = _boot_kv_cluster(2, controllers=2, listen=True)
    try:
        cluster.start_servers()
        primary_server = cluster.servers[f"{cluster.name}-a"]
        # sever the client's socket right before its 4th write dispatches
        injector = primary_server.ensure_fault_injector(seed)
        injector.inject("disconnect", after_n_ops=4, operations=("execute",))

        connection = connect(
            cluster.remote_url(cluster.name), user="chaos", password="chaos"
        )
        statement = connection.prepare("INSERT INTO kv (k, v) VALUES (?, ?)")
        writes = max(int(20 * scale), 8)
        acked: Dict[int, str] = {}
        client_errors = 0
        for index in range(writes):
            key = 9000 + index
            try:
                statement.execute((key, f"remote-{key}"))
            except CJDBCError:
                client_errors += 1
                continue
            acked[key] = f"remote-{key}"
        count = connection.execute("SELECT COUNT(*) FROM kv").scalar()
        connection.close()

        if client_errors:
            result.violations.append(
                f"{client_errors} write errors leaked to the client despite"
                " transparent controller failover"
            )
        if connection.failovers < 1:
            result.violations.append(
                "the injected disconnect never made the driver fail over"
            )
        disconnects = primary_server.statistics()["fault_disconnects"]
        if disconnects < 1:
            result.violations.append("the disconnect fault never fired")
        _check_enabled_replicas(cluster, vdb, acked, result.violations)
        result.details.update(
            {
                "writes_acknowledged": len(acked),
                "driver_failovers": connection.failovers,
                "fault_disconnects": disconnects,
                "rows_visible_after_failover": count,
            }
        )
    finally:
        cluster.shutdown()
    return result


def scenario_controller_crash_failover(seed: int, scale: float = 1.0) -> ChaosResult:
    """The sequencer controller is killed mid-workload (§4.2 controller failure).

    Three controllers replicate one virtual database over TCP group nodes.
    A client with a :class:`RetryPolicy` writes through the remote driver;
    halfway through, the controller currently holding the group's sequencer
    role is hard-crashed (front-end and group node at once).  The survivors
    must detect the crash, elect the next sequencer and converge to a
    two-member view; the client must ride the crash on retries alone — and
    at the end no acknowledged write may be missing and the survivors must
    be digest-identical.  The workload is idempotent unique-key UPDATEs:
    sequencer-crash multicast retries are at-least-once, and a duplicated
    UPDATE is harmless where a duplicated INSERT would be an error.
    """
    result = ChaosResult("controller_crash_failover", seed)
    cluster = boot(_tcp_group_descriptor())
    connection = None
    try:
        cluster.start_servers()
        policy = RetryPolicy(
            max_attempts=8, backoff=0.02, backoff_max=0.5, operation_timeout=15.0,
            seed=seed,
        )
        # dial the sequencer's front-end first: killing it then exercises
        # client failover and sequencer re-election in the same blow
        sequencer = _sequencer(cluster)
        dial_order = [sequencer, *(name for name in cluster.servers if name != sequencer)]
        connection = connect_remote(
            [cluster.servers[name].url_authority for name in dial_order],
            cluster.name, "chaos", "chaos", retry_policy=policy,
        )
        cursor = connection.cursor()
        keys = max(int(10 * scale), 6)
        acked = seed_kv(cursor.execute, keys)
        rng = Random(seed)
        rounds = max(int(6 * scale), 3)
        kill_at = max(rounds // 2, 1)
        client_errors = 0
        armed_at = None
        for round_index in range(rounds):
            if round_index == kill_at:
                armed_at = time.monotonic()
                _kill_controller(cluster, sequencer)
            for key in range(keys):
                value = f"r{round_index}-{key}-{rng.randrange(1 << 30)}"
                try:
                    cursor.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
                except CJDBCError:
                    client_errors += 1
                    continue
                acked[key] = value

        survivors = _live_replicas(cluster)
        converged = _views_converged(survivors)
        detected_after = time.monotonic() - armed_at if armed_at is not None else None
        if not converged:
            views = {name: replica.group_members for name, replica in survivors.items()}
            result.violations.append(
                f"survivors never converged on the two-member view: {views}"
            )
        if sequencer in survivors:
            result.violations.append("the killed sequencer still counts as live")
        if client_errors:
            result.violations.append(
                f"{client_errors} write errors leaked to the client despite the"
                " retry policy"
            )
        if connection.failovers < 1:
            result.violations.append(
                "killing the client's controller never made the driver fail over"
            )
        engines = _live_engines(cluster)
        check_acked(engines, acked, result.violations)
        result.violations.extend(digest_mismatches(engines))
        result.details.update(
            {
                "killed_sequencer": sequencer,
                "new_sequencer": _sequencer(cluster),
                "writes_acknowledged": len(acked),
                "driver_failovers": connection.failovers,
                "driver_retries": connection.retries,
                "view_convergence_s": round(detected_after, 3)
                if detected_after is not None
                else None,
                "survivor_views": sorted(next(iter(survivors.values())).group_members),
            }
        )
    finally:
        if connection is not None and not connection.closed:
            connection.close()
        cluster.shutdown()
    return result


def scenario_controller_rejoin(seed: int, scale: float = 1.0) -> ChaosResult:
    """A crashed controller rejoins the live group and catches up by state transfer.

    Three controllers serve writes; one that is not the sequencer is killed
    and the survivors keep accepting writes it never saw.  The controller
    then comes back the way an operator restarts it (README "One process per
    controller"): the same descriptor, its ``group.members`` naming the
    survivors' live addresses, booted with ``only_controller=<victim>`` —
    fresh engines, empty database, same name.  It joins with state transfer:
    a peer serves it a snapshot under the write barrier, deliveries racing
    the snapshot are buffered and replayed, and at the end all three
    controllers are digest-identical with every acknowledged write present.
    """
    result = ChaosResult("controller_rejoin", seed)
    document = _tcp_group_descriptor()
    clusters = [boot(document)]
    connection = None
    try:
        cluster = clusters[0]
        cluster.start_servers()
        policy = RetryPolicy(max_attempts=6, backoff=0.02, backoff_max=0.5, seed=seed)
        # all three front-ends: the victim may well be the client's first
        # choice, in which case the retry policy rides its death too
        connection = connect(
            cluster.remote_url(cluster.name),
            user="chaos", password="chaos", retry_policy=policy,
        )
        cursor = connection.cursor()
        keys = max(int(10 * scale), 6)
        acked = seed_kv(cursor.execute, keys)

        victim = [name for name in cluster.group_nodes if name != _sequencer(cluster)][-1]
        _kill_controller(cluster, victim)
        survivors = _live_replicas(cluster)
        if not _views_converged(survivors):
            result.violations.append("survivors never evicted the killed controller")

        # writes the victim never saw — the rejoiner must recover them all
        rng = Random(seed)
        rounds = max(int(4 * scale), 2)
        for round_index in range(rounds):
            for key in range(keys):
                value = f"gone-{round_index}-{key}-{rng.randrange(1 << 30)}"
                cursor.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
                acked[key] = value

        document["virtual_databases"][0]["group"]["members"] = {
            name: cluster.group_nodes[name].address for name in survivors
        }
        clusters.append(boot(document, only_controller=victim))
        rejoined = clusters[1].replicas[(victim, cluster.name)]
        if rejoined.state_synced_from is None:
            result.violations.append(
                "the rejoined controller never state-transferred from a peer"
            )
        replicas = _live_replicas(*clusters)
        if not _views_converged(replicas):
            result.violations.append("the group never converged on the rejoined view")

        # post-rejoin writes must reach the rejoined controller too
        for key in range(keys):
            value = f"after-{key}-{rng.randrange(1 << 30)}"
            cursor.execute("UPDATE kv SET v = ? WHERE k = ?", (value, key))
            acked[key] = value

        engines = _live_engines(*clusters)
        check_acked(engines, acked, result.violations)
        result.violations.extend(digest_mismatches(engines))
        result.details.update(
            {
                "victim": victim,
                "state_synced_from": rejoined.state_synced_from,
                "snapshot_sequence": rejoined.statistics()["distributed"][
                    "last_applied_sequence"
                ],
                "writes_acknowledged": len(acked),
                "transfers_served": {
                    name: replica.state_transfers_served
                    for name, replica in replicas.items()
                },
            }
        )
    finally:
        if connection is not None and not connection.closed:
            connection.close()
        for cluster in reversed(clusters):
            cluster.shutdown()
    return result


def scenario_scheduler_isolation_mix(seed: int, scale: float = 1.0) -> ChaosResult:
    """A random multi-client mix must leave every ordered scheduler converged.

    Runs the isolation exerciser's random workload (reads, autocommit
    updates, and per-client transactions) under each write-ordering
    scheduler variant and asserts the replicas converge with no client
    errors or unexpected aborts left over.  The passthrough scheduler runs
    too, but only to *record* whether it diverged — no ordering, no
    convergence promise — which is the property the ordered variants are
    being checked against.
    """
    result = ChaosResult("scheduler_isolation_mix", seed)
    ordered = ("optimistic", "pessimistic", "table_lock", "mvcc")
    for scheduler in ordered:
        mix = run_random_mix(scheduler, seed=seed, scale=scale)
        if mix["client_errors"]:
            result.violations.append(
                f"{scheduler}: {mix['client_errors']} client errors during the mix"
            )
        if mix["divergences"]:
            result.violations.append(
                f"{scheduler}: replicas diverged: {mix['divergences']}"
            )
        result.details[scheduler] = {
            "operations": mix["operations"],
            "serialization_aborts": mix["serialization_aborts"],
        }
    passthrough = run_random_mix("passthrough", seed=seed, scale=scale)
    result.details["passthrough"] = {
        "operations": passthrough["operations"],
        "diverged_tables": sorted(passthrough["divergences"]),
    }
    return result


#: scenario name -> callable(seed, scale) -> ChaosResult
CHAOS_SCENARIOS: Dict[str, Callable[[int, float], ChaosResult]] = {
    "crash_mid_transaction": scenario_crash_mid_transaction,
    "crash_mid_batch": scenario_crash_mid_batch,
    "transient_error_storm": scenario_transient_error_storm,
    "slow_backend_first_policy": scenario_slow_backend_first_policy,
    "crash_reintegration_under_writes": scenario_crash_reintegration_under_writes,
    "distributed_controller_backend_failure": scenario_distributed_controller_backend_failure,
    "remote_disconnect_failover": scenario_remote_disconnect_failover,
    "controller_crash_failover": scenario_controller_crash_failover,
    "controller_rejoin": scenario_controller_rejoin,
    "scheduler_isolation_mix": scenario_scheduler_isolation_mix,
}

#: the cheapest scenarios, run on every PR via the bench_smoke marker
#: (the controller-crash pair runs at reduced scale there — see the smoke tests)
CHAOS_SMOKE_SCENARIOS = (
    "crash_mid_transaction",
    "crash_mid_batch",
    "transient_error_storm",
    "controller_crash_failover",
    "controller_rejoin",
)


def run_chaos_scenario(name: str, seed: int = 7, scale: float = 1.0) -> ChaosResult:
    """Run one named scenario; raises for unknown names."""
    scenario = CHAOS_SCENARIOS.get(name)
    if scenario is None:
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise CJDBCError(f"unknown chaos scenario {name!r} (scenarios: {known})")
    return scenario(seed, scale)


def run_chaos_suite(
    names: Optional[Sequence[str]] = None, seed: int = 7, scale: float = 1.0
) -> List[ChaosResult]:
    """Run a list of scenarios (default: every registered one)."""
    selected = list(names) if names else sorted(CHAOS_SCENARIOS)
    unknown = sorted(set(selected) - set(CHAOS_SCENARIOS))
    if unknown:
        # fail before any (expensive) scenario runs, not midway through
        known = ", ".join(sorted(CHAOS_SCENARIOS))
        raise CJDBCError(
            f"unknown chaos scenario{'s' if len(unknown) > 1 else ''}"
            f" {', '.join(map(repr, unknown))} (scenarios: {known})"
        )
    return [run_chaos_scenario(name, seed=seed, scale=scale) for name in selected]


def format_chaos_report(results: Sequence[ChaosResult]) -> str:
    """Render scenario outcomes the way the other bench reports read."""
    lines = ["chaos scenario suite", "====================", ""]
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        lines.append(f"[{status}] {result.name} (seed {result.seed})")
        latency = result.details.get("failover_latency_s")
        if latency is not None:
            lines.append(f"    failover latency: {latency * 1000.0:.1f}ms")
        for key in sorted(result.details):
            if key == "failover_latency_s":
                continue
            lines.append(f"    {key}: {result.details[key]}")
        for violation in result.violations:
            lines.append(f"    VIOLATION: {violation}")
    passed = sum(1 for result in results if result.ok)
    lines.append("")
    lines.append(f"{passed}/{len(results)} scenarios passed")
    return "\n".join(lines)


__all__ = [
    "CHAOS_SCENARIOS",
    "CHAOS_SMOKE_SCENARIOS",
    "BackendStateLog",
    "ChaosResult",
    "digest_mismatches",
    "format_chaos_report",
    "run_chaos_scenario",
    "run_chaos_suite",
    "table_digests",
]
