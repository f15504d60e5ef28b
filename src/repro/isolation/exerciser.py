"""HISTEX-style isolation exerciser: seeded interleavings against live clusters.

Each probe boots a disposable two-backend RAIDb-1 cluster with a chosen
scheduler, drives a small seeded multi-client interleaving designed to
surface one anomaly, records what every client observed into a
:class:`~repro.isolation.checker.History`, and classifies the outcome as a
matrix cell (``observed`` / ``prevented`` plus the mechanism and evidence).

The anomalies are framed at the **replication** level, because that is
where the middleware schedulers differ — each in-memory backend already
runs strict two-phase locking internally, so a single replica never shows
the textbook single-node races.  What the schedulers control is whether
clients can observe *half-propagated* or *divergently ordered* writes
across replicas:

* ``dirty_read`` — a read returns a write's new value from the replica it
  already reached, before the write is acknowledged everywhere;
* ``non_repeatable_read`` — consecutive reads by one client go new→old
  because round-robin routing lands them on a replica the write has not
  reached yet;
* ``lost_update`` — two racing updates to the same row apply in different
  orders on different replicas, so one replica keeps the overwritten value;
* ``ww_conflict`` — a transaction writes a table another transaction
  committed after its snapshot; only the MVCC scheduler aborts the loser
  (first committer wins), everyone else silently overwrites;
* ``write_skew`` — two transactions read an invariant and write disjoint
  tables; admitted by every scheduler (documented, not hidden: statement
  schedulers order statements, and scheduler-level snapshot validation
  only sees write sets);
* ``read_blocking`` — not a data anomaly but the price axis: whether the
  scheduler makes readers wait during a write storm.

The replicas are never *left* divergent except by the passthrough
scheduler — which is the point the matrix demonstrates.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.cluster.fixture import boot, descriptor, digest_mismatches, seed_kv
from repro.core.scheduler import SCHEDULER_NAMES, canonical_scheduler_name
from repro.errors import CJDBCError, SerializationConflictError
from repro.isolation.checker import History, backward_transitions, cell, dirty_reads

#: a client-side read slower than this during a probe counts as blocked —
#: an unblocked in-memory read is microseconds, a read parked behind a
#: scheduler write ticket waits the whole broadcast (tens of milliseconds)
_BLOCKED_READ_SECONDS = 0.010


class _ProbeBed:
    """One disposable 2-backend RAIDb-1 cluster with the exerciser schema.

    Round-robin read routing is load-bearing: the anomaly probes rely on
    consecutive reads alternating between the replica a latency-delayed
    write has already reached and the one it has not.
    """

    def __init__(self, scheduler="optimistic", clients: int = 3):
        self.cluster = boot(
            descriptor("iso", 2, load_balancing_policy="rr", scheduler=scheduler)
        )
        self.engines = self.cluster.engines
        for engine in self.engines.values():
            engine.lock_manager.lock_timeout = 2.0
        self.vdb = self.cluster.virtual_database(self.cluster.name)
        self.manager = self.vdb.request_manager
        execute = self.manager.execute
        seed_kv(execute, 8)
        execute("CREATE TABLE meta (k INT PRIMARY KEY, v VARCHAR(40))")
        execute("INSERT INTO meta (k, v) VALUES (?, ?)", (1, "meta"))
        for account in ("acct_a", "acct_b"):
            execute(f"CREATE TABLE {account} (id INT PRIMARY KEY, balance INT)")
            execute(f"INSERT INTO {account} (id, balance) VALUES (?, ?)", (1, 60))
        # one private table per mix client, so transactional writes never
        # collide on backend-level row locks across clients
        for index in range(clients):
            seed_kv(execute, 0, table=f"c{index}")

    def injector(self, backend_name: str, seed: int = 0):
        return self.vdb.fault_injector(backend_name, seed=seed)

    def read_kv(self, key: int):
        result = self.manager.execute("SELECT v FROM kv WHERE k = ?", (key,))
        return result.rows[0][0] if result.rows else None

    def kv_values(self, key: int) -> Dict[str, object]:
        """The value of one kv row on each replica, read from the engines."""
        values: Dict[str, object] = {}
        for name, engine in self.engines.items():
            rows = [row for row in engine.dump_table_rows("kv") if row["k"] == key]
            values[name] = rows[0]["v"] if rows else None
        return values

    def scheduler_read_wait(self) -> dict:
        return self.manager.scheduler.statistics()["read_wait"]

    def shutdown(self) -> None:
        self.cluster.shutdown()


# ---------------------------------------------------------------------------
# probes — each returns one matrix cell
# ---------------------------------------------------------------------------


def probe_dirty_read(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """One write delayed on b1; do reads see its value before the ack?

    The delay goes on b1, the replica an in-order broadcast reaches last, so
    the write has already landed on b0 while it waits.
    """
    window = max(0.12 * scale, 0.06)
    iso.injector("b1", seed).inject(
        "latency", latency_ms=window * 1000, match_sql="UPDATE kv", operations=("execute",)
    )
    history = History()
    acked_at: List[float] = []

    def writer() -> None:
        iso.manager.execute("UPDATE kv SET v = ? WHERE k = ?", ("dirty-new", 0))
        acked_at.append(time.monotonic())

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        started = time.monotonic()
        value = iso.read_kv(0)
        history.add("reader", "read", started, time.monotonic(), table="kv", key=0, value=value)
        time.sleep(0.001)
    thread.join()
    dirty = dirty_reads(
        history, "kv", 0, "dirty-new", acked_at=acked_at[0], margin=window / 4
    )
    read_wait = iso.scheduler_read_wait()
    if dirty:
        return cell(
            "observed",
            mechanism="read returned the new value before the write was acked everywhere",
            dirty_reads=len(dirty),
            reads_issued=len(history),
        )
    return cell(
        "prevented",
        mechanism="readers blocked behind the in-flight write"
        if read_wait["count"]
        else "window not observed",
        reads_issued=len(history),
        blocked_reads=read_wait["count"],
    )


def probe_non_repeatable_read(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """Do round-robin reads go new→old while a write is half-propagated?"""
    iso.manager.execute("UPDATE kv SET v = ? WHERE k = ?", ("nrr-old", 1))
    window = max(0.12 * scale, 0.06)
    # delayed on b1, reached last, as in probe_dirty_read
    iso.injector("b1", seed).inject(
        "latency", latency_ms=window * 1000, match_sql="nrr-new", operations=("execute",)
    )
    history = History()

    def writer() -> None:
        iso.manager.execute("UPDATE kv SET v = 'nrr-new' WHERE k = 1")

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        # a burst of consecutive reads covers both replicas under rr routing
        for _ in range(4):
            started = time.monotonic()
            value = iso.read_kv(1)
            history.add(
                "reader", "read", started, time.monotonic(), table="kv", key=1, value=value
            )
        time.sleep(0.001)
    thread.join()
    backwards = backward_transitions(
        history, "reader", "kv", 1, {"nrr-old": 0, "nrr-new": 1}
    )
    read_wait = iso.scheduler_read_wait()
    if backwards:
        return cell(
            "observed",
            mechanism="consecutive reads went new→old across replicas",
            backward_transitions=backwards,
            reads_issued=len(history),
        )
    return cell(
        "prevented",
        mechanism="readers blocked behind the in-flight write"
        if read_wait["count"]
        else "window not observed",
        reads_issued=len(history),
        blocked_reads=read_wait["count"],
    )


def probe_lost_update(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """Two racing updates of one row: do the replicas apply them in order?"""
    window = max(0.3 * scale, 0.2)
    iso.injector("b1", seed).inject(
        "latency", latency_ms=window * 1000, match_sql="w1-lost", operations=("execute",)
    )

    def first_writer() -> None:
        iso.manager.execute("UPDATE kv SET v = 'w1-lost' WHERE k = 2")

    thread = threading.Thread(target=first_writer)
    thread.start()
    # wait until W1 has reached b0 (it is still sleeping towards b1) ...
    deadline = time.monotonic() + window / 2
    while time.monotonic() < deadline:
        if iso.kv_values(2)["b0"] == "w1-lost":
            break
        time.sleep(0.002)
    # ... then race W2 into the remaining window
    iso.manager.execute("UPDATE kv SET v = ? WHERE k = ?", ("w2-lost", 2))
    thread.join()
    values = iso.kv_values(2)
    diverged = len(set(values.values())) > 1
    if diverged:
        return cell(
            "observed",
            mechanism="replicas applied the two updates in different orders",
            replica_values=values,
        )
    return cell(
        "prevented",
        mechanism="total write order held the second update back",
        replica_values=values,
    )


def probe_ww_conflict(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """First-committer-wins: is a snapshot-stale write aborted or let through?"""
    manager = iso.manager
    t1 = manager.begin("iso")
    t2 = manager.begin("iso")
    # t2's snapshot is stamped by its first scheduled statement — this read
    # on an unrelated table, taken before t1 commits
    manager.execute("SELECT v FROM meta WHERE k = ?", (1,), transaction_id=t2)
    manager.execute(
        "UPDATE kv SET v = ? WHERE k = ?", ("t1-wins", 3), transaction_id=t1
    )
    manager.commit(t1, "iso")
    try:
        manager.execute(
            "UPDATE kv SET v = ? WHERE k = ?", ("t2-loses", 3), transaction_id=t2
        )
        manager.commit(t2, "iso")
        detected = False
    except SerializationConflictError:
        manager.rollback(t2, "iso")
        detected = True
    values = iso.kv_values(3)
    stats = manager.scheduler.statistics()
    if detected:
        return cell(
            "prevented",
            mechanism="first committer wins: the stale transaction was aborted"
            " before its write reached any backend",
            conflicts_detected=stats.get("mvcc", {}).get("conflicts_detected", 0),
            replica_values=values,
        )
    return cell(
        "observed",
        mechanism="the second transaction silently overwrote the first commit",
        replica_values=values,
    )


def probe_write_skew(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """Disjoint write sets under a shared invariant: admitted everywhere."""
    manager = iso.manager

    def balances(transaction_id: int) -> Dict[str, int]:
        return {
            account: manager.execute(
                f"SELECT balance FROM {account} WHERE id = ?",
                (1,),
                transaction_id=transaction_id,
            ).rows[0][0]
            for account in ("acct_a", "acct_b")
        }

    t1 = manager.begin("iso")
    t2 = manager.begin("iso")
    seen1 = balances(t1)
    seen2 = balances(t2)
    # each transaction withdraws 100, justified by the *sum* it read (120)
    manager.execute(
        "UPDATE acct_a SET balance = ? WHERE id = ?",
        (seen1["acct_a"] - 100, 1),
        transaction_id=t1,
    )
    manager.commit(t1, "iso")
    manager.execute(
        "UPDATE acct_b SET balance = ? WHERE id = ?",
        (seen2["acct_b"] - 100, 1),
        transaction_id=t2,
    )
    manager.commit(t2, "iso")
    total = sum(
        manager.execute(f"SELECT balance FROM {account} WHERE id = ?", (1,)).rows[0][0]
        for account in ("acct_a", "acct_b")
    )
    if total < 0:
        return cell(
            "observed",
            mechanism="disjoint write sets: both commits were admitted although"
            " together they break the invariant the reads justified",
            final_total=total,
        )
    return cell("prevented", final_total=total)  # pragma: no cover - none prevents it


def probe_read_blocking(iso: _ProbeBed, seed: int, scale: float) -> dict:
    """Do readers wait during a write storm?  Split by same/other table."""
    per_write = 0.015
    iso.injector("b0", seed).inject(
        "latency", latency_ms=per_write * 1000, match_sql="UPDATE kv", operations=("execute",)
    )
    writes = max(int(10 * scale), 5)

    def writer() -> None:
        for index in range(writes):
            iso.manager.execute(
                "UPDATE kv SET v = ? WHERE k = ?", (f"storm-{index}", 4)
            )

    slow: Dict[str, int] = {"kv": 0, "meta": 0}
    reads = 0
    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        for table, sql in (
            ("kv", "SELECT v FROM kv WHERE k = ?"),
            ("meta", "SELECT v FROM meta WHERE k = ?"),
        ):
            started = time.monotonic()
            iso.manager.execute(sql, (4 if table == "kv" else 1,))
            if time.monotonic() - started >= _BLOCKED_READ_SECONDS:
                slow[table] += 1
            reads += 1
        time.sleep(0.002)
    thread.join()
    blocked = slow["kv"] + slow["meta"]
    details = {
        "reads_issued": reads,
        "blocked_reads": blocked,
        "same_table_blocked": slow["kv"],
        "other_table_blocked": slow["meta"],
        "scheduler_read_wait": iso.scheduler_read_wait(),
    }
    if blocked:
        mechanism = (
            "blocked reads were confined to the written table"
            if slow["meta"] == 0
            else "reads on unrelated tables waited too"
        )
        return cell("observed", mechanism=mechanism, **details)
    return cell("prevented", mechanism="reads never wait for writes", **details)


#: anomaly name -> probe(iso, seed, scale) -> matrix cell
PROBES = {
    "dirty_read": probe_dirty_read,
    "non_repeatable_read": probe_non_repeatable_read,
    "lost_update": probe_lost_update,
    "ww_conflict": probe_ww_conflict,
    "write_skew": probe_write_skew,
    "read_blocking": probe_read_blocking,
}

ANOMALIES = tuple(PROBES)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_isolation_probe(
    scheduler: str, anomaly: str, seed: int = 7, scale: float = 1.0
) -> dict:
    """Run one probe against a fresh cluster with the given scheduler."""
    probe = PROBES.get(anomaly)
    if probe is None:
        known = ", ".join(ANOMALIES)
        raise CJDBCError(f"unknown isolation probe {anomaly!r} (probes: {known})")
    iso = _ProbeBed(scheduler=canonical_scheduler_name(scheduler))
    try:
        return probe(iso, seed, scale)
    finally:
        iso.shutdown()


def run_isolation_matrix(
    schedulers: Optional[Sequence[str]] = None, seed: int = 7, scale: float = 1.0
) -> dict:
    """The scheduler×anomaly matrix: every probe against every scheduler."""
    selected = [
        canonical_scheduler_name(name)
        for name in (schedulers if schedulers else SCHEDULER_NAMES)
    ]
    return {
        "version": 1,
        "seed": seed,
        "scale": scale,
        "anomalies": list(ANOMALIES),
        "schedulers": {
            name: {
                anomaly: run_isolation_probe(name, anomaly, seed=seed, scale=scale)
                for anomaly in ANOMALIES
            }
            for name in selected
        },
    }


def run_random_mix(
    scheduler: str, seed: int = 7, scale: float = 1.0, clients: int = 3
) -> dict:
    """A seeded multi-client read/write/transaction mix; reports convergence.

    Unlike the targeted probes this injects no faults: whatever divergence
    shows up comes purely from the scheduler (or lack of one) letting
    concurrent same-row updates apply in different orders on different
    replicas.  Serialization conflicts under the MVCC scheduler are rolled
    back and counted, not treated as client errors.
    """
    iso = _ProbeBed(scheduler=canonical_scheduler_name(scheduler), clients=clients)
    try:
        ops_per_client = max(int(30 * scale), 10)
        errors = [0] * clients
        aborts = [0] * clients

        def client(index: int) -> None:
            rng = Random(seed * 1000 + index)
            manager = iso.manager
            for op in range(ops_per_client):
                roll = rng.random()
                try:
                    if roll < 0.5:
                        manager.execute(
                            "SELECT v FROM kv WHERE k = ?", (rng.randrange(8),)
                        )
                    elif roll < 0.8:
                        manager.execute(
                            "UPDATE kv SET v = ? WHERE k = ?",
                            (f"c{index}-{op}", rng.randrange(8)),
                        )
                    else:
                        tid = manager.begin(f"c{index}")
                        try:
                            manager.execute(
                                f"INSERT INTO c{index} (k, v) VALUES (?, ?)",
                                (op, f"v{op}"),
                                transaction_id=tid,
                            )
                            manager.execute(
                                f"UPDATE c{index} SET v = ? WHERE k = ?",
                                (f"v{op}+", op),
                                transaction_id=tid,
                            )
                            manager.commit(tid, f"c{index}")
                        except SerializationConflictError:
                            aborts[index] += 1
                            manager.rollback(tid, f"c{index}")
                except SerializationConflictError:
                    aborts[index] += 1
                except CJDBCError:
                    errors[index] += 1

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "scheduler": canonical_scheduler_name(scheduler),
            "clients": clients,
            "operations": ops_per_client * clients,
            "client_errors": sum(errors),
            "serialization_aborts": sum(aborts),
            "divergences": digest_mismatches(iso.engines),
            "scheduler_statistics": iso.manager.scheduler.statistics(),
        }
    finally:
        iso.shutdown()


__all__ = [
    "ANOMALIES",
    "PROBES",
    "run_isolation_matrix",
    "run_isolation_probe",
    "run_random_mix",
]
