"""Scheduler contention ablation (CCBench-style read/write mix × skew grid).

Each cell of the grid runs the same seeded workload against a fresh
two-backend RAIDb-1 cluster, once per scheduler variant: dedicated
*reader* threads loop point reads while dedicated *writer* threads loop
autocommit updates for a fixed duration, each picking a table by the cell's
skew (``uniform`` over all tables, or ``hot`` with 80% of operations on
``t0``).  A small latency fault on one backend makes every write hold its
scheduler ticket for a realistic broadcast time, so the variants'
contention behaviour (do readers wait? at what granularity?) dominates
the measurement instead of in-memory statement cost.  Dedicated readers
are the point of the design: their completion rate measures read blocking
directly, instead of being diluted by the same thread queueing on writes.

Each cell also carries the scheduler's own ``read_wait``/``write_wait``
counters, so whether readers blocked is a count, not a throughput ratio:
pessimistic readers wait behind every write, the non-blocking-read
schedulers (passthrough, optimistic, mvcc) do not.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.cluster.fixture import boot, descriptor, seed_kv
from repro.core.scheduler import SCHEDULER_NAMES, canonical_scheduler_name
from repro.errors import CJDBCError

_TABLES = 4
_ROWS_PER_TABLE = 32


def _run_cell(
    scheduler: str,
    readers: int,
    writers: int,
    skew: str,
    duration: float,
    write_latency_ms: float,
    seed: int,
) -> dict:
    cluster = boot(
        descriptor(
            "schedbench",
            2,
            load_balancing_policy="rr",
            scheduler=scheduler,
            recovery_log="none",
        )
    )
    try:
        vdb = cluster.virtual_database(cluster.name)
        manager = vdb.request_manager
        for table in range(_TABLES):
            seed_kv(manager.execute, _ROWS_PER_TABLE, table=f"t{table}")
        # writes hold their ticket for a realistic broadcast time; reads are
        # untouched (match_sql), so the schedulers' blocking behaviour is
        # what the cell measures
        vdb.fault_injector("b0").inject(
            "latency",
            latency_ms=write_latency_ms,
            match_sql="UPDATE",
            operations=("execute",),
        )
        clients = readers + writers
        reads = [0] * clients
        writes = [0] * clients
        errors = [0] * clients
        barrier = threading.Barrier(clients + 1)
        deadline: List[float] = []

        def pick_table(rng: Random) -> str:
            if skew == "hot" and rng.random() < 0.8:
                return "t0"
            return f"t{rng.randrange(_TABLES)}"

        def reader(index: int) -> None:
            rng = Random(seed * 100 + index)
            barrier.wait()
            while time.monotonic() < deadline[0]:
                table = pick_table(rng)
                key = rng.randrange(_ROWS_PER_TABLE)
                try:
                    manager.execute(f"SELECT v FROM {table} WHERE k = ?", (key,))
                    reads[index] += 1
                except CJDBCError:
                    errors[index] += 1

        def writer(index: int) -> None:
            rng = Random(seed * 100 + index)
            barrier.wait()
            while time.monotonic() < deadline[0]:
                table = pick_table(rng)
                key = rng.randrange(_ROWS_PER_TABLE)
                try:
                    manager.execute(
                        f"UPDATE {table} SET v = ? WHERE k = ?", (f"c{index}", key)
                    )
                    writes[index] += 1
                except CJDBCError:
                    errors[index] += 1

        threads = [
            threading.Thread(target=reader, args=(index,)) for index in range(readers)
        ] + [
            threading.Thread(target=writer, args=(readers + index,))
            for index in range(writers)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        deadline.append(time.monotonic() + duration)
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = manager.scheduler.statistics()
        total_reads, total_writes = sum(reads), sum(writes)
        total = total_reads + total_writes
        cell = {
            "readers": readers,
            "writers": writers,
            "operations": total,
            "reads": total_reads,
            "writes": total_writes,
            "errors": sum(errors),
            "seconds": round(elapsed, 6),
            "ops_per_second": round(total / elapsed, 1) if elapsed > 0 else 0.0,
            "read_ops_per_second": round(total_reads / elapsed, 1)
            if elapsed > 0
            else 0.0,
            "write_ops_per_second": round(total_writes / elapsed, 1)
            if elapsed > 0
            else 0.0,
            "read_wait": stats["read_wait"],
            "write_wait": stats["write_wait"],
        }
        for extra in ("table_lock", "mvcc"):
            if extra in stats:
                cell[extra] = stats[extra]
        return cell
    finally:
        cluster.shutdown()


def run_scheduler_ablation(
    schedulers: Optional[Sequence[str]] = None,
    mixes: Sequence[Sequence[int]] = ((3, 1), (2, 2)),
    skews: Sequence[str] = ("uniform", "hot"),
    duration: float = 0.5,
    write_latency_ms: float = 2.0,
    seed: int = 7,
) -> dict:
    """Run the read/write-mix × skew grid for every scheduler variant.

    ``mixes`` is a sequence of ``(readers, writers)`` thread splits; each
    combined with each skew makes one cell (named ``r{readers}w{writers}_
    {skew}``).  Returns per-scheduler throughput and wait accounting for
    every cell.
    """
    selected = [
        canonical_scheduler_name(name) for name in (schedulers or SCHEDULER_NAMES)
    ]
    cells: Dict[str, Dict[str, dict]] = {}
    for readers, writers in mixes:
        for skew in skews:
            cell_name = f"r{readers}w{writers}_{skew}"
            cells[cell_name] = {
                scheduler: _run_cell(
                    scheduler,
                    readers,
                    writers,
                    skew,
                    duration=duration,
                    write_latency_ms=write_latency_ms,
                    seed=seed,
                )
                for scheduler in selected
            }
    return {
        "benchmark": "scheduler",
        "config": {
            "schedulers": selected,
            "mixes": [list(mix) for mix in mixes],
            "skews": list(skews),
            "duration": duration,
            "write_latency_ms": write_latency_ms,
            "seed": seed,
            "tables": _TABLES,
            "rows_per_table": _ROWS_PER_TABLE,
        },
        "cells": cells,
    }


__all__ = ["run_scheduler_ablation"]
