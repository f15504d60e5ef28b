"""Tests for the request schedulers (ordering and concurrency guarantees)."""

import threading
import time

import pytest

from repro.core.request import SelectRequest, WriteRequest
from repro.core.scheduler import (
    MVCCScheduler,
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
    TableLockScheduler,
)


def read(sql="SELECT 1"):
    return SelectRequest(sql=sql)


def write(sql="UPDATE t SET a = 1"):
    return WriteRequest(sql=sql, tables=("t",))


ALL_SCHEDULERS = [
    PassThroughScheduler,
    OptimisticTransactionLevelScheduler,
    PessimisticTransactionLevelScheduler,
    TableLockScheduler,
    MVCCScheduler,
]


class TestCommonBehaviour:
    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_write_order_is_monotonic(self, scheduler_class):
        scheduler = scheduler_class()
        orders = []
        for _ in range(5):
            ticket = scheduler.schedule_write(write())
            orders.append(ticket.order)
            ticket.release()
        assert orders == sorted(orders)
        assert len(set(orders)) == 5

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_read_tickets_have_no_order(self, scheduler_class):
        scheduler = scheduler_class()
        ticket = scheduler.schedule_read(read())
        assert ticket.order == 0
        ticket.release()

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_statistics(self, scheduler_class):
        scheduler = scheduler_class()
        scheduler.schedule_read(read()).release()
        scheduler.schedule_write(write()).release()
        stats = scheduler.statistics()
        assert stats["reads_scheduled"] == 1
        assert stats["writes_scheduled"] == 1
        assert stats["pending_writes"] == 0

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_ticket_context_manager(self, scheduler_class):
        scheduler = scheduler_class()
        with scheduler.schedule_write(write()) as ticket:
            assert ticket.order >= 1
        assert scheduler.pending_writes == 0

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_double_release_is_harmless(self, scheduler_class):
        scheduler = scheduler_class()
        ticket = scheduler.schedule_write(write())
        ticket.release()
        ticket.release()
        assert scheduler.pending_writes == 0


class TestWriteSerialization:
    @pytest.mark.parametrize(
        "scheduler_class",
        [
            OptimisticTransactionLevelScheduler,
            PessimisticTransactionLevelScheduler,
            # mvcc writes lock "*" exclusively; table_lock serializes only
            # same-table writes — here every write touches table "t"
            TableLockScheduler,
            MVCCScheduler,
        ],
    )
    def test_only_one_write_in_progress(self, scheduler_class):
        """Paper §2.4.1: a single update/commit/abort in progress at any time."""
        scheduler = scheduler_class()
        in_progress = []
        max_in_progress = []
        lock = threading.Lock()

        def writer():
            ticket = scheduler.schedule_write(write())
            with lock:
                in_progress.append(1)
                max_in_progress.append(len(in_progress))
            time.sleep(0.01)
            with lock:
                in_progress.pop()
            ticket.release()

        threads = [threading.Thread(target=writer) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(max_in_progress) == 1

    def test_optimistic_allows_reads_during_write(self):
        scheduler = OptimisticTransactionLevelScheduler()
        write_ticket = scheduler.schedule_write(write())
        finished = []

        def reader():
            ticket = scheduler.schedule_read(read())
            finished.append(True)
            ticket.release()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=1.0)
        assert finished == [True]
        write_ticket.release()

    def test_pessimistic_blocks_reads_during_write(self):
        scheduler = PessimisticTransactionLevelScheduler()
        write_ticket = scheduler.schedule_write(write())
        progressed = threading.Event()

        def reader():
            ticket = scheduler.schedule_read(read())
            progressed.set()
            ticket.release()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        assert not progressed.wait(timeout=0.1)
        write_ticket.release()
        assert progressed.wait(timeout=1.0)

    def test_pessimistic_write_waits_for_readers(self):
        scheduler = PessimisticTransactionLevelScheduler()
        read_ticket = scheduler.schedule_read(read())
        acquired = threading.Event()

        def writer():
            ticket = scheduler.schedule_write(write())
            acquired.set()
            ticket.release()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert not acquired.wait(timeout=0.1)
        read_ticket.release()
        assert acquired.wait(timeout=1.0)

    def test_passthrough_never_blocks(self):
        scheduler = PassThroughScheduler()
        tickets = [scheduler.schedule_write(write()) for _ in range(3)]
        tickets += [scheduler.schedule_read(read()) for _ in range(3)]
        for ticket in tickets:
            ticket.release()
        assert scheduler.pending_writes == 0
