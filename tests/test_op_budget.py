"""Call budgets for the request hot path.

Counts the Python function calls (``sys.setprofile`` ``call`` events) one
operation makes through :meth:`RequestManager.execute` on a 3-backend
manager with a result cache and a memory recovery log.  The budgets are the
counts measured on CPython 3.11; a change that lengthens the hot path fails
here with the per-function difference, whatever the machine's speed.
"""

import sys
from collections import Counter

import pytest

from repro.core.backend import DatabaseBackend
from repro.core.cache import ResultCache
from repro.core.recovery import MemoryRecoveryLog
from repro.core.request_manager import RequestManager
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi

#: calls per operation, measured after one warm-up of the same statement
CACHED_READ_BUDGET = 28
REPLICATED_WRITE_BUDGET = 381

READ = "SELECT v FROM kv WHERE k = ?"
WRITE = "UPDATE kv SET v = ? WHERE k = ?"


def make_manager(backends=3):
    members = []
    for index in range(backends):
        engine = DatabaseEngine(f"budget-{id(members)}-{index}")
        backend = DatabaseBackend(
            name=f"backend{index}",
            connection_factory=lambda engine=engine: dbapi.connect(engine),
            metadata_factory=lambda engine=engine: DatabaseMetaData(engine),
        )
        backend.enable()
        members.append(backend)
    manager = RequestManager(
        backends=members, result_cache=ResultCache(), recovery_log=MemoryRecoveryLog()
    )
    manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    manager.execute("INSERT INTO kv (k, v) VALUES (1, 'one')")
    return manager


def count_calls(operation):
    """Python calls made by ``operation()``, keyed by ``file:function``."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return calls


def assert_within_budget(calls, budget):
    total = sum(calls.values())
    detail = "\n".join(f"  {count:4d}  {name}" for name, count in calls.most_common())
    assert total <= budget, f"{total} calls > budget {budget}:\n{detail}"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="budgets measured on CPython 3.11")
class TestCallBudget:
    def test_warm_cached_point_read(self):
        manager = make_manager()
        for _ in range(2):  # a miss that fills the cache, then a first hit
            manager.execute(READ, (1,))
        calls = count_calls(lambda: manager.execute(READ, (1,)))
        assert_within_budget(calls, CACHED_READ_BUDGET)

    def test_three_replica_autocommit_write(self):
        manager = make_manager()
        manager.execute(WRITE, ("warm", 1))
        calls = count_calls(lambda: manager.execute(WRITE, ("two", 1)))
        assert_within_budget(calls, REPLICATED_WRITE_BUDGET)
