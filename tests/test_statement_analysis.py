"""The controller reads every statement fact off the engine's parse tree.

Each class below reproduces a wrong answer or a wasted backend round trip
that reading the SQL text gave: a volatile read served from the result
cache, an UPDATE whose assigned columns were cut from its text, and an
unparseable statement (or a DEFAULT no backend can evaluate alike) that
reached every backend.
"""

import pathlib
import re

import pytest

from tests.conftest import make_cluster

from repro.core import connect
from repro.errors import SQLSyntaxError


def _cluster(name, **config):
    controller, vdb, engines = make_cluster(name, cache_enabled=True, **config)
    connection = connect(controller, name, "u", "p")
    connection.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, a INT, b INT, note VARCHAR(20))")
    connection.execute("INSERT INTO t (k, v, a, b, note) VALUES (1, 0, 0, 0, 'n')")
    return connection, vdb, engines


class TestVolatileReadsAreNotCached:
    def test_rand_is_drawn_again_on_each_read(self):
        connection, vdb, _ = _cluster("volatile-rand")
        draws = [connection.execute("SELECT k, RAND() FROM t").fetchall() for _ in range(2)]
        assert draws[0] != draws[1]
        assert vdb.request_manager.result_cache.statistics.hits == 0

    def test_a_plain_read_is_still_cached(self):
        connection, vdb, _ = _cluster("volatile-plain")
        for _ in range(2):
            connection.execute("SELECT k, v FROM t")
        assert vdb.request_manager.result_cache.statistics.hits == 1


class TestColumnGranularityReadsTheParsedUpdate:
    """``granularity: column`` keeps a read only when no assigned column is in it."""

    @pytest.mark.parametrize(
        "update",
        [
            "UPDATE t SET note = ' where ', v = 5 WHERE k = 1",
            "UPDATE t SET\nv = 5 WHERE k = 1",
            "UPDATE t SET v = COALESCE(a, b) + 5 WHERE k = 1",
        ],
    )
    def test_an_update_of_v_invalidates_a_read_of_v(self, update):
        connection, _, _ = _cluster("column-granularity", cache_granularity="column")
        assert connection.execute("SELECT v FROM t WHERE k = 1").fetchall() == [(0,)]
        connection.execute(update)
        cursor = connection.execute("SELECT v FROM t WHERE k = 1")
        assert not cursor.from_cache
        assert cursor.fetchall() == [(5,)]

    def test_an_update_of_other_columns_keeps_the_read(self):
        connection, _, _ = _cluster("column-kept", cache_granularity="column")
        connection.execute("SELECT v FROM t WHERE k = 1")
        connection.execute("UPDATE t SET note = 'v = 1', a = 2 WHERE k = 1")
        assert connection.execute("SELECT v FROM t WHERE k = 1").from_cache


class TestUnparseableStatementsStopAtTheController:
    @pytest.mark.parametrize(
        "sql, message",
        [
            ("INSERT INTO t VALUES (1, ", "expected an expression"),
            ("ALTER TABLE t DROP COLUMN v", "expected ADD"),
            # a backend stored NULL for these; evaluated there, replicas would differ
            (
                "CREATE TABLE d (k INT PRIMARY KEY, r FLOAT DEFAULT RAND())",
                "'r' must be a constant",
            ),
            ("ALTER TABLE t ADD COLUMN ts TIMESTAMP DEFAULT NOW()", "'ts' must be a constant"),
            ("CREATE TABLE d (k INT, m INT DEFAULT k)", "'m' must be a constant"),
            ("CREATE TABLE d (k INT, m INT DEFAULT -k)", "'m' must be a constant"),
        ],
    )
    def test_no_backend_sees_it(self, sql, message):
        connection, vdb, engines = _cluster("unparseable")
        executed = [engine.statements_executed for engine in engines]
        with pytest.raises(SQLSyntaxError, match=message):
            connection.execute(sql)
        assert [engine.statements_executed for engine in engines] == executed
        assert [backend.name for backend in vdb.backends if not backend.is_enabled] == []

    def test_constant_defaults_are_stored(self):
        connection, _, engines = _cluster("constant-default")
        connection.execute(
            "CREATE TABLE d (k INT PRIMARY KEY, n INT DEFAULT 0, s VARCHAR(4) DEFAULT 'n',"
            " z INT DEFAULT NULL, m INT DEFAULT -1, f FLOAT DEFAULT -2.5)"
        )
        connection.execute("INSERT INTO d (k) VALUES (1)")
        for engine in engines:
            assert engine.execute("SELECT n, s, z, m, f FROM d").rows == [
                (0, "n", None, -1, -2.5)
            ]


def test_only_the_engine_imports_its_lexer():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    importers = [
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if path.parent.name != "sql"
        and re.search(r"repro\.sql\.lexer|from repro\.sql import .*\blexer\b", path.read_text())
    ]
    assert importers == []
