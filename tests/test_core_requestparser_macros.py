"""Tests for request parsing, table extraction and macro rewriting."""

import datetime
import re

import pytest

from repro.cluster.fixture import boot, descriptor, digest_mismatches
from repro.core.request import (
    BeginRequest,
    CommitRequest,
    DDLRequest,
    RequestType,
    RollbackRequest,
    SelectRequest,
    WriteRequest,
)
from repro.core.requestparser import RequestFactory
from repro.errors import SQLSyntaxError
from repro.sql import DatabaseEngine
from repro.sql.functions import VOLATILE_FUNCTIONS


@pytest.fixture
def factory():
    return RequestFactory()


class TestRequestClassification:
    def test_select(self, factory):
        request = factory.create_request("SELECT * FROM item WHERE i_id = ?", (3,))
        assert isinstance(request, SelectRequest)
        assert request.is_read_only
        assert request.tables == ("item",)
        assert request.parameters == (3,)

    def test_insert_update_delete_are_writes(self, factory):
        for sql in (
            "INSERT INTO item (i_id) VALUES (1)",
            "UPDATE item SET i_stock = 0",
            "DELETE FROM item WHERE i_id = 1",
        ):
            request = factory.create_request(sql)
            assert isinstance(request, WriteRequest)
            assert request.alters_database

    def test_ddl(self, factory):
        request = factory.create_request("CREATE TABLE t (a INT)")
        assert isinstance(request, DDLRequest)
        assert request.alters_schema

    def test_transaction_markers(self, factory):
        assert isinstance(factory.create_request("BEGIN"), BeginRequest)
        assert isinstance(factory.create_request("START TRANSACTION"), BeginRequest)
        assert isinstance(factory.create_request("COMMIT"), CommitRequest)
        assert isinstance(factory.create_request("ROLLBACK"), RollbackRequest)

    def test_request_types(self, factory):
        assert factory.create_request("SELECT 1").request_type is RequestType.SELECT
        assert factory.create_request("COMMIT").request_type is RequestType.COMMIT

    def test_empty_sql_rejected(self, factory):
        with pytest.raises(SQLSyntaxError):
            factory.create_request("   ")

    def test_unsupported_statement_rejected(self, factory):
        with pytest.raises(SQLSyntaxError):
            factory.create_request("TRUNCATE item")

    def test_login_and_transaction_are_attached(self, factory):
        request = factory.create_request("SELECT 1", login="alice", transaction_id=42)
        assert request.login == "alice"
        assert request.transaction_id == 42
        assert not request.is_autocommit

    def test_request_ids_are_unique(self, factory):
        first = factory.create_request("SELECT 1")
        second = factory.create_request("SELECT 1")
        assert first.request_id != second.request_id

    def test_cache_key_includes_parameters(self, factory):
        one = factory.create_request("SELECT * FROM item WHERE i_id = ?", (1,))
        two = factory.create_request("SELECT * FROM item WHERE i_id = ?", (2,))
        assert one.cache_key() != two.cache_key()


class TestTableExtraction:
    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT * FROM item", ["item"]),
            ("SELECT * FROM item i, author a WHERE i.i_a_id = a.a_id", ["item", "author"]),
            ("SELECT * FROM item JOIN author ON i_a_id = a_id", ["item", "author"]),
            (
                "SELECT * FROM orders o LEFT JOIN order_line ol ON o.o_id = ol.ol_o_id",
                ["orders", "order_line"],
            ),
            ("INSERT INTO customer (c_id) VALUES (1)", ["customer"]),
            ("UPDATE item SET i_stock = 0 WHERE i_id = 1", ["item"]),
            ("DELETE FROM cc_xacts", ["cc_xacts"]),
            ("CREATE TABLE new_table (a INT)", ["new_table"]),
            ("CREATE TABLE IF NOT EXISTS new_table (a INT)", ["new_table"]),
            ("DROP TABLE old_table", ["old_table"]),
            ("CREATE INDEX idx ON item (i_title)", ["item"]),
            (
                "SELECT * FROM item WHERE i_id IN (SELECT ol_i_id FROM order_line)",
                ["item", "order_line"],
            ),
            (
                "INSERT INTO archive (a) SELECT i_id FROM item WHERE i_stock = 0",
                ["archive", "item"],
            ),
            (
                "SELECT (SELECT COUNT(*) FROM order_line) AS n, i_id FROM item",
                ["order_line", "item"],
            ),
            ("SELECT 'sold FROM stock' FROM item", ["item"]),
        ],
    )
    def test_extraction(self, factory, sql, expected):
        assert factory.get_template(sql).tables == tuple(expected)

    def test_duplicates_removed(self, factory):
        assert factory.get_template("SELECT * FROM item a, item b").tables == ("item",)


#: NOW() spelled with the whitespace SQL allows between a name and its "("
NOW_SPELLINGS = ["NOW()", "NOW ()", "now()", "NOW  ()", "NOW\t()", "NOW\n()"]
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d")
#: the clock and random draw a pinned test sees
PINNED_NOW = datetime.datetime(2004, 6, 27, 12, 0, 0, 123456)
PINNED_RAND = 0.12345678901234567


@pytest.fixture
def pinned(monkeypatch):
    """Pin NOW(), CURRENT_DATE() and RAND() in the engine's function table."""
    monkeypatch.setitem(VOLATILE_FUNCTIONS, "NOW", lambda args: PINNED_NOW)
    monkeypatch.setitem(VOLATILE_FUNCTIONS, "CURRENT_DATE", lambda args: PINNED_NOW.date())
    monkeypatch.setitem(VOLATILE_FUNCTIONS, "RAND", lambda args: PINNED_RAND)


class TestMacroRewriting:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (NOW())",
            "select rand()",
            "INSERT INTO t (k, r) VALUES (2, RAND  ())",
            "UPDATE t SET ts = NOW\t()",
            "UPDATE t SET ts = NOW\n() WHERE k = 1",
        ],
    )
    def test_contains_macro(self, factory, sql):
        (site,) = factory.get_template(sql).macro_sites
        start, end, name = site
        assert name in ("NOW", "RAND")
        assert re.fullmatch(r"(?i)(now|rand)\s*\(\)", sql.strip()[start:end])

    def test_contains_no_macro(self, factory):
        assert factory.get_template("SELECT * FROM nowhere").macro_sites == ()

    @pytest.mark.parametrize("now", NOW_SPELLINGS)
    def test_now_is_bound_as_a_timestamp(self, factory, now):
        request = factory.create_request(f"INSERT INTO t (ts) VALUES ({now})")
        assert request.sql == "INSERT INTO t (ts) VALUES (?)"
        (value,) = request.parameters
        assert TIMESTAMP.fullmatch(value)

    def test_injected_clock(self, factory, pinned):
        request = factory.create_request("UPDATE t SET ts = NOW(), d = CURRENT_DATE()")
        assert request.sql == "UPDATE t SET ts = ?, d = ?"
        assert request.parameters == ("2004-06-27 12:00:00", "2004-06-27")

    @pytest.mark.parametrize("rand", ["RAND()", "RAND  ()", "RAND\t()", "RAND\n()"])
    def test_rand_is_bound_as_a_number(self, factory, rand):
        request = factory.create_request(f"INSERT INTO t (x) VALUES ({rand})")
        assert request.sql == "INSERT INTO t (x) VALUES (?)"
        (value,) = request.parameters
        assert 0.0 <= value < 1.0

    def test_multiple_macros(self, factory):
        request = factory.create_request("INSERT INTO t VALUES (NOW(), RAND(), 3)")
        assert request.sql == "INSERT INTO t VALUES (?, ?, 3)"
        assert [type(value) for value in request.parameters] == [str, float]

    @pytest.mark.parametrize(
        "sql, parameters, expected",
        [
            ("INSERT INTO t VALUES (?, NOW(), ?, RAND())", (1, 2), (1, "now", 2, "rand")),
            ("UPDATE t SET a = ?, ts = NOW() WHERE k = ?", ("a", 7), ("a", "now", 7)),
            ("UPDATE t SET r = RAND() * ? WHERE k IN (?, %s)", (9, 1, 2), ("rand", 9, 1, 2)),
        ],
    )
    def test_user_parameters_and_macros_interleave_by_offset(
        self, factory, pinned, sql, parameters, expected
    ):
        values = {"now": "2004-06-27 12:00:00", "rand": PINNED_RAND}
        request = factory.create_request(sql, parameters)
        assert "?" in request.sql and "NOW" not in request.sql and "RAND" not in request.sql
        assert request.parameters == tuple(values.get(value, value) for value in expected)

    def test_each_request_gets_fresh_values(self, factory):
        sql = "INSERT INTO t (x) VALUES (RAND())"
        first, second = factory.create_request(sql), factory.create_request(sql)
        assert first.sql == second.sql
        assert first.parameters != second.parameters

    def test_a_batch_draws_one_value_per_call(self, factory):
        request = factory.create_batch_request(
            "INSERT INTO t (k, r) VALUES (?, RAND())", [(1,), (2,), (3,)]
        )
        assert request.sql == "INSERT INTO t (k, r) VALUES (?, ?)"
        (draw,) = {parameters[1] for parameters in request.parameter_sets}
        assert [parameters[0] for parameters in request.parameter_sets] == [1, 2, 3]
        assert 0.0 <= draw < 1.0

    def test_no_macros_returns_same_text(self, factory):
        sql = "UPDATE item SET i_stock = 3 WHERE i_id = 3"
        request = factory.create_request(sql)
        assert request.sql == sql
        assert request.parameters == ()

    @pytest.mark.parametrize("now", NOW_SPELLINGS)
    def test_write_request_records_rewrite(self, now):
        factory = RequestFactory()
        template = factory.get_template(f"UPDATE customer SET c_login = {now} WHERE c_id = ?")
        assert template.sql == "UPDATE customer SET c_login = ? WHERE c_id = ?"
        assert template.macro_slots == ((0, "NOW"),)

    def test_reads_are_not_rewritten(self):
        factory = RequestFactory()
        request = factory.create_request("SELECT NOW() FROM customer")
        assert "NOW()" in request.sql.upper()
        assert request.parameters == ()
        assert request.template.macro_slots == ()

    def test_rewritten_sql_still_parses(self, factory):
        from repro.sql.parser import parse

        request = factory.create_request(
            "INSERT INTO orders (o_date, o_total) VALUES (NOW(), RAND())"
        )
        parse(request.sql)


def _replicated(prefix, backends=1, controllers=1):
    """A booted RAIDb-1 cluster; several controllers form one group."""
    group = {"group_name": f"{prefix}-group"} if controllers > 1 else {}
    return boot(
        descriptor(prefix, backends, controllers=controllers, replication="raidb1", **group)
    )


def _write_macros(connection, way):
    """Three rows of RAND(), RAND() * 1000000 and NOW() written one way."""
    sql = "INSERT INTO t (k, r, big, ts) VALUES (?, RAND(), RAND() * 1000000, NOW())"
    rows = [(1,), (2,), (3,)]
    if way == "executemany":
        connection.cursor().executemany(sql, rows)
        return
    if way == "transaction":
        connection.begin()
    statement = connection.prepare(sql) if way == "prepared" else None
    for row in rows:
        if statement is None:
            connection.execute(sql, row)
        else:
            statement.execute(row)
    if way == "transaction":
        connection.commit()


class TestMacrosKeepReplicasIdentical:
    @pytest.mark.parametrize("macro", ["RAND  ()", "RAND\t()", "RAND\n()", "NOW\t()", "NOW\n()"])
    def test_three_replicas_store_the_same_value(self, macro):
        cluster = _replicated("macro", 3)
        try:
            connection = cluster.connect(cluster.name, "user", "secret")
            connection.execute("CREATE TABLE t (k INT PRIMARY KEY, r VARCHAR(40))")
            connection.execute(f"INSERT INTO t (k, r) VALUES (2, {macro})")
            assert digest_mismatches(cluster.engines) == []
        finally:
            cluster.shutdown()

    @pytest.mark.parametrize("way", ["execute", "prepared", "executemany", "transaction"])
    def test_two_controllers_store_the_same_values(self, way):
        cluster = _replicated("macro-group", 1, controllers=2)
        try:
            connection = cluster.connect(cluster.name, "user", "secret")
            connection.execute(
                "CREATE TABLE t (k INT PRIMARY KEY, r FLOAT, big FLOAT, ts TIMESTAMP)"
            )
            _write_macros(connection, way)
            assert len(cluster.engines) == 2
            assert digest_mismatches(cluster.engines) == []
        finally:
            cluster.shutdown()

    def test_a_bound_value_stores_what_the_literal_stored(self, pinned):
        # the text the controller used to splice in, executed on a bare engine
        literal = (
            "INSERT INTO t (k, ts, tx, d, r, big) VALUES (1, '2004-06-27 12:00:00',"
            f" '2004-06-27 12:00:00', '2004-06-27', {PINNED_RAND!r}, {PINNED_RAND!r} * 1000000)"
        )
        schema = (
            "CREATE TABLE t (k INT PRIMARY KEY, ts TIMESTAMP, tx VARCHAR(30), d DATE,"
            " r VARCHAR(30), big FLOAT)"
        )
        reference = DatabaseEngine("literal-rewrite")
        reference.execute(schema)
        reference.execute(literal)
        cluster = _replicated("macro-bytes", 2)
        try:
            connection = cluster.connect(cluster.name, "user", "secret")
            connection.execute(schema)
            connection.execute(
                "INSERT INTO t (k, ts, tx, d, r, big)"
                " VALUES (1, NOW(), NOW(), CURRENT_DATE(), RAND(), RAND() * 1000000)"
            )
            engines = {**cluster.engines, "literal": reference}
            assert digest_mismatches(engines) == []
        finally:
            cluster.shutdown()


class TestParseCachesHoldOneTextPerShape:
    def test_fifty_macro_writes_through_two_controllers(self):
        cluster = _replicated("macro-cache", 1, controllers=2)
        try:
            connection = cluster.connect(cluster.name, "user", "secret")
            connection.execute("CREATE TABLE t (k INT PRIMARY KEY, r FLOAT)")
            for key in range(50):
                connection.execute("INSERT INTO t (k, r) VALUES (?, RAND())", (key,))
            # CREATE TABLE and the one INSERT text with its RAND() bound
            assert [len(engine._prepared) for engine in cluster.engines.values()] == [2, 2]
            origin, peer = (
                cluster.virtual_database(cluster.name, controller=name).request_manager
                for name in sorted(cluster.controllers)
            )
            # the origin also holds the caller's text, before the rewrite
            assert len(origin.request_factory.parsing_cache) == 3
            assert len(peer.request_factory.parsing_cache) == 2
            assert digest_mismatches(cluster.engines) == []
        finally:
            cluster.shutdown()
