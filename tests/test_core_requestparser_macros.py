"""Tests for request parsing, table extraction and macro rewriting."""

import re

import pytest

from repro.cluster.fixture import boot, descriptor, digest_mismatches
from repro.core import macros
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
    def test_now_is_replaced_with_literal(self, factory, now):
        rewritten = factory.create_request(f"INSERT INTO t (ts) VALUES ({now})").sql
        assert "NOW" not in rewritten.upper()
        assert "VALUES ('" in rewritten

    def test_injected_clock(self, factory, monkeypatch):
        # the way the Table 1 rows of the count table pin NOW()
        monkeypatch.setitem(macros._MACRO_GENERATORS, "NOW", lambda: "'2004-06-27 12:00:00'")
        rewritten = factory.create_request("UPDATE t SET ts = NOW()").sql
        assert rewritten == "UPDATE t SET ts = '2004-06-27 12:00:00'"

    @pytest.mark.parametrize("rand", ["RAND()", "RAND  ()", "RAND\t()", "RAND\n()"])
    def test_rand_is_replaced_with_number(self, factory, rand):
        rewritten = factory.create_request(f"INSERT INTO t (x) VALUES ({rand})").sql
        value = rewritten.split("(")[-1].rstrip(")")
        assert 0.0 <= float(value) < 1.0

    def test_multiple_macros(self, factory):
        rewritten = factory.create_request("INSERT INTO t VALUES (NOW(), RAND(), 3)").sql
        assert "NOW()" not in rewritten.upper()
        assert "RAND()" not in rewritten.upper()
        assert rewritten.rstrip().endswith("3)")

    def test_each_request_gets_fresh_values(self, factory):
        sql = "INSERT INTO t (x) VALUES (RAND())"
        assert factory.create_request(sql).sql != factory.create_request(sql).sql

    def test_no_macros_returns_same_text(self, factory):
        sql = "UPDATE item SET i_stock = 3 WHERE i_id = 3"
        request = factory.create_request(sql)
        assert request.sql == sql
        assert not request.macros_rewritten

    @pytest.mark.parametrize("now", NOW_SPELLINGS)
    def test_write_request_records_rewrite(self, now):
        factory = RequestFactory()
        request = factory.create_request(f"UPDATE customer SET c_login = {now} WHERE c_id = 1")
        assert request.macros_rewritten
        assert "NOW" not in request.sql.upper()

    def test_reads_are_not_rewritten(self):
        factory = RequestFactory()
        request = factory.create_request("SELECT NOW() FROM customer")
        assert "NOW()" in request.sql.upper()

    def test_rewritten_sql_still_parses(self, factory):
        from repro.sql.parser import parse

        request = factory.create_request(
            "INSERT INTO orders (o_date, o_total) VALUES (NOW(), RAND())"
        )
        parse(request.sql)


class TestMacrosKeepReplicasIdentical:
    @pytest.mark.parametrize("macro", ["RAND  ()", "RAND\t()", "RAND\n()", "NOW\t()", "NOW\n()"])
    def test_three_replicas_store_the_same_value(self, macro):
        cluster = boot(descriptor("macro", 3, replication="raidb1"))
        try:
            connection = cluster.connect(cluster.name, "user", "secret")
            connection.execute("CREATE TABLE t (k INT PRIMARY KEY, r VARCHAR(40))")
            connection.execute(f"INSERT INTO t (k, r) VALUES (2, {macro})")
            assert digest_mismatches(cluster.engines) == []
        finally:
            cluster.shutdown()
