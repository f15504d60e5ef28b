"""Access plans: shapes (through ``describe()``), the key coercion rules shared by
SELECT/UPDATE/DELETE, plan caching and invalidation, and lock-free reads beside a
writer.  Counts and shapes only, no wall-clock assertions."""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.errors import SQLError
from repro.sql import DatabaseEngine, dbapi, parse
from repro.sql.plan import SelectPlan, compile_access
from repro.workloads.tpcw import TPCWDataGenerator, TPCWInteractions, create_schema
from repro.workloads.tpcw.schema import TPCWScale


@pytest.fixture
def shop():
    engine = DatabaseEngine("plan")
    engine.execute_script(
        [
            "CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(20), i_a_id INT, i_cost FLOAT)",
            "CREATE TABLE author (a_id INT PRIMARY KEY, a_lname VARCHAR(20))",
            "CREATE TABLE review (r_id INT PRIMARY KEY, r_i_id INT, r_code VARCHAR(8), r_stars INT)",
        ]
    )
    for a_id in range(1, 5):
        engine.execute("INSERT INTO author VALUES (?, ?)", (a_id, f"last{a_id}"))
    for i_id in range(1, 9):
        engine.execute(
            "INSERT INTO item VALUES (?, ?, ?, ?)", (i_id, f"title{i_id}", i_id % 5 or None, i_id * 1.5)
        )
    for r_id in range(1, 7):
        engine.execute(
            "INSERT INTO review VALUES (?, ?, ?, ?)", (r_id, r_id % 3 + 1, str(r_id), r_id % 4)
        )
    return engine


def describe(engine, sql):
    return SelectPlan(parse(sql), engine.catalog).describe()


class TestPlanShapes:
    def test_primary_key_select_is_an_index_lookup(self, shop):
        assert describe(shop, "SELECT i_title FROM item WHERE i_id = ?") == [
            "item: index lookup pk_item"
        ]

    def test_lookup_then_index_probe(self, shop):
        sql = "SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_id = ?"
        assert describe(shop, sql) == [
            "item: index lookup pk_item",
            "author: index probe pk_author on a_id = item.i_a_id",
        ]
        assert shop.execute(sql, (3,)).rows == [("title3", "last3")]
        assert shop.execute(sql, (5,)).rows == []  # item 5 has no author

    def test_equality_without_index_is_a_hash_join(self, shop):
        sql = "SELECT i_id, r_id FROM item i JOIN review r ON r.r_i_id = i.i_id WHERE r_stars > 0"
        assert describe(shop, sql) == ["i: scan", "r: scan, hash join on r_i_id = i.i_id"]
        rows = shop.execute(sql).rows
        assert rows == [(1, 3), (1, 6), (2, 1), (3, 2), (3, 5)]  # left-major, right scan order

    def test_keys_of_different_type_families_fall_back_to_nested_loop(self, shop):
        # VARCHAR '3' equals INT 3 under compare_values but not under hash()
        sql = "SELECT i_id, r_id FROM item, review WHERE i_id = r_code"
        assert describe(shop, sql) == ["item: scan", "review: scan, nested loop"]
        assert shop.execute(sql).rows == [(n, n) for n in range(1, 7)]

    def test_non_equi_join_is_a_nested_loop(self, shop):
        sql = "SELECT i_id, r_id FROM item, review WHERE i_id < r_stars"
        assert describe(shop, sql) == ["item: scan", "review: scan, nested loop"]
        assert sorted(shop.execute(sql).rows) == [(1, 2), (1, 3), (1, 6), (2, 3)]

    def test_left_join_keeps_unmatched_rows_and_where_stays_above_it(self, shop):
        sql = (
            "SELECT i_id, r_id FROM item LEFT JOIN review ON r_i_id = i_id AND r_stars > 1"
            " WHERE r_id IS NULL AND i_id < 5"
        )
        assert describe(shop, sql) == [
            "item: scan",
            "review: scan, left hash join on r_i_id = item.i_id",
        ]
        plan = SelectPlan(parse(sql), shop.catalog)
        assert len(plan.joins[0].access.filters) == 1  # i_id < 5 runs before the join
        assert len(plan.joins[1].access.filters) == 1  # ON r_stars > 1 filters review first
        assert len(plan.joins[1].after) == 1  # r_id IS NULL sees the null-extended rows
        assert shop.execute(sql).rows == [(2, None), (4, None)]

    def test_where_equality_is_not_a_left_join_key(self, shop):
        sql = "SELECT i_id, r_id FROM item LEFT JOIN review ON r_stars = 3 WHERE r_i_id = i_id"
        assert describe(shop, sql) == ["item: scan", "review: scan, left nested loop"]
        assert shop.execute(sql).rows == [(1, 3)]

    def test_or_like_and_ranges_scan(self, shop):
        for where in ("i_id = 1 OR i_id = 2", "i_title LIKE 'title1%'", "i_id >= 7"):
            assert describe(shop, f"SELECT i_id FROM item WHERE {where}") == ["item: scan"]

    def test_ambiguous_or_foreign_column_is_never_a_key(self, shop):
        # i_id is in both copies of item: no index, and evaluation reports it
        sql = "SELECT x.i_id FROM item x, item y WHERE i_id = 3"
        assert describe(shop, sql) == ["x: scan", "y: scan, nested loop"]
        with pytest.raises(SQLError, match="ambiguous"):
            shop.execute(sql)
        # a_id = 2 belongs to author although item has the index named first
        sql = "SELECT i_id FROM item, author WHERE a_id = 2 AND i_a_id = a_id"
        assert describe(shop, sql)[0] == "item: scan"
        assert shop.execute(sql).rows == [(2,), (7,)]

    def test_order_display_returns_its_rows(self):
        connection = dbapi.connect(DatabaseEngine("tpcw"))
        create_schema(connection)
        scale = TPCWScale(items=200, customers=60)
        TPCWDataGenerator(scale, seed=7).populate(connection)
        interactions = TPCWInteractions(connection, scale.items, scale.customers, seed=3)
        statements = []
        cursor = connection.cursor()
        interactions._cursor = lambda: _Recording(cursor, statements)
        for _ in range(5):
            assert interactions.order_display() == 2
        joins = [rows for sql, rows in statements if "order_line" in sql]
        assert len(joins) == 5 and all(len(rows) <= 20 for rows in joins)
        assert any(rows for rows in joins)
        assert describe(connection._engine, next(sql for sql, _ in statements if "order_line" in sql)) == [
            "orders: index lookup idx_orders_customer",
            "order_line: index probe idx_order_line_order on ol_o_id = orders.o_id",
            "item: index probe pk_item on i_id = order_line.ol_i_id",
        ]


class _Recording:
    def __init__(self, cursor, statements):
        self._cursor, self._statements = cursor, statements

    def execute(self, sql, parameters=()):
        self._sql = sql
        return self._cursor.execute(sql, parameters)

    def fetchall(self):
        rows = self._cursor.fetchall()
        self._statements.append((self._sql, rows))
        return rows


class TestKeyCoercion:
    """The index path returns what the scan returns (it did not for UPDATE/DELETE)."""

    @pytest.fixture
    def kv(self):
        engine = DatabaseEngine("kv")
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(8), n INT)")
        engine.execute("CREATE INDEX kv_v ON kv (v)")
        for k in range(6):
            engine.execute("INSERT INTO kv VALUES (?, ?, 0)", (k, str(k)))
        return engine

    @pytest.mark.parametrize(
        "constant, expected",
        [("'3'", [3]), ("3.0", [3]), ("TRUE", [1]), ("NULL", []), ("3.5", []), ("'abc'", [0]),
         ("' 4 '", [4]), ("'3.0'", [3])],
    )
    def test_select_update_delete_agree(self, kv, constant, expected):
        where = f"WHERE k = {constant}"
        assert [row[0] for row in kv.execute(f"SELECT k FROM kv {where}").rows] == expected
        assert kv.execute(f"UPDATE kv SET n = 1 {where}").update_count == len(expected)
        assert [row[0] for row in kv.execute("SELECT k FROM kv WHERE n = 1").rows] == expected
        assert kv.execute(f"DELETE FROM kv {where}").update_count == len(expected)
        assert kv.row_count("kv") == 6 - len(expected)

    @pytest.mark.parametrize(
        "parameter, expected", [("3", 1), (3.0, 1), (True, 1), (None, 0), ("x", 1), (9.5, 0)]
    )
    def test_parameters_coerce_like_literals(self, kv, parameter, expected):
        assert kv.execute("UPDATE kv SET n = 1 WHERE k = ?", (parameter,)).update_count == expected

    def test_a_number_does_not_key_a_string_index(self, kv):
        # '03' = 3 under compare_values: the string index would miss it
        kv.execute("INSERT INTO kv VALUES (7, '03', 0)")
        assert describe(kv, "SELECT k FROM kv WHERE v = 3") == ["kv: index lookup kv_v"]
        assert sorted(kv.execute("SELECT k FROM kv WHERE v = 3").rows) == [(3,), (7,)]
        assert kv.execute("UPDATE kv SET n = 2 WHERE v = 3").update_count == 2
        assert kv.execute("SELECT k FROM kv WHERE v = '3'").rows == [(3,)]

    def test_qualified_alias_and_table_name(self, kv):
        assert kv.execute("UPDATE kv SET n = 1 WHERE kv.k = '2'").update_count == 1
        assert kv.execute("SELECT a.n FROM kv a WHERE a.k = '2'").rows == [(1,)]
        assert describe(kv, "SELECT a.n FROM kv a WHERE a.k = '2'") == ["a: index lookup pk_kv"]

    def test_another_tables_qualifier_is_not_a_key(self, kv):
        access = compile_access(parse("DELETE FROM kv WHERE other.k = 99"), kv.catalog)
        assert access.index is None
        with pytest.raises(SQLError, match="other"):
            kv.execute("DELETE FROM kv WHERE other.k = 99")

    def test_missing_parameter_is_reported(self, kv):
        with pytest.raises(SQLError, match="missing parameter"):
            kv.execute("SELECT v FROM kv WHERE k = ?")


class TestPlanCache:
    def test_statement_parsed_and_planned_once(self, shop):
        sql = "SELECT i_title FROM item WHERE i_id = ?"
        assert shop.execute(sql, (1,)).rows == [("title1",)]
        statement = shop.prepare(sql)
        plan = statement.plan
        assert shop.execute(sql, (2,)).rows == [("title2",)]
        assert shop.prepare(sql) is statement and statement.plan is plan

    def test_ddl_retires_a_cached_plan(self, shop):
        sql = "SELECT i_id FROM item WHERE i_title = ?"
        statement = shop.prepare(sql)
        assert shop.execute(sql, ("title4",)).rows == [(4,)]
        assert statement.plan[2].describe() == ["item: scan"]
        shop.execute("CREATE INDEX item_title ON item (i_title)")
        assert shop.execute(sql, ("title4",)).rows == [(4,)]
        assert statement.plan[2].describe() == ["item: index lookup item_title"]
        shop.execute("DROP INDEX item_title")
        assert shop.execute(sql, ("title4",)).rows == [(4,)]
        assert statement.plan[2].describe() == ["item: scan"]
        shop.execute("ALTER TABLE item ADD COLUMN i_note VARCHAR(8) DEFAULT 'n'")
        assert shop.execute("SELECT i_note FROM item WHERE i_id = 1").rows == [("n",)]
        shop.execute("DROP TABLE item")
        with pytest.raises(SQLError, match="unknown table"):
            shop.execute(sql, ("title4",))

    def test_rolled_back_ddl_retires_the_plan_too(self, shop):
        sql = "SELECT i_id FROM item WHERE i_title = ?"
        connection = dbapi.connect(shop)
        cursor = connection.cursor()
        connection.begin()
        cursor.execute("CREATE INDEX item_title ON item (i_title)")
        cursor.execute(sql, ("title4",))
        assert shop.prepare(sql).plan[2].describe() == ["item: index lookup item_title"]
        connection.rollback()
        shop.execute("INSERT INTO item VALUES (9, 'title4', 1, 1.0)")
        assert shop.execute(sql, ("title4",)).rows == [(4,), (9,)]  # not the dropped index

    def test_one_statement_on_two_engines(self, shop):
        other = DatabaseEngine("other")
        other.execute("CREATE TABLE item (i_id INT, i_title VARCHAR(20))")
        other.execute("INSERT INTO item VALUES (1, 'elsewhere')")
        statement = parse("SELECT i_title FROM item WHERE i_id = 1")
        for engine, title in ((shop, "title1"), (other, "elsewhere"), (shop, "title1")):
            session = engine.create_session()
            assert session.execute_statement(statement).rows == [(title,)]

    def test_cache_is_bounded_and_keeps_what_is_used(self, shop):
        hot = "SELECT i_id FROM item WHERE i_id = ?"
        statement = shop.prepare(hot)
        for n in range(600):
            shop.execute(f"SELECT i_id FROM item WHERE i_id = {n}")
            shop.execute(hot, (n,))
        assert len(shop._prepared) == 512
        assert shop.prepare(hot) is statement

    def test_best_sellers_temporary_table_through_the_cache(self):
        connection = dbapi.connect(DatabaseEngine("tpcw"))
        create_schema(connection)
        scale = TPCWScale(items=30, customers=20)
        TPCWDataGenerator(scale, seed=7).populate(connection)
        interactions = TPCWInteractions(connection, scale.items, scale.customers, seed=3)
        tables = set(connection._engine.catalog.table_names())
        for _ in range(3):
            assert interactions.best_sellers() == 4
            assert interactions.product_detail() == 1
        assert set(connection._engine.catalog.table_names()) == tables

    def test_subquery_and_insert_select_plans(self, shop):
        sql = (
            "SELECT i_id FROM item i WHERE EXISTS"
            " (SELECT 1 FROM review WHERE r_i_id = i.i_id AND r_stars = 3)"
        )
        assert shop.execute(sql).rows == [(1,)]
        assert shop.execute(sql).rows == [(1,)]
        shop.execute("CREATE TABLE cheap (c_id INT PRIMARY KEY)")
        insert = "INSERT INTO cheap (c_id) SELECT i_id FROM item WHERE i_id = ?"
        assert shop.execute(insert, (2,)).update_count == 1
        assert shop.execute(insert, (3,)).update_count == 1
        assert shop.prepare(insert).select.plan[2].describe() == ["item: index lookup pk_item"]


class TestReadsBesideAWriter:
    @pytest.mark.parametrize("index_sql", [None, "CREATE INDEX kv_g ON kv (g)"])
    def test_point_reads_race_updates_on_one_engine(self, index_sql):
        """oltp_write's mix: ``SELECT .. WHERE k = ?`` takes no lock while ``UPDATE`` runs."""
        engine = DatabaseEngine("race")
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, g INT, n INT)")
        if index_sql:
            engine.execute(index_sql)
        for k in range(8):
            engine.execute("INSERT INTO kv VALUES (?, ?, 0)", (k, k))
        column = "g" if index_sql else "k"
        read = f"SELECT n FROM kv WHERE {column} = ?"
        assert "index lookup" in describe(engine, read)[0]
        failures, stop, updates = [], threading.Event(), [0]

        def write():
            connection = dbapi.connect(engine)
            cursor = connection.cursor()
            while not stop.is_set():
                cursor.execute("UPDATE kv SET n = n + 1 WHERE k = ?", (updates[0] % 8,))
                updates[0] += 1

        def reader(seed):
            generator = random.Random(seed)
            cursor = dbapi.connect(engine).cursor()
            try:
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline and not failures:
                    cursor.execute(read, (generator.randrange(8),))
                    rows = cursor.fetchall()
                    if len(rows) != 1:
                        failures.append(rows)
            except Exception as exc:
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
            writer = threading.Thread(target=write)
            for thread in readers + [writer]:
                thread.start()
            for thread in readers:
                thread.join(timeout=20)
            stop.set()
            writer.join(timeout=20)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers + [writer])
        assert failures == []
        assert engine.execute("SELECT SUM(n) FROM kv").scalar() == updates[0] > 0
