"""Unit tests for statement execution (SELECT, DML, DDL)."""

import pytest

from repro.errors import CatalogError, ConstraintViolation, DatabaseError
from repro.sql import DatabaseEngine


@pytest.fixture
def store():
    engine = DatabaseEngine("executor-tests")
    engine.execute(
        "CREATE TABLE product ("
        " id INT PRIMARY KEY AUTO_INCREMENT,"
        " name VARCHAR(40) NOT NULL,"
        " category VARCHAR(20),"
        " price FLOAT,"
        " stock INT)"
    )
    products = [
        ("keyboard", "hardware", 35.0, 10),
        ("mouse", "hardware", 12.5, 50),
        ("monitor", "hardware", 180.0, 3),
        ("python book", "books", 28.0, 7),
        ("sql book", "books", 32.0, 0),
    ]
    for name, category, price, stock in products:
        engine.execute(
            "INSERT INTO product (name, category, price, stock) VALUES (?, ?, ?, ?)",
            (name, category, price, stock),
        )
    engine.execute(
        "CREATE TABLE vendor (v_id INT PRIMARY KEY, v_name VARCHAR(30), v_product INT)"
    )
    engine.execute("INSERT INTO vendor VALUES (1, 'acme', 1), (2, 'globex', 4), (3, 'initech', 99)")
    return engine


class TestSelect:
    def test_project_columns(self, store):
        result = store.execute("SELECT name, price FROM product WHERE price > 30 ORDER BY price")
        assert result.columns == ["name", "price"]
        assert [row[0] for row in result.rows] == ["sql book", "keyboard", "monitor"]

    def test_select_star(self, store):
        result = store.execute("SELECT * FROM product")
        assert len(result.columns) == 5
        assert len(result.rows) == 5

    def test_where_with_parameters(self, store):
        result = store.execute("SELECT name FROM product WHERE category = ?", ("books",))
        assert sorted(row[0] for row in result.rows) == ["python book", "sql book"]

    def test_order_by_column_not_in_projection(self, store):
        result = store.execute("SELECT name FROM product ORDER BY price DESC LIMIT 2")
        assert [row[0] for row in result.rows] == ["monitor", "keyboard"]

    def test_order_by_ordinal(self, store):
        result = store.execute("SELECT name, price FROM product ORDER BY 2 DESC LIMIT 1")
        assert result.rows[0][0] == "monitor"

    def test_limit_offset(self, store):
        result = store.execute("SELECT name FROM product ORDER BY name LIMIT 2 OFFSET 1")
        assert [row[0] for row in result.rows] == ["monitor", "mouse"]

    def test_aggregates(self, store):
        result = store.execute(
            "SELECT COUNT(*), SUM(stock), MIN(price), MAX(price), AVG(price) FROM product"
        )
        count, total, minimum, maximum, average = result.rows[0]
        assert count == 5
        assert total == 70
        assert minimum == 12.5
        assert maximum == 180.0
        assert round(average, 2) == 57.5

    def test_group_by_having(self, store):
        result = store.execute(
            "SELECT category, COUNT(*) AS n, AVG(price) FROM product"
            " GROUP BY category HAVING COUNT(*) >= 2 ORDER BY category"
        )
        assert [row[0] for row in result.rows] == ["books", "hardware"]
        assert [row[1] for row in result.rows] == [2, 3]

    def test_count_distinct(self, store):
        result = store.execute("SELECT COUNT(DISTINCT category) FROM product")
        assert result.scalar() == 2

    def test_inner_join(self, store):
        result = store.execute(
            "SELECT v_name, name FROM vendor JOIN product ON v_product = id ORDER BY v_name"
        )
        assert result.rows == [("acme", "keyboard"), ("globex", "python book")]

    def test_left_join_keeps_unmatched(self, store):
        result = store.execute(
            "SELECT v_name, name FROM vendor LEFT JOIN product ON v_product = id"
            " ORDER BY v_name"
        )
        assert len(result.rows) == 3
        initech = [row for row in result.rows if row[0] == "initech"][0]
        assert initech[1] is None

    def test_implicit_join_with_where(self, store):
        result = store.execute(
            "SELECT v_name FROM vendor v, product p WHERE v.v_product = p.id AND p.category = 'books'"
        )
        assert [row[0] for row in result.rows] == ["globex"]

    def test_in_subquery(self, store):
        result = store.execute(
            "SELECT name FROM product WHERE id IN (SELECT v_product FROM vendor) ORDER BY name"
        )
        assert [row[0] for row in result.rows] == ["keyboard", "python book"]

    def test_scalar_subquery(self, store):
        result = store.execute("SELECT (SELECT MAX(price) FROM product) FROM vendor LIMIT 1")
        assert result.scalar() == 180.0

    def test_exists(self, store):
        result = store.execute(
            "SELECT v_name FROM vendor WHERE EXISTS"
            " (SELECT 1 FROM product WHERE id = v_product AND category = 'books')"
        )
        assert [row[0] for row in result.rows] == ["globex"]

    def test_distinct(self, store):
        result = store.execute("SELECT DISTINCT category FROM product ORDER BY category")
        assert [row[0] for row in result.rows] == ["books", "hardware"]

    def test_like(self, store):
        result = store.execute("SELECT name FROM product WHERE name LIKE '%book%' ORDER BY name")
        assert [row[0] for row in result.rows] == ["python book", "sql book"]

    def test_between(self, store):
        result = store.execute("SELECT name FROM product WHERE price BETWEEN 20 AND 40 ORDER BY name")
        assert [row[0] for row in result.rows] == ["keyboard", "python book", "sql book"]

    def test_case_expression(self, store):
        result = store.execute(
            "SELECT name, CASE WHEN stock = 0 THEN 'out' ELSE 'in' END AS availability"
            " FROM product WHERE category = 'books' ORDER BY name"
        )
        assert result.rows == [("python book", "in"), ("sql book", "out")]

    def test_arithmetic_expressions(self, store):
        result = store.execute("SELECT name, price * 2 + 1 FROM product WHERE id = 1")
        assert result.rows[0][1] == 71.0

    def test_scalar_functions(self, store):
        result = store.execute("SELECT UPPER(name), LENGTH(name) FROM product WHERE id = 2")
        assert result.rows[0] == ("MOUSE", 5)

    def test_unknown_table(self, store):
        with pytest.raises((CatalogError, DatabaseError)):
            store.execute("SELECT * FROM nothing")

    def test_unknown_column(self, store):
        with pytest.raises(Exception):
            store.execute("SELECT nonexistent FROM product")


class TestDML:
    def test_insert_returns_count(self, store):
        result = store.execute(
            "INSERT INTO product (name, category, price, stock) VALUES ('cable', 'hardware', 3.0, 100)"
        )
        assert result.update_count == 1
        assert store.row_count("product") == 6

    def test_auto_increment_assigns_ids(self, store):
        store.execute("INSERT INTO product (name) VALUES ('a'), ('b')")
        result = store.execute("SELECT id FROM product ORDER BY id DESC LIMIT 2")
        ids = [row[0] for row in result.rows]
        assert ids[0] > ids[1] >= 5

    def test_update_with_expression(self, store):
        result = store.execute("UPDATE product SET stock = stock + 5 WHERE category = 'books'")
        assert result.update_count == 2
        total = store.execute("SELECT SUM(stock) FROM product WHERE category = 'books'").scalar()
        assert total == 17

    def test_update_everything(self, store):
        assert store.execute("UPDATE product SET stock = 0").update_count == 5

    def test_delete(self, store):
        assert store.execute("DELETE FROM product WHERE stock = 0").update_count == 1
        assert store.row_count("product") == 4

    def test_not_null_violation(self, store):
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO product (name, price) VALUES (NULL, 3.0)")

    def test_primary_key_violation(self, store):
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO vendor VALUES (1, 'duplicate', 2)")

    def test_insert_select(self, store):
        store.execute("CREATE TABLE product_copy (name VARCHAR(40), price FLOAT)")
        result = store.execute(
            "INSERT INTO product_copy (name, price) SELECT name, price FROM product"
        )
        assert result.update_count == 5


class TestDDL:
    def test_create_and_drop_table(self, store):
        store.execute("CREATE TABLE temp1 (a INT)")
        assert store.catalog.has_table("temp1")
        store.execute("DROP TABLE temp1")
        assert not store.catalog.has_table("temp1")

    def test_create_existing_table_fails(self, store):
        with pytest.raises((CatalogError, DatabaseError)):
            store.execute("CREATE TABLE product (a INT)")

    def test_create_if_not_exists_is_idempotent(self, store):
        store.execute("CREATE TABLE IF NOT EXISTS product (a INT)")

    def test_drop_if_exists_missing_table(self, store):
        store.execute("DROP TABLE IF EXISTS missing_table")

    def test_create_index_enforces_unique(self, store):
        store.execute("CREATE UNIQUE INDEX uq_vendor_name ON vendor (v_name)")
        with pytest.raises((ConstraintViolation, DatabaseError)):
            store.execute("INSERT INTO vendor VALUES (4, 'acme', 2)")

    def test_alter_table_add_column(self, store):
        store.execute("ALTER TABLE vendor ADD COLUMN v_country VARCHAR(20)")
        result = store.execute("SELECT v_country FROM vendor WHERE v_id = 1")
        assert result.rows[0][0] is None
