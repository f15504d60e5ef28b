"""Unit tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.parser import parse, parse_expression


class TestSelectParsing:
    def test_simple_select(self):
        statement = parse("SELECT a, b FROM t")
        assert isinstance(statement, ast.Select)
        assert [item.expression.name for item in statement.items] == ["a", "b"]
        assert statement.from_table.name == "t"

    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement.items[0].expression, ast.Star)

    def test_select_with_alias(self):
        statement = parse("SELECT a AS x, b y FROM t")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"

    def test_table_alias(self):
        statement = parse("SELECT i.a FROM item i")
        assert statement.from_table.alias == "i"
        assert statement.items[0].expression.table == "i"

    def test_where_clause(self):
        statement = parse("SELECT a FROM t WHERE a > 3 AND b = 'x'")
        assert isinstance(statement.where, ast.BinaryOp)
        assert statement.where.operator == "AND"

    def test_explicit_join(self):
        statement = parse("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id")
        assert [join.kind for join in statement.joins] == ["INNER", "LEFT"]

    def test_implicit_cross_join(self):
        statement = parse("SELECT * FROM a, b WHERE a.id = b.id")
        assert len(statement.joins) == 1
        assert statement.joins[0].kind == "CROSS"

    def test_group_by_having(self):
        statement = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2")
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_order_by_and_limit(self):
        statement = parse("SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
        assert statement.order_by[0].descending is True
        assert statement.order_by[1].descending is False
        assert statement.limit.value == 10
        assert statement.offset.value == 5

    def test_mysql_style_limit(self):
        statement = parse("SELECT a FROM t LIMIT 5, 10")
        assert statement.offset.value == 5
        assert statement.limit.value == 10

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_in_list_and_subquery(self):
        statement = parse("SELECT a FROM t WHERE a IN (1, 2) AND b IN (SELECT x FROM u)")
        left, right = statement.where.left, statement.where.right
        assert isinstance(left, ast.InList)
        assert isinstance(right, ast.InSubquery)

    def test_between_and_like(self):
        statement = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'x%'")
        assert isinstance(statement.where.left, ast.Between)
        assert statement.where.right.operator == "LIKE"

    def test_not_like(self):
        statement = parse("SELECT a FROM t WHERE b NOT LIKE 'x%'")
        assert statement.where.operator == "NOT LIKE"

    def test_is_null(self):
        statement = parse("SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
        assert statement.where.left.negated is False
        assert statement.where.right.negated is True

    def test_case_expression(self):
        expression = parse_expression("CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END")
        assert isinstance(expression, ast.CaseExpression)
        assert expression.default is not None

    def test_exists(self):
        statement = parse("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert isinstance(statement.where, ast.ExistsSubquery)

    def test_scalar_subquery(self):
        statement = parse("SELECT (SELECT MAX(x) FROM u) FROM t")
        assert isinstance(statement.items[0].expression, ast.ScalarSubquery)

    def test_function_calls(self):
        statement = parse("SELECT COUNT(*), MAX(b), LOWER(c) FROM t")
        names = [item.expression.name for item in statement.items]
        assert names == ["COUNT", "MAX", "LOWER"]

    def test_parameters_are_numbered(self):
        statement = parse("SELECT a FROM t WHERE b = ? AND c = ?")
        assert statement.where.left.right.index == 0
        assert statement.where.right.right.index == 1


class TestDMLParsing:
    def test_insert_values(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(statement, ast.Insert)
        assert statement.columns == ["a", "b"]
        assert len(statement.rows) == 2

    def test_insert_without_columns(self):
        statement = parse("INSERT INTO t VALUES (1, 2)")
        assert statement.columns == []

    def test_insert_select(self):
        statement = parse("INSERT INTO t (a) SELECT x FROM u")
        assert statement.select is not None

    def test_update(self):
        statement = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert isinstance(statement, ast.Update)
        assert [column for column, _ in statement.assignments] == ["a", "b"]
        assert statement.where is not None

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE a < 0")
        assert isinstance(statement, ast.Delete)

    def test_delete_without_where(self):
        assert parse("DELETE FROM t").where is None


class TestDDLParsing:
    def test_create_table(self):
        statement = parse(
            "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT,"
            " name VARCHAR(40) NOT NULL, price FLOAT DEFAULT 0)"
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.columns[0].primary_key is True
        assert statement.columns[0].auto_increment is True
        assert statement.columns[1].not_null is True
        assert statement.columns[2].default.value == 0

    @pytest.mark.parametrize("default", ["RAND()", "NOW()", "k", "?", "-k", "-'x'", "-NULL"])
    def test_a_default_must_be_a_constant(self, default):
        with pytest.raises(SQLSyntaxError, match="DEFAULT of column 'v' must be a constant"):
            parse(f"CREATE TABLE t (k INT, v VARCHAR(30) DEFAULT {default})")

    @pytest.mark.parametrize("default, value", [("-1", -1), ("-2.5", -2.5), ("+3", 3)])
    def test_a_signed_number_is_a_constant_default(self, default, value):
        (_, column) = parse(f"CREATE TABLE t (k INT, v FLOAT DEFAULT {default})").columns
        assert column.default == ast.Literal(value)

    def test_create_table_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a INT)").if_not_exists is True

    def test_table_level_primary_key(self):
        statement = parse("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
        assert statement.primary_key == ["a", "b"]

    def test_unique_constraint(self):
        statement = parse("CREATE TABLE t (a INT, b INT, UNIQUE (b))")
        assert statement.unique_constraints == [["b"]]

    def test_drop_table(self):
        statement = parse("DROP TABLE IF EXISTS t")
        assert isinstance(statement, ast.DropTable)
        assert statement.if_exists is True

    def test_create_index(self):
        statement = parse("CREATE UNIQUE INDEX idx ON t (a, b)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.unique is True
        assert statement.columns == ["a", "b"]

    def test_drop_index(self):
        statement = parse("DROP INDEX idx ON t")
        assert isinstance(statement, ast.DropIndex)
        assert statement.table == "t"

    def test_alter_table_add_column(self):
        statement = parse("ALTER TABLE t ADD COLUMN extra VARCHAR(10)")
        assert isinstance(statement, ast.AlterTableAddColumn)
        assert statement.column.name == "extra"


class TestTransactionsAndErrors:
    def test_begin_variants(self):
        assert isinstance(parse("BEGIN"), ast.BeginTransaction)
        assert isinstance(parse("START TRANSACTION"), ast.BeginTransaction)

    def test_commit_rollback(self):
        assert isinstance(parse("COMMIT"), ast.Commit)
        assert isinstance(parse("ROLLBACK WORK"), ast.Rollback)

    def test_trailing_semicolon_is_accepted(self):
        assert isinstance(parse("SELECT 1;"), ast.Select)

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT 1 SELECT 2")

    def test_unknown_statement(self):
        with pytest.raises(SQLSyntaxError):
            parse("GRANT ALL ON t TO someone")

    def test_missing_from_table(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM WHERE b = 1")

    def test_error_points_at_the_start_of_the_offending_token(self):
        with pytest.raises(SQLSyntaxError, match=r"found 'cart' at position 7"):
            parse("delete cart lines")

    def test_function_calls_carry_their_source_span(self):
        sql = "UPDATE t SET ts = NOW\t(), n = COUNT(DISTINCT x)"
        update = parse(sql)
        now, count = (expression for _, expression in update.assignments)
        assert sql[slice(*now.span)] == "NOW\t()"
        assert sql[slice(*count.span)] == "COUNT(DISTINCT x)"
