"""Unit tests for expression evaluation (three-valued logic, LIKE, functions)."""

import datetime

import pytest

from repro.errors import SQLError
from repro.sql import DatabaseEngine, ast
from repro.sql.expressions import Scope, compile_expression, compile_predicate, like_regex
from repro.sql.functions import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    call_scalar,
    is_aggregate,
    is_scalar_function,
    make_aggregate,
)
from repro.sql.parser import parse_expression


@pytest.fixture
def evaluator():
    return compile_expression


def run(evaluator, sql, tables, parameters=(), outer=None):
    """``sql`` compiled over the exposed names and columns of ``tables``, run on them."""
    scope = Scope(list(tables), [list(row) for row in tables.values()])
    return evaluator(parse_expression(sql), scope)(tables, parameters, outer)


def evaluate(evaluator, sql, row=None, parameters=()):
    return run(evaluator, sql, {"t": row or {}}, parameters)


class TestThreeValuedLogic:
    def test_null_comparisons_are_unknown(self, evaluator):
        assert evaluate(evaluator, "NULL = 1") is None
        assert evaluate(evaluator, "NULL <> NULL") is None
        assert evaluate(evaluator, "1 < NULL") is None

    def test_and_or_truth_table(self, evaluator):
        assert evaluate(evaluator, "TRUE AND NULL") is None
        assert evaluate(evaluator, "FALSE AND NULL") is False
        assert evaluate(evaluator, "TRUE OR NULL") is True
        assert evaluate(evaluator, "FALSE OR NULL") is None
        assert evaluate(evaluator, "NULL AND NULL") is None

    def test_not_null_is_unknown(self, evaluator):
        assert evaluate(evaluator, "NOT NULL") is None

    def test_is_null(self, evaluator):
        assert evaluate(evaluator, "NULL IS NULL") is True
        assert evaluate(evaluator, "1 IS NULL") is False
        assert evaluate(evaluator, "1 IS NOT NULL") is True

    def test_predicate_treats_unknown_as_false(self, evaluator):
        predicate = compile_predicate(parse_expression("NULL = 1"), Scope([], []))
        assert predicate({}, (), None) is False


class TestOperators:
    def test_arithmetic(self, evaluator):
        assert evaluate(evaluator, "2 + 3 * 4") == 14
        assert evaluate(evaluator, "(2 + 3) * 4") == 20
        assert evaluate(evaluator, "10 / 4") == 2.5
        assert evaluate(evaluator, "10 % 3") == 1
        assert evaluate(evaluator, "-5 + 2") == -3

    def test_division_by_zero_is_null(self, evaluator):
        assert evaluate(evaluator, "1 / 0") is None
        assert evaluate(evaluator, "1 % 0") is None

    def test_null_propagates_through_arithmetic(self, evaluator):
        assert evaluate(evaluator, "1 + NULL") is None

    def test_string_concatenation(self, evaluator):
        assert evaluate(evaluator, "'foo' || 'bar'") == "foobar"

    def test_comparison_chain(self, evaluator):
        assert evaluate(evaluator, "3 BETWEEN 1 AND 5") is True
        assert evaluate(evaluator, "7 NOT BETWEEN 1 AND 5") is True
        assert evaluate(evaluator, "3 IN (1, 2, 3)") is True
        assert evaluate(evaluator, "4 NOT IN (1, 2, 3)") is True

    def test_in_list_with_null_semantics(self, evaluator):
        assert evaluate(evaluator, "4 IN (1, 2, NULL)") is None
        assert evaluate(evaluator, "2 IN (1, 2, NULL)") is True

    def test_like_patterns(self, evaluator):
        assert evaluate(evaluator, "'hello world' LIKE 'hello%'") is True
        assert evaluate(evaluator, "'hello' LIKE 'h_llo'") is True
        assert evaluate(evaluator, "'hello' LIKE 'H%'") is True  # case-insensitive like MySQL
        assert evaluate(evaluator, "'hello' NOT LIKE 'x%'") is True
        assert evaluate(evaluator, "'50% off' LIKE '50^%'") is False

    def test_case_expression(self, evaluator):
        sql = "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END"
        assert evaluate(evaluator, sql) == "b"
        assert evaluate(evaluator, "CASE WHEN 1 > 2 THEN 'a' END") is None


class TestColumnResolution:
    def test_qualified_and_unqualified(self, evaluator):
        tables = {"t": {"a": 1, "b": 2}, "u": {"c": 3}}
        assert run(evaluator, "t.a + c", tables) == 4
        assert run(evaluator, "b * 2", tables) == 4

    def test_ambiguous_column_raises(self, evaluator):
        tables = {"t": {"a": 1}, "u": {"a": 2}}
        with pytest.raises(SQLError):
            run(evaluator, "a", tables)

    def test_unknown_column_raises(self, evaluator):
        with pytest.raises(SQLError):
            evaluate(evaluator, "missing_column")

    def test_case_insensitive_columns(self, evaluator):
        assert run(evaluator, "price", {"t": {"Price": 5}}) == 5

    def test_outer_context_for_correlated_subqueries(self, evaluator):
        outer = ({"o": {"x": 7}}, None)
        assert run(evaluator, "x + y", {"i": {"y": 1}}, outer=outer) == 8

    def test_parameters(self, evaluator):
        assert evaluate(evaluator, "? + ?", parameters=(2, 3)) == 5

    def test_missing_parameter_raises(self, evaluator):
        with pytest.raises(SQLError):
            evaluate(evaluator, "? + 1", parameters=())


class TestScalarFunctions:
    def test_string_functions(self, evaluator):
        assert evaluate(evaluator, "UPPER('abc')") == "ABC"
        assert evaluate(evaluator, "LOWER('ABC')") == "abc"
        assert evaluate(evaluator, "LENGTH('hello')") == 5
        assert evaluate(evaluator, "SUBSTRING('hello', 2, 3)") == "ell"
        assert evaluate(evaluator, "CONCAT('a', 'b', 'c')") == "abc"

    def test_numeric_functions(self, evaluator):
        assert evaluate(evaluator, "ABS(-3)") == 3
        assert evaluate(evaluator, "ROUND(3.456, 2)") == 3.46
        assert evaluate(evaluator, "FLOOR(3.9)") == 3
        assert evaluate(evaluator, "CEILING(3.1)") == 4
        assert evaluate(evaluator, "MOD(10, 3)") == 1

    def test_null_handling_functions(self, evaluator):
        assert evaluate(evaluator, "COALESCE(NULL, NULL, 5)") == 5
        assert evaluate(evaluator, "IFNULL(NULL, 'x')") == "x"
        assert evaluate(evaluator, "NULLIF(3, 3)") is None
        assert evaluate(evaluator, "NULLIF(3, 4)") == 3

    def test_now_and_rand(self, evaluator):
        now = evaluate(evaluator, "NOW()")
        assert isinstance(now, datetime.datetime)
        value = evaluate(evaluator, "RAND()")
        assert 0.0 <= value < 1.0

    def test_unknown_function(self, evaluator):
        with pytest.raises(SQLError):
            evaluate(evaluator, "FROBNICATE(1)")

    def test_function_registry_helpers(self):
        assert is_scalar_function("now")
        assert not is_scalar_function("count")
        assert is_aggregate("COUNT")
        assert not is_aggregate("UPPER")
        with pytest.raises(SQLError):
            call_scalar("NOPE", [])


class TestAggregates:
    def test_count(self):
        aggregate = CountAggregate(count_nulls=False)
        for value in (1, None, 2, None, 3):
            aggregate.add(value)
        assert aggregate.result() == 3

    def test_count_star_counts_nulls(self):
        aggregate = CountAggregate(count_nulls=True)
        for value in (1, None, 2):
            aggregate.add(value)
        assert aggregate.result() == 3

    def test_count_distinct(self):
        aggregate = CountAggregate(count_nulls=False, distinct=True)
        for value in (1, 1, 2, 2, 3):
            aggregate.add(value)
        assert aggregate.result() == 3

    def test_sum_and_avg_ignore_nulls(self):
        total = SumAggregate()
        average = AvgAggregate()
        for value in (1, None, 2, 3):
            total.add(value)
            average.add(value)
        assert total.result() == 6
        assert average.result() == 2.0

    def test_sum_of_nothing_is_null(self):
        assert SumAggregate().result() is None
        assert AvgAggregate().result() is None
        assert MinAggregate().result() is None

    def test_min_max(self):
        smallest, largest = MinAggregate(), MaxAggregate()
        for value in (5, 1, None, 9, 3):
            smallest.add(value)
            largest.add(value)
        assert smallest.result() == 1
        assert largest.result() == 9

    def test_make_aggregate_factory(self):
        assert isinstance(make_aggregate("count"), CountAggregate)
        assert isinstance(make_aggregate("SUM"), SumAggregate)
        with pytest.raises(SQLError):
            make_aggregate("median")

    def test_aggregate_outside_group_context_raises(self, evaluator):
        with pytest.raises(SQLError):
            evaluate(evaluator, "COUNT(*) + 1")


class TestLikePatterns:
    def test_a_repeated_pattern_stays_cached_past_4096_distinct_ones(self):
        for n in range(5000):
            like_regex(f"pattern {n}%")
        like_regex("again%")
        hits = like_regex.cache_info().hits
        like_regex("again%")
        assert like_regex.cache_info().hits == hits + 1

    def test_a_literal_pattern_compiles_once_at_plan_time(self):
        like = compile_expression(parse_expression("t.a LIKE 'x%'"), Scope(["t"], [["a"]]))
        lookups = like_regex.cache_info()[:2]
        values = [like({"t": {"a": value}}, (), None) for value in ("xy", "y", None, "X")]
        assert values == [True, False, None, True]
        assert like_regex.cache_info()[:2] == lookups


class TestCompiledEdges:
    """What the plan-time compiler must keep of name resolution and its errors."""

    @pytest.fixture
    def shop(self):
        engine = DatabaseEngine("compiled-edges")
        engine.execute_script(
            [
                "CREATE TABLE Item (I_Id INT PRIMARY KEY, i_title VARCHAR(20), i_cost INT)",
                "CREATE TABLE review (r_id INT PRIMARY KEY, r_i_id INT, r_stars INT)",
                "CREATE TABLE empty (i_id INT, note VARCHAR(8))",
            ]
        )
        for i_id in range(1, 5):
            engine.execute("INSERT INTO Item VALUES (?, ?, ?)", (i_id, f"title{i_id}", i_id))
        for r_id, r_i_id, stars in ((1, 1, 3), (2, 1, 1), (3, 3, 5)):
            engine.execute("INSERT INTO review VALUES (?, ?, ?)", (r_id, r_i_id, stars))
        return engine

    def test_names_in_another_case(self, shop):
        assert shop.execute("SELECT ITEM.I_TITLE FROM item WHERE i_id = 2").rows == [("title2",)]
        assert shop.execute("SELECT X.i_TITLE FROM iTeM x WHERE X.I_ID = ?", (3,)).rows == [
            ("title3",)
        ]
        assert shop.execute("SELECT * FROM item WHERE I_ID = 1").columns == [
            "I_Id", "i_title", "i_cost"
        ]

    def test_an_ambiguous_column_fails_only_on_a_row(self, shop):
        sql = "SELECT i_id FROM empty a, empty b WHERE i_id = 1"
        assert shop.execute(sql).rows == []
        shop.execute("INSERT INTO empty VALUES (1, 'n')")
        with pytest.raises(SQLError, match="ambiguous column reference 'i_id'"):
            shop.execute(sql)

    def test_correlated_subqueries_read_the_outer_row(self, shop):
        exists = (
            "SELECT i_id FROM item i WHERE EXISTS"
            " (SELECT 1 FROM review WHERE r_i_id = i.i_id AND r_stars > 2)"
        )
        assert shop.execute(exists).rows == [(1,), (3,)]
        in_select = (
            "SELECT i_id FROM item WHERE i_cost IN"
            " (SELECT r_stars FROM review WHERE r_i_id = i_id)"
        )
        assert shop.execute(in_select).rows == [(1,)]
        scalar = "SELECT i_id, (SELECT COUNT(*) FROM review WHERE r_i_id = item.i_id) FROM item"
        assert shop.execute(scalar).rows == [(1, 2), (2, 0), (3, 1), (4, 0)]

    def test_a_lone_predicate_passes_only_when_true(self, shop):
        # alone, a number is not TRUE; under AND each operand counts by truthiness
        rows = {where: shop.execute(f"SELECT i_id FROM item WHERE {where}").rows for where in (
            "i_cost - 2", "i_cost - 2 AND i_id", "NOT i_cost - 2", "(i_cost = 1) OR i_cost - 2"
        )}
        assert rows == {
            "i_cost - 2": [],
            "i_cost - 2 AND i_id": [(1,), (3,), (4,)],
            "NOT i_cost - 2": [(2,)],
            "(i_cost = 1) OR i_cost - 2": [(1,), (3,), (4,)],
        }

    def test_an_on_condition_naming_a_table_joined_later(self, shop):
        later = "SELECT r_id FROM review JOIN item ON r_i_id = {} JOIN empty e ON e.i_id = r_i_id"
        with pytest.raises(SQLError, match="unknown table or alias 'e'"):
            shop.execute(later.format("e.i_id"))
        with pytest.raises(SQLError, match="unknown column 'note'"):
            shop.execute(later.format("note"))

    def test_add_column_between_two_executions(self, shop):
        star = "SELECT * FROM review WHERE r_id = ?"
        named = "SELECT r_note FROM review WHERE r_id = ?"
        statement = shop.prepare(star)
        assert shop.execute(star, (1,)).rows == [(1, 1, 3)]
        with pytest.raises(SQLError, match="unknown column 'r_note'"):
            shop.execute(named, (1,))
        shop.execute("ALTER TABLE review ADD COLUMN r_note VARCHAR(8) DEFAULT 'ok'")
        result = shop.execute(star, (1,))
        assert shop.prepare(star) is statement
        assert result.columns == ["r_id", "r_i_id", "r_stars", "r_note"]
        assert result.rows == [(1, 1, 3, "ok")]
        assert shop.execute(named, (1,)).rows == [("ok",)]

    def test_a_missing_parameter_fails_only_on_a_row(self, shop):
        message = "missing parameter #1: only 0 bound"
        for sql in (
            "SELECT i_title FROM item WHERE i_id = ?",
            "SELECT i_title FROM item WHERE i_cost > ?",
            "SELECT ? FROM item",
            "UPDATE item SET i_cost = ? WHERE i_id = 1",
        ):
            with pytest.raises(SQLError, match=message):
                shop.execute(sql)
        assert shop.execute("SELECT i_id FROM empty WHERE i_id = ?").rows == []

    def test_left_join_null_extended_rows_under_where(self, shop):
        join = "SELECT i_id, r_id FROM item LEFT JOIN review ON r_i_id = i_id"
        assert shop.execute(f"{join} WHERE r_id IS NULL").rows == [(2, None), (4, None)]
        assert shop.execute(f"{join} WHERE r_stars > 2").rows == [(1, 1), (3, 3)]
        assert shop.execute(f"{join} WHERE COALESCE(r_stars, 0) < 2 ORDER BY i_id").rows == [
            (1, 2), (2, None), (4, None)
        ]
