"""Differential tests: the in-memory engine against stdlib ``sqlite3``.

Small seeded tables (NULLs, duplicates, int and string keys) and generated
statements over the subset TPC-W and RUBiS use are run on both engines;
results are compared as multisets, and as lists where an ``ORDER BY`` is
total.  The generators stay inside what the two dialects agree on: constants
match their column's type except that an integer column may be compared with
a numeric string or an integral float, no arithmetic but ``+``, no ``LIMIT``
without a total order.

The hypothesis budget is fixed (``max_examples``, ``derandomize=True``) so the
module costs a few seconds and a failure replays.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sql import DatabaseEngine

SCHEMA = (
    "CREATE TABLE t1 (a_id INT PRIMARY KEY, a_grp INT, a_name VARCHAR(10), a_score INT)",
    "CREATE INDEX t1_grp ON t1 (a_grp)",
    "CREATE TABLE t2 (b_code VARCHAR(8) PRIMARY KEY, b_aid INT, b_qty INT)",
    "CREATE INDEX t2_aid ON t2 (b_aid)",
    "CREATE TABLE t3 (c_id INT PRIMARY KEY, c_code VARCHAR(8), c_note VARCHAR(10))",
)
INSERTS = {
    "t1": "INSERT INTO t1 (a_id, a_grp, a_name, a_score) VALUES (?, ?, ?, ?)",
    "t2": "INSERT INTO t2 (b_code, b_aid, b_qty) VALUES (?, ?, ?)",
    "t3": "INSERT INTO t3 (c_id, c_code, c_note) VALUES (?, ?, ?)",
}
INT_COLUMNS = {
    "t1": ["a_id", "a_grp", "a_score"],
    "t2": ["b_aid", "b_qty"],
    "t3": ["c_id"],
}
TEXT_COLUMNS = {"t1": ["a_name"], "t2": ["b_code"], "t3": ["c_code", "c_note"]}
NAMES = [None, "ann", "bob", "Bo", "cy", "bobby"]
CODES = ["k1", "K1", "k2", "3", "07", "k10", "zz"]
LIKE_PATTERNS = ["b%", "%o%", "_o_", "K_", "%", "ann", "k1%"]

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

small_int = st.integers(min_value=0, max_value=6)
nullable_int = st.one_of(st.none(), small_int)


# -- data ------------------------------------------------------------------------------


@st.composite
def table_rows(draw):
    """Rows for the three tables: unique keys, everything else repeats or is NULL."""
    t1_ids = draw(st.lists(st.integers(0, 11), unique=True, max_size=10))
    t2_codes = draw(st.lists(st.sampled_from(CODES), unique=True, max_size=7))
    t3_ids = draw(st.lists(st.integers(0, 7), unique=True, max_size=6))
    return {
        "t1": [
            (i, draw(nullable_int), draw(st.sampled_from(NAMES)), draw(nullable_int))
            for i in t1_ids
        ],
        "t2": [
            (code, draw(st.one_of(st.none(), st.integers(0, 13))), draw(nullable_int))
            for code in t2_codes
        ],
        "t3": [
            (i, draw(st.sampled_from([None] + CODES)), draw(st.sampled_from([None, "x", "y"])))
            for i in t3_ids
        ],
    }


class Pair:
    """The same schema and rows in our engine and in sqlite."""

    def __init__(self, rows):
        self.engine = DatabaseEngine("differential")
        self.sqlite = sqlite3.connect(":memory:")
        for statement in SCHEMA:
            self.engine.execute(statement)
            self.sqlite.execute(statement)
        for table, insert in INSERTS.items():
            for row in rows[table]:
                self.engine.execute(insert, row)
                self.sqlite.execute(insert, row)

    def close(self):
        self.sqlite.close()

    def query(self, sql, parameters=()):
        ours = [tuple(row) for row in self.engine.execute(sql, parameters).rows]
        theirs = self.sqlite.execute(sql, parameters).fetchall()
        return ours, theirs

    def check(self, sql, parameters=(), ordered=False):
        ours, theirs = self.query(sql, parameters)
        if ordered:
            assert ours == theirs, (sql, parameters)
        else:
            assert Counter(ours) == Counter(theirs), (sql, parameters)

    def check_dml(self, sql, parameters=()):
        ours = self.engine.execute(sql, parameters).update_count
        theirs = self.sqlite.execute(sql, parameters).rowcount
        assert ours == theirs, (sql, parameters)
        for table in INSERTS:
            self.check(f"SELECT * FROM {table}")


# -- predicates ------------------------------------------------------------------------
#
# A predicate is ``(sql, parameters)``; constants are drawn as literals or as
# ``?`` markers so both binding paths are compared.


def _literal(value):
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@st.composite
def constant(draw, value):
    if draw(st.booleans()):
        return "?", [value]
    return _literal(value), []


@st.composite
def int_atom(draw, column, exact=False):
    kind = draw(st.sampled_from(["cmp", "cmp", "null", "in", "between"]))
    if kind == "null":
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL", []
    if kind == "in":
        values = draw(st.lists(small_int, min_size=1, max_size=3))
        return f"{column} IN ({', '.join(map(str, values))})", []
    if kind == "between":
        low, high = sorted((draw(small_int), draw(small_int)))
        return f"{column} BETWEEN {low} AND {high}", []
    value = draw(small_int)
    if not exact:
        # an INT column against a numeric string or an integral float coerces
        value = draw(st.sampled_from([value, value, str(value), float(value)]))
    text, parameters = draw(constant(value))
    operator = draw(st.sampled_from(["=", "=", "<>", "<", ">="]))
    return f"{column} {operator} {text}", parameters


@st.composite
def text_atom(draw, column):
    pool = CODES if column.endswith("code") else [n for n in NAMES if n] + ["x", "y"]
    kind = draw(st.sampled_from(["cmp", "cmp", "like", "null", "in"]))
    if kind == "null":
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL", []
    if kind == "in":
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        return f"{column} IN ({', '.join(map(_literal, values))})", []
    if kind == "like":
        text, parameters = draw(constant(draw(st.sampled_from(LIKE_PATTERNS))))
        return f"{column} {draw(st.sampled_from(['LIKE', 'NOT LIKE']))} {text}", parameters
    text, parameters = draw(constant(draw(st.sampled_from(pool))))
    return f"{column} {draw(st.sampled_from(['=', '=', '<>', '<']))} {text}", parameters


def atoms(tables, qualifier=None, exact=False):
    """Atoms over the columns of ``tables``; ``qualifier`` maps table -> alias."""
    choices = []
    for table in tables:
        prefix = f"{qualifier[table]}." if qualifier else ""
        choices += [int_atom(prefix + column, exact) for column in INT_COLUMNS[table]]
        choices += [text_atom(prefix + column) for column in TEXT_COLUMNS[table]]
    return st.one_of(choices)


def _combine(operator):
    def build(pair):
        (left, left_parameters), (right, right_parameters) = pair
        return f"({left} {operator} {right})", left_parameters + right_parameters

    return build


def predicates(tables, qualifier=None, exact=False):
    return st.recursive(
        atoms(tables, qualifier, exact),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(_combine("AND")),
            st.tuples(inner, inner).map(_combine("AND")),
            st.tuples(inner, inner).map(_combine("OR")),
            inner.map(lambda p: (f"NOT ({p[0]})", p[1])),
        ),
        max_leaves=4,
    )


@st.composite
def where(draw, tables, qualifier=None, prefix=" WHERE ", exact=False):
    if draw(st.integers(0, 4)) == 0:
        return "", []
    sql, parameters = draw(predicates(tables, qualifier, exact))
    return prefix + sql, parameters


# -- statements --------------------------------------------------------------------------
#
# Each strategy yields ``(sql, parameters, ordered)``.


@st.composite
def single_table(draw):
    table = draw(st.sampled_from(["t1", "t2", "t3"]))
    clause, parameters = draw(where([table]))
    distinct = draw(st.sampled_from(["", "", "DISTINCT "]))
    columns = draw(st.sampled_from(["*"] + INT_COLUMNS[table] + TEXT_COLUMNS[table]))
    return f"SELECT {distinct}{columns} FROM {table}{clause}", parameters, False


@st.composite
def joins(draw):
    shape = draw(st.sampled_from(["implicit2", "inner2", "left2", "implicit3", "inner3", "theta"]))
    if shape == "implicit2":
        clause, parameters = draw(where(["t1", "t2"], prefix=" AND "))
        sql = f"SELECT a_id, a_name, b_code, b_qty FROM t1, t2 WHERE a_id = b_aid{clause}"
    elif shape == "inner2":
        alias = {"t1": "x", "t2": "y"}
        clause, parameters = draw(where(["t1", "t2"], alias))
        sql = (
            "SELECT x.a_id, y.b_code, y.b_qty FROM t1 x JOIN t2 y ON x.a_id = y.b_aid"
            + clause
        )
    elif shape == "left2":
        on, on_parameters = draw(where(["t2"], prefix=" AND "))
        clause, parameters = draw(where(["t1", "t2"]))
        sql = (
            "SELECT a_id, a_grp, b_code, b_qty FROM t1 LEFT JOIN t2"
            f" ON a_id = b_aid{on}{clause}"
        )
        parameters = on_parameters + parameters
    elif shape == "implicit3":
        clause, parameters = draw(where(["t1", "t2", "t3"], prefix=" AND "))
        sql = (
            "SELECT a_id, b_code, c_id, c_note FROM t1, t2, t3"
            f" WHERE a_id = b_aid AND b_code = c_code{clause}"
        )
    elif shape == "inner3":
        clause, parameters = draw(where(["t1", "t3"]))
        sql = (
            "SELECT a_id, b_qty, c_id FROM t3 JOIN t2 ON c_code = b_code"
            f" LEFT JOIN t1 ON b_aid = a_id{clause}"
        )
    else:
        clause, parameters = draw(where(["t1", "t2"], prefix=" AND "))
        sql = f"SELECT a_id, b_code FROM t1, t2 WHERE a_score < b_qty{clause}"
    return sql, parameters, False


@st.composite
def grouped(draw):
    clause, parameters = draw(where(["t1"]))
    having = draw(st.sampled_from(["", "", " HAVING COUNT(*) > 1", " HAVING SUM(a_score) >= 3"]))
    shape = draw(st.sampled_from(["by_grp", "by_name", "whole", "joined"]))
    if shape == "by_grp":
        sql = (
            "SELECT a_grp, COUNT(*), COUNT(a_score), SUM(a_score), MIN(a_score), MAX(a_name)"
            f" FROM t1{clause} GROUP BY a_grp{having}"
        )
    elif shape == "by_name":
        sql = f"SELECT a_name, a_grp, COUNT(*) FROM t1{clause} GROUP BY a_name, a_grp{having}"
    elif shape == "whole":
        sql = f"SELECT COUNT(*), SUM(a_score), MIN(a_id), MAX(a_id), AVG(a_score) FROM t1{clause}"
    else:
        clause, parameters = draw(where(["t1", "t2"], prefix=" AND "))
        sql = (
            "SELECT a_id, a_name, SUM(b_qty) AS total, COUNT(*) FROM t1, t2"
            f" WHERE a_id = b_aid{clause} GROUP BY a_id, a_name"
        )
    return sql, parameters, False


@st.composite
def ordered(draw):
    limit = draw(st.sampled_from(["", " LIMIT 3", " LIMIT 2 OFFSET 1", " LIMIT 50"]))
    if draw(st.booleans()):
        clause, parameters = draw(where(["t1"]))
        key = draw(st.sampled_from(["a_score DESC, a_id", "a_name, a_id DESC", "a_id", "a_grp DESC, a_id"]))
        sql = f"SELECT a_id, a_name, a_score FROM t1{clause} ORDER BY {key}{limit}"
    else:
        clause, parameters = draw(where(["t1", "t2"], prefix=" AND "))
        key = draw(st.sampled_from(["a_id, b_code", "b_qty DESC, b_code", "b_code DESC"]))
        sql = (
            "SELECT a_id, b_code, b_qty FROM t1, t2"
            f" WHERE a_id = b_aid{clause} ORDER BY {key}{limit}"
        )
    return sql, parameters, True


selects = st.one_of(single_table(), joins(), grouped(), ordered())


@st.composite
def dml(draw):
    table = draw(st.sampled_from(["t1", "t2", "t3"]))
    clause, parameters = draw(where([table], exact=True))
    if draw(st.booleans()):
        return f"DELETE FROM {table}{clause}", parameters
    column = draw(st.sampled_from([c for c in INT_COLUMNS[table] if not c.endswith("_id")]
                                  or ["c_note"]))
    value, value_parameters = draw(constant("x" if column == "c_note" else draw(small_int)))
    return f"UPDATE {table} SET {column} = {value}{clause}", value_parameters + parameters


# -- the tests -----------------------------------------------------------------------------


@settings(max_examples=120, **SETTINGS)
@given(rows=table_rows(), statements=st.lists(selects, min_size=4, max_size=4))
def test_selects_match_sqlite(rows, statements):
    pair = Pair(rows)
    try:
        for sql, parameters, is_ordered in statements:
            pair.check(sql, parameters, ordered=is_ordered)
    finally:
        pair.close()


@settings(max_examples=60, **SETTINGS)
@given(rows=table_rows(), statements=st.lists(dml(), min_size=2, max_size=2))
def test_update_delete_counts_match_sqlite(rows, statements):
    pair = Pair(rows)
    try:
        for sql, parameters in statements:
            pair.check_dml(sql, parameters)
    finally:
        pair.close()


FIXED_ROWS = {
    "t1": [(i, i % 3 if i % 4 else None, NAMES[i % len(NAMES)], i % 5) for i in range(10)],
    "t2": [(code, (3 * n) % 11, n % 4 if n else None) for n, code in enumerate(CODES)],
    "t3": [(i, CODES[i % len(CODES)] if i % 3 else None, "x" if i % 2 else None) for i in range(6)],
}


@pytest.fixture
def fixed_pair():
    pair = Pair(FIXED_ROWS)
    yield pair
    pair.close()


@pytest.mark.parametrize(
    "sql, parameters",
    [
        # a key constant that only equals the key after coercion: at the parent
        # commit SELECT found the row (scan) but UPDATE/DELETE missed it (index)
        ("UPDATE t1 SET a_score = 9 WHERE a_id = '3'", ()),
        ("UPDATE t1 SET a_score = 9 WHERE a_id = ?", ("3",)),
        ("UPDATE t1 SET a_score = 9 WHERE a_id = 3.0", ()),
        ("DELETE FROM t1 WHERE a_id = ?", (3.0,)),
        ("DELETE FROM t2 WHERE b_aid = '3'", ()),
        ("UPDATE t1 SET a_score = 9 WHERE a_id = 2.5", ()),
        ("UPDATE t1 SET a_score = 9 WHERE a_id = TRUE", ()),
        ("DELETE FROM t1 WHERE a_id = ?", (True,)),
        ("UPDATE t1 SET a_score = 9 WHERE a_id = NULL", ()),
        ("DELETE FROM t1 WHERE a_id = ?", (None,)),
        ("UPDATE t1 SET a_score = 9 WHERE t1.a_id = '4' AND a_grp = 1", ()),
    ],
)
def test_coerced_key_constants_match_sqlite(fixed_pair, sql, parameters):
    fixed_pair.check_dml(sql, parameters)
