"""Unit tests for schema objects and the storage layer (tables, indexes, undo)."""

import sys
import threading
import time

import pytest

from repro.errors import CatalogError, ConstraintViolation
from repro.sql.schema import Column, Index, TableSchema
from repro.sql.storage import HashIndex, Table
from repro.sql.types import SQLType


def make_schema(name="items", with_unique=False):
    columns = [
        Column("id", SQLType.INTEGER, primary_key=True, auto_increment=True),
        Column("name", SQLType.VARCHAR, length=40, not_null=True),
        Column("price", SQLType.DOUBLE, default=0.0),
        Column("sku", SQLType.VARCHAR, length=12, unique=with_unique),
    ]
    return TableSchema(name, columns)


class TestTableSchema:
    def test_column_lookup_is_case_insensitive(self):
        schema = make_schema()
        assert schema.column("NAME").name == "name"
        assert schema.has_column("Price")
        assert not schema.has_column("missing")
        with pytest.raises(CatalogError):
            schema.column("missing")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", SQLType.INTEGER), Column("A", SQLType.INTEGER)])

    def test_primary_key_columns_become_not_null(self):
        schema = make_schema()
        assert schema.primary_key == ["id"]
        assert schema.column("id").not_null is True

    def test_unique_constraints_collected(self):
        schema = make_schema(with_unique=True)
        assert ["id"] in schema.unique_constraints
        assert ["sku"] in schema.unique_constraints

    def test_add_column_and_duplicate_rejected(self):
        schema = make_schema()
        schema.add_column(Column("extra", SQLType.TEXT))
        assert schema.has_column("extra")
        with pytest.raises(CatalogError):
            schema.add_column(Column("extra", SQLType.TEXT))

    def test_index_management(self):
        schema = make_schema()
        schema.add_index(Index("idx_name", "items", ["name"]))
        assert "idx_name" in schema.indexes
        with pytest.raises(CatalogError):
            schema.add_index(Index("idx_name", "items", ["price"]))
        with pytest.raises(CatalogError):
            schema.add_index(Index("idx_bad", "items", ["missing"]))
        schema.drop_index("IDX_NAME")
        assert "idx_name" not in schema.indexes
        with pytest.raises(CatalogError):
            schema.drop_index("idx_name")

    def test_portable_round_trip(self):
        schema = make_schema(with_unique=True)
        schema.add_index(Index("idx_name", "items", ["name"]))
        restored = TableSchema.from_portable(schema.to_portable())
        assert restored.column_names == schema.column_names
        assert restored.primary_key == schema.primary_key
        assert set(restored.indexes) == set(schema.indexes)
        assert restored.column("sku").unique is True

    def test_describe(self):
        description = make_schema().describe()
        assert description["TABLE_NAME"] == "items"
        assert description["PRIMARY_KEY"] == ["id"]
        assert len(description["COLUMNS"]) == 4


class TestHashIndex:
    def test_unique_violation(self):
        index = HashIndex(Index("uq", "t", ["a"], unique=True))
        index.insert(1, {"a": 5})
        with pytest.raises(ConstraintViolation):
            index.insert(2, {"a": 5})

    def test_nulls_do_not_violate_unique(self):
        index = HashIndex(Index("uq", "t", ["a"], unique=True))
        index.insert(1, {"a": None})
        index.insert(2, {"a": None})
        assert len(index) == 2

    def test_lookup_and_remove(self):
        index = HashIndex(Index("idx", "t", ["a", "b"]))
        index.insert(1, {"a": 1, "b": "x"})
        index.insert(2, {"a": 1, "b": "x"})
        assert set(index.lookup((1, "x"))) == {1, 2}
        index.remove(1, {"a": 1, "b": "x"})
        assert set(index.lookup((1, "x"))) == {2}
        assert index.lookup((9, "z")) == set()


class TestTableStorage:
    def test_insert_fills_defaults_and_auto_increment(self):
        table = Table(make_schema())
        row_id, row = table.insert_row({"name": "widget"})
        assert row["id"] == 1
        assert row["price"] == 0.0
        row_id2, row2 = table.insert_row({"name": "gadget"})
        assert row2["id"] == 2
        assert len(table) == 2

    def test_insert_unknown_column_rejected(self):
        table = Table(make_schema())
        with pytest.raises(CatalogError):
            table.insert_row({"name": "x", "bogus": 1})

    def test_not_null_enforced(self):
        table = Table(make_schema())
        with pytest.raises(ConstraintViolation):
            table.insert_row({"name": None})

    def test_primary_key_uniqueness_enforced_and_state_clean(self):
        table = Table(make_schema())
        table.insert_row({"id": 10, "name": "a"})
        with pytest.raises(ConstraintViolation):
            table.insert_row({"id": 10, "name": "b"})
        # the failed insert must not leave the row behind
        assert len(table) == 1

    def test_update_maintains_indexes(self):
        table = Table(make_schema())
        table.create_index(Index("idx_name", "items", ["name"]))
        row_id, _ = table.insert_row({"name": "before"})
        table.update_row(row_id, {"name": "after"})
        index = table.indexes["idx_name"]
        assert set(index.lookup(("after",))) == {row_id}
        assert index.lookup(("before",)) == set()

    def test_update_violating_unique_rolls_back_index_state(self):
        table = Table(make_schema(with_unique=True))
        table.insert_row({"name": "a", "sku": "SKU-1"})
        row_id, _ = table.insert_row({"name": "b", "sku": "SKU-2"})
        with pytest.raises(ConstraintViolation):
            table.update_row(row_id, {"sku": "SKU-1"})
        # the row keeps its old sku and can still be found through the index
        uq = next(index for index in table.indexes.values() if index.columns == ["sku"])
        assert set(uq.lookup(("SKU-2",))) == {row_id}

    def test_update_touches_only_indexes_whose_key_changes(self):
        table = Table(make_schema())
        table.create_index(Index("idx_name", "items", ["name"]))
        row_id, _ = table.insert_row({"name": "x"})
        buckets = {name: index._entries for name, index in table.indexes.items()}
        before = {name: dict(entries) for name, entries in buckets.items()}
        for index in table.indexes.values():
            index.insert = index.remove = None  # any index call would raise
        table.update_row(row_id, {"price": 2.0})
        assert {name: dict(entries) for name, entries in buckets.items()} == before
        assert table.get_row(row_id)["price"] == 2.0

    @pytest.mark.parametrize("columns, key", [(["id"], (1,)), (["name"], ("x",))])
    def test_lock_free_index_read_beside_update(self, columns, key):
        """A reader holding no lock finds a live key at every instant of an UPDATE."""
        table = Table(make_schema())
        table.create_index(Index("idx_name", "items", ["name"]))
        row_id, _ = table.insert_row({"name": "x"})
        table.insert_row({"name": "y"})
        index = table.find_by_index(columns, key)
        failures, stop = [], threading.Event()

        def write():
            price = 0.0
            while not stop.is_set():
                price += 1.0
                table.update_row(row_id, {"price": price})

        def read():
            try:
                deadline = time.monotonic() + 0.4
                while time.monotonic() < deadline and not failures:
                    found = [table.get_row(i) for i in index.lookup(key)]
                    if len(found) != 1 or found[0] is None or found[0]["name"] != "x":
                        failures.append(found)
            except Exception as exc:  # e.g. RuntimeError: Set changed size during iteration
                failures.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write), threading.Thread(target=read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_delete_and_restore(self):
        table = Table(make_schema())
        row_id, row = table.insert_row({"name": "x"})
        removed = table.delete_row(row_id)
        assert len(table) == 0
        table.restore_row(row_id, removed)
        assert table.get_row(row_id)["name"] == "x"

    def test_auto_increment_skips_explicit_keys(self):
        table = Table(make_schema())
        _, row = table.insert_row({"id": 50, "name": "explicit"})
        table.note_explicit_key("id", row["id"])
        _, generated = table.insert_row({"name": "auto"})
        assert generated["id"] == 51

    def test_find_by_index(self):
        table = Table(make_schema())
        assert table.find_by_index(["id"], (1,)) is not None  # primary key index
        assert table.find_by_index(["name"], ("x",)) is None
        table.create_index(Index("idx_name", "items", ["name"]))
        assert table.find_by_index(["NAME"], ("x",)) is not None

    def test_add_column_backfills_rows(self):
        table = Table(make_schema())
        table.insert_row({"name": "x"})
        table.add_column(Column("note", SQLType.TEXT, default="n/a"))
        assert all(row["note"] == "n/a" for _id, row in table.rows())

    def test_truncate(self):
        table = Table(make_schema())
        table.insert_row({"name": "x"})
        table.truncate()
        assert len(table) == 0
        assert len(table.indexes["pk_items"]) == 0
